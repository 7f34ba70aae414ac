//! Error type of [`crate::Pipeline`], [`crate::StreamingPipeline`] and
//! [`crate::execute`].
//!
//! The kernels assert their preconditions; the entry points check the
//! same conditions first and surface them as values so callers
//! embedding the engine (services, CLIs) can recover.

use std::fmt;

/// Everything that can go wrong assembling or executing a pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The processing order's length does not match the graph.
    OrderLengthMismatch {
        /// Length of the supplied order.
        order_len: usize,
        /// Vertex count of the graph.
        num_vertices: usize,
    },
    /// The selected mode needs an algorithm that was never supplied.
    MissingAlgorithm {
        /// The execution mode's name.
        mode: &'static str,
        /// What kind of algorithm the mode needs
        /// (`"gather"` or `"delta"`).
        expected: &'static str,
    },
    /// An algorithm was supplied, but of the wrong kind for the mode
    /// (e.g. a gather algorithm with `Mode::Delta`).
    IncompatibleAlgorithm {
        /// The execution mode's name.
        mode: &'static str,
        /// The kind of algorithm that was provided.
        provided: &'static str,
    },
    /// A numeric configuration value is out of range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Why the value was rejected.
        message: String,
    },
    /// `require_convergence` was set and the round cap was hit first.
    DidNotConverge {
        /// Rounds executed before giving up.
        rounds: usize,
    },
    /// An update batch [`gograph_graph::check_batch`] refuses, and why.
    InvalidBatch(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::OrderLengthMismatch {
                order_len,
                num_vertices,
            } => write!(
                f,
                "processing order has length {order_len} but the graph has \
                 {num_vertices} vertices"
            ),
            EngineError::MissingAlgorithm { mode, expected } => write!(
                f,
                "mode {mode:?} needs a {expected} algorithm but none was supplied"
            ),
            EngineError::IncompatibleAlgorithm { mode, provided } => {
                write!(f, "mode {mode:?} cannot execute a {provided} algorithm")
            }
            EngineError::InvalidParameter { name, message } => {
                write!(f, "invalid parameter {name}: {message}")
            }
            EngineError::DidNotConverge { rounds } => {
                write!(f, "did not converge within {rounds} rounds")
            }
            EngineError::InvalidBatch(why) => write!(f, "invalid update batch: {why}"),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = EngineError::OrderLengthMismatch {
            order_len: 3,
            num_vertices: 5,
        };
        assert!(e.to_string().contains('3'));
        assert!(e.to_string().contains('5'));
        let e = EngineError::MissingAlgorithm {
            mode: "delta-rr",
            expected: "delta",
        };
        assert!(e.to_string().contains("delta-rr"));
        let e = EngineError::DidNotConverge { rounds: 17 };
        assert!(e.to_string().contains("17"));
    }
}
