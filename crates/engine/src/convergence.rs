//! Convergence bookkeeping: per-round deltas, traces for the Fig. 7
//! convergence curves, and the run statistics every engine returns.

use crate::algorithm::ConvergenceNorm;
use std::time::Duration;

/// One recorded round of an iterative run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Round number (1-based; round 0 is the initial state).
    pub round: usize,
    /// Wall-clock time elapsed since the run started.
    pub elapsed: Duration,
    /// Aggregated state delta of this round (per the algorithm's norm).
    pub delta: f64,
    /// Sum of all finite vertex states after this round (the quantity the
    /// paper's `dist_t = |Σ x* − Σ x_t|` curves are built from).
    pub finite_sum: f64,
    /// Number of vertices whose state is still non-finite (e.g. SSSP's
    /// unreached `+inf`).
    pub infinite_count: usize,
}

/// Statistics of one engine run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Rounds executed (the paper's "number of iterations").
    pub rounds: usize,
    /// Wall-clock runtime of the iteration loop.
    pub runtime: Duration,
    /// Whether the convergence test was met within the round cap.
    pub converged: bool,
    /// Final vertex states.
    pub final_states: Vec<f64>,
    /// Per-round trace (empty unless tracing was enabled).
    pub trace: Vec<TracePoint>,
    /// Bytes of state the engine held (Fig. 11 memory accounting):
    /// one array for async, two for sync.
    pub state_memory_bytes: usize,
    /// Total vertex evaluations, for engines that skip work
    /// (`Some` for the worklist engine; full-scan engines report `None`
    /// — their count is always `rounds * n`).
    pub evaluations: Option<usize>,
    /// Rounds executed in the push (scatter) direction: scatter rounds
    /// for the direction-optimizing gather engines (sequential and
    /// block-parallel alike), sparse-sweep/batch rounds that actually
    /// consumed a delta for the delta engines. 0 for pull-only runs.
    pub push_rounds: usize,
}

impl RunStats {
    /// Sum of all finite final states.
    pub fn finite_sum(&self) -> f64 {
        self.final_states
            .iter()
            .copied()
            .filter(|x| x.is_finite())
            .sum()
    }

    /// Distance-to-convergence curve against a reference converged state
    /// sum: `dist_t = |Σ x* − Σ x_t|` (paper §V-C). Returns
    /// `(elapsed, dist)` pairs.
    pub fn distance_curve(&self, converged_sum: f64) -> Vec<(Duration, f64)> {
        self.trace
            .iter()
            .map(|p| (p.elapsed, (converged_sum - p.finite_sum).abs()))
            .collect()
    }
}

/// Accumulates per-round deltas under a [`ConvergenceNorm`].
#[derive(Debug, Clone, Copy)]
pub struct DeltaAccumulator {
    norm: ConvergenceNorm,
    value: f64,
}

impl DeltaAccumulator {
    /// A fresh accumulator for one round.
    pub fn new(norm: ConvergenceNorm) -> Self {
        DeltaAccumulator { norm, value: 0.0 }
    }

    /// Records a state change `old -> new`.
    #[inline]
    pub fn record(&mut self, old: f64, new: f64) {
        let d = state_delta(old, new);
        match self.norm {
            ConvergenceNorm::Max => self.value = self.value.max(d),
            ConvergenceNorm::Sum => self.value += d,
        }
    }

    /// The aggregated delta.
    pub fn value(&self) -> f64 {
        self.value
    }
}

/// |old − new| with the convention that two non-finite states are equal
/// (SSSP's `inf -> inf` is no change) and a transition from non-finite to
/// finite is an infinite (i.e. definitely above-epsilon) change.
#[inline]
pub fn state_delta(old: f64, new: f64) -> f64 {
    match (old.is_finite(), new.is_finite()) {
        (true, true) => (old - new).abs(),
        (false, false) => 0.0,
        _ => f64::INFINITY,
    }
}

/// Builds a [`TracePoint`] from a state array.
pub fn trace_point(round: usize, elapsed: Duration, delta: f64, states: &[f64]) -> TracePoint {
    let mut finite_sum = 0.0;
    let mut infinite_count = 0;
    for &x in states {
        if x.is_finite() {
            finite_sum += x;
        } else {
            infinite_count += 1;
        }
    }
    TracePoint {
        round,
        elapsed,
        delta,
        finite_sum,
        infinite_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_delta_handles_infinities() {
        assert_eq!(state_delta(f64::INFINITY, f64::INFINITY), 0.0);
        assert_eq!(state_delta(f64::INFINITY, 3.0), f64::INFINITY);
        assert_eq!(state_delta(1.0, 4.0), 3.0);
    }

    #[test]
    fn max_norm_takes_max() {
        let mut acc = DeltaAccumulator::new(ConvergenceNorm::Max);
        acc.record(0.0, 1.0);
        acc.record(0.0, 5.0);
        acc.record(0.0, 2.0);
        assert_eq!(acc.value(), 5.0);
    }

    #[test]
    fn sum_norm_adds() {
        let mut acc = DeltaAccumulator::new(ConvergenceNorm::Sum);
        acc.record(0.0, 1.0);
        acc.record(3.0, 1.0);
        assert_eq!(acc.value(), 3.0);
    }

    #[test]
    fn trace_point_splits_finite_and_infinite() {
        let p = trace_point(2, Duration::from_millis(5), 0.1, &[1.0, f64::INFINITY, 2.0]);
        assert_eq!(p.finite_sum, 3.0);
        assert_eq!(p.infinite_count, 1);
        assert_eq!(p.round, 2);
    }

    #[test]
    fn distance_curve_from_trace() {
        let stats = RunStats {
            rounds: 2,
            runtime: Duration::ZERO,
            converged: true,
            final_states: vec![1.0, 2.0],
            trace: vec![
                trace_point(1, Duration::from_millis(1), 1.0, &[0.5, 1.0]),
                trace_point(2, Duration::from_millis(2), 0.0, &[1.0, 2.0]),
            ],
            state_memory_bytes: 16,
            evaluations: None,
            push_rounds: 0,
        };
        let curve = stats.distance_curve(3.0);
        assert_eq!(curve[0].1, 1.5);
        assert_eq!(curve[1].1, 0.0);
        assert_eq!(stats.finite_sum(), 3.0);
    }
}
