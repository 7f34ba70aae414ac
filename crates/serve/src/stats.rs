//! The service's counters, declared once.
//!
//! One table names every stats field, says how it differences over a
//! window and documents it; [`ServeStats`] (the shared atomics),
//! [`StatsSnapshot`] (the plain-value copy), the copy between them, the
//! [`Reply::Stats`](crate::wire::Reply::Stats) field order and
//! [`StatsSnapshot::delta_since`] are all generated from it. Adding a
//! counter is one row — appended at the end of its section, because the
//! row order is the wire order.

use std::sync::atomic::{AtomicU64, Ordering};

/// `later − earlier` for a `counter`, `later` for a `gauge`.
macro_rules! stat_delta {
    (counter, $later:expr, $earlier:expr) => {
        $later - $earlier
    };
    (gauge, $later:expr, $earlier:expr) => {
        $later
    };
}

/// Rows are `name: counter | gauge` under one doc comment. `facts` are
/// read off the pinned epoch when a snapshot is taken; `atomics` are the
/// fields of [`ServeStats`]. The wire carries facts, then atomics, each
/// in row order.
macro_rules! stats_table {
    (
        facts { $($(#[$fdoc:meta])* $fact:ident: $fkind:ident,)* }
        atomics { $($(#[$adoc:meta])* $atomic:ident: $akind:ident,)* }
    ) => {
        /// Shared atomic counters, snapshotted into the wire stats reply.
        #[derive(Debug, Default)]
        pub struct ServeStats {
            $($(#[$adoc])* pub $atomic: AtomicU64,)*
        }

        impl ServeStats {
            /// A plain-value copy of every atomic; the epoch facts are
            /// left at zero for the caller to fill in.
            pub fn load(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($atomic: self.$atomic.load(Ordering::Relaxed),)*
                    ..StatsSnapshot::default()
                }
            }
        }

        /// A plain-value copy of every counter plus epoch/graph facts.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct StatsSnapshot {
            $($(#[$fdoc])* pub $fact: u64,)*
            $($(#[$adoc])* pub $atomic: u64,)*
        }

        impl StatsSnapshot {
            /// Number of fields, i.e. `u64`s in a stats reply.
            pub const FIELDS: usize = [$(stringify!($fact),)* $(stringify!($atomic),)*].len();

            /// Every field in wire order.
            pub fn to_array(&self) -> [u64; Self::FIELDS] {
                [$(self.$fact,)* $(self.$atomic,)*]
            }

            /// Inverse of [`to_array`](Self::to_array).
            pub fn from_array(fields: [u64; Self::FIELDS]) -> StatsSnapshot {
                let [$($fact,)* $($atomic,)*] = fields;
                StatsSnapshot { $($fact,)* $($atomic,)* }
            }

            /// What happened between `earlier` and `self`, two snapshots
            /// of one server: counters subtract, gauges keep the later
            /// value.
            pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($fact: stat_delta!($fkind, self.$fact, earlier.$fact),)*
                    $($atomic: stat_delta!($akind, self.$atomic, earlier.$atomic),)*
                }
            }
        }
    };
}

stats_table! {
    facts {
        /// Current epoch number.
        epoch: gauge,
        /// Epochs published since bootstrap.
        epochs_published: counter,
        /// Vertices in the current epoch's graph.
        num_vertices: gauge,
        /// Edges in the current epoch's graph.
        num_edges: gauge,
    }
    atomics {
        /// Queries answered.
        queries: counter,
        /// Inert: always 0, since every query runs alone. Kept only
        /// because the benchmark harness (`benchmark/src/main.rs`) reads
        /// it; the next benchmark change removes it.
        coalesced: counter,
        /// Queries answered from, and executions warm-started from, epoch
        /// warm state.
        warm_hits: counter,
        /// Executions that ran cold.
        cold_runs: counter,
        /// Total rounds across query executions.
        query_rounds: counter,
        /// Total push-direction rounds across query executions.
        query_push_rounds: counter,
        /// State bytes of the most recent query execution.
        last_state_bytes: gauge,
        /// Update batches accepted into the queue.
        batches_enqueued: counter,
        /// Update batches the mutator applied (== epochs published).
        batches_applied: counter,
        /// Individual edge updates applied.
        updates_applied: counter,
        /// Total rounds the mutator's warm pipelines spent re-converging.
        mutator_rounds: counter,
        /// Update batches the mutator failed to apply (skipped after
        /// rollback).
        mutator_errors: counter,
        /// Times the supervisor rolled the mutator back to its pre-batch
        /// state after a panic or engine error.
        mutator_restarts: counter,
        /// 1 while the last batch application failed and no epoch has been
        /// published since; 0 once publication resumes.
        degraded: gauge,
        /// Batches appended to the write-ahead log.
        wal_appends: counter,
        /// Bytes appended to the write-ahead log.
        wal_bytes: counter,
        /// WAL records replayed during the last recovery.
        wal_replayed: counter,
        /// Checkpoints written (boot, periodic, and shutdown).
        checkpoints_written: counter,
        /// Connections refused at accept time because the cap was reached.
        connections_shed: counter,
        /// WAL segments shipped to followers (primary side).
        repl_segments_shipped: counter,
        /// WAL records shipped inside those segments (primary side).
        repl_records_shipped: counter,
        /// Follower acks received (primary side).
        repl_acks: counter,
        /// Worst live-follower lag in batches behind the settled sequence
        /// number, at the last subscribe/ack (primary side).
        repl_follower_lag: gauge,
        /// Follower fingerprint mismatches detected (primary side).
        repl_divergences: counter,
        /// Checkpoint re-syncs: served with `resync` set on the primary,
        /// performed on the follower.
        repl_resyncs: counter,
        /// Last sequence number this node settled *and* fingerprinted
        /// (both roles). Stored with `Release` after the probe is
        /// recorded: whoever reads `seq` here with `Acquire` finds the
        /// probe at `seq`.
        repl_last_seq: gauge,
        /// The primary's settled sequence number as of the last received
        /// segment (follower side — the bounded-staleness reference
        /// point).
        repl_primary_seq: gauge,
        /// Total bytes of checkpoint files written.
        checkpoint_bytes_written: counter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_counters_and_keeps_later_gauges() {
        let earlier = StatsSnapshot {
            epoch: 3,
            epochs_published: 3,
            num_edges: 100,
            queries: 10,
            degraded: 1,
            repl_last_seq: 3,
            ..StatsSnapshot::default()
        };
        let later = StatsSnapshot {
            epoch: 7,
            epochs_published: 7,
            num_edges: 90,
            queries: 25,
            degraded: 0,
            repl_last_seq: 7,
            ..StatsSnapshot::default()
        };
        let d = later.delta_since(&earlier);
        assert_eq!((d.epochs_published, d.queries), (4, 15), "counters");
        assert_eq!((d.epoch, d.num_edges), (7, 90), "epoch facts");
        assert_eq!((d.degraded, d.repl_last_seq), (0, 7), "gauges");
    }

    #[test]
    fn load_copies_atomics_and_array_form_round_trips() {
        let stats = ServeStats::default();
        stats.queries.store(5, Ordering::Relaxed);
        stats.checkpoint_bytes_written.store(9, Ordering::Relaxed);
        let snap = StatsSnapshot {
            epoch: 2,
            ..stats.load()
        };
        assert_eq!((snap.epoch, snap.queries), (2, 5));
        let fields = snap.to_array();
        assert_eq!(fields[0], 2, "facts lead the wire order");
        assert_eq!(fields[StatsSnapshot::FIELDS - 1], 9);
        assert_eq!(StatsSnapshot::from_array(fields), snap);
    }
}
