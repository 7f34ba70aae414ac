//! Epoch-snapshot graph query service.
//!
//! Turns the workspace's reordering + warm-start machinery into a
//! long-running serving system, per the paper's "serve heavy traffic"
//! motivation:
//!
//! - **[`epoch`]** — RCU-style snapshots: readers pin an immutable
//!   [`EpochState`] (reordered CSR, processing order, converged warm
//!   states) and never see a mutation; the mutator publishes the next
//!   epoch with a swap and old epochs retire with their last reader.
//! - **[`core`]** — [`ServeCore`], the transport-agnostic service:
//!   epoch-pinned query execution, each query alone on its own
//!   sources, and a single mutator thread draining update batches
//!   through `StreamingPipeline::apply_batch`.
//! - **[`stats`]** — the one table every counter is declared in;
//!   [`StatsSnapshot`], its wire order and its window delta derive
//!   from it.
//! - **[`spec`]** — wire-addressable algorithm/mode codes and the
//!   [`MultiSource`] wrapper a multi-source query runs under.
//! - **[`wire`]** — the length-prefixed binary protocol.
//! - **[`server`] / [`client`]** — thread-per-connection TCP front end
//!   and the matching blocking client.
//! - **[`wal`] / [`checkpoint`]** — the durability layer: a CRC-framed
//!   write-ahead log of admitted update batches plus one atomically
//!   rewritten epoch checkpoint file, so a crashed server recovers to a
//!   bit-identical epoch by replaying the WAL tail.
//! - **[`replication`]** — WAL-shipping primary/follower pairs: the
//!   follower replays the primary's records through the same
//!   supervised apply path (bit-identical epochs), fingerprint probes
//!   detect divergence, checkpoint re-sync repairs it.
//! - **[`fault`]** — deterministic, seeded fault injection
//!   ([`FaultPlan`]) used by the crash-recovery and replication test
//!   harnesses.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod client;
pub mod core;
pub mod epoch;
pub mod fault;
pub mod replication;
pub mod server;
pub mod spec;
pub mod stats;
pub mod wal;
pub mod wire;

pub use crate::core::{
    DurabilityConfig, ProbeReport, QueryOutcome, QueryRequest, Role, SegmentRecords, ServeConfig,
    ServeCore, ServeError, StatsSnapshot, WarmSpec,
};
pub use checkpoint::{
    read_checkpoint, write_checkpoint, Checkpoint, PipelineCheckpoint, UnsupportedVersion,
};
pub use client::{ClientError, RetryPolicy, ServeClient};
pub use epoch::{EpochCell, EpochState, WarmEntry};
pub use fault::FaultPlan;
pub use replication::{
    bootstrap_follower, start_follower, FollowerHandle, ReplicaPuller, ReplicationConfig,
    StepOutcome,
};
pub use server::{serve, serve_with, ServerConfig, ServerHandle};
pub use spec::{AlgSpec, ModeSpec, MultiSource, RoleSpec};
pub use wal::{
    compact_wal, read_wal, read_wal_segment, truncate_wal, SyncPolicy, TailStatus, WalContents,
    WalRecord, WalWriter,
};
pub use wire::{ErrorCode, ProbeVerdict, QueryReply, Reply, Request, WireError};

use std::sync::{Mutex, MutexGuard};

/// Locks `m`, recovering the guard if a previous holder panicked.
///
/// Every shared structure in this crate is left consistent at each
/// instruction boundary (swaps of `Arc`s, counter bumps), so a
/// poisoned mutex carries no torn state — propagating the poison
/// would only turn one thread's panic into a service-wide outage.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod end_to_end {
    use super::*;
    use gograph_graph::generators::{planted_partition, PlantedPartitionConfig};
    use gograph_graph::{CsrGraph, EdgeUpdate};

    fn graph() -> CsrGraph {
        planted_partition(PlantedPartitionConfig {
            num_vertices: 60,
            num_edges: 300,
            communities: 3,
            p_intra: 0.8,
            gamma: 2.4,
            seed: 5,
        })
    }

    #[test]
    fn tcp_roundtrip_query_update_stats_shutdown() {
        let g = graph();
        let core = ServeCore::start(
            &g,
            ServeConfig {
                warm: vec![WarmSpec::new(AlgSpec::Sssp, 0)],
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let server = serve("127.0.0.1:0", core).unwrap();
        let addr = server.local_addr();

        let mut c = ServeClient::connect(addr).unwrap();
        let q = c
            .query(AlgSpec::Sssp, ModeSpec::Async, false, &[0], &[0, 5, 59])
            .unwrap();
        assert_eq!(q.epoch, 0);
        assert!(q.warm);
        assert!(q.converged);
        assert_eq!(q.effective_sources, vec![0]);
        assert_eq!(q.values.len(), 3);
        assert_eq!(q.values[0], (0, 0.0), "source distance is 0");

        let (accepted, _) = c
            .send_updates(&[EdgeUpdate::insert(0, 30), EdgeUpdate::insert(30, 59)])
            .unwrap();
        assert_eq!(accepted, 2);
        server.core().quiesce();

        let s = c.stats().unwrap();
        assert_eq!(s.epochs_published, 1);
        assert_eq!(s.queries, 1);
        assert_eq!(s.num_edges, g.num_edges() as u64 + 2);

        let q2 = c
            .query(AlgSpec::Sssp, ModeSpec::Async, false, &[0], &[59])
            .unwrap();
        assert_eq!(q2.epoch, 1, "post-update queries pin the new epoch");

        let last = c.shutdown_server().unwrap();
        assert!(last.queries >= 2);
        // The accept loop notices the flag; wait() would block until it
        // has, shutdown() forces it.
        let mut server = server;
        server.shutdown();
        assert!(server.is_stopped());
    }

    #[test]
    fn out_of_range_targets_are_refused_not_dropped() {
        let g = graph();
        let core = ServeCore::start(&g, ServeConfig::default()).unwrap();
        let mut server = serve("127.0.0.1:0", core).unwrap();
        let mut c = ServeClient::connect(server.local_addr()).unwrap();
        match c.query(AlgSpec::Sssp, ModeSpec::Async, false, &[0], &[5, 60]) {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, ErrorCode::InvalidRequest);
                assert!(
                    message.contains("target vertex 60") && message.contains("60 vertices"),
                    "names the vertex and the vertex count: {message}"
                );
            }
            other => panic!("an out-of-range target must be refused, got {other:?}"),
        }
        let q = c
            .query(AlgSpec::Sssp, ModeSpec::Async, false, &[0], &[5, 59])
            .unwrap();
        assert_eq!(q.values.len(), 2, "in-range targets still answer");
        server.shutdown();
    }
}
