//! RCU-style epoch publication.
//!
//! The mutator thread builds an immutable [`EpochState`] after every
//! applied update batch and swaps it into the [`EpochCell`]; readers
//! [`pin`](EpochCell::pin) the current epoch (an `Arc` clone taken
//! under a short lock) and execute entirely against that snapshot, so a
//! published swap never moves data out from under a running query.
//! Retirement is the `Arc` refcount: when the last pinned reader drops
//! its handle, the old epoch's storage goes with it — and because
//! `CsrGraph`/`Permutation` payloads are themselves `Arc`-shared (see
//! `CsrGraph::snapshot`), consecutive epochs share every row block of
//! the graph the update batch didn't touch: a batch rebuilds only the
//! blocks it lands in (`CsrGraph::apply_updates`), so K pinned epochs
//! hold one graph plus K batches' worth of blocks and out-degree
//! arrays.
//!
//! Once a source-rooted query has asked for one, the cell also holds
//! each epoch's [`ProcessingView`] — the graph relabelled into
//! processing order, which those queries run on — beside the epoch,
//! under the same lock, rather than as a field of [`EpochState`]. A
//! reply pins its epoch for as long as its holder keeps it (a client
//! verifying replies may keep dozens), and an `EpochState` that carried
//! the view would make each of those pins hold a second graph's blocks.
//! A query pins the view only while its kernel runs.

use crate::spec::AlgSpec;
use crate::view::ProcessingView;
use gograph_graph::{CsrGraph, Permutation, VertexId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Warm state for one algorithm, carried by an epoch: the states the
/// mutator's pipeline ended its last run with, and whether that run
/// converged.
#[derive(Debug, Clone)]
pub struct WarmEntry {
    /// Which algorithm these states are a fixpoint of.
    pub alg: AlgSpec,
    /// The source the fixpoint was computed from (ignored by global
    /// algorithms). Only queries for exactly this source may warm-start
    /// from it.
    pub source: VertexId,
    /// The per-vertex states on this epoch's graph.
    pub states: Arc<Vec<f64>>,
    /// Whether the run that produced `states` converged. A run that hit
    /// the round cap publishes its states too; only a converged entry is
    /// a fixpoint a query may be answered from without running.
    pub converged: bool,
}

/// One immutable snapshot of the served graph: everything a reader
/// needs to execute a query without touching shared mutable state.
#[derive(Debug, Clone)]
pub struct EpochState {
    /// Monotone epoch number (0 = the bootstrap epoch).
    pub epoch: u64,
    /// The graph at this epoch, in original vertex ids; the processing
    /// order is [`EpochState::order`]. The same graph relabelled into
    /// processing order is the epoch's [`ProcessingView`], which the
    /// [`EpochCell`] holds beside the epoch, not in it. Its row blocks
    /// are `Arc`-shared with the mutator's pipeline and with the
    /// neighbouring epochs (cloning it out was O(1)).
    pub graph: CsrGraph,
    /// The maintained GoGraph processing order for this graph.
    pub order: Arc<Permutation>,
    /// Converged warm states, one entry per configured warm algorithm.
    pub warm: Vec<WarmEntry>,
}

impl EpochState {
    /// The warm entry matching `alg` at `source`, if this epoch carries
    /// one (global algorithms match regardless of `source`).
    pub fn warm_for(&self, alg: AlgSpec, source: VertexId) -> Option<&WarmEntry> {
        self.warm
            .iter()
            .find(|w| w.alg == alg && (!alg.needs_sources() || w.source == source))
    }
}

/// The swap cell readers pin epochs from, each with its
/// [`ProcessingView`] once one is kept.
///
/// A plain `Mutex` rather than a lock-free pointer: the critical section
/// is two refcount bumps, so the lock is held for nanoseconds and never
/// across a query. (An `AtomicPtr` RCU would need a
/// deferred-reclamation scheme the `Arc` already provides.)
#[derive(Debug)]
pub struct EpochCell {
    current: Mutex<Pinned>,
    published: AtomicU64,
}

/// An epoch and its view, if one is kept.
type Pinned = (Arc<EpochState>, Option<Arc<ProcessingView>>);

impl EpochCell {
    /// Starts the cell at `initial`, with no view and `published_so_far`
    /// epochs counted as published: 0 at a bootstrap epoch, the
    /// recovered epoch's number when a crashed process or a checkpoint
    /// is resumed, so the counter continues where it left off.
    pub fn new(initial: EpochState, published_so_far: u64) -> EpochCell {
        EpochCell {
            current: Mutex::new((Arc::new(initial), None)),
            published: AtomicU64::new(published_so_far),
        }
    }

    /// Pins the current epoch: the returned handle keeps every array of
    /// that snapshot alive until dropped, regardless of how many epochs
    /// are published meanwhile.
    pub fn pin(&self) -> Arc<EpochState> {
        Arc::clone(&crate::lock_unpoisoned(&self.current).0)
    }

    /// Pins the current epoch and its view, taken together.
    pub fn pin_with_view(&self) -> Pinned {
        crate::lock_unpoisoned(&self.current).clone()
    }

    /// Publishes `next` and its `view` as the current epoch and returns
    /// its epoch number. The displaced epoch retires when its last
    /// reader unpins.
    pub fn publish(&self, next: EpochState, view: Option<Arc<ProcessingView>>) -> u64 {
        let epoch = next.epoch;
        *crate::lock_unpoisoned(&self.current) = (Arc::new(next), view);
        self.published.fetch_add(1, Ordering::Relaxed);
        epoch
    }

    /// Sets (or clears) the current epoch's view; publishes no epoch.
    /// Only the publisher may call it, with the view of the epoch it
    /// published last.
    pub fn set_view(&self, view: Option<Arc<ProcessingView>>) {
        crate::lock_unpoisoned(&self.current).1 = view;
    }

    /// Epochs published since the bootstrap epoch.
    pub fn epochs_published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gograph_graph::generators::regular::chain;

    fn epoch(n: u64, g: &CsrGraph) -> EpochState {
        EpochState {
            epoch: n,
            graph: g.snapshot(),
            order: Arc::new(Permutation::identity(g.num_vertices())),
            warm: Vec::new(),
        }
    }

    #[test]
    fn pinned_epoch_survives_publication() {
        let g = chain(6);
        let cell = EpochCell::new(epoch(0, &g), 0);
        let pinned = cell.pin();
        assert_eq!(pinned.epoch, 0);
        assert_eq!(cell.epochs_published(), 0);

        let g2 = chain(8);
        cell.publish(epoch(1, &g2), None);
        assert_eq!(cell.epochs_published(), 1);
        // The old pin still sees the old snapshot...
        assert_eq!(pinned.epoch, 0);
        assert_eq!(pinned.graph.num_vertices(), 6);
        // ...while new pins see the new epoch.
        assert_eq!(cell.pin().epoch, 1);
        assert_eq!(cell.pin().graph.num_vertices(), 8);
    }

    #[test]
    fn retirement_is_the_refcount() {
        let g = chain(4);
        let cell = EpochCell::new(epoch(0, &g), 0);
        let pinned = cell.pin();
        cell.publish(epoch(1, &g), None);
        // The only remaining owners of epoch 0 are `pinned` itself.
        assert_eq!(Arc::strong_count(&pinned), 1);
        let again = Arc::clone(&pinned);
        assert_eq!(Arc::strong_count(&again), 2);
    }

    #[test]
    fn warm_lookup_respects_sources() {
        let g = chain(5);
        let mut e = epoch(0, &g);
        e.warm.push(WarmEntry {
            alg: AlgSpec::Sssp,
            source: 2,
            states: Arc::new(vec![0.0; 5]),
            converged: true,
        });
        e.warm.push(WarmEntry {
            alg: AlgSpec::Cc,
            source: 0,
            states: Arc::new(vec![0.0; 5]),
            converged: true,
        });
        assert!(e.warm_for(AlgSpec::Sssp, 2).is_some());
        assert!(e.warm_for(AlgSpec::Sssp, 3).is_none(), "wrong source");
        assert!(
            e.warm_for(AlgSpec::Cc, 99).is_some(),
            "global ignores source"
        );
        assert!(e.warm_for(AlgSpec::Bfs, 2).is_none());
    }
}
