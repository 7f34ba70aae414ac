//! The processing-order view of an epoch's graph.
//!
//! The epoch graph keeps original vertex ids, and its processing order
//! is a permutation over them: a kernel walking it position by position
//! jumps to a random row block at every step and reads each neighbor's
//! state at a random address. A [`ProcessingView`] is the same graph
//! relabelled into a processing order frozen when the view was built, so
//! a run in view ids walks rows, and mostly reads states, in memory
//! order — the layout the paper's "neighbors first" order is meant to
//! produce, and the one relabelling orders such as Gorder and Rabbit
//! Order assume.
//!
//! A view is a second graph, so a service builds one only when a
//! source-rooted query first finds none: that query runs on the epoch
//! graph and asks the mutator for a view, which it then keeps current.
//! It rebuilds the view from the whole graph on a re-sync and whenever
//! its pipeline adopts a full reorder. After every other applied batch
//! it derives the next view from the last one
//! (`ProcessingView::next`): the batch, in view ids, patches only the
//! row blocks it lands in, and the moves the batch made to the order are
//! made to the view's order too, with only the moved vertices mapped
//! into view ids. Consecutive views share every block a batch left
//! alone, as consecutive epochs do. A batch the mutator rolls back
//! leaves the view as it was, and a panic while deriving or building it
//! drops the view. The mutator publishes each epoch before deriving its
//! view, so no batch waits on a view to become visible; a source-rooted
//! query that pins the epoch in between runs on the epoch graph. A
//! stopping mutator drops the view before it encodes its final
//! checkpoint.
//!
//! Only source-rooted queries run on the view: SSSP, BFS, SSWP and
//! their multi-source unions ([`AlgSpec::needs_sources`]). Their initial
//! states depend on the source set alone, and min/max aggregation does
//! not depend on the order of the neighbors within a row, so a run on
//! the view in the view order computes, vertex for vertex, the states
//! and the rounds of a run on the epoch graph in the epoch order.
//! Connected components label each component by a vertex id and
//! PageRank sums a row in its stored order, so both keep running on the
//! epoch graph.
//!
//! [`AlgSpec::needs_sources`]: crate::AlgSpec::needs_sources

use gograph_graph::{CsrGraph, EdgeUpdate, OrderPatch, Permutation, VertexId};
use std::sync::Arc;

/// An epoch graph relabelled into a frozen processing order, with the
/// epoch's current order in the same ids. Only the mutator builds and
/// derives one, so its graph is always the view of the epoch it is
/// published with.
#[derive(Debug)]
pub struct ProcessingView {
    /// The processing order frozen at the last build: vertex `v` is view
    /// vertex `labels.new_id(v)`. A vertex at or past `labels.len()`,
    /// added by a later batch, keeps its own id.
    pub(crate) labels: Arc<Permutation>,
    /// The epoch graph in view ids: `graph.relabeled(labels)`, with the
    /// labels extended by the identity over vertices added since.
    pub(crate) graph: CsrGraph,
    /// The epoch's processing order in view ids: position `p` holds the
    /// view id of the epoch order's vertex at `p`. The identity right
    /// after a build.
    pub(crate) order: Arc<Permutation>,
}

impl ProcessingView {
    /// The view of `graph` with `order` as its labels.
    pub(crate) fn build(graph: &CsrGraph, order: &Arc<Permutation>) -> ProcessingView {
        ProcessingView {
            graph: graph.relabeled(order),
            order: Arc::new(Permutation::identity(order.len())),
            labels: Arc::clone(order),
        }
    }

    /// The view after `batch` was applied to this view's graph and
    /// `moves` to its processing order: the batch's edges, self-loops
    /// skipped as the streaming pipeline skips them, are patched into
    /// the view's graph in view ids, and the moves, their vertices in
    /// view ids, into the view's order. The labels stay. `O(touched
    /// blocks + d)` for `d` moves, plus copies of the order.
    ///
    /// # Panics
    /// Panics if `moves` was not made from an order of this view's
    /// length.
    pub(crate) fn next(&self, moves: &OrderPatch, batch: &[EdgeUpdate]) -> ProcessingView {
        let updates: Vec<EdgeUpdate> = batch
            .iter()
            .filter(|u| u.src() != u.dst())
            .map(|u| match *u {
                EdgeUpdate::Insert { src, dst, weight } => EdgeUpdate::Insert {
                    src: self.view_id(src),
                    dst: self.view_id(dst),
                    weight,
                },
                EdgeUpdate::Remove { src, dst } => EdgeUpdate::Remove {
                    src: self.view_id(src),
                    dst: self.view_id(dst),
                },
            })
            .collect();
        let graph = if updates.is_empty() {
            self.graph.snapshot()
        } else {
            self.graph.apply_updates(&updates)
        };
        ProcessingView {
            labels: Arc::clone(&self.labels),
            graph,
            order: if moves.is_empty() {
                Arc::clone(&self.order)
            } else {
                Arc::new(self.order.patched(&moves.relabeled(|v| self.view_id(v))))
            },
        }
    }

    /// The view id of original vertex `v`.
    #[inline]
    pub(crate) fn view_id(&self, v: VertexId) -> VertexId {
        if (v as usize) < self.labels.len() {
            self.labels.new_id(v)
        } else {
            v
        }
    }

    /// The original id of view vertex `v`.
    #[inline]
    pub(crate) fn original_id(&self, v: VertexId) -> VertexId {
        if (v as usize) < self.labels.len() {
            self.labels.vertex_at(v as usize)
        } else {
            v
        }
    }

    /// Per-vertex states indexed by original id, re-indexed by view id.
    pub(crate) fn states_in(&self, states: &[f64]) -> Vec<f64> {
        (0..states.len() as VertexId)
            .map(|v| states[self.original_id(v) as usize])
            .collect()
    }

    /// Per-vertex states indexed by view id, re-indexed by original id.
    pub(crate) fn states_out(&self, states: &[f64]) -> Vec<f64> {
        (0..states.len() as VertexId)
            .map(|v| states[self.view_id(v) as usize])
            .collect()
    }
}

/// Asserts that `view` is the view of `graph` in `order`: its graph is
/// `graph` relabelled by the view's labels (extended by the identity over
/// vertices added since), and its order maps back to `order`.
#[cfg(test)]
pub(crate) fn assert_view_of(view: &ProcessingView, graph: &CsrGraph, order: &Permutation) {
    let n = graph.num_vertices() as VertexId;
    let labels = Permutation::from_order((0..n).map(|v| view.original_id(v)).collect());
    assert_eq!(view.graph, graph.relabeled(&labels), "graph");
    let back: Vec<VertexId> = (view.order.order().iter())
        .map(|&v| view.original_id(v))
        .collect();
    assert_eq!(back, order.order(), "order");
}

#[cfg(test)]
mod tests {
    use super::*;
    use gograph_graph::generators::regular::chain;

    #[test]
    fn a_view_follows_batches_and_growth_in_view_ids() {
        let g = chain(6);
        let order = Arc::new(Permutation::from_order(vec![5, 3, 1, 0, 2, 4]));
        let view = ProcessingView::build(&g, &order);
        assert!(view.order.is_identity());
        assert_view_of(&view, &g, &order);
        assert_eq!(view.view_id(5), 0);
        assert_eq!(view.original_id(0), 5);
        assert_eq!(view.view_id(9), 9, "ids past the labels keep their own");

        let batch = [
            EdgeUpdate::insert(0, 7),
            EdgeUpdate::insert(3, 3),
            EdgeUpdate::remove(1, 2),
            EdgeUpdate::remove(4, 40),
        ];
        let g2 = g.apply_updates(&batch[..1]).apply_updates(&batch[2..]);
        // 3 moves to the head, 1 to the tail; 6 and 7 are new.
        let moves = OrderPatch::new(6, vec![1, 2], vec![(0, 3), (6, 6), (6, 1), (6, 7)]);
        let order2 = order.patched(&moves);
        assert_eq!(order2.order(), &[3, 5, 0, 2, 4, 6, 1, 7]);
        let next = view.next(&moves, &batch);
        assert_eq!(next.graph.num_vertices(), 8);
        assert_view_of(&next, &g2, &order2);
        assert!(Arc::ptr_eq(&next.labels, &view.labels));

        // A batch that moves nothing keeps the view's order.
        let still = next.next(&OrderPatch::none(8), &[EdgeUpdate::insert(2, 2)]);
        assert!(Arc::ptr_eq(&still.order, &next.order));
        assert_view_of(&still, &g2, &order2);

        let states: Vec<f64> = (0..8).map(f64::from).collect();
        assert_eq!(next.states_out(&next.states_in(&states)), states);
    }

    /// The moves a real maintainer makes, in a batch that also grows the
    /// graph, carried into view ids batch after batch.
    #[test]
    fn a_view_follows_a_pipeline_whose_batch_moves_and_grows() {
        use gograph_engine::{Mode, Sssp, StreamingPipeline};
        use gograph_graph::generators::{planted_partition, PlantedPartitionConfig};

        let g = planted_partition(PlantedPartitionConfig {
            num_vertices: 300,
            num_edges: 1500,
            communities: 6,
            p_intra: 0.8,
            gamma: 2.4,
            seed: 3,
        });
        let mut sp = StreamingPipeline::over(&g)
            .mode(Mode::Async)
            .algorithm(Sssp::new(0))
            .build()
            .unwrap();
        let mut view = ProcessingView::build(sp.graph(), sp.shared_order());
        let mut grown = false;
        for k in 0..12u32 {
            let n = sp.graph().num_vertices() as VertexId;
            let batch: Vec<EdgeUpdate> = (0..16)
                .map(|i| EdgeUpdate::insert((k * 37 + i * 101) % n, (k * 53 + i * 29 + 7) % n))
                .chain([
                    EdgeUpdate::insert(k * 11 % n, n),
                    EdgeUpdate::insert(n + 1, 5),
                ])
                .collect();
            sp.apply_batch(&batch).unwrap();
            let moves = sp.order_moves().unwrap();
            assert_eq!(moves.from_len(), n as usize);
            grown |= moves.moved() > 2;
            view = view.next(moves, &batch);
            assert_view_of(&view, sp.graph(), sp.order());
        }
        assert!(grown, "some batch moved old vertices besides the new ones");
        assert_eq!(view.graph.num_vertices(), 300 + 24);
    }
}
