//! Greedy optimal-position insertion — the paper's `GetOptVal` function
//! (Algorithm 1) generalized over weighted items so the same code orders
//! vertices (unit weights) and super-vertices (inter-subgraph edge-count
//! weights).
//!
//! Positions are encoded as floating-point `val`s rather than dense
//! indices: inserting between two placed items takes the midpoint of
//! their `val`s, so no shifting is needed (paper §IV-C). The final order
//! sorts items by `val` (ties by id).
//!
//! The scan works exactly like the paper's: only positions adjacent to
//! the candidate's placed neighbors can change the positive-edge count,
//! so the candidate starts at the head (`pev = Σ out-weights`) and walks
//! past each neighbor in ascending `val`, updating `pev` incrementally
//! (`+w` for an in-neighbor passed, `−w` for an out-neighbor passed) and
//! keeping the best position seen.

use gograph_graph::{OrderPatch, Permutation, VertexId};

/// A placed-or-pending item's neighbor, as seen by [`InsertionOrder::insert`]:
/// `in_weight` is the total weight of edges *from* the neighbor *to* the
/// candidate; `out_weight` is the total weight of edges from the candidate
/// to the neighbor. Reciprocal connections carry both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborLink {
    /// Id of the already-placed neighbor.
    pub id: usize,
    /// Weight of neighbor -> candidate edges (candidate's in-edges).
    pub in_weight: f64,
    /// Weight of candidate -> neighbor edges (candidate's out-edges).
    pub out_weight: f64,
}

impl NeighborLink {
    /// Convenience constructor.
    pub fn new(id: usize, in_weight: f64, out_weight: f64) -> Self {
        NeighborLink {
            id,
            in_weight,
            out_weight,
        }
    }
}

/// Outcome of one insertion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InsertOutcome {
    /// The `val` assigned to the candidate.
    pub val: f64,
    /// Positive-edge weight gained (the best `pev` over all positions).
    pub positive_gain: f64,
    /// Total edge weight between the candidate and placed neighbors
    /// (`|Ec_v|` in Lemma 2; `positive_gain >= total_link_weight / 2`).
    pub total_link_weight: f64,
}

/// One `(id, bits)` element's term in a commutative multiset digest:
/// the digest of a set of elements is the wrapping sum of their terms,
/// so it does not depend on the order they were added in, and changing
/// one element patches it in `O(1)` (subtract the old term, add the
/// new). Used for the order's keys here and for converged states in the
/// streaming engine.
pub fn digest_term(id: usize, bits: u64) -> u64 {
    splitmix64(splitmix64(id as u64) ^ bits)
}

/// The digest of `(id, bits)` for every id of `items`, from scratch.
pub fn digest_of(items: impl IntoIterator<Item = (usize, u64)>) -> u64 {
    items
        .into_iter()
        .fold(0, |d, (id, bits)| d.wrapping_add(digest_term(id, bits)))
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A growing processing order keyed by float `val`s.
///
/// Vals are kept **globally unique**: a collision would make the final
/// sort break the tie by item id, silently reordering the candidate
/// relative to a same-val neighbor and losing positive edges the scan
/// already counted. Head/tail insertions use the global extremes
/// (`min − 1` / `max + 1`, which cannot collide), and midpoints are
/// nudged toward the lower neighbor until unused.
#[derive(Debug, Clone)]
pub struct InsertionOrder {
    vals: Vec<f64>,
    inserted: Vec<bool>,
    used_vals: std::collections::HashSet<u64>,
    min_val: f64,
    max_val: f64,
    count: usize,
    /// [`digest_term`] summed over every inserted `(id, val bits)`, kept
    /// current by `finish` and `remove`.
    digest: u64,
    /// Ids whose key was set or cleared since the last
    /// [`InsertionOrder::commit`], each once (`is_rekeyed` is the set
    /// view).
    rekeyed: Vec<usize>,
    is_rekeyed: Vec<bool>,
}

impl InsertionOrder {
    /// An empty order over item ids `0..n`.
    pub fn new(n: usize) -> Self {
        InsertionOrder {
            vals: vec![f64::NAN; n],
            inserted: vec![false; n],
            used_vals: std::collections::HashSet::with_capacity(n),
            min_val: 0.0,
            max_val: 0.0,
            count: 0,
            digest: 0,
            rekeyed: Vec::new(),
            is_rekeyed: vec![false; n],
        }
    }

    /// Number of items inserted so far.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if no item has been inserted.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// True if `id` has been inserted.
    pub fn contains(&self, id: usize) -> bool {
        self.inserted[id]
    }

    /// The `val` of an inserted item.
    ///
    /// # Panics
    /// Panics if `id` was never inserted.
    pub fn val(&self, id: usize) -> f64 {
        assert!(self.inserted[id], "item {id} not inserted");
        self.vals[id]
    }

    /// Raw val array (NaN for uninserted items).
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Inserts `id` at the position maximizing the positive-edge weight
    /// against its already-placed `neighbors` (links to uninserted ids
    /// are ignored). Returns the chosen `val` and the gain achieved.
    ///
    /// Ties prefer the head-most optimal position, matching the paper's
    /// strict `maxpev < pev` update while scanning head → tail.
    pub fn insert(&mut self, id: usize, neighbors: &[NeighborLink]) -> InsertOutcome {
        assert!(!self.inserted[id], "item {id} inserted twice");
        // Keep only placed neighbors, sorted by val ascending.
        let mut placed: Vec<(f64, f64, f64)> = neighbors
            .iter()
            .filter(|l| l.id != id && self.inserted[l.id])
            .map(|l| (self.vals[l.id], l.in_weight, l.out_weight))
            .collect();
        placed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());

        let total_link_weight: f64 = placed.iter().map(|&(_, wi, wo)| wi + wo).sum();

        let val = if self.count == 0 || placed.is_empty() {
            // First item, or no placed neighbors: append at the tail.
            if self.count == 0 {
                0.0
            } else {
                self.max_val + 1.0
            }
        } else {
            // Head position: every out-edge to a placed neighbor is
            // positive (the candidate precedes them all).
            let mut pev: f64 = placed.iter().map(|&(_, _, wo)| wo).sum();
            let mut best_pev = pev;
            let mut best_pos = 0usize; // position = before placed[best_pos]
            for (i, &(_, wi, wo)) in placed.iter().enumerate() {
                // Move the candidate just past neighbor i: its in-edges
                // from i become positive, its out-edges to i negative.
                pev += wi - wo;
                if pev > best_pev {
                    best_pev = pev;
                    best_pos = i + 1;
                }
            }
            let chosen = if best_pos == 0 {
                // Before the first neighbor: anywhere ahead of it works
                // for M; the global head is guaranteed collision-free.
                self.min_val - 1.0
            } else if best_pos == placed.len() {
                self.max_val + 1.0
            } else {
                self.unique_between(placed[best_pos - 1].0, placed[best_pos].0)
            };
            self.finish(id, chosen);
            return InsertOutcome {
                val: chosen,
                positive_gain: best_pev,
                total_link_weight,
            };
        };
        self.finish(id, val);
        InsertOutcome {
            val,
            positive_gain: 0.0,
            total_link_weight,
        }
    }

    /// Places `id` at an explicit `val` without searching (used when a
    /// previously-computed order — e.g. the decompressed conquer-phase
    /// order — is loaded before hub/isolated insertion).
    ///
    /// # Panics
    /// Panics if `id` was already inserted.
    pub fn seed(&mut self, id: usize, val: f64) {
        assert!(!self.inserted[id], "item {id} inserted twice");
        self.finish(id, val);
    }

    /// Rebuilds an order from a previously-saved snapshot so that every
    /// future insertion behaves exactly as it would have on the original.
    ///
    /// Seeding the raw [`InsertionOrder::vals`] alone is *not* enough:
    /// `min_val`/`max_val` are sticky — [`InsertionOrder::remove`] never
    /// shrinks them — so an evolved order can hold wider head/tail bounds
    /// than its current vals imply, and head/tail placements (`min − 1` /
    /// `max + 1`) would diverge on a tight rebuild. The saved bounds are
    /// therefore restored verbatim. NaN entries mark uninserted items.
    ///
    /// # Panics
    /// Panics if the saved bounds do not cover every non-NaN val.
    pub fn from_saved(vals: &[f64], min_val: f64, max_val: f64) -> Self {
        let mut o = InsertionOrder::new(vals.len());
        for (id, &val) in vals.iter().enumerate() {
            if !val.is_nan() {
                assert!(
                    min_val <= val && val <= max_val,
                    "saved bounds [{min_val}, {max_val}] do not cover val {val} of item {id}"
                );
                o.finish(id, val);
            }
        }
        if o.count > 0 {
            o.min_val = min_val;
            o.max_val = max_val;
        }
        o
    }

    /// Picks an unused val strictly inside `(lo, hi)`, starting from the
    /// midpoint and halving toward `lo` on collision. Falls back to the
    /// midpoint if the interval is exhausted (float resolution), at which
    /// point the later sort's id tie-break decides — vanishingly rare.
    fn unique_between(&self, lo: f64, hi: f64) -> f64 {
        let mut candidate = (lo + hi) / 2.0;
        for _ in 0..64 {
            if candidate <= lo || candidate >= hi {
                break;
            }
            if !self.used_vals.contains(&candidate.to_bits()) {
                return candidate;
            }
            candidate = (lo + candidate) / 2.0;
        }
        (lo + hi) / 2.0
    }

    fn finish(&mut self, id: usize, val: f64) {
        self.mark_rekeyed(id);
        self.vals[id] = val;
        self.inserted[id] = true;
        self.used_vals.insert(val.to_bits());
        self.digest = self.digest.wrapping_add(digest_term(id, val.to_bits()));
        if self.count == 0 {
            self.min_val = val;
            self.max_val = val;
        } else {
            self.min_val = self.min_val.min(val);
            self.max_val = self.max_val.max(val);
        }
        self.count += 1;
    }

    /// Extends the id space by one (the new item starts uninserted, then
    /// is placed at the tail). Used by the incremental reorderer when a
    /// vertex is added to a streaming graph.
    pub fn grow_one(&mut self) {
        self.vals.push(f64::NAN);
        self.inserted.push(false);
        self.is_rekeyed.push(false);
        let id = self.vals.len() - 1;
        let val = if self.count == 0 {
            0.0
        } else {
            self.max_val + 1.0
        };
        self.finish(id, val);
    }

    /// Removes an inserted item so it can be re-inserted at a better
    /// position (used by the incremental reorderer when new edges make a
    /// vertex's current position suboptimal).
    ///
    /// # Panics
    /// Panics if `id` was not inserted.
    pub fn remove(&mut self, id: usize) {
        assert!(self.inserted[id], "item {id} not inserted");
        self.mark_rekeyed(id);
        self.used_vals.remove(&self.vals[id].to_bits());
        self.digest = self
            .digest
            .wrapping_sub(digest_term(id, self.vals[id].to_bits()));
        self.inserted[id] = false;
        self.vals[id] = f64::NAN;
        self.count -= 1;
        // min_val/max_val may now be stale (wider than the true range);
        // that only makes head/tail placements more conservative and
        // cannot create collisions, so no rescan is needed.
    }

    /// Items sorted by `val` ascending (ties by id). Only inserted items
    /// are returned.
    pub fn sorted_items(&self) -> Vec<usize> {
        let mut items: Vec<usize> = (0..self.vals.len()).filter(|&i| self.inserted[i]).collect();
        items.sort_by(|&a, &b| self.key_cmp(a, b));
        items
    }

    /// The order's sort key: `val` ascending, ties by id.
    pub(crate) fn key_cmp(&self, a: usize, b: usize) -> std::cmp::Ordering {
        #[cfg(test)]
        KEY_CMPS.with(|c| c.set(c.get() + 1));
        self.vals[a]
            .partial_cmp(&self.vals[b])
            .unwrap()
            .then(a.cmp(&b))
    }

    fn mark_rekeyed(&mut self, id: usize) {
        if !self.is_rekeyed[id] {
            self.is_rekeyed[id] = true;
            self.rekeyed.push(id);
        }
    }

    /// The moves that take `committed`, the order the last
    /// [`InsertionOrder::commit`] returned (empty before the first), to
    /// the items sorted now: every id re-keyed since leaves its old
    /// position and goes in where its key ranks among the ids that kept
    /// theirs, so the kept ids stay in their committed order.
    ///
    /// Each re-keyed id finds its rank by a binary search over the kept
    /// ids' keys, in place in `committed` (the positions the re-keyed
    /// ids leave are skipped by counting, not by comparing), so `d`
    /// re-keyed ids cost `d·⌈log₂ |V|⌉` key comparisons, plus a few more
    /// where two land in the same gap. With nothing committed every id
    /// is re-keyed and lands in the one gap there is, and this is a full
    /// sort. [`Permutation::patched`] applies the moves.
    ///
    /// # Panics
    /// Panics if an item is not inserted: a [`Permutation`] holds them
    /// all.
    pub fn moves_since(&self, committed: &Permutation) -> OrderPatch {
        assert_eq!(self.count, self.vals.len(), "every item must be placed");
        let from_len = committed.len();
        let mut removed: Vec<VertexId> = (self.rekeyed.iter())
            .filter(|&&id| id < from_len)
            .map(|&id| committed.position(id as VertexId))
            .collect();
        removed.sort_unstable();
        // The kept id of kept rank `j` sits at `j` plus the removed
        // positions with at most `j` kept ids ahead of them.
        let kept_ahead: Vec<usize> = (removed.iter().enumerate())
            .map(|(i, &r)| r as usize - i)
            .collect();
        let at = |j: usize| j + kept_ahead.partition_point(|&k| k <= j);
        let kept = from_len - removed.len();
        let mut moved: Vec<(VertexId, VertexId)> = (self.rekeyed.iter())
            .map(|&id| {
                // The first kept rank whose id sorts after `id`.
                let (mut lo, mut hi) = (0, kept);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    let kept_id = committed.vertex_at(at(mid)) as usize;
                    if self.key_cmp(kept_id, id).is_lt() {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                (lo as VertexId, id as VertexId)
            })
            .collect();
        moved
            .sort_by(|a, b| (a.0.cmp(&b.0)).then_with(|| self.key_cmp(a.1 as usize, b.1 as usize)));
        let inserted = (moved.into_iter())
            .map(|(j, id)| (at(j as usize) as VertexId, id))
            .collect();
        OrderPatch::new(from_len, removed, inserted)
    }

    /// [`InsertionOrder::moves_since`], after which the re-keyed ids
    /// count as committed: the caller applies the moves to `committed`
    /// and hands the result to the next call.
    pub fn commit(&mut self, committed: &Permutation) -> OrderPatch {
        let moves = self.moves_since(committed);
        for id in self.rekeyed.drain(..) {
            self.is_rekeyed[id] = false;
        }
        moves
    }

    /// Multiset digest of the inserted `(id, val bits)` pairs (see
    /// [`digest_term`]) — equal for two orders exactly when their keys
    /// are, with overwhelming probability. `O(1)`: kept current by every
    /// insertion and removal, not a walk.
    pub fn digest(&self) -> u64 {
        debug_assert_eq!(
            self.digest,
            digest_of(
                (0..self.vals.len())
                    .filter(|&id| self.inserted[id])
                    .map(|id| (id, self.vals[id].to_bits()))
            ),
            "maintained key digest must equal the walk"
        );
        self.digest
    }

    /// Smallest val currently assigned.
    pub fn min_val(&self) -> f64 {
        self.min_val
    }

    /// Largest val currently assigned.
    pub fn max_val(&self) -> f64 {
        self.max_val
    }
}

#[cfg(test)]
thread_local! {
    /// [`InsertionOrder::key_cmp`] calls on this thread, for the tests
    /// that bound a commit's comparisons.
    static KEY_CMPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Brute-force reference: the best positive-edge weight achievable by
/// inserting a candidate with the given links into the order at *any*
/// position. Used by tests to validate the incremental scan.
pub fn brute_force_best_gain(order: &InsertionOrder, neighbors: &[NeighborLink]) -> f64 {
    let mut placed: Vec<(f64, f64, f64)> = neighbors
        .iter()
        .filter(|l| order.contains(l.id))
        .map(|l| (order.val(l.id), l.in_weight, l.out_weight))
        .collect();
    placed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let k = placed.len();
    let mut best = f64::NEG_INFINITY;
    for pos in 0..=k {
        // candidate sits before placed[pos..]: out-edges to those are
        // positive; in-edges from placed[..pos] are positive.
        let mut pev = 0.0;
        for (i, &(_, wi, wo)) in placed.iter().enumerate() {
            if i < pos {
                pev += wi;
            } else {
                pev += wo;
            }
        }
        best = best.max(pev);
    }
    if best == f64::NEG_INFINITY {
        0.0
    } else {
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_item_gets_zero() {
        let mut o = InsertionOrder::new(3);
        let r = o.insert(0, &[]);
        assert_eq!(r.val, 0.0);
        assert_eq!(o.len(), 1);
        assert!(o.contains(0));
    }

    #[test]
    fn no_neighbors_appends_at_tail() {
        let mut o = InsertionOrder::new(3);
        o.insert(0, &[]);
        let r = o.insert(1, &[]);
        assert!(r.val > 0.0);
        assert_eq!(o.sorted_items(), vec![0, 1]);
    }

    #[test]
    fn pure_out_neighbor_inserts_before() {
        // candidate 1 has an edge 1 -> 0; inserting before 0 makes it positive.
        let mut o = InsertionOrder::new(2);
        o.insert(0, &[]);
        let r = o.insert(1, &[NeighborLink::new(0, 0.0, 1.0)]);
        assert_eq!(r.positive_gain, 1.0);
        assert!(o.val(1) < o.val(0));
        assert_eq!(o.sorted_items(), vec![1, 0]);
    }

    #[test]
    fn pure_in_neighbor_inserts_after() {
        // candidate 1 has an edge 0 -> 1.
        let mut o = InsertionOrder::new(2);
        o.insert(0, &[]);
        let r = o.insert(1, &[NeighborLink::new(0, 1.0, 0.0)]);
        assert_eq!(r.positive_gain, 1.0);
        assert!(o.val(1) > o.val(0));
    }

    #[test]
    fn midpoint_between_neighbors() {
        // Order: a(0.0), b(1.0). Candidate c with a -> c and c -> b:
        // best position is between them, both edges positive.
        let mut o = InsertionOrder::new(3);
        o.insert(0, &[]);
        o.insert(1, &[NeighborLink::new(0, 1.0, 0.0)]); // 1 after 0
        let r = o.insert(
            2,
            &[
                NeighborLink::new(0, 1.0, 0.0),
                NeighborLink::new(1, 0.0, 1.0),
            ],
        );
        assert_eq!(r.positive_gain, 2.0);
        assert!(o.val(2) > o.val(0) && o.val(2) < o.val(1));
        assert_eq!(o.sorted_items(), vec![0, 2, 1]);
    }

    #[test]
    fn paper_fig4_walkthrough() {
        // Fig. 4: order contains p, q, u (vals ascending); v has edges
        // (v,p), (q,v), (v,u). Head: pev = 2 (both out-edges). Past p:
        // 2-1=1. Past q: 1+1=2. Past u: 2-1=1. Best stays at head (strict
        // improvement required), gain 2.
        let mut o = InsertionOrder::new(4);
        o.insert(0, &[]); // p
        o.insert(1, &[NeighborLink::new(0, 1.0, 0.0)]); // q after p
        o.insert(2, &[NeighborLink::new(1, 1.0, 0.0)]); // u after q
        let r = o.insert(
            3,
            &[
                NeighborLink::new(0, 0.0, 1.0), // v -> p
                NeighborLink::new(1, 1.0, 0.0), // q -> v
                NeighborLink::new(2, 0.0, 1.0), // v -> u
            ],
        );
        assert_eq!(r.positive_gain, 2.0);
        assert!(o.val(3) < o.val(0), "v should land at the head");
    }

    #[test]
    fn lemma2_gain_at_least_half_links() {
        // Deterministic pseudo-random link patterns; Lemma 2 guarantees
        // gain >= |Ec_v| / 2 at every insertion.
        let mut o = InsertionOrder::new(64);
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for id in 0..64usize {
            let mut links = Vec::new();
            for other in 0..id {
                let r = next() % 10;
                if r < 2 {
                    links.push(NeighborLink::new(other, 1.0, 0.0));
                } else if r < 4 {
                    links.push(NeighborLink::new(other, 0.0, 1.0));
                } else if r == 4 {
                    links.push(NeighborLink::new(other, 1.0, 1.0));
                }
            }
            let r = o.insert(id, &links);
            assert!(
                r.positive_gain >= r.total_link_weight / 2.0 - 1e-9,
                "lemma 2 violated at {id}: gain {} links {}",
                r.positive_gain,
                r.total_link_weight
            );
        }
    }

    #[test]
    fn matches_brute_force() {
        let mut o = InsertionOrder::new(40);
        let mut state = 12345u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for id in 0..40usize {
            let mut links = Vec::new();
            for other in 0..id {
                match next() % 8 {
                    0 => links.push(NeighborLink::new(other, 1.0, 0.0)),
                    1 => links.push(NeighborLink::new(other, 0.0, 1.0)),
                    2 => links.push(NeighborLink::new(other, 2.0, 1.0)),
                    _ => {}
                }
            }
            let expected = brute_force_best_gain(&o, &links);
            let r = o.insert(id, &links);
            assert!(
                (r.positive_gain - expected).abs() < 1e-9 || links.is_empty(),
                "id {id}: incremental {} vs brute {expected}",
                r.positive_gain
            );
        }
    }

    #[test]
    fn weighted_links_respected() {
        // Super-vertex case: heavy out-link (w=5) vs light in-link (w=1):
        // candidate should go before the heavy target.
        let mut o = InsertionOrder::new(3);
        o.insert(0, &[]);
        o.insert(1, &[NeighborLink::new(0, 1.0, 0.0)]);
        let r = o.insert(
            2,
            &[
                NeighborLink::new(0, 1.0, 0.0),
                NeighborLink::new(1, 0.0, 5.0),
            ],
        );
        // positions: head = 5 (out to 1); after 0 = 5 + 1 = 6; after 1 = 6 - 5 = 1.
        assert_eq!(r.positive_gain, 6.0);
        assert!(o.val(2) > o.val(0) && o.val(2) < o.val(1));
    }

    #[test]
    fn key_digest_follows_the_keys_not_the_history() {
        let mut a = InsertionOrder::new(4);
        for (id, val) in [(0, 0.0), (1, 1.0), (2, 2.0), (3, 3.0)] {
            a.seed(id, val);
        }
        let mut b = InsertionOrder::new(4);
        for (id, val) in [(3, 3.0), (1, 1.0), (0, 0.0), (2, 2.0)] {
            b.seed(id, val);
        }
        assert_eq!(a.digest(), b.digest(), "insertion order does not matter");
        let before = a.digest();
        a.remove(2);
        a.seed(2, 2.5);
        assert_ne!(a.digest(), before, "a re-keyed item changes it");
        a.remove(2);
        a.seed(2, 2.0);
        assert_eq!(a.digest(), before, "and putting the key back restores it");
        assert_eq!(InsertionOrder::new(3).digest(), 0);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn double_insert_rejected() {
        let mut o = InsertionOrder::new(2);
        o.insert(0, &[]);
        o.insert(0, &[]);
    }

    #[test]
    fn links_to_uninserted_ignored() {
        let mut o = InsertionOrder::new(3);
        o.insert(0, &[]);
        let r = o.insert(
            1,
            &[
                NeighborLink::new(2, 5.0, 5.0),
                NeighborLink::new(0, 1.0, 0.0),
            ],
        );
        assert_eq!(r.total_link_weight, 1.0);
        assert_eq!(r.positive_gain, 1.0);
    }

    /// Commits `o` on top of `committed`, checking the result against a
    /// full sort of the keys.
    fn commit_checked(o: &mut InsertionOrder, committed: &Permutation) -> Permutation {
        let next = committed.patched(&o.commit(committed));
        assert_eq!(next, Permutation::from_float_keys(o.vals()));
        next
    }

    #[test]
    fn a_commit_moves_only_the_rekeyed_items() {
        let mut o = InsertionOrder::new(6);
        for id in 0..6 {
            o.seed(id, id as f64);
        }
        let all = commit_checked(&mut o, &Permutation::identity(0));
        assert!(all.is_identity());
        assert!(o.commit(&all).is_empty(), "nothing re-keyed since");

        // To the head, to the tail, and onto a kept key (ties by id).
        for (id, val) in [(3, -1.0), (0, 9.0), (5, 2.0), (1, 2.0)] {
            o.remove(id);
            o.seed(id, val);
        }
        o.grow_one();
        let moves = o.moves_since(&all);
        assert_eq!((moves.from_len(), moves.moved()), (6, 5));
        let next = commit_checked(&mut o, &all);
        assert_eq!(next.order(), &[3, 1, 2, 5, 4, 0, 6]);
    }

    #[test]
    fn a_commit_compares_keys_per_move_not_per_item() {
        let n = 100_000;
        let mut o = InsertionOrder::new(n);
        for id in 0..n {
            o.seed(id, id as f64);
        }
        let mut committed = commit_checked(&mut o, &Permutation::identity(0));
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let d = 64;
        for round in 0..3 {
            for k in 0..d {
                let id = next() as usize % n;
                if !o.is_rekeyed[id] {
                    o.remove(id);
                    let val = match k {
                        0 => o.min_val() - 1.0,
                        1 => o.max_val() + 1.0,
                        _ => (next() % (2 * n as u64)) as f64 / 2.0 + 0.25,
                    };
                    o.seed(id, val);
                }
            }
            let rekeyed = o.rekeyed.len() as u64;
            let before = KEY_CMPS.with(|c| c.get());
            let moves = o.commit(&committed);
            let cmps = KEY_CMPS.with(|c| c.get()) - before;
            let bound = rekeyed * (u64::from(n.next_power_of_two().ilog2()) + 2);
            assert!(
                cmps <= bound,
                "round {round}: {cmps} key comparisons for {rekeyed} moves"
            );
            committed = committed.patched(&moves);
            assert_eq!(committed, Permutation::from_float_keys(o.vals()));
        }
    }
}
