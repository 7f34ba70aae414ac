//! Vertex permutations: the common currency between reordering methods
//! and the iterative engine.
//!
//! A *processing order* `O = [v0, v1, ..., v_{n-1}]` (paper §II) lists
//! vertices in the order they are updated; the *ordinal number* `p(v)` is
//! the position of `v` in that list. [`Permutation`] stores both views
//! (order and position) so that `p(v)` lookups and order iteration are both
//! O(1).

use crate::types::VertexId;

/// A bijection over `0..n` representing a vertex processing order.
///
/// Internally stores `order` (position → vertex) and `position`
/// (vertex → position, the paper's `p(v)`).
///
/// ```
/// use gograph_graph::Permutation;
/// // Process vertex 2 first, then 0, then 1.
/// let p = Permutation::from_order(vec![2, 0, 1]);
/// assert_eq!(p.position(2), 0);      // p(2) = 0
/// assert_eq!(p.vertex_at(1), 0);
/// assert!(p.then(&p.inverse()).is_identity());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    order: Vec<VertexId>,
    position: Vec<VertexId>,
}

impl Permutation {
    /// Identity permutation of length `n` (the paper's "Default" order).
    pub fn identity(n: usize) -> Self {
        let order: Vec<VertexId> = (0..n as VertexId).collect();
        Permutation {
            position: order.clone(),
            order,
        }
    }

    /// Builds from a processing order (position → vertex).
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..order.len()` — use
    /// [`Permutation::try_from_order`] for untrusted input.
    pub fn from_order(order: Vec<VertexId>) -> Self {
        Self::try_from_order(order).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Permutation::from_order`]: returns a description of the
    /// violation instead of panicking when `order` is not a permutation
    /// of `0..order.len()`.
    pub fn try_from_order(order: Vec<VertexId>) -> Result<Self, String> {
        let n = order.len();
        let mut position = vec![VertexId::MAX; n];
        for (pos, &v) in order.iter().enumerate() {
            if (v as usize) >= n {
                return Err(format!(
                    "vertex {v} out of range for permutation of length {n}"
                ));
            }
            if position[v as usize] != VertexId::MAX {
                return Err(format!("vertex {v} appears twice in processing order"));
            }
            position[v as usize] = pos as VertexId;
        }
        Ok(Permutation { order, position })
    }

    /// Builds from a position array (vertex → position, i.e. `p(v)`).
    ///
    /// # Panics
    /// Panics if `position` is not a permutation of `0..position.len()`.
    pub fn from_positions(position: Vec<VertexId>) -> Self {
        let n = position.len();
        let mut order = vec![VertexId::MAX; n];
        for (v, &pos) in position.iter().enumerate() {
            assert!(
                (pos as usize) < n,
                "position {pos} out of range for permutation of length {n}"
            );
            assert!(
                order[pos as usize] == VertexId::MAX,
                "position {pos} assigned twice"
            );
            order[pos as usize] = v as VertexId;
        }
        Permutation { order, position }
    }

    /// Builds by sorting vertices by a float key (ascending, stable).
    /// This is the paper's final "sort by `val`" step (Algorithm 1 line 36).
    pub fn from_float_keys(keys: &[f64]) -> Self {
        let mut order: Vec<VertexId> = (0..keys.len() as VertexId).collect();
        order.sort_by(|&a, &b| {
            keys[a as usize]
                .partial_cmp(&keys[b as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        Permutation::from_order(order)
    }

    /// This processing order with `patch` applied: the vertices at its
    /// removed positions taken out, its inserted vertices put in, and
    /// everything else kept in order. The kept runs between two of the
    /// patch's positions are copied whole, and positions are rewritten
    /// only over the ranks that shifted: from the first position the
    /// patch touches to its last one, or to the end when the length
    /// changes. `O(|V|)` copying plus `O(d)` for `d` moves, with no key
    /// comparison and no check of the result outside debug builds.
    ///
    /// # Panics
    /// Panics if `patch` was not made for an order of this length.
    pub fn patched(&self, patch: &OrderPatch) -> Permutation {
        assert_eq!(
            patch.from_len,
            self.len(),
            "a patch applies to the order it was made from"
        );
        if patch.is_empty() {
            return self.clone();
        }
        let n = self.len() - patch.removed.len() + patch.inserted.len();
        let mut order = Vec::with_capacity(n);
        let mut removed = patch.removed.iter().map(|&r| r as usize).peekable();
        let mut from = 0;
        // Copies the old positions `from..to` but the removed ones.
        let mut copy_to = |order: &mut Vec<VertexId>, from: &mut usize, to: usize| {
            while let Some(r) = removed.next_if(|&r| r < to) {
                order.extend_from_slice(&self.order[*from..r]);
                *from = r + 1;
            }
            order.extend_from_slice(&self.order[*from..to]);
            *from = to;
        };
        for &(at, v) in &patch.inserted {
            copy_to(&mut order, &mut from, at as usize);
            order.push(v);
        }
        copy_to(&mut order, &mut from, self.len());

        // Ranks before the first touched position and, at equal length,
        // after the last one are where they were.
        let first = patch.removed.first().map(|&r| r as usize);
        let last = patch.removed.last().map(|&r| r as usize + 1);
        let ats = patch.inserted.iter().map(|&(at, _)| at as usize);
        let lo = first.into_iter().chain(ats.clone()).min().unwrap_or(0);
        let hi = if n == self.len() {
            last.into_iter().chain(ats.max()).max().unwrap_or(0)
        } else {
            n
        };
        // Exactly `n` long: an epoch that pins the order keeps no slack.
        let mut position = Vec::with_capacity(n);
        position.extend_from_slice(&self.position);
        position.resize(n, VertexId::MAX);
        for (rank, &v) in (lo..).zip(&order[lo..hi]) {
            position[v as usize] = rank as VertexId;
        }
        let patched = Permutation { order, position };
        debug_assert_eq!(patched.validate(), Ok(()));
        patched
    }

    /// Length `n` of the permutation.
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if the permutation is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The processing order: `order()[pos]` is the vertex processed at
    /// position `pos`.
    #[inline]
    pub fn order(&self) -> &[VertexId] {
        &self.order
    }

    /// The ordinal number `p(v)` of vertex `v`.
    #[inline]
    pub fn position(&self, v: VertexId) -> VertexId {
        self.position[v as usize]
    }

    /// Vertex processed at position `pos`.
    #[inline]
    pub fn vertex_at(&self, pos: usize) -> VertexId {
        self.order[pos]
    }

    /// New id of `v` when the graph is physically relabeled by this
    /// permutation: the vertex processed first becomes id 0, etc.
    /// Identical to [`Permutation::position`].
    #[inline]
    pub fn new_id(&self, v: VertexId) -> VertexId {
        self.position[v as usize]
    }

    /// The inverse permutation (swaps the order/position views).
    pub fn inverse(&self) -> Permutation {
        Permutation {
            order: self.position.clone(),
            position: self.order.clone(),
        }
    }

    /// Composition: applies `self` first, then `other`
    /// (`result.position(v) = other.position(self.position(v))`).
    pub fn then(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.len(), other.len());
        let position: Vec<VertexId> = (0..self.len())
            .map(|v| other.position(self.position(v as VertexId)))
            .collect();
        Permutation::from_positions(position)
    }

    /// Reversed processing order.
    pub fn reversed(&self) -> Permutation {
        let mut order = self.order.clone();
        order.reverse();
        Permutation::from_order(order)
    }

    /// True if this is the identity.
    pub fn is_identity(&self) -> bool {
        self.order.iter().enumerate().all(|(i, &v)| i == v as usize)
    }

    /// Validates internal consistency (both views agree and are
    /// bijections). Cheap enough for debug assertions in tests.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.order.len();
        if self.position.len() != n {
            return Err(format!(
                "order/position length mismatch: {} vs {}",
                n,
                self.position.len()
            ));
        }
        for (pos, &v) in self.order.iter().enumerate() {
            if v as usize >= n {
                return Err(format!("vertex {v} out of range"));
            }
            if self.position[v as usize] as usize != pos {
                return Err(format!(
                    "views disagree: order[{pos}] = {v} but position[{v}] = {}",
                    self.position[v as usize]
                ));
            }
        }
        Ok(())
    }
}

/// The moves that take one processing order to the next, by position
/// in the first ([`Permutation::patched`] applies them): vertices taken
/// out of their old positions, and vertices put in before old positions.
/// A vertex that moves is both removed and inserted; a new one is only
/// inserted. Positions are stored as [`VertexId`]s, as
/// [`Permutation::position`] returns them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderPatch {
    from_len: usize,
    removed: Vec<VertexId>,
    inserted: Vec<(VertexId, VertexId)>,
}

impl OrderPatch {
    /// The patch of an order of `from_len` vertices that takes out the
    /// vertices at the `removed` positions and puts each `(at, v)` of
    /// `inserted` in before old position `at` (`from_len` for the end),
    /// in the listed order where several share an `at`.
    ///
    /// # Panics
    /// Panics unless `removed` is strictly ascending and `inserted`'s
    /// positions ascend, all within `from_len`.
    pub fn new(
        from_len: usize,
        removed: Vec<VertexId>,
        inserted: Vec<(VertexId, VertexId)>,
    ) -> Self {
        assert!(
            removed.windows(2).all(|w| w[0] < w[1])
                && removed.last().is_none_or(|&r| (r as usize) < from_len),
            "removed positions must ascend within the order"
        );
        assert!(
            inserted.windows(2).all(|w| w[0].0 <= w[1].0)
                && inserted
                    .last()
                    .is_none_or(|&(at, _)| at as usize <= from_len),
            "insert positions must ascend within the order"
        );
        OrderPatch {
            from_len,
            removed,
            inserted,
        }
    }

    /// The patch that changes nothing in an order of `len` vertices.
    pub fn none(len: usize) -> Self {
        OrderPatch::new(len, Vec::new(), Vec::new())
    }

    /// Length of the order the patch applies to.
    pub fn from_len(&self) -> usize {
        self.from_len
    }

    /// True when the patch moves and adds nothing.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.inserted.is_empty()
    }

    /// Vertices the patch puts in, moved or new.
    pub fn moved(&self) -> usize {
        self.inserted.len()
    }

    /// The same patch with every inserted vertex renamed by `id`: the
    /// patch of an order that holds `id(v)` wherever this one's holds
    /// `v`.
    pub fn relabeled(&self, id: impl Fn(VertexId) -> VertexId) -> OrderPatch {
        OrderPatch {
            from_len: self.from_len,
            removed: self.removed.clone(),
            inserted: self.inserted.iter().map(|&(at, v)| (at, id(v))).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrip() {
        let p = Permutation::identity(5);
        assert!(p.is_identity());
        assert_eq!(p.len(), 5);
        assert_eq!(p.position(3), 3);
        assert_eq!(p.vertex_at(3), 3);
        p.validate().unwrap();
    }

    #[test]
    fn from_order_and_positions_agree() {
        let p1 = Permutation::from_order(vec![2, 0, 1]);
        // vertex 2 at pos 0, vertex 0 at pos 1, vertex 1 at pos 2
        assert_eq!(p1.position(2), 0);
        assert_eq!(p1.position(0), 1);
        assert_eq!(p1.position(1), 2);
        let p2 = Permutation::from_positions(vec![1, 2, 0]);
        assert_eq!(p1, p2);
        p1.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicate_vertex_rejected() {
        Permutation::from_order(vec![0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        Permutation::from_order(vec![0, 3]);
    }

    #[test]
    fn inverse_composes_to_identity() {
        let p = Permutation::from_order(vec![3, 1, 0, 2]);
        let inv = p.inverse();
        assert!(p.then(&inv).is_identity());
        assert!(inv.then(&p).is_identity());
    }

    #[test]
    fn reversed_flips_positions() {
        let p = Permutation::from_order(vec![0, 1, 2]);
        let r = p.reversed();
        assert_eq!(r.order(), &[2, 1, 0]);
        assert_eq!(r.position(0), 2);
    }

    #[test]
    fn from_float_keys_sorts_ascending_stable() {
        let p = Permutation::from_float_keys(&[2.0, 1.0, 2.0, 0.5]);
        assert_eq!(p.order(), &[3, 1, 0, 2]); // ties broken by id
    }

    #[test]
    fn then_composition_order() {
        // p sends v to position v+1 mod 3; q reverses.
        let p = Permutation::from_positions(vec![1, 2, 0]);
        let q = Permutation::from_order(vec![2, 1, 0]);
        let c = p.then(&q);
        for v in 0..3u32 {
            assert_eq!(c.position(v), q.position(p.position(v)));
        }
    }

    #[test]
    fn a_patch_moves_grows_and_keeps_the_rest() {
        let p = Permutation::from_order(vec![4, 0, 3, 1, 2]);
        // Take 0 and 1 out; put 1 first, 0 before 2 and a new 5 last.
        let patch = OrderPatch::new(5, vec![1, 3], vec![(0, 1), (4, 0), (5, 5)]);
        let q = p.patched(&patch);
        assert_eq!(q.order(), &[1, 4, 3, 0, 2, 5]);
        q.validate().unwrap();
        assert_eq!(p.patched(&OrderPatch::none(5)), p);

        // Same length: only the shifted span is rewritten, and a renamed
        // patch applies to the renamed order.
        let swap = OrderPatch::new(5, vec![1], vec![(4, 0)]);
        assert_eq!(p.patched(&swap).order(), &[4, 3, 1, 0, 2]);
        let rename = |v: VertexId| 4 - v;
        let renamed = Permutation::from_order(p.order().iter().map(|&v| rename(v)).collect());
        let moved = renamed.patched(&swap.relabeled(rename));
        assert_eq!(moved.order(), &[0, 1, 3, 4, 2]);
        moved.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "made from")]
    fn a_patch_for_another_length_is_refused() {
        Permutation::identity(3).patched(&OrderPatch::none(4));
    }
}
