//! Fundamental identifier and weight types shared across the workspace.
//!
//! Vertex identifiers are 32-bit (the paper's graphs top out at ~4M
//! vertices; 32-bit halves the memory traffic of adjacency scans, which
//! matters for the cache behaviour the paper evaluates in Figs. 9–10).

/// A vertex identifier: a dense index in `0..num_vertices`.
pub type VertexId = u32;

/// An edge identifier: a dense index in `0..num_edges` in CSR out-edge order.
pub type EdgeId = usize;

/// Edge weight. SSSP/SSWP interpret this as a distance/capacity;
/// PageRank-family algorithms ignore it.
pub type Weight = f64;

/// A directed, weighted edge `(src, dst, weight)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Edge weight (1.0 for unweighted graphs).
    pub weight: Weight,
}

impl Edge {
    /// Creates a new weighted edge.
    #[inline]
    pub fn new(src: VertexId, dst: VertexId, weight: Weight) -> Self {
        Edge { src, dst, weight }
    }

    /// Creates an unweighted (weight = 1.0) edge.
    #[inline]
    pub fn unweighted(src: VertexId, dst: VertexId) -> Self {
        Edge::new(src, dst, 1.0)
    }

    /// Returns the edge with endpoints swapped.
    #[inline]
    pub fn reversed(self) -> Self {
        Edge::new(self.dst, self.src, self.weight)
    }
}

impl From<(VertexId, VertexId)> for Edge {
    fn from((src, dst): (VertexId, VertexId)) -> Self {
        Edge::unweighted(src, dst)
    }
}

impl From<(VertexId, VertexId, Weight)> for Edge {
    fn from((src, dst, weight): (VertexId, VertexId, Weight)) -> Self {
        Edge::new(src, dst, weight)
    }
}

/// Direction of an adjacency scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Follow out-edges (`v -> w`).
    Out,
    /// Follow in-edges (`u -> v` viewed from `v`).
    In,
}

impl Direction {
    /// The opposite direction.
    #[inline]
    pub fn reversed(self) -> Self {
        match self {
            Direction::Out => Direction::In,
            Direction::In => Direction::Out,
        }
    }
}

/// One mutation of an evolving graph's edge set — the unit consumed by
/// the batch-update paths ([`crate::CsrGraph::apply_updates`] and the
/// incremental order maintainer in `gograph-core`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeUpdate {
    /// Adds the directed edge `src -> dst`. Inserting an edge that
    /// already exists keeps the smaller weight (the same convention
    /// [`crate::GraphBuilder`] applies to duplicate edges).
    Insert {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
        /// Edge weight.
        weight: Weight,
    },
    /// Removes the directed edge `src -> dst`; a no-op when absent.
    Remove {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
    },
}

impl EdgeUpdate {
    /// An unweighted (weight = 1.0) insertion.
    #[inline]
    pub fn insert(src: VertexId, dst: VertexId) -> Self {
        EdgeUpdate::Insert {
            src,
            dst,
            weight: 1.0,
        }
    }

    /// A weighted insertion.
    #[inline]
    pub fn insert_weighted(src: VertexId, dst: VertexId, weight: Weight) -> Self {
        EdgeUpdate::Insert { src, dst, weight }
    }

    /// A removal.
    #[inline]
    pub fn remove(src: VertexId, dst: VertexId) -> Self {
        EdgeUpdate::Remove { src, dst }
    }

    /// The update's source vertex.
    #[inline]
    pub fn src(&self) -> VertexId {
        match *self {
            EdgeUpdate::Insert { src, .. } | EdgeUpdate::Remove { src, .. } => src,
        }
    }

    /// The update's destination vertex.
    #[inline]
    pub fn dst(&self) -> VertexId {
        match *self {
            EdgeUpdate::Insert { dst, .. } | EdgeUpdate::Remove { dst, .. } => dst,
        }
    }

    /// True for [`EdgeUpdate::Insert`].
    #[inline]
    pub fn is_insert(&self) -> bool {
        matches!(self, EdgeUpdate::Insert { .. })
    }
}

/// Refuses a batch a graph of `vertices` vertices must not be given: an
/// insert naming a vertex at or past `vertices + 2·len` (a batch of `len`
/// inserts can add at most `2·len` vertices, so a farther id would only
/// grow the graph by empty rows — up to 2³² of them), or inserting a
/// weight that is not finite or is negative (every traffic source and
/// generator draws weights in `[1, 10)`). A remove is never refused: one
/// naming a vertex the graph lacks is a no-op. The streaming pipeline
/// checks every batch here before it changes anything. The error says
/// why.
pub fn check_batch(updates: &[EdgeUpdate], vertices: usize) -> Result<(), String> {
    check_updates(updates, vertices, false)
}

/// [`check_batch`], also refusing a remove that names a vertex at or past
/// the same bound: no batch so far can have added it, so it is a no-op
/// to the graph but a client's mistake. A service admitting client
/// batches checks them here, in one pass, before it logs one.
pub fn check_client_batch(updates: &[EdgeUpdate], vertices: usize) -> Result<(), String> {
    check_updates(updates, vertices, true)
}

fn check_updates(updates: &[EdgeUpdate], vertices: usize, removes: bool) -> Result<(), String> {
    let limit = vertices.saturating_add(2 * updates.len());
    for up in updates {
        let v = up.src().max(up.dst());
        match *up {
            EdgeUpdate::Insert { weight, .. } => {
                if v as usize >= limit {
                    return Err(format!(
                        "insert endpoint {v} out of range: the graph has {vertices} vertices \
                         and a batch of {} updates may add at most {}",
                        updates.len(),
                        2 * updates.len()
                    ));
                }
                if !weight.is_finite() || weight < 0.0 {
                    return Err(format!(
                        "update weight {weight} is not a finite non-negative number"
                    ));
                }
            }
            EdgeUpdate::Remove { .. } if removes && v as usize >= limit => {
                return Err(format!(
                    "remove endpoint {v} out of range: no batch so far can have added it"
                ));
            }
            EdgeUpdate::Remove { .. } => {}
        }
    }
    Ok(())
}

/// The vertex count a graph of `vertices` vertices has once the streaming
/// pipeline applies `updates`: an insert grows it to cover both endpoints,
/// a remove never grows it, and a self-loop is skipped (the pipeline drops
/// self-loops before it changes anything). Whoever admits batches ahead of
/// the pipeline counts with this, so it holds the next batch to the bound
/// [`check_batch`] sets from the same count the pipeline will have.
pub fn grown_vertices(vertices: usize, updates: &[EdgeUpdate]) -> usize {
    updates
        .iter()
        .filter_map(|up| match *up {
            EdgeUpdate::Insert { src, dst, .. } if src != dst => Some(src.max(dst) as usize + 1),
            _ => None,
        })
        .fold(vertices, usize::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_constructors() {
        let e = Edge::new(1, 2, 3.5);
        assert_eq!(e.src, 1);
        assert_eq!(e.dst, 2);
        assert_eq!(e.weight, 3.5);
        let u = Edge::unweighted(4, 5);
        assert_eq!(u.weight, 1.0);
    }

    #[test]
    fn edge_reversed_swaps_endpoints() {
        let e = Edge::new(1, 2, 9.0).reversed();
        assert_eq!((e.src, e.dst, e.weight), (2, 1, 9.0));
    }

    #[test]
    fn edge_from_tuples() {
        let e: Edge = (3u32, 7u32).into();
        assert_eq!((e.src, e.dst, e.weight), (3, 7, 1.0));
        let w: Edge = (3u32, 7u32, 0.25).into();
        assert_eq!((w.src, w.dst, w.weight), (3, 7, 0.25));
    }

    #[test]
    fn direction_reversed() {
        assert_eq!(Direction::Out.reversed(), Direction::In);
        assert_eq!(Direction::In.reversed(), Direction::Out);
    }

    #[test]
    fn edge_update_accessors() {
        let i = EdgeUpdate::insert(1, 2);
        assert_eq!((i.src(), i.dst()), (1, 2));
        assert!(i.is_insert());
        assert_eq!(i, EdgeUpdate::insert_weighted(1, 2, 1.0));
        let r = EdgeUpdate::remove(3, 4);
        assert_eq!((r.src(), r.dst()), (3, 4));
        assert!(!r.is_insert());
    }
}
