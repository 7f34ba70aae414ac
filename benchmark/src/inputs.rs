//! Seeded inputs: the four workloads, their graphs, and the generators
//! for sources, the query mix and update batches.
//!
//! Everything here is a function of `--seed`: the same seed gives the
//! same graph, the same sources, the same query and update streams. The
//! program under test never sees the seed, only what was generated from
//! it. Seed 1 is the default the README's baseline was recorded with;
//! seed 20240613 is the held-out seed a later claim must also hold on.

use gograph_graph::generators::rmat::{rmat, RmatConfig};
use gograph_graph::generators::{
    planted_partition, shuffle_labels, with_random_weights, PlantedPartitionConfig,
};
use gograph_graph::{CsrGraph, EdgeUpdate, VertexId};
use gograph_serve::AlgSpec;

pub const DEFAULT_SEED: u64 = 1;
/// Updates per batch, as `gograph_loadgen`'s write cells send them.
pub const UPDATES_PER_BATCH: usize = 32;
/// Sources the frontier cells (SSSP + BFS) are summed over.
pub const BATCH_SOURCES: usize = 8;

/// splitmix64 — the harness's only random source, so the streams do not
/// change if the workspace's `rand` shim does.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A stream independent of this one, for `tag` (a thread, a probe).
    pub fn fork(&self, tag: u64) -> SplitMix64 {
        let mut child = SplitMix64(self.0 ^ tag.wrapping_mul(0xd6e8_feb8_6659_fd93));
        child.next_u64();
        child
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Tags of the independent random streams forked off `--seed`.
pub mod stream {
    pub const GRAPH: u64 = 1;
    pub const SOURCES: u64 = 2;
    /// Plus the reader's id (segment and client).
    pub const READER: u64 = 1 << 32;
    /// Plus the segment number.
    pub const UPDATER: u64 = 2 << 32;
    pub const PROBE_BATCHES: u64 = 3;
    pub const PROBE_COLD: u64 = 4;
    pub const PROBE_WAL: u64 = 5;
    pub const PROBE_REPLICATION: u64 = 6;
}

/// The generator and size of a workload's graph.
#[derive(Debug, Clone, Copy)]
pub enum GraphKind {
    /// Planted-partition community graph (`communities = n/100`,
    /// `p_intra 0.8`, `gamma 2.4`), edge weights in `[1, 10)`, labels
    /// shuffled — all three drawn from `--seed`.
    Planted {
        vertices: usize,
        sampled_edges: usize,
    },
    /// The graph `gograph_serve` boots over: the same generator,
    /// unweighted, with that binary's fixed seeds (42, shuffle 7) — at
    /// 40 000 / 240 000 exactly its 40 000-vertex, 185 438-edge graph,
    /// so the numbers line up with BENCH_PR6. `--seed` drives the
    /// traffic on it (sources, query mix, update batches), not its
    /// shape: whether a cold SSSP takes six dense rounds or seven is a
    /// property of the topology, and flipped `cold_p50_ms` by 18 % from
    /// seed to seed when the topology was seeded too.
    ServeStandard {
        vertices: usize,
        sampled_edges: usize,
    },
    /// RMAT with the graph500 quadrants, labels shuffled, unit weights.
    Rmat { scale: u32, edge_factor: usize },
}

/// One workload: an input and a split of the run between the batch
/// pipeline and the service, with the service's traffic.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for BENCHMARK.json: why this workload exists.
    pub why: &'static str,
    pub graph: GraphKind,
    /// The `--quick` stand-in: same shape, tiny.
    pub quick_graph: GraphKind,
    /// Batch phase runs on compressed sharded storage.
    pub compressed: bool,
    /// Share of `--seconds` the batch phase gets; the serve window gets
    /// the rest.
    pub batch_share: f64,
    /// Closed-loop query clients in the serve window.
    pub readers: usize,
    /// The open-loop updater runs beside the readers (`true`) or alone,
    /// after them, for `TAIL_BATCHES` batches (`false`).
    pub updates_beside_reads: bool,
    /// Update batches per second.
    pub update_rate: f64,
}

/// Batches the write-only tail sends when no updater ran in the window.
pub const TAIL_BATCHES: usize = 12;

const SERVE_GRAPH: GraphKind = GraphKind::ServeStandard {
    vertices: 40_000,
    sampled_edges: 240_000,
};
const QUICK_SERVE_GRAPH: GraphKind = GraphKind::ServeStandard {
    vertices: 2_000,
    sampled_edges: 12_000,
};

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "batch_flat",
        why: "Community graph too big for L2 on flat CSR: reorder, relabel and the engine kernels do the work; the order should cut PageRank rounds here.",
        graph: GraphKind::Planted {
            vertices: 131_072,
            sampled_edges: 1_048_576,
        },
        quick_graph: GraphKind::Planted {
            vertices: 4_000,
            sampled_edges: 32_000,
        },
        compressed: false,
        batch_share: 0.6,
        readers: 1,
        updates_beside_reads: true,
        update_rate: 2.0,
    },
    Workload {
        name: "batch_compressed",
        why: "Skewed RMAT graph on compressed sharded storage: varint decode sits in the gather loop and the order has little to win, the reverse of batch_flat.",
        graph: GraphKind::Rmat {
            scale: 17,
            edge_factor: 8,
        },
        quick_graph: GraphKind::Rmat {
            scale: 11,
            edge_factor: 8,
        },
        compressed: true,
        batch_share: 0.6,
        readers: 1,
        updates_beside_reads: true,
        update_rate: 2.0,
    },
    Workload {
        name: "serve_read",
        why: "Durable service over loopback TCP, two closed-loop readers, no updates in the window: wire, admission, epoch pin and warm/cold kernels do the work; the write path idles.",
        graph: SERVE_GRAPH,
        quick_graph: QUICK_SERVE_GRAPH,
        compressed: false,
        batch_share: 0.14,
        readers: 2,
        updates_beside_reads: false,
        update_rate: 8.0,
    },
    Workload {
        name: "serve_mixed",
        why: "Same service, one reader beside an open-loop updater (8 batches/s x 32): WAL fsync, order maintenance, CSR patch, re-converge and checkpoints run with reads beside them.",
        graph: SERVE_GRAPH,
        quick_graph: QUICK_SERVE_GRAPH,
        compressed: false,
        batch_share: 0.14,
        readers: 1,
        updates_beside_reads: true,
        update_rate: 8.0,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Generates `kind`'s graph from `seed` with the library's generators.
pub fn generate(kind: GraphKind, seed: u64) -> CsrGraph {
    let mut seeds = SplitMix64::new(seed).fork(stream::GRAPH);
    let planted = |vertices, sampled_edges, seed| {
        planted_partition(PlantedPartitionConfig {
            num_vertices: vertices,
            num_edges: sampled_edges,
            communities: (vertices / 100).max(4),
            p_intra: 0.8,
            gamma: 2.4,
            seed,
        })
    };
    match kind {
        GraphKind::Planted {
            vertices,
            sampled_edges,
        } => {
            let g = planted(vertices, sampled_edges, seeds.next_u64());
            let g = with_random_weights(&g, 1.0, 10.0, seeds.next_u64());
            shuffle_labels(&g, seeds.next_u64())
        }
        GraphKind::ServeStandard {
            vertices,
            sampled_edges,
        } => shuffle_labels(&planted(vertices, sampled_edges, 42), 7),
        GraphKind::Rmat { scale, edge_factor } => {
            let g = rmat(RmatConfig::graph500(scale, edge_factor, seeds.next_u64()));
            shuffle_labels(&g, seeds.next_u64())
        }
    }
}

/// A generated graph with the vertex choices every phase shares.
pub struct Inputs {
    pub seed: u64,
    pub raw: CsrGraph,
    /// Vertices with at least one out-edge: sources and update
    /// endpoints are drawn from here, so no query is trivially empty
    /// (half of an RMAT graph's vertices are isolated, and a median over
    /// a half-trivial mix would flip between the two modes).
    pool: Vec<VertexId>,
    /// The service's warm SSSP source and the hot query's source: the
    /// vertex with the most out-edges (lowest id on ties). The shipped
    /// default is vertex 0, which after the label shuffle is an
    /// arbitrary vertex — on some seeds an isolated one.
    pub hot: VertexId,
    /// Sources of the batch phase's frontier cells.
    pub batch_sources: Vec<VertexId>,
}

impl Inputs {
    pub fn new(raw: CsrGraph, seed: u64) -> Inputs {
        let pool: Vec<VertexId> = raw.vertices().filter(|&v| raw.out_degree(v) > 0).collect();
        assert!(!pool.is_empty(), "generated graph has no edges");
        // Batch sources: a seeded draw from the 1 % of vertices with the
        // most out-edges. Hubs sit in the giant component on every seed,
        // so each source does whole-graph work; a uniform draw now and
        // then picks a tendril whose run is ten times cheaper, and eight
        // sources do not average that out.
        let mut by_degree = pool.clone();
        by_degree.sort_unstable_by_key(|&v| (std::cmp::Reverse(raw.out_degree(v)), v));
        by_degree.truncate((pool.len() / 100).max(BATCH_SOURCES.min(pool.len())));
        let mut rng = SplitMix64::new(seed).fork(stream::SOURCES);
        let batch_sources = (0..BATCH_SOURCES)
            .map(|_| by_degree[rng.below(by_degree.len())])
            .collect();
        let hot = by_degree[0];
        Inputs {
            seed,
            raw,
            pool,
            hot,
            batch_sources,
        }
    }

    pub fn rng(&self, tag: u64) -> SplitMix64 {
        SplitMix64::new(self.seed).fork(tag)
    }

    /// A uniform draw from the vertices with at least one out-edge.
    pub fn pool_vertex(&self, rng: &mut SplitMix64) -> VertexId {
        self.pool[rng.below(self.pool.len())]
    }
}

/// Which slice of the mix a query belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// SSSP from the warm source: answered from the epoch's converged
    /// state.
    Hot,
    /// SSSP from a random source: a cold kernel run.
    ColdSssp,
    Bfs,
    Cc,
}

#[derive(Debug, Clone)]
pub struct Query {
    pub kind: QueryKind,
    pub alg: AlgSpec,
    pub sources: Vec<VertexId>,
    pub target: VertexId,
}

/// `gograph_loadgen`'s mix: 55 % hot SSSP, 25 % cold SSSP, 10 % BFS,
/// 10 % CC, one random target each.
pub fn next_query(rng: &mut SplitMix64, inputs: &Inputs) -> Query {
    let roll = rng.unit();
    let (kind, alg, sources) = if roll < 0.55 {
        (QueryKind::Hot, AlgSpec::Sssp, vec![inputs.hot])
    } else if roll < 0.80 {
        (
            QueryKind::ColdSssp,
            AlgSpec::Sssp,
            vec![inputs.pool_vertex(rng)],
        )
    } else if roll < 0.90 {
        (QueryKind::Bfs, AlgSpec::Bfs, vec![inputs.pool_vertex(rng)])
    } else {
        (QueryKind::Cc, AlgSpec::Cc, Vec::new())
    };
    Query {
        kind,
        alg,
        sources,
        target: rng.below(inputs.raw.num_vertices()) as VertexId,
    }
}

/// One update batch: 85 % weighted inserts between pool vertices, 15 %
/// removes of an edge of the *generated* graph (so a remove does real
/// work unless an earlier batch already took that edge).
pub fn next_batch(rng: &mut SplitMix64, inputs: &Inputs) -> Vec<EdgeUpdate> {
    let mut batch = Vec::with_capacity(UPDATES_PER_BATCH);
    while batch.len() < UPDATES_PER_BATCH {
        let src = inputs.pool_vertex(rng);
        if rng.unit() < 0.85 {
            let dst = inputs.pool_vertex(rng);
            if src != dst {
                let weight = 1.0 + 9.0 * rng.unit();
                batch.push(EdgeUpdate::insert_weighted(src, dst, weight));
            }
        } else {
            let outs = inputs.raw.out_neighbors(src);
            batch.push(EdgeUpdate::remove(src, outs[rng.below(outs.len())]));
        }
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let kind = WORKLOADS[0].quick_graph;
        let a = Inputs::new(generate(kind, 7), 7);
        let b = Inputs::new(generate(kind, 7), 7);
        assert_eq!(a.raw, b.raw);
        assert_eq!(a.batch_sources, b.batch_sources);
        assert_eq!(next_batch(&mut a.rng(1), &a), next_batch(&mut b.rng(1), &b));
        assert_ne!(generate(kind, 7), generate(kind, 8));
    }

    #[test]
    fn below_is_in_range() {
        let mut r = SplitMix64::new(3);
        for n in [1usize, 2, 7, 1000] {
            for _ in 0..200 {
                assert!(r.below(n) < n);
            }
        }
    }
}
