//! Trajectory pins for every engine: literal `rounds`, `push_rounds`,
//! `evaluations`, `converged` and a hash of the final state bits, for
//! {PageRank, SSSP, CC, BFS} × {sync, async, worklist, parallel(1),
//! parallel(2)} × every direction policy the algorithm admits × {cold,
//! warm with a frontier after one edge insert}, plus the two delta
//! algorithms under both schedules.
//!
//! The equivalence suites compare engines against each other; nothing
//! else holds a single engine to what it did yesterday. These numbers
//! were recorded before the strategy layer and the async/worklist loops
//! were merged, and the file goes through `Pipeline` only, so it compiles
//! unchanged on both sides of that change. A refactor that claims to be
//! round-for-round and bit-for-bit must leave it green without editing
//! it; a change that means to alter a trajectory re-records the table
//! (the failure message prints it in source form).
//!
//! Re-recorded once since, on purpose: the sweep schedule (`async`,
//! `parallel1`) now starts from the warm frontier instead of a dense
//! first scan, so twelve *warm* rows under those two modes moved and
//! nothing else did. For the max-norm algorithms `rounds`, `converged`
//! and the state hash are what they were — the seeded sweep leaves the
//! same states after every round — and only `push_rounds` changed: round
//! 1 is a pull over the seed even under `PushOnly` (as it always was
//! under `worklist`), and later rounds plan from the exact changed set
//! instead of the dense sweep's sentinel count (`sssp` PushOnly 5→4,
//! `cc` PushOnly 1→0, `bfs` Auto 1→2 and PushOnly 3→2). PageRank's two
//! warm rows keep their 22 rounds and change hash: its one-vertex
//! frontier is not an exact claim (the insert also changed the source's
//! out-degree, hence every sibling's input), so a run that honours it
//! and a run that ignores it stop at different points inside epsilon.
//!
//! Re-recorded a second time for the same reason: `sync` became the
//! sequential kernel's Jacobi schedule and now starts from the warm
//! frontier too, so only `sync` *warm* rows moved. The max-norm rows keep
//! their rounds, `converged` and state hash; under `PushOnly` round 1 is
//! now a pull over the seed, so `push_rounds` fell by one (`sssp` 7→6,
//! `cc` 1→0, `bfs` 5→4). PageRank's two warm rows keep their 52 rounds,
//! still converge, and change hash, as the sweep's did above. Every cold
//! `sync` row — PageRank's sum-norm ones included — is unedited: the
//! Jacobi schedule records each round's delta in ascending position order,
//! as the removed synchronous kernel did.
//!
//! `Parallel(2)` reads race across blocks, so only its states are
//! pinned: the hash for the max-norm algorithms (whose fixpoint is
//! unique), a tolerance against the async run for sum-norm PageRank, and
//! no round counts.

use gograph::prelude::*;

/// The `direction_equivalence` workload: fixed-seed weighted power-law
/// community graph under its GoGraph order (positions ≠ vertex ids).
fn workload() -> (CsrGraph, Permutation) {
    let g = with_random_weights(
        &shuffle_labels(
            &planted_partition(PlantedPartitionConfig {
                num_vertices: 500,
                num_edges: 3_600,
                communities: 7,
                p_intra: 0.8,
                gamma: 2.4,
                seed: 2026,
            }),
            0x11,
        ),
        1.0,
        5.0,
        0x12,
    );
    let order = GoGraph::default().run(&g);
    (g, order)
}

/// The warm scenario's single insert: a unit-weight shortcut from the
/// source to the farthest vertex (largest finite SSSP distance, lowest
/// id on ties) that has at least three out-edges, so the improvement
/// has somewhere to spread.
fn shortcut_target(g: &CsrGraph, order: &Permutation) -> VertexId {
    let dist = Pipeline::on(g)
        .order_ref(order)
        .algorithm(Sssp::new(0))
        .execute()
        .unwrap()
        .stats
        .final_states;
    let mut best = 0;
    for (v, &d) in dist.iter().enumerate() {
        if d.is_finite() && d > dist[best] && g.out_degree(v as VertexId) >= 3 {
            best = v;
        }
    }
    best as VertexId
}

fn with_edge(g: &CsrGraph, src: VertexId, dst: VertexId) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(g.num_vertices(), g.num_edges() + 1);
    b.reserve_vertices(g.num_vertices());
    for e in g.edges() {
        b.add_edge(e.src, e.dst, e.weight);
    }
    b.add_edge(src, dst, 1.0);
    b.build()
}

/// FNV-1a over the state bit patterns.
fn state_hash(states: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in states {
        for byte in s.to_bits().to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One pinned run: label, rounds, push rounds, evaluations, converged,
/// state hash.
type Pin = (&'static str, usize, usize, Option<usize>, bool, u64);

/// One pinned `Parallel(2)` run: label and state hash (`0` for the
/// sum-norm rows, which are held to a tolerance instead).
type StatePin = (&'static str, u64);

fn mode_label(mode: Mode) -> String {
    match mode {
        Mode::Parallel(b) => format!("parallel{b}"),
        m => m.name().to_string(),
    }
}

fn gather_algorithms() -> Vec<(&'static str, Box<dyn IterativeAlgorithm>, bool)> {
    // (name, algorithm, max-norm)
    vec![
        ("pagerank", Box::new(PageRank::default()), false),
        ("sssp", Box::new(Sssp::new(0)), true),
        ("cc", Box::new(ConnectedComponents), true),
        ("bfs", Box::new(Bfs::new(0)), true),
    ]
}

fn policies(alg: &dyn IterativeAlgorithm) -> Vec<DirectionPolicy> {
    let mut p = vec![DirectionPolicy::Auto, DirectionPolicy::PullOnly];
    if alg.supports_push() {
        p.push(DirectionPolicy::PushOnly);
    }
    p
}

/// Cold when `warm` is `None`; otherwise warm-started from it.
fn run_gather(
    g: &CsrGraph,
    order: &Permutation,
    alg: &dyn IterativeAlgorithm,
    mode: Mode,
    policy: DirectionPolicy,
    warm: Option<WarmStart>,
) -> RunStats {
    let mut p = Pipeline::on(g)
        .order_ref(order)
        .algorithm_ref(alg)
        .mode(mode)
        .direction(policy);
    if let Some(w) = warm {
        p = p.warm_start(w);
    }
    p.execute().expect("valid run").stats
}

fn run_delta(
    g: &CsrGraph,
    order: &Permutation,
    alg: &dyn DeltaAlgorithm,
    schedule: DeltaSchedule,
    warm: Option<WarmStart>,
) -> RunStats {
    let mut p = Pipeline::on(g)
        .order_ref(order)
        .delta_algorithm_ref(alg)
        .mode(Mode::Delta(schedule));
    if let Some(w) = warm {
        p = p.warm_start(w);
    }
    p.execute().expect("valid run").stats
}

/// A recorded run, in [`Pin`]'s field order.
type Row = (String, usize, usize, Option<usize>, bool, u64);

fn format_pins(rows: &[Row]) -> String {
    let mut s = String::new();
    for (label, rounds, push, evals, conv, hash) in rows {
        s.push_str(&format!(
            "    (\"{label}\", {rounds}, {push}, {evals:?}, {conv}, {hash:#018x}),\n"
        ));
    }
    s
}

#[test]
fn sequential_and_delta_trajectories_are_pinned() {
    let (g, order) = workload();
    let target = shortcut_target(&g, &order);
    let g1 = with_edge(&g, 0, target);
    let mut rows: Vec<Row> = Vec::new();

    for (name, alg, _) in gather_algorithms() {
        let alg = alg.as_ref();
        for mode in [Mode::Sync, Mode::Async, Mode::Worklist, Mode::Parallel(1)] {
            for policy in policies(alg) {
                let cold = run_gather(&g, &order, alg, mode, policy, None);
                // One edge arrives: resume from the old fixpoint, seeded
                // at the edge's head.
                let warm = run_gather(
                    &g1,
                    &order,
                    alg,
                    mode,
                    policy,
                    Some(
                        WarmStart::from_states(cold.final_states.clone())
                            .with_frontier(vec![target]),
                    ),
                );
                for (phase, s) in [("cold", &cold), ("warm", &warm)] {
                    rows.push((
                        format!("{name}/{}/{policy:?}/{phase}", mode_label(mode)),
                        s.rounds,
                        s.push_rounds,
                        s.evaluations,
                        s.converged,
                        state_hash(&s.final_states),
                    ));
                }
            }
        }
    }

    let delta_algorithms: Vec<(&str, Box<dyn DeltaAlgorithm>)> = vec![
        ("delta-pagerank", Box::new(DeltaPageRank::default())),
        ("delta-sssp", Box::new(DeltaSssp { source: 0 })),
    ];
    for (name, alg) in delta_algorithms {
        let alg = alg.as_ref();
        for (sched_name, schedule) in [
            ("rr", DeltaSchedule::RoundRobin),
            (
                "priority0.1",
                DeltaSchedule::Priority {
                    batch_fraction: 0.1,
                },
            ),
        ] {
            let cold = run_delta(&g, &order, alg, schedule, None);
            let mut runs = vec![("cold", cold.clone())];
            if alg.combine_is_idempotent() {
                // Frontier deltas are derived from settled neighbours —
                // only sound (and only accepted) for idempotent ⊕.
                let warm = WarmStart::from_states(cold.final_states).with_frontier(vec![target]);
                runs.push(("warm", run_delta(&g1, &order, alg, schedule, Some(warm))));
            }
            for (phase, s) in runs {
                rows.push((
                    format!("{name}/{sched_name}/{phase}"),
                    s.rounds,
                    s.push_rounds,
                    s.evaluations,
                    s.converged,
                    state_hash(&s.final_states),
                ));
            }
        }
    }

    let expected: Vec<_> = PINS
        .iter()
        .map(|&(l, r, p, e, c, h)| (l.to_string(), r, p, e, c, h))
        .collect();
    if rows != expected {
        let drifted: Vec<&str> = rows
            .iter()
            .filter(|row| !expected.contains(row))
            .map(|row| row.0.as_str())
            .collect();
        panic!(
            "engine trajectories drifted from the pinned table: {drifted:?}\n\
             actual table, in source form:\n{}",
            format_pins(&rows)
        );
    }
}

#[test]
fn parallel_two_block_states_are_pinned() {
    let (g, order) = workload();
    let target = shortcut_target(&g, &order);
    let g1 = with_edge(&g, 0, target);
    let mut rows: Vec<(String, u64)> = Vec::new();

    for (name, alg, max_norm) in gather_algorithms() {
        let alg = alg.as_ref();
        for policy in policies(alg) {
            let reference_cold = run_gather(&g, &order, alg, Mode::Async, policy, None);
            let cold = run_gather(&g, &order, alg, Mode::Parallel(2), policy, None);
            let seed = |states: &[f64]| {
                Some(WarmStart::from_states(states.to_vec()).with_frontier(vec![target]))
            };
            let reference_warm = run_gather(
                &g1,
                &order,
                alg,
                Mode::Async,
                policy,
                seed(&reference_cold.final_states),
            );
            // Warm from the async fixpoint so the start state is itself
            // deterministic for the sum-norm rows.
            let warm = run_gather(
                &g1,
                &order,
                alg,
                Mode::Parallel(2),
                policy,
                seed(&reference_cold.final_states),
            );
            for (phase, got, reference) in [
                ("cold", &cold, &reference_cold),
                ("warm", &warm, &reference_warm),
            ] {
                let label = format!("{name}/parallel2/{policy:?}/{phase}");
                assert!(got.converged, "{label}");
                if max_norm {
                    rows.push((label, state_hash(&got.final_states)));
                } else {
                    for (v, (a, b)) in reference
                        .final_states
                        .iter()
                        .zip(&got.final_states)
                        .enumerate()
                    {
                        assert!((a - b).abs() < 1e-4, "{label}: vertex {v}: {a} vs {b}");
                    }
                    rows.push((label, 0));
                }
            }
        }
    }

    let expected: Vec<_> = PARALLEL_PINS
        .iter()
        .map(|&(l, h)| (l.to_string(), h))
        .collect();
    if rows != expected {
        let mut table = String::new();
        for (label, hash) in &rows {
            table.push_str(&format!("    (\"{label}\", {hash:#018x}),\n"));
        }
        panic!("parallel(2) states drifted; actual table, in source form:\n{table}");
    }
}

#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("pagerank/sync/Auto/cold", 96, 0, None, true, 0xd442e9ad12d243d7),
    ("pagerank/sync/Auto/warm", 52, 0, None, true, 0x05f86df34de4c663),
    ("pagerank/sync/PullOnly/cold", 96, 0, None, true, 0xd442e9ad12d243d7),
    ("pagerank/sync/PullOnly/warm", 52, 0, None, true, 0x05f86df34de4c663),
    ("pagerank/async/Auto/cold", 42, 0, None, true, 0x14fead447a13a5b6),
    ("pagerank/async/Auto/warm", 22, 0, None, true, 0x2e431940fc91fd53),
    ("pagerank/async/PullOnly/cold", 42, 0, None, true, 0x14fead447a13a5b6),
    ("pagerank/async/PullOnly/warm", 22, 0, None, true, 0x2e431940fc91fd53),
    ("pagerank/worklist/Auto/cold", 32, 0, Some(14685), true, 0x301a55d74702aa2a),
    ("pagerank/worklist/Auto/warm", 15, 0, Some(5815), true, 0x747a5dc76ad10b72),
    ("pagerank/worklist/PullOnly/cold", 32, 0, Some(14685), true, 0x301a55d74702aa2a),
    ("pagerank/worklist/PullOnly/warm", 15, 0, Some(5815), true, 0x747a5dc76ad10b72),
    ("pagerank/parallel1/Auto/cold", 42, 0, None, true, 0x14fead447a13a5b6),
    ("pagerank/parallel1/Auto/warm", 22, 0, None, true, 0x2e431940fc91fd53),
    ("pagerank/parallel1/PullOnly/cold", 42, 0, None, true, 0x14fead447a13a5b6),
    ("pagerank/parallel1/PullOnly/warm", 22, 0, None, true, 0x2e431940fc91fd53),
    ("sssp/sync/Auto/cold", 8, 2, None, true, 0x11eff33c376879c5),
    ("sssp/sync/Auto/warm", 7, 3, None, true, 0x5611e1664b0816a9),
    ("sssp/sync/PullOnly/cold", 8, 0, None, true, 0x11eff33c376879c5),
    ("sssp/sync/PullOnly/warm", 7, 0, None, true, 0x5611e1664b0816a9),
    ("sssp/sync/PushOnly/cold", 8, 8, None, true, 0x11eff33c376879c5),
    ("sssp/sync/PushOnly/warm", 7, 6, None, true, 0x5611e1664b0816a9),
    ("sssp/async/Auto/cold", 6, 1, None, true, 0x11eff33c376879c5),
    ("sssp/async/Auto/warm", 4, 1, None, true, 0x5611e1664b0816a9),
    ("sssp/async/PullOnly/cold", 6, 0, None, true, 0x11eff33c376879c5),
    ("sssp/async/PullOnly/warm", 4, 0, None, true, 0x5611e1664b0816a9),
    ("sssp/async/PushOnly/cold", 5, 5, None, true, 0x11eff33c376879c5),
    ("sssp/async/PushOnly/warm", 5, 4, None, true, 0x5611e1664b0816a9),
    ("sssp/worklist/Auto/cold", 6, 5, Some(1291), true, 0x11eff33c376879c5),
    ("sssp/worklist/Auto/warm", 4, 3, Some(206), true, 0x5611e1664b0816a9),
    ("sssp/worklist/PullOnly/cold", 5, 0, Some(1568), true, 0x11eff33c376879c5),
    ("sssp/worklist/PullOnly/warm", 4, 0, Some(313), true, 0x5611e1664b0816a9),
    ("sssp/worklist/PushOnly/cold", 6, 5, Some(1291), true, 0x11eff33c376879c5),
    ("sssp/worklist/PushOnly/warm", 4, 3, Some(206), true, 0x5611e1664b0816a9),
    ("sssp/parallel1/Auto/cold", 6, 1, None, true, 0x11eff33c376879c5),
    ("sssp/parallel1/Auto/warm", 4, 1, None, true, 0x5611e1664b0816a9),
    ("sssp/parallel1/PullOnly/cold", 6, 0, None, true, 0x11eff33c376879c5),
    ("sssp/parallel1/PullOnly/warm", 4, 0, None, true, 0x5611e1664b0816a9),
    ("sssp/parallel1/PushOnly/cold", 5, 5, None, true, 0x11eff33c376879c5),
    ("sssp/parallel1/PushOnly/warm", 5, 4, None, true, 0x5611e1664b0816a9),
    ("cc/sync/Auto/cold", 6, 0, None, true, 0x6775009b61237966),
    ("cc/sync/Auto/warm", 1, 0, None, true, 0x6775009b61237966),
    ("cc/sync/PullOnly/cold", 6, 0, None, true, 0x6775009b61237966),
    ("cc/sync/PullOnly/warm", 1, 0, None, true, 0x6775009b61237966),
    ("cc/sync/PushOnly/cold", 6, 6, None, true, 0x6775009b61237966),
    ("cc/sync/PushOnly/warm", 1, 0, None, true, 0x6775009b61237966),
    ("cc/async/Auto/cold", 4, 1, None, true, 0x6775009b61237966),
    ("cc/async/Auto/warm", 1, 0, None, true, 0x6775009b61237966),
    ("cc/async/PullOnly/cold", 4, 0, None, true, 0x6775009b61237966),
    ("cc/async/PullOnly/warm", 1, 0, None, true, 0x6775009b61237966),
    ("cc/async/PushOnly/cold", 4, 4, None, true, 0x6775009b61237966),
    ("cc/async/PushOnly/warm", 1, 0, None, true, 0x6775009b61237966),
    ("cc/worklist/Auto/cold", 4, 3, Some(1020), true, 0x6775009b61237966),
    ("cc/worklist/Auto/warm", 1, 0, Some(1), true, 0x6775009b61237966),
    ("cc/worklist/PullOnly/cold", 3, 0, Some(1045), true, 0x6775009b61237966),
    ("cc/worklist/PullOnly/warm", 1, 0, Some(1), true, 0x6775009b61237966),
    ("cc/worklist/PushOnly/cold", 4, 3, Some(1020), true, 0x6775009b61237966),
    ("cc/worklist/PushOnly/warm", 1, 0, Some(1), true, 0x6775009b61237966),
    ("cc/parallel1/Auto/cold", 4, 1, None, true, 0x6775009b61237966),
    ("cc/parallel1/Auto/warm", 1, 0, None, true, 0x6775009b61237966),
    ("cc/parallel1/PullOnly/cold", 4, 0, None, true, 0x6775009b61237966),
    ("cc/parallel1/PullOnly/warm", 1, 0, None, true, 0x6775009b61237966),
    ("cc/parallel1/PushOnly/cold", 4, 4, None, true, 0x6775009b61237966),
    ("cc/parallel1/PushOnly/warm", 1, 0, None, true, 0x6775009b61237966),
    ("bfs/sync/Auto/cold", 6, 1, None, true, 0x1e8bcf5727b17fa1),
    ("bfs/sync/Auto/warm", 5, 4, None, true, 0xea21eda3f98f6c18),
    ("bfs/sync/PullOnly/cold", 6, 0, None, true, 0x1e8bcf5727b17fa1),
    ("bfs/sync/PullOnly/warm", 5, 0, None, true, 0xea21eda3f98f6c18),
    ("bfs/sync/PushOnly/cold", 6, 6, None, true, 0x1e8bcf5727b17fa1),
    ("bfs/sync/PushOnly/warm", 5, 4, None, true, 0xea21eda3f98f6c18),
    ("bfs/async/Auto/cold", 5, 1, None, true, 0x1e8bcf5727b17fa1),
    ("bfs/async/Auto/warm", 3, 2, None, true, 0xea21eda3f98f6c18),
    ("bfs/async/PullOnly/cold", 5, 0, None, true, 0x1e8bcf5727b17fa1),
    ("bfs/async/PullOnly/warm", 3, 0, None, true, 0xea21eda3f98f6c18),
    ("bfs/async/PushOnly/cold", 5, 5, None, true, 0x1e8bcf5727b17fa1),
    ("bfs/async/PushOnly/warm", 3, 2, None, true, 0xea21eda3f98f6c18),
    ("bfs/worklist/Auto/cold", 5, 4, Some(1112), true, 0x1e8bcf5727b17fa1),
    ("bfs/worklist/Auto/warm", 3, 2, Some(59), true, 0xea21eda3f98f6c18),
    ("bfs/worklist/PullOnly/cold", 5, 0, Some(1281), true, 0x1e8bcf5727b17fa1),
    ("bfs/worklist/PullOnly/warm", 3, 0, Some(69), true, 0xea21eda3f98f6c18),
    ("bfs/worklist/PushOnly/cold", 5, 4, Some(1112), true, 0x1e8bcf5727b17fa1),
    ("bfs/worklist/PushOnly/warm", 3, 2, Some(59), true, 0xea21eda3f98f6c18),
    ("bfs/parallel1/Auto/cold", 5, 1, None, true, 0x1e8bcf5727b17fa1),
    ("bfs/parallel1/Auto/warm", 3, 2, None, true, 0xea21eda3f98f6c18),
    ("bfs/parallel1/PullOnly/cold", 5, 0, None, true, 0x1e8bcf5727b17fa1),
    ("bfs/parallel1/PullOnly/warm", 3, 0, None, true, 0xea21eda3f98f6c18),
    ("bfs/parallel1/PushOnly/cold", 5, 5, None, true, 0x1e8bcf5727b17fa1),
    ("bfs/parallel1/PushOnly/warm", 3, 2, None, true, 0xea21eda3f98f6c18),
    ("delta-pagerank/rr/cold", 48, 47, None, true, 0x55e89f709002c4b4),
    ("delta-pagerank/priority0.1/cold", 411, 410, None, true, 0xf1048b72294891f4),
    ("delta-sssp/rr/cold", 6, 5, None, true, 0x11eff33c376879c5),
    ("delta-sssp/rr/warm", 4, 3, None, true, 0x5611e1664b0816a9),
    ("delta-sssp/priority0.1/cold", 14, 13, None, true, 0x11eff33c376879c5),
    ("delta-sssp/priority0.1/warm", 7, 6, None, true, 0x5611e1664b0816a9),
];

#[rustfmt::skip]
const PARALLEL_PINS: &[StatePin] = &[
    ("pagerank/parallel2/Auto/cold", 0x0000000000000000),
    ("pagerank/parallel2/Auto/warm", 0x0000000000000000),
    ("pagerank/parallel2/PullOnly/cold", 0x0000000000000000),
    ("pagerank/parallel2/PullOnly/warm", 0x0000000000000000),
    ("sssp/parallel2/Auto/cold", 0x11eff33c376879c5),
    ("sssp/parallel2/Auto/warm", 0x5611e1664b0816a9),
    ("sssp/parallel2/PullOnly/cold", 0x11eff33c376879c5),
    ("sssp/parallel2/PullOnly/warm", 0x5611e1664b0816a9),
    ("sssp/parallel2/PushOnly/cold", 0x11eff33c376879c5),
    ("sssp/parallel2/PushOnly/warm", 0x5611e1664b0816a9),
    ("cc/parallel2/Auto/cold", 0x6775009b61237966),
    ("cc/parallel2/Auto/warm", 0x6775009b61237966),
    ("cc/parallel2/PullOnly/cold", 0x6775009b61237966),
    ("cc/parallel2/PullOnly/warm", 0x6775009b61237966),
    ("cc/parallel2/PushOnly/cold", 0x6775009b61237966),
    ("cc/parallel2/PushOnly/warm", 0x6775009b61237966),
    ("bfs/parallel2/Auto/cold", 0x1e8bcf5727b17fa1),
    ("bfs/parallel2/Auto/warm", 0xea21eda3f98f6c18),
    ("bfs/parallel2/PullOnly/cold", 0x1e8bcf5727b17fa1),
    ("bfs/parallel2/PullOnly/warm", 0xea21eda3f98f6c18),
    ("bfs/parallel2/PushOnly/cold", 0x1e8bcf5727b17fa1),
    ("bfs/parallel2/PushOnly/warm", 0xea21eda3f98f6c18),
];
