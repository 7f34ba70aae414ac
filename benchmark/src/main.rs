//! `gograph-benchmark` — one harness, four workloads, a layer budget
//! from socket to kernel. See README.md for what is measured and why.
//!
//! ```text
//! gograph-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! gograph-benchmark --all [--seed N] [--seconds S] [--quick]
//! gograph-benchmark --check-repeat [--seed N] [--seconds S] [--quick]
//! gograph-benchmark --manifest
//! ```
//!
//! A run prints every metric by name and unit, then — as the last line
//! of stdout — one JSON object `{correct, attempted, failed, metrics}`.
//! Exit code 0: measured and every output check passed; 1: a check or
//! an operation the harness depends on failed (one-line reason on
//! stderr); 2: bad usage; 3: a stage overran its deadline.

mod batch;
mod guard;
mod inputs;
mod probes;
mod report;
mod service;
mod stats;
mod trace;

use batch::BatchOut;
use inputs::{Inputs, Workload, WORKLOADS};
use report::{Metrics, RunResult, END_TO_END, RUN_SECONDS};
use service::Traffic;
use stats::Samples;
use std::time::Duration;
use trace::timed;

/// How often the input is generated, for the median in `setup_s`.
const GENERATIONS: usize = 3;
/// Service boots for the median in `setup_s`: up to this many, but no
/// extra one once boots have taken this long (one boot on the
/// 200 000-vertex graph takes ~1.6 s, and ~0.4 s more to tear down).
const MAX_BOOTS: usize = 3;
const EXTRA_BOOT_LIMIT: Duration = Duration::from_secs(1);
/// Slices the measured time is cut into.
const SLICES: u32 = 6;

struct Options {
    seed: u64,
    seconds: f64,
    quick: bool,
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// One run of one workload: set up, the measured slices, checks.
///
/// The machine's speed drifts between modes some ±15 % apart that last
/// seconds (README, "Measured spread"), so a cell measured in one short
/// contiguous phase would report whichever mode that phase fell in.
/// The measured time is therefore cut into [`SLICES`] slices, each a
/// share of the batch repetitions followed by a segment of the
/// service's traffic: every metric's samples span the whole run.
fn run_workload(w: &Workload, opt: &Options, traced: bool) -> Result<RunResult, String> {
    // Reset the kernel's peak-RSS mark, so a second run in this process
    // (`--all`, `--check-repeat`) reports its own peak. Best effort.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let mut m = Metrics::default();
    trace::set_enabled(traced);
    // The traced run spends half of the time measuring and the rest on
    // the layer probes, so both kinds of run take about as long.
    let measure = opt.seconds * if traced { 0.5 } else { 1.0 };
    let batch_budget = Duration::from_secs_f64(measure * w.batch_share);
    let segment = Duration::from_secs_f64(measure * (1.0 - w.batch_share) / SLICES as f64);
    let kind = if opt.quick { w.quick_graph } else { w.graph };

    // --- set-up: generate the input and boot the service, both several
    // times; the run uses the last graph and the first service. ---
    guard::stage("setup: generate", Duration::from_secs(120));
    let mut generate_s = Samples::new();
    let mut generate = |i: usize| {
        let (g, wall) = timed("graph.generate", i as u64, || {
            inputs::generate(kind, opt.seed)
        });
        generate_s.push_s(wall);
        g
    };
    for i in 1..GENERATIONS {
        drop(generate(i)); // one graph alive at a time
    }
    let inputs = Inputs::new(generate(GENERATIONS), opt.seed);

    guard::stage("setup: boot", Duration::from_secs(120));
    let mut boot_s = Samples::new();
    let (service, wall) = service::boot(&inputs)?;
    boot_s.push_s(wall);
    // (`setup_s` is a plain-run metric: the traced run boots once.)
    while !traced && boot_s.len() < MAX_BOOTS && boot_s.sum() < EXTRA_BOOT_LIMIT.as_secs_f64() {
        let (mut extra, wall) = service::boot(&inputs)?;
        boot_s.push_s(wall);
        extra.server.shutdown();
    }

    // --- the measured slices ---
    let before = service.core.stats_snapshot();
    let mut b = BatchOut::default();
    let mut traffic = Traffic::default();
    for slice in 1..=SLICES {
        guard::stage("batch repetitions", batch_budget + Duration::from_secs(120));
        while b.reps == 0 || b.spent < batch_budget * slice / SLICES {
            batch::rep(&mut b, &inputs, w.compressed, traced)?;
        }
        guard::stage("serve segment", segment + Duration::from_secs(90));
        let tail = inputs::TAIL_BATCHES.div_ceil(SLICES as usize);
        service::run_segment(&service, &inputs, w, segment, tail, traced, &mut traffic)?;
    }
    let after = service.core.stats_snapshot();

    // --- checks, and in the traced run the layer probes ---
    guard::stage("batch checks", Duration::from_secs(120));
    let reference = batch::check(&inputs, &b, w.compressed)?;
    let dense_s = b.converge_dense_s.median();
    let frontier_s = b.converge_frontier_s.median();
    if traced {
        if w.compressed {
            m.set(
                "graph.compress_ms",
                b.compress_ms.median(),
                b.compress_ms.len(),
            );
        }
        guard::stage("probe: batch layers", Duration::from_secs(150));
        let (prepared, states) = b.last();
        probes::par_cells(&mut m, &inputs, prepared, states, dense_s + frontier_s)?;
        probes::batch_layers(&mut m, &inputs, prepared)?;
    }
    let edges = b.last().0.graph.num_edges();
    b.release();
    guard::stage("serve checks", Duration::from_secs(120));
    let verified = service::verify_replies(&mut traffic.reads)?;
    if traced {
        guard::stage("probe: serve layers", Duration::from_secs(120));
        probes::serve_layers(&mut m, &service, &inputs)?;
        probes::replication(&mut m, &service, &inputs)?;
    }
    let fin = service::finish(service)?;

    let reads = &traffic.reads;
    let ups = &traffic.updates;
    let answered = reads.all_ms.len();
    if reads.hot_ms.is_empty() || reads.cold_ms.is_empty() {
        return Err(format!(
            "serve segments too short: {answered} queries answered ({} hot, {} cold)",
            reads.hot_ms.len(),
            reads.cold_ms.len()
        ));
    }
    if verified == 0 && answered as u64 >= 4 * service::VERIFY_EVERY {
        return Err(format!(
            "check: none of {answered} replies could be verified ({} raced an epoch change)",
            reads.unverifiable
        ));
    }
    if ups.visible_ms.is_empty() {
        return Err("no update batch was acked and became visible".into());
    }

    // --- end-to-end metrics ---
    m.set(
        "setup_s",
        generate_s.median() + boot_s.median(),
        boot_s.len(),
    );
    m.set("peak_rss_mb", peak_rss_mb()?, 1);
    m.set("reorder_s", b.reorder_s.median(), b.reps);
    m.set("converge_dense_s", dense_s, b.reps);
    m.set("converge_frontier_s", frontier_s, b.reps);
    m.set(
        "query_qps",
        answered as f64 / traffic.read_elapsed.as_secs_f64(),
        answered,
    );
    m.set("hot_p50_ms", reads.hot_ms.median(), reads.hot_ms.len());
    m.set("cold_p50_ms", reads.cold_ms.median(), reads.cold_ms.len());
    m.set(
        "update_visible_p50_ms",
        ups.visible_ms.median(),
        ups.visible_ms.len(),
    );

    // --- per-layer metrics the slices themselves produce ---
    let n = b.reps;
    m.set(
        "graph.generate_ms",
        generate_s.median() * 1e3,
        generate_s.len(),
    );
    m.set("graph.relabel_ms", b.relabel_ms.median(), n);
    m.set("core.order_ms", b.order_ms.median(), n);
    m.set("core.order_par_ms", reference.order_par_ms, 1);
    m.set(
        "core.par_speedup",
        b.order_ms.median() / reference.order_par_ms,
        1,
    );
    let pr_ms = b.pagerank_ms.median();
    m.set("engine.pagerank_async_ms", pr_ms, n);
    m.set("engine.pagerank_async_rounds", b.pagerank_rounds as f64, 1);
    m.set(
        "engine.pagerank_async_medges_per_s",
        // edges gathered per second: rounds × |E| / wall
        (edges * b.pagerank_rounds) as f64 / 1e6 / (pr_ms / 1e3),
        n,
    );
    m.set(
        "engine.sssp_worklist_ms",
        b.sssp_ms.median(),
        b.sssp_ms.len(),
    );
    m.set("engine.bfs_worklist_ms", b.bfs_ms.median(), b.bfs_ms.len());
    m.set("engine.frontier_rounds", b.frontier_rounds as f64, 1);
    m.set(
        "engine.frontier_push_rounds",
        b.frontier_push_rounds as f64,
        1,
    );
    m.set(
        "engine.pagerank_default_ms",
        reference.pagerank_default_ms,
        1,
    );
    m.set(
        "engine.pagerank_default_rounds",
        reference.pagerank_default_rounds as f64,
        1,
    );
    m.set(
        "engine.order_speedup",
        reference.pagerank_default_ms / pr_ms,
        1,
    );
    m.set(
        "engine.rounds_saved_share",
        1.0 - b.pagerank_rounds as f64 / reference.pagerank_default_rounds as f64,
        1,
    );
    m.set(
        "admission.coalesced_share",
        (after.coalesced - before.coalesced) as f64
            / (after.queries - before.queries).max(1) as f64,
        answered,
    );
    m.set(
        "serve_core.rounds_per_query",
        reads.rounds as f64 / answered as f64,
        answered,
    );
    m.set(
        "serve_core.warm_share",
        reads.warm_replies as f64 / answered as f64,
        answered,
    );
    m.set("serve_core.start_ms", boot_s.median() * 1e3, boot_s.len());
    m.set("serve_core.recover_ms", fin.recover_ms, 1);
    m.set(
        "mutator.apply_ms_per_batch",
        ups.apply_ms.median(),
        ups.apply_ms.len(),
    );
    let applied = after.batches_applied - before.batches_applied;
    m.set(
        "mutator.rounds_per_batch",
        (after.mutator_rounds - before.mutator_rounds) as f64 / applied.max(1) as f64,
        applied as usize,
    );
    m.set(
        "mutator.busy_share",
        ups.apply_ms.sum() / 1e3 / ups.elapsed.as_secs_f64(),
        ups.apply_ms.len(),
    );
    m.set(
        "mutator.queue_depth_max",
        ups.queue_depth_max as f64,
        ups.visible_ms.len(),
    );
    m.set("checkpoint.count", fin.checkpoints_written as f64, 1);
    m.set("loadgen.query_p50_ms", reads.all_ms.median(), answered);
    m.set(
        "loadgen.query_p99_ms",
        reads.all_ms.quantile(0.99),
        answered,
    );
    m.set(
        "loadgen.update_ack_p50_ms",
        ups.ack_ms.median(),
        ups.ack_ms.len(),
    );
    m.set(
        "loadgen.update_visible_mean_ms",
        ups.visible_ms.mean(),
        ups.visible_ms.len(),
    );
    m.set(
        "loadgen.late_ms_p95",
        ups.late_ms.quantile(0.95),
        ups.late_ms.len(),
    );
    m.set("loadgen.verified_replies", verified as f64, answered);
    if traced {
        m.set(
            "trace.overhead_share_dense",
            b.dense_overhead.median(),
            b.dense_overhead.len(),
        );
        m.set(
            "trace.overhead_share_query",
            reads.traced_ms.median() / reads.untraced_ms.median() - 1.0,
            reads.traced_ms.len(),
        );
        trace::set_enabled(false);
        let path = guard::out_dir().join(format!("trace-{}.json", w.name));
        let spans =
            trace::write(&path, w.name, opt.seed).map_err(|e| format!("write {path:?}: {e}"))?;
        m.set("trace.spans", spans as f64, 1);
    }

    let result = RunResult {
        workload: w.name,
        traced,
        attempted: b.attempted + reads.attempted + ups.attempted,
        failed: reads.failed + ups.failed,
        metrics: m,
    };
    result.validate()?;
    Ok(result)
}

/// Runs and prints one workload; the JSON line goes last.
fn report_run(w: &Workload, opt: &Options, traced: bool) -> Result<(), String> {
    let result = run_workload(w, opt, traced)?;
    print!("{}", result.table());
    println!("{}", result.json_line());
    Ok(())
}

/// `--check-repeat`: each workload twice, same seed; fails if any
/// end-to-end metric got worse from the first run to the second, or
/// better, by more than its own bound.
fn check_repeat(opt: &Options) -> Result<(), String> {
    let mut worst: Option<String> = None;
    for w in &WORKLOADS {
        let a = run_workload(w, opt, false)?;
        let b = run_workload(w, opt, false)?;
        println!("== {}: repeat check", w.name);
        for d in END_TO_END {
            let (x, y) = (
                a.metrics.get(d.name).expect("validated"),
                b.metrics.get(d.name).expect("validated"),
            );
            let diff = (x - y).abs() / x.abs().min(y.abs());
            let ok = diff <= d.bound;
            println!(
                "  {:<24} {:>12.4} {:>12.4} {:<5} diff {:>6.2}% bound {:>4.0}% {}",
                d.name,
                x,
                y,
                d.unit,
                diff * 100.0,
                d.bound * 100.0,
                if ok { "ok" } else { "OUTSIDE" }
            );
            if !ok && worst.is_none() {
                worst = Some(format!(
                    "{}: {} differs by {:.1}% between two runs (bound {:.0}%)",
                    w.name,
                    d.name,
                    diff * 100.0,
                    d.bound * 100.0
                ));
            }
        }
    }
    worst.map_or(Ok(()), Err)
}

fn usage() -> ! {
    eprintln!(
        "usage: gograph-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]\n\
         \x20      gograph-benchmark --all | --check-repeat [--seed N] [--seconds S] [--quick]\n\
         \x20      gograph-benchmark --manifest\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload: Option<String> = None;
    let (mut all, mut repeat, mut quick, mut traced) = (false, false, false, false);
    let mut seed = inputs::DEFAULT_SEED;
    let mut seconds: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                seconds = Some(
                    value()
                        .parse()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--trace" => {
                traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--all" => all = true,
            "--check-repeat" => repeat = true,
            "--quick" => quick = true,
            "--manifest" => {
                print!("{}", report::manifest());
                return;
            }
            _ => usage(),
        }
    }
    let opt = Options {
        seed,
        // `--quick` is the smoke run: tiny graphs, two-second windows.
        seconds: seconds.unwrap_or(if quick { 2.0 } else { RUN_SECONDS as f64 }),
        quick,
    };

    guard::start_watchdog();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        guard::cleanup();
        hook(info);
    }));

    let outcome = if repeat {
        check_repeat(&opt)
    } else if all {
        WORKLOADS.iter().try_for_each(|w| {
            report_run(w, &opt, false)?;
            report_run(w, &opt, true)
        })
    } else {
        match workload.as_deref().map(inputs::workload) {
            Some(Some(w)) => report_run(w, &opt, traced),
            _ => usage(),
        }
    };
    guard::cleanup();
    if let Err(reason) = outcome {
        eprintln!("benchmark: FAILED: {reason}");
        std::process::exit(1);
    }
}
