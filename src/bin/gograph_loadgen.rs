//! `gograph_loadgen` — closed-loop load harness for `gograph_serve`.
//!
//! Sweeps client counts × update rates against a running server. Each
//! cell runs for a fixed duration: C closed-loop client threads (each
//! waits for its reply before issuing the next query) plus one updater
//! thread streaming edge-update batches at the configured rate (85 %
//! inserts between random vertices, 15 % removes of edges its earlier
//! batches inserted). Client
//! side latencies give p50/p99; the server's stats reply (before/after
//! deltas) gives epochs published and engine `RunStats` aggregates.
//! `widened_replies` counts replies whose `effective_sources` differ
//! from the sources sent; every query runs alone on its own sources, so
//! it must be 0. Results land in a JSON report comparable to
//! `BENCH_PR2`–`PR5`.
//!
//! ```text
//! gograph_loadgen --addr 127.0.0.1:7421 [--clients 1,4,8]
//!                 [--update-rates 0,8] [--duration-secs 3]
//!                 [--batch-size 16] [--output BENCH_PR6.json]
//!                 [--shutdown] [--probe]
//! ```
//!
//! `--probe` skips the sweep: it runs one deterministic SSSP query
//! (source 0, first 64 vertices as targets) and prints the result as
//! one JSON line on stdout. The CI crash-recovery leg diffs a probe
//! taken before `kill -9` against one taken after restart — recovery
//! must reproduce the epoch bit-for-bit.
//!
//! `--fingerprint` prints the server's latest state-fingerprint probe
//! (seq, epoch, per-pipeline hashes) as one JSON line;
//! `--fingerprint-at SEQ` polls until the server can answer for that
//! exact seq. The CI replication leg `cmp`s a primary's fingerprint
//! line against the follower's at the same watermark — bit-identical
//! replay makes them byte-equal.

use gograph_graph::EdgeUpdate;
use gograph_serve::{AlgSpec, ModeSpec, ProbeVerdict, ServeClient};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct CellResult {
    clients: usize,
    update_rate: f64,
    duration: Duration,
    latencies_micros: Vec<u64>,
    queries: u64,
    client_rounds: u64,
    client_push_rounds: u64,
    /// Replies the server ran a kernel for (`rounds > 0`); the rest were
    /// answered from the epoch's converged state.
    kernel_replies: u64,
    max_state_bytes: u64,
    warm_replies: u64,
    /// Replies whose `effective_sources` differ from the sources sent.
    widened_replies: u64,
    update_batches_sent: u64,
    stats_delta: gograph_serve::StatsSnapshot,
    epoch_end: u64,
}

fn main() {
    let mut addr = String::new();
    let mut clients_arg = "1,4,8".to_string();
    let mut rates_arg = "0,8".to_string();
    let mut duration_secs: f64 = 3.0;
    let mut batch_size: usize = 16;
    let mut output = "BENCH_PR6.json".to_string();
    let mut shutdown = false;
    let mut probe = false;
    let mut fingerprint = false;
    let mut fingerprint_at: Option<u64> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| {
                eprintln!("missing value for {}", args[*i - 1]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--addr" => addr = value(&mut i),
            "--clients" => clients_arg = value(&mut i),
            "--update-rates" => rates_arg = value(&mut i),
            "--duration-secs" => duration_secs = value(&mut i).parse().unwrap_or(3.0),
            "--batch-size" => batch_size = value(&mut i).parse().unwrap_or(16),
            "--output" => output = value(&mut i),
            "--shutdown" => shutdown = true,
            "--probe" => probe = true,
            "--fingerprint" => fingerprint = true,
            "--fingerprint-at" => {
                fingerprint_at = Some(value(&mut i).parse().unwrap_or_else(|_| {
                    eprintln!("--fingerprint-at wants a sequence number");
                    std::process::exit(2);
                }))
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: gograph_loadgen --addr HOST:PORT [--clients 1,4,8] \
                     [--update-rates 0,8] [--duration-secs 3] [--batch-size 16] \
                     [--output BENCH_PR6.json] [--shutdown] [--probe] \
                     [--fingerprint | --fingerprint-at SEQ]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if addr.is_empty() {
        eprintln!("--addr is required");
        std::process::exit(2);
    }

    let client_counts: Vec<usize> = clients_arg
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&c| c > 0)
        .collect();
    let update_rates: Vec<f64> = rates_arg
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&r: &f64| r >= 0.0)
        .collect();

    let mut control = ServeClient::connect(&addr).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    let initial = control.stats().expect("stats request");
    let num_vertices = initial.num_vertices as u32;

    if probe {
        run_probe(&mut control, num_vertices);
        return;
    }
    if fingerprint || fingerprint_at.is_some() {
        run_fingerprint_probe(&mut control, fingerprint_at);
        return;
    }
    eprintln!(
        "loadgen: server at {addr} has {} vertices / {} edges (epoch {})",
        initial.num_vertices, initial.num_edges, initial.epoch
    );

    let mut cells = Vec::new();
    for &clients in &client_counts {
        for &rate in &update_rates {
            let cell = run_cell(
                &addr,
                &mut control,
                clients,
                rate,
                Duration::from_secs_f64(duration_secs),
                batch_size,
                num_vertices,
            );
            eprintln!(
                "loadgen: clients={clients} rate={rate}/s -> {} queries ({:.0} q/s, p50 {}us p99 {}us, {} epochs)",
                cell.queries,
                cell.queries as f64 / cell.duration.as_secs_f64(),
                percentile(&cell.latencies_micros, 0.50),
                percentile(&cell.latencies_micros, 0.99),
                cell.stats_delta.epochs_published,
            );
            cells.push(cell);
        }
    }

    let report = render_report(&initial, &cells, batch_size);
    std::fs::write(&output, report).unwrap_or_else(|e| {
        eprintln!("cannot write {output}: {e}");
        std::process::exit(1);
    });
    eprintln!("loadgen: wrote {output}");

    if shutdown {
        let last = control.shutdown_server().expect("shutdown request");
        eprintln!(
            "loadgen: server shut down after {} queries / {} epochs",
            last.queries, last.epochs_published
        );
    }
}

/// One deterministic query, printed as one JSON line; comparing two
/// probes byte-for-byte is the CI's bit-identical-recovery check.
fn run_probe(control: &mut ServeClient, num_vertices: u32) {
    // Quiesce first: recovery replays every *acked* batch, so the probe
    // must observe the fully-applied epoch to be comparable across a
    // crash, not whatever the mutator happened to have reached.
    for _ in 0..600 {
        let s = control.stats().expect("probe stats");
        if s.batches_applied + s.mutator_errors >= s.batches_enqueued {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let targets: Vec<u32> = (0..num_vertices.min(64)).collect();
    let reply = control
        .query(AlgSpec::Sssp, ModeSpec::Async, false, &[0], &targets)
        .unwrap_or_else(|e| {
            eprintln!("probe query failed: {e}");
            std::process::exit(1);
        });
    let mut values = String::new();
    for (i, (v, x)) in reply.values.iter().enumerate() {
        // The value rides as a string: `{:?}` is the shortest f64 form
        // that parses back exactly (byte-stable across runs), and
        // quoting keeps non-finite states (`inf` for unreachable
        // vertices) valid JSON.
        let _ = write!(values, "{}[{v},\"{x:?}\"]", if i > 0 { "," } else { "" });
    }
    println!(
        "{{\"probe\":\"sssp:0\",\"epoch\":{},\"converged\":{},\"values\":[{}]}}",
        reply.epoch, reply.converged, values
    );
}

/// Prints one state-fingerprint probe as a JSON line. With `at_seq`,
/// polls until the server's probe history covers that seq (a follower
/// may still be replaying toward it); byte-comparing a primary's line
/// against a follower's at the same seq is the CI replication leg's
/// bit-identical-replay check.
fn run_fingerprint_probe(control: &mut ServeClient, at_seq: Option<u64>) {
    let mut last = (0u64, 0u64, ProbeVerdict::Unknown, Vec::new());
    for _ in 0..600 {
        // Let the mutator settle everything enqueued so a no-seq probe
        // reflects the final state, then ask.
        let s = control.stats().expect("fingerprint stats");
        let settled = s.batches_applied + s.mutator_errors >= s.batches_enqueued;
        last = control.probe(at_seq).unwrap_or_else(|e| {
            eprintln!("fingerprint probe failed: {e}");
            std::process::exit(1);
        });
        if last.2 != ProbeVerdict::Unknown && (at_seq.is_some() || settled) {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let (seq, epoch, verdict, fingerprints) = last;
    if verdict == ProbeVerdict::Unknown {
        eprintln!(
            "fingerprint probe: server cannot answer for seq {:?} (aged out or not reached)",
            at_seq
        );
        std::process::exit(1);
    }
    let mut fps = String::new();
    for (i, f) in fingerprints.iter().enumerate() {
        let _ = write!(fps, "{}\"{f:016x}\"", if i > 0 { "," } else { "" });
    }
    println!(
        "{{\"fingerprint_probe\":{{\"seq\":{seq},\"epoch\":{epoch},\"fingerprints\":[{fps}]}}}}"
    );
}

#[allow(clippy::too_many_arguments)]
fn run_cell(
    addr: &str,
    control: &mut ServeClient,
    clients: usize,
    update_rate: f64,
    duration: Duration,
    batch_size: usize,
    num_vertices: u32,
) -> CellResult {
    let before = control.stats().expect("stats before cell");
    let stop = Arc::new(AtomicBool::new(false));

    // Updater thread: open-loop batches at `update_rate` per second.
    let updater = {
        let stop = Arc::clone(&stop);
        let addr = addr.to_string();
        std::thread::spawn(move || {
            if update_rate <= 0.0 {
                return 0u64;
            }
            let mut c = ServeClient::connect(&addr).expect("updater connect");
            let mut rng = StdRng::seed_from_u64(0xfeed);
            let period = Duration::from_secs_f64(1.0 / update_rate);
            let mut sent = 0u64;
            // Pairs earlier batches inserted: a remove takes one of
            // these back, so it deletes an edge the server really has (a
            // random pair almost never names one, and a no-op remove
            // exercises nothing on the write path).
            let mut inserted: Vec<(u32, u32)> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let started = Instant::now();
                let mut batch = Vec::with_capacity(batch_size);
                for _ in 0..batch_size {
                    let src = rng.random_range(0..num_vertices);
                    let dst = rng.random_range(0..num_vertices);
                    if src != dst {
                        if rng.random_bool(0.85) {
                            batch.push(EdgeUpdate::insert_weighted(
                                src,
                                dst,
                                rng.random_range(1.0..10.0),
                            ));
                        } else {
                            let (src, dst) = if inserted.is_empty() {
                                (src, dst)
                            } else {
                                inserted.swap_remove(rng.random_range(0..inserted.len()))
                            };
                            batch.push(EdgeUpdate::remove(src, dst));
                        }
                    }
                }
                if !batch.is_empty() && c.send_updates(&batch).is_err() {
                    break;
                }
                inserted.extend(
                    batch
                        .iter()
                        .filter(|u| u.is_insert())
                        .map(|u| (u.src(), u.dst())),
                );
                sent += 1;
                let elapsed = started.elapsed();
                if elapsed < period {
                    std::thread::sleep(period - elapsed);
                }
            }
            sent
        })
    };

    // Closed-loop clients: one query in flight each.
    let mut workers = Vec::with_capacity(clients);
    for worker_id in 0..clients {
        let stop = Arc::clone(&stop);
        let addr = addr.to_string();
        workers.push(std::thread::spawn(move || {
            let mut c = ServeClient::connect(&addr).expect("client connect");
            let mut rng = StdRng::seed_from_u64(0xc11e47 + worker_id as u64);
            let mut latencies = Vec::with_capacity(4096);
            let mut rounds = 0u64;
            let mut push_rounds = 0u64;
            let mut kernel_replies = 0u64;
            let mut state_bytes = 0u64;
            let mut warm_replies = 0u64;
            let mut widened = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Query mix: mostly the warm hot source, some cold
                // sources, some global CC.
                let roll: f64 = rng.random();
                let (alg, sources): (AlgSpec, Vec<u32>) = if roll < 0.55 {
                    (AlgSpec::Sssp, vec![0])
                } else if roll < 0.80 {
                    (AlgSpec::Sssp, vec![rng.random_range(0..num_vertices)])
                } else if roll < 0.90 {
                    (AlgSpec::Bfs, vec![rng.random_range(0..num_vertices)])
                } else {
                    (AlgSpec::Cc, vec![])
                };
                let target = rng.random_range(0..num_vertices);
                let t = Instant::now();
                match c.query(alg, ModeSpec::Async, true, &sources, &[target]) {
                    Ok(reply) => {
                        latencies.push(t.elapsed().as_micros() as u64);
                        rounds += reply.rounds;
                        push_rounds += reply.push_rounds;
                        kernel_replies += u64::from(reply.rounds > 0);
                        state_bytes = state_bytes.max(reply.state_bytes);
                        warm_replies += u64::from(reply.warm);
                        widened += u64::from(reply.effective_sources != sources);
                    }
                    Err(_) => break,
                }
            }
            (
                latencies,
                rounds,
                push_rounds,
                kernel_replies,
                state_bytes,
                warm_replies,
                widened,
            )
        }));
    }

    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);

    let mut latencies = Vec::new();
    let mut rounds = 0u64;
    let mut push_rounds = 0u64;
    let mut kernel_replies = 0u64;
    let mut max_state_bytes = 0u64;
    let mut warm_replies = 0u64;
    let mut widened_replies = 0u64;
    for w in workers {
        let (l, r, p, k, sb, wh, wi) = w.join().expect("client thread");
        latencies.extend(l);
        rounds += r;
        push_rounds += p;
        kernel_replies += k;
        max_state_bytes = max_state_bytes.max(sb);
        warm_replies += wh;
        widened_replies += wi;
    }
    let update_batches_sent = updater.join().expect("updater thread");

    let after = control.stats().expect("stats after cell");
    let delta = after.delta_since(&before);
    CellResult {
        clients,
        update_rate,
        duration,
        queries: latencies.len() as u64,
        latencies_micros: {
            let mut l = latencies;
            l.sort_unstable();
            l
        },
        client_rounds: rounds,
        client_push_rounds: push_rounds,
        kernel_replies,
        max_state_bytes,
        warm_replies,
        widened_replies,
        update_batches_sent,
        stats_delta: delta,
        epoch_end: after.epoch,
    }
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// `num / den`, 0 when nothing was counted.
fn ratio(num: u64, den: u64) -> f64 {
    if den > 0 {
        num as f64 / den as f64
    } else {
        0.0
    }
}

fn render_report(
    initial: &gograph_serve::StatsSnapshot,
    cells: &[CellResult],
    batch_size: usize,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"serve_loadgen\",");
    let _ = writeln!(
        out,
        "  \"description\": \"Closed-loop latency/throughput of the epoch-snapshot query service under concurrent readers and live update batches\","
    );
    let _ = writeln!(
        out,
        "  \"graph\": {{ \"vertices\": {}, \"edges\": {} }},",
        initial.num_vertices, initial.num_edges
    );
    let _ = writeln!(out, "  \"update_batch_size\": {batch_size},");
    let _ = writeln!(out, "  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let secs = c.duration.as_secs_f64();
        let d = &c.stats_delta;
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"clients\": {},", c.clients);
        let _ = writeln!(out, "      \"update_batches_per_sec\": {},", c.update_rate);
        let _ = writeln!(out, "      \"duration_secs\": {secs},");
        let _ = writeln!(out, "      \"queries\": {},", c.queries);
        let _ = writeln!(
            out,
            "      \"queries_per_sec\": {:.2},",
            c.queries as f64 / secs
        );
        let _ = writeln!(
            out,
            "      \"latency_micros\": {{ \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {} }},",
            percentile(&c.latencies_micros, 0.50),
            percentile(&c.latencies_micros, 0.90),
            percentile(&c.latencies_micros, 0.99),
            c.latencies_micros.last().copied().unwrap_or(0)
        );
        let _ = writeln!(
            out,
            "      \"run_stats\": {{ \"rounds\": {}, \"push_rounds\": {}, \"avg_rounds_per_query\": {:.3}, \"avg_rounds_per_kernel_query\": {:.3}, \"max_state_bytes\": {} }},",
            c.client_rounds,
            c.client_push_rounds,
            ratio(c.client_rounds, c.queries),
            ratio(c.client_rounds, c.kernel_replies),
            c.max_state_bytes
        );
        let _ = writeln!(
            out,
            "      \"warm_replies\": {}, \"warm_reply_share\": {:.3}, \"widened_replies\": {},",
            c.warm_replies,
            ratio(c.warm_replies, c.queries),
            c.widened_replies
        );
        let _ = writeln!(
            out,
            "      \"server_delta\": {{ \"queries\": {}, \"warm_hits\": {}, \"cold_runs\": {}, \"query_rounds\": {}, \"query_push_rounds\": {}, \"epochs_published\": {}, \"update_batches_applied\": {}, \"updates_applied\": {}, \"mutator_rounds\": {}, \"mutator_errors\": {}, \"mutator_restarts\": {}, \"degraded\": {}, \"wal_appends\": {}, \"checkpoints_written\": {}, \"connections_shed\": {} }},",
            d.queries,
            d.warm_hits,
            d.cold_runs,
            d.query_rounds,
            d.query_push_rounds,
            d.epochs_published,
            d.batches_applied,
            d.updates_applied,
            d.mutator_rounds,
            d.mutator_errors,
            d.mutator_restarts,
            d.degraded,
            d.wal_appends,
            d.checkpoints_written,
            d.connections_shed
        );
        let _ = writeln!(
            out,
            "      \"replication_delta\": {{ \"segments_shipped\": {}, \"records_shipped\": {}, \"acks\": {}, \"follower_lag\": {}, \"divergences\": {}, \"resyncs\": {}, \"checkpoint_bytes_written\": {} }},",
            d.repl_segments_shipped,
            d.repl_records_shipped,
            d.repl_acks,
            d.repl_follower_lag,
            d.repl_divergences,
            d.repl_resyncs,
            d.checkpoint_bytes_written
        );
        let _ = writeln!(
            out,
            "      \"update_batches_sent\": {}, \"epoch_at_end\": {}",
            c.update_batches_sent, c.epoch_end
        );
        let _ = writeln!(out, "    }}{}", if i + 1 < cells.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}
