//! `gograph_serve` — boots the epoch-snapshot query service over a
//! generated community graph and serves the wire protocol until a
//! client sends Shutdown.
//!
//! ```text
//! gograph_serve [--listen 127.0.0.1:7421] [--scale tiny|standard]
//!               [--window-ms 2] [--warm cc,sssp:0,pagerank]
//!               [--durable-dir DIR] [--checkpoint-every N]
//!               [--role primary|follower] [--peer ADDR]
//! ```
//!
//! `--scale` defaults to the `GOGRAPH_SCALE` environment variable
//! (`standard` when unset). With `--durable-dir`, admitted update
//! batches are WAL-logged before the ack and the server rewrites its
//! one checkpoint file every N batches; if the directory already holds
//! durable state the server *recovers* from it (checkpoint + WAL tail
//! replay) instead of booting fresh, printing `gograph-serve: recovered epoch <E> (replayed <K> batches)`.
//!
//! `--role follower --peer ADDR` boots a read replica instead: the
//! graph is shipped from the primary's checkpoint (no local generation,
//! no `--durable-dir`), a background puller replays the primary's WAL
//! through the same apply path, and queries are served with the usual
//! bounded-staleness contract against the last known primary seq.
//!
//! The ready line printed on stdout is stable:
//! `gograph-serve: listening on <addr> ...` — the CI smoke greps it.

use gograph_graph::generators::{planted_partition, shuffle_labels, PlantedPartitionConfig};
use gograph_serve::{
    bootstrap_follower, serve, AlgSpec, DurabilityConfig, ReplicationConfig, RoleSpec, ServeConfig,
    ServeCore, WarmSpec,
};
use std::time::Duration;

fn main() {
    let mut listen = "127.0.0.1:7421".to_string();
    let mut scale = std::env::var("GOGRAPH_SCALE").unwrap_or_else(|_| "standard".to_string());
    let mut window_ms: u64 = 2;
    let mut warm_arg = "cc,sssp:0".to_string();
    let mut durable_dir: Option<String> = None;
    let mut checkpoint_every: u64 = 16;
    let mut role = RoleSpec::Primary;
    let mut peer: Option<String> = None;

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
            "--listen" => listen = value(&mut i),
            "--scale" => scale = value(&mut i),
            "--window-ms" => {
                window_ms = value(&mut i).parse().unwrap_or_else(|_| {
                    eprintln!("--window-ms wants an integer");
                    std::process::exit(2);
                })
            }
            "--warm" => warm_arg = value(&mut i),
            "--durable-dir" => durable_dir = Some(value(&mut i)),
            "--checkpoint-every" => {
                checkpoint_every = value(&mut i).parse().unwrap_or_else(|_| {
                    eprintln!("--checkpoint-every wants an integer");
                    std::process::exit(2);
                })
            }
            "--role" => {
                let name = value(&mut i);
                role = RoleSpec::from_name(&name).unwrap_or_else(|| {
                    eprintln!("--role wants primary or follower, got {name:?}");
                    std::process::exit(2);
                })
            }
            "--peer" => peer = Some(value(&mut i)),
            "--help" | "-h" => {
                eprintln!(
                    "usage: gograph_serve [--listen ADDR] [--scale tiny|standard] \
                     [--window-ms N] [--warm cc,sssp:0,...] \
                     [--durable-dir DIR] [--checkpoint-every N] \
                     [--role primary|follower] [--peer ADDR]"
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

    let warm = parse_warm(&warm_arg);

    if role == RoleSpec::Follower {
        let peer = peer.unwrap_or_else(|| {
            eprintln!("--role follower needs --peer ADDR (the primary to ship WAL from)");
            std::process::exit(2);
        });
        if durable_dir.is_some() {
            eprintln!("a follower keeps no durable state of its own; drop --durable-dir");
            std::process::exit(2);
        }
        let config = ServeConfig {
            warm,
            admission_window: Duration::from_millis(window_ms),
            ..ServeConfig::default()
        };
        let (core, puller) =
            bootstrap_follower(peer.as_str(), config, ReplicationConfig::default()).unwrap_or_else(
                |e| {
                    eprintln!("failed to bootstrap follower from {peer}: {e}");
                    std::process::exit(1);
                },
            );
        let boot = core.stats_snapshot();
        println!(
            "gograph-serve: follower synced to primary seq {} (epoch {})",
            boot.repl_primary_seq, boot.epoch
        );
        let handle = serve(listen.as_str(), core).unwrap_or_else(|e| {
            eprintln!("failed to bind {listen}: {e}");
            std::process::exit(1);
        });
        println!(
            "gograph-serve: listening on {} ({} vertices, {} edges, epoch {} ready)",
            handle.local_addr(),
            boot.num_vertices,
            boot.num_edges,
            boot.epoch
        );
        use std::io::Write;
        let _ = std::io::stdout().flush();
        let replica = gograph_serve::start_follower(puller);
        handle.wait();
        drop(replica);
        println!("gograph-serve: shutdown complete");
        return;
    }

    let (n, m) = match scale.as_str() {
        "tiny" | "small" | "test" => (400, 2_400),
        _ => (40_000, 240_000),
    };
    let graph = shuffle_labels(
        &planted_partition(PlantedPartitionConfig {
            num_vertices: n,
            num_edges: m,
            communities: (n / 100).max(4),
            p_intra: 0.8,
            gamma: 2.4,
            seed: 42,
        }),
        7,
    );

    let config = ServeConfig {
        warm,
        admission_window: Duration::from_millis(window_ms),
        durability: durable_dir.as_ref().map(|dir| DurabilityConfig {
            checkpoint_every_batches: checkpoint_every,
            ..DurabilityConfig::new(dir)
        }),
        ..ServeConfig::default()
    };
    let (core, recovered) = ServeCore::recover_or_start(&graph, config).unwrap_or_else(|e| {
        eprintln!("failed to start service: {e}");
        std::process::exit(1);
    });
    let boot = core.stats_snapshot();
    if recovered {
        println!(
            "gograph-serve: recovered epoch {} (replayed {} batches)",
            boot.epoch, boot.wal_replayed
        );
    }

    let handle = serve(listen.as_str(), core).unwrap_or_else(|e| {
        eprintln!("failed to bind {listen}: {e}");
        std::process::exit(1);
    });
    println!(
        "gograph-serve: listening on {} ({} vertices, {} edges, epoch {} ready)",
        handle.local_addr(),
        boot.num_vertices,
        boot.num_edges,
        boot.epoch
    );
    // The ready line must be visible even through a pipe before the
    // (potentially long) serving phase.
    use std::io::Write;
    let _ = std::io::stdout().flush();

    handle.wait();
    println!("gograph-serve: shutdown complete");
}

fn parse_warm(arg: &str) -> Vec<WarmSpec> {
    let mut warm = Vec::new();
    for part in arg.split(',').filter(|p| !p.is_empty()) {
        let (name, source) = match part.split_once(':') {
            Some((name, src)) => (
                name,
                src.parse().unwrap_or_else(|_| {
                    eprintln!("bad warm source in {part:?}");
                    std::process::exit(2);
                }),
            ),
            None => (part, 0),
        };
        match AlgSpec::from_name(name) {
            Some(alg) => warm.push(WarmSpec::new(alg, source)),
            None => {
                eprintln!("unknown warm algorithm {name:?}");
                std::process::exit(2);
            }
        }
    }
    warm
}
