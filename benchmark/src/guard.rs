//! What keeps a run from hanging or leaking: a stage deadline enforced
//! by a watchdog thread, and a scratch directory that is removed on
//! every exit path.
//!
//! The library's own waits (`ServeCore::quiesce`, `ReplicaPuller::step`,
//! thread joins) have no timeout, so instead of wrapping each one the
//! harness declares the stage it is entering and how long that stage may
//! take; if the deadline passes, the watchdog names the stuck stage,
//! cleans up and exits non-zero.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

struct Stage {
    name: String,
    deadline: Instant,
}

static STAGE: Mutex<Option<Stage>> = Mutex::new(None);
static SCRATCH: OnceLock<PathBuf> = OnceLock::new();
static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// Exit code of a run that a deadline ended.
pub const EXIT_STUCK: i32 = 3;

/// Declares that the harness is entering `name`, which must finish
/// within `limit`. Replaces the previous stage.
pub fn stage(name: &str, limit: Duration) {
    *STAGE
        .lock()
        .expect("stage lock is never held across a panic") = Some(Stage {
        name: name.to_string(),
        deadline: Instant::now() + limit,
    });
}

/// Starts the watchdog. Call once, before the first [`stage`].
pub fn start_watchdog() {
    std::thread::Builder::new()
        .name("bench-watchdog".into())
        .spawn(|| loop {
            std::thread::sleep(Duration::from_millis(100));
            let stuck = {
                let guard = STAGE
                    .lock()
                    .expect("stage lock is never held across a panic");
                guard
                    .as_ref()
                    .filter(|s| Instant::now() > s.deadline)
                    .map(|s| s.name.clone())
            };
            if let Some(name) = stuck {
                eprintln!("benchmark: stuck in stage `{name}` past its deadline; giving up");
                cleanup();
                std::process::exit(EXIT_STUCK);
            }
        })
        .expect("spawn watchdog thread");
}

/// The harness's own directory (`benchmark/` in the checkout the binary
/// was built from): every file the harness writes goes under `out/` in
/// it, so a run never touches anything outside its checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Removes scratch roots left behind by harness processes that were
/// killed before they could clean up (`tmp-<pid>` with no such process).
fn sweep_stale_scratch() {
    let Ok(entries) = std::fs::read_dir(out_dir()) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|n| n.strip_prefix("tmp-")) else {
            continue;
        };
        if !Path::new("/proc").join(pid).exists() {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// A fresh, empty directory under this process's scratch root (durable
/// service state, scratch WAL, scratch checkpoints).
pub fn scratch_dir(label: &str) -> std::io::Result<PathBuf> {
    let root = SCRATCH.get_or_init(|| {
        sweep_stale_scratch();
        out_dir().join(format!("tmp-{}", std::process::id()))
    });
    let dir = root.join(format!(
        "{label}-{}",
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Removes the scratch root. Idempotent; called on every exit path.
pub fn cleanup() {
    if let Some(root) = SCRATCH.get() {
        let _ = std::fs::remove_dir_all(root);
    }
}
