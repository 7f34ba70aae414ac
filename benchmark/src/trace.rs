//! Span recorder for the traced run.
//!
//! One span — name, start, end, parent, operation id — wraps every call
//! the harness makes into a layer of the program. Spans are held in
//! memory and written to `out/trace-<workload>.json` when the run ends.
//! A layer is the part of a span's name before the first `.`
//! (`engine.pagerank_async` belongs to `engine`); a layer's number is
//! the summed *self time* of its spans: duration minus the part of it
//! covered by child spans.
//!
//! The plain run takes the same code path with the recorder off: the
//! wall-clock every metric is computed from is taken by [`timed`]
//! either way, so the only thing tracing adds is the bookkeeping
//! around it, which `trace.overhead_share_*` measures.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

struct Span {
    id: u32,
    parent: Option<u32>,
    thread: u32,
    op: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

// Relaxed everywhere: the flag and the id counters publish no other
// data; the span list itself is behind the mutex.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(0);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static ORIGIN: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static THREAD: Cell<Option<u32>> = const { Cell::new(None) };
}

/// Turns recording on or off. Spans already open keep recording.
pub fn set_enabled(on: bool) {
    ORIGIN.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn thread_index() -> u32 {
    THREAD.with(|t| {
        t.get().unwrap_or_else(|| {
            let i = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(Some(i));
            i
        })
    })
}

fn since_origin(t: Instant) -> u64 {
    let origin = *ORIGIN.get_or_init(Instant::now);
    t.saturating_duration_since(origin).as_nanos() as u64
}

/// An open span; records itself when dropped.
pub struct Scope {
    open: Option<(u32, Option<u32>, u64, &'static str, Instant)>,
}

/// Opens a span that lasts until the returned guard is dropped — for
/// harness-level parents (`batch.rep`, `probe.replication`) whose
/// children are the [`timed`] calls made while it is open.
pub fn scope(name: &'static str, op: u64) -> Scope {
    if !enabled() {
        return Scope { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    Scope {
        open: Some((id, parent, op, name, Instant::now())),
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        let Some((id, parent, op, name, start)) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        OPEN.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == id) {
                s.truncate(pos);
            }
        });
        let span = Span {
            id,
            parent,
            thread: thread_index(),
            op,
            name,
            start_ns: since_origin(start),
            end_ns: since_origin(end),
        };
        // A poisoned list still holds valid spans (pushes are atomic
        // with respect to the Vec's invariants), and Drop must not panic.
        SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }
}

/// Calls `f`, returning its result and wall-clock. With the recorder on
/// the call is also a span named `name` for operation `op`.
pub fn timed<R>(name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, Duration) {
    let scope = scope(name, op);
    let t = Instant::now();
    let r = f();
    let d = t.elapsed();
    drop(scope);
    (r, d)
}

/// Writes every recorded span, with its self time, and the per-layer
/// self-time totals to `path`, and forgets them (the next workload of
/// an `--all` run starts a fresh trace). Returns the span count.
pub fn write(path: &Path, workload: &str, seed: u64) -> std::io::Result<usize> {
    let spans = std::mem::take(&mut *SPANS.lock().expect("no span holder panics"));
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter() {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let self_ns = |s: &Span| {
        (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
    };
    let mut layers: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
    for s in spans.iter() {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        let e = layers.entry(layer).or_default();
        e.0 += self_ns(s);
        e.1 += 1;
    }

    let mut out = String::with_capacity(64 + spans.len() * 110);
    let _ = writeln!(out, "{{\"workload\":\"{workload}\",\"seed\":{seed},");
    let _ = writeln!(out, "\"layers\":{{");
    for (i, (layer, (ns, count))) in layers.iter().enumerate() {
        let _ = writeln!(
            out,
            "  \"{layer}\":{{\"self_ms\":{:.3},\"spans\":{count}}}{}",
            *ns as f64 / 1e6,
            if i + 1 < layers.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "}},");
    let _ = writeln!(out, "\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "  {{\"id\":{},\"parent\":{parent},\"thread\":{},\"op\":{},\"name\":\"{}\",\
             \"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}{}",
            s.id,
            s.thread,
            s.op,
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            self_ns(s) as f64 / 1e3,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "]}}");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)?;
    Ok(spans.len())
}
