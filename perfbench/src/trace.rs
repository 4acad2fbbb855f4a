//! In-memory span recording around the benchmark's calls into each crate.
//!
//! Every call the benchmark makes into a crate's public API goes through
//! [`timed`], which always measures its duration (the end-to-end metrics
//! need it) and, while tracing is on, records a span: layer, name, the
//! enclosing span's name, thread, start, end and *self* time (duration
//! minus the time covered by child spans on the same thread). Spans stay
//! in memory until [`take`]; the workload writes them out at the end.
//!
//! A crate's internal phases that the benchmark cannot wrap (the native
//! executor's pool inside `run_parallel_exec`) are added as [`reported`]
//! children, from the timings the crate itself returns.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static THREAD_WALL: Mutex<Vec<(u32, u64)>> = Mutex::new(Vec::new());

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// Open spans on this thread: (name, child time accumulated so far).
    static STACK: RefCell<Vec<(&'static str, u64)>> = const { RefCell::new(Vec::new()) };
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub parent: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub self_ns: u64,
}

fn epoch() -> Instant {
    static T0: OnceLock<Instant> = OnceLock::new();
    *T0.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns span recording on or off (measurement continues either way).
pub fn set_enabled(on: bool) {
    epoch();
    ON.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Runs `f`, returning its result and wall time in nanoseconds; records a
/// span for it while tracing is on.
pub fn timed<R>(layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
    if !enabled() {
        let t = Instant::now();
        let r = f();
        return (r, t.elapsed().as_nanos() as u64);
    }
    STACK.with(|s| s.borrow_mut().push((name, 0)));
    let start = now_ns();
    let r = f();
    let end = now_ns();
    let dur = end - start;
    let (_, children) = STACK.with(|s| s.borrow_mut().pop()).unwrap_or((name, 0));
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        match s.last_mut() {
            Some(top) => {
                top.1 += dur;
                top.0
            }
            None => "",
        }
    });
    push(Span {
        layer,
        name,
        parent,
        thread: THREAD.with(|t| *t),
        start_ns: start,
        end_ns: end,
        self_ns: dur.saturating_sub(children),
    });
    (r, dur)
}

/// Adds a child span of `dur_ns` that a crate reported for work inside
/// the currently open span (placed at the open span's end).
pub fn reported(layer: &'static str, name: &'static str, dur_ns: u64) {
    if !enabled() {
        return;
    }
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        match s.last_mut() {
            Some(top) => {
                top.1 += dur_ns;
                top.0
            }
            None => "",
        }
    });
    let end = now_ns();
    push(Span {
        layer,
        name,
        parent,
        thread: THREAD.with(|t| *t),
        start_ns: end.saturating_sub(dur_ns),
        end_ns: end,
        self_ns: dur_ns,
    });
}

/// Records how long this thread took part in the traced phase: the
/// denominator the layer self times are shares of.
pub fn thread_wall(ns: u64) {
    if enabled() {
        let t = THREAD.with(|t| *t);
        THREAD_WALL
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((t, ns));
    }
}

fn push(span: Span) {
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
}

/// Drains every recorded span and thread wall.
pub fn take() -> (Vec<Span>, Vec<(u32, u64)>) {
    let spans = std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()));
    let walls = std::mem::take(&mut *THREAD_WALL.lock().unwrap_or_else(|e| e.into_inner()));
    (spans, walls)
}

/// The layers a breakdown is reported for, in output order.
pub const LAYERS: [&str; 7] = ["data", "exec", "core", "cluster", "online", "serve", "gen"];

/// Self time per layer as a share of the summed thread walls, plus the
/// unattributed remainder: the two close to 1 by construction.
pub fn breakdown(spans: &[Span], walls: &[(u32, u64)]) -> (Vec<(&'static str, f64)>, f64) {
    let total: u64 = walls.iter().map(|w| w.1).sum();
    let total = total.max(1) as f64;
    let shares: Vec<(&'static str, f64)> = LAYERS
        .iter()
        .map(|&layer| {
            let ns: u64 = spans
                .iter()
                .filter(|s| s.layer == layer)
                .map(|s| s.self_ns)
                .sum();
            (layer, ns as f64 / total)
        })
        .collect();
    let covered: f64 = shares.iter().map(|s| s.1).sum();
    (shares, (1.0 - covered).max(0.0))
}

/// Writes spans as JSON lines (one object per span).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"layer\":\"{}\",\"name\":\"{}\",\"parent\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.layer, s.name, s.parent, s.thread, s.start_ns, s.end_ns, s.self_ns
        )?;
    }
    out.flush()
}

/// Self times (seconds) of each span with this layer and name.
pub fn self_each(spans: &[Span], layer: &str, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(|s| s.self_ns as f64 / 1e9)
        .collect()
}
