//! Open-loop load: one generator thread sends requests on a fixed
//! schedule, one collector thread gathers the answers.
//!
//! Each request is timed from its *scheduled* send time, so a stall that
//! delays later sends is charged to them. The collector waits on the
//! oldest outstanding answer with a short timeout and then polls every
//! other outstanding one, so a slow earlier answer (a cuboid scan) never
//! delays the recorded arrival of a later one by more than [`POLL`].

use crate::trace;
use icecube_serve::{Answer, ClientHandle, Request};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Longest the collector waits on the oldest answer before polling the
/// rest: the bound on how late an overtaking answer can be recorded.
pub const POLL: Duration = Duration::from_micros(20);

/// How close to a send time the generator stops sleeping and yields.
pub const SPIN: Duration = Duration::from_millis(2);

/// Width of the slots a phase's requests are grouped into by due time.
/// The generator samples the host's steal counter at every slot boundary.
pub const SLOT: Duration = Duration::from_secs(1);

/// Request kinds, in the order of [`KIND_NAMES`].
pub const KIND_NAMES: [&str; 7] = [
    "point",
    "slice",
    "rollup",
    "drilldown",
    "cuboid",
    "batch",
    "estimate",
];

pub fn kind_of(req: &Request) -> usize {
    match req {
        Request::Point { .. } => 0,
        Request::Slice { .. } => 1,
        Request::RollUp { .. } => 2,
        Request::DrillDown { .. } => 3,
        Request::Cuboid { .. } => 4,
        Request::Batch(_) => 5,
        Request::EstimatePoint { .. } | Request::EstimateCuboid { .. } => 6,
    }
}

/// How to drive one open-loop phase.
#[derive(Clone)]
pub struct LoadSpec {
    /// The request pool, cycled through from its start.
    pub requests: Arc<Vec<Request>>,
    /// Offered rate, requests per second.
    pub rate: f64,
    pub duration: Duration,
    /// Keep the answers of a seeded sample of about this many requests
    /// for the correctness check, whatever the rate and duration, so the
    /// sample's memory does not grow with the run (0 keeps none).
    pub keep: u64,
    pub seed: u64,
    /// Yield the generator's core while waiting for a send time, in
    /// place of sleeping (see [`wait_until`]).
    pub spin: bool,
}

impl LoadSpec {
    /// Requests the schedule sends.
    pub fn count(&self) -> usize {
        (self.duration.as_secs_f64() * self.rate).ceil() as usize
    }
}

/// Everything one phase observed.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// `(kind, slot, latency ns)` per answered request.
    pub latencies: Vec<(usize, usize, u64)>,
    /// Slots of the requests that failed.
    pub failed_slots: Vec<usize>,
    /// The host's steal counter at the start of the phase and at the end
    /// of every slot (see [`crate::steal_ticks`]); `None` where the host
    /// has no such counter.
    pub steal: Vec<Option<u64>>,
    /// Requests sent.
    pub sent: u64,
    /// Requests refused at submit or never answered.
    pub failures: u64,
    /// How late the generator sent each request, ns.
    pub lag_ns: Vec<u64>,
    /// Most requests outstanding at once.
    pub backlog_max: usize,
    /// Requests still outstanding when the generator stopped sending.
    pub backlog_end: usize,
    /// Kept answers: `(pool index, answer)`.
    pub kept: Vec<(usize, Answer)>,
}

impl LoadResult {
    /// Latencies in µs with every failure counted as an infinite one.
    pub fn latencies_us(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.latencies.iter().map(|l| l.2 as f64 / 1e3).collect();
        v.extend(std::iter::repeat_n(f64::INFINITY, self.failures as usize));
        v
    }

    /// Steal ticks per slot, or `None` without a steal counter.
    pub fn slot_steal(&self) -> Option<Vec<u64>> {
        let ticks: Option<Vec<u64>> = self.steal.iter().copied().collect();
        let ticks = ticks?;
        Some(
            ticks
                .windows(2)
                .map(|w| w[1].saturating_sub(w[0]))
                .collect(),
        )
    }

    /// The calm half of the slots: the half with the least host steal,
    /// ties going to the earlier slot. Every slot without a steal counter.
    pub fn calm_slots(&self) -> Vec<bool> {
        let slots = self.steal.len().saturating_sub(1);
        let Some(steal) = self.slot_steal() else {
            return vec![true; slots];
        };
        let mut order: Vec<usize> = (0..slots).collect();
        order.sort_by_key(|&k| (steal[k], k));
        let mut calm = vec![false; slots];
        for &k in order.iter().take(slots.div_ceil(2)) {
            calm[k] = true;
        }
        calm
    }

    /// Latencies in µs of the requests due in the calm half of the slots,
    /// failures counted as infinite ones.
    pub fn calm_latencies_us(&self) -> Vec<f64> {
        let calm = self.calm_slots();
        let is_calm = |slot: usize| calm.get(slot).copied().unwrap_or(false);
        let mut v: Vec<f64> = self
            .latencies
            .iter()
            .filter(|l| is_calm(l.1))
            .map(|l| l.2 as f64 / 1e3)
            .collect();
        let failed = self.failed_slots.iter().filter(|&&k| is_calm(k)).count();
        v.extend(std::iter::repeat_n(f64::INFINITY, failed));
        v
    }
}

/// A phase whose recording buffers are allocated but whose threads have
/// not started: a caller that measures the heap during the phase resets
/// the high-water mark between [`prepare`] and [`Prepared::start`], so the
/// benchmark's own per-request records stay out of it.
pub struct Prepared {
    handle: ClientHandle,
    spec: LoadSpec,
    lag: Vec<u64>,
    out: LoadResult,
    open: Vec<Pending>,
}

/// What the generator thread observed.
#[derive(Default)]
struct Generated {
    sent: u64,
    refused_slots: Vec<usize>,
    lag: Vec<u64>,
    steal: Vec<Option<u64>>,
}

/// A running phase; [`Running::join`] waits for every answer.
pub struct Running {
    generator: thread::JoinHandle<Generated>,
    collector: thread::JoinHandle<LoadResult>,
}

struct Pending {
    index: usize,
    kind: usize,
    due: Instant,
    slot: usize,
    keep: bool,
    rx: Receiver<Answer>,
}

/// Asks the kernel for fine timer slack on this thread, so the sleeps
/// that pace the schedule wake within microseconds of their deadline.
#[cfg(target_os = "linux")]
pub fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and only changes
    // this thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

#[cfg(not(target_os = "linux"))]
pub fn tighten_timer_slack() {}

/// Raises this thread's nice value, so the host's scheduler favours the
/// serving threads when both want a core.
#[cfg(target_os = "linux")]
pub fn lower_priority(nice: i32) {
    extern "C" {
        fn gettid() -> i32;
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    }
    const PRIO_PROCESS: i32 = 0;
    // SAFETY: gettid has no preconditions; setpriority with PRIO_PROCESS
    // and a thread id changes only that thread's nice value.
    unsafe {
        setpriority(PRIO_PROCESS, gettid() as u32, nice);
    }
}

#[cfg(not(target_os = "linux"))]
pub fn lower_priority(_nice: i32) {}

/// Keeps this thread on the `cpu`-th core the process may use (counted
/// modulo their number), or lets it run on all of them again (`None`).
/// Threads it starts later inherit the setting.
#[cfg(target_os = "linux")]
pub fn pin_to_cpu(cpu: Option<usize>) {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // The cores the process was given, read before the first pinning.
    static ALLOWED: std::sync::OnceLock<[u64; 16]> = std::sync::OnceLock::new();
    let allowed = *ALLOWED.get_or_init(|| {
        let mut mask = [0u64; 16];
        // SAFETY: pid 0 is the calling thread; the mask is a writable
        // 1024-bit cpu_set_t of the size passed.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if ok != 0 {
            mask = [0; 16];
        }
        mask
    });
    let cores: Vec<usize> = (0..1024)
        .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    let mask = match cpu {
        _ if cores.is_empty() => return,
        None => allowed,
        Some(k) => {
            let c = cores[k % cores.len()];
            let mut one = [0u64; 16];
            one[c / 64] = 1 << (c % 64);
            one
        }
    };
    // SAFETY: pid 0 is the calling thread; the mask is a valid 1024-bit
    // cpu_set_t that outlives the call.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_cpu(_cpu: Option<usize>) {}

/// Allocates the buffers of one phase, sized for its whole schedule.
pub fn prepare(handle: ClientHandle, spec: LoadSpec) -> Prepared {
    let n = spec.count() + 1;
    let out = LoadResult {
        latencies: Vec::with_capacity(n),
        kept: Vec::with_capacity(2 * spec.keep as usize + 16),
        ..LoadResult::default()
    };
    Prepared {
        handle,
        lag: Vec::with_capacity(n),
        out,
        open: Vec::with_capacity(1024),
        spec,
    }
}

/// Waits for `due`. A spinning wait sleeps while `due` is more than
/// [`SPIN`] away, then yields the core until it passes.
///
/// A generator that sleeps between sends leaves its core idle, and on a
/// virtual machine an idle core's wake-up time varies with the host's
/// other guests: `serve_read`'s median latency followed it from run to
/// run (spread 0.20 over five seeds, 0.09 with the spinning wait). A
/// yielding thread gives its core to any serving thread that wakes.
/// Beside a busy thread of the program's own (`serve_progressive`'s
/// folds, `serve_ingest`'s batches) no core is idle, and a spinning
/// generator only takes time from that thread, so those workloads sleep.
fn wait_until(due: Instant, spin: bool) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        if !spin {
            thread::sleep(due - now);
        } else if due - now > SPIN {
            thread::sleep(due - now - SPIN);
        } else {
            thread::yield_now();
        }
    }
}

/// Starts the generator and collector threads for one phase.
pub fn spawn(handle: ClientHandle, spec: LoadSpec) -> Running {
    prepare(handle, spec).start()
}

impl Prepared {
    /// Starts the generator and collector threads.
    pub fn start(self) -> Running {
        let Prepared {
            handle,
            spec,
            mut lag,
            out,
            open,
        } = self;
        let (tx, rx) = mpsc::channel::<Pending>();
        let keep_every = match spec.keep {
            0 => 0,
            k => (spec.count() as u64 / k).max(1),
        };
        let generator = thread::spawn(move || {
            tighten_timer_slack();
            let t0 = Instant::now();
            let start = t0 + Duration::from_millis(2);
            let end = start + spec.duration;
            let pool = spec.requests.len().max(1);
            let (mut sent, mut refused_slots) = (0u64, Vec::new());
            let mut steal = vec![crate::steal_ticks()];
            let mut i = 0u64;
            loop {
                let due = start + Duration::from_nanos((i as f64 * 1e9 / spec.rate) as u64);
                if due >= end {
                    break;
                }
                let slot = ((due - start).as_nanos() / SLOT.as_nanos()) as usize;
                while steal.len() <= slot {
                    // The slot before `slot` is ending: read the counter
                    // before waiting for this request's send time.
                    steal.push(crate::steal_ticks());
                }
                trace::timed("gen", "wait", || wait_until(due, spec.spin));
                lag.push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
                let index = i as usize % pool;
                let req = spec.requests[index].clone();
                let kind = kind_of(&req);
                let keep =
                    keep_every > 0 && crate::setup_seed(spec.seed, i).is_multiple_of(keep_every);
                let (submitted, _) = trace::timed("serve", "submit", || handle.submit(req));
                sent += 1;
                let sent_on = submitted.ok().is_some_and(|rx| {
                    tx.send(Pending {
                        index,
                        kind,
                        due,
                        slot,
                        keep,
                        rx,
                    })
                    .is_ok()
                });
                if !sent_on {
                    refused_slots.push(slot);
                }
                i += 1;
            }
            let now = Instant::now();
            if end > now {
                thread::sleep(end - now);
            }
            steal.push(crate::steal_ticks());
            trace::thread_wall(t0.elapsed().as_nanos() as u64);
            Generated {
                sent,
                refused_slots,
                lag,
                steal,
            }
        });
        let collector = thread::spawn(move || {
            tighten_timer_slack();
            let t0 = Instant::now();
            let (mut out, _) = trace::timed("gen", "collect", || collect(rx, out, open));
            trace::thread_wall(t0.elapsed().as_nanos() as u64);
            out.kept.sort_by_key(|k| k.0);
            out
        });
        Running {
            generator,
            collector,
        }
    }
}

fn collect(rx: Receiver<Pending>, mut out: LoadResult, mut open: Vec<Pending>) -> LoadResult {
    let mut closed = false;
    let finish = |out: &mut LoadResult, p: Pending, got: Option<Answer>, at: Instant| match got {
        Some(answer) => {
            let ns = at.saturating_duration_since(p.due).as_nanos() as u64;
            out.latencies.push((p.kind, p.slot, ns));
            if p.keep {
                out.kept.push((p.index, answer));
            }
        }
        None => {
            out.failures += 1;
            out.failed_slots.push(p.slot);
        }
    };
    loop {
        while !closed {
            match rx.try_recv() {
                Ok(p) => open.push(p),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    closed = true;
                    out.backlog_end = open.len();
                }
            }
        }
        out.backlog_max = out.backlog_max.max(open.len());
        if open.is_empty() {
            if closed {
                break;
            }
            match rx.recv() {
                Ok(p) => open.push(p),
                Err(_) => {
                    closed = true;
                    out.backlog_end = 0;
                }
            }
            continue;
        }
        match open[0].rx.recv_timeout(POLL) {
            Ok(a) => {
                let at = Instant::now();
                let p = open.remove(0);
                finish(&mut out, p, Some(a), at);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                let p = open.remove(0);
                finish(&mut out, p, None, Instant::now());
            }
        }
        let mut j = 0;
        while j < open.len() {
            match open[j].rx.try_recv() {
                Ok(a) => {
                    let at = Instant::now();
                    let p = open.remove(j);
                    finish(&mut out, p, Some(a), at);
                }
                Err(TryRecvError::Empty) => j += 1,
                Err(TryRecvError::Disconnected) => {
                    let p = open.remove(j);
                    finish(&mut out, p, None, Instant::now());
                }
            }
        }
    }
    out
}

impl Running {
    /// Waits for the schedule to finish and every answer to arrive. A
    /// load thread that panicked counts as one more failure.
    pub fn join(self) -> LoadResult {
        let generated = self.generator.join();
        let collected = self.collector.join();
        let panicked = u64::from(generated.is_err()) + u64::from(collected.is_err());
        let Generated {
            sent,
            refused_slots,
            lag,
            steal,
        } = generated.unwrap_or_default();
        let mut out = collected.unwrap_or_default();
        out.sent = sent + panicked;
        out.failures += refused_slots.len() as u64 + panicked;
        out.failed_slots.extend(refused_slots);
        out.steal = steal;
        out.lag_ns = lag;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_half_leaves_out_the_slots_with_most_steal() {
        let r = LoadResult {
            latencies: vec![
                (0, 0, 100_000),
                (0, 1, 9_000_000),
                (0, 2, 200_000),
                (0, 3, 8_000_000),
            ],
            failed_slots: vec![3],
            steal: [0, 0, 5, 5, 15].map(Some).to_vec(),
            ..LoadResult::default()
        };
        assert_eq!(r.slot_steal(), Some(vec![0, 5, 0, 10]));
        assert_eq!(r.calm_slots(), vec![true, false, true, false]);
        assert_eq!(r.calm_latencies_us(), vec![100.0, 200.0]);
    }

    #[test]
    fn every_slot_counts_without_a_steal_counter() {
        let r = LoadResult {
            latencies: vec![(0, 0, 100_000), (0, 1, 9_000_000)],
            failed_slots: vec![1],
            steal: vec![None, None, None],
            ..LoadResult::default()
        };
        assert_eq!(r.calm_slots(), vec![true, true]);
        assert_eq!(r.calm_latencies_us(), vec![100.0, 9_000.0, f64::INFINITY]);
    }
}
