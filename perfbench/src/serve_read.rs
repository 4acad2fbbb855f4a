//! `serve_read`: an open-loop stream of navigation requests at a fixed
//! offered rate against a precomputed baseline cube, then a fixed ladder
//! of rates to find the highest one the server sustains within the
//! latency limit.

use crate::cube_build::{closing, write_spans};
use crate::load::{self, LoadResult, LoadSpec};
use crate::report::{quantile, Outcome};
use crate::serving::{
    count_reads, expected, precompute, put_serve_layer, read_figures, serve_relation, store_bytes,
    KEPT, LIMIT_US, POOL, RATE, SHARDS,
};
use crate::{put_generate, setup_seed, timed_setup, trace, Host};
use icecube_core::CubeStore;
use icecube_serve::{CubeServer, NavigationWorkload, Request, ShardedCube};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tries a rung gets before it counts as missing the limit.
pub const TRIES: usize = 3;

/// Offered rates the capacity search walks, requests per second.
pub const LADDER: [f64; 9] = [
    8_000.0, 16_000.0, 32_000.0, 48_000.0, 64_000.0, 80_000.0, 96_000.0, 128_000.0, 160_000.0,
];

pub struct State {
    pub store: CubeStore,
    pub requests: Arc<Vec<Request>>,
}

pub fn setup(host: &Host) -> State {
    let (rel, _) = trace::timed("data", "generate", || serve_relation(host.seed));
    let (store, _) = trace::timed("core", "run_parallel_exec.precompute", || {
        precompute(&rel, host)
    });
    let (requests, _) = trace::timed("serve", "workload_generate", || {
        NavigationWorkload::generate(&store, POOL, setup_seed(host.seed, 2)).requests
    });
    State {
        store,
        requests: Arc::new(requests),
    }
}

/// Starts a fresh server over `store` (sharding timed as `serve.shard`).
pub fn start(store: &CubeStore, host: &Host) -> (CubeServer, u64) {
    let (cube, ns) = trace::timed("serve", "shard", || ShardedCube::new(store, SHARDS));
    let server = CubeServer::start(cube, host.workers).expect("worker pool starts");
    (server, ns)
}

pub fn spec(s: &State, host: &Host, rate: f64, secs: f64) -> LoadSpec {
    LoadSpec {
        requests: Arc::clone(&s.requests),
        rate,
        duration: Duration::from_secs_f64(secs),
        keep: KEPT,
        seed: setup_seed(host.seed, 3),
        spin: true,
    }
}

/// Checks every kept answer against the store of the single epoch; the
/// number of wrong answers.
pub fn wrong_answers(s: &State, load: &LoadResult) -> u64 {
    let mut wrong = 0;
    for (index, answer) in &load.kept {
        let want = expected(&s.store, &s.requests[*index]);
        if answer.epoch != 1 || answer.response != want {
            wrong += 1;
            if wrong <= 3 {
                eprintln!(
                    "perfbench: wrong answer to request {index} (epoch {})",
                    answer.epoch
                );
            }
        }
    }
    wrong
}

fn note_sizes(o: &mut Outcome, s: &State) {
    o.note(format!(
        "serve cube: {} cells in {} cuboids, {} bytes serialized (host L2: 4 MiB per core, L3: 300 MiB shared); {} shards; pool of {} requests",
        s.store.len(),
        s.store.cuboid_masks().len(),
        store_bytes(&s.store),
        SHARDS,
        s.requests.len()
    ));
}

pub fn run(host: &Host) -> Outcome {
    let mut o = Outcome::default();
    let s = timed_setup(&mut o, host, || setup(host));
    note_sizes(&mut o, &s);
    if host.traced {
        traced(&s, host, &mut o);
        return o;
    }
    let (server, _) = start(&s.store, host);
    let main = load::prepare(
        server.handle().expect("running"),
        spec(&s, host, RATE, host.seconds / 2.0),
    );
    crate::alloc::reset_peak();
    let main = main.start().join();
    o.put("peak_heap_mb", crate::alloc::peak_mb(), "MB");
    let wrong = wrong_answers(&s, &main);
    count_reads(&mut o, &main, wrong);
    // The p99 of this ~200 µs service is set by host stalls on the
    // reference host, so only the median is gated (README.md).
    let (p50, _) = read_figures(&mut o, &main);
    o.put("op_ms", p50 / 1e3, "ms");

    // A rung that misses the limit is run again, up to TRIES times, and
    // judged by its best try, so a host stall shorter than a rung does
    // not end the walk. The walk usually stops near the sixth rung, so
    // ten rung slots leave room for a few retries.
    let step = host.seconds / 2.0 / (LADDER.len() + 1) as f64;
    let mut prev: Option<(f64, f64)> = None;
    let mut capacity = LADDER[LADDER.len() - 1];
    for &rate in &LADDER {
        let mut score = f64::INFINITY;
        for _ in 0..TRIES {
            let rung = load::spawn(
                server.handle().expect("running"),
                spec(&s, host, rate, step),
            )
            .join();
            let wrong = wrong_answers(&s, &rung);
            count_reads(&mut o, &rung, wrong);
            let p99 = quantile(&rung.latencies_us(), 0.99);
            let backlog_limit = (rate * LIMIT_US / 1e6).max(1.0);
            // How far the try is from the limit: <= 1 meets it.
            let tried = if rung.failures + wrong > 0 {
                f64::INFINITY
            } else {
                (p99 / LIMIT_US).max(rung.backlog_end as f64 / backlog_limit)
            };
            o.note(format!(
                "ladder {rate} rps: p99 {p99:.1} us, backlog at end {} (limit {backlog_limit}), max {}, score {tried:.3} -> {}",
                rung.backlog_end,
                rung.backlog_max,
                if tried <= 1.0 { "meets" } else { "misses" }
            ));
            score = score.min(tried);
            if score <= 1.0 {
                break;
            }
        }
        if score > 1.0 {
            capacity = crossing(prev, (rate, score));
            break;
        }
        prev = Some((rate, score));
    }
    // Capacity moved by more than a regression bound between sets of
    // runs on the reference host, so it is reported, not gated.
    o.note(format!("read capacity: {capacity:.0} requests/s"));
    o
}

/// The rate at which the limit score crosses 1, interpolated in log
/// score between the last rung that met the limit and the first that
/// did not.
fn crossing(pass: Option<(f64, f64)>, fail: (f64, f64)) -> f64 {
    let (r_hi, s_hi) = fail;
    let Some((r_lo, s_lo)) = pass else {
        // Even the lowest rung missed: scale it down by the overshoot.
        return if s_hi.is_finite() { r_hi / s_hi } else { 0.0 };
    };
    if !s_hi.is_finite() {
        return r_lo;
    }
    let s_lo = s_lo.max(1e-6);
    let f = ((1.0 / s_lo).ln() / (s_hi / s_lo).ln()).clamp(0.0, 1.0);
    r_lo + (r_hi - r_lo) * f
}

fn traced(s: &State, host: &Host, o: &mut Outcome) {
    let half = host.seconds / 2.0;
    let (server, _) = start(&s.store, host);
    let plain = load::spawn(server.handle().expect("running"), spec(s, host, RATE, half)).join();
    count_reads(o, &plain, wrong_answers(s, &plain));
    drop(server);

    trace::set_enabled(true);
    let t = Instant::now();
    let (server, shard_ns) = start(&s.store, host);
    let (run, _) = trace::timed("gen", "open_loop", || {
        load::spawn(server.handle().expect("running"), spec(s, host, RATE, half)).join()
    });
    trace::thread_wall(t.elapsed().as_nanos() as u64);
    trace::set_enabled(false);
    let (spans, walls) = trace::take();
    count_reads(o, &run, wrong_answers(s, &run));

    o.put("serve.shard_s", shard_ns as f64 / 1e9, "s");
    put_generate(o, || serve_relation(host.seed));
    put_serve_layer(o, &run, &server.stats());
    let p50 = |l: &LoadResult| quantile(&l.latencies_us(), 0.5);
    closing(o, &spans, &walls, p50(&run) / p50(&plain).max(1e-9));
    write_spans(host, "serve_read", &spans);
}
