//! `serve_progressive`: a `ProgressiveBuild` folds a relation chunk by
//! chunk and publishes every fold with `publish_progressive`, while an
//! open-loop stream of estimate requests runs at a fixed rate. Builds
//! repeat back to back for the whole run.

use crate::cube_build::{closing, write_spans};
use crate::load::{self, LoadResult, LoadSpec};
use crate::report::{median, quantile, tail, Outcome};
use crate::serving::{count_reads, put_serve_layer, read_figures, KEPT, SHARDS};
use crate::{put_generate, setup_seed, timed_setup, trace, Host};
use icecube_cluster::ClusterConfig;
use icecube_core::{run_sequential, Aggregate, CubeStore, IcebergQuery, SeqAlgorithm};
use icecube_data::{Relation, SyntheticSpec};
use icecube_lattice::CuboidMask;
use icecube_online::ProgressiveBuild;
use icecube_serve::{CubeServer, Request, Response, ShardedCube};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Cardinalities of the streamed relation: 360 anchor cells, dense
/// enough that ε = 5% of the threshold is a meaningful tolerance.
pub const CARDS: [u32; 4] = [6, 5, 4, 3];

/// Rows of the streamed relation (~1,000 per anchor cell).
pub const ROWS: usize = 360_000;

/// Simulated sources (chunks per schedule step = NODES × NODES).
pub const NODES: usize = 4;

/// Schedule steps each source's partition is cut into.
pub const STEPS: usize = 12;

/// Sample size the chunk plan draws its boundaries from.
pub const SAMPLE: usize = 512;

/// Offered rate of the estimate stream, requests per second.
pub const EST_RATE: f64 = 3_500.0;

struct State {
    rel: Relation,
    minsup: u64,
    eps: f64,
    exact: CubeStore,
    requests: Arc<Vec<Request>>,
    /// The batch answer's count of every anchor cell at the threshold.
    anchor: BTreeMap<Vec<u32>, u64>,
    /// What the probed build saw; made once, after the timed set-ups.
    probed: Probed,
}

/// One build folded with an anchor probe after every publish.
#[derive(Default)]
struct Probed {
    /// Folds in a build.
    folds: usize,
    /// The fold (1-based) from which every anchor estimate stays within ε.
    eps_fold: usize,
    /// Probes unanswered or not an estimate, failed folds or publishes,
    /// and a last fold whose estimate is not exact.
    failed: u64,
}

fn setup(host: &Host) -> State {
    let spec = SyntheticSpec::uniform(ROWS, CARDS.to_vec(), setup_seed(host.seed, 5));
    let (rel, _) = trace::timed("data", "generate", || spec.generate());
    let rel = rel.expect("uniform spec is valid");
    let dims = rel.arity();
    let key_space: u64 = CARDS.iter().map(|&c| u64::from(c)).product();
    let minsup = (ROWS as u64 / key_space).max(2);
    let (scratch, _) = trace::timed("core", "run_sequential.reference", || {
        run_sequential(
            SeqAlgorithm::BppBuc,
            &rel,
            &IcebergQuery::count_cube(dims, 1),
            &ClusterConfig::fast_ethernet(NODES),
        )
    });
    let exact = CubeStore::from_cells(dims, 1, scratch.expect("batch build runs").cells);
    let full = CuboidMask::full(dims);
    let anchor: BTreeMap<Vec<u32>, u64> = exact
        .query(full, minsup)
        .expect("the floor answers any threshold")
        .into_iter()
        .map(|(k, a)| (k, a.count))
        .collect();
    let masks = exact.cuboid_masks();
    let keys: Vec<Vec<Vec<u32>>> = masks
        .iter()
        .map(|&g| exact.cells_of(g).map(|(k, _)| k.to_vec()).collect())
        .collect();
    let base = setup_seed(host.seed, 6);
    let mut drawn = 0u64;
    let mut draw = || {
        drawn += 1;
        setup_seed(base, drawn)
    };
    let requests = (0..crate::serving::POOL)
        .map(|_| {
            let m = (draw() % masks.len() as u64) as usize;
            if draw().is_multiple_of(2) {
                let ks = &keys[m];
                let key = ks[(draw() % ks.len() as u64) as usize].clone();
                Request::EstimatePoint {
                    cuboid: masks[m],
                    key,
                }
            } else {
                Request::EstimateCuboid {
                    cuboid: masks[m],
                    minsup,
                }
            }
        })
        .collect();
    State {
        rel,
        minsup,
        eps: (minsup as f64 * 0.05).max(1.0),
        exact,
        requests: Arc::new(requests),
        anchor,
        probed: Probed::default(),
    }
}

fn new_build(rel: &Relation, minsup: u64) -> ProgressiveBuild {
    let buffer = (ROWS / (NODES * STEPS)).max(20);
    let config = ClusterConfig::fast_ethernet(NODES);
    ProgressiveBuild::new(rel, minsup, NODES, buffer, SAMPLE, &config)
        .expect("relation is non-empty")
}

/// Folds one build and, after every publish, asks the server for the
/// anchor group-by's estimates (outside every timed region). A build is
/// deterministic for a seed, so each timed build reaches ε at the fold
/// found here and only has to fold and publish.
///
/// It runs once, after the timed set-ups: it folds a whole build beside a
/// server, and inside `setup_s` its time went with the host's speed
/// (set-up medians of 0.19, 0.21 and 0.27 s in three sets of ten runs).
fn probe_build(s: &State, host: &Host) -> Probed {
    let (rel, minsup, eps, anchor) = (&s.rel, s.minsup, s.eps, &s.anchor);
    let mut build = new_build(rel, minsup);
    let cube = ShardedCube::new(build.floor(), SHARDS);
    let server = CubeServer::start_progressive(cube, host.workers, build.progress())
        .expect("floor is minsup 1");
    let handle = server.handle().expect("running");
    let probe = Request::EstimateCuboid {
        cuboid: CuboidMask::full(rel.arity()),
        minsup,
    };
    let (mut errs, mut failed) = (Vec::new(), 0);
    loop {
        match build.step() {
            Ok(Some(_)) => {}
            Ok(None) => break,
            Err(_) => {
                failed += 1;
                break;
            }
        }
        let published = server
            .publish_progressive(build.floor(), build.progress())
            .is_ok();
        let err = handle
            .call(probe.clone())
            .ok()
            .and_then(|r| max_err(anchor, &r))
            .filter(|_| published);
        failed += u64::from(err.is_none());
        errs.push(err.unwrap_or(u64::MAX));
    }
    failed += u64::from(errs.last() != Some(&0));
    let within = errs.iter().rev().take_while(|&&e| e as f64 <= eps).count();
    Probed {
        folds: errs.len(),
        eps_fold: (errs.len() + 1 - within).clamp(1, errs.len().max(1)),
        failed,
    }
}

#[derive(Default)]
struct Phase {
    to_eps_ms: Vec<f64>,
    to_exact_ms: Vec<f64>,
    /// Traced phases only: per fold.
    fold_s: Vec<f64>,
    publish_s: Vec<f64>,
    folds: Vec<f64>,
    fold_virtual_s: Vec<f64>,
}

/// Worst absolute count error of an anchor estimate over the batch
/// answer's cells (an unseen key counts as estimated 0).
fn max_err(anchor: &BTreeMap<Vec<u32>, u64>, resp: &Response) -> Option<u64> {
    let Response::Estimate { cells, .. } = resp else {
        return None;
    };
    let est: BTreeMap<&[u32], u64> = cells
        .iter()
        .map(|c| (c.key.as_slice(), c.est_count))
        .collect();
    Some(
        anchor
            .iter()
            .map(|(k, &c)| est.get(k.as_slice()).copied().unwrap_or(0).abs_diff(c))
            .max()
            .unwrap_or(0),
    )
}

/// Runs progressive builds back to back for `secs` beside the estimate
/// stream. Each build's fold times are taken from its plan start, and
/// only folding and publishing are timed.
fn phase(s: &State, host: &Host, o: &mut Outcome, secs: f64) -> (Phase, LoadResult, CubeServer) {
    let first = new_build(&s.rel, s.minsup);
    let (cube, _) = trace::timed("serve", "shard", || ShardedCube::new(first.floor(), SHARDS));
    let server = CubeServer::start_progressive(cube, host.workers, first.progress())
        .expect("floor is minsup 1");
    drop(first);
    let load = load::prepare(
        server.handle().expect("running"),
        LoadSpec {
            requests: Arc::clone(&s.requests),
            rate: EST_RATE,
            duration: Duration::from_secs_f64(secs),
            keep: KEPT,
            seed: setup_seed(host.seed, 7),
            spin: false,
        },
    );
    let mut p = Phase::default();
    let mut want = Vec::new();
    s.exact.write_to(&mut want).expect("in-memory write");
    let mut got = Vec::with_capacity(want.len());
    let mut at_ms = Vec::with_capacity(s.probed.folds + 1);
    crate::alloc::reset_peak();
    let running = load.start();
    // The builds run on a thread of their own at the readers' priority.
    // At a lower priority (as serve_ingest's batch thread runs) the fold
    // thread, busy for the whole phase, got a share of the cores that
    // varied from run to run, and so did the time to ε (README.md).
    let folded = thread::scope(|scope| {
        scope
            .spawn(|| {
                let t = Instant::now();
                let deadline = t + Duration::from_secs_f64(secs);
                while Instant::now() < deadline {
                    fold_build(s, &server, &mut p, &mut at_ms, &want, &mut got, o);
                }
                trace::thread_wall(t.elapsed().as_nanos() as u64);
            })
            .join()
    });
    if folded.is_err() {
        o.check(false, || "the fold thread panicked".to_string());
    }
    let load = running.join();
    (p, load, server)
}

/// Folds and publishes one whole build, recording the wall time of each
/// publish from the plan start in `at_ms`.
fn fold_build(
    s: &State,
    server: &CubeServer,
    p: &mut Phase,
    at_ms: &mut Vec<f64>,
    want: &[u8],
    got: &mut Vec<u8>,
    o: &mut Outcome,
) {
    at_ms.clear();
    let t0 = Instant::now();
    let (mut build, _) = trace::timed("online", "plan", || new_build(&s.rel, s.minsup));
    loop {
        let (step, ns) = trace::timed("online", "step", || build.step());
        match step {
            Ok(Some(_)) if trace::enabled() => p.fold_s.push(ns as f64 / 1e9),
            Ok(Some(_)) => {}
            Ok(None) => break,
            Err(e) => {
                o.check(false, || format!("fold failed: {e}"));
                break;
            }
        }
        let (published, ns) = trace::timed("serve", "publish_progressive", || {
            server.publish_progressive(build.floor(), build.progress())
        });
        if trace::enabled() {
            p.publish_s.push(ns as f64 / 1e9);
        }
        match published {
            Ok(_) => at_ms.push(t0.elapsed().as_secs_f64() * 1e3),
            Err(e) => o.check(false, || format!("publish failed: {e}")),
        }
    }
    let folds = at_ms.len();
    p.to_exact_ms.push(at_ms.last().copied().unwrap_or(0.0));
    p.to_eps_ms
        .push(at_ms.get(s.probed.eps_fold - 1).copied().unwrap_or(0.0));
    p.folds.push(folds as f64);
    p.fold_virtual_s.push(build.virtual_ns() as f64 / 1e9);
    got.clear();
    build.floor().write_to(got).expect("in-memory write");
    o.check(
        folds == s.probed.folds && build.converged() && got == want,
        || format!("a build published {folds} folds, or its floor differs from the batch build"),
    );
}

/// Every kept estimate's bound must contain the exact aggregate.
fn check(s: &State, load: &LoadResult, o: &mut Outcome) {
    let mut wrong = 0;
    for (index, answer) in &load.kept {
        let cuboid = match &s.requests[*index] {
            Request::EstimatePoint { cuboid, .. } | Request::EstimateCuboid { cuboid, .. } => {
                *cuboid
            }
            _ => continue,
        };
        let sound = match &answer.response {
            Response::Estimate { cells, .. } => cells.iter().all(|c| {
                let exact = s
                    .exact
                    .get(cuboid, &c.key)
                    .copied()
                    .unwrap_or_else(Aggregate::empty);
                c.bound.contains(&exact)
            }),
            _ => false,
        };
        wrong += u64::from(!sound);
    }
    if wrong > 0 {
        eprintln!("perfbench: {wrong} estimates whose bound misses the exact value");
    }
    count_reads(o, load, wrong);
}

pub fn run(host: &Host) -> Outcome {
    let mut o = Outcome::default();
    let mut s = timed_setup(&mut o, host, || setup(host));
    s.probed = probe_build(&s, host);
    o.attempted += s.probed.folds as u64;
    o.failed += s.probed.failed;
    o.note(format!(
        "serve_progressive: {} rows over {:?} ({} bytes), minsup {}, ε {}; {} floor cells; {} folds per build, every anchor estimate within ε from fold {}; estimates at {} rps",
        s.rel.len(),
        CARDS,
        s.rel.byte_size(),
        s.minsup,
        s.eps,
        s.exact.len(),
        s.probed.folds,
        s.probed.eps_fold,
        EST_RATE
    ));
    if host.traced {
        traced(&s, host, &mut o);
        return o;
    }
    let (p, load, server) = phase(&s, host, &mut o, host.seconds);
    o.put("peak_heap_mb", crate::alloc::peak_mb(), "MB");
    drop(server);
    check(&s, &load, &mut o);
    read_figures(&mut o, &load);
    // A build is CPU-bound, so its best time is the steadiest figure
    // (README.md); the medians are printed.
    o.put("op_ms", quantile(&p.to_eps_ms, 0.0), "ms");
    o.note(format!(
        "progressive: {} builds; time to ε {:.2} ms best, {:.2} ms median; to exact {:.2} ms median",
        p.to_exact_ms.len(),
        quantile(&p.to_eps_ms, 0.0),
        median(&p.to_eps_ms),
        median(&p.to_exact_ms)
    ));
    o
}

fn traced(s: &State, host: &Host, o: &mut Outcome) {
    let half = host.seconds / 2.0;
    let (plain, plain_load, server) = phase(s, host, o, half);
    drop(server);
    check(s, &plain_load, o);
    // The breakdown covers the fold thread and the load threads; this
    // thread only starts the server and waits.
    trace::set_enabled(true);
    let (p, load, server) = phase(s, host, o, half);
    trace::set_enabled(false);
    let (spans, walls) = trace::take();
    check(s, &load, o);

    put_generate(o, || {
        SyntheticSpec::uniform(ROWS, CARDS.to_vec(), setup_seed(host.seed, 5)).generate()
    });
    let (fold_tail, pct) = tail(&p.fold_s);
    o.put("online.time_to_eps_ms", median(&p.to_eps_ms), "ms");
    o.put("online.time_to_exact_ms", median(&p.to_exact_ms), "ms");
    o.put("online.fold_s.p50", median(&p.fold_s), "s");
    o.put("online.fold_s.tail", fold_tail, "s");
    o.note(format!(
        "online.fold_s.tail is p{pct:.1} of {} folds",
        p.fold_s.len()
    ));
    o.put("online.folds", median(&p.folds), "count");
    o.put("online.fold_virtual", median(&p.fold_virtual_s), "sim_s");
    o.put("serve.publish_s", median(&p.publish_s), "s");
    let (folding, publishing) = (
        p.fold_s.iter().sum::<f64>(),
        p.publish_s.iter().sum::<f64>(),
    );
    o.put(
        "serve.publish_share",
        publishing / (folding + publishing).max(1e-12),
        "share",
    );
    o.put(
        "serve.shard_s",
        quantile(&trace::self_each(&spans, "serve", "shard"), 0.5),
        "s",
    );
    put_serve_layer(o, &load, &server.stats());
    closing(
        o,
        &spans,
        &walls,
        median(&p.to_exact_ms) / median(&plain.to_exact_ms).max(1e-9),
    );
    write_spans(host, "serve_progressive", &spans);
}
