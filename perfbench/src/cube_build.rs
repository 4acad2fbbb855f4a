//! `cube_build` and `cube_sim`: the paper's experiment, one workload per
//! backend. Each iteration builds the baseline iceberg cube once with
//! each of the five evaluated algorithms into counting sinks: on the
//! native executor (`cube_build`) or on the simulated 8-node cluster
//! (`cube_sim`). Cell totals are checked every build; fingerprints of the
//! sorted cells are checked after the timed phase.

use crate::report::{fingerprint, geomean, median, quantile, Outcome};
use crate::trace::{self, Span};
use crate::{put_generate, setup_seed, timed_setup, Host};
use icecube_cluster::ClusterConfig;
use icecube_core::cell::sort_cells;
use icecube_core::{
    run_parallel_exec, run_parallel_with, run_sequential, Algorithm, ExecOutcome, IcebergQuery,
    RunOptions, SeqAlgorithm,
};
use icecube_data::{presets, Relation};
use icecube_exec::NativeExecutor;
use icecube_trace::EventKind;
use std::time::Instant;

/// Share of the baseline's 176,631 tuples the build runs on: the fastest
/// native build (BPP) takes ~20 ms, one simulated iteration ~1 s.
pub const FRACTION: f64 = 0.05;

/// Simulated cluster size (the paper's evaluation cluster).
pub const SIM_NODES: usize = 8;

/// Where a workload's builds run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `run_parallel_exec` on a `NativeExecutor` with one worker per core.
    Native,
    /// `run_parallel_with` on the simulated cluster.
    Sim,
}

impl Backend {
    fn name(self) -> &'static str {
        match self {
            Backend::Native => "cube_build",
            Backend::Sim => "cube_sim",
        }
    }
}

const ALGS: [(Algorithm, &str); 5] = [
    (Algorithm::Rp, "rp"),
    (Algorithm::Bpp, "bpp"),
    (Algorithm::Asl, "asl"),
    (Algorithm::Pt, "pt"),
    (Algorithm::Aht, "aht"),
];

const NATIVE_SPANS: [&str; 5] = [
    "run_parallel_exec.rp",
    "run_parallel_exec.bpp",
    "run_parallel_exec.asl",
    "run_parallel_exec.pt",
    "run_parallel_exec.aht",
];

const SIM_SPANS: [&str; 5] = [
    "run_parallel_with.rp",
    "run_parallel_with.bpp",
    "run_parallel_with.asl",
    "run_parallel_with.pt",
    "run_parallel_with.aht",
];

struct State {
    rel: Relation,
    query: IcebergQuery,
    total: u64,
    print: u64,
}

fn setup(seed: u64) -> State {
    let mut spec = presets::baseline();
    spec.tuples = (presets::BASELINE_TUPLES as f64 * FRACTION) as usize;
    spec.seed = setup_seed(seed, 0);
    let (rel, _) = trace::timed("data", "generate", || spec.generate());
    let rel = rel.expect("baseline preset is valid");
    let query = IcebergQuery::count_cube(rel.arity(), presets::BASELINE_MINSUP);
    let (reference, _) = trace::timed("core", "run_sequential.reference", || {
        run_sequential(
            SeqAlgorithm::BppBuc,
            &rel,
            &query,
            &ClusterConfig::fast_ethernet(1),
        )
    });
    let mut cells = reference.expect("reference build runs").cells;
    sort_cells(&mut cells);
    State {
        total: cells.len() as u64,
        print: fingerprint(&cells),
        rel,
        query,
    }
}

/// Per-build observations of one timed phase.
#[derive(Default)]
struct Phase {
    /// Wall time of each build, per algorithm.
    build_s: [Vec<f64>; 5],
    iter_s: Vec<f64>,
    /// Traced native phases only: per algorithm, per build.
    exec: [Vec<ExecFacts>; 5],
    /// Traced simulated phases only: virtual makespan, KiB sent, imbalance.
    cluster: [Option<(f64, f64, f64)>; 5],
}

struct ExecFacts {
    /// `run_parallel_exec` wall time.
    outer: f64,
    /// The pool's wall time (`ExecReport::wall_ns`).
    wall: f64,
    busy: f64,
    steals: u64,
    tasks: usize,
    imbalance: f64,
}

fn exec_facts(out: &ExecOutcome, outer: f64) -> ExecFacts {
    let r = &out.report;
    let mut busy = vec![0u64; r.workers];
    if let Some(log) = &r.trace {
        for (w, slot) in busy.iter_mut().enumerate().take(log.node_count()) {
            let mut open = None;
            for e in log.node(w) {
                match e.kind {
                    EventKind::TaskStart { .. } => open = Some(e.ts_ns),
                    EventKind::TaskEnd { .. } => {
                        if let Some(s) = open.take() {
                            *slot += e.ts_ns.saturating_sub(s);
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    let total: u64 = busy.iter().sum();
    let mean = total as f64 / busy.len().max(1) as f64;
    let max = busy.iter().copied().max().unwrap_or(0) as f64;
    ExecFacts {
        outer,
        wall: r.wall_ns as f64 / 1e9,
        busy: total as f64 / 1e9,
        steals: r.steals,
        tasks: r.tasks,
        imbalance: if mean > 0.0 { max / mean } else { 1.0 },
    }
}

/// Builds the cube once with every algorithm on `backend`.
fn iteration(s: &State, host: &Host, backend: Backend, o: &mut Outcome, p: &mut Phase) {
    let t = Instant::now();
    let opts = RunOptions::counting();
    let mut config = ClusterConfig::fast_ethernet(SIM_NODES);
    if trace::enabled() {
        config = config.with_trace();
    }
    for (a, &(alg, stem)) in ALGS.iter().enumerate() {
        let total = match backend {
            Backend::Native => {
                let mut exec = NativeExecutor::new(host.workers);
                let (out, ns) = trace::timed("core", NATIVE_SPANS[a], || {
                    let out = run_parallel_exec(&mut exec, alg, &s.rel, &s.query, &opts);
                    if let Ok(out) = &out {
                        trace::reported("exec", "pool", out.report.wall_ns);
                    }
                    out
                });
                p.build_s[a].push(ns as f64 / 1e9);
                out.map(|out| {
                    if trace::enabled() {
                        p.exec[a].push(exec_facts(&out, ns as f64 / 1e9));
                    }
                    out.total_cells
                })
            }
            Backend::Sim => {
                let (out, ns) = trace::timed("cluster", SIM_SPANS[a], || {
                    run_parallel_with(alg, &s.rel, &s.query, &config, &opts)
                });
                p.build_s[a].push(ns as f64 / 1e9);
                out.map(|out| {
                    if trace::enabled() {
                        let kb =
                            out.trace.as_ref().map_or(0, |t| t.comm_volume_bytes()) as f64 / 1024.0;
                        p.cluster[a] = Some((out.stats.makespan_secs(), kb, out.stats.imbalance()));
                    }
                    out.total_cells
                })
            }
        };
        match total {
            Ok(cells) => o.check(cells == s.total, || {
                format!("{backend:?} {stem}: {cells} cells, want {}", s.total)
            }),
            Err(e) => o.check(false, || format!("{backend:?} {stem}: {e}")),
        }
    }
    p.iter_s.push(t.elapsed().as_secs_f64());
}

/// One untimed warm-up iteration, then iterations until `budget` seconds
/// have passed (at least three). The simulator is single-threaded, and
/// `cube_sim` moves it to the next core before every iteration, so that
/// each algorithm's best build (see [`build_ms`]) comes from whichever
/// core ran fastest: on the reference host, a virtual machine, a lone
/// simulation kept on one core ran at one of two speeds, up to 1.5x
/// apart, for whole runs at a time.
fn phase(s: &State, host: &Host, backend: Backend, o: &mut Outcome, budget: f64) -> Phase {
    let t = Instant::now();
    iteration(s, host, backend, o, &mut Phase::default());
    let mut p = Phase::default();
    let start = Instant::now();
    while p.iter_s.len() < 3 || start.elapsed().as_secs_f64() < budget {
        if backend == Backend::Sim {
            crate::load::pin_to_cpu(Some(p.iter_s.len()));
        }
        iteration(s, host, backend, o, &mut p);
    }
    crate::load::pin_to_cpu(None);
    trace::thread_wall(t.elapsed().as_nanos() as u64);
    p
}

/// The geometric mean over the algorithms of each one's best build time
/// in the phase, in ms: every algorithm weighs the same, however fast it
/// is. The best of a run's builds is the steadiest figure of a
/// CPU-bound build, since the host only ever adds time to it.
fn build_ms(p: &Phase) -> f64 {
    let best: Vec<f64> = p.build_s.iter().map(|b| quantile(b, 0.0) * 1e3).collect();
    geomean(&best)
}

/// Collecting builds on `backend`, compared by fingerprint with the
/// set-up reference (outside every timed region).
fn check_fingerprints(s: &State, host: &Host, backend: Backend, o: &mut Outcome) {
    let opts = RunOptions::default();
    let config = ClusterConfig::fast_ethernet(SIM_NODES);
    for &(alg, stem) in &ALGS {
        let cells = match backend {
            Backend::Native => {
                let mut exec = NativeExecutor::new(host.workers);
                run_parallel_exec(&mut exec, alg, &s.rel, &s.query, &opts).map(|o| o.cells)
            }
            Backend::Sim => {
                run_parallel_with(alg, &s.rel, &s.query, &config, &opts).map(|o| o.cells)
            }
        };
        let ok = cells
            .as_ref()
            .is_ok_and(|c| c.len() as u64 == s.total && fingerprint(c) == s.print);
        o.check(ok, || {
            format!("{backend:?} {stem}: cells differ from the reference")
        });
    }
}

pub fn run_native(host: &Host) -> Outcome {
    run(host, Backend::Native)
}

pub fn run_sim(host: &Host) -> Outcome {
    run(host, Backend::Sim)
}

fn run(host: &Host, backend: Backend) -> Outcome {
    let mut o = Outcome::default();
    let s = timed_setup(&mut o, host, || setup(host.seed));
    o.note(format!(
        "{}: {} tuples x {} dims ({} bytes), minsup {}, {} cells; {}",
        backend.name(),
        s.rel.len(),
        s.rel.arity(),
        s.rel.byte_size(),
        s.query.minsup,
        s.total,
        match backend {
            Backend::Native => format!("native executor, {} workers", host.workers),
            Backend::Sim => format!("simulated cluster, {SIM_NODES} nodes"),
        }
    ));
    if host.traced {
        traced(&s, host, backend, &mut o);
    } else {
        crate::alloc::reset_peak();
        let p = phase(&s, host, backend, &mut o, host.seconds);
        o.put("peak_heap_mb", crate::alloc::peak_mb(), "MB");
        o.put("op_ms", build_ms(&p), "ms");
        for (a, &(_, stem)) in ALGS.iter().enumerate() {
            let b = &p.build_s[a];
            o.put(format!("build_{stem}_s"), median(b), "s");
            o.note(format!(
                "{stem}: {} builds, min {:.1} ms, median {:.1} ms, max {:.1} ms",
                b.len(),
                quantile(b, 0.0) * 1e3,
                median(b) * 1e3,
                quantile(b, 1.0) * 1e3
            ));
        }
        o.note(format!(
            "{}: {} iterations; op_ms is the geometric mean of the five per-algorithm best times",
            backend.name(),
            p.iter_s.len()
        ));
    }
    check_fingerprints(&s, host, backend, &mut o);
    o
}

fn traced(s: &State, host: &Host, backend: Backend, o: &mut Outcome) {
    put_generate(o, || {
        let mut spec = presets::baseline();
        spec.tuples = s.rel.len();
        spec.seed = setup_seed(host.seed, 0);
        spec.generate()
    });
    let plain = phase(s, host, backend, o, host.seconds / 2.0);
    trace::set_enabled(true);
    let p = phase(s, host, backend, o, host.seconds / 2.0);
    trace::set_enabled(false);
    let (spans, walls) = trace::take();
    match backend {
        Backend::Native => traced_native(s, host, o, &p),
        Backend::Sim => traced_sim(s, o, &p),
    }
    closing(o, &spans, &walls, median(&p.iter_s) / median(&plain.iter_s));
    write_spans(host, backend.name(), &spans);
}

fn traced_native(s: &State, host: &Host, o: &mut Outcome, p: &Phase) {
    for (a, &(_, stem)) in ALGS.iter().enumerate() {
        let facts = &p.exec[a];
        let med = |f: &dyn Fn(&ExecFacts) -> f64| median(&facts.iter().map(f).collect::<Vec<_>>());
        let workers = host.workers as f64;
        o.put(format!("exec.wall_s.{stem}"), med(&|f| f.wall), "s");
        o.put(format!("exec.busy_s.{stem}"), med(&|f| f.busy), "s");
        o.put(
            format!("exec.idle_s.{stem}"),
            med(&|f| (workers * f.wall - f.busy).max(0.0)),
            "s",
        );
        o.put(
            format!("exec.busy_share.{stem}"),
            med(&|f| f.busy / (workers * f.wall).max(1e-12)),
            "share",
        );
        o.put(
            format!("exec.steals.{stem}"),
            med(&|f| f.steals as f64),
            "count",
        );
        o.put(
            format!("exec.tasks.{stem}"),
            med(&|f| f.tasks as f64),
            "count",
        );
        o.put(
            format!("exec.task_imbalance.{stem}"),
            med(&|f| f.imbalance),
            "ratio",
        );
        o.put(
            format!("core.merge_sort_s.{stem}"),
            med(&|f| (f.outer - f.wall).max(0.0)),
            "s",
        );
        o.put(
            format!("core.merge_sort_share.{stem}"),
            med(&|f| (f.outer - f.wall).max(0.0) / f.outer.max(1e-12)),
            "share",
        );
    }

    // Single-threaded sequential builds of the same relation.
    let config = ClusterConfig::fast_ethernet(1);
    for (alg, name) in [
        (SeqAlgorithm::Buc, "core.seq_buc_s"),
        (SeqAlgorithm::BppBuc, "core.seq_bppbuc_s"),
    ] {
        let times: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                let out = run_sequential(alg, &s.rel, &s.query, &config);
                let secs = t.elapsed().as_secs_f64();
                o.check(
                    out.as_ref().is_ok_and(|x| x.cells.len() as u64 == s.total),
                    || format!("{name}: cell count differs"),
                );
                secs
            })
            .collect();
        o.put(name, median(&times), "s");
    }
}

/// Cluster counts, and calibration against 1-worker native builds.
fn traced_sim(s: &State, o: &mut Outcome, p: &Phase) {
    let opts = RunOptions::counting();
    let mut virt = Vec::new();
    let mut one = Vec::new();
    for (a, &(alg, stem)) in ALGS.iter().enumerate() {
        let (makespan, kb, imbalance) = p.cluster[a].unwrap_or((0.0, 0.0, 0.0));
        o.put(format!("cluster.makespan.{stem}"), makespan, "sim_s");
        o.put(format!("cluster.comm_kb.{stem}"), kb, "KiB");
        o.put(format!("cluster.load_imbalance.{stem}"), imbalance, "ratio");
        o.put(format!("cluster.wall_s.{stem}"), median(&p.build_s[a]), "s");
        let one_worker: Vec<f64> = (0..3)
            .map(|_| {
                let mut exec = NativeExecutor::new(1);
                let t = Instant::now();
                let out = run_parallel_exec(&mut exec, alg, &s.rel, &s.query, &opts);
                let secs = t.elapsed().as_secs_f64();
                o.check(out.is_ok_and(|x| x.total_cells == s.total), || {
                    format!("1-worker {stem}: cell count differs")
                });
                secs
            })
            .collect();
        let wall1 = median(&one_worker);
        o.put(
            format!("cluster.calib.{stem}"),
            makespan / wall1.max(1e-9),
            "ratio",
        );
        virt.push(makespan);
        one.push(wall1);
    }
    let rank = |xs: &[f64]| {
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        idx.sort_by(|&i, &j| xs[i].total_cmp(&xs[j]));
        idx
    };
    let agree = rank(&virt) == rank(&one);
    o.put(
        "cluster.calib_rank_agree",
        f64::from(u8::from(agree)),
        "bool",
    );
    o.note(format!(
        "calibration: virtual makespan order {:?}, 1-worker native order {:?} (algorithm indices rp,bpp,asl,pt,aht)",
        rank(&virt),
        rank(&one)
    ));
}

/// Puts the breakdown shares, unattributed share and tracing overhead.
pub fn closing(o: &mut Outcome, spans: &[Span], walls: &[(u32, u64)], overhead: f64) {
    let (shares, unattributed) = trace::breakdown(spans, walls);
    for (layer, share) in shares {
        o.put(format!("self_share.{layer}"), share, "share");
    }
    o.put("trace.unattributed_share", unattributed, "share");
    o.put("trace.overhead", overhead, "ratio");
}

/// Writes the traced phase's spans beside the build output.
pub fn write_spans(host: &Host, workload: &str, spans: &[Span]) {
    let path = host
        .out
        .join(format!("spans_{workload}_seed{}.jsonl", host.seed));
    match trace::write_jsonl(&path, spans) {
        Ok(()) => println!("# spans: {} written to {}", spans.len(), path.display()),
        Err(e) => println!("# spans: not written ({e})"),
    }
}
