//! `serve_ingest`: the `serve_read` request stream at the same offered
//! rate against a `MaintainedCube`-backed server, while append batches
//! arrive on a fixed schedule. Each batch is encoded as a `DeltaBatch`,
//! ingested, made visible and published with `CubeServer::refresh`.

use crate::cube_build::{closing, write_spans};
use crate::load::{self, LoadResult, LoadSpec};
use crate::report::{median, quantile, tail, Outcome};
use crate::serve_read::{self, State as ReadState};
use crate::serving::{
    count_reads, expected, put_serve_layer, read_figures, serve_relation, RATE, SHARDS,
};
use crate::{put_generate, setup_seed, timed_setup, trace, Host};
use icecube_cluster::ClusterConfig;
use icecube_core::{
    run_sequential, CubeStore, DeltaReport, IcebergQuery, MaintainedCube, SeqAlgorithm,
};
use icecube_data::{presets, DeltaBatch, Relation};
use icecube_serve::{CubeServer, NavigationWorkload, Response, ShardedCube};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Rows per append batch (1% of the served relation).
pub const BATCH_ROWS: usize = 50;

/// A batch falls due every this many milliseconds.
pub const PERIOD_MS: u64 = 400;

/// Nice value of the thread that encodes, ingests and publishes batches.
pub const INGEST_NICE: i32 = 10;

struct State {
    rel: Relation,
    cube: MaintainedCube,
    read: ReadState,
    /// Rows the batches are cut from, in arrival order.
    stream: Relation,
}

fn setup(host: &Host, batches: usize) -> State {
    let (rel, _) = trace::timed("data", "generate", || serve_relation(host.seed));
    let (cube, _) = trace::timed("core", "from_relation", || {
        MaintainedCube::from_relation(&rel, presets::BASELINE_MINSUP)
    });
    let cube = cube.expect("initial relation ingests");
    let (store, _) = trace::timed("core", "visible", || cube.visible());
    let (requests, _) = trace::timed("serve", "workload_generate", || {
        NavigationWorkload::generate(&store, crate::serving::POOL, setup_seed(host.seed, 2))
            .requests
    });
    let mut spec = presets::baseline();
    spec.tuples = batches * BATCH_ROWS;
    spec.seed = setup_seed(host.seed, 4);
    let (stream, _) = trace::timed("data", "generate_stream", || spec.generate());
    State {
        rel,
        cube,
        read: ReadState {
            store,
            requests: Arc::new(requests),
        },
        stream: stream.expect("baseline preset is valid"),
    }
}

/// One timed phase's observations.
struct Phase {
    refresh_ms: Vec<f64>,
    encode_s: Vec<f64>,
    ingest_s: Vec<f64>,
    visible_s: Vec<f64>,
    publish_s: Vec<f64>,
    reports: Vec<DeltaReport>,
    /// Cells of the last visible store.
    visible_cells: usize,
    /// Every published epoch and the batches it includes. The checks
    /// rebuild an epoch's store from this after the phase, so no store
    /// is kept while the heap is measured.
    epochs: Vec<(u64, usize)>,
    /// The maintained cube after the last batch, and the batch count.
    cube: Option<(MaintainedCube, usize)>,
}

impl Phase {
    /// A phase of `batches` batches, its records allocated up front.
    fn new(batches: usize) -> Phase {
        let v = || Vec::with_capacity(batches);
        Phase {
            refresh_ms: v(),
            encode_s: v(),
            ingest_s: v(),
            visible_s: v(),
            publish_s: v(),
            reports: Vec::with_capacity(batches),
            visible_cells: 0,
            epochs: Vec::with_capacity(batches + 1),
            cube: None,
        }
    }
}

/// Batch `b` of the stream, encoded against the base schema.
fn encode(s: &State, b: usize) -> Result<DeltaBatch, icecube_data::DataError> {
    let rows = s.stream.slice(b * BATCH_ROWS, (b + 1) * BATCH_ROWS);
    let mut batch = DeltaBatch::against(s.rel.schema());
    for r in 0..rows.len() {
        batch.push_row(rows.row(r), rows.measure(r))?;
    }
    Ok(batch)
}

/// Runs the read stream and the batch schedule together for `secs`. The
/// heap high-water mark restarts once the phase's records are allocated.
fn phase(s: &State, host: &Host, o: &mut Outcome, secs: f64) -> (Phase, LoadResult, CubeServer) {
    let (server, _) = serve_read::start(&s.read.store, host);
    let batches = (secs * 1000.0 / PERIOD_MS as f64) as usize;
    let mut p = Phase::new(batches);
    p.epochs.push((server.epoch(), 0));
    let cube = s.cube.clone();
    let load = load::prepare(
        server.handle().expect("running"),
        LoadSpec {
            spin: false,
            ..serve_read::spec(&s.read, host, RATE, secs)
        },
    );
    crate::alloc::reset_peak();
    let running = load.start();
    // The batch thread runs beside the read stream at a lower priority,
    // as background maintenance would: on a host with few cores, read
    // latency then shows the epoch swap and the refresh's memory traffic
    // more than the OS time slices a busy refresh thread holds.
    let driven = thread::scope(|scope| {
        scope
            .spawn(|| {
                load::lower_priority(INGEST_NICE);
                drive(s, &server, cube, batches, &mut p, o)
            })
            .join()
    });
    match driven {
        Ok(done) => p.cube = Some(done),
        Err(_) => o.check(false, || "the batch thread panicked".to_string()),
    }
    let load = running.join();
    (p, load, server)
}

/// Encodes, ingests, makes visible and publishes `batches` batches on
/// the fixed schedule into `cube`, and returns it. The first failure
/// stops the schedule, so every published epoch holds a prefix of the
/// batches.
fn drive(
    s: &State,
    server: &CubeServer,
    mut cube: MaintainedCube,
    batches: usize,
    p: &mut Phase,
    o: &mut Outcome,
) -> (MaintainedCube, usize) {
    let start = Instant::now();
    for b in 0..batches {
        let due = start + Duration::from_millis(PERIOD_MS * b as u64 + PERIOD_MS / 2);
        let now = Instant::now();
        if due > now {
            trace::timed("gen", "wait", || thread::sleep(due - now));
        }
        let (batch, ns) = trace::timed("data", "delta_encode", || encode(s, b));
        p.encode_s.push(ns as f64 / 1e9);
        let Ok(batch) = batch else {
            o.check(false, || format!("batch {b}: encoding failed"));
            return (cube, b);
        };
        let (report, ns) = trace::timed("core", "ingest_batch", || cube.ingest_batch(&batch));
        p.ingest_s.push(ns as f64 / 1e9);
        match report {
            Ok(r) => p.reports.push(r),
            Err(e) => {
                o.check(false, || format!("batch {b}: {e}"));
                return (cube, b);
            }
        }
        let (store, ns) = trace::timed("core", "visible", || cube.visible());
        p.visible_s.push(ns as f64 / 1e9);
        p.visible_cells = store.len();
        let (epoch, ns) = trace::timed("serve", "refresh", || server.refresh(&store));
        p.publish_s.push(ns as f64 / 1e9);
        p.refresh_ms.push(due.elapsed().as_secs_f64() * 1e3);
        match epoch {
            Ok(e) => {
                o.attempted += 1;
                p.epochs.push((e, b + 1));
            }
            Err(e) => {
                o.check(false, || format!("batch {b}: refresh failed: {e}"));
                return (cube, b + 1);
            }
        }
    }
    trace::thread_wall(start.elapsed().as_nanos() as u64);
    (cube, batches)
}

/// Checks a phase's answers and final store (outside the timed region).
fn check(s: &State, p: &Phase, load: &LoadResult, o: &mut Outcome) {
    let wrong = wrong_answers(s, p, load);
    count_reads(o, load, wrong);
    if let Some((cube, batches)) = &p.cube {
        check_final(s, cube, *batches, o);
    }
}

/// Every kept answer must equal the answer of the store of the epoch it
/// is tagged with. That store is rebuilt by replaying the epoch's batches
/// into a copy of the base cube (ingest is deterministic); an answer
/// tagged with an epoch that was never published is wrong.
fn wrong_answers(s: &State, p: &Phase, load: &LoadResult) -> u64 {
    let batches_at: BTreeMap<u64, usize> = p.epochs.iter().copied().collect();
    let mut by_batches: BTreeMap<usize, Vec<(usize, u64, &Response)>> = BTreeMap::new();
    let mut wrong = 0;
    for (index, answer) in &load.kept {
        match batches_at.get(&answer.epoch) {
            Some(&b) => {
                by_batches
                    .entry(b)
                    .or_default()
                    .push((*index, answer.epoch, &answer.response))
            }
            None => wrong += 1,
        }
    }
    let mut cube = s.cube.clone();
    let mut done = 0;
    for (batches, answers) in by_batches {
        while done < batches {
            let replayed = encode(s, done)
                .map_err(|e| e.to_string())
                .and_then(|b| cube.ingest_batch(&b).map_err(|e| e.to_string()));
            if let Err(e) = replayed {
                // Without the epoch's store no kept answer can be checked.
                eprintln!("perfbench: replaying batch {done} failed: {e}");
                return load.kept.len() as u64;
            }
            done += 1;
        }
        let store = cube.visible();
        for (index, epoch, response) in answers {
            if *response != expected(&store, &s.read.requests[index]) {
                wrong += 1;
                if wrong <= 3 {
                    eprintln!("perfbench: wrong answer to request {index} at epoch {epoch}");
                }
            }
        }
    }
    wrong
}

/// After the last batch the visible store must be byte-identical to a
/// from-scratch build over everything ingested.
fn check_final(s: &State, cube: &MaintainedCube, batches: usize, o: &mut Outcome) {
    let mut all = s.rel.clone();
    let appended = all.extend_from(&s.stream.slice(0, batches * BATCH_ROWS));
    let scratch = appended.ok().and_then(|()| {
        let q = IcebergQuery::count_cube(all.arity(), presets::BASELINE_MINSUP);
        run_sequential(
            SeqAlgorithm::BppBuc,
            &all,
            &q,
            &ClusterConfig::fast_ethernet(1),
        )
        .ok()
    });
    let bytes = |store: &CubeStore| {
        let mut b = Vec::new();
        store.write_to(&mut b).expect("in-memory write");
        b
    };
    let ok = scratch.is_some_and(|out| {
        let want = CubeStore::from_cells(all.arity(), presets::BASELINE_MINSUP, out.cells);
        bytes(&want) == bytes(&cube.visible())
    });
    o.check(ok, || {
        "final visible store differs from a from-scratch build".to_string()
    });
}

pub fn run(host: &Host) -> Outcome {
    let mut o = Outcome::default();
    let batches = (host.seconds * 1000.0 / PERIOD_MS as f64) as usize + 1;
    let s = timed_setup(&mut o, host, || setup(host, batches));
    o.note(format!(
        "serve_ingest: {} base rows ({} bytes), floor {} cells, served {} cells ({} bytes); {} rows per batch every {} ms; {} shards",
        s.rel.len(),
        s.rel.byte_size(),
        s.cube.floor().len(),
        s.read.store.len(),
        crate::serving::store_bytes(&s.read.store),
        BATCH_ROWS,
        PERIOD_MS,
        SHARDS
    ));
    if host.traced {
        traced(&s, host, &mut o);
        return o;
    }
    let (p, load, server) = phase(&s, host, &mut o, host.seconds);
    o.put("peak_heap_mb", crate::alloc::peak_mb(), "MB");
    drop(server);
    check(&s, &p, &load, &mut o);
    // The p99 under refresh moved by more than a regression bound between
    // sets of runs on the reference host, so it is reported, not gated.
    let (p50, _) = read_figures(&mut o, &load);
    o.put("op_ms", p50 / 1e3, "ms");
    let (t, pct) = tail(&p.refresh_ms);
    o.put("refresh_tail_ms", t, "ms");
    let busy: f64 = [&p.encode_s, &p.ingest_s, &p.visible_s, &p.publish_s]
        .iter()
        .flat_map(|v| v.iter())
        .sum();
    o.note(format!(
        "refresh: {} batches; p50 {:.2} ms; tail is p{pct:.1} (10 samples beyond it); \
         max {:.2} ms; encode+ingest+visible+publish busy {:.0}% of the phase",
        p.refresh_ms.len(),
        median(&p.refresh_ms),
        quantile(&p.refresh_ms, 1.0),
        100.0 * busy / host.seconds
    ));
    o
}

fn traced(s: &State, host: &Host, o: &mut Outcome) {
    let half = host.seconds / 2.0;
    let (plain, plain_load, server) = phase(s, host, o, half);
    drop(server);
    check(s, &plain, &plain_load, o);
    // The breakdown covers the batch thread and the load threads; this
    // thread only starts the server and waits.
    trace::set_enabled(true);
    let (p, load, server) = phase(s, host, o, half);
    trace::set_enabled(false);
    let (spans, walls) = trace::take();
    check(s, &p, &load, o);

    put_generate(o, || serve_relation(host.seed));
    o.put("data.delta_encode_s", median(&p.encode_s), "s");
    o.put("core.ingest_s", median(&p.ingest_s), "s");
    let per = |f: fn(&DeltaReport) -> usize| {
        median(&p.reports.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
    };
    o.put("core.merge.inserted", per(|r| r.inserted), "count");
    o.put("core.merge.updated", per(|r| r.updated), "count");
    o.put("core.merge.promoted", per(|r| r.promoted), "count");
    o.put(
        "core.merge.touched_cuboids",
        per(|r| r.touched_cuboids),
        "count",
    );
    o.put("serve.refresh_p50_ms", median(&p.refresh_ms), "ms");
    o.put("core.visible_s", median(&p.visible_s), "s");
    o.put("core.visible_cells", p.visible_cells as f64, "count");
    o.put("serve.publish_s", median(&p.publish_s), "s");
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let write = sum(&p.encode_s) + sum(&p.ingest_s) + sum(&p.visible_s) + sum(&p.publish_s);
    o.put(
        "serve.publish_share",
        sum(&p.publish_s) / write.max(1e-12),
        "share",
    );
    let (_, shard_ns) = trace::timed("serve", "shard", || ShardedCube::new(&s.read.store, SHARDS));
    o.put("serve.shard_s", shard_ns as f64 / 1e9, "s");
    put_serve_layer(o, &load, &server.stats());
    closing(
        o,
        &spans,
        &walls,
        median(&p.refresh_ms) / median(&plain.refresh_ms).max(1e-9),
    );
    write_spans(host, "serve_ingest", &spans);
}
