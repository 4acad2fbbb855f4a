//! What the three serving workloads share: the served relation and cube,
//! the reference answers a request must match, and the read metrics.

use crate::load::{LoadResult, KIND_NAMES};
use crate::report::{quantile, Outcome};
use crate::{setup_seed, Host};
use icecube_core::{run_parallel_exec, Aggregate, Algorithm, CubeStore, IcebergQuery};
use icecube_data::{presets, Relation};
use icecube_exec::NativeExecutor;
use icecube_serve::{Request, RequestError, Response, RollUpPlan, ServerStats};

/// Tuples of the served relation: the baseline shape (9 skewed dims,
/// cardinality product ~10^13) at 5,000 rows, which gives hundreds of
/// cuboids and ~10^5 cells at minsup 2 — more bytes than one core's L2.
pub const SERVE_TUPLES: usize = 5_000;

/// Shards of every served cube.
pub const SHARDS: usize = 4;

/// Requests in the pre-generated navigation pool (cycled).
pub const POOL: usize = 40_000;

/// Offered rate of the fixed-rate phases, requests per second.
pub const RATE: f64 = 7_000.0;

/// The p99 latency limit the capacity search holds the server to: above
/// the p99 a stable rung reaches, below any rung whose queue grows (see
/// README.md for the measurements).
pub const LIMIT_US: f64 = 20_000.0;

/// A request the generator sends more than this many µs after its due
/// time counts toward `gen.late_share`.
pub const LATE_US: f64 = 100.0;

/// Answers each fixed-rate phase keeps for its correctness check (a
/// seeded sample, the same size at every rate and run length).
pub const KEPT: u64 = 256;

/// The baseline relation the serving workloads read, seeded.
pub fn serve_relation(seed: u64) -> Relation {
    let mut spec = presets::baseline();
    spec.tuples = SERVE_TUPLES;
    spec.seed = setup_seed(seed, 1);
    spec.generate().expect("baseline preset is valid")
}

/// Precomputes the iceberg cube at the baseline minsup on the native
/// executor and stores it.
pub fn precompute(rel: &Relation, host: &Host) -> CubeStore {
    let q = IcebergQuery::count_cube(rel.arity(), presets::BASELINE_MINSUP);
    let mut exec = NativeExecutor::new(host.workers);
    let out = run_parallel_exec(&mut exec, Algorithm::Pt, rel, &q, &Default::default())
        .expect("serve cube configuration is valid");
    CubeStore::from_cells(rel.arity(), presets::BASELINE_MINSUP, out.cells)
}

/// Serialized size of a store, bytes.
pub fn store_bytes(store: &CubeStore) -> usize {
    let mut buf = Vec::new();
    store.write_to(&mut buf).expect("in-memory write");
    buf.len()
}

fn cells(r: Result<Vec<(Vec<u32>, Aggregate)>, icecube_core::AlgoError>) -> Response {
    match r {
        Ok(c) => Response::Cells(c),
        Err(e) => Response::Error(RequestError::from(e)),
    }
}

/// The answer `store` gives `req`, computed without the serving layer:
/// what a served answer tagged with `store`'s epoch must equal.
pub fn expected(store: &CubeStore, req: &Request) -> Response {
    match req {
        Request::Point { cuboid, key } => Response::Point(store.get(*cuboid, key).copied()),
        Request::Slice { cuboid, dim, value } => cells(store.slice(*cuboid, *dim, *value)),
        Request::DrillDown { cuboid, key, dim } => cells(store.drill_down(*cuboid, key, *dim)),
        Request::Cuboid { cuboid, minsup } => cells(store.query(*cuboid, *minsup)),
        Request::RollUp { cuboid, key, dim } => {
            let parent = cuboid.without_dim(*dim);
            if parent.is_all() || store.has_cuboid(parent) {
                return match store.roll_up(*cuboid, key, *dim) {
                    Ok(cell) => Response::RolledUp {
                        cell,
                        plan: RollUpPlan::Stored,
                        exact: true,
                    },
                    Err(e) => Response::Error(e.into()),
                };
            }
            let pos = cuboid.iter_dims().position(|d| d == *dim).unwrap_or(0);
            let mut pkey = key.clone();
            pkey.remove(pos);
            match store.drill_down(parent, &pkey, *dim) {
                Ok(fine) => {
                    let cell = (!fine.is_empty()).then(|| {
                        let mut agg = Aggregate::empty();
                        for (_, a) in &fine {
                            agg.merge(a);
                        }
                        (pkey, agg)
                    });
                    Response::RolledUp {
                        cell,
                        plan: RollUpPlan::Aggregated,
                        exact: store.minsup() == 1,
                    }
                }
                Err(e) => Response::Error(e.into()),
            }
        }
        Request::Batch(reqs) => Response::Batch(reqs.iter().map(|r| expected(store, r)).collect()),
        Request::EstimatePoint { .. } | Request::EstimateCuboid { .. } => {
            Response::Error(RequestError::NotProgressive)
        }
    }
}

/// Counts every sent request against the latency limit: refused or
/// unanswered requests fail, and so does every answer the caller found
/// wrong (`wrong`).
pub fn count_reads(o: &mut Outcome, load: &LoadResult, wrong: u64) {
    o.attempted += load.sent;
    o.failed += load.failures + wrong;
}

/// The read latencies of one fixed-rate phase, noted: returns the p50
/// over every request and the p99 over the requests due in the calm half
/// of its slots (the half with the least host steal). Failures count as
/// infinite latencies. Each workload puts the figures it gates.
pub fn read_figures(o: &mut Outcome, load: &LoadResult) -> (f64, f64) {
    let lat = load.latencies_us();
    let calm = load.calm_latencies_us();
    let (p50, p99) = (quantile(&lat, 0.50), quantile(&calm, 0.99));
    o.note(format!(
        "reads: {} sent, {} answered, {} failed, {} answers checked; p50 {:.1} us; p99 {:.1} us over the {} of {} slots with the least host steal, {:.1} us over all",
        load.sent,
        load.latencies.len(),
        load.failures,
        load.kept.len(),
        p50,
        p99,
        load.calm_slots().iter().filter(|&&c| c).count(),
        load.calm_slots().len(),
        quantile(&lat, 0.99)
    ));
    let slots = load.calm_slots().len();
    let per_slot: Vec<String> = (0..slots)
        .map(|k| {
            let lat: Vec<f64> = load
                .latencies
                .iter()
                .filter(|l| l.1 == k)
                .map(|l| l.2 as f64 / 1e3)
                .collect();
            format!("{:.0}", quantile(&lat, 0.99))
        })
        .collect();
    o.note(format!(
        "per {} ms slot: p99 (us) [{}], host steal (ticks) {:?}",
        crate::load::SLOT.as_millis(),
        per_slot.join(", "),
        load.slot_steal().unwrap_or_default()
    ));
    o.note(format!(
        "read quantiles (us): p90 {:.1}, p95 {:.1}, p98 {:.1}, p99 {:.1}, p99.5 {:.1}, p99.9 {:.1}",
        quantile(&lat, 0.90),
        quantile(&lat, 0.95),
        quantile(&lat, 0.98),
        quantile(&lat, 0.99),
        quantile(&lat, 0.995),
        quantile(&lat, 0.999)
    ));
    (p50, p99)
}

/// The serving layer's per-kind and counter metrics (traced runs).
pub fn put_serve_layer(o: &mut Outcome, load: &LoadResult, stats: &ServerStats) {
    for (k, name) in KIND_NAMES.iter().enumerate() {
        let lat: Vec<f64> = load
            .latencies
            .iter()
            .filter(|l| l.0 == k)
            .map(|l| l.2 as f64 / 1e3)
            .collect();
        if lat.is_empty() {
            continue;
        }
        o.put(
            format!("serve.lat_us.{name}.p50"),
            quantile(&lat, 0.5),
            "us",
        );
        o.put(
            format!("serve.lat_us.{name}.p99"),
            quantile(&lat, 0.99),
            "us",
        );
    }
    o.put(
        "serve.read_p99_all_us",
        quantile(&load.latencies_us(), 0.99),
        "us",
    );
    o.put("serve.backlog_max", load.backlog_max as f64, "count");
    let rollups = stats.rollup_stored + stats.rollup_aggregated;
    if rollups > 0 {
        o.put(
            "serve.rollup_stored_ratio",
            stats.rollup_stored as f64 / rollups as f64,
            "ratio",
        );
    }
    let reqs = stats.requests.max(1) as f64;
    o.put(
        "serve.cells_per_req",
        stats.cells_returned as f64 / reqs,
        "count",
    );
    let visits: u64 = stats.shard_routed.iter().chain(&stats.shard_scanned).sum();
    o.put("serve.fanout_ratio", visits as f64 / reqs, "ratio");
    let all = load.latencies_us();
    o.put(
        "serve.tail_ratio",
        quantile(&all, 0.99) / quantile(&all, 0.5).max(1e-9),
        "ratio",
    );
    let lag: Vec<f64> = load.lag_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    o.put("gen.lag_p99_us", quantile(&lag, 0.99), "us");
    let late = lag.iter().filter(|&&us| us > LATE_US).count();
    o.put(
        "gen.late_share",
        late as f64 / lag.len().max(1) as f64,
        "share",
    );
}
