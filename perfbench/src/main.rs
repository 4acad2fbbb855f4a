//! `perfbench` — the icecube benchmark: five workloads, end-to-end
//! metrics untraced, per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload <cube_build|cube_sim|serve_read|serve_ingest|serve_progressive>
//!           --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it state the
//! host, the inputs and what was checked. The process exits 0 when every
//! output matched its reference, 2 on any mismatch, 1 on a usage error
//! or a metric of `manifest` that the workload did not measure.
//! See `README.md` beside this crate for the workloads and metrics.

mod alloc;
mod cube_build;
mod load;
mod manifest;
mod report;
mod serve_ingest;
mod serve_progressive;
mod serve_read;
mod serving;
mod trace;

use report::{json_str, result_line, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// A seed never used while the benchmark was tuned, for confirming a
/// claim on inputs it was not fitted to.
pub const HELD_OUT_SEED: u64 = 9_001;

/// How often a run repeats its set-up to report `setup_s` as a median.
pub const SETUPS: usize = 5;

/// The run's settings, sized for the host.
#[derive(Debug, Clone)]
pub struct Host {
    /// Available parallelism: native executor workers, server workers.
    pub workers: usize,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub out: PathBuf,
}

/// Derives the seed of one generated input from the run seed.
pub fn setup_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
    z = (z ^ (z >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 29)
}

/// Runs `setup` [`SETUPS`] times, keeping the last state and putting the
/// median wall time as `setup_s` (untraced runs only).
pub fn timed_setup<S>(o: &mut Outcome, host: &Host, mut setup: impl FnMut() -> S) -> S {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    if !host.traced {
        o.put("setup_s", report::median(&times), "s");
    }
    state.expect("SETUPS > 0")
}

/// Puts `data.generate_s`: the median of three timed generations of the
/// workload's relation (the data layer's share of set-up).
pub fn put_generate<R>(o: &mut Outcome, mut generate: impl FnMut() -> R) {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(generate());
            t.elapsed().as_secs_f64()
        })
        .collect();
    o.put("data.generate_s", report::median(&times), "s");
}

/// CPU time the hypervisor gave other guests while this host's cores
/// wanted to run (the `steal` column of `/proc/stat`), in clock ticks;
/// `None` where the file is absent.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?;
    let fields: Vec<u64> = cpu
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    fields.get(7).copied()
}

const WORKLOADS: [&str; 5] = [
    "cube_build",
    "cube_sim",
    "serve_read",
    "serve_ingest",
    "serve_progressive",
];

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]",
        WORKLOADS.join("|")
    );
    ExitCode::from(1)
}

fn command(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut out = PathBuf::from(".bench_build/perfbench");
    let mut i = 0;
    while i < args.len() {
        let Some(value) = args.get(i + 1) else {
            return usage(&format!("{} needs a value", args[i]));
        };
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => traced = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--out" => out = PathBuf::from(value),
            other => return usage(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let host = Host {
        workers,
        seed,
        seconds,
        traced,
        out,
    };
    let run: fn(&Host) -> Outcome = match workload.as_str() {
        "cube_build" => cube_build::run_native,
        "cube_sim" => cube_build::run_sim,
        "serve_read" => serve_read::run,
        "serve_ingest" => serve_ingest::run,
        "serve_progressive" => serve_progressive::run,
        other => return usage(&format!("unknown workload {other}")),
    };
    println!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {seed}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"nproc\": {workers}, \"executor_workers\": {workers}, \"server_workers\": {workers}, \
         \"generator_threads\": 2, \"rustc\": {}, \"git_rev\": {}, \"seconds\": {seconds}, \
         \"trace\": {traced}}}}}",
        json_str(&workload),
        json_str(&command("rustc", &["--version"])),
        json_str(&command("git", &["rev-parse", "HEAD"])),
    );
    let (steal, t) = (steal_ticks(), Instant::now());
    let mut outcome = run(&host);
    if let (Some(a), Some(b)) = (steal, steal_ticks()) {
        // Ticks are 1/100 s on Linux.
        let share = (b - a) as f64 / 100.0 / (t.elapsed().as_secs_f64() * workers as f64);
        outcome.note(format!(
            "host steal: {:.2}% of CPU time during the run",
            100.0 * share
        ));
    }
    if let Err(e) = manifest::select(&mut outcome, traced) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(1);
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("{}", result_line(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
