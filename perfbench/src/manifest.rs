//! The metrics `BENCHMARK.json` names. Every run prints each metric of
//! its mode's list, whatever the workload: untraced runs the end-to-end
//! list, traced runs the per-layer list.
//!
//! A workload puts what it measures. [`select`] keeps the listed metrics
//! in list order and turns every other one into a note line. A per-layer
//! count, share or ratio of a layer the workload does not load reads 0;
//! a listed time is never filled in, so a workload that misses one is a
//! bug in the benchmark and the run fails.

use crate::report::Outcome;

/// End-to-end metrics and their units.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("peak_heap_mb", "MB"), ("op_ms", "ms")];

/// The five evaluated algorithms' metric suffixes.
pub const ALG_STEMS: [&str; 5] = ["rp", "bpp", "asl", "pt", "aht"];

/// Units a per-layer metric may read 0 in where its layer is not loaded.
const ZERO_UNITS: [&str; 6] = ["count", "share", "ratio", "bool", "KiB", "sim_s"];

/// Per-layer metrics and their units.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![("data.generate_s".into(), "s")];
    for layer in crate::trace::LAYERS {
        m.push((format!("self_share.{layer}"), "share"));
    }
    m.push(("trace.unattributed_share".into(), "share"));
    m.push(("trace.overhead".into(), "ratio"));
    let per_alg: [(&str, &'static str); 9] = [
        ("exec.busy_share", "share"),
        ("exec.steals", "count"),
        ("exec.tasks", "count"),
        ("exec.task_imbalance", "ratio"),
        ("core.merge_sort_share", "share"),
        ("cluster.makespan", "sim_s"),
        ("cluster.comm_kb", "KiB"),
        ("cluster.load_imbalance", "ratio"),
        ("cluster.calib", "ratio"),
    ];
    for (stem, unit) in per_alg {
        for alg in ALG_STEMS {
            m.push((format!("{stem}.{alg}"), unit));
        }
    }
    let rest: [(&str, &'static str); 15] = [
        ("cluster.calib_rank_agree", "bool"),
        ("core.merge.inserted", "count"),
        ("core.merge.updated", "count"),
        ("core.merge.promoted", "count"),
        ("core.merge.touched_cuboids", "count"),
        ("core.visible_cells", "count"),
        ("online.folds", "count"),
        ("online.fold_virtual", "sim_s"),
        ("serve.backlog_max", "count"),
        ("serve.rollup_stored_ratio", "ratio"),
        ("serve.cells_per_req", "count"),
        ("serve.fanout_ratio", "ratio"),
        ("serve.tail_ratio", "ratio"),
        ("gen.late_share", "share"),
        ("serve.publish_share", "share"),
    ];
    m.extend(rest.iter().map(|&(n, u)| (n.to_string(), u)));
    m
}

/// Reorders `o.metrics` into the mode's list, noting every other metric.
pub fn select(o: &mut Outcome, traced: bool) -> Result<(), String> {
    let list: Vec<(String, &'static str)> = if traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut measured = std::mem::take(&mut o.metrics);
    for (name, unit) in list {
        match measured.iter().position(|m| m.0 == name) {
            Some(i) => {
                let (name, value, got) = measured.remove(i);
                if got != unit {
                    return Err(format!("{name} measured in {got}, listed in {unit}"));
                }
                o.metrics.push((name, value, unit));
            }
            None if traced && ZERO_UNITS.contains(&unit) => o.metrics.push((name, 0.0, unit)),
            None => return Err(format!("{name} was not measured")),
        }
    }
    for (name, value, unit) in measured {
        o.note(format!("also measured: {name} = {value} {unit}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let names: std::collections::BTreeSet<String> =
            per_layer().into_iter().map(|m| m.0).collect();
        assert_eq!(names.len(), per_layer().len());
    }

    #[test]
    fn a_missing_time_fails_and_extras_become_notes() {
        let measured = [
            ("op_ms", 1.5, "ms"),
            ("peak_heap_mb", 2.0, "MB"),
            ("build_rp_s", 0.1, "s"),
        ];
        let mut o = Outcome::default();
        for (n, v, u) in measured {
            o.put(n, v, u);
        }
        assert!(select(&mut o, false).is_err());
        let mut o = Outcome::default();
        for (n, v, u) in measured {
            o.put(n, v, u);
        }
        o.put("setup_s", 0.3, "s");
        select(&mut o, false).unwrap();
        let names: Vec<&str> = o.metrics.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(names, ["setup_s", "peak_heap_mb", "op_ms"]);
        assert_eq!(o.notes.len(), 1);
    }

    #[test]
    fn absent_layer_counts_read_zero() {
        let mut o = Outcome::default();
        o.put("data.generate_s", 0.2, "s");
        select(&mut o, true).unwrap();
        assert_eq!(o.metrics.len(), per_layer().len());
        assert!(o.metrics[1..].iter().all(|m| m.1 == 0.0));
        let mut o = Outcome::default();
        assert!(select(&mut o, true).is_err());
    }
}
