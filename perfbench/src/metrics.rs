//! The benchmark's metrics: names, units, summary statistics and the
//! one-line JSON result.

use std::collections::BTreeMap;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Measured with tracing off, on every workload. Host times are scaled to
/// the nominal host by the reference workload (see `reference.rs`).
pub const END_TO_END: &[Metric] = &[
    m("wall_s", "s"),
    m("setup_s", "s"),
    m("sim_kcycles_per_s", "kcycles/s"),
    m("peak_rss_mb", "MiB"),
    m("sim_ipc_gmean", "insn/cycle"),
    m("wgw_ipc_gain", "ratio"),
];

/// The host times as measured, before scaling, and the reference
/// workload's time: printed in the report, not in the result line.
pub const RAW: &[Metric] = &[
    m("host_wall_s", "s"),
    m("host_setup_s", "s"),
    m("host_sim_kcycles_per_s", "kcycles/s"),
    m("ref_s", "s"),
];

/// From the traced run, on every workload; 0 where the workload does not
/// exercise the layer or the trace does not split it.
pub const PER_LAYER: &[Metric] = &[
    m("workloads.gen_s", "s"),
    m("workloads.kernels", "count"),
    m("sim.new_s", "s"),
    m("gpu.sm.self_s", "s"),
    m("gpu.sm.calls", "count"),
    m("gpu.sm.insns", "count"),
    m("gpu.sm.reqs_out", "count"),
    m("gpu.sm.l1_hit_rate", "ratio"),
    m("gpu.coalescer.ns_per_load", "ns"),
    m("gpu.coalescer.lines_per_load", "lines"),
    m("gpu.xbar.req.self_s", "s"),
    m("gpu.xbar.resp.self_s", "s"),
    m("gpu.xbar.req.delivered", "count"),
    m("gpu.xbar.req.deliver_yield", "ratio"),
    m("gpu.xbar.inject_failed", "count"),
    m("partition.self_s", "s"),
    m("partition.l2_hit_rate", "ratio"),
    m("partition.input_full_frac", "ratio"),
    m("memctrl.self_s", "s"),
    m("memctrl.dram_reads", "count"),
    m("memctrl.dram_writes", "count"),
    m("memctrl.drain_cycles", "cycles"),
    m("memctrl.read_latency_cyc", "cycles"),
    m("policy.pick_s", "s"),
    m("policy.pick_calls", "count"),
    m("policy.pick_yield", "ratio"),
    m("policy.other_s", "s"),
    m("coord.self_s", "s"),
    m("coord.msgs", "count"),
    m("hub.next_event_s", "s"),
    m("hub.skip_s", "s"),
    m("hub.skipped_frac", "ratio"),
    m("runner.cells", "count"),
    m("runner.cell_s.p50", "s"),
    m("runner.cell_s.p90", "s"),
    m("par.busy_frac", "ratio"),
    m("par.tail_s", "s"),
    m("sweep.key_s", "s"),
    m("sweep.cells_unique", "count"),
    m("store.append_s", "s"),
    m("store.load_s", "s"),
    m("store.rows", "count"),
    m("store.bytes", "bytes"),
    m("store.skipped_rows", "count"),
    m("store.hit_ratio", "ratio"),
    m("render_s", "s"),
    m("trace.unattributed_s", "s"),
    m("trace.overhead", "ratio"),
];

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs` (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest whole percentile with at least ten samples above it, as
/// `(percentile, value)`; `None` with ten samples or fewer.
pub fn tail_percentile(xs: &[f64]) -> Option<(u32, f64)> {
    let n = xs.len();
    if n <= 10 {
        return None;
    }
    let p = (100 * (n - 10) / n) as u32;
    Some((p, quantile(xs, p as f64 / 100.0)))
}

pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The result line: `correct`, `attempted`, `failed`, and each metric of
/// `defs` with its unit, in `defs` order. A value that was never measured
/// prints as 0.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[Metric],
    values: &BTreeMap<&str, f64>,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values.get(d.name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn every_metric_is_well_named_with_a_unit_and_unique() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(RAW).chain(PER_LAYER).collect();
        for d in &all {
            assert!(name_ok(d.name), "bad metric name {:?}", d.name);
            assert!(unit_ok(d.unit), "bad unit {:?} for {}", d.unit, d.name);
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
    }

    /// `(name, unit)` of every metric entry in a BENCHMARK.json section.
    fn declared(json: &str, section: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |entry: &str, key: &str| -> String {
            let at = entry.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
            let rest = &entry[at..];
            let open = rest.find('"').expect("string value") + 1;
            let close = open + rest[open..].find('"').expect("string closes");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<(String, String)> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(declared(&json, section), want, "{section}");
        }
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut v = BTreeMap::new();
        v.insert("wall_s", 1.25);
        let line = result_json(true, 3, 0, END_TO_END, &v);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        assert!(line.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        for d in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{", d.name)));
        }
    }

    #[test]
    fn statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert!(tail_percentile(&[1.0; 10]).is_none());
        let xs: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs).map(|t| t.0), Some(50));
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
