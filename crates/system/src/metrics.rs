//! Run-level metrics: everything the paper's evaluation section plots.

use ldsim_gpu::sm::LoadRecord;
use ldsim_types::clock::Cycle;
use ldsim_types::stats::Histogram;
use ldsim_util::json::JsonObject;

/// The full per-run distributions behind the `RunResult` percentiles,
/// collected when [`SimConfig::hist`](ldsim_types::config::SimConfig) is
/// armed (the DRAM-gap and effective-latency pair is always recorded at
/// collection time, so those two are populated regardless).
///
/// Derives `PartialEq`: the bit-exactness suites compare whole
/// [`RunResult`]s, so an armed histogram that diverged between the
/// fast-forward and reference loops fails the same assertion as any
/// counter.
#[derive(Debug, Clone, PartialEq)]
pub struct RunHists {
    /// (last - first) DRAM service gap per load with >= 2 DRAM responses.
    pub dram_gap: Histogram,
    /// Issue-to-last-response latency per load that reached DRAM.
    pub effective_latency: Histogram,
    /// Per-bank command-queue depth at every transaction enqueue.
    pub bank_queue_depth: Histogram,
    /// Row-hit streak length (bursts per activate) at every row closure.
    pub row_hit_streak: Histogram,
    /// Busy-bank count at every successful read pick (the MERB view).
    pub merb_occupancy: Histogram,
    /// Controller read-queue depth on the 512-cycle sampling cadence.
    pub read_queue_depth: Histogram,
}

impl RunHists {
    pub fn new() -> Self {
        Self {
            dram_gap: Histogram::latency(),
            effective_latency: Histogram::latency(),
            bank_queue_depth: Histogram::latency(),
            row_hit_streak: Histogram::latency(),
            merb_occupancy: Histogram::latency(),
            read_queue_depth: Histogram::latency(),
        }
    }

    /// Every distribution with its export name, in a stable order.
    pub fn iter_named(&self) -> [(&'static str, &Histogram); 6] {
        [
            ("dram_gap", &self.dram_gap),
            ("effective_latency", &self.effective_latency),
            ("bank_queue_depth", &self.bank_queue_depth),
            ("row_hit_streak", &self.row_hit_streak),
            ("merb_occupancy", &self.merb_occupancy),
            ("read_queue_depth", &self.read_queue_depth),
        ]
    }

    /// [`Self::iter_named`] with mutable histograms, same order — for
    /// cross-run aggregation via [`Histogram::merge`].
    pub fn iter_named_mut(&mut self) -> [(&'static str, &mut Histogram); 6] {
        [
            ("dram_gap", &mut self.dram_gap),
            ("effective_latency", &mut self.effective_latency),
            ("bank_queue_depth", &mut self.bank_queue_depth),
            ("row_hit_streak", &mut self.row_hit_streak),
            ("merb_occupancy", &mut self.merb_occupancy),
            ("read_queue_depth", &mut self.read_queue_depth),
        ]
    }
}

impl Default for RunHists {
    fn default() -> Self {
        Self::new()
    }
}

/// The result of one full-system simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResult {
    pub benchmark: String,
    pub scheduler: String,
    /// Did every warp retire before the cycle limit?
    pub finished: bool,
    pub cycles: Cycle,
    pub instructions: u64,

    // ---- Fig. 2: coalescing efficiency ----
    pub loads: u64,
    /// Loads producing >1 request after coalescing.
    pub divergent_loads: u64,
    /// Mean requests per load after coalescing.
    pub avg_reqs_per_load: f64,

    // ---- Fig. 3 / Fig. 10: DRAM latency divergence ----
    /// Mean (last - first) DRAM service gap, over loads with >= 2 DRAM
    /// responses.
    pub avg_dram_gap: f64,
    /// Mean last-request latency / first-request latency ratio.
    pub last_first_ratio: f64,
    /// Mean distinct memory controllers touched per (divergent) load.
    pub avg_channels_touched: f64,
    /// Mean distinct (channel, bank) pairs touched per divergent load.
    pub avg_banks_touched: f64,
    /// Fraction of a warp's requests sharing a DRAM row with another.
    pub same_row_frac: f64,

    // ---- Fig. 9: effective memory latency ----
    /// Mean issue-to-last-response latency over loads that reached DRAM.
    pub avg_effective_latency: f64,

    // ---- tail percentiles (always populated; see `RunHists`) ----
    /// p50/p90/p99 of the per-load DRAM service gap, in cycles. Exact
    /// `Histogram::quantile` semantics: 0 when no load had >= 2 DRAM
    /// responses.
    pub gap_p50: u64,
    pub gap_p90: u64,
    pub gap_p99: u64,
    /// p50/p90/p99 of the per-load effective latency, in cycles.
    pub eff_p50: u64,
    pub eff_p90: u64,
    pub eff_p99: u64,

    // ---- Fig. 11 and Section VI-B ----
    /// DRAM data-bus utilisation (busy cycles / total cycles, averaged over
    /// channels).
    pub bw_utilization: f64,
    pub row_hit_rate: f64,
    /// Estimated DRAM power (W, summed over channels).
    pub dram_power_w: f64,

    // ---- Fig. 12: write drains ----
    /// Writes / (reads + writes) at DRAM.
    pub write_intensity: f64,
    pub drains: u64,
    pub drain_stalled_groups: u64,
    pub drain_stalled_unit: u64,
    pub drain_stalled_orphan: u64,

    // ---- cache behaviour ----
    pub l1_hit_rate: f64,
    pub l2_hit_rate: f64,
    /// Total DRAM reads / writes serviced.
    pub dram_reads: u64,
    pub dram_writes: u64,
    /// Fraction of cycles SMs spent with the issue port busy on compute.
    pub sm_port_busy_frac: f64,
    /// Fraction of cycles SMs spent idle with every warp blocked on memory
    /// (the paper's "SIMD core sits idle" statistic).
    pub sm_mem_idle_frac: f64,
    /// Warp-aware policy counters summed over controllers:
    /// [groups selected, MERB substitutions, WG-W priority grants,
    /// coordination caps applied]. The last counts every time a WG-M
    /// remote cap lowered the score of a group being scored for selection
    /// or bypass, including in picks that returned nothing.
    pub policy_counters: [u64; 4],

    // ---- conformance / conservation / reproducibility ----
    /// DRAM commands re-validated by the [`ldsim_gddr5::TimingAuditor`]
    /// (0 when auditing is disabled).
    pub audit_commands: u64,
    /// Protocol violations the auditor flagged (0 when disabled — check
    /// `audit_commands` to distinguish "clean" from "not audited").
    pub audit_violations: u64,
    /// Read requests delivered to memory partitions.
    pub mem_read_requests: u64,
    /// Read responses delivered back to SMs. Conservation demands equality
    /// with `mem_read_requests` on finished runs: every read delivered to a
    /// partition yields exactly one SM response (L2 hit, MSHR merge, or
    /// DRAM fill) — an inequality means a request was lost or duplicated.
    pub mem_read_responses: u64,
    /// Requests dropped by a failed crossbar injection. Always zero in a
    /// healthy run; a non-zero value is a hard error (the runner panics on
    /// it) — a lost request silently deadlocks its warp otherwise.
    pub dropped_requests: u64,
    /// Stable FNV-1a digest of the event trace (None when tracing is off).
    pub trace_hash: Option<u64>,
    /// Full distributions behind the percentile fields (None unless
    /// `SimConfig::hist` armed them; boxed to keep `RunResult` small).
    pub hists: Option<Box<RunHists>>,
}

impl RunResult {
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Fraction of loads that are divergent (Fig. 2's black bar).
    pub fn divergent_frac(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.divergent_loads as f64 / self.loads as f64
        }
    }

    /// Fraction of drain-stalled warp-groups that were unit-sized or
    /// orphaned (Fig. 12's second series).
    pub fn drain_unit_orphan_frac(&self) -> f64 {
        if self.drain_stalled_groups == 0 {
            0.0
        } else {
            (self.drain_stalled_unit + self.drain_stalled_orphan) as f64
                / self.drain_stalled_groups as f64
        }
    }

    /// Did every read delivered to a memory partition produce exactly one
    /// SM response? (Only meaningful on finished runs — a run cut off by
    /// the cycle limit legitimately has responses still in flight.)
    pub fn conserves_requests(&self) -> bool {
        self.mem_read_requests == self.mem_read_responses
    }

    /// Serialize as one flat JSON object (the bench binaries' dump format).
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .str("benchmark", &self.benchmark)
            .str("scheduler", &self.scheduler)
            .bool("finished", self.finished)
            .u64("cycles", self.cycles)
            .u64("instructions", self.instructions)
            .f64("ipc", self.ipc())
            .u64("loads", self.loads)
            .u64("divergent_loads", self.divergent_loads)
            .f64("avg_reqs_per_load", self.avg_reqs_per_load)
            .f64("avg_dram_gap", self.avg_dram_gap)
            .f64("last_first_ratio", self.last_first_ratio)
            .f64("avg_channels_touched", self.avg_channels_touched)
            .f64("avg_banks_touched", self.avg_banks_touched)
            .f64("same_row_frac", self.same_row_frac)
            .f64("avg_effective_latency", self.avg_effective_latency)
            .u64("gap_p50", self.gap_p50)
            .u64("gap_p90", self.gap_p90)
            .u64("gap_p99", self.gap_p99)
            .u64("eff_p50", self.eff_p50)
            .u64("eff_p90", self.eff_p90)
            .u64("eff_p99", self.eff_p99)
            .f64("bw_utilization", self.bw_utilization)
            .f64("row_hit_rate", self.row_hit_rate)
            .f64("dram_power_w", self.dram_power_w)
            .f64("write_intensity", self.write_intensity)
            .u64("drains", self.drains)
            .u64("drain_stalled_groups", self.drain_stalled_groups)
            .u64("drain_stalled_unit", self.drain_stalled_unit)
            .u64("drain_stalled_orphan", self.drain_stalled_orphan)
            .f64("l1_hit_rate", self.l1_hit_rate)
            .f64("l2_hit_rate", self.l2_hit_rate)
            .u64("dram_reads", self.dram_reads)
            .u64("dram_writes", self.dram_writes)
            .f64("sm_port_busy_frac", self.sm_port_busy_frac)
            .f64("sm_mem_idle_frac", self.sm_mem_idle_frac)
            .u64_array("policy_counters", &self.policy_counters)
            .u64("audit_commands", self.audit_commands)
            .u64("audit_violations", self.audit_violations)
            .u64("mem_read_requests", self.mem_read_requests)
            .u64("mem_read_responses", self.mem_read_responses)
            .u64("dropped_requests", self.dropped_requests)
            .opt_u64("trace_hash", self.trace_hash)
            .build()
    }

    /// Parse a flat JSON row produced by [`Self::to_json`] back into a
    /// `RunResult` — the load half of the sweep orchestrator's cell cache.
    ///
    /// Exact by construction: integers never round through `f64`, and
    /// floats re-parse to the identical bit pattern (shortest-roundtrip
    /// formatting), so `from_json(to_json(r)).to_json() == to_json(r)`
    /// byte-for-byte. Extra fields (the cache's key/engine metadata, the
    /// derived `ipc`) are ignored; a *missing* field is an error — a cache
    /// row from an older schema must be treated as absent, not zero-filled.
    /// `hists` do not round-trip (`None` after parsing): cached cells are
    /// unarmed by contract (the orchestrator refuses to cache armed runs).
    pub fn from_json(row: &str) -> Result<RunResult, String> {
        let p = ldsim_util::parse_object(row)?;
        let counters = p
            .get("policy_counters")
            .and_then(|v| v.as_arr())
            .ok_or_else(|| "missing or non-array field 'policy_counters'".to_string())?;
        if counters.len() != 4 {
            return Err(format!("policy_counters has {} entries", counters.len()));
        }
        let mut policy_counters = [0u64; 4];
        for (dst, v) in policy_counters.iter_mut().zip(counters) {
            *dst = v
                .as_u64()
                .ok_or_else(|| "non-u64 entry in 'policy_counters'".to_string())?;
        }
        let trace_hash = match p.get("trace_hash") {
            Some(ldsim_util::JsonValue::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| "non-u64 field 'trace_hash'".to_string())?,
            ),
            None => return Err("missing field 'trace_hash'".into()),
        };
        Ok(RunResult {
            benchmark: p.req_str("benchmark")?.to_string(),
            scheduler: p.req_str("scheduler")?.to_string(),
            finished: p.req_bool("finished")?,
            cycles: p.req_u64("cycles")?,
            instructions: p.req_u64("instructions")?,
            loads: p.req_u64("loads")?,
            divergent_loads: p.req_u64("divergent_loads")?,
            avg_reqs_per_load: p.req_f64("avg_reqs_per_load")?,
            avg_dram_gap: p.req_f64("avg_dram_gap")?,
            last_first_ratio: p.req_f64("last_first_ratio")?,
            avg_channels_touched: p.req_f64("avg_channels_touched")?,
            avg_banks_touched: p.req_f64("avg_banks_touched")?,
            same_row_frac: p.req_f64("same_row_frac")?,
            avg_effective_latency: p.req_f64("avg_effective_latency")?,
            gap_p50: p.req_u64("gap_p50")?,
            gap_p90: p.req_u64("gap_p90")?,
            gap_p99: p.req_u64("gap_p99")?,
            eff_p50: p.req_u64("eff_p50")?,
            eff_p90: p.req_u64("eff_p90")?,
            eff_p99: p.req_u64("eff_p99")?,
            bw_utilization: p.req_f64("bw_utilization")?,
            row_hit_rate: p.req_f64("row_hit_rate")?,
            dram_power_w: p.req_f64("dram_power_w")?,
            write_intensity: p.req_f64("write_intensity")?,
            drains: p.req_u64("drains")?,
            drain_stalled_groups: p.req_u64("drain_stalled_groups")?,
            drain_stalled_unit: p.req_u64("drain_stalled_unit")?,
            drain_stalled_orphan: p.req_u64("drain_stalled_orphan")?,
            l1_hit_rate: p.req_f64("l1_hit_rate")?,
            l2_hit_rate: p.req_f64("l2_hit_rate")?,
            dram_reads: p.req_u64("dram_reads")?,
            dram_writes: p.req_u64("dram_writes")?,
            sm_port_busy_frac: p.req_f64("sm_port_busy_frac")?,
            sm_mem_idle_frac: p.req_f64("sm_mem_idle_frac")?,
            policy_counters,
            audit_commands: p.req_u64("audit_commands")?,
            audit_violations: p.req_u64("audit_violations")?,
            mem_read_requests: p.req_u64("mem_read_requests")?,
            mem_read_responses: p.req_u64("mem_read_responses")?,
            dropped_requests: p.req_u64("dropped_requests")?,
            trace_hash,
            hists: None,
        })
    }
}

/// Aggregate per-load records into the divergence metrics.
pub(crate) struct LoadAgg {
    pub loads: u64,
    pub divergent: u64,
    pub total_coalesced: u64,
    pub gap_sum: f64,
    pub gap_cnt: u64,
    pub ratio_sum: f64,
    pub ratio_cnt: u64,
    pub eff_sum: f64,
    pub eff_cnt: u64,
    pub ch_sum: f64,
    pub bank_sum: f64,
    pub spread_cnt: u64,
    pub same_row_num: u64,
    pub same_row_den: u64,
    /// Distribution counterparts of gap_sum/eff_sum, feeding the always-on
    /// `RunResult` percentile fields. Built from the same records at
    /// collection time, so they cannot perturb the simulation.
    pub gap_hist: Histogram,
    pub eff_hist: Histogram,
}

impl LoadAgg {
    pub fn new() -> Self {
        Self {
            loads: 0,
            divergent: 0,
            total_coalesced: 0,
            gap_sum: 0.0,
            gap_cnt: 0,
            ratio_sum: 0.0,
            ratio_cnt: 0,
            eff_sum: 0.0,
            eff_cnt: 0,
            ch_sum: 0.0,
            bank_sum: 0.0,
            spread_cnt: 0,
            same_row_num: 0,
            same_row_den: 0,
            gap_hist: Histogram::latency(),
            eff_hist: Histogram::latency(),
        }
    }

    pub fn add(&mut self, r: &LoadRecord) {
        self.loads += 1;
        self.total_coalesced += r.coalesced as u64;
        if r.coalesced > 1 {
            self.divergent += 1;
        }
        if r.dram_responses >= 1 {
            self.eff_sum += r.effective_latency() as f64;
            self.eff_cnt += 1;
            self.eff_hist.add(r.effective_latency());
        }
        if r.dram_responses >= 2 {
            self.gap_sum += r.dram_gap() as f64;
            self.gap_cnt += 1;
            self.gap_hist.add(r.dram_gap());
            // A load whose first response lands on its issue cycle (an L2
            // fill racing the issue) would divide by zero; floor the first
            // latency at one cycle so every gap-counted load contributes to
            // the ratio too (ratio_cnt == gap_cnt by construction).
            let first = (r.first_dram.saturating_sub(r.issue) as f64).max(1.0);
            let last = r.last_dram.saturating_sub(r.issue) as f64;
            self.ratio_sum += last / first;
            self.ratio_cnt += 1;
        }
        if r.mem_reqs >= 2 {
            self.ch_sum += r.channels_touched as f64;
            self.bank_sum += r.banks_touched as f64;
            self.spread_cnt += 1;
            self.same_row_num += r.same_row_reqs as u64;
            self.same_row_den += r.mem_reqs as u64;
        }
    }
}

fn ratio(n: f64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n / d as f64
    }
}

impl LoadAgg {
    pub fn avg_reqs_per_load(&self) -> f64 {
        ratio(self.total_coalesced as f64, self.loads)
    }
    pub fn avg_gap(&self) -> f64 {
        ratio(self.gap_sum, self.gap_cnt)
    }
    pub fn avg_ratio(&self) -> f64 {
        ratio(self.ratio_sum, self.ratio_cnt)
    }
    pub fn avg_eff(&self) -> f64 {
        ratio(self.eff_sum, self.eff_cnt)
    }
    pub fn avg_channels(&self) -> f64 {
        ratio(self.ch_sum, self.spread_cnt)
    }
    pub fn avg_banks(&self) -> f64 {
        ratio(self.bank_sum, self.spread_cnt)
    }
    pub fn same_row_frac(&self) -> f64 {
        ratio(self.same_row_num as f64, self.same_row_den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(coalesced: u32, mem: u32, dram: u32, first: Cycle, last: Cycle) -> LoadRecord {
        LoadRecord {
            coalesced,
            mem_reqs: mem,
            dram_responses: dram,
            issue: 100,
            complete: last.max(100),
            first_dram: first,
            last_dram: last,
            channels_touched: 2,
            banks_touched: 3,
            same_row_reqs: 1,
            ..Default::default()
        }
    }

    #[test]
    fn aggregation_counts_divergence() {
        let mut a = LoadAgg::new();
        a.add(&rec(1, 0, 0, 0, 0));
        a.add(&rec(4, 4, 4, 200, 500));
        assert_eq!(a.loads, 2);
        assert_eq!(a.divergent, 1);
        assert!((a.avg_reqs_per_load() - 2.5).abs() < 1e-9);
        assert!((a.avg_gap() - 300.0).abs() < 1e-9);
        // ratio = (500-100)/(200-100) = 4
        assert!((a.avg_ratio() - 4.0).abs() < 1e-9);
        assert!((a.avg_channels() - 2.0).abs() < 1e-9);
        assert!((a.same_row_frac() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn empty_agg_is_zero() {
        let a = LoadAgg::new();
        assert_eq!(a.avg_gap(), 0.0);
        assert_eq!(a.avg_reqs_per_load(), 0.0);
        assert!(a.gap_hist.is_empty() && a.eff_hist.is_empty());
    }

    #[test]
    fn ratio_counts_every_gap_counted_load() {
        // Regression: a first response landing on the issue cycle used to be
        // dropped from last_first_ratio entirely, skewing it. With the
        // one-cycle floor it contributes last/1.
        let mut a = LoadAgg::new();
        a.add(&rec(4, 4, 4, 100, 500)); // first == issue
        a.add(&rec(4, 4, 4, 200, 500));
        assert_eq!(a.gap_cnt, 2);
        assert_eq!(
            a.ratio_cnt, a.gap_cnt,
            "every load with a gap must contribute a ratio"
        );
        // (500-100)/1 + (500-100)/(200-100), averaged.
        assert!((a.avg_ratio() - (400.0 + 4.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn agg_histograms_track_gap_and_effective_latency() {
        let mut a = LoadAgg::new();
        a.add(&rec(1, 0, 0, 0, 0)); // never reached DRAM: not recorded
        a.add(&rec(4, 4, 4, 200, 500));
        a.add(&rec(4, 4, 2, 150, 350));
        assert_eq!(a.gap_hist.total(), 2);
        assert_eq!(a.eff_hist.total(), 2);
        // Gaps are 300 and 200; effective latencies 400 and 250 (vs issue
        // 100). Exact min/max survive the bucketing.
        assert_eq!(a.gap_hist.quantile(1.0), 300);
        assert_eq!(a.gap_hist.quantile(0.0), 200);
        assert_eq!(a.eff_hist.quantile(1.0), 400);
    }

    #[test]
    fn run_hists_named_iteration_is_stable() {
        let h = RunHists::new();
        let names: Vec<&str> = h.iter_named().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "dram_gap",
                "effective_latency",
                "bank_queue_depth",
                "row_hit_streak",
                "merb_occupancy",
                "read_queue_depth"
            ]
        );
        assert_eq!(RunHists::default(), h);
    }

    #[test]
    fn run_result_ipc() {
        let r = RunResult {
            benchmark: "x".into(),
            scheduler: "GMC".into(),
            finished: true,
            cycles: 100,
            instructions: 250,
            loads: 10,
            divergent_loads: 5,
            avg_reqs_per_load: 2.0,
            avg_dram_gap: 0.0,
            last_first_ratio: 1.0,
            avg_channels_touched: 2.0,
            avg_banks_touched: 2.0,
            same_row_frac: 0.3,
            avg_effective_latency: 500.0,
            gap_p50: 100,
            gap_p90: 300,
            gap_p99: 600,
            eff_p50: 400,
            eff_p90: 700,
            eff_p99: 900,
            bw_utilization: 0.5,
            row_hit_rate: 0.6,
            dram_power_w: 10.0,
            write_intensity: 0.2,
            drains: 1,
            drain_stalled_groups: 4,
            drain_stalled_unit: 1,
            drain_stalled_orphan: 1,
            l1_hit_rate: 0.2,
            l2_hit_rate: 0.3,
            dram_reads: 100,
            dram_writes: 20,
            sm_port_busy_frac: 0.5,
            sm_mem_idle_frac: 0.1,
            policy_counters: [0; 4],
            audit_commands: 0,
            audit_violations: 0,
            mem_read_requests: 80,
            mem_read_responses: 80,
            dropped_requests: 0,
            trace_hash: Some(42),
            hists: None,
        };
        assert!((r.ipc() - 2.5).abs() < 1e-9);
        assert!((r.divergent_frac() - 0.5).abs() < 1e-9);
        assert!((r.drain_unit_orphan_frac() - 0.5).abs() < 1e-9);
        assert!(r.conserves_requests());
    }

    #[test]
    fn json_round_trips_key_fields() {
        let r = RunResult {
            benchmark: "spmv".into(),
            scheduler: "WG-W".into(),
            finished: true,
            cycles: 1000,
            instructions: 4000,
            trace_hash: Some(0xDEAD),
            ..Default::default()
        };
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"benchmark\":\"spmv\""));
        assert!(j.contains("\"scheduler\":\"WG-W\""));
        assert!(j.contains("\"cycles\":1000"));
        assert!(j.contains("\"ipc\":4"));
        assert!(j.contains(&format!("\"trace_hash\":{}", 0xDEAD)));
        let off = RunResult::default().to_json();
        assert!(off.contains("\"trace_hash\":null"));
    }

    #[test]
    fn from_json_round_trips_byte_exactly() {
        let r = RunResult {
            benchmark: "spmv".into(),
            scheduler: "WG-W".into(),
            finished: true,
            cycles: 123_456_789,
            instructions: 4000,
            avg_reqs_per_load: 0.1 + 0.2, // not exactly representable
            avg_dram_gap: 317.123456789,
            policy_counters: [1, 2, 3, u64::MAX],
            trace_hash: Some(0xcbf2_9ce4_8422_2325), // > 2^53: f64 would corrupt it
            ..Default::default()
        };
        let j = r.to_json();
        let back = RunResult::from_json(&j).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json(), j, "re-serialisation must be byte-exact");
        // Extra fields (cache metadata, provenance stamps) are ignored.
        let stamped = format!("{{\"figure\":\"figX\",{}", &j[1..]);
        assert_eq!(RunResult::from_json(&stamped).unwrap(), r);
        // None trace hash round-trips too.
        let none = RunResult::default();
        assert_eq!(
            RunResult::from_json(&none.to_json()).unwrap().to_json(),
            none.to_json()
        );
    }

    #[test]
    fn from_json_rejects_missing_fields_and_garbage() {
        let j = RunResult::default().to_json();
        let truncated = &j[..j.len() / 2];
        assert!(RunResult::from_json(truncated).is_err());
        assert!(RunResult::from_json("{}").unwrap_err().contains('\''));
        let wrong = j.replace("\"cycles\":0", "\"cycles\":\"zero\"");
        assert!(RunResult::from_json(&wrong).unwrap_err().contains("cycles"));
    }

    #[test]
    fn conservation_detects_loss_and_duplication() {
        let mut r = RunResult {
            mem_read_requests: 10,
            mem_read_responses: 10,
            ..Default::default()
        };
        assert!(r.conserves_requests());
        r.mem_read_responses = 9; // lost
        assert!(!r.conserves_requests());
        r.mem_read_responses = 11; // duplicated
        assert!(!r.conserves_requests());
    }
}
