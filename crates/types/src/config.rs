//! System configuration.
//!
//! Defaults reproduce Table II of the paper: a GTX-480-class GPU with 30
//! compute units, 6 GDDR5 channels, Hynix H5GQ1H24AFR-style timing.

use crate::clock::{ClockDomain, Cycle};

/// GDDR5 timing parameters, stored in nanoseconds as the datasheet (and
/// Table II) specify them. Cycle counts are derived via [`TimingParams::in_cycles`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimingParams {
    pub t_rc_ns: f64,
    pub t_rcd_ns: f64,
    pub t_rp_ns: f64,
    pub t_cas_ns: f64,
    pub t_ras_ns: f64,
    pub t_rrd_ns: f64,
    pub t_wtr_ns: f64,
    pub t_faw_ns: f64,
    pub t_rtp_ns: f64,
    /// Write latency in whole command clocks (Table II: 4 tCK).
    pub t_wl_ck: Cycle,
    /// Data burst occupancy in command clocks (Table II: 2 tCK).
    pub t_burst_ck: Cycle,
    /// Rank-to-rank switch (Table II: 1 tCK; we model a single rank so this
    /// only matters for read->write bus turnaround modelling).
    pub t_rtrs_ck: Cycle,
    /// Column-to-column, same bank group (Table II: 3 tCK).
    pub t_ccdl_ck: Cycle,
    /// Column-to-column, different bank group (Table II: 2 tCK).
    pub t_ccds_ck: Cycle,
    /// Write recovery before precharge (GDDR5 datasheet; not in Table II —
    /// 12 ns is the Hynix H5GQ1H24AFR value).
    pub t_wr_ns: f64,
    /// Average refresh interval (GDDR5 datasheet: 1.9 us for 1 Gb parts).
    pub t_refi_ns: f64,
    /// All-bank refresh cycle time (datasheet: ~110 ns at this density).
    pub t_rfc_ns: f64,
}

impl Default for TimingParams {
    fn default() -> Self {
        Self {
            t_rc_ns: 40.0,
            t_rcd_ns: 12.0,
            t_rp_ns: 12.0,
            t_cas_ns: 12.0,
            t_ras_ns: 28.0,
            t_rrd_ns: 5.5,
            t_wtr_ns: 5.0,
            t_faw_ns: 23.0,
            t_rtp_ns: 2.0,
            t_wl_ck: 4,
            t_burst_ck: 2,
            t_rtrs_ck: 1,
            t_ccdl_ck: 3,
            t_ccds_ck: 2,
            t_wr_ns: 12.0,
            t_refi_ns: 1900.0,
            t_rfc_ns: 110.0,
        }
    }
}

/// All GDDR5 timing constraints pre-converted to command-clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingCycles {
    pub t_rc: Cycle,
    pub t_rcd: Cycle,
    pub t_rp: Cycle,
    pub t_cas: Cycle,
    pub t_ras: Cycle,
    pub t_rrd: Cycle,
    pub t_wtr: Cycle,
    pub t_faw: Cycle,
    pub t_rtp: Cycle,
    pub t_wl: Cycle,
    pub t_burst: Cycle,
    pub t_rtrs: Cycle,
    pub t_ccdl: Cycle,
    pub t_ccds: Cycle,
    pub t_wr: Cycle,
    pub t_refi: Cycle,
    pub t_rfc: Cycle,
}

impl TimingParams {
    /// Convert to whole cycles in the given clock domain (rounding
    /// constraints *up*, since they are minimum delays).
    pub fn in_cycles(&self, clk: ClockDomain) -> TimingCycles {
        TimingCycles {
            t_rc: clk.ns_to_cycles(self.t_rc_ns),
            t_rcd: clk.ns_to_cycles(self.t_rcd_ns),
            t_rp: clk.ns_to_cycles(self.t_rp_ns),
            t_cas: clk.ns_to_cycles(self.t_cas_ns),
            t_ras: clk.ns_to_cycles(self.t_ras_ns),
            t_rrd: clk.ns_to_cycles(self.t_rrd_ns),
            t_wtr: clk.ns_to_cycles(self.t_wtr_ns),
            t_faw: clk.ns_to_cycles(self.t_faw_ns),
            t_rtp: clk.ns_to_cycles(self.t_rtp_ns),
            t_wl: self.t_wl_ck,
            t_burst: self.t_burst_ck,
            t_rtrs: self.t_rtrs_ck,
            t_ccdl: self.t_ccdl_ck,
            t_ccds: self.t_ccds_ck,
            t_wr: clk.ns_to_cycles(self.t_wr_ns),
            t_refi: clk.ns_to_cycles(self.t_refi_ns),
            t_rfc: clk.ns_to_cycles(self.t_rfc_ns),
        }
    }
}

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    pub size_bytes: usize,
    pub line_bytes: usize,
    pub ways: usize,
    /// Number of MSHR entries (outstanding distinct miss lines).
    pub mshr_entries: usize,
    /// Hit / lookup latency in cycles.
    pub latency: Cycle,
}

impl CacheConfig {
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.ways)
    }
}

/// GPU-core-side configuration (Table II, "GPU System Configuration").
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of compute units (SMs). Table II: 30.
    pub num_sms: usize,
    pub l1: CacheConfig,
    pub l2_slice: CacheConfig,
    /// One-way crossbar pipeline latency, cycles. At least 1: it is the
    /// simulator's epoch lookahead (`Simulator::new` rejects 0).
    pub xbar_latency: Cycle,
    /// Per-SM injection queue capacity (requests).
    pub xbar_queue: usize,
    /// Bypass the L2 slices: reads never probe or fill the cache (MSHR
    /// merging still applies), stores go straight to the DRAM write queue.
    /// Models `ld.global.cg`-style cache-bypassed access for the
    /// calibration microbenchmarks; off for every paper figure.
    pub l2_bypass: bool,
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self {
            num_sms: 30,
            l1: CacheConfig {
                size_bytes: 32 * 1024,
                line_bytes: 128,
                ways: 8,
                mshr_entries: 32,
                latency: 1,
            },
            l2_slice: CacheConfig {
                size_bytes: 128 * 1024,
                line_bytes: 128,
                ways: 16,
                mshr_entries: 96,
                latency: 24,
            },
            xbar_latency: 40,
            xbar_queue: 8,
            l2_bypass: false,
        }
    }
}

/// Memory-system configuration (Table II, DRAM side).
#[derive(Debug, Clone, PartialEq)]
pub struct MemConfig {
    /// Number of independent GDDR5 channels / memory partitions. Table II: 6.
    pub num_channels: usize,
    /// Banks per channel (2 x32 chips in tandem = one rank of 16 banks).
    pub banks_per_channel: usize,
    /// Banks per bank group (Table II: 4).
    pub banks_per_group: usize,
    /// Row buffer size in bytes per bank (2 KB => 16 x 128 B lines).
    pub row_bytes: usize,
    /// Read queue capacity per controller. Table II: 64.
    pub read_queue: usize,
    /// Write queue capacity per controller. Table II: 64.
    pub write_queue: usize,
    /// Write drain high watermark. Table II: 32.
    pub write_hi: usize,
    /// Write drain low watermark. Table II: 16.
    pub write_lo: usize,
    /// GDDR5 timing.
    pub timing: TimingParams,
    /// Latency of one hop on the inter-controller coordination network used
    /// by WG-M (Section IV-C): serialisation of a 32-bit message over 16-bit
    /// links (2 cycles) plus propagation. At least 1: it bounds the
    /// simulator's epoch lookahead (`Simulator::new` rejects 0).
    pub coord_latency: Cycle,
    /// GMC baseline: maximum row-hit streak before yielding (Section II-C).
    pub gmc_max_streak: usize,
    /// GMC baseline: age threshold (cycles) above which a row-miss is
    /// force-prioritised to prevent starvation.
    pub gmc_age_threshold: Cycle,
    /// WG-W: how close (entries) to the high watermark the write queue must
    /// be before unit warp-groups are prioritised (Section IV-E: 8).
    pub wgw_margin: usize,
    /// Data-bus bursts per 128 B cache-line access: a 64-bit GDDR5 channel
    /// moves 64 B per BL8 burst (tBURST = 2 tCK), so a line is 2 bursts —
    /// matching the paper's utilisation formula, which counts multiple
    /// bursts per activate even for a single line.
    pub bursts_per_access: u64,
    /// Row-buffer management policy. The paper's GMC (and all its
    /// schedulers) assume open-page; closed-page (auto-precharge after
    /// every column access) is provided for the ablation harness.
    pub page_policy: PagePolicy,
    /// Model periodic all-bank refresh (tREFI/tRFC). On by default; the
    /// ablation harness can disable it to quantify its ~4-6% cost.
    pub refresh_enabled: bool,
}

impl Default for MemConfig {
    fn default() -> Self {
        Self {
            num_channels: 6,
            banks_per_channel: 16,
            banks_per_group: 4,
            row_bytes: 2048,
            read_queue: 64,
            write_queue: 64,
            write_hi: 32,
            write_lo: 16,
            timing: TimingParams::default(),
            coord_latency: 4,
            gmc_max_streak: 16,
            gmc_age_threshold: 12_000,
            wgw_margin: 8,
            bursts_per_access: 2,
            page_policy: PagePolicy::Open,
            refresh_enabled: true,
        }
    }
}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PagePolicy {
    /// Leave rows open after column accesses (the paper's configuration);
    /// the transaction scheduler closes them on conflicts.
    Open,
    /// Precharge immediately after every column access (auto-precharge):
    /// no row hits, no row conflicts — the classic trade.
    Closed,
}

/// The scheduling policy run by every memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Strict first-come-first-serve over individual requests.
    Fcfs,
    /// First-ready FCFS (row hits first, then age) [Rixner+ ISCA'00].
    FrFcfs,
    /// Throughput-optimised GPU memory controller baseline (Section II-C).
    Gmc,
    /// Warp-aware FCFS over warp-groups [Yuan+ MICRO'08] (Section VI-C.2).
    Wafcfs,
    /// Single-bank warp-aware scheduling with a potential function
    /// [Lakshminarayana+ CAL'11] (Section VI-C.1). `alpha_q` is the profiled
    /// alpha in quarters: 1 => 0.25, 2 => 0.5, 3 => 0.75.
    Sbwas { alpha_q: u8 },
    /// Warp-group scheduling, single controller (Section IV-B).
    Wg,
    /// WG + multi-controller coordination (Section IV-C).
    WgM,
    /// WG-M + MERB bandwidth-aware row-miss insertion (Section IV-D).
    WgBw,
    /// WG-Bw + warp-aware write draining (Section IV-E).
    WgW,
    /// Ideal model for Fig. 4: after a warp-group's first DRAM request is
    /// serviced, its remaining requests bypass bank timing and only pay bus
    /// bandwidth.
    ZeroDivergence,
    /// Parallelism-aware batch scheduling \[Mutlu & Moscibroda, ISCA'08\]
    /// — the CPU-space batching scheme the paper contrasts with
    /// warp-groups in Section VI-C.3: batches are formed *per bank across
    /// warps* for fairness, ranked by the MAX rule, rather than per warp
    /// for latency-divergence.
    ParBs,
    /// ATLAS-style least-attained-service scheduling \[Kim+ HPCA'10\],
    /// the other CPU-space multi-controller scheme of Section VI-C.3:
    /// warps that received the least DRAM service in the previous epoch are
    /// prioritised in the next. Epoch granularity (the paper's objection:
    /// far coarser than per-warp-group coordination) is `atlas_epoch`.
    AtlasLite,
    /// The paper's *future work* (Section VIII): WG-W extended to also
    /// prioritise warp-groups whose lines are shared by multiple warps
    /// (detected at the L2 MSHRs) — finishing them unblocks several warps
    /// at once.
    WgShared,
}

impl SchedulerKind {
    /// Every command-line spelling of every scheduler, canonical name first;
    /// the single-run command lines parse through [`SchedulerKind::parse`].
    pub const CLI_NAMES: &'static [(SchedulerKind, &'static [&'static str])] = &[
        (SchedulerKind::Fcfs, &["fcfs"]),
        (SchedulerKind::FrFcfs, &["fr-fcfs", "frfcfs"]),
        (SchedulerKind::Gmc, &["gmc"]),
        (SchedulerKind::Wafcfs, &["wafcfs"]),
        (SchedulerKind::Sbwas { alpha_q: 2 }, &["sbwas"]),
        (SchedulerKind::Sbwas { alpha_q: 1 }, &["sbwas-25"]),
        (SchedulerKind::Sbwas { alpha_q: 3 }, &["sbwas-75"]),
        (SchedulerKind::Wg, &["wg"]),
        (SchedulerKind::WgM, &["wg-m", "wgm"]),
        (SchedulerKind::WgBw, &["wg-bw", "wgbw"]),
        (SchedulerKind::WgW, &["wg-w", "wgw"]),
        (SchedulerKind::WgShared, &["wg-s", "wgs"]),
        (SchedulerKind::ZeroDivergence, &["zero-div", "zerodiv"]),
        (SchedulerKind::ParBs, &["par-bs", "parbs"]),
        (SchedulerKind::AtlasLite, &["atlas"]),
    ];

    /// The scheduler spelled `s` in [`Self::CLI_NAMES`], in any case.
    pub fn parse(s: &str) -> Option<SchedulerKind> {
        let s = s.to_ascii_lowercase();
        Self::CLI_NAMES
            .iter()
            .find(|(_, names)| names.contains(&s.as_str()))
            .map(|&(kind, _)| kind)
    }

    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::Fcfs => "FCFS",
            SchedulerKind::FrFcfs => "FR-FCFS",
            SchedulerKind::Gmc => "GMC",
            SchedulerKind::Wafcfs => "WAFCFS",
            SchedulerKind::Sbwas { .. } => "SBWAS",
            SchedulerKind::Wg => "WG",
            SchedulerKind::WgM => "WG-M",
            SchedulerKind::WgBw => "WG-Bw",
            SchedulerKind::WgW => "WG-W",
            SchedulerKind::ZeroDivergence => "ZeroDiv",
            SchedulerKind::ParBs => "PAR-BS",
            SchedulerKind::AtlasLite => "ATLAS",
            SchedulerKind::WgShared => "WG-S",
        }
    }

    /// Does this policy use the warp-group coordination network?
    pub fn coordinates(&self) -> bool {
        matches!(
            self,
            SchedulerKind::WgM | SchedulerKind::WgBw | SchedulerKind::WgW | SchedulerKind::WgShared
        )
    }
}

/// Top-level simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    pub gpu: GpuConfig,
    pub mem: MemConfig,
    pub scheduler: SchedulerKind,
    /// Model a perfect coalescer (one request per load) — the other ideal
    /// model of Fig. 4.
    pub perfect_coalescing: bool,
    /// Hard cycle limit as a safety net; a run that hits it reports partial
    /// statistics and `finished = false`.
    pub max_cycles: Cycle,
    /// Stop once this many warp-instructions have retired GPU-wide (the
    /// paper's methodology: "1 billion instructions or to completion,
    /// whichever is earlier"). `None` runs to completion. A fractional
    /// budget (the runner uses ~70% of the kernel) keeps the measurement
    /// throughput-oriented instead of tail-warp-dominated.
    pub instruction_limit: Option<u64>,
    /// Clock domain (GDDR5 command clock).
    pub clock: ClockDomain,
    /// Attach the independent [`TimingAuditor`] to every channel: each
    /// issued DRAM command is re-validated against the JEDEC timing rules
    /// by a second, independently written state machine — catching
    /// scheduler bugs in release builds where `debug_assert!` is compiled
    /// out. Off by default (zero cost when disabled).
    pub audit: bool,
    /// Record a structured event trace (per-channel command log, warp-group
    /// lifecycle, latency-divergence samples) with a stable FNV-1a hash,
    /// exportable as JSONL. Off by default (zero cost when disabled).
    pub trace: bool,
    /// Fast-forward the main loop over cycles where no component can make
    /// progress (event-horizon skipping), and let each memory partition
    /// skip its own idle stretches inside an epoch window. Bit-exact with
    /// ticking every component every cycle; on by default. Disable to
    /// force that non-skipping reference loop.
    pub fast_forward: bool,
    /// Arm the in-simulator latency histograms (per-bank queue depth at
    /// enqueue, row-hit streak length, MERB occupancy, sampled read-queue
    /// depth). Recording is observation-only — armed runs are bit-exact
    /// with unarmed ones — but costs a few counter increments per DRAM
    /// command, so it is off by default.
    pub hist: bool,
    /// Worker threads for the intra-run partition pool (the memory
    /// partitions free-run concurrently between deterministic epoch
    /// barriers).
    /// `0` resolves from the process-wide setting (`--threads N` /
    /// `LDSIM_SIM_THREADS`, default serial); `1` forces serial; `n > 1`
    /// forces an `n`-wide pool, capped at the partition count. Threaded
    /// runs are bit-exact with serial ones, so this knob is execution
    /// strategy, not semantics — it is deliberately excluded from the
    /// sweep cache's `config_fingerprint`.
    pub sim_threads: usize,
    /// Upper bound on the conservative epoch window: how many cycles the
    /// partitions may free-run between hand-offs with the hub (DESIGN.md
    /// §18). `0` means auto — the full lookahead bounds; any other value
    /// additionally caps the window. Its one reason to exist is `1`: the
    /// reference cadence (one-cycle windows) that the bit-exactness tests
    /// and the perf report's barrier cut compare every other cadence
    /// against. The tests pair it with `fast_forward = false`, so the
    /// reference ticks every component every cycle and relies on no
    /// `next_event` report. Every cadence computes the same results, so like
    /// `sim_threads` this is execution strategy, not semantics, and is
    /// excluded from `config_fingerprint`.
    pub epoch_max: Cycle,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            gpu: GpuConfig::default(),
            mem: MemConfig::default(),
            scheduler: SchedulerKind::Gmc,
            perfect_coalescing: false,
            max_cycles: 200_000_000,
            instruction_limit: None,
            clock: ClockDomain::GDDR5,
            audit: false,
            trace: false,
            fast_forward: true,
            hist: false,
            sim_threads: 0,
            epoch_max: 0,
        }
    }
}

impl SimConfig {
    pub fn with_scheduler(mut self, s: SchedulerKind) -> Self {
        self.scheduler = s;
        self
    }

    /// Enable the protocol-conformance auditor.
    pub fn with_audit(mut self) -> Self {
        self.audit = true;
        self
    }

    /// Enable structured event tracing.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Enable or disable idle-cycle fast-forwarding (on by default).
    pub fn with_fast_forward(mut self, on: bool) -> Self {
        self.fast_forward = on;
        self
    }

    /// Arm the in-simulator distribution histograms.
    pub fn with_hist(mut self) -> Self {
        self.hist = true;
        self
    }

    /// Set the intra-run partition thread count (see
    /// [`SimConfig::sim_threads`]). `0` defers to the process-wide setting.
    pub fn with_sim_threads(mut self, threads: usize) -> Self {
        self.sim_threads = threads;
        self
    }

    /// Cap the epoch window (see [`SimConfig::epoch_max`]). `0` = auto
    /// (full lookahead), `1` = the one-cycle reference cadence.
    pub fn with_epoch_max(mut self, cap: Cycle) -> Self {
        self.epoch_max = cap;
        self
    }

    /// Lines per DRAM row (row_bytes / line_bytes).
    pub fn lines_per_row(&self) -> usize {
        self.mem.row_bytes / self.gpu.l2_slice.line_bytes
    }

    /// Install a DRAM backend preset (see [`Preset::apply`] for exactly
    /// which knobs a preset owns). `with_preset(Preset::Gddr5)` is the
    /// identity on a default config.
    pub fn with_preset(mut self, p: Preset) -> Self {
        p.apply(&mut self);
        self
    }
}

// ---------------------------------------------------------------------------
// DRAM backend presets, and the geometry bounds every machine must meet
// (`AddressMapper::new` checks them).

/// Most banks per channel: a controller keeps one bit per bank in its
/// 64-bit ready masks.
pub const MAX_BANKS: usize = 64;

/// Most channels: channel ids are bytes.
pub const MAX_CHANNELS: usize = 256;

/// A DRAM backend preset: one complete machine description, selectable as
/// an ordinary sweep dimension (`CfgTweak::Backend` in `ldsim-system`).
///
/// Every preset keeps `tRC = tRAS + tRP` exactly (also in rounded cycles),
/// so the bank-conflict serialisation quantum the validate suite pins is
/// `tRC` on every backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Preset {
    /// The paper's Table II machine: Hynix H5GQ1H24AFR-style GDDR5 on 6
    /// channels of 16 banks (4 per bank group). Its description is exactly
    /// [`MemConfig::default`] + [`ClockDomain::GDDR5`], so selecting it is
    /// the identity — and dedupes against untweaked sweep cells.
    Gddr5,
    /// QuadroFX5600-era GDDR3 (Samsung K4J52324QH-HC12 at 800 MHz, tCK =
    /// 1.25 ns): 8 banks, no bank groups (flat tCCD), narrower 32 B bursts
    /// (4 per 128 B line). Cycle-valued timings match the classic
    /// gpgpusim.config: RCD=12, RAS=25, RP=10, RC=35, CL=10, RRD=8, WL=7.
    Gddr3,
    /// A GDDR6-class machine: 12 pseudo-channel-style channels at a 2 GHz
    /// command clock (tCK = 0.5 ns), 32 B bursts, deeper bank groups
    /// (tCCDL = 4 tCK).
    Gddr6,
    /// An HBM-class stack: 16 pseudo-channels at a 1 GHz command clock,
    /// small 1 KB rows, short tRRD/tFAW (per-pseudo-channel activity is
    /// cheap), 32 B bursts.
    Hbm,
}

impl Preset {
    pub const ALL: [Preset; 4] = [Preset::Gddr5, Preset::Gddr3, Preset::Gddr6, Preset::Hbm];

    pub fn name(&self) -> &'static str {
        match self {
            Preset::Gddr5 => "gddr5",
            Preset::Gddr3 => "gddr3",
            Preset::Gddr6 => "gddr6",
            Preset::Hbm => "hbm",
        }
    }

    /// This preset's device description: a [`MemConfig`] carrying the
    /// device's topology, timing and burst width, with the queue and policy
    /// knobs at their defaults, plus its command-clock domain.
    pub fn mem_and_clock(&self) -> (MemConfig, ClockDomain) {
        match self {
            Preset::Gddr5 => (MemConfig::default(), ClockDomain::GDDR5),
            Preset::Gddr3 => (
                MemConfig {
                    num_channels: 6,
                    banks_per_channel: 8,
                    banks_per_group: 8,
                    row_bytes: 2048,
                    bursts_per_access: 4,
                    timing: TimingParams {
                        t_rc_ns: 43.75,
                        t_rcd_ns: 15.0,
                        t_rp_ns: 12.5,
                        t_cas_ns: 12.5,
                        t_ras_ns: 31.25,
                        t_rrd_ns: 10.0,
                        t_wtr_ns: 7.5,
                        t_faw_ns: 30.0,
                        t_rtp_ns: 2.5,
                        t_wl_ck: 7,
                        t_burst_ck: 2,
                        t_rtrs_ck: 1,
                        t_ccdl_ck: 2,
                        t_ccds_ck: 2,
                        t_wr_ns: 13.75,
                        t_refi_ns: 1900.0,
                        t_rfc_ns: 110.0,
                    },
                    ..MemConfig::default()
                },
                ClockDomain { tck_ns: 1.25 },
            ),
            Preset::Gddr6 => (
                MemConfig {
                    num_channels: 12,
                    banks_per_channel: 16,
                    banks_per_group: 4,
                    row_bytes: 2048,
                    bursts_per_access: 4,
                    timing: TimingParams {
                        t_rc_ns: 45.0,
                        t_rcd_ns: 14.0,
                        t_rp_ns: 14.0,
                        t_cas_ns: 14.0,
                        t_ras_ns: 31.0,
                        t_rrd_ns: 5.5,
                        t_wtr_ns: 5.0,
                        t_faw_ns: 22.0,
                        t_rtp_ns: 2.5,
                        t_wl_ck: 6,
                        t_burst_ck: 2,
                        t_rtrs_ck: 1,
                        t_ccdl_ck: 4,
                        t_ccds_ck: 2,
                        t_wr_ns: 15.0,
                        t_refi_ns: 1900.0,
                        t_rfc_ns: 110.0,
                    },
                    ..MemConfig::default()
                },
                ClockDomain { tck_ns: 0.5 },
            ),
            Preset::Hbm => (
                MemConfig {
                    num_channels: 16,
                    banks_per_channel: 16,
                    banks_per_group: 4,
                    row_bytes: 1024,
                    bursts_per_access: 4,
                    timing: TimingParams {
                        t_rc_ns: 45.0,
                        t_rcd_ns: 14.0,
                        t_rp_ns: 14.0,
                        t_cas_ns: 14.0,
                        t_ras_ns: 31.0,
                        t_rrd_ns: 4.0,
                        t_wtr_ns: 7.0,
                        t_faw_ns: 16.0,
                        t_rtp_ns: 3.0,
                        t_wl_ck: 3,
                        t_burst_ck: 2,
                        t_rtrs_ck: 1,
                        t_ccdl_ck: 3,
                        t_ccds_ck: 2,
                        t_wr_ns: 15.0,
                        t_refi_ns: 3900.0,
                        t_rfc_ns: 160.0,
                    },
                    ..MemConfig::default()
                },
                ClockDomain { tck_ns: 1.0 },
            ),
        }
    }

    /// Install this backend into `cfg`: the DRAM *device* description
    /// (topology, timing, burst width) and the command clock. Controller
    /// policy knobs (queue depths, watermarks, GMC/WG parameters, page
    /// policy, refresh switch) are deliberately untouched — they describe
    /// the scheduler under test, not the memory device.
    pub fn apply(&self, cfg: &mut SimConfig) {
        let (mem, clock) = self.mem_and_clock();
        cfg.mem.num_channels = mem.num_channels;
        cfg.mem.banks_per_channel = mem.banks_per_channel;
        cfg.mem.banks_per_group = mem.banks_per_group;
        cfg.mem.row_bytes = mem.row_bytes;
        cfg.mem.bursts_per_access = mem.bursts_per_access;
        cfg.mem.timing = mem.timing;
        cfg.clock = clock;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_timing_in_cycles() {
        let t = TimingParams::default().in_cycles(ClockDomain::GDDR5);
        assert_eq!(t.t_rc, 60);
        assert_eq!(t.t_rcd, 18);
        assert_eq!(t.t_rp, 18);
        assert_eq!(t.t_cas, 18);
        assert_eq!(t.t_ras, 42);
        assert_eq!(t.t_rrd, 9);
        assert_eq!(t.t_wtr, 8);
        assert_eq!(t.t_faw, 35);
        assert_eq!(t.t_rtp, 3);
        assert_eq!(t.t_wl, 4);
        assert_eq!(t.t_burst, 2);
        assert_eq!(t.t_ccdl, 3);
        assert_eq!(t.t_ccds, 2);
    }

    #[test]
    fn default_config_matches_table2() {
        let c = SimConfig::default();
        assert_eq!(c.gpu.num_sms, 30);
        assert_eq!(c.mem.num_channels, 6);
        assert_eq!(c.mem.banks_per_channel, 16);
        assert_eq!(c.mem.banks_per_group, 4);
        assert_eq!(c.mem.read_queue, 64);
        assert_eq!(c.mem.write_queue, 64);
        assert_eq!(c.mem.write_hi, 32);
        assert_eq!(c.mem.write_lo, 16);
        assert_eq!(c.gpu.l1.size_bytes, 32 * 1024);
        assert_eq!(c.gpu.l1.ways, 8);
        assert_eq!(c.gpu.l2_slice.size_bytes, 128 * 1024);
        assert_eq!(c.gpu.l2_slice.ways, 16);
        assert_eq!(c.gpu.l1.line_bytes, 128);
    }

    #[test]
    fn cache_sets() {
        let c = GpuConfig::default();
        assert_eq!(c.l1.sets(), 32 * 1024 / (128 * 8));
        assert_eq!(c.l2_slice.sets(), 128 * 1024 / (128 * 16));
    }

    #[test]
    fn scheduler_names_and_coordination() {
        assert_eq!(SchedulerKind::WgW.name(), "WG-W");
        assert!(SchedulerKind::WgM.coordinates());
        assert!(SchedulerKind::WgBw.coordinates());
        assert!(!SchedulerKind::Wg.coordinates());
        assert!(!SchedulerKind::Gmc.coordinates());
    }

    #[test]
    fn every_scheduler_kind_has_a_command_line_name() {
        use SchedulerKind::*;
        let mut named = 0u32;
        for &(kind, names) in SchedulerKind::CLI_NAMES {
            // Exhaustive on purpose: a new variant does not compile until it
            // takes the next bit, and then the mask below wants a name for it.
            let bit = match kind {
                Fcfs => 0,
                FrFcfs => 1,
                Gmc => 2,
                Wafcfs => 3,
                Sbwas { .. } => 4,
                Wg => 5,
                WgM => 6,
                WgBw => 7,
                WgW => 8,
                ZeroDivergence => 9,
                ParBs => 10,
                AtlasLite => 11,
                WgShared => 12,
            };
            named |= 1 << bit;
            for n in names {
                assert_eq!(SchedulerKind::parse(&n.to_uppercase()), Some(kind), "{n}");
            }
        }
        assert_eq!(named, (1 << 13) - 1, "a scheduler kind has no name");
        assert_eq!(SchedulerKind::parse("wgx"), None);
    }

    #[test]
    fn lines_per_row() {
        let c = SimConfig::default();
        assert_eq!(c.lines_per_row(), 16);
    }

    #[test]
    fn gddr5_preset_is_exactly_the_default_machine() {
        // The Table II machine *is* the gddr5 preset: selecting it must be
        // the identity, so Backend(Gddr5) sweep cells dedupe against
        // untweaked cells in the cell cache.
        let (mem, clock) = Preset::Gddr5.mem_and_clock();
        assert_eq!(mem, MemConfig::default());
        assert_eq!(clock, ClockDomain::GDDR5);
        let cfg = SimConfig::default().with_preset(Preset::Gddr5);
        assert_eq!(cfg, SimConfig::default());
    }

    #[test]
    fn preset_cycle_conversions_match_datasheets() {
        // gddr3: the classic QuadroFX5600 gpgpusim.config in cycles at
        // tCK=1.25ns: RCD=12 RAS=25 RP=10 RC=35 CL=10 RRD=8 WTR=6 WR=11.
        let (mem, clock) = Preset::Gddr3.mem_and_clock();
        let t = mem.timing.in_cycles(clock);
        assert_eq!(
            (t.t_rcd, t.t_ras, t.t_rp, t.t_rc, t.t_cas, t.t_rrd, t.t_wtr, t.t_wr),
            (12, 25, 10, 35, 10, 8, 6, 11)
        );
        assert_eq!(mem.banks_per_channel, 8);
        assert_eq!(mem.banks_per_group, 8, "gddr3 has no bank groups");
        assert_eq!(mem.bursts_per_access, 4, "32 B bursts: 4 per 128 B line");

        // gddr6: 2 GHz command clock, deeper bank groups.
        let (mem, clock) = Preset::Gddr6.mem_and_clock();
        let t = mem.timing.in_cycles(clock);
        assert_eq!((t.t_rcd, t.t_rp, t.t_cas, t.t_rc), (28, 28, 28, 90));
        assert_eq!(t.t_ccdl, 4);
        assert_eq!(mem.num_channels, 12);

        // hbm: small rows, short activity window.
        let (mem, clock) = Preset::Hbm.mem_and_clock();
        let t = mem.timing.in_cycles(clock);
        assert_eq!((t.t_rcd, t.t_rp, t.t_cas, t.t_rc), (14, 14, 14, 45));
        assert_eq!((t.t_rrd, t.t_faw), (4, 16));
        assert_eq!(mem.row_bytes, 1024);
        assert_eq!(mem.num_channels, 16);
    }

    #[test]
    fn preset_apply_preserves_controller_policy_knobs() {
        // A preset describes the *device*; scheduler/queue policy under test
        // must survive switching backends.
        let mut cfg = SimConfig::default().with_scheduler(SchedulerKind::WgW);
        cfg.mem.read_queue = 17;
        cfg.mem.write_hi = 99;
        cfg.mem.gmc_max_streak = 3;
        cfg.mem.page_policy = PagePolicy::Closed;
        cfg.mem.refresh_enabled = false;
        let cfg = cfg.with_preset(Preset::Hbm);
        assert_eq!(cfg.mem.read_queue, 17);
        assert_eq!(cfg.mem.write_hi, 99);
        assert_eq!(cfg.mem.gmc_max_streak, 3);
        assert_eq!(cfg.mem.page_policy, PagePolicy::Closed);
        assert!(!cfg.mem.refresh_enabled);
        assert_eq!(cfg.scheduler, SchedulerKind::WgW);
        assert_eq!(cfg.mem.num_channels, 16, "device side did switch");
    }
}
