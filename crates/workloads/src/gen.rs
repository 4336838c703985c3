//! Kernel generation from benchmark profiles.
//!
//! Deterministic: every (benchmark, scale, seed, sm, warp) tuple produces
//! the same instruction stream, so scheduler comparisons run the *identical*
//! workload and IPC differences are attributable to the memory system alone.

use crate::profile::{find, BenchProfile};
use ldsim_types::addr::AddressMapper;
use ldsim_types::config::MemConfig;
use ldsim_types::ids::LaneMask;
use ldsim_types::kernel::{Instruction, KernelProgram, WarpProgram};
use ldsim_util::rng::StdRng;

/// Simulation scale: how much machine and how much work. The
/// discriminants are the byte a sweep cell key hashes, so they never move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// 2 SMs x 4 warps — unit/integration tests.
    Tiny = 0,
    /// 8 SMs x 10 warps — quick experiments.
    Small = 1,
    /// 30 SMs x 12 warps — the paper-scale configuration.
    Full = 2,
}

impl Scale {
    /// Every scale, smallest first.
    pub const ALL: [Scale; 3] = [Scale::Tiny, Scale::Small, Scale::Full];

    /// The command-line name: `tiny`, `small` or `full`.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Full => "full",
        }
    }

    /// The scale named `s` (exactly [`Scale::name`], lowercase only).
    pub fn parse(s: &str) -> Option<Scale> {
        Scale::ALL.into_iter().find(|sc| sc.name() == s)
    }

    pub fn num_sms(&self) -> usize {
        match self {
            Scale::Tiny => 2,
            Scale::Small => 8,
            Scale::Full => 30,
        }
    }

    pub fn warps_per_sm(&self) -> usize {
        match self {
            Scale::Tiny => 4,
            Scale::Small => 10,
            Scale::Full => 12,
        }
    }

    pub fn mem_insns(&self, profile_insns: usize) -> usize {
        match self {
            Scale::Tiny => (profile_insns / 4).max(4),
            Scale::Small => (profile_insns / 2).max(8),
            Scale::Full => profile_insns,
        }
    }
}

/// A configured benchmark instance.
#[derive(Debug, Clone)]
pub struct BenchmarkGen {
    pub profile: &'static BenchProfile,
    pub scale: Scale,
    pub seed: u64,
    mapper: AddressMapper,
    /// Set when the name resolved to a calibration microbenchmark
    /// (`mb_*`), whose kernels are built by construction rather than from
    /// profile statistics.
    micro: Option<&'static crate::microbench::Microbench>,
}

/// Look up `name` and bind it to a scale and seed. Calibration
/// microbenchmarks (`mb_*`, see [`crate::microbench`]) resolve here too,
/// so the sweep/figure machinery treats them like any benchmark.
///
/// # Panics
/// On an unknown benchmark name — the registry is a fixed, documented set.
pub fn benchmark(name: &str, scale: Scale, seed: u64) -> BenchmarkGen {
    benchmark_with_mem(name, scale, seed, &MemConfig::default())
}

/// Whether [`benchmark`] knows `name` — the check a command line makes
/// before it generates anything, to report a typo as a named error.
pub fn is_benchmark(name: &str) -> bool {
    crate::microbench::find(name).is_some() || find(name).is_some()
}

/// [`benchmark`] against an explicit device geometry: the generated address
/// stream targets `mem`'s mapper instead of the default GDDR5 one. The
/// per-preset validation ladders use this so a microbenchmark's
/// constructed row hits/conflicts land where that backend's mapper says
/// they do. Sweep cells deliberately do *not* — a sweep compares backends
/// on one fixed address stream, keyed by (bench, scale, seed).
pub fn benchmark_with_mem(name: &str, scale: Scale, seed: u64, mem: &MemConfig) -> BenchmarkGen {
    let mapper = AddressMapper::new(mem, 128);
    if let Some(mb) = crate::microbench::find(name) {
        return BenchmarkGen {
            profile: &mb.profile,
            scale,
            seed,
            mapper,
            micro: Some(mb),
        };
    }
    let profile = find(name).unwrap_or_else(|| panic!("unknown benchmark '{name}'"));
    BenchmarkGen {
        profile,
        scale,
        seed,
        mapper,
        micro: None,
    }
}

const LINE: u64 = 128;

impl BenchmarkGen {
    /// Generate the kernel: one program per (SM, warp slot).
    pub fn generate(&self) -> KernelProgram {
        if let Some(mb) = self.micro {
            return crate::microbench::generate(mb, &self.mapper, self.scale, self.seed);
        }
        let sms = self.scale.num_sms();
        let warps = self.scale.warps_per_sm();
        let mut programs = Vec::with_capacity(sms);
        for sm in 0..sms {
            let mut per_sm = Vec::with_capacity(warps);
            for warp in 0..warps {
                per_sm.push(self.warp_program(sm, warp, sms * warps));
            }
            programs.push(per_sm);
        }
        KernelProgram {
            name: self.profile.name.to_string(),
            programs,
        }
    }

    fn warp_seed(&self, sm: usize, warp: usize) -> u64 {
        // FNV-1a over (name, seed, sm, warp) for order-independence.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |b: u64| {
            h ^= b;
            h = h.wrapping_mul(0x1_0000_01b3);
        };
        for byte in self.profile.name.bytes() {
            eat(byte as u64);
        }
        eat(self.seed);
        eat(sm as u64);
        eat(warp as u64);
        h
    }

    /// Cycles of compute inserted between memory bursts so that aggregate
    /// DRAM demand lands at `target_util` of channel capacity. Capacity: 6
    /// channels moving one 2-burst line per 4 cycles at full streaming,
    /// derated by the tFAW/row-miss mix to ~0.9 lines/cycle.
    fn phase_gap(&self, total_warps: usize) -> u32 {
        let p = self.profile;
        let reqs_per_load = p.divergent_frac * p.clusters_mean + (1.0 - p.divergent_frac);
        // Writes add traffic via write-backs; count them at half weight.
        let traffic_per_mem = reqs_per_load * (1.0 + 0.5 * p.write_frac);
        let phase_reqs = p.burst_len as f64 * traffic_per_mem;
        let capacity = 0.9_f64;
        // Per-warp phase period targeting the utilisation goal: every warp
        // contributes `phase_reqs` DRAM lines per period. The 0.55 factor
        // is the closed-loop correction calibrated at Full scale: queueing
        // stretches each warp's own period, so nominal demand must exceed
        // the target for delivered utilisation to land on it.
        let per_warp = 0.55 * phase_reqs * total_warps as f64 / (capacity * p.target_util);
        // Subtract the burst's own expected duration (intra-burst compute
        // plus a nominal memory round trip per blocking load).
        let burst_cycles = p.burst_len as f64 * (p.compute_per_mem as f64 + 600.0);
        (per_warp - burst_cycles).max(100.0) as u32
    }

    fn warp_program(&self, sm: usize, warp: usize, total_warps: usize) -> WarpProgram {
        let p = self.profile;
        let mut rng = StdRng::seed_from_u64(self.warp_seed(sm, warp));
        // Phase jitter is seeded per *SM*: warps of one SM stay loosely
        // aligned (as barriers and common control flow keep them in real
        // kernels) while different SMs drift apart. The aligned bursts are
        // what makes latency divergence a throughput problem.
        let mut phase_rng = StdRng::seed_from_u64(self.warp_seed(sm, 0xFFFF));
        let n_mem = self.scale.mem_insns(p.mem_insns_per_warp);
        let mut insns = Vec::with_capacity(n_mem * 2);
        let phase_gap = self.phase_gap(total_warps);

        // Streaming base for this warp's coalesced accesses: disjoint slabs.
        let gw = sm * self.scale.warps_per_sm() + warp;
        let slab = (p.working_set / total_warps as u64) & !(LINE - 1);
        let stream_base = (gw as u64 * slab) % p.working_set;
        let mut stream_off = 0u64;
        // Anchor line for same-row clustering, refreshed on row changes.
        let mut anchor = self.random_line(&mut rng, p);

        for i in 0..n_mem {
            if i % p.burst_len == 0 {
                // Phase boundary: warp-private latency (dependency chains,
                // SFU/texture work, control flow). The gap is shared by the
                // SM's warps (±50% jitter per SM per phase) plus a small
                // per-warp skew, so warps of one SM burst together while
                // SMs desynchronise — throttling aggregate DRAM demand to
                // the utilisation target without monopolising the issue
                // port the way back-to-back ALU work would.
                let sm_jitter = phase_rng.gen_range(0..=phase_gap.max(1));
                let warp_skew = rng.gen_range(0..=(phase_gap / 16).max(1));
                insns.push(Instruction::Delay(
                    (phase_gap / 2 + sm_jitter + warp_skew).max(1),
                ));
            } else if i > 0 {
                // Intra-burst ALU work.
                let c = p.compute_per_mem.max(1);
                let jitter = rng.gen_range(0..=(c / 2).max(1));
                insns.push(Instruction::Compute(c / 2 + jitter + 1));
            }

            let is_store = rng.gen_bool(p.write_frac);
            let divergent = rng.gen_bool(if is_store {
                (p.divergent_frac * 0.7).min(1.0)
            } else {
                p.divergent_frac
            });
            let addrs = if divergent {
                let mean = if is_store {
                    (p.clusters_mean * 0.6).max(2.0)
                } else {
                    p.clusters_mean
                };
                self.gather(&mut rng, p, mean, &mut anchor)
            } else {
                // Coalesced stream within the warp's slab.
                let base = stream_base + stream_off;
                stream_off = (stream_off + 2 * LINE) % slab.max(2 * LINE);
                let mut a = [0u64; 32];
                for (l, x) in a.iter_mut().enumerate() {
                    *x = (base + 4 * l as u64) % p.working_set;
                }
                a
            };
            // Control-flow divergence: a quarter of divergent accesses run
            // with a partial lane mask (16-31 active lanes), as branchy
            // irregular kernels do.
            let mask = if divergent && rng.gen_bool(0.25) {
                let active = rng.gen_range(16..32usize);
                let mut m = LaneMask::NONE;
                for _ in 0..active {
                    m.set(rng.gen_range(0..32usize));
                }
                if m.count() == 0 {
                    LaneMask::ALL
                } else {
                    m
                }
            } else {
                LaneMask::ALL
            };
            insns.push(if is_store {
                Instruction::Store {
                    addrs: Box::new(addrs),
                    mask,
                }
            } else {
                Instruction::Load {
                    addrs: Box::new(addrs),
                    mask,
                }
            });
        }
        WarpProgram::new(insns)
    }

    /// Generate a divergent gather: `k` clusters of contiguous lanes, each
    /// targeting one cache line, with same-row bias between clusters.
    fn gather(&self, rng: &mut StdRng, p: &BenchProfile, mean: f64, anchor: &mut u64) -> [u64; 32] {
        let lo = (mean * 0.5).max(2.0) as usize;
        let hi = (mean * 1.5).min(32.0) as usize;
        let k = rng.gen_range(lo..=hi.max(lo));
        let mut cluster_lines = Vec::with_capacity(k);
        for i in 0..k {
            let line = if i > 0 && rng.gen_bool(p.same_row_bias) {
                // Stay in the anchor's DRAM row: pick another column of the
                // same (channel, bank, row).
                let buddies = self.mapper.same_row_lines(*anchor * LINE);
                if buddies.is_empty() {
                    *anchor
                } else {
                    buddies[rng.gen_range(0..buddies.len())] / LINE
                }
            } else {
                // New anchor: keep the warp on its current channel with
                // probability `channel_bias` (search a few candidates).
                let mut l = self.random_line(rng, p);
                if rng.gen_bool(p.channel_bias) {
                    let want = self.mapper.decode(*anchor * LINE).channel;
                    for _ in 0..16 {
                        if self.mapper.decode(l * LINE).channel == want {
                            break;
                        }
                        l = self.random_line(rng, p);
                    }
                }
                *anchor = l;
                l
            };
            cluster_lines.push(line);
        }
        let mut addrs = [0u64; 32];
        for lane in 0..32 {
            let cl = cluster_lines[lane * k / 32];
            let lane_in_cluster = (lane % (32usize.div_ceil(k))) as u64;
            addrs[lane] = cl * LINE + (4 * lane_in_cluster) % LINE;
        }
        addrs
    }

    /// Test hook: the computed per-warp phase gap at this generator's scale.
    #[doc(hidden)]
    pub fn phase_gap_for_test(&self) -> u32 {
        self.phase_gap(self.scale.num_sms() * self.scale.warps_per_sm())
    }

    /// Pick a random line, from the hot subset with probability `hot_frac`.
    fn random_line(&self, rng: &mut StdRng, p: &BenchProfile) -> u64 {
        let region = if rng.gen_bool(p.hot_frac) {
            p.hot_bytes
        } else {
            p.working_set
        };
        rng.gen_range(0..region / LINE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldsim_types::addr::AddressMapper;
    use ldsim_types::config::MemConfig;

    #[test]
    fn generation_is_deterministic() {
        let a = benchmark("bfs", Scale::Tiny, 42).generate();
        let b = benchmark("bfs", Scale::Tiny, 42).generate();
        assert_eq!(a.programs, b.programs);
        let c = benchmark("bfs", Scale::Tiny, 43).generate();
        assert_ne!(a.programs, c.programs);
    }

    #[test]
    fn scales_shape_the_kernel() {
        let t = benchmark("spmv", Scale::Tiny, 1).generate();
        assert_eq!(t.programs.len(), 2);
        assert_eq!(t.programs[0].len(), 4);
        let f = benchmark("spmv", Scale::Full, 1).generate();
        assert_eq!(f.programs.len(), 30);
        assert_eq!(f.programs[0].len(), 12);
        assert!(f.total_instructions() > t.total_instructions());
    }

    #[test]
    fn gathers_exhibit_same_row_locality() {
        // The same_row_bias of the profile must surface as requests sharing
        // a (channel, bank, row) within one load.
        let mapper = AddressMapper::new(&MemConfig::default(), 128);
        let k = benchmark("nw", Scale::Small, 11).generate();
        let (mut with_buddy, mut total) = (0usize, 0usize);
        for smp in &k.programs {
            for w in smp {
                for ins in &w.insns {
                    if let Instruction::Load { addrs, mask } = ins {
                        let mut lines: Vec<u64> = Vec::new();
                        for l in mask.iter() {
                            let line = addrs[l] >> 7;
                            if !lines.contains(&line) {
                                lines.push(line);
                            }
                        }
                        if lines.len() < 2 {
                            continue;
                        }
                        let ds: Vec<_> = lines.iter().map(|&l| mapper.decode(l * 128)).collect();
                        for (i, a) in ds.iter().enumerate() {
                            total += 1;
                            if ds.iter().enumerate().any(|(j, b)| i != j && a.same_row(b)) {
                                with_buddy += 1;
                            }
                        }
                    }
                }
            }
        }
        let frac = with_buddy as f64 / total as f64;
        assert!(
            frac > 0.12,
            "nw same-row fraction {frac} too low for its profile bias"
        );
    }

    #[test]
    fn irregular_benchmarks_diverge_regular_do_not() {
        let mapper = AddressMapper::new(&MemConfig::default(), 128);
        let stats = |name: &str| {
            let k = benchmark(name, Scale::Small, 3).generate();
            let mut loads = 0usize;
            let mut reqs = 0usize;
            let mut divergent = 0usize;
            for smp in &k.programs {
                for w in smp {
                    for i in &w.insns {
                        if let Instruction::Load { addrs, mask } = i {
                            let lines = ldsim_gpu_free_coalesce(addrs, *mask);
                            loads += 1;
                            reqs += lines;
                            if lines > 1 {
                                divergent += 1;
                            }
                        }
                    }
                }
            }
            let _ = &mapper;
            (reqs as f64 / loads as f64, divergent as f64 / loads as f64)
        };
        let (rpl_spmv, df_spmv) = stats("spmv");
        assert!(rpl_spmv > 4.0, "spmv requests/load {rpl_spmv}");
        assert!(df_spmv > 0.5, "spmv divergent frac {df_spmv}");
        let (rpl_bp, df_bp) = stats("bp");
        assert!(rpl_bp < 1.5, "bp requests/load {rpl_bp}");
        assert!(df_bp < 0.15, "bp divergent frac {df_bp}");
    }

    // Minimal local coalescer (avoids a dev-dependency on ldsim-gpu).
    fn ldsim_gpu_free_coalesce(addrs: &[u64; 32], mask: LaneMask) -> usize {
        let mut lines: Vec<u64> = Vec::new();
        for l in mask.iter() {
            let line = addrs[l] >> 7;
            if !lines.contains(&line) {
                lines.push(line);
            }
        }
        lines.len()
    }

    #[test]
    fn addresses_stay_inside_working_set() {
        let k = benchmark("cfd", Scale::Small, 9).generate();
        let ws = find("cfd").unwrap().working_set;
        for smp in &k.programs {
            for w in smp {
                for i in &w.insns {
                    if let Instruction::Load { addrs, .. } | Instruction::Store { addrs, .. } = i {
                        for &a in addrs.iter() {
                            assert!(a < ws + 128 * 16, "address {a:#x} outside working set");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn write_fraction_roughly_matches_profile() {
        let k = benchmark("nw", Scale::Full, 5).generate();
        let (mut loads, mut stores) = (0usize, 0usize);
        for smp in &k.programs {
            for w in smp {
                loads += w.num_loads();
                stores += w.num_stores();
            }
        }
        let frac = stores as f64 / (loads + stores) as f64;
        assert!((frac - 0.42).abs() < 0.05, "nw write frac {frac}");
    }

    #[test]
    fn phases_start_with_warp_private_delay() {
        let k = benchmark("bfs", Scale::Small, 2).generate();
        let p = &k.programs[0][0];
        // The program alternates: each burst boundary is a Delay (big),
        // intra-burst spacing is Compute (small).
        assert!(matches!(p.insns[0], Instruction::Delay(_)));
        let mut delays = 0;
        let mut computes = 0;
        for i in &p.insns {
            match i {
                Instruction::Delay(n) => {
                    delays += 1;
                    assert!(*n >= 50);
                }
                Instruction::Compute(n) => {
                    computes += 1;
                    assert!(*n < 200, "intra-burst compute should be small");
                }
                _ => {}
            }
        }
        assert!(delays >= 2);
        assert!(computes >= 2);
    }

    #[test]
    fn utilization_targets_scale_phase_gaps() {
        // A lower target_util must produce a longer per-warp phase gap for
        // the same benchmark shape.
        let hi = benchmark("spmv", Scale::Full, 1);
        let gap_hi = hi.phase_gap_for_test();
        // spmv target_util is the highest in the suite; compare against a
        // low-util profile with a similar traffic product.
        let lo = benchmark("bh", Scale::Full, 1);
        let gap_lo = lo.phase_gap_for_test();
        assert!(gap_hi > 0 && gap_lo > 0);
    }

    #[test]
    #[should_panic]
    fn unknown_benchmark_panics() {
        benchmark("not-a-benchmark", Scale::Tiny, 0);
    }

    #[test]
    fn scale_names_are_the_command_line_grammar() {
        for s in Scale::ALL {
            assert_eq!(Scale::parse(s.name()), Some(s));
        }
        assert_eq!(Scale::parse("Tiny"), None, "names are lowercase-only");
        assert_eq!(Scale::parse(""), None);
        // The byte each scale contributes to a sweep cell key.
        assert_eq!(Scale::ALL.map(|s| s as u8), [0, 1, 2]);
    }
}
