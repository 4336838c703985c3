//! Property-style tests: seeded randomised loops over the core invariants
//! (the offline environment has no proptest, so cases are driven by the
//! workspace PRNG — failures print the seed/case needed to reproduce).
#![allow(clippy::field_reassign_with_default)]

use ldsim::gddr5::Channel;
use ldsim::types::addr::AddressMapper;
use ldsim::types::clock::ClockDomain;
use ldsim::types::config::{MemConfig, PagePolicy, SchedulerKind, SimConfig, TimingParams};
use ldsim::types::ids::BankId;
use ldsim::util::StdRng;

fn rand_f64(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Decoded fields always stay inside the configured geometry.
#[test]
fn decode_stays_in_bounds() {
    let m = AddressMapper::new(&MemConfig::default(), 128);
    let mut rng = StdRng::seed_from_u64(0xDEC0DE);
    for case in 0..512 {
        let addr = rng.gen_range(0u64..(1 << 40));
        let d = m.decode(addr);
        assert!((d.channel.0 as usize) < 6, "case {case}, addr {addr:#x}");
        assert!((d.bank.0 as usize) < 16, "case {case}, addr {addr:#x}");
        assert!(d.bank_group < 4, "case {case}, addr {addr:#x}");
        assert!(d.col < 16, "case {case}, addr {addr:#x}");
        assert!(d.row < 8192, "case {case}, addr {addr:#x}");
    }
}

/// Addresses within one 256B block always decode identically except for
/// the line bit of the column.
#[test]
fn block_locality() {
    let m = AddressMapper::new(&MemConfig::default(), 128);
    let mut rng = StdRng::seed_from_u64(0xB10C);
    for case in 0..512 {
        let base = rng.gen_range(0u64..(1 << 32));
        let a = m.decode(base & !0xFF);
        let b = m.decode((base & !0xFF) | 0x80);
        assert_eq!(a.channel, b.channel, "case {case}, base {base:#x}");
        assert_eq!(a.bank, b.bank, "case {case}, base {base:#x}");
        assert_eq!(a.row, b.row, "case {case}, base {base:#x}");
        assert_eq!(a.col ^ 1, b.col, "case {case}, base {base:#x}");
    }
}

/// Every line returned by same_row_lines really shares (channel, bank,
/// row) with the probe address.
#[test]
fn same_row_lines_sound() {
    let m = AddressMapper::new(&MemConfig::default(), 128);
    let mut rng = StdRng::seed_from_u64(0x5A3E);
    for case in 0..256 {
        let addr = rng.gen_range(0u64..(1 << 34));
        let d = m.decode(addr);
        for a in m.same_row_lines(addr) {
            let e = m.decode(a);
            assert!(e.same_row(&d), "case {case}, addr {addr:#x}");
        }
    }
}

/// The DRAM channel never deadlocks and never violates legality when a
/// greedy driver issues random-but-legal traffic: every request stream
/// eventually completes, data-bus busy time matches the column count, and
/// the independent protocol auditor sees every command and zero
/// violations.
#[test]
fn channel_serves_random_traffic_audit_clean() {
    let mem = MemConfig::default();
    let t = TimingParams::default().in_cycles(ClockDomain::GDDR5);
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for case in 0..128 {
        let mut ch = Channel::new(&mem, t);
        ch.enable_audit();
        let n_ops = rng.gen_range(1usize..60);
        let mut served = 0u64;
        let mut now = 0u64;
        for _ in 0..n_ops {
            let bank = BankId(rng.gen_range(0u8..16));
            let row = rng.gen_range(0u32..32);
            let is_write = rng.gen_bool(0.5);
            // Close-if-needed, open, access — each step waits for legality.
            if ch.bank(bank).open_row() != Some(row) {
                if ch.bank(bank).is_open() {
                    while !ch.can_pre(bank, now) {
                        now += 1;
                    }
                    ch.issue_pre(bank, now);
                    now += 1;
                }
                while !ch.can_act(bank, now) {
                    now += 1;
                }
                ch.issue_act(bank, row, now);
                now += 1;
            }
            if is_write {
                while !ch.can_write(bank, now) {
                    now += 1;
                }
                ch.issue_write(bank, now);
            } else {
                while !ch.can_read(bank, now) {
                    now += 1;
                }
                ch.issue_read(bank, now);
            }
            now += 1;
            served += 1;
            // Liveness bound: no single access can take longer than a few
            // tRC windows under a single-stream driver.
            assert!(
                now < 1_000 + served * (t.t_rc + t.t_faw),
                "case {case}: stalled at {now}"
            );
        }
        assert_eq!(ch.stats.reads + ch.stats.writes, served, "case {case}");
        assert_eq!(
            ch.stats.data_bus_busy,
            served * t.t_burst * mem.bursts_per_access,
            "case {case}"
        );
        assert!(ch.audit_observed() >= served, "case {case}");
        assert_eq!(
            ch.audit_violation_count(),
            0,
            "case {case}: {:?}",
            ch.audit_violations().unwrap()
        );
    }
}

/// MERB tables are monotone non-increasing in bank count for any
/// plausible timing, and never exceed the 5-bit counter limit.
#[test]
fn merb_monotone() {
    let mut rng = StdRng::seed_from_u64(0x3E2B);
    for case in 0..128 {
        let mut tp = TimingParams::default();
        tp.t_rp_ns = rand_f64(&mut rng, 8.0, 20.0);
        tp.t_rcd_ns = rand_f64(&mut rng, 8.0, 20.0);
        tp.t_rtp_ns = rand_f64(&mut rng, 1.0, 4.0);
        tp.t_faw_ns = rand_f64(&mut rng, 15.0, 40.0);
        tp.t_rrd_ns = rand_f64(&mut rng, 3.0, 10.0);
        let m = ldsim::gddr5::MerbTable::from_timing(&tp, ClockDomain::GDDR5, 16);
        for b in 1..16 {
            assert!(m.get(b) >= m.get(b + 1), "case {case}, banks {b}");
            assert!(m.get(b) <= 31, "case {case}, banks {b}");
        }
    }
}

/// Conservative-epoch lookahead stays sound under randomized timings.
///
/// The multi-cycle epoch free-run (DESIGN.md §18) trusts every component's
/// `next_event(now)` to never exceed its actual next state change — that is
/// what licenses skipping locally-idle stretches inside a window. Sample
/// random legal timing configs, with the refresh interval shrunk far below
/// its datasheet value so refresh edges land *inside* epoch windows, and
/// demand that multi-cycle windows, serial and threaded, stay bit-exact
/// (every counter, every histogram bucket, the FNV trace hash) with the
/// reference cadence (serial, one-cycle windows, fast-forward off, so it
/// ticks every component every cycle and trusts no `next_event`), protocol
/// auditor armed.
/// An optimistic `next_event` anywhere — bank FSM, refresh scheduler,
/// controller queues, L2 latency pipe — diverges the runs or trips a
/// debug assertion.
#[test]
fn epoch_lookahead_sound_under_random_timings() {
    use ldsim::system::Simulator;
    use ldsim::workloads::{benchmark, Scale};

    let mut rng = StdRng::seed_from_u64(0xE90C);
    let cases = if cfg!(debug_assertions) { 3 } else { 8 };
    for case in 0..cases {
        let mut tp = TimingParams::default();
        // Independent draws, with the row-cycle chain kept legal by
        // construction: tRAS covers open-to-restore, tRC = tRAS + tRP.
        tp.t_rcd_ns = rand_f64(&mut rng, 8.0, 18.0);
        tp.t_rp_ns = rand_f64(&mut rng, 8.0, 18.0);
        tp.t_cas_ns = rand_f64(&mut rng, 8.0, 18.0);
        tp.t_rtp_ns = rand_f64(&mut rng, 1.0, 4.0);
        tp.t_wr_ns = rand_f64(&mut rng, 8.0, 16.0);
        tp.t_wtr_ns = rand_f64(&mut rng, 2.0, 8.0);
        tp.t_rrd_ns = rand_f64(&mut rng, 3.0, 9.0);
        tp.t_faw_ns = rand_f64(&mut rng, 15.0, 40.0);
        tp.t_ras_ns = tp.t_rcd_ns + tp.t_rtp_ns + rand_f64(&mut rng, 4.0, 12.0);
        tp.t_rc_ns = tp.t_ras_ns + tp.t_rp_ns;
        // Refresh every few hundred ns instead of 1.9 µs: dozens of
        // refresh edges per run, many of them mid-window.
        tp.t_refi_ns = rand_f64(&mut rng, 200.0, 900.0);
        tp.t_rfc_ns = rand_f64(&mut rng, 60.0, 140.0);

        let (bench, kind) = if case % 2 == 0 {
            ("bfs", SchedulerKind::Gmc)
        } else {
            ("spmv", SchedulerKind::WgW)
        };
        let mut cfg = SimConfig::default()
            .with_scheduler(kind)
            .with_audit()
            .with_trace()
            .with_hist();
        cfg.mem.timing = tp;
        let kernel = benchmark(bench, Scale::Tiny, 90 + case as u64).generate();

        let reference = cfg
            .clone()
            .with_sim_threads(1)
            .with_epoch_max(1)
            .with_fast_forward(false);
        let (serial, serial_trace) = Simulator::new(reference, &kernel).run_traced();
        assert!(serial.finished, "case {case}: serial hit the cycle limit");
        assert_eq!(serial.audit_violations, 0, "case {case}: serial audit");

        for threads in [1, 2] {
            let (epoch, epoch_trace) =
                Simulator::new(cfg.clone().with_sim_threads(threads), &kernel).run_traced();
            assert_eq!(
                epoch, serial,
                "case {case} ({bench}/{kind:?}, {threads} threads): diverged"
            );
            assert_eq!(
                epoch_trace.as_ref().map(|t| t.stable_hash()),
                serial_trace.as_ref().map(|t| t.stable_hash()),
                "case {case} ({bench}/{kind:?}, {threads} threads): trace hash diverged"
            );
        }

        // The comparison is only evidence if multi-cycle windows ran.
        let (_, stats) = Simulator::new(cfg.clone(), &kernel).run_with_sync_stats();
        assert!(
            stats.epoch_cycles > stats.windows,
            "case {case}: no multi-cycle window opened — the property was not exercised"
        );
    }
}

/// Full-system command pressure never trips the auditor: every paper
/// scheduler, under both page policies, runs random small irregular
/// kernels violation-free.
#[test]
fn schedulers_and_page_policies_audit_clean() {
    use ldsim::system::Simulator;
    use ldsim::workloads::{benchmark, Scale};

    for (i, &kind) in ldsim::system::runner::PAPER_SCHEDULERS.iter().enumerate() {
        for policy in [PagePolicy::Open, PagePolicy::Closed] {
            let bench = if i % 2 == 0 { "bfs" } else { "spmv" };
            let kernel = benchmark(bench, Scale::Tiny, 40 + i as u64).generate();
            let mut cfg = SimConfig::default().with_scheduler(kind).with_audit();
            cfg.mem.page_policy = policy;
            let r = Simulator::new(cfg, &kernel).run();
            assert!(r.finished, "{kind:?}/{policy:?} hit the cycle limit");
            assert!(r.audit_commands > 0, "{kind:?}/{policy:?}: auditor idle");
            assert_eq!(
                r.audit_violations, 0,
                "{kind:?}/{policy:?}: protocol violations"
            );
            assert!(
                r.conserves_requests(),
                "{kind:?}/{policy:?}: {} requests vs {} responses",
                r.mem_read_requests,
                r.mem_read_responses
            );
        }
    }
}

mod scheduler_props {
    use ldsim::prelude::*;
    use ldsim::types::ids::LaneMask;
    use ldsim::types::kernel::{Instruction, KernelProgram, WarpProgram};
    use ldsim::util::StdRng;

    /// Build a random-but-valid kernel from a compact seed description.
    fn kernel_from(spec: &[(u8, u8)]) -> KernelProgram {
        let mut programs = vec![Vec::new(), Vec::new()];
        for (i, (pattern, n_mem)) in spec.iter().enumerate() {
            let mut insns = Vec::new();
            for j in 0..(*n_mem % 6 + 1) {
                insns.push(Instruction::Delay(20 + (*pattern as u32) * 7));
                let mut addrs = [0u64; 32];
                for (l, a) in addrs.iter_mut().enumerate() {
                    let cluster = l / (4 + (*pattern as usize % 4));
                    *a = ((i * 131 + j as usize * 17 + cluster * 29) as u64 % 4096) * 4096;
                }
                if pattern % 5 == 0 {
                    insns.push(Instruction::Store {
                        addrs: Box::new(addrs),
                        mask: LaneMask::ALL,
                    });
                } else {
                    insns.push(Instruction::Load {
                        addrs: Box::new(addrs),
                        mask: LaneMask::ALL,
                    });
                }
            }
            programs[i % 2].push(WarpProgram::new(insns));
        }
        KernelProgram {
            name: "prop".into(),
            programs,
        }
    }

    /// No scheduler loses or duplicates work: same retired instruction
    /// count for every policy on any kernel, and every run terminates.
    #[test]
    fn no_scheduler_loses_work() {
        let mut rng = StdRng::seed_from_u64(0x70D0);
        for case in 0..12 {
            let n = rng.gen_range(2usize..10);
            let spec: Vec<(u8, u8)> = (0..n)
                .map(|_| (rng.gen_range(0u8..8), rng.gen_range(0u8..8)))
                .collect();
            let kernel = kernel_from(&spec);
            let total = kernel.total_instructions();
            let mut counts = Vec::new();
            for k in [
                SchedulerKind::Fcfs,
                SchedulerKind::Gmc,
                SchedulerKind::Wafcfs,
                SchedulerKind::Wg,
                SchedulerKind::WgW,
                SchedulerKind::ZeroDivergence,
            ] {
                let mut cfg = SimConfig::default().with_scheduler(k);
                cfg.max_cycles = 3_000_000;
                let r = Simulator::new(cfg, &kernel).run();
                assert!(r.finished, "case {case}: {k:?} hit the cycle limit");
                assert_eq!(r.instructions, total, "case {case}: {k:?}");
                counts.push(r.loads);
            }
            assert!(
                counts.windows(2).all(|w| w[0] == w[1]),
                "case {case}: load counts diverged: {counts:?}"
            );
        }
    }
}
