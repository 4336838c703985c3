//! DRAM protocol conformance: the full scheduler ladder runs violation-free
//! under the independent timing auditor, and the differential harness
//! (conservation + conformance + reproducibility) passes for every paper
//! scheduler on a spread of benchmarks.

use ldsim::prelude::*;
use ldsim::system::differential_check;
use ldsim::system::runner::LADDER;

#[test]
fn ladder_runs_violation_free_at_tiny() {
    for bench in ["bfs", "spmv", "sssp", "nw", "kmeans"] {
        for &kind in LADDER {
            let kernel = benchmark(bench, Scale::Tiny, 19).generate();
            let cfg = SimConfig::default().with_scheduler(kind).with_audit();
            let r = Simulator::new(cfg, &kernel).run();
            assert!(r.finished, "{bench}/{kind:?} did not finish");
            assert!(r.audit_commands > 0, "{bench}/{kind:?}: auditor idle");
            assert_eq!(
                r.audit_violations, 0,
                "{bench}/{kind:?}: {} protocol violation(s) in {} commands",
                r.audit_violations, r.audit_commands
            );
        }
    }
}

#[test]
fn ladder_runs_violation_free_at_small() {
    // One Small-scale pass over a shorter benchmark spread (Small runs are
    // ~20x Tiny): refresh windows, write drains, and L2 evictions all occur
    // at this scale, exercising auditor paths Tiny never reaches.
    for bench in ["bfs", "nw"] {
        for &kind in [SchedulerKind::Gmc, SchedulerKind::WgW].iter() {
            let kernel = benchmark(bench, Scale::Small, 19).generate();
            let cfg = SimConfig::default().with_scheduler(kind).with_audit();
            let r = Simulator::new(cfg, &kernel).run();
            assert!(r.finished, "{bench}/{kind:?} did not finish");
            assert_eq!(
                r.audit_violations, 0,
                "{bench}/{kind:?}: protocol violations at Small scale"
            );
        }
    }
}

#[test]
fn differential_harness_clean_across_benchmarks() {
    // Conservation + conformance + bit-exact reproducibility for every
    // paper scheduler, on four benchmarks covering both workload classes.
    for (bench, seed) in [("bfs", 2u64), ("spmv", 3), ("nw", 5), ("bp", 7)] {
        let report = differential_check(
            bench,
            Scale::Tiny,
            seed,
            ldsim::system::runner::PAPER_SCHEDULERS,
        );
        assert!(report.all_clean(), "{bench}: {:?}", report.failures());
    }
}

#[test]
fn auditor_catches_injected_illegal_commands() {
    // Prove the watchdog actually bites: drive a channel-shaped command
    // stream into a standalone auditor with deliberate violations and
    // check each is diagnosed with the right rule.
    use ldsim::gddr5::{CmdEvent, CmdKind, Rule, TimingAuditor};
    use ldsim::types::clock::ClockDomain;
    use ldsim::types::config::{MemConfig, TimingParams};

    let mem = MemConfig::default();
    let t = TimingParams::default().in_cycles(ClockDomain::GDDR5);
    let mut audit = TimingAuditor::new(&mem, t);

    // Legal ACT, then a READ one cycle before tRCD elapses.
    audit.observe(&CmdEvent {
        cycle: 0,
        kind: CmdKind::Act,
        bank: 0,
        row: 7,
    });
    audit.observe(&CmdEvent {
        cycle: t.t_rcd - 1,
        kind: CmdKind::Read,
        bank: 0,
        row: 7,
    });
    assert_eq!(audit.violation_count(), 1);
    assert_eq!(audit.violations()[0].rule, Rule::TRcd);

    // Reading a bank that was never activated (the BankOpen precondition).
    audit.observe(&CmdEvent {
        cycle: 10_000,
        kind: CmdKind::Read,
        bank: 5,
        row: 0,
    });
    assert!(audit
        .violations()
        .iter()
        .any(|v| v.rule == Rule::BankOpen && v.bank == 5));
}
