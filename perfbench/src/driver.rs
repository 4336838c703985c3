//! The traced machine: `Simulator` rebuilt from the simulator's public
//! pieces, so the benchmark can time each layer from outside the program.
//!
//! [`TracedSim::new`] assembles the machine the way `Simulator::new` does,
//! from `Sm::new`, `Crossbar::new`, `Partition::new`, `Controller::new` and
//! `CoordNetwork::new`, wrapping each controller's policy in the timing
//! [`TimedPolicy`] decorator. [`TracedSim::run`] steps it in
//! `Simulator::step`'s order through the public per-cycle calls and skips
//! idle gaps through the components' `next_event` / `skip`, exactly as the
//! serial main loop does. Each phase runs inside a [`span`]; the outcome
//! carries the counts the per-layer metrics need and the simulated work
//! that must match `Simulator::run` bit for bit.
//!
//! Supported: the serial loop (one simulation thread) under any scheduler
//! except the zero-divergence ideal, without perfect coalescing, audit,
//! event trace or histograms — the configurations the benchmark runs.

use crate::span::{bump, span, Count, Layer};
use ldsim_gddr5::{Channel, MerbTable};
use ldsim_gpu::sm::{Sm, SmResponse};
use ldsim_gpu::xbar::Crossbar;
use ldsim_memctrl::{Controller, CoordMsg, Policy, PolicyView};
use ldsim_system::partition::Partition;
use ldsim_system::RunResult;
use ldsim_types::addr::AddressMapper;
use ldsim_types::clock::Cycle;
use ldsim_types::config::{SchedulerKind, SimConfig};
use ldsim_types::ids::{ChannelId, SmId, WarpGroupId};
use ldsim_types::kernel::KernelProgram;
use ldsim_types::req::{MemRequest, MemResponse, ReqKind};
use ldsim_warpsched::{make_policy, CoordNetwork};

/// A [`Policy`] that forwards every call to the policy it wraps, timing
/// `pick` as [`Layer::PolicyPick`] and the other state-changing calls as
/// [`Layer::PolicyOther`]. The cheap queries (`name`, `pending`,
/// `wants_writes`, `counters`) are forwarded untimed.
pub struct TimedPolicy {
    inner: Box<dyn Policy>,
}

impl TimedPolicy {
    pub fn new(inner: Box<dyn Policy>) -> Self {
        Self { inner }
    }
}

impl Policy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_arrival(&mut self, req: MemRequest, now: Cycle) {
        let _s = span(Layer::PolicyOther);
        self.inner.on_arrival(req, now);
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn pick(&mut self, view: &PolicyView<'_>) -> Option<MemRequest> {
        let _s = span(Layer::PolicyPick);
        let picked = self.inner.pick(view);
        bump(Count::PickCalls);
        if picked.is_some() {
            bump(Count::PickHits);
        }
        picked
    }

    fn remove_group(&mut self, wg: WarpGroupId) -> Vec<MemRequest> {
        let _s = span(Layer::PolicyOther);
        self.inner.remove_group(wg)
    }

    fn on_coord(&mut self, msg: CoordMsg, now: Cycle) {
        let _s = span(Layer::PolicyOther);
        self.inner.on_coord(msg, now);
    }

    fn on_shared(&mut self, wg: WarpGroupId) {
        let _s = span(Layer::PolicyOther);
        self.inner.on_shared(wg);
    }

    fn emit_coord(&mut self, out: &mut Vec<CoordMsg>) {
        let _s = span(Layer::PolicyOther);
        self.inner.emit_coord(out);
    }

    fn wants_writes(&self) -> bool {
        self.inner.wants_writes()
    }

    fn has_pending_for_bank(&self, bank: usize) -> bool {
        let _s = span(Layer::PolicyOther);
        self.inner.has_pending_for_bank(bank)
    }

    fn counters(&self) -> [u64; 4] {
        self.inner.counters()
    }
}

/// The simulated work of one run — the fields `Simulator::run` must agree
/// on — plus the counts behind the per-layer metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    pub cycles: Cycle,
    pub finished: bool,
    /// Retired instructions, clamped to the run's budget like `RunResult`.
    pub instructions: u64,
    pub read_requests: u64,
    pub read_responses: u64,
    pub counts: LayerCounts,
}

impl Outcome {
    /// The comparable part of `r`, laid out like [`Self::work`].
    pub fn work_of(r: &RunResult) -> [u64; 8] {
        [
            r.cycles,
            r.finished as u64,
            r.instructions,
            r.dram_reads,
            r.dram_writes,
            r.mem_read_requests,
            r.mem_read_responses,
            r.dropped_requests,
        ]
    }

    pub fn work(&self) -> [u64; 8] {
        [
            self.cycles,
            self.finished as u64,
            self.instructions,
            self.counts.dram_reads,
            self.counts.dram_writes,
            self.read_requests,
            self.read_responses,
            self.counts.inject_failed,
        ]
    }
}

/// Counts taken at the layer boundaries the driver crosses.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCounts {
    pub stepped_cycles: u64,
    pub skipped_cycles: u64,
    pub sm_ticks: u64,
    /// Raw retired instructions (not clamped to the budget).
    pub sm_insns: u64,
    pub sm_reqs_out: u64,
    pub l1_hits: u64,
    pub l1_accesses: u64,
    pub xbar_req_delivered: u64,
    /// Acceptance checks the request crossbar made before delivering.
    pub xbar_req_checks: u64,
    pub inject_failed: u64,
    /// Partition-cycles with no input room when the request crossbar ticked.
    pub input_full: u64,
    pub partition_cycles: u64,
    pub l2_hits: u64,
    pub l2_accesses: u64,
    pub dram_reads: u64,
    pub dram_writes: u64,
    pub drain_cycles: u64,
    pub read_latency_sum: u64,
    pub read_latency_cnt: u64,
    pub coord_msgs: u64,
}

/// The machine of `Simulator`, assembled from its public parts.
pub struct TracedSim {
    cfg: SimConfig,
    sms: Vec<Sm>,
    partitions: Vec<Partition>,
    req_xbar: Crossbar<MemRequest>,
    resp_xbar: Crossbar<SmResponse>,
    coord: CoordNetwork,
    coordinating: bool,
    sm_out: Vec<MemRequest>,
    sm_spans: Vec<(usize, usize)>,
    room: Vec<usize>,
    resp_bufs: Vec<Vec<MemResponse>>,
    coord_bufs: Vec<Vec<CoordMsg>>,
    counts: LayerCounts,
    read_requests: u64,
    read_responses: u64,
}

impl TracedSim {
    /// `Simulator::new`, piece by piece.
    pub fn new(mut cfg: SimConfig, kernel: &KernelProgram) -> Self {
        assert!(
            cfg.scheduler != SchedulerKind::ZeroDivergence && !cfg.perfect_coalescing,
            "the traced driver does not model the Fig. 4 ideal machines"
        );
        assert!(
            !cfg.audit && !cfg.trace && !cfg.hist,
            "the traced driver runs without audit, event trace or histograms"
        );
        cfg.gpu.num_sms = kernel.programs.len();
        let mapper = AddressMapper::new(&cfg.mem, cfg.gpu.l1.line_bytes);
        let timing = cfg.mem.timing.in_cycles(cfg.clock);
        let merb = MerbTable::from_timing(&cfg.mem.timing, cfg.clock, cfg.mem.banks_per_channel);
        let sms: Vec<Sm> = kernel
            .programs
            .iter()
            .enumerate()
            .map(|(i, progs)| Sm::new(SmId(i as u16), &cfg.gpu, mapper, progs.clone()))
            .collect();
        let partitions: Vec<Partition> = (0..cfg.mem.num_channels)
            .map(|c| {
                let policy = Box::new(TimedPolicy::new(make_policy(cfg.scheduler, &cfg.mem)));
                let ctrl = Controller::new(
                    ChannelId(c as u8),
                    &cfg.mem,
                    Channel::new(&cfg.mem, timing),
                    policy,
                    merb.clone(),
                    false,
                );
                Partition::new(
                    ChannelId(c as u8),
                    &cfg.gpu.l2_slice,
                    &cfg.mem,
                    ctrl,
                    cfg.gpu.l2_bypass,
                )
            })
            .collect();
        let (num_sms, num_ch) = (sms.len(), partitions.len());
        Self {
            req_xbar: Crossbar::new(num_sms, num_ch, cfg.gpu.xbar_latency, cfg.gpu.xbar_queue),
            resp_xbar: Crossbar::new(
                num_ch,
                num_sms,
                cfg.gpu.xbar_latency,
                cfg.gpu.xbar_queue * 4,
            ),
            coord: CoordNetwork::new(num_ch, cfg.mem.coord_latency),
            coordinating: cfg.scheduler.coordinates(),
            sms,
            partitions,
            cfg,
            sm_out: Vec::new(),
            sm_spans: Vec::new(),
            room: Vec::new(),
            resp_bufs: vec![Vec::new(); num_ch],
            coord_bufs: vec![Vec::new(); num_ch],
            counts: LayerCounts::default(),
            read_requests: 0,
            read_responses: 0,
        }
    }

    /// `Simulator::run`'s serial main loop.
    pub fn run(mut self) -> Outcome {
        let mut now: Cycle = 0;
        let mut finished = false;
        let limit = self.cfg.instruction_limit.unwrap_or(u64::MAX);
        let max = self.cfg.max_cycles;
        while now < max {
            self.step(now);
            if (now + 1).is_multiple_of(512) {
                for p in &mut self.partitions {
                    p.sample_activity();
                }
            }
            if self.sms.iter().all(|s| s.done())
                || self.sms.iter().map(|s| s.retired).sum::<u64>() >= limit
            {
                finished = true;
                break;
            }
            now += 1;
            if self.cfg.fast_forward {
                let target = {
                    let _s = span(Layer::HubNextEvent);
                    self.horizon(now).map_or(max, |h| h.min(max))
                };
                if target > now {
                    let _s = span(Layer::HubSkip);
                    self.skip(now, target);
                    self.counts.skipped_cycles += target - now;
                    now = target;
                }
            }
        }
        self.collect(now.max(1), finished, limit)
    }

    /// `Simulator::step`: controllers, coordination, L2 slices, response
    /// crossbar, SM issue, request crossbar.
    fn step(&mut self, now: Cycle) {
        self.counts.stepped_cycles += 1;
        let coordinating = self.coordinating;
        {
            // The controllers of different partitions share nothing, so
            // ticking them all before any L2 slice keeps the per-partition
            // order `Simulator::step` uses.
            let _s = span(Layer::Memctrl);
            for (i, p) in self.partitions.iter_mut().enumerate() {
                p.ctrl.tick(now);
                if coordinating {
                    p.ctrl.drain_coord(&mut self.coord_bufs[i]);
                }
                p.ctrl.drain_responses(&mut self.resp_bufs[i]);
            }
        }
        if coordinating {
            let _s = span(Layer::Coord);
            for (i, msgs) in self.coord_bufs.iter_mut().enumerate() {
                for m in msgs.drain(..) {
                    self.coord.broadcast(i, m, now);
                }
            }
            let partitions = &mut self.partitions;
            self.coord.deliver(now, |dst, msg| {
                let _s = span(Layer::Memctrl);
                partitions[dst].ctrl.deliver_coord(msg, now);
            });
        }
        {
            let _s = span(Layer::Partition);
            for (i, p) in self.partitions.iter_mut().enumerate() {
                for resp in self.resp_bufs[i].drain(..) {
                    p.on_ctrl_response(&resp, now);
                }
                p.tick(now);
            }
        }
        {
            let _s = span(Layer::XbarResp);
            for (pi, p) in self.partitions.iter_mut().enumerate() {
                while !p.to_sm.is_empty() && self.resp_xbar.free_space(pi) > 0 {
                    let (_, sm, resp) = p.to_sm.pop_front().expect("checked non-empty");
                    if !self.resp_xbar.inject(pi, sm, resp) {
                        self.counts.inject_failed += 1;
                    }
                }
            }
            let sms = &mut self.sms;
            let responses = &mut self.read_responses;
            self.resp_xbar.tick(
                now,
                |_| true,
                |sm, resp| {
                    *responses += 1;
                    let _s = span(Layer::Sm);
                    sms[sm].accept_response(resp, now);
                },
            );
        }
        {
            // Each SM sees only its own injection queue's free space, so
            // ticking every SM before injecting any request is the same as
            // `Simulator::step`'s tick-then-inject per SM.
            let _s = span(Layer::Sm);
            self.sm_out.clear();
            self.sm_spans.clear();
            for (si, sm) in self.sms.iter_mut().enumerate() {
                let from = self.sm_out.len();
                sm.tick(now, self.req_xbar.free_space(si), &mut self.sm_out);
                self.sm_spans.push((from, self.sm_out.len()));
            }
            self.counts.sm_ticks += self.sms.len() as u64;
            self.counts.sm_reqs_out += self.sm_out.len() as u64;
        }
        let _s = span(Layer::XbarReq);
        for (si, &(from, to)) in self.sm_spans.iter().enumerate() {
            for r in &self.sm_out[from..to] {
                if !self.req_xbar.inject(si, r.decoded.channel.0 as usize, *r) {
                    self.counts.inject_failed += 1;
                }
            }
        }
        self.room.clear();
        self.room
            .extend(self.partitions.iter().map(|p| p.input_room()));
        self.counts.partition_cycles += self.room.len() as u64;
        self.counts.input_full += self.room.iter().filter(|&&r| r == 0).count() as u64;
        let room = &mut self.room;
        let partitions = &mut self.partitions;
        let counts = &mut self.counts;
        let requests = &mut self.read_requests;
        let checks = &mut 0u64;
        self.req_xbar.tick(
            now,
            |dst| {
                *checks += 1;
                if room[dst] > 0 {
                    room[dst] -= 1;
                    true
                } else {
                    false
                }
            },
            |dst, req| {
                counts.xbar_req_delivered += 1;
                if req.kind == ReqKind::Read {
                    *requests += 1;
                }
                let _s = span(Layer::Partition);
                partitions[dst].accept(req);
            },
        );
        counts.xbar_req_checks += *checks;
    }

    /// `Simulator::horizon`: the earliest cycle any component can act,
    /// returning `now` as soon as one component is pinned there.
    fn horizon(&self, now: Cycle) -> Option<Cycle> {
        let mut ev: Option<Cycle> = None;
        let events = [
            self.req_xbar.next_event(now),
            self.resp_xbar.next_event(now),
        ]
        .into_iter()
        .chain(self.coordinating.then(|| self.coord.next_event(now)))
        .chain(self.partitions.iter().map(|p| p.next_event(now)))
        .chain(self.sms.iter().map(|s| s.next_event(now)));
        for c in events.flatten() {
            if c <= now {
                return Some(now);
            }
            ev = Some(ev.map_or(c, |e| e.min(c)));
        }
        ev
    }

    /// `Simulator::skip_idle_cycles`.
    fn skip(&mut self, now: Cycle, target: Cycle) {
        for sm in &mut self.sms {
            sm.skip(now, target);
        }
        self.req_xbar.skip(target - now);
        self.resp_xbar.skip(target - now);
        let samples = target / 512 - now / 512;
        if samples > 0 {
            for p in &mut self.partitions {
                p.sample_activity_many(samples);
            }
        }
    }

    fn collect(self, cycles: Cycle, finished: bool, budget: u64) -> Outcome {
        let mut counts = self.counts;
        for sm in &self.sms {
            counts.sm_insns += sm.retired;
            let s = sm.l1_stats();
            counts.l1_hits += s.hits;
            counts.l1_accesses += s.hits + s.misses;
        }
        for p in &self.partitions {
            let cs = &p.ctrl.channel.stats;
            counts.dram_reads += cs.reads + cs.fast_reads;
            counts.dram_writes += cs.writes;
            counts.l2_hits += p.l2.stats.hits;
            counts.l2_accesses += p.l2.stats.hits + p.l2.stats.misses;
            counts.drain_cycles += p.ctrl.stats.drain_cycles;
            counts.read_latency_sum += p.ctrl.stats.read_latency_sum;
            counts.read_latency_cnt += p.ctrl.stats.read_latency_cnt;
        }
        counts.coord_msgs = self.coord.messages_sent;
        Outcome {
            cycles,
            finished,
            instructions: counts.sm_insns.min(budget),
            read_requests: self.read_requests,
            read_responses: self.read_responses,
            counts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::run_config;
    use ldsim_memctrl::{BankSnapshot, GroupTracker};
    use ldsim_system::Simulator;
    use ldsim_types::clock::ClockDomain;
    use ldsim_types::config::TimingParams;
    use ldsim_types::ids::GlobalWarpId;
    use ldsim_workloads::{benchmark, Scale};
    use std::sync::{Arc, Mutex};

    fn driver_matches_simulator(bench: &str, kind: SchedulerKind) {
        let kernel = benchmark(bench, Scale::Tiny, 3).generate();
        let expect = Simulator::new(run_config(&kernel, kind), &kernel).run();
        crate::span::start();
        crate::span::begin_unit(format!("{bench}/{kind:?}"));
        let got = TracedSim::new(run_config(&kernel, kind), &kernel).run();
        let rec = crate::span::finish();
        assert_eq!(
            got.work(),
            Outcome::work_of(&expect),
            "{bench} under {kind:?}"
        );
        assert!(got.counts.stepped_cycles > 0);
        assert_eq!(got.counts.sm_insns.min(got.instructions), got.instructions);
        let unit = &rec.units[0];
        assert!(
            unit.calls(Layer::PolicyPick) > 0,
            "the decorator timed picks"
        );
        assert_eq!(
            unit.calls(Layer::PolicyPick),
            unit.count(Count::PickCalls),
            "one span per pick"
        );
        if kind.coordinates() {
            assert!(got.counts.coord_msgs > 0, "coordination exercised");
            assert!(unit.calls(Layer::Coord) > 0);
        }
    }

    #[test]
    fn driver_matches_simulator_gmc_tiny() {
        driver_matches_simulator("spmv", SchedulerKind::Gmc);
        driver_matches_simulator("nw", SchedulerKind::Gmc);
    }

    #[test]
    fn driver_matches_simulator_wgw_tiny() {
        driver_matches_simulator("spmv", SchedulerKind::WgW);
        driver_matches_simulator("nw", SchedulerKind::WgW);
    }

    /// A policy whose every answer differs from the trait's defaults, and
    /// which logs each call it receives.
    struct Probe(Arc<Mutex<Vec<&'static str>>>);

    fn req(tag: u64) -> MemRequest {
        let mem = SimConfig::default().mem;
        MemRequest {
            id: ldsim_types::ids::RequestId(tag),
            kind: ReqKind::Read,
            line_addr: tag,
            decoded: AddressMapper::new(&mem, 128).decode(tag * 128),
            wg: WarpGroupId::new(GlobalWarpId::new(1, 2), 3),
            last_of_group: true,
            group_size_on_channel: 1,
            issue_cycle: 0,
            arrival_cycle: 0,
        }
    }

    impl Policy for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn on_arrival(&mut self, _: MemRequest, now: Cycle) {
            assert_eq!(now, 11);
            self.0.lock().expect("probe log").push("on_arrival");
        }
        fn pending(&self) -> usize {
            7
        }
        fn pick(&mut self, view: &PolicyView<'_>) -> Option<MemRequest> {
            assert_eq!(view.now, 13);
            self.0.lock().expect("probe log").push("pick");
            Some(req(5))
        }
        fn remove_group(&mut self, _: WarpGroupId) -> Vec<MemRequest> {
            self.0.lock().expect("probe log").push("remove_group");
            vec![req(6), req(7)]
        }
        fn on_coord(&mut self, msg: CoordMsg, _: Cycle) {
            assert_eq!(msg.score, 9);
            self.0.lock().expect("probe log").push("on_coord");
        }
        fn on_shared(&mut self, _: WarpGroupId) {
            self.0.lock().expect("probe log").push("on_shared");
        }
        fn emit_coord(&mut self, out: &mut Vec<CoordMsg>) {
            self.0.lock().expect("probe log").push("emit_coord");
            out.push(CoordMsg {
                wg: WarpGroupId::new(GlobalWarpId::new(0, 1), 2),
                score: 4,
            });
        }
        fn wants_writes(&self) -> bool {
            true
        }
        fn has_pending_for_bank(&self, bank: usize) -> bool {
            bank == 3
        }
        fn counters(&self) -> [u64; 4] {
            [1, 2, 3, 4]
        }
    }

    #[test]
    fn timed_policy_forwards_every_method() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut p = TimedPolicy::new(Box::new(Probe(log.clone())));
        let wg = WarpGroupId::new(GlobalWarpId::new(1, 2), 3);
        assert_eq!(p.name(), "probe");
        assert_eq!(p.pending(), 7);
        assert!(p.wants_writes());
        assert!(p.has_pending_for_bank(3) && !p.has_pending_for_bank(2));
        assert_eq!(p.counters(), [1, 2, 3, 4]);
        p.on_arrival(req(1), 11);
        let banks = vec![BankSnapshot::default(); 16];
        let groups = GroupTracker::default();
        let merb = MerbTable::from_timing(&TimingParams::default(), ClockDomain::GDDR5, 16);
        let view = PolicyView {
            now: 13,
            banks: &banks,
            groups: &groups,
            write_q_len: 0,
            write_hi: 32,
            wgw_margin: 8,
            merb: &merb,
        };
        assert_eq!(p.pick(&view).map(|r| r.id), Some(req(5).id));
        let removed: Vec<_> = p.remove_group(wg).iter().map(|r| r.id).collect();
        assert_eq!(removed, vec![req(6).id, req(7).id]);
        p.on_coord(CoordMsg { wg, score: 9 }, 12);
        p.on_shared(wg);
        let mut out = Vec::new();
        p.emit_coord(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].score, 4);
        assert_eq!(
            *log.lock().expect("probe log"),
            [
                "on_arrival",
                "pick",
                "remove_group",
                "on_coord",
                "on_shared",
                "emit_coord"
            ]
        );
    }
}
