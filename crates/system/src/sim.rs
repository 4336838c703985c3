//! The cycle-level full-system simulator.

use crate::metrics::{LoadAgg, RunHists, RunResult};
use crate::partition::Partition;
use crate::trace::{Trace, WgEvent, WgStage};
use ldsim_gddr5::{Channel, MerbTable, PowerModel, PowerParams};
use ldsim_gpu::sm::{Sm, SmResponse};
use ldsim_gpu::xbar::Crossbar;
use ldsim_memctrl::Controller;
use ldsim_types::addr::AddressMapper;
use ldsim_types::clock::Cycle;
use ldsim_types::config::{SchedulerKind, SimConfig};
use ldsim_types::ids::{ChannelId, SmId, WarpGroupId};
use ldsim_types::kernel::KernelProgram;
use ldsim_util::{BarrierPool, FnvHashSet};
use ldsim_warpsched::{make_policy, CoordNetwork};

/// Synchronization accounting for a run: how often the partitions had to
/// rendezvous with the hub, and how many cycles those epoch windows
/// covered. Returned by [`Simulator::run_with_sync_stats`]; deliberately
/// *not* part of [`RunResult`], which is compared bit-for-bit across
/// execution strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SyncStats {
    /// Epoch windows executed — one partition hand-off each (a pool
    /// barrier when threaded).
    pub windows: u64,
    /// Cycles covered by the windows (so `epoch_cycles / windows` is the
    /// mean window length); fast-forwarded cycles lie in no window.
    pub epoch_cycles: u64,
}

/// Warn once per process when the resolved simulation thread count exceeds
/// the partition count — extra workers would only spin at every barrier.
/// Same warn-once discipline as the invalid `LDSIM_SIM_THREADS` warning.
fn warn_threads_capped(requested: usize, num_ch: usize) {
    use std::sync::atomic::{AtomicBool, Ordering};
    static WARNED: AtomicBool = AtomicBool::new(false);
    if !WARNED.swap(true, Ordering::Relaxed) {
        eprintln!(
            "warning: {requested} simulation threads requested (--threads / LDSIM_SIM_THREADS) \
             but the machine has only {num_ch} memory partitions; capping at {num_ch}"
        );
    }
}

/// The assembled machine.
pub struct Simulator {
    cfg: SimConfig,
    sms: Vec<Sm>,
    partitions: Vec<Partition>,
    req_xbar: Crossbar<ldsim_types::req::MemRequest>,
    resp_xbar: Crossbar<SmResponse>,
    coord: CoordNetwork,
    zero_div: bool,
    fast_seen: FnvHashSet<WarpGroupId>,
    benchmark: String,
    /// Intra-run partition pool: `None` free-runs the partitions inline
    /// in channel order, `Some` stripes them over persistent workers with
    /// one barrier per epoch window — bit-exact with serial by
    /// construction (see DESIGN.md §17). Width resolves from
    /// `cfg.sim_threads`, falling back to the process-wide `--threads` /
    /// `LDSIM_SIM_THREADS` setting, capped at the partition count; the
    /// default is serial.
    pool: Option<BarrierPool>,
    // Scratch buffer reused every cycle.
    sm_out: Vec<ldsim_types::req::MemRequest>,
    // Conservation counters (always on; two u64 increments per event).
    mem_read_requests: u64,
    mem_read_responses: u64,
    /// Requests dropped by a failed crossbar injection. Always zero in a
    /// healthy run — injection sites check free space first — but counted
    /// (not `debug_assert!`ed away) so a release build surfaces the loss as
    /// a hard error instead of silently corrupting results.
    lost_requests: u64,
    /// Warp-group lifecycle events (populated only when `cfg.trace`).
    wg_events: Vec<WgEvent>,
    /// Scratch for [`Crossbar::min_arrival_per_dst`] over the response
    /// crossbar — reused across epoch-window computations.
    resp_arrival_buf: Vec<Option<Cycle>>,
    /// Scratch for per-SM [`Sm::budget_lookahead`] triples, reused by the
    /// epoch window's instruction-budget bound.
    budget_buf: Vec<(u64, u64, u64)>,
    /// Next global grant sequence number for request-crossbar arrivals
    /// pre-distributed to the partitions (see [`Self::run_epoch`]).
    grant_seq: u64,
    // Synchronization accounting (see [`SyncStats`]).
    epoch_windows: u64,
    epoch_cycles: u64,
}

impl Simulator {
    /// Build a simulator for `kernel` under `cfg`. The number of SMs is
    /// taken from the kernel (one program list per SM); `cfg.gpu.num_sms`
    /// is updated to match.
    ///
    /// # Panics
    ///
    /// If `cfg.gpu.xbar_latency` or `cfg.mem.coord_latency` is zero. The
    /// epoch loop's lookahead is those latencies: a zero-latency crossbar
    /// would deliver inside the window that granted it, and a zero-latency
    /// coordination hop would land in the cycle it was sent, which every
    /// window (W = 1 included) defers to the next cycle (DESIGN.md §18).
    ///
    /// If `cfg.gpu.l1.mshr_entries` is below the 32-lane warp width: a load
    /// coalesces to up to one line per lane and issues only when the L1
    /// MSHR can take all of its new lines at once, so a wider gather could
    /// never issue and its warp would spin to `max_cycles`.
    ///
    /// If the memory geometry is one [`AddressMapper::new`] rejects.
    pub fn new(mut cfg: SimConfig, kernel: &KernelProgram) -> Self {
        assert!(
            cfg.gpu.xbar_latency >= 1,
            "xbar_latency must be at least 1 cycle: the epoch loop needs crossbar lookahead"
        );
        assert!(
            cfg.mem.coord_latency >= 1,
            "coord_latency must be at least 1 cycle: the epoch loop needs coordination lookahead"
        );
        assert!(
            cfg.gpu.l1.mshr_entries >= 32,
            "l1.mshr_entries must be at least the 32-lane warp width: a load may need one \
             entry per lane, got {}",
            cfg.gpu.l1.mshr_entries
        );
        cfg.gpu.num_sms = kernel.programs.len();
        let mapper = AddressMapper::new(&cfg.mem, cfg.gpu.l1.line_bytes);
        let timing = cfg.mem.timing.in_cycles(cfg.clock);
        let merb = MerbTable::from_timing(&cfg.mem.timing, cfg.clock, cfg.mem.banks_per_channel);
        let zero_div = cfg.scheduler == SchedulerKind::ZeroDivergence;

        let sms: Vec<Sm> = kernel
            .programs
            .iter()
            .enumerate()
            .map(|(i, progs)| {
                let mut progs = progs.clone();
                if cfg.perfect_coalescing {
                    // Fig. 4's Perfect Coalescing model: every load/store
                    // collapses to a single line (all lanes read lane 0's
                    // line).
                    for w in &mut progs {
                        for insn in &mut w.insns {
                            match insn {
                                ldsim_types::kernel::Instruction::Load { addrs, .. }
                                | ldsim_types::kernel::Instruction::Store { addrs, .. } => {
                                    let base = addrs[0];
                                    **addrs = [base; 32];
                                }
                                _ => {}
                            }
                        }
                    }
                }
                Sm::new(SmId(i as u16), &cfg.gpu, mapper, progs)
            })
            .collect();

        let partitions: Vec<Partition> = (0..cfg.mem.num_channels)
            .map(|c| {
                let mut ch = Channel::new(&cfg.mem, timing);
                if cfg.audit {
                    ch.enable_audit();
                }
                if cfg.trace {
                    ch.enable_cmd_log();
                }
                let policy = make_policy(cfg.scheduler, &cfg.mem);
                let ctrl = Controller::new(
                    ChannelId(c as u8),
                    &cfg.mem,
                    ch,
                    policy,
                    merb.clone(),
                    zero_div,
                );
                let mut part = Partition::new(
                    ChannelId(c as u8),
                    &cfg.gpu.l2_slice,
                    &cfg.mem,
                    ctrl,
                    cfg.gpu.l2_bypass,
                );
                if cfg.hist {
                    part.enable_hist();
                }
                part
            })
            .collect();

        let num_sms = sms.len();
        let num_ch = partitions.len();
        let requested = match cfg.sim_threads {
            0 => ldsim_util::sim_threads(),
            n => n,
        };
        let threads = requested.min(num_ch);
        if requested > num_ch {
            warn_threads_capped(requested, num_ch);
        }
        let pool = (threads > 1).then(|| BarrierPool::new(threads));
        Self {
            req_xbar: Crossbar::new(num_sms, num_ch, cfg.gpu.xbar_latency, cfg.gpu.xbar_queue),
            resp_xbar: Crossbar::new(
                num_ch,
                num_sms,
                cfg.gpu.xbar_latency,
                cfg.gpu.xbar_queue * 4,
            ),
            coord: CoordNetwork::new(num_ch, cfg.mem.coord_latency),
            zero_div,
            fast_seen: FnvHashSet::default(),
            benchmark: kernel.name.clone(),
            sms,
            partitions,
            cfg,
            pool,
            sm_out: Vec::new(),
            mem_read_requests: 0,
            mem_read_responses: 0,
            lost_requests: 0,
            wg_events: Vec::new(),
            resp_arrival_buf: Vec::new(),
            budget_buf: Vec::new(),
            grant_seq: 0,
            epoch_windows: 0,
            epoch_cycles: 0,
        }
    }

    /// Like [`Self::run`], but also returns every per-load record (for
    /// trace export and offline analysis).
    pub fn run_with_records(self) -> (RunResult, Vec<ldsim_gpu::sm::LoadRecord>) {
        let mut sim = self;
        let (end, finished) = sim.run_core();
        let records: Vec<ldsim_gpu::sm::LoadRecord> = sim
            .sms
            .iter()
            .flat_map(|s| s.records.iter().copied())
            .collect();
        (sim.collect(end, finished), records)
    }

    /// Run to completion (all warps retired) or the cycle limit; collect the
    /// full metric set.
    pub fn run(self) -> RunResult {
        self.run_traced().0
    }

    /// Like [`Self::run`], but also returns the assembled event [`Trace`]
    /// (None unless the config enabled tracing).
    pub fn run_traced(mut self) -> (RunResult, Option<Trace>) {
        let (end, finished) = self.run_core();
        self.collect_full(end, finished)
    }

    /// Like [`Self::run`], but also returns the run's [`SyncStats`] —
    /// epoch-window accounting for the perf report and the CI gate. The
    /// `RunResult` is identical to every other flavour's.
    pub fn run_with_sync_stats(mut self) -> (RunResult, SyncStats) {
        let (end, finished) = self.run_core();
        let stats = SyncStats {
            windows: self.epoch_windows,
            epoch_cycles: self.epoch_cycles,
        };
        (self.collect(end, finished), stats)
    }

    /// The main loop, shared by every run flavour, serial or pooled: it
    /// advances in conservative epoch windows ([`Self::epoch_window`],
    /// [`Self::run_epoch`]), with the partitions sampling bank activity
    /// every 512th *completed* cycle (the first sample reflects cycle 511,
    /// not the trivially-idle cycle 0). When `cfg.fast_forward` is set,
    /// cycles in which no component can make progress are skipped in one
    /// jump to the event horizon, and each partition skips its own idle
    /// stretches inside a window — bit-exact with ticking them because
    /// every per-cycle side effect of an idle tick (crossbar round-robin
    /// rotation, SM port/idle counters, activity-sample cadence) is
    /// replayed in closed form by the components' `skip` hooks. When it is
    /// off, every partition, crossbar and SM ticks every cycle.
    fn run_core(&mut self) -> (Cycle, bool) {
        let mut now: Cycle = 0;
        let mut finished = false;
        let limit = self.cfg.instruction_limit.unwrap_or(u64::MAX);
        let fast_forward = self.cfg.fast_forward;
        while now < self.cfg.max_cycles {
            // Covers cycles [now, now + w). Leave `now` at the window's
            // last cycle so the exit checks below see the cycle number a
            // W = 1 cadence would have exited at — the window bounds
            // guarantee neither check could have fired earlier in it.
            let w = self.epoch_window(now, limit);
            self.run_epoch(now, now + w);
            now += w - 1;
            if self.sms.iter().all(|s| s.done()) {
                finished = true;
                break;
            }
            if self.sms.iter().map(|s| s.retired).sum::<u64>() >= limit {
                finished = true;
                break;
            }
            now += 1;
            if fast_forward {
                let target = self
                    .horizon(now)
                    .map_or(self.cfg.max_cycles, |h| h.min(self.cfg.max_cycles));
                if target > now {
                    self.skip_idle_cycles(now, target);
                    now = target;
                }
            }
        }
        (now.max(1), finished)
    }

    /// The event horizon: the earliest cycle ≥ `now` at which any component
    /// can change state. `None` means no component will ever act again
    /// without outside input (the machine is drained or wedged). Components
    /// may report conservatively-early horizons — the loop simply steps and
    /// asks again — but never later than their true next event.
    fn horizon(&self, now: Cycle) -> Option<Cycle> {
        let mut ev: Option<Cycle> = None;
        // A component pinned at `now` forbids any skip, so bail out the
        // moment one reports it — while the machine is busy this makes the
        // horizon poll O(first busy component) instead of O(machine).
        // Cheapest/most-often-pinned components go first.
        macro_rules! merge {
            ($c:expr) => {
                if let Some(c) = $c {
                    if c <= now {
                        return Some(now);
                    }
                    ev = Some(ev.map_or(c, |e: Cycle| e.min(c)));
                }
            };
        }
        merge!(self.req_xbar.next_event(now));
        merge!(self.resp_xbar.next_event(now));
        if self.cfg.scheduler.coordinates() {
            merge!(self.coord.next_event(now));
        }
        for p in &self.partitions {
            merge!(p.next_event(now));
        }
        for sm in &self.sms {
            merge!(sm.next_event(now));
        }
        ev
    }

    /// Replay the deterministic per-cycle side effects of the skipped
    /// cycles `[now, target)` so downstream behaviour is bit-exact with
    /// having ticked each one.
    fn skip_idle_cycles(&mut self, now: Cycle, target: Cycle) {
        let delta = target - now;
        for sm in &mut self.sms {
            sm.skip(now, target);
        }
        self.req_xbar.skip(delta);
        self.resp_xbar.skip(delta);
        // Activity samples land at the end of every cycle c with
        // (c + 1) % 512 == 0; the skipped range contains
        // target/512 - now/512 of them, all observing the same (frozen)
        // bank state.
        let samples = target / 512 - now / 512;
        if samples > 0 {
            for p in &mut self.partitions {
                p.sample_activity_many(samples);
            }
        }
    }

    /// The conservative window `W ≥ 1`: partitions may free-run cycles
    /// `[now, now + W)` between hand-offs because no cross-component
    /// interaction that isn't already committed can land inside the window
    /// (DESIGN.md §18). The bounds, in order:
    ///
    /// * **ZeroDivergence** — `W = 1`: the hub fast-tracks a group's later
    ///   siblings in global delivery order, which must happen before their
    ///   partition ticks again (see [`Self::run_epoch`]).
    /// * **Crossbar lookahead** — a request granted at cycle `c ≥ now`
    ///   arrives at `c + xbar_latency ≥ now + W` for any
    ///   `W ≤ xbar_latency`; grants committed *before* the window are
    ///   pre-distributed at the opening hand-off, so they don't bound `W`.
    /// * **`epoch_max`** — the config cap (0 = auto).
    /// * **Coordination lookahead** — under a coordinating scheduler a
    ///   message emitted mid-window at `c` delivers at
    ///   `c + coord_latency ≥ now + W` for `W ≤ coord_latency`;
    ///   pre-window broadcasts are pre-distributed likewise.
    /// * **Run-exit lookahead** — the cycle-limit, instruction-budget and
    ///   all-warps-done checks fire at end of cycle at `W = 1`; `W` is
    ///   clamped so none of them could have fired strictly inside the
    ///   window, making the end-of-window check equivalent.
    fn epoch_window(&mut self, now: Cycle, limit: u64) -> Cycle {
        if self.zero_div {
            return 1;
        }
        let mut w = self.cfg.gpu.xbar_latency;
        if self.cfg.epoch_max > 0 {
            w = w.min(self.cfg.epoch_max);
        }
        if self.cfg.scheduler.coordinates() {
            w = w.min(self.cfg.mem.coord_latency);
        }
        w = w.min(self.cfg.max_cycles - now);
        if w <= 1 {
            return 1;
        }
        if limit != u64::MAX {
            // The budget check cannot fire inside a span of `s` cycles
            // while `retired + max_retire(s) < limit`, with `max_retire`
            // summing each SM's tighter ceiling — issue port vs warp
            // occupancy (see [`Sm::budget_lookahead`]).
            let retired: u64 = self.sms.iter().map(|s| s.retired).sum();
            debug_assert!(retired < limit, "run_core would have exited");
            let avail = limit - retired - 1;
            self.budget_buf.clear();
            self.budget_buf
                .extend(self.sms.iter().map(|s| s.budget_lookahead()));
            let max_retire = |s: u64| -> u64 {
                self.budget_buf
                    .iter()
                    .map(|&(live, overhang, heaviest)| (s * heaviest).min(s * live + overhang))
                    .sum()
            };
            if max_retire(w) > avail {
                if max_retire(1) > avail {
                    return 1;
                }
                // `max_retire` is monotone in `s`: binary-search the widest
                // safe span in (1, w).
                let (mut lo, mut hi) = (1u64, w);
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    if max_retire(mid) <= avail {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                w = lo;
            }
            if w <= 1 {
                return 1;
            }
        }
        // The all-done exit needs *every* SM done, so it is bounded below
        // by the slowest SM's earliest possible completion. Two lower
        // bounds per live SM, of which the larger applies:
        //
        // * it still owes `max_remaining_insns` issues at one per cycle;
        // * a warp blocked on memory cannot even wake before a response
        //   crossbar delivery reaches the SM, and within the window only
        //   fills *already in flight* can arrive (anything injected at
        //   `c ≥ now` lands at `c + xbar_latency ≥ now + W`). No fill in
        //   flight at all ⟹ the SM cannot finish inside any `W` we would
        //   pick here, so the cap `w` stands.
        //
        // The second bound is what keeps windows wide across the drain
        // tail, where warps sit on their last outstanding loads with
        // `rem ≈ 0` for hundreds of cycles (DESIGN.md §18).
        self.resp_xbar
            .min_arrival_per_dst(&mut self.resp_arrival_buf);
        let mut bound = 0u64;
        for (i, sm) in self.sms.iter().enumerate() {
            if sm.done() {
                continue;
            }
            let mut d = sm.max_remaining_insns(w);
            if d < w && sm.has_mem_blocked_warp() {
                let fill = match self.resp_arrival_buf[i] {
                    Some(arrive) => arrive.saturating_sub(now),
                    None => w,
                };
                d = d.max(fill);
            }
            bound = bound.max(d);
            if bound >= w {
                return w;
            }
        }
        bound.max(1)
    }

    /// Run the conservative epoch `[now, end)` (DESIGN.md §18):
    /// pre-distribute every cross-partition delivery committed before the
    /// window, free-run all partitions across the whole window in a single
    /// hand-off (inline in channel order when serial, striped over the
    /// pool when threaded — a partition touches only its own state, so
    /// both commit the same), then replay the hub (SMs, crossbars,
    /// coordination) serially cycle by cycle, merging the staged
    /// per-partition results in the `W = 1` cadence's order.
    fn run_epoch(&mut self, now: Cycle, end: Cycle) {
        let trace_on = self.cfg.trace;
        let coordinating = self.cfg.scheduler.coordinates();
        self.epoch_windows += 1;
        self.epoch_cycles += end - now;
        // --- opening hand-off: pre-distribute committed deliveries ---
        // Crossbar payloads due inside the window were all granted before
        // it opened (flight order = grant order), so their contents are
        // known here; only the exact delivery cycle under input
        // back-pressure is not, and that is destination-local, so each
        // partition replays its own. Each drain takes a prefix of the
        // grant-ordered flight queue, so the global sequence number is
        // grant order across windows too, and lets the hub replay
        // reconstruct the crossbar's delivery order. Arrivals a full input
        // buffer holds back past `end` simply stay queued in their
        // partition, ahead of anything granted later — the crossbar's own
        // per-destination order.
        {
            let partitions = &mut self.partitions;
            let seq = &mut self.grant_seq;
            self.req_xbar
                .drain_arrivals_before(end, |arrive, dst, req| {
                    partitions[dst]
                        .epoch_arrivals
                        .push_back((arrive, *seq, req));
                    *seq += 1;
                });
            if coordinating {
                self.coord.drain_due_before(end, |deliver_at, dst, msg| {
                    partitions[dst].epoch_coord_in.push_back((deliver_at, msg));
                });
            }
        }
        // --- free-run: one hand-off for the whole window ---
        let skip_idle = self.cfg.fast_forward;
        let free_run = |p: &mut Partition| p.free_run(now, end, coordinating, trace_on, skip_idle);
        match &self.pool {
            Some(pool) => pool.run_disjoint(&mut self.partitions, |_, p| free_run(p)),
            None => self.partitions.iter_mut().for_each(free_run),
        }
        // --- hub replay: serial, cycle-exact ---
        for c in now..end {
            if coordinating {
                // Broadcast the coordination messages the controllers
                // emitted at cycle `c`, in channel order.
                for (i, p) in self.partitions.iter_mut().enumerate() {
                    while let Some(&(tag, _)) = p.epoch_coord.front() {
                        if tag > c {
                            break;
                        }
                        let (tag, m) = p.epoch_coord.pop_front().unwrap();
                        self.coord.broadcast(i, m, tag);
                    }
                }
                // W ≤ coord_latency: nothing broadcast before the window
                // (pre-distributed) or during it (lands ≥ end) can deliver
                // at `c`.
                debug_assert!(self.coord.next_event(c).is_none_or(|d| d > c));
            }
            if trace_on {
                // Serve events staged at cycle `c`, in channel order.
                for p in &mut self.partitions {
                    while let Some(&(tag, _)) = p.epoch_events.front() {
                        if tag > c {
                            break;
                        }
                        let (_, e) = p.epoch_events.pop_front().unwrap();
                        self.wg_events.push(e);
                    }
                }
            }
            // This cycle's read deliveries, merged across partitions by
            // global grant sequence — the flight queue is always a
            // grant-order subsequence, so within a cycle the crossbar
            // delivers in ascending seq. In the zero-divergence ideal
            // model the first request of each warp-group to arrive
            // anywhere is the group's "one real request"; every later
            // sibling bypasses bank timing (Fig. 4's model). W = 1 for
            // this scheduler, so the fast-track lands before the
            // partition ticks again.
            loop {
                let mut best: Option<(usize, u64)> = None;
                for (i, p) in self.partitions.iter().enumerate() {
                    if let Some(&(tag, seq, _)) = p.epoch_arrive_log.front() {
                        if tag == c && best.is_none_or(|(_, bs)| seq < bs) {
                            best = Some((i, seq));
                        }
                    }
                }
                let Some((i, _)) = best else { break };
                let (_, _, wg) = self.partitions[i].epoch_arrive_log.pop_front().unwrap();
                self.mem_read_requests += 1;
                if self.zero_div && !self.fast_seen.insert(wg) {
                    self.partitions[i].ctrl.fast_track_group(wg, c);
                }
                if trace_on {
                    self.wg_events.push(WgEvent {
                        cycle: c,
                        wg,
                        channel: i as u8,
                        stage: WgStage::Arrive,
                    });
                }
            }
            // Partition -> response crossbar: entries staged at or before
            // `c` (later-staged entries wait for their cycle).
            for (pi, p) in self.partitions.iter_mut().enumerate() {
                while let Some(&(tag, sm, _)) = p.to_sm.front() {
                    if tag > c || self.resp_xbar.free_space(pi) == 0 {
                        break;
                    }
                    let (_, _, resp) = p.to_sm.pop_front().unwrap();
                    if !self.resp_xbar.inject(pi, sm, resp) {
                        self.lost_requests += 1;
                    }
                }
            }
            // Response crossbar -> SMs (SMs always accept fills).
            let sms = &mut self.sms;
            let resp_count = &mut self.mem_read_responses;
            self.resp_xbar.tick(
                c,
                |_| true,
                |sm, resp| {
                    *resp_count += 1;
                    sms[sm].accept_response(resp, c);
                },
            );
            // SMs issue.
            for (si, sm) in self.sms.iter_mut().enumerate() {
                self.sm_out.clear();
                let free = self.req_xbar.free_space(si);
                sm.tick(c, free, &mut self.sm_out);
                for r in self.sm_out.drain(..) {
                    let dst = r.decoded.channel.0 as usize;
                    if !self.req_xbar.inject(si, dst, r) {
                        self.lost_requests += 1;
                    }
                }
            }
            // Request crossbar: grants and arbitration only — every
            // delivery due inside the window was pre-distributed, and
            // W ≤ xbar_latency keeps in-window grants from arriving
            // before `end`.
            self.req_xbar.tick(
                c,
                |_| unreachable!("epoch window leaked a request-crossbar delivery"),
                |_, _| unreachable!("epoch window leaked a request-crossbar delivery"),
            );
        }
        for p in &self.partitions {
            // A held-back arrival implies a full input buffer, which pins
            // the event horizon (`Partition::next_event`) as the blocked
            // crossbar delivery itself would have.
            debug_assert!(p.epoch_arrivals.is_empty() || !p.can_accept());
            debug_assert!(p.epoch_coord_in.is_empty());
            debug_assert!(p.epoch_coord.is_empty());
            debug_assert!(p.epoch_events.is_empty());
            debug_assert!(p.epoch_arrive_log.is_empty());
        }
    }

    /// Test-only fault injection: stuff the request crossbar's source-0
    /// FIFO to capacity and push one request past it, exercising the
    /// lost-request accounting that guards against silent drops.
    #[doc(hidden)]
    pub fn inject_fault_xbar_overflow(&mut self) {
        let mapper = AddressMapper::new(&self.cfg.mem, self.cfg.gpu.l1.line_bytes);
        let mk = |n: u64| {
            let decoded = mapper.decode(0);
            ldsim_types::req::MemRequest {
                id: ldsim_types::ids::RequestId(0xF000_0000_0000_0000 | n),
                kind: ldsim_types::req::ReqKind::Write,
                line_addr: 0,
                decoded,
                wg: WarpGroupId::new(ldsim_types::ids::GlobalWarpId::new(0, 0), u32::MAX),
                last_of_group: true,
                group_size_on_channel: 1,
                issue_cycle: 0,
                arrival_cycle: 0,
            }
        };
        let dst = mapper.decode(0).channel.0 as usize;
        let mut n = 0u64;
        while self.req_xbar.free_space(0) > 0 {
            n += 1;
            let r = mk(n);
            assert!(self.req_xbar.inject(0, dst, r));
        }
        if !self.req_xbar.inject(0, dst, mk(n + 1)) {
            self.lost_requests += 1;
        }
    }

    fn collect(self, cycles: Cycle, finished: bool) -> RunResult {
        self.collect_full(cycles, finished).0
    }

    fn collect_full(mut self, cycles: Cycle, finished: bool) -> (RunResult, Option<Trace>) {
        // Audit tallies and command logs come out of the channels first (the
        // rest of collection only reads).
        let mut audit_commands = 0u64;
        let mut audit_violations = 0u64;
        let mut channel_cmds = Vec::new();
        for p in &mut self.partitions {
            audit_commands += p.ctrl.channel.audit_observed();
            audit_violations += p.ctrl.channel.audit_violation_count();
            if self.cfg.trace {
                channel_cmds.push(p.ctrl.channel.take_cmd_log());
            }
            // Rows still open at end of run never saw their closing PRE;
            // record their streaks now, before the read-only stats pass.
            p.ctrl.channel.flush_streak_hist();
        }
        let scheduler_name = if self.cfg.perfect_coalescing {
            format!("{}+PerfectCoalesce", self.cfg.scheduler.name())
        } else {
            self.cfg.scheduler.name().to_string()
        };
        let trace = if self.cfg.trace {
            Some(Trace {
                benchmark: self.benchmark.clone(),
                scheduler: scheduler_name.clone(),
                channel_cmds,
                wg_events: std::mem::take(&mut self.wg_events),
                loads: self
                    .sms
                    .iter()
                    .flat_map(|s| s.records.iter().copied())
                    .collect(),
            })
        } else {
            None
        };
        let trace_hash = trace.as_ref().map(|t| t.stable_hash());

        let mut agg = LoadAgg::new();
        // Retired-instruction total, clamped to the instruction budget: the
        // loop detects budget exhaustion at end-of-cycle, so the raw sum
        // overshoots by however many instructions retired in the final
        // cycle — an amount that varies per scheduler. Under the paper's
        // fixed-budget methodology every scheduler must be measured over
        // the *same* instruction count, so the overshoot is trimmed here
        // (the cycle count still includes the final cycle for all of them).
        let budget = self.cfg.instruction_limit.unwrap_or(u64::MAX);
        let mut instructions = 0u64;
        let mut l1_hits = 0u64;
        let mut l1_total = 0u64;
        let mut port_busy = 0u64;
        let mut mem_idle = 0u64;
        for sm in &self.sms {
            instructions += sm.retired;
            port_busy += sm.port_busy_cycles;
            mem_idle += sm.mem_idle_cycles;
            for r in &sm.records {
                agg.add(r);
            }
            let s = sm.l1_stats();
            l1_hits += s.hits;
            l1_total += s.hits + s.misses;
        }

        let timing = self.cfg.mem.timing.in_cycles(self.cfg.clock);
        let power_model = PowerModel {
            params: PowerParams::default(),
            clk: self.cfg.clock,
            t_rc: timing.t_rc,
            t_burst: timing.t_burst,
        };
        let mut bw = 0.0;
        let mut hits = 0u64;
        let mut cols = 0u64;
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut power = 0.0;
        let mut l2_hits = 0u64;
        let mut l2_total = 0u64;
        let mut drains = 0u64;
        let mut stalled = 0u64;
        let mut stalled_unit = 0u64;
        let mut stalled_orphan = 0u64;
        let mut counters = [0u64; 4];
        for p in &self.partitions {
            for (i, c) in p.ctrl.policy_counters().iter().enumerate() {
                counters[i] += c;
            }
            let cs = &p.ctrl.channel.stats;
            bw += cs.utilization(cycles.max(1));
            hits += cs.row_hits();
            cols += cs.reads + cs.writes;
            reads += cs.reads + cs.fast_reads;
            writes += cs.writes;
            power += power_model
                .evaluate(cs, cycles.max(1), p.active_fraction())
                .total_w();
            let l2 = p.l2.stats;
            l2_hits += l2.hits;
            l2_total += l2.hits + l2.misses;
            drains += p.ctrl.stats.drains;
            stalled += p.ctrl.stats.drain_stalled_groups;
            stalled_unit += p.ctrl.stats.drain_stalled_unit;
            stalled_orphan += p.ctrl.stats.drain_stalled_orphan;
        }
        let nch = self.partitions.len() as f64;

        let hists = if self.cfg.hist {
            let mut h = RunHists::new();
            h.dram_gap = agg.gap_hist.clone();
            h.effective_latency = agg.eff_hist.clone();
            for p in &self.partitions {
                if let Some(x) = p.ctrl.depth_hist() {
                    h.bank_queue_depth.merge(x);
                }
                if let Some(x) = p.ctrl.channel.streak_hist() {
                    h.row_hit_streak.merge(x);
                }
                if let Some(x) = p.ctrl.merb_occ_hist() {
                    h.merb_occupancy.merge(x);
                }
                if let Some(x) = p.depth_hist() {
                    h.read_queue_depth.merge(x);
                }
            }
            Some(Box::new(h))
        } else {
            None
        };

        let result = RunResult {
            benchmark: self.benchmark,
            scheduler: scheduler_name,
            finished,
            cycles,
            instructions: instructions.min(budget),
            loads: agg.loads,
            divergent_loads: agg.divergent,
            avg_reqs_per_load: agg.avg_reqs_per_load(),
            avg_dram_gap: agg.avg_gap(),
            last_first_ratio: agg.avg_ratio(),
            avg_channels_touched: agg.avg_channels(),
            avg_banks_touched: agg.avg_banks(),
            same_row_frac: agg.same_row_frac(),
            avg_effective_latency: agg.avg_eff(),
            gap_p50: agg.gap_hist.quantile(0.5),
            gap_p90: agg.gap_hist.quantile(0.9),
            gap_p99: agg.gap_hist.quantile(0.99),
            eff_p50: agg.eff_hist.quantile(0.5),
            eff_p90: agg.eff_hist.quantile(0.9),
            eff_p99: agg.eff_hist.quantile(0.99),
            bw_utilization: bw / nch,
            row_hit_rate: if cols == 0 {
                0.0
            } else {
                hits as f64 / cols as f64
            },
            dram_power_w: power,
            write_intensity: if reads + writes == 0 {
                0.0
            } else {
                writes as f64 / (reads + writes) as f64
            },
            drains,
            drain_stalled_groups: stalled,
            drain_stalled_unit: stalled_unit,
            drain_stalled_orphan: stalled_orphan,
            l1_hit_rate: if l1_total == 0 {
                0.0
            } else {
                l1_hits as f64 / l1_total as f64
            },
            l2_hit_rate: if l2_total == 0 {
                0.0
            } else {
                l2_hits as f64 / l2_total as f64
            },
            dram_reads: reads,
            dram_writes: writes,
            sm_port_busy_frac: port_busy as f64 / (cycles.max(1) as f64 * self.sms.len() as f64),
            sm_mem_idle_frac: mem_idle as f64 / (cycles.max(1) as f64 * self.sms.len() as f64),
            policy_counters: counters,
            audit_commands,
            audit_violations,
            mem_read_requests: self.mem_read_requests,
            mem_read_responses: self.mem_read_responses,
            dropped_requests: self.lost_requests,
            trace_hash,
            hists,
        };
        (result, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldsim_types::ids::LaneMask;
    use ldsim_types::kernel::{Instruction, WarpProgram};

    fn tiny_kernel(lines_per_load: usize, loads: usize) -> KernelProgram {
        let mut programs = Vec::new();
        for sm in 0..2 {
            let mut per_sm = Vec::new();
            for w in 0..2 {
                let mut insns = Vec::new();
                for i in 0..loads {
                    let mut addrs = [0u64; 32];
                    for (l, a) in addrs.iter_mut().enumerate() {
                        let cluster = l * lines_per_load / 32;
                        *a = ((sm * 97 + w * 31 + i * 13 + cluster) as u64) * 4096 + 128 * 7;
                    }
                    insns.push(Instruction::Load {
                        addrs: Box::new(addrs),
                        mask: LaneMask::ALL,
                    });
                    insns.push(Instruction::Compute(4));
                }
                per_sm.push(WarpProgram::new(insns));
            }
            programs.push(per_sm);
        }
        KernelProgram {
            name: "tiny".into(),
            programs,
        }
    }

    #[test]
    fn runs_to_completion_and_counts() {
        let kernel = tiny_kernel(4, 6);
        let cfg = SimConfig {
            max_cycles: 2_000_000,
            ..SimConfig::default()
        };
        let r = Simulator::new(cfg, &kernel).run();
        assert!(r.finished, "simulation should finish");
        assert_eq!(r.loads, 2 * 2 * 6);
        assert_eq!(r.instructions, kernel.total_instructions());
        assert!(r.ipc() > 0.0);
        assert!(r.avg_reqs_per_load >= 1.0);
    }

    #[test]
    fn all_schedulers_complete_same_kernel() {
        let kernel = tiny_kernel(4, 4);
        for k in [
            SchedulerKind::Fcfs,
            SchedulerKind::FrFcfs,
            SchedulerKind::Gmc,
            SchedulerKind::Wafcfs,
            SchedulerKind::Sbwas { alpha_q: 2 },
            SchedulerKind::Wg,
            SchedulerKind::WgM,
            SchedulerKind::WgBw,
            SchedulerKind::WgW,
            SchedulerKind::ZeroDivergence,
        ] {
            let cfg = SimConfig {
                max_cycles: 4_000_000,
                ..SimConfig::default()
            }
            .with_scheduler(k);
            let r = Simulator::new(cfg, &kernel).run();
            assert!(r.finished, "{k:?} did not finish");
            assert_eq!(r.instructions, kernel.total_instructions(), "{k:?}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let kernel = tiny_kernel(3, 5);
        let cfg = SimConfig::default();
        let a = Simulator::new(cfg.clone(), &kernel).run();
        let b = Simulator::new(cfg, &kernel).run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.dram_reads, b.dram_reads);
    }

    #[test]
    fn perfect_coalescing_reduces_requests() {
        let kernel = tiny_kernel(8, 5);
        let base = Simulator::new(SimConfig::default(), &kernel).run();
        let cfg = SimConfig {
            perfect_coalescing: true,
            ..SimConfig::default()
        };
        let pc = Simulator::new(cfg, &kernel).run();
        assert!(pc.avg_reqs_per_load <= 1.01);
        assert!(base.avg_reqs_per_load > 2.0);
        assert!(pc.cycles < base.cycles, "perfect coalescing must speed up");
    }

    #[test]
    fn fast_forward_is_bit_exact_with_reference_loop() {
        let kernel = tiny_kernel(6, 5);
        for k in [
            SchedulerKind::Gmc,
            SchedulerKind::WgM,
            SchedulerKind::WgW,
            SchedulerKind::ZeroDivergence,
        ] {
            let cfg = SimConfig {
                max_cycles: 4_000_000,
                ..SimConfig::default()
            }
            .with_scheduler(k)
            .with_trace();
            let fast = Simulator::new(cfg.clone(), &kernel).run_traced();
            let slow = Simulator::new(cfg.with_fast_forward(false), &kernel).run_traced();
            assert_eq!(fast.0, slow.0, "{k:?} diverged");
            assert_eq!(
                fast.1.as_ref().map(|t| t.stable_hash()),
                slow.1.as_ref().map(|t| t.stable_hash()),
                "{k:?} trace hash diverged"
            );
            assert!(fast.0.finished);
        }
    }

    #[test]
    fn threaded_partition_epochs_are_bit_exact() {
        // The pool changes execution strategy, not semantics: identical
        // RunResult and trace hash at every width, for both a plain and a
        // coordinating scheduler (the two window bounds). The full
        // 7-scheduler ladder lives in tests/threaded.rs.
        let kernel = tiny_kernel(6, 5);
        for k in [SchedulerKind::Gmc, SchedulerKind::WgW] {
            let cfg = SimConfig {
                max_cycles: 4_000_000,
                ..SimConfig::default()
            }
            .with_scheduler(k)
            .with_trace();
            let serial = Simulator::new(cfg.clone().with_sim_threads(1), &kernel).run_traced();
            for threads in [2, 6] {
                let t = Simulator::new(cfg.clone().with_sim_threads(threads), &kernel).run_traced();
                assert_eq!(t.0, serial.0, "{k:?} @ {threads} threads diverged");
                assert_eq!(
                    t.1.as_ref().map(|t| t.stable_hash()),
                    serial.1.as_ref().map(|t| t.stable_hash()),
                    "{k:?} @ {threads} threads: trace hash diverged"
                );
            }
        }
    }

    #[test]
    fn epoch_windows_amortize_barriers_and_stay_bit_exact() {
        // Programs long enough that the run-exit lookahead doesn't cap the
        // window below the crossbar/coordination bounds.
        let kernel = tiny_kernel(6, 24);
        let mk = |k: SchedulerKind| {
            SimConfig {
                max_cycles: 4_000_000,
                ..SimConfig::default()
            }
            .with_scheduler(k)
            .with_trace()
            .with_sim_threads(2)
        };
        // Non-coordinating: the window bound is the crossbar latency, so
        // hand-offs shrink by an order of magnitude or more against the
        // W = 1 reference cadence.
        let cfg = mk(SchedulerKind::Gmc);
        let (r, s) = Simulator::new(cfg.clone(), &kernel).run_with_sync_stats();
        let (rb, sb) = Simulator::new(cfg.clone().with_epoch_max(1), &kernel).run_with_sync_stats();
        assert_eq!(r, rb, "window size must never change results");
        assert_eq!(
            sb.windows, sb.epoch_cycles,
            "epoch_max = 1 is the W = 1 cadence"
        );
        assert!(
            s.epoch_cycles / s.windows <= cfg.gpu.xbar_latency,
            "mean window {} exceeds the crossbar lookahead",
            s.epoch_cycles / s.windows
        );
        assert!(
            sb.windows >= 10 * s.windows,
            "hand-offs: W = 1 {} vs epoch {}",
            sb.windows,
            s.windows
        );
        // An explicit cap bounds the window without changing results.
        let (rc, sc) = Simulator::new(cfg.clone().with_epoch_max(4), &kernel).run_with_sync_stats();
        assert_eq!(rc, r, "epoch_max cap changed results");
        assert!(sc.epoch_cycles / sc.windows <= 4);

        // Coordinating: the window is additionally bounded by
        // coord_latency (4), so the ceiling against W = 1 is 4x; assert
        // the >= 2.5x the CI gate uses.
        let cfg = mk(SchedulerKind::WgW);
        let (r, s) = Simulator::new(cfg.clone(), &kernel).run_with_sync_stats();
        let (rb, sb) = Simulator::new(cfg.clone().with_epoch_max(1), &kernel).run_with_sync_stats();
        assert_eq!(r, rb, "WgW window size must never change results");
        assert!(
            s.epoch_cycles / s.windows <= cfg.mem.coord_latency,
            "coordinating window exceeds the coordination lookahead"
        );
        assert!(
            2 * sb.windows >= 5 * s.windows,
            "WgW hand-offs: W = 1 {} vs epoch {}",
            sb.windows,
            s.windows
        );
    }

    #[test]
    fn serial_runs_use_epoch_windows() {
        // Serial is the same loop as the pool: threads = 1 free-runs the
        // partitions inline through the same multi-cycle windows.
        let kernel = tiny_kernel(4, 6);
        let cfg = SimConfig {
            max_cycles: 2_000_000,
            ..SimConfig::default()
        }
        .with_sim_threads(1);
        let (r, s) = Simulator::new(cfg.clone(), &kernel).run_with_sync_stats();
        assert!(r.finished);
        assert!(s.epoch_cycles > s.windows, "no multi-cycle window opened");
        let pooled = Simulator::new(cfg.with_sim_threads(2), &kernel).run_with_sync_stats();
        assert_eq!(
            pooled,
            (r, s),
            "the pool must not change results or windows"
        );
    }

    #[test]
    fn zero_divergence_runs_at_w1() {
        // The hub fast-tracks a group's later siblings in global delivery
        // order, which must land before their partition ticks again.
        let kernel = tiny_kernel(6, 8);
        let cfg = SimConfig {
            max_cycles: 2_000_000,
            ..SimConfig::default()
        }
        .with_scheduler(SchedulerKind::ZeroDivergence)
        .with_sim_threads(2);
        let (r, s) = Simulator::new(cfg.clone(), &kernel).run_with_sync_stats();
        assert!(r.finished);
        assert_eq!(s.windows, s.epoch_cycles, "zero-div must run at W = 1");
        let serial = Simulator::new(cfg.with_sim_threads(1), &kernel).run();
        assert_eq!(r, serial);
    }

    #[test]
    #[should_panic(expected = "xbar_latency must be at least 1 cycle")]
    fn zero_xbar_latency_is_rejected() {
        let mut cfg = SimConfig::default();
        cfg.gpu.xbar_latency = 0;
        Simulator::new(cfg, &tiny_kernel(1, 1));
    }

    #[test]
    fn machines_beyond_sixteen_channels_run() {
        // `AddressMapper::new` accepts up to 256 channels; loads spread over
        // more than 16 of them must still issue.
        let mut cfg = SimConfig::default();
        cfg.mem.num_channels = 32;
        let kernel = ldsim_workloads::benchmark("bfs", ldsim_workloads::Scale::Tiny, 1).generate();
        let r = Simulator::new(cfg, &kernel).run();
        assert!(r.finished && r.conserves_requests());
    }

    #[test]
    #[should_panic(expected = "l1.mshr_entries must be at least the 32-lane warp width")]
    fn l1_mshr_below_warp_width_is_rejected() {
        let mut cfg = SimConfig::default();
        cfg.gpu.l1.mshr_entries = 31;
        Simulator::new(cfg, &tiny_kernel(1, 1));
    }

    #[test]
    #[should_panic(expected = "coord_latency must be at least 1 cycle")]
    fn zero_coord_latency_is_rejected() {
        let mut cfg = SimConfig::default().with_scheduler(SchedulerKind::WgM);
        crate::sweep::CfgTweak::CoordLatency(0).apply(&mut cfg);
        Simulator::new(cfg, &tiny_kernel(1, 1));
    }

    #[test]
    fn activity_sampling_skips_trivially_idle_cycle_zero() {
        // A kernel that finishes in well under 512 cycles must record zero
        // activity samples: the old pre-step check always took a sample at
        // cycle 0, biasing active_fraction toward idle.
        let kernel = KernelProgram {
            name: "blink".into(),
            programs: vec![vec![WarpProgram::new(vec![Instruction::Compute(5)])]],
        };
        let mut sim = Simulator::new(SimConfig::default(), &kernel);
        let (end, finished) = sim.run_core();
        assert!(finished);
        assert!(end < 512);
        for p in &sim.partitions {
            assert_eq!(p.total_samples, 0, "no 512-cycle boundary was crossed");
        }
    }

    #[test]
    fn sampling_cadence_is_preserved_under_fast_forward() {
        // Long memory-bound kernel: both loops must take the same number of
        // samples and agree on the active fraction.
        let kernel = tiny_kernel(16, 24);
        let cfg = SimConfig {
            max_cycles: 4_000_000,
            ..SimConfig::default()
        };
        let mut fast = Simulator::new(cfg.clone(), &kernel);
        let (end_f, _) = fast.run_core();
        let mut slow = Simulator::new(cfg.with_fast_forward(false), &kernel);
        let (end_s, _) = slow.run_core();
        assert_eq!(end_f, end_s);
        assert!(end_f > 1024, "kernel too short to exercise sampling");
        for (f, s) in fast.partitions.iter().zip(&slow.partitions) {
            assert_eq!(f.total_samples, s.total_samples);
            assert_eq!(f.active_samples, s.active_samples);
            // One sample per completed 512-cycle window (cycles 511, 1023, …).
            assert_eq!(f.total_samples, (end_f + 1) / 512);
        }
    }

    #[test]
    fn armed_histograms_are_neutral_and_populated() {
        // Arming the recorders must not change a single bit of the run
        // (same trace hash, same counters), only attach the distributions.
        let kernel = tiny_kernel(16, 24);
        let cfg = SimConfig {
            max_cycles: 4_000_000,
            ..SimConfig::default()
        }
        .with_trace();
        let (off, off_trace) = Simulator::new(cfg.clone(), &kernel).run_traced();
        let (on, on_trace) = Simulator::new(cfg.with_hist(), &kernel).run_traced();
        assert_eq!(
            off_trace.map(|t| t.stable_hash()),
            on_trace.map(|t| t.stable_hash()),
            "recording perturbed the simulation"
        );
        assert!(off.hists.is_none());
        let mut stripped = on.clone();
        stripped.hists = None;
        assert_eq!(stripped, off, "armed run differs beyond the hists field");
        let h = on.hists.expect("armed run must carry distributions");
        assert!(h.dram_gap.total() > 0);
        assert!(h.effective_latency.total() > 0);
        assert!(h.bank_queue_depth.total() > 0);
        assert!(h.row_hit_streak.total() > 0);
        assert!(h.merb_occupancy.total() > 0);
        assert!(
            h.read_queue_depth.total() > 0,
            "run crossed no sample cadence"
        );
        // The always-on percentile fields agree with the full distributions
        // and are monotone in q.
        assert_eq!(on.gap_p99, h.dram_gap.quantile(0.99));
        assert_eq!(on.eff_p50, h.effective_latency.quantile(0.5));
        assert!(on.gap_p50 <= on.gap_p90 && on.gap_p90 <= on.gap_p99);
        assert!(on.eff_p50 <= on.eff_p90 && on.eff_p90 <= on.eff_p99);
        assert!(off.eff_p50 > 0, "percentiles populate without arming");
    }

    #[test]
    fn crossbar_overflow_is_a_counted_hard_error() {
        let kernel = tiny_kernel(2, 2);
        let mut sim = Simulator::new(SimConfig::default(), &kernel);
        sim.inject_fault_xbar_overflow();
        let (r, _) = sim.run_traced();
        assert_eq!(r.dropped_requests, 1, "overflow must surface, not vanish");

        let clean = Simulator::new(SimConfig::default(), &kernel).run();
        assert_eq!(clean.dropped_requests, 0);
    }

    #[test]
    fn zero_divergence_cuts_the_gap() {
        let kernel = tiny_kernel(8, 6);
        let base = Simulator::new(
            SimConfig::default().with_scheduler(SchedulerKind::Gmc),
            &kernel,
        )
        .run();
        let zd = Simulator::new(
            SimConfig::default().with_scheduler(SchedulerKind::ZeroDivergence),
            &kernel,
        )
        .run();
        assert!(
            zd.avg_dram_gap < base.avg_dram_gap,
            "zero-div gap {} vs base {}",
            zd.avg_dram_gap,
            base.avg_dram_gap
        );
        assert!(zd.cycles <= base.cycles);
    }
}
