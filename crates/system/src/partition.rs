//! A memory partition: one shared-L2 slice fronting one GDDR5 channel
//! controller (Section II-B).
//!
//! Reads that hit the L2 (or merge into an in-flight L2 miss) are *absorbed*
//! — the controller's warp-group tracker is told so the group can still be
//! recognised as fully transferred. Misses forward to the controller after
//! the L2 lookup latency. Stores write-allocate without fetch; dirty
//! evictions become the DRAM write traffic that the write-drain machinery
//! (and WG-W) manages.

use crate::trace::{WgEvent, WgStage};
use ldsim_gpu::cache::{Cache, Mshr};
use ldsim_gpu::sm::SmResponse;
use ldsim_memctrl::{Controller, CoordMsg};
use ldsim_types::addr::AddressMapper;
use ldsim_types::clock::Cycle;
use ldsim_types::config::{CacheConfig, MemConfig};
use ldsim_types::ids::{ChannelId, RequestId};
use ldsim_types::req::{MemRequest, MemResponse, ReqKind};
use ldsim_types::stats::Histogram;
use std::collections::VecDeque;

/// One memory partition.
pub struct Partition {
    pub id: ChannelId,
    pub l2: Cache,
    pub(crate) l2_mshr: Mshr<MemRequest>,
    l2_latency: Cycle,
    pub ctrl: Controller,
    mapper: AddressMapper,
    line_shift: u32,
    /// Cache-bypass mode (`GpuConfig::l2_bypass`): reads skip probe and
    /// fill (MSHR merging still applies), stores go straight to DRAM.
    bypass: bool,
    /// Requests arriving from the request crossbar, processed in order.
    input: VecDeque<MemRequest>,
    /// The line of a read head that missed both the L2 and its MSHR and
    /// then stalled. Until that line is filled into the L2 or registered or
    /// filled in the MSHR, every re-probe misses again, so it is replayed
    /// with [`Cache::probe_known_miss`] and the head waits only on
    /// controller backlog and MSHR capacity (DESIGN.md §13).
    pub(crate) stalled_head: Option<u64>,
    /// Test-only twin switch: never arm the stalled-head memo.
    #[cfg(test)]
    pub(crate) always_probe: bool,
    /// L2-latency delay line toward the controller.
    pub(crate) to_ctrl: VecDeque<(Cycle, MemRequest)>,
    /// SM-bound responses awaiting the response crossbar, tagged with the
    /// cycle they were staged (tags are monotone — pushes happen in cycle
    /// order). The hub drains entries tagged `<= now`, so a multi-cycle
    /// free-run can stage several cycles' worth and the hub replay still
    /// injects each at the cycle it was staged.
    pub to_sm: VecDeque<(Cycle, usize, SmResponse)>,
    next_wb_id: u64,
    /// Cycles (sampled) with at least one DRAM bank open, for power.
    pub active_samples: u64,
    pub total_samples: u64,
    /// Controller read-queue depth sampled on the same 512-cycle cadence as
    /// the activity samples (None = zero cost). Observation-only.
    depth_hist: Option<Box<Histogram>>,
    // --- epoch-window staging (see `Simulator::run_epoch`) ---
    //
    // A partition free-runs a window without touching simulator-owned
    // state: anything hub-bound is staged, cycle-tagged, in these
    // partition-owned buffers, and the hub drains them in channel-id order
    // as it replays the window — so serial and pooled runs commit the
    // same order.
    /// This cycle's drained DRAM responses (scratch, reused every cycle).
    resp_buf: Vec<MemResponse>,
    /// Per-cycle coordination-drain scratch (reused).
    coord_buf: Vec<CoordMsg>,
    /// Outbound coordination messages staged for the hub broadcast, tagged
    /// with their emission cycle (monotone).
    pub(crate) epoch_coord: VecDeque<(Cycle, CoordMsg)>,
    /// `Serve`-stage trace events staged for the shared trace stream,
    /// tagged with their emission cycle (monotone; the event's own `cycle`
    /// field carries the DRAM `done_cycle`, which may lag the emission).
    pub(crate) epoch_events: VecDeque<(Cycle, WgEvent)>,
    /// Crossbar deliveries pre-distributed at the window's opening hand-off:
    /// `(arrival_cycle, global_grant_seq, request)` in grant order. The
    /// free-run applies each at its arrival cycle, subject to this
    /// partition's own input back-pressure — exactly the crossbar's
    /// blocked-retry behaviour, which is destination-local. Arrivals still
    /// held back when a window closes wait here for the next one.
    pub(crate) epoch_arrivals: VecDeque<(Cycle, u64, MemRequest)>,
    /// Read deliveries actually performed during the free-run:
    /// `(delivery_cycle, global_grant_seq, warp_group)`. The hub replay
    /// merges these across partitions by `(cycle, seq)` to reproduce the
    /// crossbar's `Arrive` trace order and read-conservation counts.
    pub(crate) epoch_arrive_log: VecDeque<(Cycle, u64, ldsim_types::ids::WarpGroupId)>,
    /// Coordination messages pre-distributed at the window's opening
    /// hand-off, tagged with their committed delivery cycle (monotone).
    pub(crate) epoch_coord_in: VecDeque<(Cycle, CoordMsg)>,
}

// Partitions cross thread boundaries in the epoch pool; every policy is
// `Send` by trait bound, so this holds by construction — keep it a
// compile-time fact rather than a latent `Scoped` error.
const _: () = {
    fn assert_send<T: Send>() {}
    let _ = assert_send::<Partition>;
};

impl Partition {
    pub fn new(
        id: ChannelId,
        l2_cfg: &CacheConfig,
        mem: &MemConfig,
        ctrl: Controller,
        bypass: bool,
    ) -> Self {
        Self {
            id,
            l2: Cache::new(l2_cfg),
            l2_mshr: Mshr::new(l2_cfg.mshr_entries),
            l2_latency: l2_cfg.latency,
            ctrl,
            mapper: AddressMapper::new(mem, l2_cfg.line_bytes),
            line_shift: l2_cfg.line_bytes.trailing_zeros(),
            bypass,
            input: VecDeque::new(),
            stalled_head: None,
            #[cfg(test)]
            always_probe: false,
            to_ctrl: VecDeque::new(),
            to_sm: VecDeque::new(),
            next_wb_id: 0,
            active_samples: 0,
            total_samples: 0,
            depth_hist: None,
            resp_buf: Vec::new(),
            coord_buf: Vec::new(),
            epoch_coord: VecDeque::new(),
            epoch_events: VecDeque::new(),
            epoch_arrivals: VecDeque::new(),
            epoch_arrive_log: VecDeque::new(),
            epoch_coord_in: VecDeque::new(),
        }
    }

    /// Arm this partition's sampled read-queue-depth histogram and the
    /// controller/channel recorders behind it. Observation-only.
    pub fn enable_hist(&mut self) {
        self.depth_hist = Some(Box::new(Histogram::latency()));
        self.ctrl.enable_hist();
    }

    /// Recorded sampled read-queue-depth distribution (None if unarmed).
    pub fn depth_hist(&self) -> Option<&Histogram> {
        self.depth_hist.as_deref()
    }

    /// Input-buffer capacity: kept shallow so backlog accumulates in the
    /// controller's scheduler-visible read queue, not in blind FIFOs.
    pub const INPUT_CAP: usize = 8;

    /// Room for another crossbar delivery?
    pub fn can_accept(&self) -> bool {
        self.input.len() < Self::INPUT_CAP
    }

    /// Free input-buffer slots.
    pub fn input_room(&self) -> usize {
        Self::INPUT_CAP - self.input.len()
    }

    /// A request arrived from the request crossbar.
    pub fn accept(&mut self, req: MemRequest) {
        debug_assert!(self.can_accept());
        self.input.push_back(req);
    }

    /// Tick the controller and (for coordinating schedulers) stage its
    /// outbound coordination messages in [`Self::epoch_coord`] for the hub
    /// to broadcast.
    fn epoch_ctrl_tick(&mut self, now: Cycle, coordinating: bool) {
        self.ctrl.tick(now);
        if coordinating {
            self.ctrl.drain_coord(&mut self.coord_buf);
            for msg in self.coord_buf.drain(..) {
                self.epoch_coord.push_back((now, msg));
            }
        }
    }

    /// Apply this cycle's completed DRAM reads (staging a `Serve` trace
    /// event per response when tracing) and run the L2-slice tick.
    /// SM-bound responses land in `to_sm`, which the hub drains.
    fn epoch_serve_and_tick(&mut self, now: Cycle, trace_on: bool) {
        self.resp_buf.clear();
        self.ctrl.drain_responses(&mut self.resp_buf);
        for i in 0..self.resp_buf.len() {
            let resp = self.resp_buf[i];
            if trace_on {
                self.epoch_events.push_back((
                    now,
                    WgEvent {
                        cycle: resp.done_cycle,
                        wg: resp.wg,
                        channel: self.id.0,
                        stage: WgStage::Serve,
                    },
                ));
            }
            self.on_ctrl_response(&resp, now);
        }
        self.tick(now);
    }

    /// Free-run this partition's cycles `[now, end)` without touching any
    /// shared state — the body of a conservative epoch window, one cycle
    /// long or many (DESIGN.md §18). Pre-distributed crossbar arrivals
    /// ([`Self::epoch_arrivals`]) and coordination deliveries
    /// ([`Self::epoch_coord_in`]) are applied at their committed cycles —
    /// arrivals subject to this partition's own input back-pressure, which
    /// replays the crossbar's destination-local blocked-retry behaviour.
    /// Everything the hub needs afterwards (SM responses, trace events,
    /// outbound coordination, the arrive log) is staged cycle-tagged in
    /// partition-owned buffers. With `skip_idle` (the config's
    /// `fast_forward`), locally idle stretches are skipped under the same
    /// per-component `next_event` contract the global fast-forward relies
    /// on, replaying 512-cycle activity samples in bulk; without it every
    /// cycle is ticked, so the non-skipping reference never depends on
    /// that contract.
    pub(crate) fn free_run(
        &mut self,
        now: Cycle,
        end: Cycle,
        coordinating: bool,
        trace_on: bool,
        skip_idle: bool,
    ) {
        let mut c = now;
        while c < end {
            if skip_idle {
                match self.local_horizon(c) {
                    None => {
                        self.replay_samples(c, end);
                        return;
                    }
                    Some(h) if h > c => {
                        let t = h.min(end);
                        self.replay_samples(c, t);
                        c = t;
                        continue;
                    }
                    _ => {}
                }
            }
            self.epoch_ctrl_tick(c, coordinating);
            while let Some(&(deliver_at, msg)) = self.epoch_coord_in.front() {
                if deliver_at > c {
                    break;
                }
                self.epoch_coord_in.pop_front();
                self.ctrl.deliver_coord(msg, c);
            }
            self.epoch_serve_and_tick(c, trace_on);
            while let Some(&(arrive, _, _)) = self.epoch_arrivals.front() {
                if arrive > c || !self.can_accept() {
                    break;
                }
                let (_, seq, req) = self.epoch_arrivals.pop_front().unwrap();
                if req.kind == ReqKind::Read {
                    self.epoch_arrive_log.push_back((c, seq, req.wg));
                }
                self.accept(req);
            }
            if (c + 1).is_multiple_of(512) {
                self.sample_activity();
            }
            c += 1;
        }
    }

    /// Earliest cycle in a free-run at which this partition's own state
    /// can change. Unlike [`Self::next_event`], staged SM responses do
    /// *not* pin `now`: the hub drains `to_sm` as it replays the window
    /// and nothing in the free-run reads it.
    fn local_horizon(&self, now: Cycle) -> Option<Cycle> {
        if !self.input.is_empty() {
            return Some(now);
        }
        let mut ev = self.ctrl.next_event(now);
        let mut fold = |c: Cycle| {
            let c = c.max(now);
            ev = Some(ev.map_or(c, |e| e.min(c)));
        };
        if let Some(&(ready, _)) = self.to_ctrl.front() {
            fold(ready);
        }
        if let Some(&(arrive, _, _)) = self.epoch_arrivals.front() {
            fold(arrive);
        }
        if let Some(&(deliver_at, _)) = self.epoch_coord_in.front() {
            fold(deliver_at);
        }
        ev
    }

    /// Bulk-replay the 512-cycle activity samples that ticking would have
    /// taken across the locally idle cycles `[from, to)`.
    fn replay_samples(&mut self, from: Cycle, to: Cycle) {
        let n = to / 512 - from / 512;
        if n > 0 {
            self.sample_activity_many(n);
        }
    }

    /// Process this cycle's partition work (after the controller has been
    /// ticked and its responses applied via [`Self::on_ctrl_response`]).
    pub fn tick(&mut self, now: Cycle) {
        // Release L2-latency-delayed requests to the controller.
        while let Some(&(ready, _)) = self.to_ctrl.front() {
            if ready > now {
                break;
            }
            let (_, req) = self.to_ctrl.pop_front().unwrap();
            self.ctrl.push_request(req);
        }
        // One L2 access per cycle (single-ported slice).
        if let Some(req) = self.input.front().copied() {
            match req.kind {
                ReqKind::Read => {
                    // Gate miss processing on controller backlog so queueing
                    // stays inside the scheduler-visible read queue.
                    let ctrl_full = self.ctrl.read_backlog() + self.to_ctrl.len()
                        >= self.ctrl.read_capacity() + 8;
                    if self.stalled_head == Some(req.line_addr) {
                        // The stalled head again: it still misses the L2
                        // and the MSHR, so only the allocate check is open.
                        debug_assert!(
                            (self.bypass || !self.l2.contains(req.line_addr))
                                && !self.l2_mshr.in_flight(req.line_addr),
                            "stalled-head memo outlived its miss"
                        );
                        if !self.bypass {
                            self.l2.probe_known_miss(req.line_addr);
                        }
                        if !ctrl_full && self.l2_mshr.has_room() {
                            self.stalled_head = None;
                            self.allocate_head(req, now);
                        }
                    } else if !self.bypass && self.l2.probe(req.line_addr, false) {
                        // L2 hit: absorbed; respond to the SM.
                        self.input.pop_front();
                        self.ctrl.note_absorbed(req.wg, req.group_size_on_channel);
                        self.to_sm.push_back((
                            now,
                            req.wg.warp.sm.0 as usize,
                            SmResponse {
                                line_addr: req.line_addr,
                                from_dram: false,
                                dram_cycle: 0,
                            },
                        ));
                    } else if self.l2_mshr.in_flight(req.line_addr) {
                        // Merged: absorbed; data comes with the earlier miss.
                        self.input.pop_front();
                        self.ctrl.note_absorbed(req.wg, req.group_size_on_channel);
                        // Cross-warp sharing signal (Section VIII): the
                        // original group's line now blocks another warp too.
                        if let Some(first) = self.l2_mshr.waiters(req.line_addr).first() {
                            if first.wg.warp != req.wg.warp {
                                self.ctrl.note_shared(first.wg);
                            }
                        }
                        let _ = self.l2_mshr.register(req.line_addr, req);
                    } else if !ctrl_full && self.l2_mshr.has_room() {
                        self.allocate_head(req, now);
                    } else {
                        // MSHR or controller full: head-of-line stall.
                        self.stalled_head = Some(req.line_addr);
                        #[cfg(test)]
                        if self.always_probe {
                            self.stalled_head = None;
                        }
                    }
                }
                ReqKind::Write => {
                    if self.ctrl.write_backlog() >= self.ctrl.write_capacity() + 8 {
                        return; // back-pressure stores too
                    }
                    self.input.pop_front();
                    if self.bypass {
                        // Straight to the write queue, like a dirty eviction
                        // would have gone; no allocation, no probe.
                        self.write_back(req.line_addr, now);
                    } else if !self.l2.probe(req.line_addr, true) {
                        // Write-allocate without fetch; dirty eviction
                        // becomes a DRAM write-back.
                        if let Some((victim, dirty)) = self.l2.fill(req.line_addr, true) {
                            if dirty {
                                self.write_back(victim, now);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Send the read head, a miss with MSHR room, to the controller.
    fn allocate_head(&mut self, req: MemRequest, now: Cycle) {
        self.input.pop_front();
        let _ = self.l2_mshr.register(req.line_addr, req);
        self.to_ctrl.push_back((now + self.l2_latency, req));
    }

    /// A DRAM read completed: fill the L2 and wake every merged waiter.
    pub fn on_ctrl_response(&mut self, resp: &MemResponse, now: Cycle) {
        debug_assert_eq!(resp.kind, ReqKind::Read);
        if self.stalled_head == Some(resp.line_addr) {
            // The stalled head's line lands in the L2 and leaves the MSHR:
            // its next probe must run in full.
            self.stalled_head = None;
        }
        if !self.bypass {
            if let Some((victim, dirty)) = self.l2.fill(resp.line_addr, false) {
                if dirty {
                    self.write_back(victim, now);
                }
            }
        }
        for waiter in self.l2_mshr.fill(resp.line_addr) {
            self.to_sm.push_back((
                now,
                waiter.wg.warp.sm.0 as usize,
                SmResponse {
                    line_addr: resp.line_addr,
                    from_dram: true,
                    dram_cycle: resp.done_cycle,
                },
            ));
        }
    }

    fn write_back(&mut self, victim_line: u64, now: Cycle) {
        self.next_wb_id += 1;
        let byte = victim_line << self.line_shift;
        let decoded = self.mapper.decode(byte);
        debug_assert_eq!(
            decoded.channel, self.id,
            "L2 slice holds only its own channel's lines"
        );
        let req = MemRequest {
            id: RequestId(0xB000_0000_0000_0000 | ((self.id.0 as u64) << 40) | self.next_wb_id),
            kind: ReqKind::Write,
            line_addr: victim_line,
            decoded,
            wg: ldsim_types::ids::WarpGroupId::new(
                ldsim_types::ids::GlobalWarpId::new(u16::MAX, self.id.0 as u16),
                self.next_wb_id as u32,
            ),
            last_of_group: true,
            group_size_on_channel: 1,
            issue_cycle: now,
            arrival_cycle: 0,
        };
        self.ctrl.push_request(req);
    }

    /// Earliest cycle this partition (L2 slice + controller) can make
    /// progress. A queued input is immediate — even a stalled head re-probes
    /// the L2 every cycle (stats + LRU), so those cycles cannot be skipped.
    /// SM-bound responses pin `now` too: the response crossbar drains them
    /// each cycle.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if !self.input.is_empty() || !self.to_sm.is_empty() {
            return Some(now);
        }
        let mut ev = self.ctrl.next_event(now);
        if let Some(&(ready, _)) = self.to_ctrl.front() {
            let c = ready.max(now);
            ev = Some(ev.map_or(c, |e| e.min(c)));
        }
        ev
    }

    /// Sample bank-active state (power model input).
    pub fn sample_activity(&mut self) {
        self.total_samples += 1;
        if self.ctrl.channel.open_banks() > 0 {
            self.active_samples += 1;
        }
        if let Some(h) = self.depth_hist.as_deref_mut() {
            h.add(self.ctrl.read_backlog() as u64);
        }
    }

    /// Replay `n` activity samples at once. Valid across a fast-forward
    /// skip: banks neither open nor close while the controller has no event,
    /// so each skipped sample would have observed the same bank state — and
    /// likewise the read backlog, which the bulk histogram add mirrors.
    pub fn sample_activity_many(&mut self, n: u64) {
        self.total_samples += n;
        if self.ctrl.channel.open_banks() > 0 {
            self.active_samples += n;
        }
        if let Some(h) = self.depth_hist.as_deref_mut() {
            h.add_n(self.ctrl.read_backlog() as u64, n);
        }
    }

    /// Any work left anywhere in the partition?
    pub fn busy(&self) -> bool {
        !self.input.is_empty()
            || !self.to_ctrl.is_empty()
            || !self.to_sm.is_empty()
            || !self.l2_mshr.is_empty()
            || !self.ctrl.idle()
    }

    pub fn active_fraction(&self) -> f64 {
        if self.total_samples == 0 {
            0.0
        } else {
            self.active_samples as f64 / self.total_samples as f64
        }
    }
}
