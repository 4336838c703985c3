//! The GPU memory controller (Fig. 1 / Fig. 6 of the paper).
//!
//! Pipeline per cycle:
//!
//! 1. completed DRAM bursts are retired into the response outbox;
//! 2. arrivals are admitted from the entry buffer into the bounded
//!    read-queue (owned by the [`Policy`]) or write queue;
//! 3. the write-drain state machine engages between the high/low
//!    watermarks (Section II-C);
//! 4. one transaction (a request) is expanded into per-bank DRAM commands —
//!    chosen by the policy for reads, or FR-among-writes during a drain;
//! 5. one DRAM command legal under the GDDR5 protocol is issued, scanning
//!    banks in bank-group-interleaved round-robin order.
//!
//! The controller also implements the *Zero Latency Divergence* ideal model
//! (Fig. 4): fast-tracked groups bypass bank timing and pay only data-bus
//! occupancy, which keeps bus bandwidth and contention faithful.

use crate::group::GroupTracker;
use crate::policy::{BankSnapshot, CoordMsg, Policy, PolicyView, SCORE_HIT, SCORE_MISS};
use ldsim_gddr5::{Channel, Command, MerbTable};
use ldsim_types::clock::Cycle;
use ldsim_types::config::MemConfig;
use ldsim_types::ids::{ChannelId, WarpGroupId};
use ldsim_types::req::{MemRequest, MemResponse, ReqKind};
use ldsim_types::stats::Histogram;
use ldsim_util::FnvHashSet;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Command-queue capacity per bank.
pub const CMD_Q_CAP: usize = 8;

/// One entry in a per-bank command queue.
#[derive(Debug, Clone)]
struct CmdEntry {
    cmd: Command,
    /// Bank-Table score contribution (column commands only).
    score: u32,
    /// The request serviced by this column command.
    req: Option<MemRequest>,
}

/// A pending completion (end of a data burst).
#[derive(Debug, Clone)]
struct Completion {
    done: Cycle,
    seq: u64,
    resp: MemResponse,
}

impl PartialEq for Completion {
    fn eq(&self, other: &Self) -> bool {
        self.done == other.done && self.seq == other.seq
    }
}
impl Eq for Completion {}
impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Completion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.done, self.seq).cmp(&(other.done, other.seq))
    }
}

/// Controller statistics.
#[derive(Debug, Clone, Default)]
pub struct CtrlStats {
    pub reads_done: u64,
    pub writes_done: u64,
    /// Reads serviced through the zero-divergence fast path.
    pub fast_reads: u64,
    /// Sum / count of read latency (arrival at controller -> data done).
    pub read_latency_sum: u64,
    pub read_latency_cnt: u64,
    /// Write drains started.
    pub drains: u64,
    /// All-bank refreshes performed.
    pub refreshes: u64,
    /// Cycles spent with the drain state machine engaged.
    pub drain_cycles: u64,
    /// Warp-groups with outstanding reads when a drain started (Fig. 12).
    pub drain_stalled_groups: u64,
    /// ... of which unit-sized (one request on this channel).
    pub drain_stalled_unit: u64,
    /// ... of which partially served (orphaned requests).
    pub drain_stalled_orphan: u64,
}

/// One memory channel's controller.
pub struct Controller {
    pub id: ChannelId,
    pub channel: Channel,
    policy: Box<dyn Policy>,
    num_banks: usize,
    read_q_cap: usize,
    write_q_cap: usize,
    write_hi: usize,
    write_lo: usize,
    wgw_margin: usize,
    merb: MerbTable,

    entry_q: VecDeque<MemRequest>,
    /// FR-among-writes removes from the middle; tombstones (`None`) keep
    /// removal O(1) while preserving FIFO order for the survivors. Leading
    /// tombstones are popped eagerly; interior ones are compacted once they
    /// outnumber the live entries.
    write_q: VecDeque<Option<MemRequest>>,
    /// Live (non-tombstone) entries in `write_q`.
    write_q_live: usize,
    cmd_q: Vec<VecDeque<CmdEntry>>,
    last_sched_row: Vec<Option<u32>>,
    sched_hits_since_row: Vec<u8>,
    queue_score: Vec<u32>,

    draining: bool,
    zero_div: bool,
    bursts_per_access: u8,
    page_policy: ldsim_types::config::PagePolicy,
    refresh_enabled: bool,
    /// A refresh is due: the transaction scheduler is held off while the
    /// command queues drain and open banks are precharged.
    refresh_pending: bool,
    /// Read column commands currently sitting in command queues; while any
    /// are pending, write column commands yield the command bus to them
    /// (writes are always bus-legal; reads after write data wait tWTR, so
    /// unordered issue would starve reads).
    read_cmds_pending: usize,
    fast_groups: FnvHashSet<WarpGroupId>,
    fast_q: VecDeque<MemRequest>,

    completions: BinaryHeap<Reverse<Completion>>,
    seq: u64,
    outbox: Vec<MemResponse>,
    coord_out: Vec<CoordMsg>,

    pub groups: GroupTracker,
    pub stats: CtrlStats,
    bank_rotate: usize,
    /// Bank scan order interleaving bank groups (g0b0, g1b0, g2b0, ...).
    bank_order: Vec<usize>,
    snapshot: Vec<BankSnapshot>,
    /// Per-bank command-queue depth sampled at every transaction enqueue
    /// (None = zero cost). Observation-only.
    depth_hist: Option<Box<Histogram>>,
    /// Busy-bank count (the MERB view's notion of in-service banks) sampled
    /// at every successful read pick (None = zero cost). Observation-only.
    merb_occ_hist: Option<Box<Histogram>>,
    /// Cached [`Channel::ready_cycle`] of each bank's front command, valid
    /// while `ready_epoch[b] == chan_epoch`. Because `ready_cycle` is the
    /// exact inverse of `can_issue` and command legality is monotone in time
    /// for a fixed channel state, `now >= cached` (with the cache valid)
    /// decides issuability without re-deriving timing (DESIGN.md §13).
    ready_cache: Vec<Cycle>,
    ready_epoch: Vec<u64>,
    /// Bumped on every channel mutation; per-bank epochs of 0 never match
    /// (the counter starts at 1), which is how queue-front changes are
    /// invalidated individually.
    chan_epoch: u64,
}

impl Controller {
    /// Build a controller. `zero_div` enables the Fig. 4 ideal fast-track
    /// path (the caller must still invoke [`Self::fast_track_group`] when a
    /// group's first response is observed anywhere).
    pub fn new(
        id: ChannelId,
        mem: &MemConfig,
        channel: Channel,
        policy: Box<dyn Policy>,
        merb: MerbTable,
        zero_div: bool,
    ) -> Self {
        let nb = mem.banks_per_channel;
        let groups_per_channel = nb / mem.banks_per_group;
        let mut bank_order = Vec::with_capacity(nb);
        for within in 0..mem.banks_per_group {
            for g in 0..groups_per_channel {
                bank_order.push(g * mem.banks_per_group + within);
            }
        }
        Self {
            id,
            channel,
            policy,
            num_banks: nb,
            read_q_cap: mem.read_queue,
            write_q_cap: mem.write_queue,
            write_hi: mem.write_hi,
            write_lo: mem.write_lo,
            wgw_margin: mem.wgw_margin,
            merb,
            entry_q: VecDeque::new(),
            write_q: VecDeque::new(),
            write_q_live: 0,
            cmd_q: (0..nb).map(|_| VecDeque::new()).collect(),
            last_sched_row: vec![None; nb],
            sched_hits_since_row: vec![0; nb],
            queue_score: vec![0; nb],
            draining: false,
            zero_div,
            bursts_per_access: mem.bursts_per_access.max(1) as u8,
            page_policy: mem.page_policy,
            refresh_enabled: mem.refresh_enabled,
            refresh_pending: false,
            read_cmds_pending: 0,
            fast_groups: FnvHashSet::default(),
            fast_q: VecDeque::new(),
            completions: BinaryHeap::new(),
            seq: 0,
            outbox: Vec::new(),
            coord_out: Vec::new(),
            groups: GroupTracker::default(),
            stats: CtrlStats::default(),
            bank_rotate: 0,
            bank_order,
            snapshot: vec![BankSnapshot::default(); nb],
            depth_hist: None,
            merb_occ_hist: None,
            ready_cache: vec![0; nb],
            ready_epoch: vec![0; nb],
            chan_epoch: 1,
        }
    }

    /// The channel's timing state changed: every cached front-command
    /// ready-cycle is stale.
    #[inline]
    fn touch_channel(&mut self) {
        self.chan_epoch += 1;
    }

    /// Requests waiting anywhere in the controller.
    pub fn pending(&self) -> usize {
        self.entry_q.len()
            + self.write_q_live
            + self.policy.pending()
            + self.fast_q.len()
            + self.cmd_q.iter().map(|q| q.len()).sum::<usize>()
            + self.completions.len()
    }

    /// Fully idle (nothing queued, scheduled, or in flight)?
    pub fn idle(&self) -> bool {
        self.pending() == 0
    }

    /// Earliest cycle at which [`Self::tick`] could change observable state,
    /// for idle-cycle fast-forwarding. May be conservative (earlier than the
    /// true next change — the caller just steps and asks again) but must
    /// never be later. `None` means nothing will ever happen without new
    /// input.
    ///
    /// Stages that run unconditionally every cycle (admission, transaction
    /// scheduling, drain bookkeeping, coordination output) pin the horizon
    /// at `now`; purely time-gated work (in-flight bursts, command-bus
    /// legality windows, refresh cadence) contributes its exact ready cycle.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if !self.outbox.is_empty()
            || !self.coord_out.is_empty()
            || !self.entry_q.is_empty()
            || self.write_q_live > 0
            || self.policy.pending() > 0
        {
            return Some(now);
        }
        let mut ev: Option<Cycle> = None;
        let mut upd = |c: Cycle| ev = Some(ev.map_or(c, |e| e.min(c)));
        if let Some(Reverse(c)) = self.completions.peek() {
            upd(c.done.max(now));
        }
        if !self.fast_q.is_empty() {
            upd(self.channel.fast_read_ready().max(now));
        }
        for q in &self.cmd_q {
            if let Some(e) = q.front() {
                let r = self.channel.ready_cycle(&e.cmd);
                if r != Cycle::MAX {
                    upd(r.max(now));
                }
            }
        }
        if self.refresh_enabled && !self.refresh_pending {
            upd(self.channel.next_refresh().max(now));
        }
        if self.refresh_pending && self.cmd_q.iter().all(|q| q.is_empty()) {
            // step_refresh examines the first open bank in plain index
            // order; once none remain, REFab waits on every bank's
            // activate-ready point.
            if let Some(b) = self.channel.banks.iter().find(|b| b.is_open()) {
                upd(b.pre_ready.max(now));
            } else {
                let settle = self
                    .channel
                    .banks
                    .iter()
                    .map(|b| b.act_ready)
                    .max()
                    .unwrap_or(0);
                upd(settle.max(now));
            }
        }
        ev
    }

    /// Reads waiting for a transaction-scheduling decision (entry buffer +
    /// policy queue) — the upstream gate keeps this near `read_capacity`.
    pub fn read_backlog(&self) -> usize {
        self.entry_q
            .iter()
            .filter(|r| r.kind == ReqKind::Read)
            .count()
            + self.policy.pending()
            + self.fast_q.len()
    }

    pub fn read_capacity(&self) -> usize {
        self.read_q_cap
    }

    pub fn write_backlog(&self) -> usize {
        self.entry_q
            .iter()
            .filter(|r| r.kind == ReqKind::Write)
            .count()
            + self.write_q_live
    }

    pub fn write_capacity(&self) -> usize {
        self.write_q_cap
    }

    /// Accept a request from the memory partition (unbounded entry buffer;
    /// the bounded read/write queues are filled during `tick`).
    pub fn push_request(&mut self, req: MemRequest) {
        self.entry_q.push_back(req);
    }

    /// The partition absorbed a member of `wg` upstream (L2 hit or MSHR
    /// merge): it will never arrive here.
    pub fn note_absorbed(&mut self, wg: WarpGroupId, group_size_on_channel: u16) {
        self.groups.on_absorbed(wg, group_size_on_channel);
    }

    /// Deliver a WG-M coordination message from another controller.
    pub fn deliver_coord(&mut self, msg: CoordMsg, now: Cycle) {
        self.policy.on_coord(msg, now);
    }

    /// Another warp merged onto one of `wg`'s in-flight lines upstream:
    /// finishing this group now unblocks several warps (Section VIII).
    pub fn note_shared(&mut self, wg: WarpGroupId) {
        self.policy.on_shared(wg);
    }

    /// Drain coordination messages emitted by the local policy.
    pub fn drain_coord(&mut self, out: &mut Vec<CoordMsg>) {
        out.append(&mut self.coord_out);
    }

    /// Drain completed responses.
    pub fn drain_responses(&mut self, out: &mut Vec<MemResponse>) {
        out.append(&mut self.outbox);
    }

    /// Zero-divergence ideal: the first request of `wg` has been serviced
    /// somewhere; every other pending request of the group bypasses bank
    /// timing from now on.
    pub fn fast_track_group(&mut self, wg: WarpGroupId, _now: Cycle) {
        if !self.zero_div || !self.fast_groups.insert(wg) {
            return;
        }
        let mut moved = self.policy.remove_group(wg);
        // Also pull matching reads still sitting in the entry buffer.
        let mut rest = VecDeque::with_capacity(self.entry_q.len());
        while let Some(r) = self.entry_q.pop_front() {
            if r.kind == ReqKind::Read && r.wg == wg {
                moved.push(r);
            } else {
                rest.push_back(r);
            }
        }
        self.entry_q = rest;
        self.fast_q.extend(moved);
    }

    /// Advance one cycle.
    pub fn tick(&mut self, now: Cycle) {
        self.retire_completions(now);
        self.admit(now);
        if self.refresh_enabled && self.channel.refresh_due(now) {
            self.refresh_pending = true;
        }
        if self.refresh_pending {
            // Hold the transaction scheduler; drain queues, precharge, REF.
            if self.step_refresh(now) {
                self.refresh_pending = false;
            }
            self.policy.emit_coord(&mut self.coord_out);
            return;
        }
        self.update_drain_state();
        if self.draining {
            self.stats.drain_cycles += 1;
            self.schedule_write_transaction();
        } else {
            self.schedule_read_transaction(now);
        }
        self.issue_command(now);
        self.policy.emit_coord(&mut self.coord_out);
    }

    /// One refresh-mode cycle. Returns true once the refresh has issued.
    fn step_refresh(&mut self, now: Cycle) -> bool {
        // 1. Finish whatever is already in the command queues.
        if self.cmd_q.iter().any(|q| !q.is_empty()) {
            self.issue_command(now);
            return false;
        }
        // 2. Close any open bank (one PRE per cycle on the command bus).
        for b in 0..self.num_banks {
            let bank = ldsim_types::ids::BankId(b as u8);
            if self.channel.bank(bank).is_open() {
                if self.channel.can_pre(bank, now) {
                    self.channel.issue_pre(bank, now);
                    self.touch_channel();
                    self.last_sched_row[b] = None;
                    self.sched_hits_since_row[b] = 0;
                }
                return false;
            }
        }
        // 3. Issue REFab once every bank has settled.
        if self.channel.can_refresh(now) {
            self.channel.issue_refresh(now);
            self.touch_channel();
            self.stats.refreshes += 1;
            return true;
        }
        false
    }

    fn retire_completions(&mut self, now: Cycle) {
        while let Some(Reverse(c)) = self.completions.peek() {
            if c.done > now {
                break;
            }
            let Reverse(c) = self.completions.pop().unwrap();
            if c.resp.kind == ReqKind::Read {
                self.groups.on_served(c.resp.wg);
                self.outbox.push(c.resp);
            }
        }
    }

    fn admit(&mut self, now: Cycle) {
        while let Some(head) = self.entry_q.front() {
            match head.kind {
                ReqKind::Read => {
                    let mut r = self.entry_q.pop_front().unwrap();
                    r.arrival_cycle = now;
                    if self.zero_div && self.fast_groups.contains(&r.wg) {
                        self.groups.on_arrival(&r);
                        self.fast_q.push_back(r);
                        continue;
                    }
                    if self.policy.pending() >= self.read_q_cap {
                        self.entry_q.push_front(r);
                        break;
                    }
                    self.groups.on_arrival(&r);
                    self.policy.on_arrival(r, now);
                }
                ReqKind::Write => {
                    if self.policy.wants_writes() {
                        if self.policy.pending() >= self.read_q_cap + self.write_q_cap {
                            break;
                        }
                        let mut r = self.entry_q.pop_front().unwrap();
                        r.arrival_cycle = now;
                        self.policy.on_arrival(r, now);
                    } else {
                        if self.write_q_live >= self.write_q_cap {
                            break;
                        }
                        let mut r = self.entry_q.pop_front().unwrap();
                        r.arrival_cycle = now;
                        self.write_q.push_back(Some(r));
                        self.write_q_live += 1;
                    }
                }
            }
        }
    }

    fn update_drain_state(&mut self) {
        if self.policy.wants_writes() {
            // SBWAS interleaves writes with reads; no batch draining.
            self.draining = false;
            return;
        }
        if !self.draining {
            let forced = self.write_q_live >= self.write_hi;
            let opportunistic = self.write_q_live > 0
                && self.policy.pending() == 0
                && self.entry_q.is_empty()
                && self.fast_q.is_empty();
            if forced || opportunistic {
                self.draining = true;
                self.stats.drains += 1;
                if forced {
                    self.classify_drain_stalls();
                }
            }
        } else if self.write_q_live <= self.write_lo {
            self.draining = false;
        }
    }

    /// Fig. 12 bookkeeping: which warp-groups does this (forced) drain stall?
    fn classify_drain_stalls(&mut self) {
        for (_, g) in self.groups.iter() {
            if g.outstanding() > 0 {
                self.stats.drain_stalled_groups += 1;
                if g.expected == 1 {
                    self.stats.drain_stalled_unit += 1;
                } else if g.partially_served() {
                    self.stats.drain_stalled_orphan += 1;
                }
            }
        }
    }

    fn schedule_read_transaction(&mut self, now: Cycle) {
        if self.policy.pending() == 0 {
            return;
        }
        self.refresh_snapshot();
        let view = PolicyView {
            now,
            banks: &self.snapshot,
            groups: &self.groups,
            write_q_len: self.write_q_live,
            write_hi: self.write_hi,
            wgw_margin: self.wgw_margin,
            merb: &self.merb,
        };
        if let Some(req) = self.policy.pick(&view) {
            if let Some(h) = self.merb_occ_hist.as_deref_mut() {
                // Banks with queued work — the occupancy the MERB gate
                // reasons about (cf. WG-Bw's banks_with_work predicate).
                h.add(self.snapshot.iter().filter(|s| s.busy).count() as u64);
            }
            self.enqueue_transaction(req);
        }
    }

    fn schedule_write_transaction(&mut self) {
        // FR among writes: prefer the oldest row-hit, else the oldest write,
        // subject to command-queue headroom.
        let mut choice: Option<usize> = None;
        for (i, w) in self.write_q.iter().enumerate() {
            let Some(w) = w else { continue };
            let b = w.decoded.bank.0 as usize;
            let hit = self.last_sched_row[b] == Some(w.decoded.row);
            let need = if hit { 1 } else { 3 };
            if CMD_Q_CAP - self.cmd_q[b].len() < need {
                continue;
            }
            if hit {
                choice = Some(i);
                break;
            }
            if choice.is_none() {
                choice = Some(i);
            }
        }
        if let Some(i) = choice {
            let req = self.write_q[i].take().unwrap();
            self.write_q_live -= 1;
            while matches!(self.write_q.front(), Some(None)) {
                self.write_q.pop_front();
            }
            // Interior tombstones can pile up only if the front entry is
            // persistently headroom-blocked; compact before they dominate
            // the scan.
            if self.write_q.len() > 2 * self.write_q_live {
                self.write_q.retain(Option::is_some);
            }
            self.enqueue_transaction(req);
        }
    }

    /// Expand one request into commands in its bank's queue.
    fn enqueue_transaction(&mut self, req: MemRequest) {
        let b = req.decoded.bank.0 as usize;
        // If the bank's queue was empty, the pushes below install a new
        // front command; drop its cached ready-cycle (0 never matches
        // `chan_epoch`, which starts at 1).
        self.ready_epoch[b] = 0;
        if let Some(h) = self.depth_hist.as_deref_mut() {
            h.add(self.cmd_q[b].len() as u64);
        }
        let hit = self.last_sched_row[b] == Some(req.decoded.row);
        let need = if hit { 1 } else { 3 };
        debug_assert!(
            CMD_Q_CAP - self.cmd_q[b].len() >= need,
            "policy violated command-queue headroom"
        );
        let bank = req.decoded.bank;
        let score = if hit { SCORE_HIT } else { SCORE_MISS };
        if !hit {
            if self.last_sched_row[b].is_some() {
                self.cmd_q[b].push_back(CmdEntry {
                    cmd: Command::Pre { bank },
                    score: 0,
                    req: None,
                });
            }
            self.cmd_q[b].push_back(CmdEntry {
                cmd: Command::Act {
                    bank,
                    row: req.decoded.row,
                },
                score: 0,
                req: None,
            });
            self.last_sched_row[b] = Some(req.decoded.row);
            self.sched_hits_since_row[b] = 0;
        } else {
            self.sched_hits_since_row[b] = self.sched_hits_since_row[b]
                .saturating_add(self.bursts_per_access)
                .min(31);
        }
        let cmd = match req.kind {
            ReqKind::Read => {
                self.read_cmds_pending += 1;
                Command::Read {
                    bank,
                    req: req.id.0,
                }
            }
            ReqKind::Write => Command::Write {
                bank,
                req: req.id.0,
            },
        };
        self.queue_score[b] += score;
        self.cmd_q[b].push_back(CmdEntry {
            cmd,
            score,
            req: Some(req),
        });
        if self.page_policy == ldsim_types::config::PagePolicy::Closed {
            // Auto-precharge: close the row right behind the column access.
            self.cmd_q[b].push_back(CmdEntry {
                cmd: Command::Pre { bank },
                score: 0,
                req: None,
            });
            self.last_sched_row[b] = None;
            self.sched_hits_since_row[b] = 0;
        }
    }

    fn refresh_snapshot(&mut self) {
        for b in 0..self.num_banks {
            self.snapshot[b] = BankSnapshot {
                last_scheduled_row: self.last_sched_row[b],
                queue_score: self.queue_score[b],
                queue_len: self.cmd_q[b].len(),
                headroom: CMD_Q_CAP - self.cmd_q[b].len(),
                hits_since_row_open: self.sched_hits_since_row[b],
                busy: !self.cmd_q[b].is_empty(),
            };
        }
    }

    fn issue_command(&mut self, now: Cycle) {
        // Zero-divergence fast path: one bus-only read per cycle.
        if !self.fast_q.is_empty() {
            if let Some(done) = self.channel.try_fast_read(now) {
                self.touch_channel();
                let r = self.fast_q.pop_front().unwrap();
                self.stats.fast_reads += 1;
                self.finish_request(&r, done);
                return;
            }
        }
        // Regular path: scan banks group-interleaved, rotating start. Two
        // passes when not draining: writes at a bank head would otherwise
        // starve reads through the tWTR turnaround (a write is always
        // bus-legal, a read after write-data is not), so read-mode issues a
        // write column command only when no other command can go.
        let n = self.num_banks;
        for pass in 0..2 {
            for i in 0..n {
                let b = self.bank_order[(i + self.bank_rotate) % n];
                let Some(entry) = self.cmd_q[b].front() else {
                    continue;
                };
                if pass == 0
                    && self.read_cmds_pending > 0
                    && matches!(entry.cmd, Command::Write { .. })
                {
                    continue;
                }
                // Cached legality: `ready_cycle` is the exact inverse of
                // `can_issue`, and legality is monotone in time while the
                // channel state is unchanged (every mutation bumps
                // `chan_epoch`), so the comparison below is bit-exact with
                // re-deriving the timing each cycle.
                let ready = if self.ready_epoch[b] == self.chan_epoch {
                    self.ready_cache[b]
                } else {
                    let r = self.channel.ready_cycle(&entry.cmd);
                    self.ready_cache[b] = r;
                    self.ready_epoch[b] = self.chan_epoch;
                    r
                };
                if now < ready || ready == Cycle::MAX {
                    debug_assert!(!self.channel.can_issue(&entry.cmd, now));
                    continue;
                }
                debug_assert!(self.channel.can_issue(&entry.cmd, now));
                let entry = self.cmd_q[b].pop_front().unwrap();
                let done = self.channel.issue(&entry.cmd, now);
                self.touch_channel();
                if matches!(entry.cmd, Command::Read { .. }) {
                    self.read_cmds_pending -= 1;
                }
                if let Some(req) = entry.req {
                    self.queue_score[b] -= entry.score;
                    self.finish_request(&req, done.expect("column command returns data end"));
                }
                self.bank_rotate = (self.bank_rotate + i + 1) % n;
                return;
            }
        }
    }

    /// Book a completed (or scheduled-to-complete) request.
    fn finish_request(&mut self, req: &MemRequest, done: Cycle) {
        match req.kind {
            ReqKind::Read => {
                self.stats.reads_done += 1;
                self.stats.read_latency_sum += done.saturating_sub(req.arrival_cycle);
                self.stats.read_latency_cnt += 1;
            }
            ReqKind::Write => {
                self.stats.writes_done += 1;
            }
        }
        self.seq += 1;
        self.completions.push(Reverse(Completion {
            done,
            seq: self.seq,
            resp: MemResponse {
                id: req.id,
                wg: req.wg,
                line_addr: req.line_addr,
                kind: req.kind,
                done_cycle: done,
            },
        }));
    }

    /// Attach the independent protocol auditor to this channel.
    pub fn enable_audit(&mut self) {
        self.channel.enable_audit();
    }

    /// Start structured command logging on this channel.
    pub fn enable_cmd_log(&mut self) {
        self.channel.enable_cmd_log();
    }

    /// Arm the controller-level distribution histograms (per-bank queue
    /// depth at enqueue, MERB busy-bank occupancy at pick) and the
    /// channel's row-hit streak recorder. Observation-only.
    pub fn enable_hist(&mut self) {
        self.depth_hist = Some(Box::new(Histogram::latency()));
        self.merb_occ_hist = Some(Box::new(Histogram::latency()));
        self.channel.enable_streak_hist();
    }

    /// Recorded per-bank queue-depth distribution (None if unarmed).
    pub fn depth_hist(&self) -> Option<&Histogram> {
        self.depth_hist.as_deref()
    }

    /// Recorded MERB busy-bank occupancy distribution (None if unarmed).
    pub fn merb_occ_hist(&self) -> Option<&Histogram> {
        self.merb_occ_hist.as_deref()
    }

    /// Protocol violations the auditor has counted (0 when auditing is off).
    pub fn audit_violation_count(&self) -> u64 {
        self.channel.audit_violation_count()
    }

    /// Diagnostic counters from the policy (see [`Policy::counters`]).
    pub fn policy_counters(&self) -> [u64; 4] {
        self.policy.counters()
    }

    /// Is a write drain currently in progress?
    pub fn is_draining(&self) -> bool {
        self.draining
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::FrFcfs;
    use ldsim_types::addr::AddressMapper;
    use ldsim_types::clock::ClockDomain;
    use ldsim_types::config::TimingParams;
    use ldsim_types::ids::{GlobalWarpId, RequestId};

    fn mk_ctrl(zero_div: bool) -> (Controller, AddressMapper) {
        let mem = MemConfig::default();
        let t = TimingParams::default().in_cycles(ClockDomain::GDDR5);
        let ch = Channel::new(&mem, t);
        let merb = MerbTable::from_timing(&mem.timing, ClockDomain::GDDR5, mem.banks_per_channel);
        let ctrl = Controller::new(
            ChannelId(0),
            &mem,
            ch,
            Box::new(FrFcfs::new()),
            merb,
            zero_div,
        );
        (ctrl, AddressMapper::new(&mem, 128))
    }

    fn mk_req(m: &AddressMapper, id: u64, addr: u64, kind: ReqKind, size: u16) -> MemRequest {
        MemRequest {
            id: RequestId(id),
            kind,
            line_addr: m.line_addr(addr),
            decoded: m.decode(addr),
            wg: WarpGroupId::new(GlobalWarpId::new(0, 0), id as u32 / 100),
            last_of_group: false,
            group_size_on_channel: size,
            issue_cycle: 0,
            arrival_cycle: 0,
        }
    }

    /// Run the controller until idle, returning responses and final cycle.
    fn run_to_idle(ctrl: &mut Controller, max: Cycle) -> (Vec<MemResponse>, Cycle) {
        let mut out = Vec::new();
        let mut now = 0;
        while !ctrl.idle() && now < max {
            ctrl.tick(now);
            ctrl.drain_responses(&mut out);
            now += 1;
        }
        (out, now)
    }

    #[test]
    fn single_read_end_to_end() {
        let (mut ctrl, m) = mk_ctrl(false);
        ctrl.push_request(mk_req(&m, 1, 0x8000, ReqKind::Read, 1));
        let (resps, _) = run_to_idle(&mut ctrl, 10_000);
        assert_eq!(resps.len(), 1);
        // Closed-page first access: ACT at ~2, RD at ~2+tRCD, data at +tCAS+tBURST.
        let t = *ctrl.channel.timing();
        assert!(resps[0].done_cycle >= t.t_rcd + t.t_cas + t.t_burst);
        assert!(resps[0].done_cycle < 200, "single read too slow");
        assert_eq!(ctrl.stats.reads_done, 1);
    }

    #[test]
    fn row_hits_stream_back_to_back() {
        let (mut ctrl, m) = mk_ctrl(false);
        // 8 lines of the same row (same 256B block pairs share row/bank).
        let base = 0x10_0000u64;
        let d0 = m.decode(base);
        let mut n = 0;
        for addr in (0..0x40_0000u64).step_by(128) {
            let d = m.decode(base + addr);
            if d.channel == d0.channel && d.bank == d0.bank && d.row == d0.row {
                ctrl.push_request(mk_req(&m, n + 1, base + addr, ReqKind::Read, 1));
                n += 1;
                if n == 8 {
                    break;
                }
            }
        }
        assert_eq!(n, 8, "need 8 same-row lines for this test");
        let (resps, _) = run_to_idle(&mut ctrl, 100_000);
        assert_eq!(resps.len(), 8);
        // One ACT only; all subsequent are row hits.
        assert_eq!(ctrl.channel.stats.acts, 1);
        assert_eq!(ctrl.channel.stats.reads, 8);
    }

    #[test]
    fn writes_drain_in_batches() {
        let (mut ctrl, m) = mk_ctrl(false);
        // Fill the write queue past the high watermark; no reads at all, so
        // the opportunistic drain path fires even earlier.
        for i in 0..40u64 {
            ctrl.push_request(mk_req(&m, i + 1, i * 128, ReqKind::Write, 1));
        }
        let (resps, _) = run_to_idle(&mut ctrl, 200_000);
        // Writes produce no SM-visible responses.
        assert!(resps.is_empty());
        assert_eq!(ctrl.stats.writes_done, 40);
        assert!(ctrl.stats.drains >= 1);
    }

    #[test]
    fn forced_drain_classifies_stalled_groups() {
        let (mut ctrl, m) = mk_ctrl(false);
        // One unit-sized read group waiting...
        let mut unit = mk_req(&m, 1, 0x9000, ReqKind::Read, 1);
        unit.wg = WarpGroupId::new(GlobalWarpId::new(1, 1), 0);
        ctrl.push_request(unit);
        // ...plus enough writes to hit the high watermark (32).
        for i in 0..33u64 {
            ctrl.push_request(mk_req(&m, 100 + i, i * 128, ReqKind::Write, 1));
        }
        // Tick a few cycles so admission + forced drain trigger while the
        // read is still pending.
        for now in 0..6 {
            ctrl.tick(now);
        }
        assert!(ctrl.stats.drains >= 1);
        assert!(ctrl.stats.drain_stalled_groups >= 1);
        assert!(ctrl.stats.drain_stalled_unit >= 1);
    }

    #[test]
    fn zero_div_fast_tracks_rest_of_group() {
        let (mut ctrl, m) = mk_ctrl(true);
        let wg = WarpGroupId::new(GlobalWarpId::new(2, 3), 5);
        // Group of 4 requests; the last two arrive only after the first
        // response (as straggling interconnect traffic would).
        let addrs = [0x0u64, 0x1100, 0x2200, 0x3300];
        for (i, &a) in addrs.iter().take(2).enumerate() {
            let mut r = mk_req(&m, i as u64 + 1, a, ReqKind::Read, 4);
            r.wg = wg;
            ctrl.push_request(r);
        }
        // Let the first one get serviced normally.
        let mut out = Vec::new();
        let mut now = 0;
        while out.is_empty() && now < 10_000 {
            ctrl.tick(now);
            ctrl.drain_responses(&mut out);
            now += 1;
        }
        assert_eq!(out.len(), 1);
        ctrl.fast_track_group(wg, now);
        for (i, &a) in addrs.iter().enumerate().skip(2) {
            let mut r = mk_req(&m, i as u64 + 1, a, ReqKind::Read, 4);
            r.wg = wg;
            ctrl.push_request(r);
        }
        while !ctrl.idle() && now < 50_000 {
            ctrl.tick(now);
            ctrl.drain_responses(&mut out);
            now += 1;
        }
        assert_eq!(out.len(), 4);
        assert!(
            ctrl.stats.fast_reads >= 2,
            "late arrivals of a fast-tracked group must use the fast path, got {}",
            ctrl.stats.fast_reads
        );
        // Fast reads are bus-only: no extra ACTs beyond the normally
        // serviced members.
        assert!(ctrl.channel.stats.acts <= 2);
    }

    #[test]
    fn no_request_lost_under_load() {
        let (mut ctrl, m) = mk_ctrl(false);
        let n = 300u64;
        for i in 0..n {
            let kind = if i % 5 == 0 {
                ReqKind::Write
            } else {
                ReqKind::Read
            };
            ctrl.push_request(mk_req(&m, i + 1, (i * 7919) % (1 << 26) * 128, kind, 1));
        }
        let (resps, end) = run_to_idle(&mut ctrl, 2_000_000);
        assert!(end < 2_000_000, "controller did not go idle");
        let reads = (0..n).filter(|i| i % 5 != 0).count();
        assert_eq!(resps.len(), reads);
        assert_eq!(ctrl.stats.reads_done as usize, reads);
        assert_eq!(ctrl.stats.writes_done as usize, n as usize - reads);
        // Every response id unique.
        let mut ids: Vec<u64> = resps.iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), reads);
    }

    #[test]
    fn opportunistic_drain_when_no_reads() {
        let (mut ctrl, m) = mk_ctrl(false);
        // A handful of writes, below the high watermark, and no reads: the
        // controller drains opportunistically instead of sitting on them.
        for i in 0..5u64 {
            ctrl.push_request(mk_req(&m, i + 1, i * 512, ReqKind::Write, 1));
        }
        let (_, end) = run_to_idle(&mut ctrl, 100_000);
        assert!(end < 100_000);
        assert_eq!(ctrl.stats.writes_done, 5);
    }

    #[test]
    fn drain_exits_at_low_watermark_when_reads_wait() {
        let (mut ctrl, m) = mk_ctrl(false);
        // Force a drain with 32 writes while reads are waiting; the state
        // machine must hand scheduling back to reads once the write queue
        // reaches the low watermark — i.e., at some point the controller is
        // in read mode with a partially drained (non-empty) write queue.
        for i in 0..32u64 {
            ctrl.push_request(mk_req(&m, 1000 + i, i * 640, ReqKind::Write, 1));
        }
        for i in 0..8u64 {
            ctrl.push_request(mk_req(&m, i + 1, 0x9000 + i * 256, ReqKind::Read, 1));
        }
        let mut out = Vec::new();
        let mut now = 0;
        let mut saw_forced_drain = false;
        let mut saw_read_mode_with_writes_left = false;
        while !ctrl.idle() && now < 200_000 {
            ctrl.tick(now);
            ctrl.drain_responses(&mut out);
            if ctrl.is_draining() && ctrl.write_backlog() >= 30 {
                saw_forced_drain = true;
            }
            if saw_forced_drain && !ctrl.is_draining() && ctrl.write_backlog() > 0 {
                saw_read_mode_with_writes_left = true;
            }
            now += 1;
        }
        assert!(saw_forced_drain, "high watermark must trigger a drain");
        assert!(
            saw_read_mode_with_writes_left,
            "drain must release at the low watermark, not empty the queue"
        );
        assert_eq!(ctrl.stats.writes_done, 32);
        assert_eq!(ctrl.stats.reads_done, 8);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn per_bank_command_order_is_fifo() {
        // Two same-bank, different-row reads: the second must not be
        // serviced before the first (within-bank queue order is preserved
        // by the command scheduler).
        let (mut ctrl, m) = mk_ctrl(false);
        let d0 = m.decode(0x4000);
        // find same-bank different-row address
        let mut other = None;
        for i in 1..100_000u64 {
            let a = 0x4000 + i * 128;
            let d = m.decode(a);
            if d.channel == d0.channel && d.bank == d0.bank && d.row != d0.row {
                other = Some(a);
                break;
            }
        }
        let other = other.unwrap();
        ctrl.push_request(mk_req(&m, 1, 0x4000, ReqKind::Read, 1));
        ctrl.push_request(mk_req(&m, 2, other, ReqKind::Read, 1));
        let (resps, _) = run_to_idle(&mut ctrl, 100_000);
        assert_eq!(resps.len(), 2);
        assert!(resps[0].id.0 == 1 && resps[1].id.0 == 2);
        assert!(resps[0].done_cycle < resps[1].done_cycle);
    }

    #[test]
    fn fig12_orphan_classification() {
        let (mut ctrl, m) = mk_ctrl(false);
        // A two-request group, one already served -> partially served when
        // the forced drain hits.
        let wg2 = WarpGroupId::new(GlobalWarpId::new(3, 3), 1);
        let mut r1 = mk_req(&m, 1, 0x8000, ReqKind::Read, 2);
        r1.wg = wg2;
        ctrl.push_request(r1);
        // Run until it is served.
        let mut out = Vec::new();
        let mut now = 0;
        while out.is_empty() && now < 20_000 {
            ctrl.tick(now);
            ctrl.drain_responses(&mut out);
            now += 1;
        }
        // Second member arrives, then the write flood triggers a drain.
        let mut r2 = mk_req(&m, 2, 0x10_8000, ReqKind::Read, 2);
        r2.wg = wg2;
        ctrl.push_request(r2);
        for i in 0..33u64 {
            ctrl.push_request(mk_req(&m, 100 + i, i * 768, ReqKind::Write, 1));
        }
        for _ in 0..6 {
            ctrl.tick(now);
            now += 1;
        }
        assert!(ctrl.stats.drain_stalled_orphan >= 1, "orphan not counted");
    }

    #[test]
    fn refresh_interleaves_with_service() {
        let (mut ctrl, m) = mk_ctrl(false);
        // Enough traffic to span several tREFI windows (tREFI is ~2850
        // cycles; 500 scattered reads run for >4000).
        for i in 0..500u64 {
            ctrl.push_request(mk_req(
                &m,
                i + 1,
                (i * 8191) % (1 << 25) * 128,
                ReqKind::Read,
                1,
            ));
        }
        let (resps, end) = run_to_idle(&mut ctrl, 2_000_000);
        assert_eq!(resps.len(), 500);
        assert!(
            ctrl.stats.refreshes >= 1,
            "a multi-tREFI run must refresh (end={end})"
        );
        // Refresh cadence: roughly one per tREFI of elapsed time.
        let t = *ctrl.channel.timing();
        let expect = end / t.t_refi;
        assert!(
            ctrl.stats.refreshes <= expect + 1,
            "refreshed {} times in {} cycles",
            ctrl.stats.refreshes,
            end
        );
    }

    #[test]
    fn refresh_can_be_disabled() {
        let mem = MemConfig {
            refresh_enabled: false,
            ..MemConfig::default()
        };
        let t = TimingParams::default().in_cycles(ClockDomain::GDDR5);
        let ch = Channel::new(&mem, t);
        let merb = MerbTable::from_timing(&mem.timing, ClockDomain::GDDR5, mem.banks_per_channel);
        let mut ctrl =
            Controller::new(ChannelId(0), &mem, ch, Box::new(FrFcfs::new()), merb, false);
        let m = AddressMapper::new(&mem, 128);
        for i in 0..60u64 {
            ctrl.push_request(mk_req(&m, i + 1, i * 4096 * 128, ReqKind::Read, 1));
        }
        let (_, _end) = run_to_idle(&mut ctrl, 2_000_000);
        assert_eq!(ctrl.stats.refreshes, 0);
    }

    #[test]
    fn closed_page_policy_never_leaves_rows_open() {
        let mem = MemConfig {
            page_policy: ldsim_types::config::PagePolicy::Closed,
            ..MemConfig::default()
        };
        let t = TimingParams::default().in_cycles(ClockDomain::GDDR5);
        let ch = Channel::new(&mem, t);
        let merb = MerbTable::from_timing(&mem.timing, ClockDomain::GDDR5, mem.banks_per_channel);
        let mut ctrl =
            Controller::new(ChannelId(0), &mem, ch, Box::new(FrFcfs::new()), merb, false);
        let m = AddressMapper::new(&mem, 128);
        // Same-row requests, which open-page would stream as hits.
        let base = 0x10_0000u64;
        let mut n = 0u64;
        for addr in (0..0x40_0000u64).step_by(128) {
            let d = m.decode(base + addr);
            let d0 = m.decode(base);
            if d.channel == d0.channel && d.bank == d0.bank && d.row == d0.row {
                n += 1;
                ctrl.push_request(mk_req(&m, n, base + addr, ReqKind::Read, 1));
                if n == 6 {
                    break;
                }
            }
        }
        let (resps, _) = run_to_idle(&mut ctrl, 200_000);
        assert_eq!(resps.len(), 6);
        // Closed page: one ACT per access (no residual open rows either).
        assert_eq!(ctrl.channel.stats.acts, 6);
        assert_eq!(ctrl.channel.open_banks(), 0);
        assert!((ctrl.channel.stats.row_hit_rate() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn next_event_skipping_is_bit_exact() {
        // Service a mixed workload twice: once ticking every cycle, once
        // ticking only at the horizons next_event reports. Responses and
        // channel statistics must match exactly.
        let drive = |skip: bool| {
            let (mut ctrl, m) = mk_ctrl(false);
            for i in 0..360u64 {
                let kind = if i % 4 == 0 {
                    ReqKind::Write
                } else {
                    ReqKind::Read
                };
                ctrl.push_request(mk_req(&m, i + 1, (i * 6151) % (1 << 25) * 128, kind, 1));
            }
            let mut out = Vec::new();
            let mut now = 0;
            while !ctrl.idle() && now < 2_000_000 {
                ctrl.tick(now);
                ctrl.drain_responses(&mut out);
                now += 1;
                if skip {
                    if let Some(ev) = ctrl.next_event(now) {
                        assert!(ev >= now, "horizon moved backwards");
                        now = ev;
                    }
                }
            }
            assert!(ctrl.idle(), "controller did not drain (skip={skip})");
            let done: Vec<(u64, Cycle)> = out.iter().map(|r| (r.id.0, r.done_cycle)).collect();
            (done, ctrl.channel.stats, ctrl.stats.refreshes)
        };
        let (resp_a, stats_a, ref_a) = drive(false);
        let (resp_b, stats_b, ref_b) = drive(true);
        assert_eq!(resp_a, resp_b, "responses diverged under skipping");
        assert_eq!(stats_a, stats_b, "channel stats diverged under skipping");
        assert_eq!(ref_a, ref_b);
        assert!(ref_a >= 1, "workload long enough to cross a refresh window");
    }

    #[test]
    fn next_event_none_when_idle_now_when_loaded() {
        let (mut ctrl, m) = mk_ctrl(false);
        // A fresh controller's only event is the refresh cadence.
        let t = *ctrl.channel.timing();
        assert_eq!(ctrl.next_event(0), Some(t.t_refi));
        ctrl.push_request(mk_req(&m, 1, 0x8000, ReqKind::Read, 1));
        assert_eq!(ctrl.next_event(5), Some(5), "queued work pins the horizon");
    }

    #[test]
    fn read_queue_admission_is_bounded() {
        let (mut ctrl, m) = mk_ctrl(false);
        for i in 0..200u64 {
            ctrl.push_request(mk_req(&m, i + 1, i * 128 * 977, ReqKind::Read, 1));
        }
        ctrl.tick(0);
        assert!(ctrl.policy.pending() <= 64);
        assert!(!ctrl.entry_q.is_empty(), "excess stays in the entry buffer");
    }
}
