//! The streaming multiprocessor (SM) model.
//!
//! Each SM executes the kernel IR for its resident warps with a
//! greedy-then-oldest scheduler, one warp-instruction per cycle:
//!
//! * `Compute(n)` makes the warp busy for `n` cycles (retiring `n`
//!   instructions);
//! * `Load` coalesces the 32 lane addresses, probes the L1 (with MSHR
//!   merging), sends the surviving misses to the memory partitions as one
//!   **warp-group**, and blocks the warp until every lane is satisfied —
//!   the SIMT lockstep rule at the heart of the paper;
//! * `Store` coalesces and fires writes at the L2 without blocking.
//!
//! Every completed load leaves a [`LoadRecord`] behind; these records are
//! the raw data for Figs. 2, 3, 9 and 10.

use crate::cache::{Cache, Mshr, MshrOutcome};
use crate::coalescer::coalesce_into;
use ldsim_types::addr::AddressMapper;
use ldsim_types::clock::Cycle;
use ldsim_types::config::GpuConfig;
use ldsim_types::ids::{GlobalWarpId, LaneMask, RequestId, SmId, WarpGroupId};
use ldsim_types::kernel::{Instruction, WarpProgram};
use ldsim_types::req::{MemRequest, ReqKind};

/// A response delivered to the SM for one 128 B line.
#[derive(Debug, Clone, Copy)]
pub struct SmResponse {
    pub line_addr: u64,
    /// Was this line ultimately serviced by DRAM (vs. an L2 hit)?
    pub from_dram: bool,
    /// DRAM data-end cycle (meaningful when `from_dram`).
    pub dram_cycle: Cycle,
}

/// Statistics for one completed dynamic load.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadRecord {
    pub warp: GlobalWarpId,
    pub active_lanes: u32,
    /// Requests after coalescing (Fig. 2's numerator).
    pub coalesced: u32,
    /// Requests that left the SM toward memory (post-L1).
    pub mem_reqs: u32,
    /// Line fills that came from DRAM.
    pub dram_responses: u32,
    pub issue: Cycle,
    pub complete: Cycle,
    /// First / last DRAM data-end cycle among the load's lines (0 if none).
    pub first_dram: Cycle,
    pub last_dram: Cycle,
    /// Distinct channels / (channel, bank) pairs touched by `mem_reqs`.
    pub channels_touched: u32,
    pub banks_touched: u32,
    /// Members of the group sharing a DRAM row with another member.
    pub same_row_reqs: u32,
}

impl LoadRecord {
    /// Effective memory latency (Fig. 9): issue to last response.
    pub fn effective_latency(&self) -> Cycle {
        self.complete.saturating_sub(self.issue)
    }

    /// DRAM latency divergence (Figs. 3, 10): first to last DRAM service.
    pub fn dram_gap(&self) -> Cycle {
        self.last_dram.saturating_sub(self.first_dram)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WState {
    Ready,
    Busy(Cycle),
    WaitMem,
    Done,
}

/// Settled-tick memo (DESIGN.md §13), armed by a tick that issued nothing.
/// Such a tick leaves a fixpoint: until a fill lands, a busy warp wakes
/// (which also covers the port freeing) or staged requests see crossbar
/// room, every later tick drains nothing, wakes nothing, retries the same
/// warps in the same order with the same failures, and adds only `bump`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Settled {
    fill_epoch: u64,
    /// The earliest busy-warp expiry.
    until: Cycle,
    /// What each settled tick adds to `(port_busy_cycles,
    /// mem_idle_cycles)`: one of them, or neither.
    bump: (u64, u64),
}

#[derive(Debug)]
struct WarpCtx {
    pc: usize,
    state: WState,
    load_serial: u32,
    outstanding: u32,
    cur: LoadRecord,
    retired: u64,
    /// `fill_epoch` at which this warp's load last failed the MSHR
    /// capacity check (`u64::MAX` = no memoized failure), plus how far
    /// over capacity it was (`deficit = len + new_entries - cap`, >= 1).
    /// Between fills `mshr.len() + new_entries` can only grow for a
    /// blocked warp — stores only invalidate L1 lines (more misses), and
    /// another warp's register that turns one of our "new" lines into a
    /// merge adds at least as much to `len` as it removes from
    /// `new_entries` — and each fill lowers the sum by exactly one (it
    /// frees one MSHR entry; the filled line was in flight, so it was
    /// never one of our "new" lines, and any eviction it causes only adds
    /// misses). So the check is guaranteed to fail again until `deficit`
    /// fills have landed, and the coalesce + classify rescan is skipped
    /// until then.
    mshr_block_epoch: u64,
    mshr_block_deficit: u64,
}

/// One streaming multiprocessor.
pub struct Sm {
    pub id: SmId,
    programs: Vec<WarpProgram>,
    warps: Vec<WarpCtx>,
    l1: Cache,
    l1_mshr: Mshr<u16>,
    l1_mshr_cap: usize,
    mapper: AddressMapper,
    line_shift: u32,
    last_issued: usize,
    /// Min-heap of `(until, warp)` for every `Busy` warp — exactly one
    /// entry per Busy warp, popped at its wake tick, so the per-cycle wake
    /// pass costs O(expired) instead of O(warps) and `next_event`'s
    /// earliest-expiry query is the heap peek (DESIGN.md §13).
    busy_heap: std::collections::BinaryHeap<std::cmp::Reverse<(Cycle, u32)>>,
    /// Bitset of `Ready` warps (bit = warp index), kept in lockstep with
    /// `WState` at every transition: the issue stage walks set bits in
    /// ascending order — the same oldest-first order as the old full scan —
    /// and the idle check is `ready_count == 0` instead of an all-warps
    /// scan. Wake order and scan order have no cross-warp effects, so both
    /// replacements are bit-exact.
    ready_words: Vec<u64>,
    ready_count: usize,
    /// The SM's single issue port: busy until this cycle. A `Compute(n)`
    /// occupies it for n cycles (warp-interleaved issue is aggregated), so
    /// SM throughput is port-limited unless every warp is blocked on memory
    /// — which is when memory latency becomes visible in IPC, exactly the
    /// regime the paper studies.
    port_free: Cycle,
    next_req: u64,
    scratch_lines: Vec<u64>,
    /// Reusable per-load buffers (miss lines, (channel,bank,row) keys,
    /// outgoing requests): load issue is the SM hot path, and per-load
    /// `Vec` churn showed up directly in the allocator profile.
    scratch_misses: Vec<u64>,
    scratch_keys: Vec<(u8, u8, u32)>,
    scratch_reqs: Vec<MemRequest>,
    /// Per channel: a load's requests to it, and how many of them are
    /// numbered so far.
    scratch_per_channel: Vec<(u16, u16)>,
    /// Requests of an issued load/store still waiting for crossbar space;
    /// drained in order, at most `xbar_free` per cycle. Lets a wide gather
    /// issue atomically without requiring a huge injection budget.
    stage_q: std::collections::VecDeque<MemRequest>,
    /// Completed load records (Figs. 2/3/9/10 raw data).
    pub records: Vec<LoadRecord>,
    /// Warp-instructions retired (IPC numerator).
    pub retired: u64,
    /// Bumped on every line fill — the only event that can shrink
    /// `mshr.len() + new_entries` for a blocked warp (see
    /// [`WarpCtx::mshr_block_epoch`]).
    fill_epoch: u64,
    /// Cycles the issue port was occupied by compute.
    pub port_busy_cycles: u64,
    /// Cycles the port was free but no warp was ready (all blocked on
    /// memory or done) — the SM-idle statistic the paper's motivation cites.
    pub mem_idle_cycles: u64,
    done_warps: usize,
    /// Per-warp largest single-instruction weight (`Compute(k)`/`Delay(k)`
    /// weigh `k`, memory ops 1) — static input to [`Self::budget_lookahead`].
    warp_max_weight: Vec<u64>,
    /// [`Self::budget_lookahead`]'s triple, recomputed only when a warp
    /// turns Done — the one transition that moves it.
    budget: (u64, u64, u64),
    /// Set by every tick that issued nothing, cleared by every tick that
    /// issued (see [`Settled`]).
    settled: Option<Settled>,
}

impl Sm {
    pub fn new(
        id: SmId,
        cfg: &GpuConfig,
        mapper: AddressMapper,
        programs: Vec<WarpProgram>,
    ) -> Self {
        let warps = programs
            .iter()
            .map(|_| WarpCtx {
                pc: 0,
                state: WState::Ready,
                load_serial: 0,
                outstanding: 0,
                cur: LoadRecord::default(),
                retired: 0,
                mshr_block_epoch: u64::MAX,
                mshr_block_deficit: 0,
            })
            .collect::<Vec<_>>();
        let done_warps = programs.iter().filter(|p| p.insns.is_empty()).count();
        let warp_max_weight = programs
            .iter()
            .map(|p| {
                p.insns
                    .iter()
                    .map(|insn| match insn {
                        Instruction::Compute(k) | Instruction::Delay(k) => *k as u64,
                        Instruction::Load { .. } | Instruction::Store { .. } => 1,
                    })
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut s = Self {
            id,
            warps,
            l1: Cache::new(&cfg.l1),
            l1_mshr: Mshr::new(cfg.l1.mshr_entries),
            l1_mshr_cap: cfg.l1.mshr_entries,
            mapper,
            line_shift: cfg.l1.line_bytes.trailing_zeros(),
            last_issued: 0,
            busy_heap: std::collections::BinaryHeap::new(),
            ready_words: vec![0; programs.len().div_ceil(64)],
            ready_count: 0,
            port_free: 0,
            next_req: 0,
            scratch_lines: Vec::with_capacity(32),
            scratch_misses: Vec::with_capacity(32),
            scratch_keys: Vec::with_capacity(32),
            scratch_reqs: Vec::with_capacity(32),
            scratch_per_channel: vec![(0, 0); mapper.num_channels()],
            stage_q: std::collections::VecDeque::new(),
            records: Vec::new(),
            retired: 0,
            fill_epoch: 0,
            port_busy_cycles: 0,
            mem_idle_cycles: 0,
            done_warps,
            warp_max_weight,
            budget: (0, 0, 0),
            settled: None,
            programs,
        };
        // Empty programs are Done from the start; everyone else is Ready.
        for i in 0..s.programs.len() {
            if s.programs[i].insns.is_empty() {
                s.warps[i].state = WState::Done;
            } else {
                s.mark_ready(i);
            }
        }
        s.budget = s.walk_budget();
        s
    }

    #[inline]
    fn mark_ready(&mut self, wi: usize) {
        debug_assert_eq!(self.ready_words[wi >> 6] >> (wi & 63) & 1, 0);
        self.ready_words[wi >> 6] |= 1u64 << (wi & 63);
        self.ready_count += 1;
    }

    #[inline]
    fn clear_ready(&mut self, wi: usize) {
        debug_assert_eq!(self.ready_words[wi >> 6] >> (wi & 63) & 1, 1);
        self.ready_words[wi >> 6] &= !(1u64 << (wi & 63));
        self.ready_count -= 1;
    }

    #[inline]
    fn is_ready(&self, wi: usize) -> bool {
        self.ready_words[wi >> 6] >> (wi & 63) & 1 != 0
    }

    /// Wake a warp leaving `Busy`/`WaitMem`: `Done` if its program is
    /// exhausted, `Ready` otherwise.
    #[inline]
    fn wake(&mut self, wi: usize) {
        if self.warps[wi].pc >= self.programs[wi].insns.len() {
            self.warps[wi].state = WState::Done;
            self.done_warps += 1;
            self.budget = self.walk_budget();
        } else {
            self.warps[wi].state = WState::Ready;
            self.mark_ready(wi);
        }
    }

    /// Transition a `Ready` warp to `Busy(until)`.
    #[inline]
    fn go_busy(&mut self, wi: usize, until: Cycle) {
        self.clear_ready(wi);
        self.warps[wi].state = WState::Busy(until);
        self.busy_heap.push(std::cmp::Reverse((until, wi as u32)));
    }

    /// All warps retired?
    pub fn done(&self) -> bool {
        self.done_warps == self.warps.len()
    }

    /// The largest remaining instruction count (`insns.len() - pc`) over
    /// this SM's live warps, capped at `cap` (with early exit once the cap
    /// is reached). A warp with `r` unissued instructions needs `r`
    /// distinct issue cycles before it can retire — the SM issues at most
    /// one instruction per cycle — so [`Self::done`] cannot become true
    /// before `max_remaining_insns(..)` further cycles have elapsed. The
    /// epoch scheduler uses this as its termination-check lookahead
    /// (DESIGN.md §18).
    pub fn max_remaining_insns(&self, cap: u64) -> u64 {
        let mut rem = 0u64;
        for (w, p) in self.warps.iter().zip(&self.programs) {
            if w.state == WState::Done {
                continue;
            }
            rem = rem.max((p.insns.len() - w.pc) as u64);
            if rem >= cap {
                return cap;
            }
        }
        rem
    }

    /// Any live warp currently blocked on memory? Such a warp cannot wake
    /// (let alone retire) before a response reaches this SM — the epoch
    /// scheduler combines this with the response crossbar's in-flight
    /// arrivals to extend its termination lookahead across the drain tail
    /// (DESIGN.md §18). Busy warps have exactly one heap entry each, so
    /// the memory-blocked count falls out of the other state counters.
    pub fn has_mem_blocked_warp(&self) -> bool {
        self.warps.len() - self.done_warps - self.ready_count - self.busy_heap.len() > 0
    }

    /// Budget lookahead inputs for the epoch scheduler (DESIGN.md §18):
    /// `(live_warps, overhang, heaviest)` over the not-yet-done warps,
    /// where `overhang` sums and `heaviest` maxes the per-warp largest
    /// single-instruction weight. Two independent ceilings on what this SM
    /// can retire inside a `W`-cycle span follow:
    ///
    /// * **issue port** — one instruction per cycle, each weighing at most
    ///   `heaviest`: `W * heaviest`;
    /// * **warp occupancy** — every weighted instruction also occupies its
    ///   warp for that many cycles (`Compute(k)`/`Delay(k)` go busy `k`
    ///   after retiring `k`; memory ops retire 1, occupy ≥ 1), so a warp
    ///   retires at most `W + max_weight` per span (its issues must fit,
    ///   bar one overhanging tail): `W * live_warps + overhang`.
    ///
    /// The epoch scheduler takes the min per SM — the port bound wins for
    /// many-warps/light-weights kernels, occupancy for few-warps/heavy-
    /// delay ones — and sums across SMs to bound how fast an instruction
    /// budget can drain. Cached: only a warp turning Done moves it.
    pub fn budget_lookahead(&self) -> (u64, u64, u64) {
        debug_assert_eq!(self.budget, self.walk_budget());
        self.budget
    }

    fn walk_budget(&self) -> (u64, u64, u64) {
        let mut live = 0u64;
        let mut overhang = 0u64;
        let mut heaviest = 0u64;
        for (w, &mw) in self.warps.iter().zip(&self.warp_max_weight) {
            if w.state != WState::Done {
                live += 1;
                overhang += mw;
                heaviest = heaviest.max(mw);
            }
        }
        (live, overhang, heaviest)
    }

    pub fn num_warps(&self) -> usize {
        self.warps.len()
    }

    /// L1 statistics (hit rate etc.).
    pub fn l1_stats(&self) -> crate::cache::CacheStats {
        self.l1.stats
    }

    fn fresh_id(&mut self) -> RequestId {
        self.next_req += 1;
        RequestId(((self.id.0 as u64) << 40) | self.next_req)
    }

    /// Deliver a line fill. Satisfies every warp waiting on the line.
    pub fn accept_response(&mut self, resp: SmResponse, now: Cycle) {
        // A fill frees an MSHR entry and inserts into L1 — the memoized
        // capacity failures below are no longer conclusive.
        self.fill_epoch += 1;
        let waiters = self.l1_mshr.fill(resp.line_addr);
        self.l1.fill(resp.line_addr, false);
        for w in waiters {
            let warp = &mut self.warps[w as usize];
            debug_assert!(warp.outstanding > 0);
            warp.outstanding -= 1;
            if resp.from_dram {
                warp.cur.dram_responses += 1;
                if warp.cur.first_dram == 0 || resp.dram_cycle < warp.cur.first_dram {
                    warp.cur.first_dram = resp.dram_cycle;
                }
                warp.cur.last_dram = warp.cur.last_dram.max(resp.dram_cycle);
            }
            if warp.outstanding == 0 && warp.state == WState::WaitMem {
                warp.cur.complete = now;
                self.records.push(warp.cur);
                self.wake(w as usize);
            }
        }
    }

    /// One cycle: drain staged requests into the crossbar, wake busy warps,
    /// then let the greedy-then-oldest scheduler issue one instruction.
    /// Outgoing requests (at most `xbar_free`) are appended to `out`.
    ///
    /// A tick that issued nothing arms the [`Settled`] memo; while it holds
    /// (no fill since, `now` before the next busy expiry, and no crossbar
    /// room for staged requests) a tick only adds the counter the full tick
    /// would add. Debug builds run the full tick at every hit and assert
    /// that it changed nothing else.
    pub fn tick(&mut self, now: Cycle, xbar_free: usize, out: &mut Vec<MemRequest>) {
        if let Some(s) = self.settled {
            if s.fill_epoch == self.fill_epoch
                && now < s.until
                && (xbar_free == 0 || self.stage_q.is_empty())
            {
                if cfg!(debug_assertions) {
                    self.check_settled(s, now, xbar_free, out);
                } else {
                    self.port_busy_cycles += s.bump.0;
                    self.mem_idle_cycles += s.bump.1;
                }
                return;
            }
        }
        self.settled = if self.tick_full(now, xbar_free, out) {
            None
        } else {
            Some(self.settle(now))
        };
    }

    /// The memo a tick at `now` that issued nothing leaves: the state it
    /// left holds until the earliest busy expiry (or a fill, or crossbar
    /// room). That expiry also bounds a busy port: only a `Compute(k)`
    /// occupies the port, and it keeps its own warp busy until exactly
    /// `port_free`.
    fn settle(&self, now: Cycle) -> Settled {
        let until = self
            .busy_heap
            .peek()
            .map_or(Cycle::MAX, |&std::cmp::Reverse((until, _))| until);
        debug_assert!(now >= self.port_free || until <= self.port_free);
        let bump = if now < self.port_free {
            (1, 0)
        } else if !self.done() && self.ready_count == 0 && self.busy_heap.is_empty() {
            (0, 1)
        } else {
            (0, 0)
        };
        Settled {
            fill_epoch: self.fill_epoch,
            until,
            bump,
        }
    }

    /// Debug self-check of a memo hit: run the full tick and assert that it
    /// issued nothing, sent nothing, woke nothing, added exactly the
    /// counter the memo predicts and leaves the same memo behind.
    fn check_settled(
        &mut self,
        s: Settled,
        now: Cycle,
        xbar_free: usize,
        out: &mut Vec<MemRequest>,
    ) {
        let (sent, busy) = (out.len(), self.busy_heap.len());
        let (pb, mi) = (self.port_busy_cycles, self.mem_idle_cycles);
        let issued = self.tick_full(now, xbar_free, out);
        let bumped = (self.port_busy_cycles - pb, self.mem_idle_cycles - mi);
        assert!(
            !issued && out.len() == sent && self.busy_heap.len() == busy && bumped == s.bump,
            "settled SM {} changed at {now}: issued {issued}, sent {}, busy warps {busy} -> {}, \
             counters {bumped:?} vs {:?}",
            self.id.0,
            out.len() - sent,
            self.busy_heap.len(),
            s.bump,
        );
        assert_eq!(self.settle(now), s, "settled memo moved at {now}");
    }

    /// Test-only reference tick: always the full tick, never the memo.
    #[cfg(test)]
    fn tick_reference(&mut self, now: Cycle, xbar_free: usize, out: &mut Vec<MemRequest>) {
        self.tick_full(now, xbar_free, out);
    }

    /// The full tick behind [`Self::tick`]; returns whether an instruction
    /// issued.
    fn tick_full(&mut self, now: Cycle, xbar_free: usize, out: &mut Vec<MemRequest>) -> bool {
        let mut budget = xbar_free;
        while budget > 0 {
            let Some(r) = self.stage_q.pop_front() else {
                break;
            };
            out.push(r);
            budget -= 1;
        }
        // Wake expired Busy warps: pop the heap up to `now`. Wake actions
        // only touch the woken warp (plus commutative counters), so heap
        // order vs. the old index-order scan is unobservable.
        while let Some(&std::cmp::Reverse((until, wi))) = self.busy_heap.peek() {
            if until > now {
                break;
            }
            self.busy_heap.pop();
            debug_assert!(matches!(self.warps[wi as usize].state, WState::Busy(u) if u == until));
            self.wake(wi as usize);
        }
        let n = self.warps.len();
        if n == 0 {
            return false;
        }
        if now < self.port_free {
            self.port_busy_cycles += 1;
            return false;
        }
        if !self.done() && self.ready_count == 0 && self.busy_heap.is_empty() {
            self.mem_idle_cycles += 1;
        }
        // Memory instructions stage their requests; only one staged group
        // at a time keeps ordering simple and throttles naturally.
        let can_stage = self.stage_q.is_empty();
        // Greedy: retry the last-issued warp first, then oldest-first over
        // the ready bitset. The issue stage tries a bounded number of ready
        // candidates per cycle (a structural port limit that also keeps the
        // simulator fast when many warps are blocked on full MSHRs or
        // injection queues). A failed try_issue mutates no warp state, so
        // iterating a snapshot of each bitset word stays exact.
        let mut attempts = 0;
        let li = self.last_issued;
        if self.is_ready(li) {
            if self.try_issue(li, now, can_stage, out, &mut budget) {
                return true;
            }
            attempts += 1;
            if attempts >= 4 {
                return false;
            }
        }
        for word_i in 0..self.ready_words.len() {
            let mut word = self.ready_words[word_i];
            while word != 0 {
                let wi = (word_i << 6) | word.trailing_zeros() as usize;
                word &= word - 1;
                if wi == li {
                    continue; // already tried as the greedy candidate
                }
                if self.try_issue(wi, now, can_stage, out, &mut budget) {
                    self.last_issued = wi;
                    return true;
                }
                attempts += 1;
                if attempts >= 4 {
                    return false;
                }
            }
        }
        false
    }

    /// Earliest cycle [`Self::tick`] can change warp state: `now` while
    /// staged requests are draining, the earliest `Busy` expiry, or
    /// `port_free` if any warp is ready to issue. `None` when every warp is
    /// blocked on memory or done — wake-ups then come from
    /// [`Self::accept_response`], which other components' events drive.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.warps.is_empty() {
            return None;
        }
        if !self.stage_q.is_empty() {
            return Some(now);
        }
        // The heap min is the earliest Busy expiry (one entry per Busy warp).
        let mut ev: Option<Cycle> = self
            .busy_heap
            .peek()
            .map(|&std::cmp::Reverse((until, _))| until.max(now));
        if self.ready_count > 0 {
            let c = self.port_free.max(now);
            ev = Some(ev.map_or(c, |e| e.min(c)));
        }
        ev
    }

    /// Account for the cycles `[now, target)` being skipped: [`Self::tick`]
    /// increments `port_busy_cycles` whenever the port is occupied and
    /// `mem_idle_cycles` whenever the port is free but every warp is blocked
    /// on memory — both are pure functions of state that is frozen across a
    /// skip (no `Busy` warp expires before `target` by construction), so
    /// they are replayed here in closed form.
    pub fn skip(&mut self, now: Cycle, target: Cycle) {
        if self.warps.is_empty() {
            return;
        }
        debug_assert!(self.stage_q.is_empty(), "skip with staged requests");
        let pb = self.port_free.clamp(now, target) - now;
        self.port_busy_cycles += pb;
        if !self.done() && self.ready_count == 0 && self.busy_heap.is_empty() {
            self.mem_idle_cycles += (target - now) - pb;
        }
    }

    /// Attempt to issue the next instruction of warp `wi`. Returns false if
    /// blocked on resources (the scheduler then tries another warp).
    fn try_issue(
        &mut self,
        wi: usize,
        now: Cycle,
        can_stage: bool,
        out: &mut Vec<MemRequest>,
        budget: &mut usize,
    ) -> bool {
        let pc = self.warps[wi].pc;
        let insn = &self.programs[wi].insns[pc];
        match insn {
            Instruction::Compute(k) => {
                let k = *k;
                self.go_busy(wi, now + k as Cycle);
                self.warps[wi].retired += k as u64;
                self.retired += k as u64;
                // The warp's k instructions occupy the shared issue port.
                self.port_free = now + k as Cycle;
                self.advance(wi);
                true
            }
            Instruction::Delay(k) => {
                let k = *k;
                self.go_busy(wi, now + k as Cycle);
                self.warps[wi].retired += k as u64;
                self.retired += k as u64;
                self.advance(wi);
                true
            }
            Instruction::Load { addrs, mask } => {
                if !can_stage {
                    return false;
                }
                if self.warps[wi].mshr_block_epoch != u64::MAX
                    && self.fill_epoch - self.warps[wi].mshr_block_epoch
                        < self.warps[wi].mshr_block_deficit
                {
                    // This load failed the MSHR capacity check with a
                    // deficit that fills since then cannot yet have closed
                    // — it is guaranteed to fail again (see
                    // `WarpCtx::mshr_block_epoch`), so skip the coalesce +
                    // classify rescan.
                    #[cfg(debug_assertions)]
                    {
                        let mut lines = Vec::new();
                        coalesce_into(addrs, *mask, self.line_shift, &mut lines);
                        let mut fresh = Vec::new();
                        for &l in &lines {
                            if !self.l1.contains(l)
                                && !self.l1_mshr.in_flight(l)
                                && !fresh.contains(&l)
                            {
                                fresh.push(l);
                            }
                        }
                        debug_assert!(
                            self.l1_mshr.len() + fresh.len() > self.l1_mshr_cap,
                            "memoized MSHR-capacity failure is no longer valid"
                        );
                    }
                    return false;
                }
                // Coalesce here, while `addrs` is still borrowed from the
                // (read-only) program store: issue_load then takes the line
                // list by value and the 256-byte lane array never needs
                // cloning.
                let mask = *mask;
                let mut lines = std::mem::take(&mut self.scratch_lines);
                coalesce_into(addrs, mask, self.line_shift, &mut lines);
                self.issue_load(wi, now, lines, mask, out, budget)
            }
            Instruction::Store { addrs, mask } => {
                if !can_stage {
                    return false;
                }
                let mask = *mask;
                let mut lines = std::mem::take(&mut self.scratch_lines);
                coalesce_into(addrs, mask, self.line_shift, &mut lines);
                self.issue_store(wi, now, lines, out, budget)
            }
        }
    }

    /// Send `reqs` toward the crossbar: up to `budget` immediately, the rest
    /// through the staging queue. Drains in place so the caller's (scratch)
    /// buffer is reusable.
    fn dispatch(
        &mut self,
        reqs: &mut Vec<MemRequest>,
        out: &mut Vec<MemRequest>,
        budget: &mut usize,
    ) {
        for r in reqs.drain(..) {
            if *budget > 0 {
                out.push(r);
                *budget -= 1;
            } else {
                self.stage_q.push_back(r);
            }
        }
    }

    /// Advance the program counter. Completion ("Done") is detected when
    /// the warp next leaves its Busy/WaitMem state, so an in-flight final
    /// load still blocks retirement of the warp.
    fn advance(&mut self, wi: usize) {
        self.warps[wi].pc += 1;
    }

    /// `lines` is the already-coalesced line list (built by the caller from
    /// the instruction's lane addresses); ownership returns to
    /// `scratch_lines` on every exit path.
    fn issue_load(
        &mut self,
        wi: usize,
        now: Cycle,
        lines: Vec<u64>,
        mask: LaneMask,
        out: &mut Vec<MemRequest>,
        budget: &mut usize,
    ) -> bool {
        // Classify without mutating yet (all-or-nothing issue).
        let mut new_misses = std::mem::take(&mut self.scratch_misses);
        new_misses.clear();
        let mut merged = 0u32;
        let mut new_entries = 0usize;
        // Bit i set = lines[i] missed; the commit loop reuses this (L1
        // state cannot change in between) to skip re-scanning the set.
        let mut miss_mask = 0u64;
        for (i, &l) in lines.iter().enumerate() {
            if self.l1.contains(l) {
                continue;
            }
            miss_mask |= 1u64 << i;
            if self.l1_mshr.in_flight(l) {
                merged += 1;
            } else if !new_misses.contains(&l) {
                new_misses.push(l);
                new_entries += 1;
            }
        }
        if self.l1_mshr.len() + new_entries > self.l1_mshr_capacity() {
            self.warps[wi].mshr_block_epoch = self.fill_epoch;
            self.warps[wi].mshr_block_deficit =
                (self.l1_mshr.len() + new_entries - self.l1_mshr_capacity()) as u64;
            self.scratch_lines = lines;
            self.scratch_misses = new_misses;
            return false;
        }
        // Commit: probe hits (LRU update + stats), register misses.
        let warp_gid = GlobalWarpId {
            sm: self.id,
            warp: ldsim_types::ids::WarpId(wi as u16),
        };
        let wg = WarpGroupId::new(warp_gid, self.warps[wi].load_serial);
        self.warps[wi].load_serial += 1;

        let mut outstanding = 0u32;
        for (i, &l) in lines.iter().enumerate() {
            if miss_mask >> i & 1 == 0 {
                // L1 hit: satisfied this cycle (probe refreshes LRU/stats).
                let hit = self.l1.probe(l, false);
                debug_assert!(hit);
                continue;
            }
            self.l1.probe_known_miss(l);
            outstanding += 1;
            match self.l1_mshr.register(l, wi as u16) {
                MshrOutcome::Allocated | MshrOutcome::Merged => {}
                MshrOutcome::Full => unreachable!("capacity checked above"),
            }
        }
        let _ = merged;

        // Build the warp-group of outgoing requests, with per-channel sizes
        // and last-of-group tags.
        let mut reqs = std::mem::take(&mut self.scratch_reqs);
        reqs.clear();
        let mut per_channel = std::mem::take(&mut self.scratch_per_channel);
        per_channel.fill((0, 0));
        for &l in &new_misses {
            let d = self.mapper.decode(l << self.line_shift);
            per_channel[d.channel.0 as usize].0 += 1;
            reqs.push(MemRequest {
                id: self.fresh_id(),
                kind: ReqKind::Read,
                line_addr: l,
                decoded: d,
                wg,
                last_of_group: false,
                group_size_on_channel: 0,
                issue_cycle: now,
                arrival_cycle: 0,
            });
        }
        self.scratch_misses = new_misses;
        for r in reqs.iter_mut() {
            let (size, seen) = &mut per_channel[r.decoded.channel.0 as usize];
            *seen += 1;
            r.group_size_on_channel = *size;
            r.last_of_group = *seen == *size;
        }

        // Load record bookkeeping. One sorted pass over (channel, bank,
        // row) keys yields both the distinct-bank count and the same-row
        // membership count: a run of m > 1 equal keys contributes its m
        // members — exactly the old O(k²) "shares a row with another
        // member" scan — and the distinct (channel, bank) prefixes are the
        // old sort-dedup pair count.
        let mut channels = 0u32;
        for &(c, _) in per_channel.iter() {
            if c > 0 {
                channels += 1;
            }
        }
        self.scratch_per_channel = per_channel;
        let mut keys = std::mem::take(&mut self.scratch_keys);
        keys.clear();
        keys.extend(
            reqs.iter()
                .map(|r| (r.decoded.channel.0, r.decoded.bank.0, r.decoded.row)),
        );
        keys.sort_unstable();
        let mut banks = 0u32;
        let mut same_row = 0u32;
        let mut i = 0;
        while i < keys.len() {
            if i == 0 || (keys[i].0, keys[i].1) != (keys[i - 1].0, keys[i - 1].1) {
                banks += 1;
            }
            let mut j = i + 1;
            while j < keys.len() && keys[j] == keys[i] {
                j += 1;
            }
            if j - i > 1 {
                same_row += (j - i) as u32;
            }
            i = j;
        }
        self.scratch_keys = keys;
        let rec = LoadRecord {
            warp: warp_gid,
            active_lanes: mask.count(),
            coalesced: lines.len() as u32,
            mem_reqs: reqs.len() as u32,
            dram_responses: 0,
            issue: now,
            complete: now,
            first_dram: 0,
            last_dram: 0,
            channels_touched: channels,
            banks_touched: banks,
            same_row_reqs: same_row,
        };

        self.dispatch(&mut reqs, out, budget);
        self.scratch_reqs = reqs;
        {
            let w = &mut self.warps[wi];
            w.cur = rec;
            w.outstanding = outstanding;
            w.retired += 1;
        }
        self.retired += 1;
        if outstanding == 0 {
            // All lanes hit in L1: the load costs one cycle.
            self.records.push(rec);
            self.go_busy(wi, now + 1);
        } else {
            self.clear_ready(wi);
            self.warps[wi].state = WState::WaitMem;
        }
        self.advance(wi);
        self.scratch_lines = lines;
        true
    }

    /// `lines` is the already-coalesced line list; see [`Self::issue_load`].
    fn issue_store(
        &mut self,
        wi: usize,
        now: Cycle,
        lines: Vec<u64>,
        out: &mut Vec<MemRequest>,
        budget: &mut usize,
    ) -> bool {
        let warp_gid = GlobalWarpId {
            sm: self.id,
            warp: ldsim_types::ids::WarpId(wi as u16),
        };
        let wg = WarpGroupId::new(warp_gid, self.warps[wi].load_serial);
        self.warps[wi].load_serial += 1;
        let mut reqs = std::mem::take(&mut self.scratch_reqs);
        reqs.clear();
        for &l in &lines {
            // Write-through, no-allocate: keep L1 coherent by invalidation.
            self.l1.invalidate(l);
            let d = self.mapper.decode(l << self.line_shift);
            reqs.push(MemRequest {
                id: self.fresh_id(),
                kind: ReqKind::Write,
                line_addr: l,
                decoded: d,
                wg,
                last_of_group: false,
                group_size_on_channel: 1,
                issue_cycle: now,
                arrival_cycle: 0,
            });
        }
        self.dispatch(&mut reqs, out, budget);
        self.scratch_reqs = reqs;
        self.warps[wi].retired += 1;
        self.retired += 1;
        self.go_busy(wi, now + 1);
        self.advance(wi);
        self.scratch_lines = lines;
        true
    }

    fn l1_mshr_capacity(&self) -> usize {
        self.l1_mshr_cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldsim_types::config::{GpuConfig, MemConfig};
    use ldsim_types::kernel::Instruction as I;

    fn mk_sm(programs: Vec<WarpProgram>) -> Sm {
        let cfg = GpuConfig::default();
        let mapper = AddressMapper::new(&MemConfig::default(), 128);
        Sm::new(SmId(0), &cfg, mapper, programs)
    }

    fn gather(base: u64, stride: u64) -> [u64; 32] {
        let mut a = [0u64; 32];
        for (l, x) in a.iter_mut().enumerate() {
            *x = base + stride * l as u64;
        }
        a
    }

    #[test]
    fn compute_retires_and_blocks() {
        let mut sm = mk_sm(vec![WarpProgram::new(vec![I::Compute(5), I::Compute(2)])]);
        let mut out = Vec::new();
        sm.tick(0, 8, &mut out);
        assert_eq!(sm.retired, 5);
        // Busy until cycle 5: nothing issues at 1..4.
        for now in 1..5 {
            sm.tick(now, 8, &mut out);
            assert_eq!(sm.retired, 5, "warp busy at {now}");
        }
        sm.tick(5, 8, &mut out);
        assert_eq!(sm.retired, 7);
        // Done is observed when the final Compute's busy window expires.
        sm.tick(7, 8, &mut out);
        assert!(sm.done());
    }

    #[test]
    fn load_blocks_until_all_responses() {
        let mut sm = mk_sm(vec![WarpProgram::new(vec![
            I::load(gather(0, 4096)), // 32 distinct lines
            I::Compute(1),
        ])]);
        let mut out = Vec::new();
        sm.tick(0, 32, &mut out);
        assert_eq!(out.len(), 32);
        assert_eq!(sm.retired, 1);
        // No progress while waiting.
        sm.tick(1, 32, &mut out);
        assert_eq!(sm.retired, 1);
        // Return 31 of 32 lines: still blocked.
        for r in out.iter().take(31) {
            sm.accept_response(
                SmResponse {
                    line_addr: r.line_addr,
                    from_dram: true,
                    dram_cycle: 100,
                },
                100,
            );
        }
        sm.tick(101, 32, &mut Vec::new());
        assert_eq!(sm.retired, 1, "warp must wait for the last request");
        sm.accept_response(
            SmResponse {
                line_addr: out[31].line_addr,
                from_dram: true,
                dram_cycle: 400,
            },
            400,
        );
        sm.tick(401, 32, &mut Vec::new());
        assert_eq!(sm.retired, 2);
        sm.tick(402, 32, &mut Vec::new());
        assert!(sm.done());
        // The record captured the divergence window.
        assert_eq!(sm.records.len(), 1);
        let rec = &sm.records[0];
        assert_eq!(rec.mem_reqs, 32);
        assert_eq!(rec.first_dram, 100);
        assert_eq!(rec.last_dram, 400);
        assert_eq!(rec.dram_gap(), 300);
        assert_eq!(rec.complete, 400);
    }

    #[test]
    fn l1_hit_satisfies_immediately() {
        let addrs = gather(0x8000, 4); // one line
        let mut sm = mk_sm(vec![WarpProgram::new(vec![
            I::load(addrs),
            I::load(addrs), // same line again: L1 hit
        ])]);
        let mut out = Vec::new();
        sm.tick(0, 8, &mut out);
        assert_eq!(out.len(), 1);
        sm.accept_response(
            SmResponse {
                line_addr: out[0].line_addr,
                from_dram: true,
                dram_cycle: 50,
            },
            50,
        );
        out.clear();
        sm.tick(51, 8, &mut out);
        assert!(out.is_empty(), "second load hits in L1");
        assert_eq!(sm.records.len(), 2);
        assert_eq!(sm.records[1].mem_reqs, 0);
        sm.tick(52, 8, &mut out);
        assert!(sm.done());
    }

    #[test]
    fn mshr_merges_across_warps() {
        let addrs = gather(0x20_0000, 4);
        let mut sm = mk_sm(vec![
            WarpProgram::new(vec![I::load(addrs)]),
            WarpProgram::new(vec![I::load(addrs)]),
        ]);
        let mut out = Vec::new();
        sm.tick(0, 8, &mut out);
        sm.tick(1, 8, &mut out);
        assert_eq!(out.len(), 1, "second warp merges into the first's MSHR");
        sm.accept_response(
            SmResponse {
                line_addr: out[0].line_addr,
                from_dram: true,
                dram_cycle: 80,
            },
            80,
        );
        // Both warps complete off the single fill.
        assert_eq!(sm.records.len(), 2);
        sm.tick(81, 8, &mut out);
        sm.tick(82, 8, &mut out);
        assert!(sm.done());
    }

    #[test]
    fn store_does_not_block() {
        let mut sm = mk_sm(vec![WarpProgram::new(vec![
            I::store(gather(0, 8)), // 2 lines
            I::Compute(1),
        ])]);
        let mut out = Vec::new();
        sm.tick(0, 8, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|r| r.kind == ReqKind::Write));
        sm.tick(1, 8, &mut out);
        assert_eq!(sm.retired, 2, "store must not block the warp");
        sm.tick(2, 8, &mut out);
        sm.tick(3, 8, &mut out);
        assert!(sm.done());
    }

    #[test]
    fn wide_gather_stages_and_trickles_out() {
        let mut sm = mk_sm(vec![WarpProgram::new(vec![I::load(gather(0, 4096))])]);
        let mut out = Vec::new();
        sm.tick(0, 4, &mut out); // 32 requests, 4 crossbar slots
        assert_eq!(out.len(), 4, "first slice goes out immediately");
        // The rest drain in order as space frees up.
        for now in 1..8u64 {
            sm.tick(now, 4, &mut out);
        }
        assert_eq!(out.len(), 32);
        let ids: Vec<u64> = out.iter().map(|r| r.id.0).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "staged requests preserve order");
        // A second load cannot issue while the first is still staged.
        let mut sm2 = mk_sm(vec![
            WarpProgram::new(vec![I::load(gather(0, 4096))]),
            WarpProgram::new(vec![I::load(gather(1 << 20, 4096))]),
        ]);
        let mut out2 = Vec::new();
        sm2.tick(0, 2, &mut out2);
        sm2.tick(1, 2, &mut out2); // warp 1 blocked: stage_q still busy
        let warps: std::collections::HashSet<u16> = out2.iter().map(|r| r.wg.warp.warp.0).collect();
        assert_eq!(warps.len(), 1, "one staged group at a time");
    }

    #[test]
    fn group_tags_and_sizes_are_consistent() {
        let mut sm = mk_sm(vec![WarpProgram::new(vec![I::load(gather(0, 4096))])]);
        let mut out = Vec::new();
        sm.tick(0, 32, &mut out);
        let mut per_channel: std::collections::HashMap<u8, (u16, u16)> = Default::default();
        for r in &out {
            let e = per_channel.entry(r.decoded.channel.0).or_insert((0, 0));
            e.0 += 1;
            assert!(r.group_size_on_channel > 0);
            e.1 = r.group_size_on_channel;
        }
        for (_ch, (count, declared)) in per_channel {
            assert_eq!(count, declared);
        }
        // Exactly one last_of_group per channel.
        let mut lasts: std::collections::HashMap<u8, u32> = Default::default();
        for r in &out {
            if r.last_of_group {
                *lasts.entry(r.decoded.channel.0).or_insert(0) += 1;
            }
        }
        assert!(lasts.values().all(|&v| v == 1));
    }

    #[test]
    fn masked_load_touches_active_lanes_only() {
        let mut addrs = [0u64; 32];
        for (l, a) in addrs.iter_mut().enumerate() {
            *a = (l as u64) * 4096;
        }
        let mut mask = ldsim_types::ids::LaneMask::NONE;
        mask.set(0);
        mask.set(7);
        mask.set(31);
        let mut sm = mk_sm(vec![WarpProgram::new(vec![Instruction::Load {
            addrs: Box::new(addrs),
            mask,
        }])]);
        let mut out = Vec::new();
        sm.tick(0, 32, &mut out);
        assert_eq!(out.len(), 3, "one request per active lane's line");
        assert!(sm.records.is_empty(), "load still outstanding");
        for r in &out {
            sm.accept_response(
                SmResponse {
                    line_addr: r.line_addr,
                    from_dram: true,
                    dram_cycle: 90,
                },
                90,
            );
        }
        assert_eq!(sm.records[0].active_lanes, 3);
        assert_eq!(sm.records[0].coalesced, 3);
    }

    #[test]
    fn compute_occupies_port_delay_does_not() {
        let mut sm = mk_sm(vec![
            WarpProgram::new(vec![I::Compute(10)]),
            WarpProgram::new(vec![I::Compute(1)]),
        ]);
        let mut out = Vec::new();
        sm.tick(0, 8, &mut out); // warp 0: Compute(10) -> port busy to 10
        sm.tick(1, 8, &mut out); // port busy: warp 1 cannot issue
        assert_eq!(sm.retired, 10);
        assert!(sm.port_busy_cycles > 0);
        sm.tick(10, 8, &mut out); // port free: warp 1 issues
        assert_eq!(sm.retired, 11);

        let mut sm2 = mk_sm(vec![
            WarpProgram::new(vec![I::Delay(10)]),
            WarpProgram::new(vec![I::Compute(1)]),
        ]);
        sm2.tick(0, 8, &mut out); // warp 0: Delay -> port free next cycle
        sm2.tick(1, 8, &mut out); // warp 1 issues immediately
        assert_eq!(sm2.retired, 11, "Delay must not hold the port");
    }

    #[test]
    fn load_record_same_row_statistic() {
        // Two lanes-groups on the same row + one elsewhere: 2 of 3 requests
        // share a row.
        let mapper = AddressMapper::new(&MemConfig::default(), 128);
        let base = 0x40_0000u64;
        let buddies = mapper.same_row_lines(base);
        assert!(buddies.len() >= 2);
        let mut addrs = [0u64; 32];
        addrs[..16].fill(buddies[0]);
        addrs[16..28].fill(buddies[1]);
        addrs[28..].fill(0x7F0_0000); // far away
        let mut sm = mk_sm(vec![WarpProgram::new(vec![I::load(addrs)])]);
        let mut out = Vec::new();
        sm.tick(0, 32, &mut out);
        for r in &out {
            sm.accept_response(
                SmResponse {
                    line_addr: r.line_addr,
                    from_dram: true,
                    dram_cycle: 50,
                },
                50,
            );
        }
        let rec = &sm.records[0];
        assert_eq!(rec.mem_reqs, 3);
        assert_eq!(rec.same_row_reqs, 2);
        assert!(rec.banks_touched >= 1 && rec.channels_touched >= 1);
    }

    #[test]
    fn mem_idle_counted_when_all_warps_blocked() {
        let mut sm = mk_sm(vec![WarpProgram::new(vec![I::load(gather(0, 4096))])]);
        let mut out = Vec::new();
        sm.tick(0, 32, &mut out);
        for now in 1..20 {
            sm.tick(now, 32, &mut out);
        }
        assert!(sm.mem_idle_cycles >= 19, "idle {}", sm.mem_idle_cycles);
    }

    #[test]
    fn next_event_tracks_busy_and_port() {
        let mut sm = mk_sm(vec![
            WarpProgram::new(vec![I::Compute(10)]),
            WarpProgram::new(vec![I::Compute(1)]),
        ]);
        let mut out = Vec::new();
        assert_eq!(sm.next_event(0), Some(0), "ready warp, free port");
        sm.tick(0, 8, &mut out); // warp 0 busy + port occupied until 10
                                 // Warp 1 is Ready but the port is busy: next event is port_free
                                 // (=10), which coincides with warp 0's wake-up.
        assert_eq!(sm.next_event(1), Some(10));
        sm.tick(10, 8, &mut out);
        sm.tick(11, 8, &mut out);
        sm.tick(12, 8, &mut out);
        assert!(sm.done());
        assert_eq!(sm.next_event(13), None, "done SM has no events");
    }

    #[test]
    fn next_event_none_while_waiting_on_memory() {
        let mut sm = mk_sm(vec![WarpProgram::new(vec![I::load(gather(0, 4096))])]);
        let mut out = Vec::new();
        sm.tick(0, 32, &mut out);
        assert_eq!(sm.next_event(1), None, "all warps blocked on memory");
        sm.accept_response(
            SmResponse {
                line_addr: out[0].line_addr,
                from_dram: true,
                dram_cycle: 50,
            },
            50,
        );
        // Still 31 lines outstanding: no SM-local event.
        assert_eq!(sm.next_event(51), None);
    }

    #[test]
    fn skip_matches_explicit_ticks_cycle_counters() {
        // One warp blocked on memory: ticking T idle cycles and skipping T
        // cycles must accrue identical port-busy / mem-idle statistics.
        let mk = || mk_sm(vec![WarpProgram::new(vec![I::load(gather(0, 4096))])]);
        let mut ticked = mk();
        let mut skipped = mk();
        let mut out = Vec::new();
        ticked.tick(0, 32, &mut out);
        out.clear();
        skipped.tick(0, 32, &mut out);
        for now in 1..100u64 {
            ticked.tick(now, 32, &mut Vec::new());
        }
        skipped.skip(1, 100);
        assert_eq!(ticked.port_busy_cycles, skipped.port_busy_cycles);
        assert_eq!(ticked.mem_idle_cycles, skipped.mem_idle_cycles);
        assert!(skipped.mem_idle_cycles > 0);

        // Port occupied by a long Compute on a done-warp path: the port-busy
        // tail must be identical too.
        let mk2 = || mk_sm(vec![WarpProgram::new(vec![I::Compute(40)])]);
        let mut t2 = mk2();
        let mut s2 = mk2();
        t2.tick(0, 8, &mut Vec::new());
        s2.tick(0, 8, &mut Vec::new());
        for now in 1..30u64 {
            t2.tick(now, 8, &mut Vec::new());
        }
        s2.skip(1, 30);
        assert_eq!(t2.port_busy_cycles, s2.port_busy_cycles);
        assert_eq!(t2.mem_idle_cycles, s2.mem_idle_cycles);
        assert_eq!(t2.port_busy_cycles, 29);
    }

    /// A random warp program: compute, delay, stores, and gathers of up to
    /// `mshr_cap` lines from a small pool — wide enough that a few
    /// in flight exhaust the MSHR, narrow enough for L1 hits and cross-warp
    /// merges.
    fn random_program(rng: &mut ldsim_util::StdRng, mshr_cap: usize) -> WarpProgram {
        let lanes = |rng: &mut ldsim_util::StdRng| {
            let lines: Vec<u64> = (0..rng.gen_range(1..=mshr_cap.min(32)))
                .map(|_| rng.gen_range(0..96u64) * 128)
                .collect();
            let mut addrs = [0u64; 32];
            for a in addrs.iter_mut() {
                *a = lines[rng.gen_range(0..lines.len())] + rng.gen_range(0..32u64) * 4;
            }
            let mut mask = LaneMask::ALL;
            if rng.gen_bool(0.3) {
                mask = LaneMask::NONE;
                for l in 0..32 {
                    if rng.gen_bool(0.5) {
                        mask.set(l);
                    }
                }
            }
            (Box::new(addrs), mask)
        };
        let len = rng.gen_range(1..=12usize);
        let insns = (0..len)
            .map(|_| match rng.gen_range(0..6u32) {
                0 => I::Compute(rng.gen_range(0..=4u32)),
                1 => I::Delay(rng.gen_range(0..=30u32)),
                2 => {
                    let (addrs, mask) = lanes(rng);
                    I::Store { addrs, mask }
                }
                _ => {
                    let (addrs, mask) = lanes(rng);
                    I::Load { addrs, mask }
                }
            })
            .collect();
        WarpProgram::new(insns)
    }

    #[test]
    fn settled_ticks_match_full_ticks_under_random_traffic() {
        // Twins under the same programs, crossbar room and fills: one SM
        // ticks through the settled memo, the other always runs the full
        // tick. Every cycle must leave both with the same retired count,
        // records, counters, emitted requests and next event, and the
        // cached budget lookahead must equal a fresh walk. Idle gaps are
        // skipped as the main loop skips them.
        let mut hits = 0u64;
        for case in 0..240u64 {
            let mut rng = ldsim_util::StdRng::seed_from_u64(0x5e77_1ed0 ^ case);
            let mut cfg = GpuConfig::default();
            cfg.l1.mshr_entries = rng.gen_range(2..=40usize);
            let mapper = AddressMapper::new(&MemConfig::default(), 128);
            let programs: Vec<WarpProgram> = (0..rng.gen_range(1..=12usize))
                .map(|_| random_program(&mut rng, cfg.l1.mshr_entries))
                .collect();
            let mut memo = Sm::new(SmId(0), &cfg, mapper, programs.clone());
            let mut full = Sm::new(SmId(0), &cfg, mapper, programs);
            let no_room = [0.2, 0.6, 0.9][rng.gen_range(0..3usize)];
            let fill_p = [0.02, 0.1, 0.4][rng.gen_range(0..3usize)];
            let mut in_flight: Vec<u64> = Vec::new();
            let (mut out_m, mut out_f) = (Vec::new(), Vec::new());
            let mut now: Cycle = 0;
            while now < 20_000 && !(memo.done() && full.done()) {
                if !in_flight.is_empty() && rng.gen_bool(fill_p) {
                    for _ in 0..rng.gen_range(1..=in_flight.len().min(4)) {
                        let line = in_flight.swap_remove(rng.gen_range(0..in_flight.len()));
                        let resp = SmResponse {
                            line_addr: line,
                            from_dram: rng.gen_bool(0.7),
                            dram_cycle: now.saturating_sub(rng.gen_range(0..50u64)),
                        };
                        memo.accept_response(resp, now);
                        full.accept_response(resp, now);
                    }
                }
                let room = if rng.gen_bool(no_room) {
                    0
                } else {
                    rng.gen_range(1..=8usize)
                };
                if memo.settled.is_some_and(|s| {
                    s.fill_epoch == memo.fill_epoch
                        && now < s.until
                        && (room == 0 || memo.stage_q.is_empty())
                }) {
                    hits += 1;
                }
                out_m.clear();
                out_f.clear();
                memo.tick(now, room, &mut out_m);
                full.tick_reference(now, room, &mut out_f);
                let ctx = format!("case {case} cycle {now}");
                assert_eq!(out_m, out_f, "{ctx}: emitted requests");
                assert_eq!(
                    (memo.retired, memo.port_busy_cycles, memo.mem_idle_cycles),
                    (full.retired, full.port_busy_cycles, full.mem_idle_cycles),
                    "{ctx}: retired, port-busy and mem-idle counters"
                );
                assert_eq!(
                    format!("{:?}", memo.records),
                    format!("{:?}", full.records),
                    "{ctx}: load records"
                );
                assert_eq!(memo.next_event(now + 1), full.next_event(now + 1), "{ctx}");
                assert_eq!(
                    memo.budget_lookahead(),
                    memo.walk_budget(),
                    "{ctx}: budget cache"
                );
                in_flight.extend(
                    out_m
                        .iter()
                        .filter(|r| r.kind == ReqKind::Read)
                        .map(|r| r.line_addr),
                );
                now += 1;
                // Skip an idle gap (no fill lands inside it) the way the
                // main loop does, up to the SMs' next event.
                if rng.gen_bool(0.1) && memo.next_event(now).is_none_or(|e| e > now) {
                    let target = memo
                        .next_event(now)
                        .unwrap_or(Cycle::MAX)
                        .min(now + rng.gen_range(1..=60u64));
                    memo.skip(now, target);
                    full.skip(now, target);
                    now = target;
                }
            }
            assert!(memo.done() && full.done(), "case {case} did not finish");
        }
        assert!(hits > 100_000, "only {hits} settled ticks exercised");
    }

    #[test]
    fn greedy_then_oldest_prefers_last_issued() {
        let mut sm = mk_sm(vec![
            WarpProgram::new(vec![I::Compute(1), I::Compute(1)]),
            WarpProgram::new(vec![I::Compute(1), I::Compute(1)]),
        ]);
        let mut out = Vec::new();
        sm.tick(0, 8, &mut out); // warp 0 issues, busy until 1
        sm.tick(1, 8, &mut out); // warp 0 ready again (greedy) -> issues
        assert_eq!(sm.warps[0].retired, 2);
        assert_eq!(sm.warps[1].retired, 0);
    }
}
