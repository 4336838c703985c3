//! Baseline transaction-scheduling policies.
//!
//! * [`Fcfs`] — strict arrival order; the paper's motivation notes it is
//!   both divergence-blind (queues interleave warps anyway) and terrible
//!   for bandwidth (Section III-A).
//! * [`FrFcfs`] — row hits first, then oldest \[Rixner+ ISCA'00\].
//! * [`Gmc`] — the throughput-optimised baseline of Section II-C: row-hit
//!   streams with a maximum streak length, bank interleaving, and an
//!   age-based starvation threshold.
//! * [`Wafcfs`] — warp-groups serviced strictly in completion order
//!   \[Yuan+ MICRO'08\], Section VI-C.2.
//! * [`Sbwas`] — per-bank potential-function choice between the oldest
//!   row-hit and the row-miss of the warp with fewest requests remaining
//!   \[Lakshminarayana+ CAL'11\], Section VI-C.1. Writes are interleaved
//!   with reads (no batch draining), as the paper describes.

use crate::policy::{Policy, PolicyView};
use ldsim_types::clock::Cycle;
use ldsim_types::config::{MemConfig, SchedulerKind};
use ldsim_types::ids::{GlobalWarpId, WarpGroupId};
use ldsim_types::req::MemRequest;
use ldsim_util::FnvHashMap;
use std::collections::VecDeque;

/// Arrival-ordered request storage with per-bank occupancy counts, shared by
/// the baseline policies. Backed by a `VecDeque` so the common oldest-first
/// removal shifts nothing (and a mid-queue removal shifts only the shorter
/// side) while iteration stays in strict arrival order.
#[derive(Debug, Default)]
pub struct ReqStore {
    reqs: VecDeque<MemRequest>,
    bank_count: Vec<usize>,
}

impl ReqStore {
    pub fn push(&mut self, req: MemRequest) {
        self.ensure_banks(req.decoded.bank.0 as usize + 1);
        self.bank_count[req.decoded.bank.0 as usize] += 1;
        self.reqs.push_back(req);
    }

    fn ensure_banks(&mut self, n: usize) {
        if self.bank_count.len() < n {
            self.bank_count.resize(n, 0);
        }
    }

    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    pub fn iter(&self) -> std::collections::vec_deque::Iter<'_, MemRequest> {
        self.reqs.iter()
    }

    pub fn get(&self, idx: usize) -> Option<&MemRequest> {
        self.reqs.get(idx)
    }

    /// Remove by position (arrival order preserved for the rest).
    pub fn remove(&mut self, idx: usize) -> MemRequest {
        let r = self.reqs.remove(idx).expect("ReqStore index in bounds");
        self.bank_count[r.decoded.bank.0 as usize] -= 1;
        r
    }

    pub fn remove_group(&mut self, wg: WarpGroupId) -> Vec<MemRequest> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.reqs.len() {
            if self.reqs[i].wg == wg {
                out.push(self.remove(i));
            } else {
                i += 1;
            }
        }
        out
    }

    pub fn bank_pending(&self, bank: usize) -> bool {
        self.bank_count.get(bank).copied().unwrap_or(0) > 0
    }
}

// ---------------------------------------------------------------------------
// FCFS
// ---------------------------------------------------------------------------

/// Strict first-come first-served over individual requests.
#[derive(Debug, Default)]
pub struct Fcfs {
    store: ReqStore,
}

impl Fcfs {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for Fcfs {
    fn name(&self) -> &'static str {
        "FCFS"
    }

    fn on_arrival(&mut self, req: MemRequest, _now: Cycle) {
        self.store.push(req);
    }

    fn pending(&self) -> usize {
        self.store.len()
    }

    fn pick(&mut self, view: &PolicyView<'_>) -> Option<MemRequest> {
        // Strictly in order: the head must be schedulable or nothing is.
        let head = self.store.iter().next()?;
        if view.headroom_ok(&head.decoded) {
            Some(self.store.remove(0))
        } else {
            None
        }
    }

    fn remove_group(&mut self, wg: WarpGroupId) -> Vec<MemRequest> {
        self.store.remove_group(wg)
    }

    fn has_pending_for_bank(&self, bank: usize) -> bool {
        self.store.bank_pending(bank)
    }
}

// ---------------------------------------------------------------------------
// FR-FCFS
// ---------------------------------------------------------------------------

/// First-ready FCFS: oldest row-hit first, else oldest request.
#[derive(Debug, Default)]
pub struct FrFcfs {
    store: ReqStore,
}

impl FrFcfs {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for FrFcfs {
    fn name(&self) -> &'static str {
        "FR-FCFS"
    }

    fn on_arrival(&mut self, req: MemRequest, _now: Cycle) {
        self.store.push(req);
    }

    fn pending(&self) -> usize {
        self.store.len()
    }

    fn pick(&mut self, view: &PolicyView<'_>) -> Option<MemRequest> {
        let mut fallback = None;
        for (i, r) in self.store.iter().enumerate() {
            if !view.headroom_ok(&r.decoded) {
                continue;
            }
            if view.is_hit(&r.decoded) {
                return Some(self.store.remove(i));
            }
            if fallback.is_none() {
                fallback = Some(i);
            }
        }
        fallback.map(|i| self.store.remove(i))
    }

    fn remove_group(&mut self, wg: WarpGroupId) -> Vec<MemRequest> {
        self.store.remove_group(wg)
    }

    fn has_pending_for_bank(&self, bank: usize) -> bool {
        self.store.bank_pending(bank)
    }
}

// ---------------------------------------------------------------------------
// GMC baseline
// ---------------------------------------------------------------------------

/// The throughput-optimised GPU memory controller baseline (Section II-C):
/// FR row-hit streams per bank, a maximum row-hit streak, and an age-based
/// starvation threshold.
#[derive(Debug)]
pub struct Gmc {
    store: ReqStore,
    max_streak: usize,
    age_threshold: Cycle,
}

impl Gmc {
    pub fn new(max_streak: usize, age_threshold: Cycle) -> Self {
        Self {
            store: ReqStore::default(),
            max_streak,
            age_threshold,
        }
    }

    pub fn from_config(mem: &MemConfig) -> Self {
        Self::new(mem.gmc_max_streak, mem.gmc_age_threshold)
    }
}

impl Policy for Gmc {
    fn name(&self) -> &'static str {
        "GMC"
    }

    fn on_arrival(&mut self, req: MemRequest, _now: Cycle) {
        self.store.push(req);
    }

    fn pending(&self) -> usize {
        self.store.len()
    }

    fn pick(&mut self, view: &PolicyView<'_>) -> Option<MemRequest> {
        // 1. Starvation guard: the oldest request past the age threshold is
        //    force-scheduled regardless of row state.
        if let Some(r) = self.store.iter().next() {
            if view.now.saturating_sub(r.arrival_cycle) > self.age_threshold
                && view.headroom_ok(&r.decoded)
            {
                return Some(self.store.remove(0));
            }
        }
        // 2. Continue row-hit streams, but only while the bank's streak is
        //    under the limit. Oldest hit first (the per-bank stream heads
        //    are implicitly ordered by arrival).
        let mut fallback_other = None;
        let mut fallback_any = None;
        for (i, r) in self.store.iter().enumerate() {
            if !view.headroom_ok(&r.decoded) {
                continue;
            }
            let b = &view.banks[r.decoded.bank.0 as usize];
            let hit = view.is_hit(&r.decoded);
            if hit && (b.hits_since_row_open as usize) < self.max_streak {
                return Some(self.store.remove(i));
            }
            // A streak-exhausted hit must yield to other work first; it only
            // goes if nothing else can.
            if !hit && fallback_other.is_none() {
                fallback_other = Some(i);
            }
            if fallback_any.is_none() {
                fallback_any = Some(i);
            }
        }
        // 3. No stream to continue: start the oldest pending stream (or, as
        //    a last resort, keep streaming past the streak limit).
        fallback_other
            .or(fallback_any)
            .map(|i| self.store.remove(i))
    }

    /// A GMC pick finds nothing only when no pending request has
    /// command-queue room (every step, the age guard included, takes any
    /// such request), which depends on the store and the bank table alone:
    /// with neither changed, it still finds nothing.
    fn pick_settled(&mut self, view: &PolicyView<'_>) -> Option<MemRequest> {
        debug_assert!(
            self.store.iter().all(|r| !view.headroom_ok(&r.decoded)),
            "settled GMC pick has a schedulable request"
        );
        None
    }

    fn remove_group(&mut self, wg: WarpGroupId) -> Vec<MemRequest> {
        self.store.remove_group(wg)
    }

    fn has_pending_for_bank(&self, bank: usize) -> bool {
        self.store.bank_pending(bank)
    }
}

// ---------------------------------------------------------------------------
// WAFCFS
// ---------------------------------------------------------------------------

/// Warp-aware FCFS \[Yuan+\]: warp-groups are serviced whole, strictly in
/// the order their last request arrived (completion order); requests within
/// a group go in arrival order. The paper measures an 11.2% *slowdown* for
/// this scheme on irregular workloads (Section VI-C.2).
#[derive(Debug, Default)]
pub struct Wafcfs {
    store: ReqStore,
    active: Option<WarpGroupId>,
}

impl Wafcfs {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for Wafcfs {
    fn name(&self) -> &'static str {
        "WAFCFS"
    }

    fn on_arrival(&mut self, req: MemRequest, _now: Cycle) {
        self.store.push(req);
    }

    fn pending(&self) -> usize {
        self.store.len()
    }

    fn pick(&mut self, view: &PolicyView<'_>) -> Option<MemRequest> {
        // Finish the active group first, strictly in order.
        if let Some(wg) = self.active {
            if let Some((i, r)) = self.store.iter().enumerate().find(|(_, r)| r.wg == wg) {
                if view.headroom_ok(&r.decoded) {
                    return Some(self.store.remove(i));
                }
                return None;
            }
            self.active = None;
        }
        // Next: the oldest request whose group has fully arrived.
        for (i, r) in self.store.iter().enumerate() {
            if view.groups.is_complete(r.wg) {
                if view.headroom_ok(&r.decoded) {
                    self.active = Some(r.wg);
                    return Some(self.store.remove(i));
                }
                return None;
            }
        }
        // Deadlock avoidance: every queued group is partial (the read queue
        // filled with fragments) — fall back to the oldest request.
        let head = self.store.iter().next()?;
        if view.headroom_ok(&head.decoded) {
            Some(self.store.remove(0))
        } else {
            None
        }
    }

    fn remove_group(&mut self, wg: WarpGroupId) -> Vec<MemRequest> {
        if self.active == Some(wg) {
            self.active = None;
        }
        self.store.remove_group(wg)
    }

    fn has_pending_for_bank(&self, bank: usize) -> bool {
        self.store.bank_pending(bank)
    }
}

// ---------------------------------------------------------------------------
// SBWAS
// ---------------------------------------------------------------------------

/// Single-bank warp-aware scheduling \[Lakshminarayana+ CAL'11\]
/// (Section VI-C.1): per bank, a potential function arbitrates between the
/// oldest row-hit and the row-miss belonging to the warp with the fewest
/// requests remaining; `alpha` biases toward the latter. Writes interleave
/// with reads. We model the potential function as a remaining-request
/// threshold derived from alpha — the paper profiles alpha per application
/// from {0.25, 0.5, 0.75}.
#[derive(Debug)]
pub struct Sbwas {
    store: ReqStore,
    /// Shortest-warp preference threshold derived from alpha.
    threshold: usize,
    rotate: usize,
}

impl Sbwas {
    /// `alpha_q` in quarters: 1 => 0.25, 2 => 0.5, 3 => 0.75.
    pub fn new(alpha_q: u8) -> Self {
        let threshold = match alpha_q {
            0 | 1 => 1,
            2 => 3,
            _ => 6,
        };
        Self {
            store: ReqStore::default(),
            threshold,
            rotate: 0,
        }
    }

    /// Pending requests of the warp owning `wg`, across banks at this
    /// controller ("requests remaining").
    fn warp_remaining(&self, w: GlobalWarpId) -> usize {
        self.store.iter().filter(|r| r.wg.warp == w).count()
    }
}

impl Policy for Sbwas {
    fn name(&self) -> &'static str {
        "SBWAS"
    }

    fn on_arrival(&mut self, req: MemRequest, _now: Cycle) {
        self.store.push(req);
    }

    fn pending(&self) -> usize {
        self.store.len()
    }

    fn wants_writes(&self) -> bool {
        true
    }

    fn pick(&mut self, view: &PolicyView<'_>) -> Option<MemRequest> {
        let nb = view.banks.len();
        for off in 0..nb {
            let bank = (self.rotate + off) % nb;
            if !self.store.bank_pending(bank) {
                continue;
            }
            // Oldest row-hit on this bank.
            let hit = self
                .store
                .iter()
                .enumerate()
                .find(|(_, r)| r.decoded.bank.0 as usize == bank && view.is_hit(&r.decoded));
            // Row-miss of the warp with fewest remaining requests.
            let miss = self
                .store
                .iter()
                .enumerate()
                .filter(|(_, r)| r.decoded.bank.0 as usize == bank && !view.is_hit(&r.decoded))
                .min_by_key(|(_, r)| self.warp_remaining(r.wg.warp));

            let choice = match (hit, miss) {
                (Some((hi, h)), Some((mi, m))) => {
                    // Potential function: favour the short warp's miss when
                    // it is short enough under the alpha-derived threshold.
                    if self.warp_remaining(m.wg.warp) <= self.threshold {
                        if view.headroom_ok(&m.decoded) {
                            Some(mi)
                        } else if view.headroom_ok(&h.decoded) {
                            Some(hi)
                        } else {
                            None
                        }
                    } else if view.headroom_ok(&h.decoded) {
                        Some(hi)
                    } else {
                        None
                    }
                }
                (Some((hi, h)), None) => view.headroom_ok(&h.decoded).then_some(hi),
                (None, Some((mi, m))) => view.headroom_ok(&m.decoded).then_some(mi),
                (None, None) => None,
            };
            if let Some(i) = choice {
                self.rotate = (bank + 1) % nb;
                return Some(self.store.remove(i));
            }
        }
        None
    }

    fn remove_group(&mut self, wg: WarpGroupId) -> Vec<MemRequest> {
        self.store.remove_group(wg)
    }

    fn has_pending_for_bank(&self, bank: usize) -> bool {
        self.store.bank_pending(bank)
    }
}

// ---------------------------------------------------------------------------
// PAR-BS
// ---------------------------------------------------------------------------

/// Parallelism-aware batch scheduling \[Mutlu & Moscibroda ISCA'08\]
/// (discussed in Section VI-C.3). When no marked requests remain, up to
/// `marking_cap` oldest requests per (warp, bank) are marked as the new
/// batch; warps are ranked by the MAX rule (a warp's rank is its maximum
/// marked-request count over banks — fewer is better, preserving bank-level
/// parallelism); service order is marked-first, then row-hit, then rank,
/// then age. The paper's point: batches here group *across* warps per bank
/// for fairness, the opposite of warp-group batching — so it does not
/// address latency divergence.
#[derive(Debug)]
pub struct ParBs {
    store: ReqStore,
    marked: Vec<bool>,
    /// Warp rank at batch formation (lower = higher priority).
    rank: FnvHashMap<GlobalWarpId, u32>,
    marking_cap: usize,
    pub batches_formed: u64,
}

impl ParBs {
    pub fn new(marking_cap: usize) -> Self {
        Self {
            store: ReqStore::default(),
            marked: Vec::new(),
            rank: FnvHashMap::default(),
            marking_cap,
            batches_formed: 0,
        }
    }

    fn form_batch(&mut self) {
        self.batches_formed += 1;
        self.rank.clear();
        // Mark up to cap oldest requests per (warp, bank). (The map is
        // sorted before ranks are assigned, so its iteration order never
        // reaches an observable decision.)
        let mut per: FnvHashMap<(GlobalWarpId, u8), usize> = FnvHashMap::default();
        for (i, r) in self.store.iter().enumerate() {
            let key = (r.wg.warp, r.decoded.bank.0);
            let c = per.entry(key).or_insert(0);
            if *c < self.marking_cap {
                *c += 1;
                self.marked[i] = true;
            }
        }
        // MAX rule: rank by the warp's maximum marked count over banks.
        let mut max_per_warp: FnvHashMap<GlobalWarpId, usize> = FnvHashMap::default();
        for ((w, _), c) in per {
            let e = max_per_warp.entry(w).or_insert(0);
            *e = (*e).max(c);
        }
        let mut order: Vec<(usize, GlobalWarpId)> =
            max_per_warp.into_iter().map(|(w, c)| (c, w)).collect();
        order.sort_by_key(|&(c, w)| (c, w));
        for (rank, (_, w)) in order.into_iter().enumerate() {
            self.rank.insert(w, rank as u32);
        }
    }
}

impl Policy for ParBs {
    fn name(&self) -> &'static str {
        "PAR-BS"
    }

    fn on_arrival(&mut self, req: MemRequest, _now: Cycle) {
        self.store.push(req);
        self.marked.push(false);
    }

    fn pending(&self) -> usize {
        self.store.len()
    }

    fn pick(&mut self, view: &PolicyView<'_>) -> Option<MemRequest> {
        if self.store.is_empty() {
            return None;
        }
        if !self.marked.iter().any(|&m| m) {
            self.form_batch();
        }
        // (marked desc, hit desc, rank asc, age asc) over schedulable reqs.
        let mut best: Option<(usize, (u8, u8, u32, usize))> = None;
        for (i, r) in self.store.iter().enumerate() {
            if !view.headroom_ok(&r.decoded) {
                continue;
            }
            let key = (
                if self.marked[i] { 0u8 } else { 1 },
                if view.is_hit(&r.decoded) { 0u8 } else { 1 },
                *self.rank.get(&r.wg.warp).unwrap_or(&u32::MAX),
                i,
            );
            if best.map(|(_, bk)| key < bk).unwrap_or(true) {
                best = Some((i, key));
            }
        }
        let (i, _) = best?;
        self.marked.remove(i);
        Some(self.store.remove(i))
    }

    fn remove_group(&mut self, wg: WarpGroupId) -> Vec<MemRequest> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.store.len() {
            if self.store.get(i).is_some_and(|r| r.wg == wg) {
                self.marked.remove(i);
                out.push(self.store.remove(i));
            } else {
                i += 1;
            }
        }
        out
    }

    fn has_pending_for_bank(&self, bank: usize) -> bool {
        self.store.bank_pending(bank)
    }
}

// ---------------------------------------------------------------------------
// ATLAS-lite
// ---------------------------------------------------------------------------

/// Least-attained-service scheduling in the spirit of ATLAS
/// \[Kim+ HPCA'10\] (Section VI-C.3). Attained service (serviced requests)
/// is accumulated per warp over an epoch; at each epoch boundary warps are
/// re-ranked ascending by attained service, and the rank orders request
/// selection (row hits break ties within a rank, then age). The paper's
/// criticism — epochs are far too coarse to help individual warp-groups —
/// is directly observable by comparing this scheme with WG-M.
#[derive(Debug)]
pub struct AtlasLite {
    store: ReqStore,
    /// Service accumulated in the current epoch. Sorted by (service, warp)
    /// at each epoch roll, so map iteration order is unobservable.
    attained: FnvHashMap<GlobalWarpId, u64>,
    /// Rank assigned at the last epoch boundary (lower = served first).
    rank: FnvHashMap<GlobalWarpId, u32>,
    epoch: Cycle,
    next_epoch: Cycle,
    pub epochs: u64,
}

impl AtlasLite {
    pub fn new(epoch: Cycle) -> Self {
        Self {
            store: ReqStore::default(),
            attained: FnvHashMap::default(),
            rank: FnvHashMap::default(),
            epoch,
            next_epoch: 0,
            epochs: 0,
        }
    }

    fn roll_epoch(&mut self, now: Cycle) {
        if now < self.next_epoch {
            return;
        }
        self.next_epoch = now + self.epoch;
        self.epochs += 1;
        let mut order: Vec<(u64, GlobalWarpId)> =
            self.attained.iter().map(|(w, &s)| (s, *w)).collect();
        order.sort_by_key(|&(s, w)| (s, w));
        self.rank.clear();
        for (r, (_, w)) in order.into_iter().enumerate() {
            self.rank.insert(w, r as u32);
        }
        self.attained.clear();
    }
}

impl Policy for AtlasLite {
    fn name(&self) -> &'static str {
        "ATLAS"
    }

    fn on_arrival(&mut self, req: MemRequest, _now: Cycle) {
        self.attained.entry(req.wg.warp).or_insert(0);
        self.store.push(req);
    }

    fn pending(&self) -> usize {
        self.store.len()
    }

    fn pick(&mut self, view: &PolicyView<'_>) -> Option<MemRequest> {
        self.roll_epoch(view.now);
        let mut best: Option<(usize, (u32, u8, usize))> = None;
        for (i, r) in self.store.iter().enumerate() {
            if !view.headroom_ok(&r.decoded) {
                continue;
            }
            let key = (
                *self.rank.get(&r.wg.warp).unwrap_or(&0),
                if view.is_hit(&r.decoded) { 0u8 } else { 1 },
                i,
            );
            if best.map(|(_, bk)| key < bk).unwrap_or(true) {
                best = Some((i, key));
            }
        }
        let (i, _) = best?;
        let r = self.store.remove(i);
        *self.attained.entry(r.wg.warp).or_insert(0) += 1;
        Some(r)
    }

    fn remove_group(&mut self, wg: WarpGroupId) -> Vec<MemRequest> {
        self.store.remove_group(wg)
    }

    fn has_pending_for_bank(&self, bank: usize) -> bool {
        self.store.bank_pending(bank)
    }
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

/// Build a baseline policy for `kind`, or `None` if the kind belongs to the
/// warp-aware family implemented in `ldsim-warpsched`.
pub fn make_baseline_policy(kind: SchedulerKind, mem: &MemConfig) -> Option<Box<dyn Policy>> {
    match kind {
        SchedulerKind::Fcfs => Some(Box::new(Fcfs::new())),
        SchedulerKind::FrFcfs => Some(Box::new(FrFcfs::new())),
        SchedulerKind::Gmc => Some(Box::new(Gmc::from_config(mem))),
        SchedulerKind::Wafcfs => Some(Box::new(Wafcfs::new())),
        SchedulerKind::Sbwas { alpha_q } => Some(Box::new(Sbwas::new(alpha_q))),
        // The zero-divergence ideal rides on the GMC ordering; the fast
        // track happens in the controller.
        SchedulerKind::ZeroDivergence => Some(Box::new(Gmc::from_config(mem))),
        SchedulerKind::ParBs => Some(Box::new(ParBs::new(5))),
        SchedulerKind::AtlasLite => Some(Box::new(AtlasLite::new(10_000))),
        SchedulerKind::WgShared => None,
        SchedulerKind::Wg | SchedulerKind::WgM | SchedulerKind::WgBw | SchedulerKind::WgW => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupTracker;
    use crate::policy::BankSnapshot;
    use ldsim_gddr5::MerbTable;
    use ldsim_types::addr::AddressMapper;
    use ldsim_types::clock::ClockDomain;
    use ldsim_types::config::TimingParams;
    use ldsim_types::ids::RequestId;
    use ldsim_types::req::ReqKind;

    struct Fixture {
        banks: Vec<BankSnapshot>,
        groups: GroupTracker,
        merb: MerbTable,
        mapper: AddressMapper,
        next_id: u64,
    }

    impl Fixture {
        fn new() -> Self {
            Self {
                banks: vec![
                    BankSnapshot {
                        headroom: 8,
                        ..Default::default()
                    };
                    16
                ],
                groups: GroupTracker::default(),
                merb: MerbTable::from_timing(&TimingParams::default(), ClockDomain::GDDR5, 16),
                mapper: AddressMapper::new(&MemConfig::default(), 128),
                next_id: 0,
            }
        }

        fn view(&self, now: Cycle) -> PolicyView<'_> {
            PolicyView {
                now,
                banks: &self.banks,
                groups: &self.groups,
                write_q_len: 0,
                write_hi: 32,
                wgw_margin: 8,
                merb: &self.merb,
            }
        }

        fn req(&mut self, addr: u64, wg: WarpGroupId, size: u16, arrival: Cycle) -> MemRequest {
            self.next_id += 1;
            MemRequest {
                id: RequestId(self.next_id),
                kind: ReqKind::Read,
                line_addr: self.mapper.line_addr(addr),
                decoded: self.mapper.decode(addr),
                wg,
                last_of_group: false,
                group_size_on_channel: size,
                issue_cycle: 0,
                arrival_cycle: arrival,
            }
        }

        /// Mark the bank of `addr` as having `row` scheduled last.
        fn open_row_for(&mut self, addr: u64) {
            let d = self.mapper.decode(addr);
            self.banks[d.bank.0 as usize].last_scheduled_row = Some(d.row);
        }
    }

    fn wg(sm: u16, warp: u16, serial: u32) -> WarpGroupId {
        WarpGroupId::new(GlobalWarpId::new(sm, warp), serial)
    }

    #[test]
    fn fcfs_is_strictly_ordered() {
        let mut f = Fixture::new();
        let mut p = Fcfs::new();
        let a = f.req(0x1000, wg(0, 0, 0), 1, 0);
        let b = f.req(0x2000, wg(0, 1, 0), 1, 1);
        let (ida, idb) = (a.id, b.id);
        p.on_arrival(a, 0);
        p.on_arrival(b, 1);
        let v = f.view(10);
        assert_eq!(p.pick(&v).unwrap().id, ida);
        assert_eq!(p.pick(&v).unwrap().id, idb);
        assert_eq!(p.pending(), 0);
    }

    #[test]
    fn frfcfs_prefers_row_hits() {
        let mut f = Fixture::new();
        let mut p = FrFcfs::new();
        // First request is a miss (row not open); second hits an open row.
        let miss = f.req(0x1000, wg(0, 0, 0), 1, 0);
        let hit = f.req(0x40_0000, wg(0, 1, 0), 1, 1);
        f.open_row_for(0x40_0000);
        // Make sure the fixture is meaningful: different banks or rows.
        let (idm, idh) = (miss.id, hit.id);
        p.on_arrival(miss, 0);
        p.on_arrival(hit, 1);
        let v = f.view(10);
        let first = p.pick(&v).unwrap();
        if f.mapper.decode(0x1000).bank != f.mapper.decode(0x40_0000).bank {
            assert_eq!(first.id, idh, "hit must be preferred over older miss");
            assert_eq!(p.pick(&v).unwrap().id, idm);
        }
    }

    #[test]
    fn gmc_respects_streak_limit() {
        let mut f = Fixture::new();
        let mut p = Gmc::new(4, 100_000);
        f.open_row_for(0x40_0000);
        let d = f.mapper.decode(0x40_0000);
        // A hit available, but the bank's streak is exhausted.
        f.banks[d.bank.0 as usize].hits_since_row_open = 4;
        let hit = f.req(0x40_0000, wg(0, 0, 0), 1, 0);
        let idh = hit.id;
        p.on_arrival(hit, 0);
        let other = f.req(0x123_4000, wg(0, 1, 0), 1, 1);
        let ido = other.id;
        let same_bank = f.mapper.decode(0x123_4000).bank == d.bank;
        p.on_arrival(other, 1);
        let v = f.view(10);
        let first = p.pick(&v).unwrap();
        if !same_bank {
            // Streak exhausted: the scheduler must start a new stream (the
            // oldest non-hit), not continue the hit.
            assert_eq!(first.id, ido);
        } else {
            let _ = idh;
        }
    }

    #[test]
    fn gmc_age_threshold_breaks_streams() {
        let mut f = Fixture::new();
        let mut p = Gmc::new(16, 100);
        f.open_row_for(0x40_0000);
        let old_miss = f.req(0x1000, wg(0, 0, 0), 1, 0);
        let fresh_hit = f.req(0x40_0000, wg(0, 1, 0), 1, 190);
        let (ido, _idf) = (old_miss.id, fresh_hit.id);
        p.on_arrival(old_miss, 0);
        p.on_arrival(fresh_hit, 190);
        // Old request is 200 cycles old: force-prioritised over the hit.
        let v = f.view(200);
        assert_eq!(p.pick(&v).unwrap().id, ido);
    }

    #[test]
    fn wafcfs_services_complete_groups_in_order() {
        let mut f = Fixture::new();
        let mut p = Wafcfs::new();
        let g1 = wg(0, 0, 0);
        let g2 = wg(0, 1, 0);
        // g1 arrives first but is incomplete (1/2 arrived); g2 is complete.
        let r1 = f.req(0x1000, g1, 2, 0);
        let r2 = f.req(0x5000, g2, 1, 1);
        f.groups.on_arrival(&r1);
        f.groups.on_arrival(&r2);
        let (id1, id2) = (r1.id, r2.id);
        p.on_arrival(r1, 0);
        p.on_arrival(r2, 1);
        let v = f.view(10);
        assert_eq!(
            p.pick(&v).unwrap().id,
            id2,
            "complete group must be serviced before incomplete older group"
        );
        // Now complete g1 and it becomes eligible.
        let r3 = f.req(0x2000, g1, 2, 5);
        f.groups.on_arrival(&r3);
        let id3 = r3.id;
        p.on_arrival(r3, 5);
        let v = f.view(20);
        let a = p.pick(&v).unwrap().id;
        let b = p.pick(&v).unwrap().id;
        assert_eq!(
            [a, b],
            [id1, id3],
            "group requests must be serviced in arrival order"
        );
    }

    #[test]
    fn sbwas_prefers_short_warp_miss_at_high_alpha() {
        let mut f = Fixture::new();
        let mut p = Sbwas::new(3); // alpha = 0.75 => threshold 6
        f.open_row_for(0x40_0000);
        let d = f.mapper.decode(0x40_0000);
        // A long warp with a row hit, a short warp with a miss on same bank.
        let long_warp = GlobalWarpId::new(0, 0);
        for s in 0..8 {
            let r = f.req(0x40_0000, WarpGroupId::new(long_warp, s), 8, 0);
            p.on_arrival(r, 0);
        }
        // Find a miss address on the same bank, different row.
        let mut miss_addr = 0;
        for cand in (0..200u64).map(|i| 0x40_0000 + (i + 1) * 0x40_000) {
            let dd = f.mapper.decode(cand);
            if dd.bank == d.bank && dd.channel == d.channel && dd.row != d.row {
                miss_addr = cand;
                break;
            }
        }
        assert_ne!(
            miss_addr, 0,
            "fixture needs a same-bank different-row address"
        );
        let short = f.req(miss_addr, wg(1, 1, 0), 1, 1);
        let ids = short.id;
        p.on_arrival(short, 1);
        let v = f.view(10);
        // Keep picking until the short warp's miss shows up; with alpha=0.75
        // it must come before the 8 hits are exhausted.
        let mut found_at = None;
        for i in 0..9 {
            let r = p.pick(&v).unwrap();
            if r.id == ids {
                found_at = Some(i);
                break;
            }
        }
        assert!(
            matches!(found_at, Some(i) if i < 8),
            "short warp starved: {found_at:?}"
        );
    }

    #[test]
    fn factory_covers_baselines_only() {
        let mem = MemConfig::default();
        for k in [
            SchedulerKind::Fcfs,
            SchedulerKind::FrFcfs,
            SchedulerKind::Gmc,
            SchedulerKind::Wafcfs,
            SchedulerKind::Sbwas { alpha_q: 2 },
            SchedulerKind::ZeroDivergence,
            SchedulerKind::ParBs,
        ] {
            assert!(make_baseline_policy(k, &mem).is_some(), "{k:?}");
        }
        for k in [
            SchedulerKind::Wg,
            SchedulerKind::WgM,
            SchedulerKind::WgBw,
            SchedulerKind::WgW,
            SchedulerKind::WgShared,
        ] {
            assert!(make_baseline_policy(k, &mem).is_none(), "{k:?}");
        }
    }

    #[test]
    fn parbs_marks_batches_and_respects_max_rule() {
        let mut f = Fixture::new();
        let mut p = ParBs::new(2);
        // Warp A: 4 requests on one bank (max marked = 2 after cap).
        // Warp B: 1 request on another bank (max marked = 1 -> higher rank).
        let wa = wg(0, 0, 0);
        let wb = wg(0, 1, 0);
        let mut a_reqs = Vec::new();
        for i in 0..4 {
            let r = f.req(0x1000 + i * 0x40_000, wa, 4, i);
            a_reqs.push(r.id);
            p.on_arrival(r, i);
        }
        let rb = f.req(0x9_0000, wb, 1, 10);
        let idb = rb.id;
        let same_bank = f.mapper.decode(0x9_0000).bank == f.mapper.decode(0x1000).bank;
        p.on_arrival(rb, 10);
        let v = f.view(20);
        let first = p.pick(&v).unwrap();
        assert_eq!(p.batches_formed, 1);
        if !same_bank {
            // B has the lower MAX-rule rank: serviced first within the batch.
            assert_eq!(first.id, idb, "MAX rule must favour the light warp");
        }
        // Batch is eventually exhausted and a new one forms.
        let mut picks = 1;
        while p.pick(&v).is_some() {
            picks += 1;
        }
        assert_eq!(picks, 5);
    }

    #[test]
    fn parbs_marked_requests_precede_unmarked() {
        let mut f = Fixture::new();
        let mut p = ParBs::new(1);
        let wa = wg(2, 0, 0);
        let r1 = f.req(0x1000, wa, 2, 0);
        let r2 = f.req(0x2000, wa, 2, 1);
        let (id1, _id2) = (r1.id, r2.id);
        let same_bank = r1.decoded.bank == r2.decoded.bank;
        p.on_arrival(r1, 0);
        p.on_arrival(r2, 1);
        let v = f.view(5);
        let first = p.pick(&v).unwrap();
        if same_bank {
            // cap 1: only the older request is marked.
            assert_eq!(first.id, id1);
        }
        assert!(p.pick(&v).is_some());
        assert_eq!(p.pending(), 0);
    }

    #[test]
    fn atlas_prioritises_least_attained_warp_after_epoch() {
        let mut f = Fixture::new();
        let mut p = AtlasLite::new(100);
        let hungry = wg(0, 0, 0); // will be serviced a lot in epoch 1
        let starved = wg(0, 1, 0);
        for i in 0..6 {
            let r = f.req(0x1000 * (i + 1), hungry, 6, i);
            p.on_arrival(r, i);
        }
        let rs = f.req(0x90_0000, starved, 1, 3);
        let ids = rs.id;
        p.on_arrival(rs, 3);
        // Epoch 1 (rank map empty): pure hit/age order. Service 4 requests.
        let v = f.view(10);
        for _ in 0..4 {
            p.pick(&v).unwrap();
        }
        // Epoch rolls at t >= 100: the starved warp has lower attained
        // service and must now be ranked first.
        let v = f.view(150);
        let first = p.pick(&v).unwrap();
        assert!(p.epochs >= 2);
        // `starved` has attained <= hungry; if it was serviced in epoch 1
        // the ordering may tie — accept either but require that once ranks
        // exist, the lowest-rank warp goes first.
        if first.id != ids {
            // starved must then already have been serviced in epoch 1
            assert!(p.pending() < 3);
        }
    }

    #[test]
    fn atlas_epoch_counter_advances() {
        let mut f = Fixture::new();
        let mut p = AtlasLite::new(50);
        let g = wg(1, 1, 0);
        for i in 0..3 {
            let r = f.req(0x2000 * (i + 1), g, 3, i);
            p.on_arrival(r, i);
        }
        for (t, _) in (0..3).zip(0..) {
            let v = f.view(t * 60);
            p.pick(&v).unwrap();
        }
        assert!(p.epochs >= 3);
    }

    #[test]
    fn remove_group_extracts_all_members() {
        let mut f = Fixture::new();
        let mut p = FrFcfs::new();
        let g = wg(3, 3, 1);
        for i in 0..4 {
            let r = f.req(0x1000 * (i + 1), g, 4, i);
            p.on_arrival(r, i);
        }
        let other = f.req(0x9_0000, wg(4, 4, 0), 1, 10);
        p.on_arrival(other, 10);
        let removed = p.remove_group(g);
        assert_eq!(removed.len(), 4);
        assert_eq!(p.pending(), 1);
    }
}
