//! The warp-group transaction scheduler (WG / WG-M / WG-Bw / WG-W).
//!
//! Replaces the baseline's Row Sorter with the **Warp Sorter** of Fig. 6:
//! pending read requests are grouped by warp-group; among *fully arrived*
//! groups, the Bank-Table shortest-job-first rule picks the group with the
//! lowest completion score, and the group is then drained as a unit (one
//! request per cycle into the command queues).
//!
//! Optional features layer the paper's refinements on top — see the crate
//! docs for the scheme/feature matrix.

use crate::score::{group_score, GroupScore};
use ldsim_memctrl::{CoordMsg, Policy, PolicyView};
use ldsim_types::clock::Cycle;
use ldsim_types::config::{MemConfig, SchedulerKind};
use ldsim_types::ids::WarpGroupId;
use ldsim_types::req::MemRequest;
use ldsim_util::{FnvHashMap, FnvHashSet};
use std::collections::{BTreeMap, BTreeSet};

/// Which of the paper's refinements are active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WgFlags {
    /// WG-M: accept/emit score-coordination messages (Section IV-C).
    pub coordinate: bool,
    /// WG-Bw: MERB-gated row-miss insertion (Section IV-D).
    pub merb: bool,
    /// WG-W: pre-drain priority for unit warp-groups (Section IV-E).
    pub write_aware: bool,
    /// WG-S: prefer warp-groups whose lines are shared by multiple warps —
    /// the future-work extension of Section VIII.
    pub shared_aware: bool,
}

impl WgFlags {
    pub fn for_kind(kind: SchedulerKind) -> Option<(Self, &'static str)> {
        match kind {
            SchedulerKind::Wg => Some((
                WgFlags {
                    coordinate: false,
                    merb: false,
                    write_aware: false,
                    shared_aware: false,
                },
                "WG",
            )),
            SchedulerKind::WgM => Some((
                WgFlags {
                    coordinate: true,
                    merb: false,
                    write_aware: false,
                    shared_aware: false,
                },
                "WG-M",
            )),
            SchedulerKind::WgBw => Some((
                WgFlags {
                    coordinate: true,
                    merb: true,
                    write_aware: false,
                    shared_aware: false,
                },
                "WG-Bw",
            )),
            SchedulerKind::WgW => Some((
                WgFlags {
                    coordinate: true,
                    merb: true,
                    write_aware: true,
                    shared_aware: false,
                },
                "WG-W",
            )),
            SchedulerKind::WgShared => Some((
                WgFlags {
                    coordinate: true,
                    merb: true,
                    write_aware: true,
                    shared_aware: true,
                },
                "WG-S",
            )),
            _ => None,
        }
    }
}

/// One live warp-group: its waiting requests plus the per-group state the
/// pick paths read, so that walking the store touches no other map.
#[derive(Debug, Clone)]
struct GroupEntry {
    wg: WarpGroupId,
    reqs: Vec<MemRequest>,
    /// Cycle the group's first request arrived (starvation guard).
    first_arrival: Cycle,
    /// Lowest remote completion score received for the group (WG-M): the
    /// local score is capped at this value, prioritising warps already
    /// serviced elsewhere. Only coordinating schemes ever set it.
    cap: Option<u32>,
    /// Sticky "fully arrived": set the first time the tracker reports the
    /// group complete. Sound because completeness is monotone while the
    /// group holds a request (DESIGN.md §13).
    complete: bool,
}

/// Pending requests for one `(bank, row)` pair, indexed for the MERB gate
/// (DESIGN.md §13): total count (orphan control needs it) plus each holding
/// group's share, keyed by the group's seq — so "oldest group with a
/// pending hit on this row" is the first key of `by_seq` instead of a scan
/// over every group's request list.
#[derive(Debug, Default, Clone)]
struct RowTally {
    count: u32,
    by_seq: BTreeMap<u64, u32>,
}

/// What a pick that found nothing did, for [`Policy::pick_settled`] to
/// replay (DESIGN.md §13).
#[derive(Debug, Clone, Copy)]
struct Settled {
    /// The pick's `coord_cap_applied` increment, its only side effect.
    caps: u64,
    /// First cycle at which the oldest group crosses the age threshold, and
    /// the pick takes another path; `Cycle::MAX` if it had crossed already.
    until: Cycle,
}

/// The warp-aware transaction scheduler.
#[derive(Clone)]
pub struct WarpGroupPolicy {
    flags: WgFlags,
    name: &'static str,
    /// Starvation guard: a group whose first request has waited longer than
    /// this is force-prioritised (the same liveness rule the GMC baseline
    /// applies; plain SJF would starve large warp-groups indefinitely).
    age_threshold: Cycle,
    /// Every live group, keyed by its seq: the arrival order of its first
    /// request, unique across live groups and immutable for the group's
    /// lifetime (the final tie-breaker, guaranteeing forward progress).
    /// Iteration is oldest-first.
    groups: BTreeMap<u64, GroupEntry>,
    /// Warp-group → seq of its live entry.
    seq_of: FnvHashMap<WarpGroupId, u64>,
    /// Requests pending per bank.
    bank_count: Vec<usize>,
    total: usize,
    seq: u64,
    /// Seq of the group currently being drained as a unit.
    active: Option<u64>,
    /// WG-M caps received for groups not (yet) live here — cross-channel
    /// skew makes that the common case. A group's cap moves into its entry
    /// when its first request arrives.
    remote_cap: FnvHashMap<WarpGroupId, u32>,
    /// Live entries holding a cap: with `remote_cap.len()` it makes the cap
    /// count the bounded-state sweep compares against.
    live_caps: usize,
    coord_out: Vec<CoordMsg>,
    /// Scratch for score computation (see [`group_score`]).
    scratch: Vec<u32>,
    /// Seqs of the live groups with exactly one pending request (WG-W's
    /// unit-group pre-drain pick).
    unit_by_seq: BTreeSet<u64>,
    /// Per bank: row → pending-request tally (the MERB gate's index).
    row_tally: Vec<FnvHashMap<u32, RowTally>>,
    /// Test-only twin switch: pick through the original scan-based paths
    /// instead of the indexes, which are still maintained but not
    /// consulted (`indexed_picks_match_reference_scans_under_random_ops`).
    #[cfg(test)]
    reference: bool,
    /// Stats: MERB substitutions performed (row-hits inserted before a
    /// gated row-miss).
    pub merb_substitutions: u64,
    /// Stats: unit-group priority grants under imminent drain.
    pub wgw_priority_grants: u64,
    /// Stats: groups selected by the SJF rule.
    pub groups_selected: u64,
    /// Stats: scored candidates whose score a WG-M remote cap lowered —
    /// counted every time a group is scored for selection or bypass,
    /// including in picks that return nothing.
    pub coord_cap_applied: u64,
    /// Groups flagged as shared by multiple warps (WG-S, Section VIII).
    shared: FnvHashSet<WarpGroupId>,
    /// Stats: selections where sharing broke the tie.
    pub shared_promotions: u64,
    /// Memo of the last pick, armed when it returned `None` and changed
    /// nothing but `coord_cap_applied`.
    settled: Option<Settled>,
}

/// Bank-Table score of a group, capped by its remote score (WG-M). The
/// boolean says whether the cap engaged — capped groups (already in service
/// at another controller) win score ties, finishing the warp instead of
/// starting a new one (the intent of Section IV-C). Each engagement counts
/// in `applied`.
fn effective_score(
    e: &GroupEntry,
    view: &PolicyView<'_>,
    scratch: &mut [u32],
    applied: &mut u64,
) -> (GroupScore, bool) {
    let mut s = group_score(&e.reqs, view, scratch);
    match e.cap {
        Some(cap) if cap < s.score => {
            s.score = cap;
            *applied += 1;
            (s, true)
        }
        _ => (s, false),
    }
}

/// Index of the request to schedule from `reqs`: the lowest Bank-Table
/// request score (row hits first, then the least-loaded bank) among those
/// with command-queue headroom, first index on ties.
fn best_request(reqs: &[MemRequest], view: &PolicyView<'_>) -> Option<usize> {
    let mut best: Option<(u32, usize)> = None;
    for (i, r) in reqs.iter().enumerate() {
        if !view.headroom_ok(&r.decoded) {
            continue;
        }
        let s = view.request_score(&r.decoded);
        if best.map(|(bs, _)| s < bs).unwrap_or(true) {
            best = Some((s, i));
        }
    }
    best.map(|(_, i)| i)
}

/// Is the group fully arrived? The indexed route reads the sticky bit and
/// asks the tracker only until it says yes; the test twin's reference route
/// always asks the tracker.
fn is_complete(e: &mut GroupEntry, view: &PolicyView<'_>, reference: bool) -> bool {
    if reference {
        return view.groups.is_complete(e.wg);
    }
    if !e.complete {
        e.complete = view.groups.is_complete(e.wg);
    }
    debug_assert!(
        !e.complete || view.groups.is_complete(e.wg),
        "completeness of {:?} regressed while it held requests",
        e.wg
    );
    e.complete
}

impl WarpGroupPolicy {
    pub fn new(flags: WgFlags, name: &'static str, num_banks: usize) -> Self {
        Self::with_age_threshold(flags, name, num_banks, 12_000)
    }

    /// Construct with an explicit starvation threshold (cycles).
    pub fn with_age_threshold(
        flags: WgFlags,
        name: &'static str,
        num_banks: usize,
        age_threshold: Cycle,
    ) -> Self {
        Self {
            flags,
            name,
            age_threshold,
            groups: BTreeMap::new(),
            seq_of: FnvHashMap::default(),
            bank_count: vec![0; num_banks],
            total: 0,
            seq: 0,
            active: None,
            remote_cap: FnvHashMap::default(),
            live_caps: 0,
            coord_out: Vec::new(),
            scratch: vec![0; num_banks.max(48)],
            merb_substitutions: 0,
            wgw_priority_grants: 0,
            groups_selected: 0,
            coord_cap_applied: 0,
            shared: FnvHashSet::default(),
            shared_promotions: 0,
            unit_by_seq: BTreeSet::new(),
            row_tally: vec![FnvHashMap::default(); num_banks],
            #[cfg(test)]
            reference: false,
            settled: None,
        }
    }

    pub fn flags(&self) -> WgFlags {
        self.flags
    }

    /// Internal invariant check (tests): the seq-ordered store and its
    /// indexes must describe one consistent pending state, and every
    /// sticky-complete group must be complete according to `tracker`.
    #[cfg(test)]
    fn check_index_invariants(&self, tracker: &ldsim_memctrl::GroupTracker) {
        assert_eq!(self.seq_of.len(), self.groups.len());
        let mut total = 0;
        let mut per_bank = vec![0usize; self.bank_count.len()];
        let mut want: BTreeMap<(usize, u32, u64), u32> = BTreeMap::new();
        for (&seq, e) in &self.groups {
            assert!(!e.reqs.is_empty(), "empty group retained");
            assert!(seq < self.seq, "seq from the future");
            assert_eq!(self.seq_of.get(&e.wg), Some(&seq), "seq index stale");
            assert_eq!(self.unit_by_seq.contains(&seq), e.reqs.len() == 1);
            assert!(!e.complete || tracker.is_complete(e.wg), "sticky bit ahead");
            assert!(!self.remote_cap.contains_key(&e.wg), "live cap left behind");
            for r in &e.reqs {
                assert_eq!(r.wg, e.wg);
                total += 1;
                per_bank[r.decoded.bank.0 as usize] += 1;
                *want
                    .entry((r.decoded.bank.0 as usize, r.decoded.row, seq))
                    .or_insert(0) += 1;
            }
        }
        assert_eq!(self.total, total);
        assert_eq!(self.bank_count, per_bank);
        assert!(self.unit_by_seq.iter().all(|s| self.groups.contains_key(s)));
        assert_eq!(
            self.live_caps,
            self.groups.values().filter(|e| e.cap.is_some()).count(),
            "live-cap count stale"
        );
        assert!(self.active.is_none_or(|s| self.groups.contains_key(&s)));
        let mut have = 0usize;
        for (b, per_row) in self.row_tally.iter().enumerate() {
            for (row, t) in per_row {
                assert!(t.count > 0, "empty tally retained");
                let mut sum = 0;
                for (seq, c) in &t.by_seq {
                    assert!(*c > 0);
                    assert_eq!(want.get(&(b, *row, *seq)), Some(c));
                    sum += c;
                }
                assert_eq!(t.count, sum);
                have += t.by_seq.len();
            }
        }
        assert_eq!(have, want.len());
    }

    fn take_req(&mut self, seq: u64, idx: usize) -> MemRequest {
        let entry = self.groups.get_mut(&seq).expect("group exists");
        let r = entry.reqs.swap_remove(idx);
        let left = entry.reqs.len();
        self.bank_count[r.decoded.bank.0 as usize] -= 1;
        self.total -= 1;
        self.untally(&r, seq);
        match left {
            0 => {
                let e = self.groups.remove(&seq).expect("group exists");
                self.retire(seq, &e);
                self.shared.remove(&e.wg);
            }
            1 => {
                self.unit_by_seq.insert(seq);
            }
            _ => {}
        }
        r
    }

    /// Drop the indexes of a group whose entry just left the store.
    fn retire(&mut self, seq: u64, e: &GroupEntry) {
        self.seq_of.remove(&e.wg);
        self.unit_by_seq.remove(&seq);
        self.live_caps -= e.cap.is_some() as usize;
        if self.active == Some(seq) {
            self.active = None;
        }
    }

    /// Remove one request's contribution from its `(bank, row)` tally.
    fn untally(&mut self, r: &MemRequest, seq: u64) {
        let per_row = &mut self.row_tally[r.decoded.bank.0 as usize];
        let t = per_row
            .get_mut(&r.decoded.row)
            .expect("tally exists for pending request");
        t.count -= 1;
        if t.count == 0 {
            per_row.remove(&r.decoded.row);
            return;
        }
        let c = t.by_seq.get_mut(&seq).expect("group share exists");
        *c -= 1;
        if *c == 0 {
            t.by_seq.remove(&seq);
        }
    }

    /// Does any pending request have command-queue room? A bank with
    /// pending requests can take one when it has room for a miss (3
    /// slots), or room for a hit (1 slot) and a pending request for the
    /// row it will find open — the row tally answers that in one lookup.
    /// O(banks).
    fn any_schedulable(&self, view: &PolicyView<'_>) -> bool {
        self.bank_count
            .iter()
            .zip(view.banks)
            .zip(&self.row_tally)
            .any(|((&n, s), rows)| {
                n > 0
                    && (s.headroom >= 3
                        || (s.headroom >= 1
                            && s.last_scheduled_row.is_some_and(|r| rows.contains_key(&r))))
            })
    }

    /// Select the best complete group by bank-aware SJF; fall back to the
    /// oldest group if none is complete (prevents queue-full livelock).
    ///
    /// Every complete group is scored (never short-circuited): the score
    /// evaluation has an observable side effect — `coord_cap_applied`
    /// counts every engagement of the WG-M remote cap, and that counter is
    /// part of `RunResult` — so the candidate *set* is bit-exactness
    /// contract, not an implementation detail. The selection itself is a
    /// strict total order ending in the unique `seq`, so evaluation order
    /// cannot change the winner.
    fn select_group(&mut self, view: &PolicyView<'_>) -> Option<u64> {
        // Ordering: lowest score; ties -> shared groups (WG-S), then
        // remotely-started groups, then most row hits, then oldest.
        let mut best: Option<(GroupScore, bool, bool, u64)> = None;
        #[cfg(test)]
        let reference = self.reference;
        #[cfg(not(test))]
        let reference = false;
        for (&seq, e) in self.groups.iter_mut() {
            if !is_complete(e, view, reference) {
                continue;
            }
            let (s, capped) =
                effective_score(e, view, &mut self.scratch, &mut self.coord_cap_applied);
            let shared = self.flags.shared_aware && self.shared.contains(&e.wg);
            let better = match &best {
                None => true,
                Some((bs, bshared, bcap, bseq)) => {
                    if s.score != bs.score {
                        s.score < bs.score
                    } else if shared != *bshared {
                        shared
                    } else if capped != *bcap {
                        capped
                    } else if s.hits != bs.hits {
                        s.hits > bs.hits
                    } else {
                        seq < *bseq
                    }
                }
            };
            if better {
                best = Some((s, shared, capped, seq));
            }
        }
        if let Some((score, shared, _, seq)) = best {
            if shared {
                self.shared_promotions += 1;
            }
            self.groups_selected += 1;
            if self.flags.coordinate {
                self.coord_out.push(CoordMsg {
                    wg: self.groups[&seq].wg,
                    score: score.score,
                });
            }
            return Some(seq);
        }
        // No complete group: fall back to the oldest partial group so the
        // read queue cannot clog with fragments.
        self.groups.keys().next().copied()
    }

    /// Pick the next request *within* the active group: row hits first
    /// (they stream immediately), then the miss on the least-loaded bank.
    fn pick_from_group(&mut self, seq: u64, view: &PolicyView<'_>) -> Option<MemRequest> {
        let entry = self.groups.get(&seq)?;
        let idx = best_request(&entry.reqs, view)?;
        // WG-Bw: if the chosen request is a row-miss, the MERB gate may
        // substitute a row-hit from another group on the same bank.
        if self.flags.merb {
            let d = entry.reqs[idx].decoded;
            if !view.is_hit(&d) {
                if let Some((oseq, oidx)) = self.merb_gate(d.bank.0 as usize, view) {
                    self.merb_substitutions += 1;
                    return Some(self.take_req(oseq, oidx));
                }
            }
        }
        Some(self.take_req(seq, idx))
    }

    /// The MERB gate (Section IV-D): a row-miss on `bank` must wait while
    /// the bank's row-hit counter is below MERB(banks-with-work) and row
    /// hits for the bank's open row are still pending — and, per the orphan
    /// control rule, while only one or two such hits remain even after the
    /// threshold is met. Returns the oldest substitute hit to schedule.
    ///
    /// Indexed: the `(bank, open-row)` tally answers "how many pending hits"
    /// and "which group is oldest" in one map lookup; only the oldest
    /// group's request list is then scanned for the substitute's position —
    /// the *first* matching index, the same within-group order the reference
    /// scan produces.
    fn merb_gate(&self, bank: usize, view: &PolicyView<'_>) -> Option<(u64, usize)> {
        #[cfg(test)]
        if self.reference {
            return self.merb_gate_reference(bank, view);
        }
        let snap = &view.banks[bank];
        let open_row = snap.last_scheduled_row?;
        let t = self.row_tally[bank].get(&open_row)?;
        debug_assert!(t.count > 0);
        let banks_with_work = view.banks_with_work(|b| self.bank_count[b] > 0);
        let threshold = view.merb.get(banks_with_work);
        let gate_closed = snap.hits_since_row_open < threshold;
        // Orphan control: never strand one or two row-hits behind a miss.
        let orphan = t.count <= 2;
        if gate_closed || orphan {
            let (&seq, _) = t.by_seq.first_key_value().expect("non-empty tally");
            let e = &self.groups[&seq];
            let i = e
                .reqs
                .iter()
                .position(|r| r.decoded.bank.0 as usize == bank && r.decoded.row == open_row)
                .expect("tallied request present in group");
            if view.headroom_ok(&e.reqs[i].decoded) {
                return Some((seq, i));
            }
        }
        None
    }

    /// Original scan-based MERB gate, the test twin of [`Self::merb_gate`].
    #[cfg(test)]
    fn merb_gate_reference(&self, bank: usize, view: &PolicyView<'_>) -> Option<(u64, usize)> {
        let snap = &view.banks[bank];
        let open_row = snap.last_scheduled_row?;
        // Find pending row-hits for this bank's open row across all groups.
        let mut oldest: Option<(u64, usize)> = None;
        let mut count = 0usize;
        for (&seq, e) in &self.groups {
            for (i, r) in e.reqs.iter().enumerate() {
                if r.decoded.bank.0 as usize == bank && r.decoded.row == open_row {
                    count += 1;
                    if oldest.map(|(s, _)| seq < s).unwrap_or(true) {
                        oldest = Some((seq, i));
                    }
                }
            }
        }
        if count == 0 {
            return None;
        }
        let banks_with_work = view.banks_with_work(|b| self.bank_count[b] > 0);
        let threshold = view.merb.get(banks_with_work);
        let gate_closed = snap.hits_since_row_open < threshold;
        let orphan = count <= 2;
        if gate_closed || orphan {
            let (seq, i) = oldest.expect("a counted hit has an oldest holder");
            if view.headroom_ok(&self.groups[&seq].reqs[i].decoded) {
                return Some((seq, i));
            }
        }
        None
    }

    /// The active group cannot schedule anything (its banks' command queues
    /// are full). Pull one schedulable request from the lowest-score other
    /// group rather than idling banks.
    ///
    /// Candidates: complete non-active groups (incomplete ones only when no
    /// complete group exists — the tie-break the
    /// `bypass_prefers_complete_groups_over_better_scored_incomplete` test
    /// pins). The reference ranks them by a stable sort on score (seq order
    /// within ties) and takes the first with a schedulable request. This
    /// walk visits the candidates oldest-first and keeps the best holder of
    /// a schedulable request under (lowest score, most hits, oldest): the
    /// same winner, in one pass, with no sort. A candidate with nothing
    /// schedulable cannot win, so it is scored only when it holds a remote
    /// cap — the one case where scoring is observable (`coord_cap_applied`).
    /// Without `room` (no pending request has any) nothing can win, so
    /// only the caps are counted, and only if some live group holds one.
    fn pick_bypass(&mut self, view: &PolicyView<'_>, room: bool) -> Option<MemRequest> {
        #[cfg(test)]
        if self.reference {
            return self.pick_bypass_reference(view);
        }
        if !room && self.live_caps == 0 {
            return None;
        }
        let mut best: Option<(GroupScore, u64, usize)> = None;
        for complete_only in [true, false] {
            let mut any = false;
            for (&seq, e) in self.groups.iter_mut() {
                if Some(seq) == self.active || (complete_only && !is_complete(e, view, false)) {
                    continue;
                }
                any = true;
                let idx = room.then(|| best_request(&e.reqs, view)).flatten();
                if idx.is_none() && e.cap.is_none() {
                    continue;
                }
                let (s, _) =
                    effective_score(e, view, &mut self.scratch, &mut self.coord_cap_applied);
                if let Some(idx) = idx {
                    if best.is_none_or(|(bs, _, _)| s.better_than(&bs)) {
                        best = Some((s, seq, idx));
                    }
                }
            }
            if any {
                break;
            }
        }
        best.map(|(_, seq, idx)| self.take_req(seq, idx))
    }

    /// Original allocating scan-and-sort bypass, the test twin of
    /// [`Self::pick_bypass`].
    #[cfg(test)]
    fn pick_bypass_reference(&mut self, view: &PolicyView<'_>) -> Option<MemRequest> {
        let active = self.active;
        // The store iterates in seq order, so `seqs` is already seq-sorted.
        let mut seqs: Vec<u64> = self
            .groups
            .iter()
            .filter(|(seq, e)| Some(**seq) != active && view.groups.is_complete(e.wg))
            .map(|(seq, _)| *seq)
            .collect();
        if seqs.is_empty() {
            seqs = self
                .groups
                .keys()
                .filter(|seq| Some(**seq) != active)
                .copied()
                .collect();
        }
        let mut scored: Vec<(GroupScore, u64)> = seqs
            .into_iter()
            .map(|seq| {
                let e = &self.groups[&seq];
                let s = effective_score(e, view, &mut self.scratch, &mut self.coord_cap_applied);
                (s.0, seq)
            })
            .collect();
        // Stable sort: within equal scores the seq order above survives.
        scored.sort_by(|a, b| {
            if a.0.better_than(&b.0) {
                std::cmp::Ordering::Less
            } else if b.0.better_than(&a.0) {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        });
        for (_, seq) in scored {
            if let Some(idx) = best_request(&self.groups[&seq].reqs, view) {
                return Some(self.take_req(seq, idx));
            }
        }
        None
    }

    /// WG-W (Section IV-E): under an imminent write drain, service groups
    /// with exactly one outstanding request first, regardless of score.
    ///
    /// Indexed: `unit_by_seq` holds exactly the single-request groups in
    /// seq order, so the oldest eligible one is the first entry passing the
    /// completeness + headroom filters (both seq-independent — iterating
    /// ascending and stopping at the first pass equals the reference's
    /// min-over-all).
    fn pick_unit_group(&mut self, view: &PolicyView<'_>) -> Option<MemRequest> {
        #[cfg(test)]
        if self.reference {
            return self.pick_unit_group_reference(view);
        }
        let mut found: Option<u64> = None;
        for &seq in &self.unit_by_seq {
            let e = self.groups.get_mut(&seq).expect("unit group is live");
            debug_assert_eq!(e.reqs.len(), 1);
            if is_complete(e, view, false) && view.headroom_ok(&e.reqs[0].decoded) {
                found = Some(seq);
                break;
            }
        }
        let seq = found?;
        self.wgw_priority_grants += 1;
        Some(self.take_req(seq, 0))
    }

    /// Original scan-based unit-group pick, the test twin of
    /// [`Self::pick_unit_group`].
    #[cfg(test)]
    fn pick_unit_group_reference(&mut self, view: &PolicyView<'_>) -> Option<MemRequest> {
        let mut best: Option<u64> = None;
        for (&seq, e) in &self.groups {
            if e.reqs.len() == 1
                && view.groups.is_complete(e.wg)
                && view.headroom_ok(&e.reqs[0].decoded)
                && best.map(|s| seq < s).unwrap_or(true)
            {
                best = Some(seq);
            }
        }
        let seq = best?;
        self.wgw_priority_grants += 1;
        Some(self.take_req(seq, 0))
    }

    /// The pick itself; [`Policy::pick`] wraps it to arm the settled memo.
    fn pick_full(&mut self, view: &PolicyView<'_>) -> Option<MemRequest> {
        if self.total == 0 {
            return None;
        }
        // Starvation guard: the oldest group past the age threshold
        // pre-empts the SJF order (and the active group). Indexed: `seq`
        // order is creation order and `first_arrival` is nondecreasing in
        // it, so the oldest group (the store's first entry) is the *only*
        // one that can exceed the threshold first — one lookup replaces
        // the filtered min-scan.
        let old = |e: &GroupEntry| view.now.saturating_sub(e.first_arrival) > self.age_threshold;
        let aged = self.groups.first_key_value().filter(|(_, e)| old(e));
        let aged = aged.map(|(s, _)| *s);
        // `room`: can any pending request be scheduled? If not, every path
        // below returns nothing, so the searches are skipped and only their
        // side effects remain: the aged group becomes active, a missing
        // active group is selected (counters and coordination broadcast),
        // and the bypass counts its capped candidates.
        let room = self.any_schedulable(view);
        // The test twin min-scans every group and always searches.
        #[cfg(test)]
        let (aged, room) = if self.reference {
            let scan = self.groups.iter().filter(|(_, e)| old(e));
            (scan.map(|(s, _)| *s).min(), true)
        } else {
            (aged, room)
        };
        if let Some(seq) = aged {
            self.active = Some(seq);
            if room {
                if let Some(r) = self.pick_from_group(seq, view) {
                    return Some(r);
                }
            }
        }
        // WG-W pre-drain hook.
        if room && self.flags.write_aware && view.drain_imminent() {
            if let Some(r) = self.pick_unit_group(view) {
                return Some(r);
            }
        }
        // Continue draining the active group, else select a new one. (An
        // entry leaving the store clears `active`, so it is always live.)
        let seq = match self.active {
            Some(seq) => seq,
            None => {
                let seq = self.select_group(view)?;
                self.active = Some(seq);
                seq
            }
        };
        if room {
            if let Some(r) = self.pick_from_group(seq, view) {
                return Some(r);
            }
        }
        // The active group is blocked on command-queue headroom for its
        // banks. Never idle the transaction slot: pull one schedulable
        // request from the best other group so the remaining banks keep
        // streaming (the bandwidth-preserving rule of Section IV-D's design
        // discussion). The active group resumes as soon as its banks free
        // up.
        self.pick_bypass(view, room)
    }

    /// Everything a pick that finds nothing may change besides
    /// `coord_cap_applied` (`shared_promotions` moves only with
    /// `groups_selected`).
    fn stuck_state(&self) -> (Option<u64>, [u64; 3], usize) {
        (
            self.active,
            [
                self.groups_selected,
                self.merb_substitutions,
                self.wgw_priority_grants,
            ],
            self.coord_out.len(),
        )
    }

    /// First cycle at which the oldest group is past the age threshold
    /// (only the oldest can cross first); `Cycle::MAX` if it is already
    /// past it at `now`, or there is no group.
    fn aging_deadline(&self, now: Cycle) -> Cycle {
        self.groups.first_key_value().map_or(Cycle::MAX, |(_, e)| {
            let t = e
                .first_arrival
                .saturating_add(self.age_threshold)
                .saturating_add(1);
            if now >= t {
                Cycle::MAX
            } else {
                t
            }
        })
    }

    /// Debug self-check of a settled pick: a full pick on a clone finds
    /// nothing, leaves `active` and the other counters alone and adds the
    /// memoised cap count.
    #[cfg(debug_assertions)]
    fn check_settled(&self, view: &PolicyView<'_>, caps: u64) {
        let mut twin = self.clone();
        let picked = twin.pick_full(view);
        let mut want = Policy::counters(self);
        want[3] += caps;
        assert!(
            picked.is_none() && twin.active == self.active && Policy::counters(&twin) == want,
            "settled pick at {} diverges from a full pick: picked {:?}, counters {:?} vs {want:?}",
            view.now,
            picked.map(|r| r.id),
            Policy::counters(&twin)
        );
    }
}

impl Policy for WarpGroupPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_arrival(&mut self, req: MemRequest, now: Cycle) {
        let bank = req.decoded.bank.0 as usize;
        let row = req.decoded.row;
        self.bank_count[bank] += 1;
        self.total += 1;
        let seq = *self.seq_of.entry(req.wg).or_insert_with(|| {
            let cap = self.remote_cap.remove(&req.wg);
            self.live_caps += cap.is_some() as usize;
            self.groups.insert(
                self.seq,
                GroupEntry {
                    wg: req.wg,
                    reqs: Vec::with_capacity(4),
                    first_arrival: now,
                    cap,
                    complete: false,
                },
            );
            self.seq
        });
        let entry = self.groups.get_mut(&seq).expect("group exists");
        // The sticky completeness bit relies on every request of a group
        // at one channel carrying the same group size (set once per load
        // in `Sm`), so the tracker's expected count never grows.
        debug_assert!(
            entry
                .reqs
                .first()
                .is_none_or(|r| r.group_size_on_channel == req.group_size_on_channel),
            "requests of {:?} disagree on the group size at this channel",
            req.wg
        );
        entry.reqs.push(req);
        match entry.reqs.len() {
            1 => {
                self.unit_by_seq.insert(seq);
            }
            2 => {
                self.unit_by_seq.remove(&seq);
            }
            _ => {}
        }
        let t = self.row_tally[bank].entry(row).or_default();
        t.count += 1;
        *t.by_seq.entry(seq).or_insert(0) += 1;
        self.seq += 1;
    }

    fn pending(&self) -> usize {
        self.total
    }

    fn pick(&mut self, view: &PolicyView<'_>) -> Option<MemRequest> {
        let before = self.stuck_state();
        let caps = self.coord_cap_applied;
        let picked = self.pick_full(view);
        self.settled = (picked.is_none() && self.stuck_state() == before).then(|| Settled {
            caps: self.coord_cap_applied - caps,
            until: self.aging_deadline(view.now),
        });
        picked
    }

    /// The stuck path is idempotent apart from its cap count: with the
    /// store, the bank table and the tracker unchanged, a pick that found
    /// nothing and moved nothing but `coord_cap_applied` does the same
    /// again, until the oldest group ages into the starvation guard.
    fn pick_settled(&mut self, view: &PolicyView<'_>) -> Option<MemRequest> {
        match self.settled {
            Some(s) if view.now < s.until => {
                #[cfg(debug_assertions)]
                self.check_settled(view, s.caps);
                self.coord_cap_applied += s.caps;
                None
            }
            _ => self.pick(view),
        }
    }

    fn remove_group(&mut self, wg: WarpGroupId) -> Vec<MemRequest> {
        let Some(&seq) = self.seq_of.get(&wg) else {
            return Vec::new();
        };
        let entry = self.groups.remove(&seq).expect("group exists");
        self.retire(seq, &entry);
        for r in &entry.reqs {
            self.bank_count[r.decoded.bank.0 as usize] -= 1;
            self.total -= 1;
            self.untally(r, seq);
        }
        entry.reqs
    }

    fn on_shared(&mut self, wg: WarpGroupId) {
        if self.flags.shared_aware {
            self.shared.insert(wg);
        }
    }

    fn on_coord(&mut self, msg: CoordMsg, _now: Cycle) {
        if !self.flags.coordinate {
            return;
        }
        // Record the cap even when the group has not arrived here yet —
        // cross-channel skew makes that the common case: channel A selects
        // the group while its requests are still in flight toward us.
        if let Some(seq) = self.seq_of.get(&msg.wg) {
            let e = self.groups.get_mut(seq).expect("group exists");
            self.live_caps += e.cap.is_none() as usize;
            e.cap = Some(e.cap.map_or(msg.score, |c| c.min(msg.score)));
        } else {
            let c = self.remote_cap.entry(msg.wg).or_insert(u32::MAX);
            *c = (*c).min(msg.score);
        }
        // Bounded state: forget the caps of groups not live here once caps
        // outnumber live groups 4:1 (plus slack).
        if self.remote_cap.len() + self.live_caps > 4 * self.groups.len() + 1024 {
            self.remote_cap.clear();
        }
    }

    fn emit_coord(&mut self, out: &mut Vec<CoordMsg>) {
        out.append(&mut self.coord_out);
    }

    fn has_pending_for_bank(&self, bank: usize) -> bool {
        self.bank_count.get(bank).copied().unwrap_or(0) > 0
    }

    fn counters(&self) -> [u64; 4] {
        [
            self.groups_selected,
            self.merb_substitutions,
            self.wgw_priority_grants,
            self.coord_cap_applied,
        ]
    }
}

/// Build any scheduler (baseline or warp-aware) for `kind`.
pub fn make_policy(kind: SchedulerKind, mem: &MemConfig) -> Box<dyn Policy> {
    if let Some(p) = ldsim_memctrl::make_baseline_policy(kind, mem) {
        return p;
    }
    let (flags, name) = WgFlags::for_kind(kind).expect("WG-family kind");
    Box::new(WarpGroupPolicy::with_age_threshold(
        flags,
        name,
        mem.banks_per_channel,
        mem.gmc_age_threshold,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldsim_gddr5::MerbTable;
    use ldsim_memctrl::{BankSnapshot, GroupTracker};
    use ldsim_types::addr::DecodedAddr;
    use ldsim_types::clock::ClockDomain;
    use ldsim_types::config::TimingParams;
    use ldsim_types::ids::{BankId, ChannelId, GlobalWarpId, RequestId};
    use ldsim_types::req::ReqKind;

    struct Fix {
        banks: Vec<BankSnapshot>,
        groups: GroupTracker,
        merb: MerbTable,
        write_q_len: usize,
        next_id: u64,
    }

    impl Fix {
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
                write_q_len: 0,
                next_id: 0,
            }
        }

        fn view(&self) -> PolicyView<'_> {
            PolicyView {
                now: 0,
                banks: &self.banks,
                groups: &self.groups,
                write_q_len: self.write_q_len,
                write_hi: 32,
                wgw_margin: 8,
                merb: &self.merb,
            }
        }

        fn req(&mut self, bank: u8, row: u32, wg: WarpGroupId, size: u16) -> MemRequest {
            self.next_id += 1;
            MemRequest {
                id: RequestId(self.next_id),
                kind: ReqKind::Read,
                line_addr: self.next_id,
                decoded: DecodedAddr {
                    channel: ChannelId(0),
                    bank: BankId(bank),
                    bank_group: bank / 4,
                    row,
                    col: 0,
                },
                wg,
                last_of_group: false,
                group_size_on_channel: size,
                issue_cycle: 0,
                arrival_cycle: 0,
            }
        }

        /// Register arrival with the tracker AND the policy.
        fn feed(&mut self, p: &mut WarpGroupPolicy, r: MemRequest) {
            self.groups.on_arrival(&r);
            p.on_arrival(r, 0);
        }
    }

    fn wg(sm: u16, warp: u16, serial: u32) -> WarpGroupId {
        WarpGroupId::new(GlobalWarpId::new(sm, warp), serial)
    }

    fn plain_wg() -> WarpGroupPolicy {
        WarpGroupPolicy::new(WgFlags::default(), "WG", 16)
    }

    #[test]
    fn shortest_group_first_and_drained_as_unit() {
        let mut f = Fix::new();
        let mut p = plain_wg();
        // Long group: 3 misses on bank 0 (stacked -> score 9).
        let ga = wg(0, 0, 0);
        for row in 0..3 {
            let r = f.req(0, row, ga, 3);
            f.feed(&mut p, r);
        }
        // Short group: 1 miss on idle bank 5 (score 3) — arrives later.
        let gb = wg(0, 1, 0);
        let r = f.req(5, 7, gb, 1);
        let short_id = r.id;
        f.feed(&mut p, r);
        let v = f.view();
        let first = p.pick(&v).unwrap();
        assert_eq!(first.id, short_id, "shortest job must go first");
        // The long group then drains contiguously.
        for _ in 0..3 {
            let r = p.pick(&f.view()).unwrap();
            assert_eq!(r.wg, ga);
        }
        assert_eq!(p.pending(), 0);
        assert_eq!(p.groups_selected, 2);
    }

    #[test]
    fn incomplete_groups_are_not_selected() {
        let mut f = Fix::new();
        let mut p = plain_wg();
        let ga = wg(0, 0, 0);
        // Group expects 2 requests; only 1 arrived.
        let r = f.req(0, 1, ga, 2);
        f.feed(&mut p, r);
        let gb = wg(0, 1, 0);
        let r = f.req(1, 1, gb, 1);
        let complete_id = r.id;
        f.feed(&mut p, r);
        let v = f.view();
        assert_eq!(p.pick(&v).unwrap().id, complete_id);
    }

    #[test]
    fn fallback_picks_partial_group_when_none_complete() {
        let mut f = Fix::new();
        let mut p = plain_wg();
        let ga = wg(0, 0, 0);
        let r = f.req(0, 1, ga, 5);
        f.feed(&mut p, r);
        let v = f.view();
        assert!(p.pick(&v).is_some(), "fragment fallback must make progress");
    }

    #[test]
    fn tie_breaks_toward_more_row_hits() {
        let mut f = Fix::new();
        let mut p = plain_wg();
        f.banks[2].last_scheduled_row = Some(4);
        // Group A: one miss (score 3, 0 hits).
        let ga = wg(0, 0, 0);
        let r = f.req(0, 9, ga, 1);
        f.feed(&mut p, r);
        // Group B: three stacked hits (score 3, 3 hits).
        let gb = wg(0, 1, 0);
        for _ in 0..3 {
            let r = f.req(2, 4, gb, 3);
            f.feed(&mut p, r);
        }
        let v = f.view();
        assert_eq!(p.pick(&v).unwrap().wg, gb, "hits win the score tie");
    }

    #[test]
    fn coordination_caps_local_score() {
        let mut f = Fix::new();
        let mut p = WarpGroupPolicy::new(
            WgFlags {
                coordinate: true,
                merb: false,
                write_aware: false,
                shared_aware: false,
            },
            "WG-M",
            16,
        );
        // Group A: expensive locally (score 9).
        let ga = wg(0, 0, 0);
        for row in 0..3 {
            let r = f.req(0, row, ga, 3);
            f.feed(&mut p, r);
        }
        // Group B: cheap locally (score 3).
        let gb = wg(0, 1, 0);
        let r = f.req(5, 7, gb, 1);
        f.feed(&mut p, r);
        // A remote controller reports group A already being serviced with
        // score 1 -> local cap prioritises it past B.
        p.on_coord(CoordMsg { wg: ga, score: 1 }, 0);
        let v = f.view();
        assert_eq!(p.pick(&v).unwrap().wg, ga);
        assert!(p.coord_cap_applied > 0);
    }

    #[test]
    fn coordination_ignored_without_flag() {
        let mut f = Fix::new();
        let mut p = plain_wg();
        let ga = wg(0, 0, 0);
        for row in 0..3 {
            let r = f.req(0, row, ga, 3);
            f.feed(&mut p, r);
        }
        let gb = wg(0, 1, 0);
        let r = f.req(5, 7, gb, 1);
        let id_b = r.id;
        f.feed(&mut p, r);
        p.on_coord(CoordMsg { wg: ga, score: 1 }, 0);
        let v = f.view();
        assert_eq!(p.pick(&v).unwrap().id, id_b, "WG has no coordination");
    }

    #[test]
    fn selection_emits_coord_message() {
        let mut f = Fix::new();
        let mut p = WarpGroupPolicy::new(
            WgFlags {
                coordinate: true,
                merb: false,
                write_aware: false,
                shared_aware: false,
            },
            "WG-M",
            16,
        );
        let ga = wg(3, 4, 5);
        let r = f.req(1, 1, ga, 1);
        f.feed(&mut p, r);
        let v = f.view();
        p.pick(&v).unwrap();
        let mut out = Vec::new();
        p.emit_coord(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].wg, ga);
        assert_eq!(out[0].score, 3);
    }

    #[test]
    fn merb_gate_substitutes_row_hits_for_gated_miss() {
        let mut f = Fix::new();
        let mut p = WarpGroupPolicy::new(
            WgFlags {
                coordinate: true,
                merb: true,
                write_aware: false,
                shared_aware: false,
            },
            "WG-Bw",
            16,
        );
        // Bank 0 has row 5 open with only 1 hit serviced so far; MERB for a
        // single busy bank is 31, so a miss is firmly gated.
        f.banks[0].last_scheduled_row = Some(5);
        f.banks[0].hits_since_row_open = 1;
        f.banks[0].busy = true;
        // Selected group: one miss on bank 0 (different row). With the
        // bank's queue score of 6 it scores 9.
        f.banks[0].queue_score = 6;
        let gm = wg(0, 0, 0);
        let r = f.req(0, 9, gm, 1);
        f.feed(&mut p, r);
        // Another group holds 4 hits for the open row, stacking to 10 — so
        // the miss group wins selection, then hits the MERB gate.
        let gh = wg(0, 1, 0);
        for _ in 0..4 {
            let r = f.req(0, 5, gh, 4);
            f.feed(&mut p, r);
        }
        let v = f.view();
        let first = p.pick(&v).unwrap();
        assert_eq!(first.wg, gh, "MERB gate must substitute a pending hit");
        assert_eq!(first.decoded.row, 5);
        assert!(p.merb_substitutions > 0);
    }

    #[test]
    fn merb_orphan_control_flushes_last_two_hits() {
        let mut f = Fix::new();
        let mut p = WarpGroupPolicy::new(
            WgFlags {
                coordinate: false,
                merb: true,
                write_aware: false,
                shared_aware: false,
            },
            "WG-Bw",
            16,
        );
        // Gate is formally open (counter 31 >= any MERB), but 2 hits remain:
        // orphan control services them before the miss.
        f.banks[0].last_scheduled_row = Some(5);
        f.banks[0].hits_since_row_open = 31;
        f.banks[0].busy = true;
        f.banks[0].queue_score = 6;
        let gm = wg(0, 0, 0);
        let r = f.req(0, 9, gm, 1);
        f.feed(&mut p, r);
        let gh = wg(0, 1, 0);
        for _ in 0..2 {
            let r = f.req(0, 5, gh, 2);
            f.feed(&mut p, r);
        }
        let v = f.view();
        let first = p.pick(&v).unwrap();
        assert_eq!(first.decoded.row, 5, "orphan hits must not be stranded");
    }

    #[test]
    fn wgw_prioritises_unit_groups_before_drain() {
        let mut f = Fix::new();
        let mut p = WarpGroupPolicy::new(
            WgFlags {
                coordinate: true,
                merb: true,
                write_aware: true,
                shared_aware: false,
            },
            "WG-W",
            16,
        );
        // Expensive-but-short group would normally lose to a cheap long one;
        // with the write queue 25/32 (within margin 8), the unit group wins.
        f.banks[3].queue_score = 20;
        let unit = wg(0, 0, 0);
        let r = f.req(3, 1, unit, 1);
        let unit_id = r.id;
        f.feed(&mut p, r);
        f.banks[7].last_scheduled_row = Some(2);
        let cheap = wg(0, 1, 0);
        for _ in 0..2 {
            let r = f.req(7, 2, cheap, 2);
            f.feed(&mut p, r);
        }
        f.write_q_len = 25;
        let v = f.view();
        assert_eq!(p.pick(&v).unwrap().id, unit_id);
        assert!(p.wgw_priority_grants > 0);
        // Without drain pressure the cheap group goes first.
        f.write_q_len = 0;
        let v = f.view();
        assert_eq!(p.pick(&v).unwrap().wg, cheap);
    }

    #[test]
    fn remove_group_clears_all_state() {
        let mut f = Fix::new();
        let mut p = plain_wg();
        let ga = wg(0, 0, 0);
        for row in 0..3 {
            let r = f.req(0, row, ga, 3);
            f.feed(&mut p, r);
        }
        let out = p.remove_group(ga);
        assert_eq!(out.len(), 3);
        assert_eq!(p.pending(), 0);
        assert!(!p.has_pending_for_bank(0));
    }

    #[test]
    fn shared_groups_win_score_ties_under_wg_s() {
        let mut f = Fix::new();
        let mut p = WarpGroupPolicy::new(
            WgFlags {
                coordinate: true,
                merb: false,
                write_aware: false,
                shared_aware: true,
            },
            "WG-S",
            16,
        );
        // Two identical-score groups; the second is flagged shared.
        let ga = wg(0, 0, 0);
        let r = f.req(0, 1, ga, 1);
        f.feed(&mut p, r);
        let gb = wg(0, 1, 0);
        let r = f.req(1, 1, gb, 1);
        f.feed(&mut p, r);
        Policy::on_shared(&mut p, gb);
        let v = f.view();
        assert_eq!(p.pick(&v).unwrap().wg, gb, "shared group breaks the tie");
        assert_eq!(p.shared_promotions, 1);
        // Without the flag, sharing notifications are ignored.
        let mut q = plain_wg();
        let r = f.req(0, 1, ga, 1);
        f.feed(&mut q, r);
        let r = f.req(1, 1, gb, 1);
        f.feed(&mut q, r);
        Policy::on_shared(&mut q, gb);
        let v = f.view();
        assert_eq!(
            q.pick(&v).unwrap().wg,
            ga,
            "WG ignores sharing (oldest wins)"
        );
    }

    #[test]
    fn factory_builds_every_kind() {
        let mem = MemConfig::default();
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
            SchedulerKind::WgShared,
            SchedulerKind::ZeroDivergence,
            SchedulerKind::ParBs,
            SchedulerKind::AtlasLite,
        ] {
            let p = make_policy(k, &mem);
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn aging_guard_preempts_sjf() {
        let mut f = Fix::new();
        let mut p = WarpGroupPolicy::with_age_threshold(WgFlags::default(), "WG", 16, 100);
        // An expensive old group...
        f.banks[0].queue_score = 30;
        let old = wg(0, 0, 0);
        let r = f.req(0, 1, old, 1);
        let old_id = r.id;
        f.feed(&mut p, r);
        // ...and a cheap young one.
        let young = wg(0, 1, 0);
        let r = f.req(5, 7, young, 1);
        f.feed(&mut p, r);
        // Young wins under SJF at t=50 (below threshold)...
        let mut v = f.view();
        v.now = 50;
        assert_eq!(p.pick(&v).unwrap().wg, young);
        // ...but once the old group exceeds the age threshold it preempts.
        let r = f.req(5, 7, young, 1);
        f.feed(&mut p, r);
        let mut v = f.view();
        v.now = 500;
        assert_eq!(p.pick(&v).unwrap().id, old_id, "starvation guard");
    }

    #[test]
    fn bypass_pull_keeps_banks_busy_when_active_blocked() {
        let mut f = Fix::new();
        let mut p = plain_wg();
        // Active group targets bank 0 only (cheap: its row is open); bank 0
        // then runs out of command-queue headroom; another group waits on
        // bank 3.
        f.banks[0].last_scheduled_row = Some(1);
        let ga = wg(0, 0, 0);
        for _ in 0..2 {
            let r = f.req(0, 1, ga, 2);
            f.feed(&mut p, r);
        }
        let gb = wg(0, 1, 0);
        let r = f.req(3, 9, gb, 1);
        let idb = r.id;
        f.feed(&mut p, r);
        // First pick selects ga (older, same score class) and takes one req.
        let first = p.pick(&f.view()).unwrap();
        assert_eq!(first.wg, ga);
        // Now bank 0 is full: the transaction slot must not idle.
        f.banks[0].headroom = 0;
        let second = p.pick(&f.view()).unwrap();
        assert_eq!(second.id, idb, "bypass must pull from another group");
        // Active group resumes once headroom returns.
        f.banks[0].headroom = 8;
        assert_eq!(p.pick(&f.view()).unwrap().wg, ga);
    }

    #[test]
    fn bypass_prefers_complete_groups_over_better_scored_incomplete() {
        // Pin the bypass tie-break order: incomplete groups are considered
        // only when NO complete group exists, even when an incomplete group
        // has a strictly better score. (The indexed reimplementation must
        // preserve this two-phase candidate set exactly.)
        let mut f = Fix::new();
        let mut p = plain_wg();
        // Active group: two cheap hits on bank 0.
        f.banks[0].last_scheduled_row = Some(1);
        let ga = wg(0, 0, 0);
        for _ in 0..2 {
            let r = f.req(0, 1, ga, 2);
            f.feed(&mut p, r);
        }
        // Complete group on a congested bank (score 23 = 20 queued + 3).
        f.banks[3].queue_score = 20;
        let gb = wg(0, 1, 0);
        let r = f.req(3, 9, gb, 1);
        let idb = r.id;
        f.feed(&mut p, r);
        // Incomplete group on an idle bank (score 3 — strictly better).
        let gc = wg(0, 2, 0);
        let r = f.req(4, 9, gc, 2); // expects 2 requests, only 1 arrived
        let idc = r.id;
        f.feed(&mut p, r);
        // Drain starts on ga, then bank 0 blocks: bypass must take the
        // COMPLETE group gb despite gc's better score.
        assert_eq!(p.pick(&f.view()).unwrap().wg, ga);
        f.banks[0].headroom = 0;
        assert_eq!(
            p.pick(&f.view()).unwrap().id,
            idb,
            "bypass must prefer complete groups regardless of score"
        );
        // With gb gone, only the incomplete gc remains: the fallback may now
        // (and must) pull from it rather than idle the transaction slot.
        assert_eq!(
            p.pick(&f.view()).unwrap().id,
            idc,
            "bypass falls back to incomplete groups only when none complete"
        );
    }

    #[test]
    fn counters_roundtrip() {
        let mut f = Fix::new();
        let mut p = WarpGroupPolicy::new(
            WgFlags {
                coordinate: true,
                merb: true,
                write_aware: true,
                shared_aware: false,
            },
            "WG-W",
            16,
        );
        let g = wg(0, 0, 0);
        let r = f.req(1, 1, g, 1);
        f.feed(&mut p, r);
        p.pick(&f.view()).unwrap();
        let c = Policy::counters(&p);
        assert_eq!(c[0], 1, "one group selected");
    }

    /// Seeded-loop property test: drive an indexed policy and its
    /// reference-scan twin through the same random operation stream —
    /// arrivals, picks under randomly mutated bank snapshots, picks in the
    /// saturated state where no pending request has command-queue room,
    /// coordination, sharing, group removal, aging — for every combination
    /// of the four WG flags, and require identical picks, identical
    /// counters after every pick, and intact indexes throughout.
    #[test]
    fn indexed_picks_match_reference_scans_under_random_ops() {
        use ldsim_util::StdRng;
        let (mut picks, mut stuck) = (0usize, 0usize);
        for combo in 0u8..16 {
            let flags = WgFlags {
                coordinate: combo & 1 != 0,
                merb: combo & 2 != 0,
                write_aware: combo & 4 != 0,
                shared_aware: combo & 8 != 0,
            };
            for seed in 0u64..3 {
                let mut rng = StdRng::seed_from_u64(0x1D3A ^ (combo as u64) << 8 ^ seed);
                let mut idx = WarpGroupPolicy::with_age_threshold(flags, "idx", 16, 500);
                let mut rf = WarpGroupPolicy::with_age_threshold(flags, "ref", 16, 500);
                rf.reference = true;
                let mut f = Fix::new();
                let mut now: Cycle = 0;
                let mut live: Vec<WarpGroupId> = Vec::new();
                let mut serial = 0u32;
                let same = |idx: &WarpGroupPolicy, rf: &WarpGroupPolicy, step: usize| {
                    assert_eq!(
                        (Policy::counters(idx), idx.shared_promotions),
                        (Policy::counters(rf), rf.shared_promotions),
                        "counters diverged: flags={flags:?} seed={seed} step={step}"
                    );
                };
                for step in 0..600 {
                    match rng.gen_range(0u32..100) {
                        // Arrivals: a fresh group, possibly left incomplete,
                        // possibly completed through upstream absorption.
                        0..=39 => {
                            serial += 1;
                            let g = wg(0, (serial % 7) as u16, serial);
                            let size = rng.gen_range(1u16..=4);
                            let arrive = rng.gen_range(1u16..=size);
                            for _ in 0..arrive {
                                let bank = rng.gen_range(0u8..16);
                                let row = rng.gen_range(0u32..4);
                                let r = f.req(bank, row, g, size);
                                f.groups.on_arrival(&r);
                                idx.on_arrival(r, now);
                                rf.on_arrival(r, now);
                            }
                            if arrive < size && rng.gen_bool(0.5) {
                                for _ in arrive..size {
                                    f.groups.on_absorbed(g, size);
                                }
                            }
                            live.push(g);
                        }
                        // Picks under a randomly perturbed bank view.
                        40..=64 => {
                            perturb_banks(&mut f, &mut rng);
                            let mut v = f.view();
                            v.now = now;
                            picks += 1;
                            stuck += !idx.any_schedulable(&v) as usize;
                            let a = idx.pick(&v);
                            let b = rf.pick(&v);
                            assert_eq!(
                                a.as_ref().map(|r| (r.id, r.wg)),
                                b.as_ref().map(|r| (r.id, r.wg)),
                                "pick diverged: flags={flags:?} seed={seed} step={step}"
                            );
                            same(&idx, &rf, step);
                        }
                        // Saturation, the state most WG-W picks at Full
                        // scale see. A few caps arrive, then several picks
                        // run under the same view.
                        65..=79 => {
                            saturate_banks(&mut f, &mut rng);
                            for _ in 0..rng.gen_range(0usize..4) {
                                if let Some(&g) = live.get(rng.gen_range(0usize..live.len().max(1)))
                                {
                                    let m = CoordMsg {
                                        wg: g,
                                        score: rng.gen_range(0u32..12),
                                    };
                                    idx.on_coord(m, now);
                                    rf.on_coord(m, now);
                                }
                            }
                            f.write_q_len = rng.gen_range(0usize..32);
                            let mut v = f.view();
                            v.now = now;
                            for _ in 0..rng.gen_range(2usize..6) {
                                picks += 1;
                                stuck += !idx.any_schedulable(&v) as usize;
                                let a = idx.pick(&v);
                                let b = rf.pick(&v);
                                assert_eq!(
                                    a.as_ref().map(|r| (r.id, r.wg)),
                                    b.as_ref().map(|r| (r.id, r.wg)),
                                    "saturated pick diverged: flags={flags:?} seed={seed} step={step}"
                                );
                                same(&idx, &rf, step);
                            }
                        }
                        // WG-M coordination from a phantom remote controller.
                        80..=87 => {
                            if let Some(&g) = live.get(rng.gen_range(0usize..live.len().max(1))) {
                                let m = CoordMsg {
                                    wg: g,
                                    score: rng.gen_range(0u32..12),
                                };
                                idx.on_coord(m, now);
                                rf.on_coord(m, now);
                            }
                        }
                        // WG-S sharing notifications.
                        88..=91 => {
                            if let Some(&g) = live.get(rng.gen_range(0usize..live.len().max(1))) {
                                Policy::on_shared(&mut idx, g);
                                Policy::on_shared(&mut rf, g);
                            }
                        }
                        // Zero-divergence-style whole-group removal.
                        92..=94 => {
                            if let Some(&g) = live.get(rng.gen_range(0usize..live.len().max(1))) {
                                let a = idx.remove_group(g);
                                let b = rf.remove_group(g);
                                let ia: Vec<_> = a.iter().map(|r| r.id).collect();
                                let ib: Vec<_> = b.iter().map(|r| r.id).collect();
                                assert_eq!(ia, ib, "remove_group diverged");
                            }
                        }
                        // Time advances (starvation guard engagement).
                        _ => now += rng.gen_range(1u64..400),
                    }
                    assert_eq!(idx.pending(), rf.pending());
                    if step % 37 == 0 {
                        idx.check_index_invariants(&f.groups);
                        rf.check_index_invariants(&f.groups);
                    }
                }
                // Drain both to empty with full headroom and compare tallies.
                for b in 0..16 {
                    f.banks[b].headroom = 8;
                }
                let mut v = f.view();
                v.now = now;
                loop {
                    let a = idx.pick(&v);
                    let b = rf.pick(&v);
                    assert_eq!(
                        a.as_ref().map(|r| r.id),
                        b.as_ref().map(|r| r.id),
                        "drain pick diverged: flags={flags:?} seed={seed}"
                    );
                    if a.is_none() {
                        break;
                    }
                }
                idx.check_index_invariants(&f.groups);
                same(&idx, &rf, 600);
            }
        }
        // The saturated state must be common, not a corner case.
        assert!(
            stuck * 4 >= picks,
            "only {stuck} of {picks} picks found nothing schedulable"
        );
    }

    /// Perturb every bank of the view at random: mostly room for a miss,
    /// sometimes room for a hit at most, rows 0..4 open or none.
    fn perturb_banks(f: &mut Fix, rng: &mut ldsim_util::StdRng) {
        for s in f.banks.iter_mut() {
            s.headroom = if rng.gen_bool(0.2) {
                rng.gen_range(0usize..3)
            } else {
                rng.gen_range(3usize..=8)
            };
            s.queue_score = rng.gen_range(0u32..30);
            s.queue_len = 8 - s.headroom;
            s.busy = s.queue_len > 0;
            s.last_scheduled_row = if rng.gen_bool(0.6) {
                Some(rng.gen_range(0u32..4))
            } else {
                None
            };
            s.hits_since_row_open = rng.gen_range(0u8..32);
        }
        f.write_q_len = rng.gen_range(0usize..32);
    }

    /// Saturate the view: no pending request has command-queue room (a
    /// bank is full, or has room only for a hit on a row no request
    /// targets — requests use rows 0..4), sometimes with one bank reopened
    /// so the bypass walks mostly unschedulable candidates.
    fn saturate_banks(f: &mut Fix, rng: &mut ldsim_util::StdRng) {
        for s in f.banks.iter_mut() {
            if rng.gen_bool(0.5) {
                s.headroom = 0;
            } else {
                s.headroom = rng.gen_range(1usize..3);
                s.last_scheduled_row = Some(rng.gen_range(4u32..8));
            }
            s.queue_score = rng.gen_range(0u32..30);
            s.queue_len = 8 - s.headroom;
            s.busy = true;
            s.hits_since_row_open = rng.gen_range(0u8..32);
        }
        if rng.gen_bool(0.3) {
            let s = &mut f.banks[rng.gen_range(0usize..16)];
            s.headroom = 8;
            s.queue_len = 0;
        }
    }

    /// Drive a policy that always calls `pick` and a twin that calls
    /// `pick_settled` whenever nothing but `now` has changed since its last
    /// `None` (the controller's rule) through one seeded operation stream,
    /// comparing the picks, all four counters, the pending count and the
    /// policy state `state` reads after every operation. Returns the number
    /// of settled picks and how many of them came at or past the memo's
    /// aging deadline (as `expired` reads it off the twin).
    fn settled_twins<P: Policy>(
        mk: &dyn Fn() -> P,
        state: &dyn Fn(&P) -> Option<u64>,
        expired: &dyn Fn(&P, Cycle) -> bool,
        seed: u64,
    ) -> (usize, usize) {
        use ldsim_util::StdRng;
        let mut rng = StdRng::seed_from_u64(0x5E771ED ^ seed);
        let (mut full, mut twin) = (mk(), mk());
        let mut f = Fix::new();
        let mut now: Cycle = 0;
        let mut live: Vec<WarpGroupId> = Vec::new();
        // Groups with members still on their way: (group, size, missing).
        let mut partial: Vec<(WarpGroupId, u16, u16)> = Vec::new();
        let mut serial = 0u32;
        // The twin's last pick found nothing and only `now` has moved since.
        let mut quiet = false;
        let (mut settled, mut past_deadline) = (0usize, 0usize);
        let pick_any = |live: &[WarpGroupId], rng: &mut StdRng| {
            live.get(rng.gen_range(0usize..live.len().max(1))).copied()
        };
        for step in 0..1500 {
            let picks = match rng.gen_range(0u32..100) {
                // Arrivals: a fresh group, possibly left incomplete.
                0..=19 => {
                    serial += 1;
                    let g = wg(0, (serial % 7) as u16, serial);
                    let size = rng.gen_range(1u16..=4);
                    let arrive = rng.gen_range(1u16..=size);
                    for _ in 0..arrive {
                        let (bank, row) = (rng.gen_range(0u8..16), rng.gen_range(0u32..4));
                        let mut r = f.req(bank, row, g, size);
                        r.arrival_cycle = now;
                        f.groups.on_arrival(&r);
                        full.on_arrival(r, now);
                        twin.on_arrival(r, now);
                    }
                    if arrive < size {
                        partial.push((g, size, size - arrive));
                    }
                    live.push(g);
                    quiet = false;
                    0
                }
                // A missing member is absorbed upstream: only the tracker
                // changes.
                20..=27 => {
                    if !partial.is_empty() {
                        let i = rng.gen_range(0usize..partial.len());
                        let (g, size, missing) = &mut partial[i];
                        f.groups.on_absorbed(*g, *size);
                        *missing -= 1;
                        if *missing == 0 {
                            partial.swap_remove(i);
                        }
                        quiet = false;
                    }
                    0
                }
                28..=37 => {
                    perturb_banks(&mut f, &mut rng);
                    quiet = false;
                    1
                }
                38..=49 => {
                    saturate_banks(&mut f, &mut rng);
                    f.write_q_len = rng.gen_range(0usize..32);
                    quiet = false;
                    rng.gen_range(1usize..8)
                }
                // WG-M caps from a phantom remote controller.
                50..=57 => {
                    if let Some(g) = pick_any(&live, &mut rng) {
                        let m = CoordMsg {
                            wg: g,
                            score: rng.gen_range(0u32..12),
                        };
                        full.on_coord(m, now);
                        twin.on_coord(m, now);
                        quiet = false;
                    }
                    0
                }
                58..=59 => {
                    if let Some(g) = pick_any(&live, &mut rng) {
                        full.on_shared(g);
                        twin.on_shared(g);
                        quiet = false;
                    }
                    0
                }
                60..=61 => {
                    if let Some(g) = pick_any(&live, &mut rng) {
                        let a: Vec<_> = full.remove_group(g).iter().map(|r| r.id).collect();
                        let b: Vec<_> = twin.remove_group(g).iter().map(|r| r.id).collect();
                        assert_eq!(a, b, "remove_group diverged: seed={seed} step={step}");
                        quiet = false;
                    }
                    0
                }
                // Only time moves, then the same view is picked again:
                // mostly within the age threshold, sometimes across it.
                62..=84 => {
                    now += rng.gen_range(1u64..60);
                    1
                }
                _ => {
                    now += rng.gen_range(60u64..400);
                    1
                }
            };
            // Repeated picks under one view stand for a stalled stretch:
            // time moves between them.
            for k in 0..picks {
                if k > 0 {
                    now += rng.gen_range(0u64..150);
                }
                let mut v = f.view();
                v.now = now;
                let a = full.pick(&v);
                let b = if quiet {
                    settled += 1;
                    past_deadline += expired(&twin, now) as usize;
                    twin.pick_settled(&v)
                } else {
                    twin.pick(&v)
                };
                assert_eq!(
                    a.as_ref().map(|r| r.id),
                    b.as_ref().map(|r| r.id),
                    "{} pick diverged: seed={seed} step={step}",
                    full.name()
                );
                quiet = b.is_none();
            }
            assert_eq!(
                (full.counters(), full.pending(), state(&full)),
                (twin.counters(), twin.pending(), state(&twin)),
                "{} diverged: seed={seed} step={step}",
                full.name()
            );
        }
        (settled, past_deadline)
    }

    /// Seeded-loop property test of the settled-pick memos: GMC and every
    /// WG flavour run as a full-pick instance and a settled twin
    /// ([`settled_twins`]) under arrivals, upstream absorption, perturbed
    /// and saturated bank views, live WG-M caps, sharing, group removal and
    /// time steps that cross the age threshold. WG twins must also agree on
    /// the active group.
    #[test]
    fn settled_picks_match_full_picks_under_random_ops() {
        let (mut settled, mut past_deadline) = (0usize, 0usize);
        for seed in 0u64..4 {
            let (s, _) = settled_twins(
                &|| ldsim_memctrl::policies::Gmc::new(16, 2000),
                &|_| None,
                &|_, _| false,
                seed,
            );
            assert!(s > 0, "GMC never settled (seed {seed})");
            settled += s;
            for kind in [
                SchedulerKind::Wg,
                SchedulerKind::WgM,
                SchedulerKind::WgBw,
                SchedulerKind::WgW,
                SchedulerKind::WgShared,
            ] {
                let (flags, name) = WgFlags::for_kind(kind).expect("WG flavour");
                let (s, p) = settled_twins(
                    &|| WarpGroupPolicy::with_age_threshold(flags, name, 16, 2000),
                    &|p| p.active,
                    &|p, now| p.settled.is_some_and(|m| now >= m.until),
                    seed,
                );
                assert!(s > 0, "{name} never settled (seed {seed})");
                settled += s;
                past_deadline += p;
            }
        }
        eprintln!("settled picks {settled}, past the aging deadline {past_deadline}");
        assert!(
            past_deadline > 0,
            "no settled pick crossed the age threshold ({settled} settled picks)"
        );
    }

    #[test]
    fn headroom_is_respected_within_group() {
        let mut f = Fix::new();
        let mut p = plain_wg();
        let ga = wg(0, 0, 0);
        // Two requests: bank 0 has no headroom, bank 1 full headroom.
        let r = f.req(0, 1, ga, 2);
        f.feed(&mut p, r);
        let r = f.req(1, 1, ga, 2);
        let ok_id = r.id;
        f.feed(&mut p, r);
        f.banks[0].headroom = 0;
        let v = f.view();
        assert_eq!(p.pick(&v).unwrap().id, ok_id);
        // The remaining request cannot be scheduled at all right now.
        let v = f.view();
        assert!(p.pick(&v).is_none());
        assert_eq!(p.pending(), 1);
    }
}
