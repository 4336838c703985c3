//! The transaction-scheduler policy interface.
//!
//! A [`Policy`] owns the *read* requests waiting at one controller and is
//! asked to pick the next request to expand into DRAM commands on every
//! read-mode cycle (no refresh, no write drain) while it holds requests —
//! whether or not any bank has command-queue headroom, so most picks on a
//! congested channel return nothing. The [`PolicyView`] gives it
//! the controller-side state the paper's schedulers consult: per-bank
//! last-scheduled rows, command-queue scores (the Bank Table of
//! Section IV-B.2), the MERB counters (Section IV-D), the write-queue
//! occupancy (Section IV-E) and the warp-group arrival tracker. A pick
//! whose inputs have not changed since it last found nothing goes to
//! [`Policy::pick_settled`] instead.

use crate::group::GroupTracker;
use ldsim_gddr5::MerbTable;
use ldsim_types::addr::DecodedAddr;
use ldsim_types::clock::Cycle;
use ldsim_types::ids::WarpGroupId;
use ldsim_types::req::MemRequest;

/// DRAM-array-latency score of a row-hit request (Section IV-B.1: tCAS-only,
/// 12 ns).
pub const SCORE_HIT: u32 = 1;
/// Score of a row-miss request (tRP + tRCD + tCAS, 36 ns — 3x a hit).
pub const SCORE_MISS: u32 = 3;

/// Per-bank controller state exposed to policies: one entry of the
/// controller's Bank Table, which it keeps in place as commands are queued
/// and issued.
#[derive(Debug, Clone, Copy, Default)]
pub struct BankSnapshot {
    /// Row that will be open once the already-queued commands drain — the
    /// row a newly scheduled request will find (Section IV-B.1: "whether the
    /// last request scheduled in that bank has a matching row-address").
    pub last_scheduled_row: Option<u32>,
    /// Sum of the scores of requests already sitting in this bank's command
    /// queue — the queuing-latency component of the Bank Table score.
    pub queue_score: u32,
    /// Number of command-queue entries in use.
    pub queue_len: usize,
    /// Command-queue slots still free.
    pub headroom: usize,
    /// Row-hit column commands scheduled since this bank's row last changed
    /// (the 5-bit MERB counter).
    pub hits_since_row_open: u8,
    /// Does the bank have any pending work (queued commands)?
    pub busy: bool,
}

/// Everything a policy may look at when picking a transaction.
pub struct PolicyView<'a> {
    pub now: Cycle,
    pub banks: &'a [BankSnapshot],
    /// Warp-group arrival bookkeeping (complete / partially served groups).
    pub groups: &'a GroupTracker,
    /// Current write-queue occupancy and the drain high watermark, for the
    /// WG-W policy (Section IV-E).
    pub write_q_len: usize,
    pub write_hi: usize,
    /// Entries of slack before the high watermark at which WG-W engages.
    pub wgw_margin: usize,
    /// The boot-time MERB table (Section IV-D).
    pub merb: &'a MerbTable,
}

impl<'a> PolicyView<'a> {
    /// Would `d` be a row-buffer hit if scheduled now (against the
    /// last-scheduled row of its bank)?
    #[inline]
    pub fn is_hit(&self, d: &DecodedAddr) -> bool {
        self.banks[d.bank.0 as usize].last_scheduled_row == Some(d.row)
    }

    /// DRAM-array score of a request (hit = 1, miss = 3).
    #[inline]
    pub fn array_score(&self, d: &DecodedAddr) -> u32 {
        if self.is_hit(d) {
            SCORE_HIT
        } else {
            SCORE_MISS
        }
    }

    /// Bank-Table score of one request: array score plus the queuing score
    /// of everything already in its bank's command queue.
    #[inline]
    pub fn request_score(&self, d: &DecodedAddr) -> u32 {
        self.array_score(d) + self.banks[d.bank.0 as usize].queue_score
    }

    /// Is there command-queue headroom to schedule `d` (3 slots for a miss —
    /// PRE + ACT + column — or 1 for a hit)?
    #[inline]
    pub fn headroom_ok(&self, d: &DecodedAddr) -> bool {
        let need = if self.is_hit(d) { 1 } else { 3 };
        self.banks[d.bank.0 as usize].headroom >= need
    }

    /// Number of banks with pending work, counting both queued commands and
    /// the policy's own waiting requests (the caller supplies a per-bank
    /// pending mask). This indexes the MERB table.
    pub fn banks_with_work(&self, policy_pending: impl Fn(usize) -> bool) -> usize {
        self.banks
            .iter()
            .enumerate()
            .filter(|(i, b)| b.busy || policy_pending(*i))
            .count()
    }

    /// Is the write queue close enough to its high watermark that a drain is
    /// imminent (the WG-W trigger)?
    #[inline]
    pub fn drain_imminent(&self) -> bool {
        self.write_q_len + self.wgw_margin >= self.write_hi
    }
}

/// A score-coordination message exchanged between controllers on the
/// dedicated all-to-all network (Section IV-C): the selected warp-group and
/// its expected local completion score at the sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoordMsg {
    pub wg: WarpGroupId,
    pub score: u32,
}

/// A transaction-scheduling policy. One instance lives in each controller
/// and owns the read requests waiting there.
pub trait Policy: Send {
    /// Display name, matching the paper's scheme labels.
    fn name(&self) -> &'static str;

    /// A read request entered the read queue.
    fn on_arrival(&mut self, req: MemRequest, now: Cycle);

    /// Number of requests waiting.
    fn pending(&self) -> usize;

    /// Pick (and remove) the next request to expand into commands. Must
    /// only return a request whose bank has command-queue headroom
    /// ([`PolicyView::headroom_ok`]); returning `None` leaves the command
    /// slot idle this cycle.
    fn pick(&mut self, view: &PolicyView<'_>) -> Option<MemRequest>;

    /// [`Self::pick`] for a settled view: the controller calls this instead
    /// when this policy's last pick returned `None` and nothing a pick can
    /// see has changed since, except `view.now`. "Nothing" means no write to
    /// the bank table, the group tracker or the write-queue occupancy, and
    /// no call into the policy other than `pick`, `pick_settled`,
    /// `emit_coord` and the read-only queries (DESIGN.md §13).
    ///
    /// It must return what `pick` would return and leave the same state and
    /// counters behind, but may reach that answer more cheaply from what
    /// the last pick found. The default calls `pick`.
    fn pick_settled(&mut self, view: &PolicyView<'_>) -> Option<MemRequest> {
        self.pick(view)
    }

    /// Remove and return every pending request of `wg` (used by the
    /// zero-divergence fast-track path).
    fn remove_group(&mut self, wg: WarpGroupId) -> Vec<MemRequest>;

    /// Deliver a coordination message from another controller (WG-M).
    fn on_coord(&mut self, _msg: CoordMsg, _now: Cycle) {}

    /// Notification that another warp now waits on one of `wg`'s in-flight
    /// lines (an L2 MSHR merge across warps) — the sharing signal of the
    /// paper's future-work extension (Section VIII). Default: ignored.
    fn on_shared(&mut self, _wg: WarpGroupId) {}

    /// Drain coordination messages this policy wants broadcast (WG-M).
    fn emit_coord(&mut self, _out: &mut Vec<CoordMsg>) {}

    /// If true, the controller routes *write* requests into the policy too
    /// and disables batch write draining (SBWAS interleaves writes with
    /// reads; Section VI-C.1).
    fn wants_writes(&self) -> bool {
        false
    }

    /// Does this bank index have requests pending in the policy? Used for
    /// the MERB bank-occupancy count.
    fn has_pending_for_bank(&self, bank: usize) -> bool;

    /// Diagnostic counters: (groups selected, MERB substitutions, WG-W
    /// priority grants, coordination caps applied — the times a WG-M
    /// remote cap lowered the score of a group being scored, in picks that
    /// return nothing too). Zero for policies without these mechanisms.
    fn counters(&self) -> [u64; 4] {
        [0; 4]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldsim_types::clock::ClockDomain;
    use ldsim_types::config::TimingParams;
    use ldsim_types::ids::{BankId, ChannelId};

    fn view_fixture(banks: &[BankSnapshot], groups: &GroupTracker, merb: &MerbTable) {
        let v = PolicyView {
            now: 0,
            banks,
            groups,
            write_q_len: 25,
            write_hi: 32,
            wgw_margin: 8,
            merb,
        };
        assert!(v.drain_imminent());
        let d = DecodedAddr {
            channel: ChannelId(0),
            bank: BankId(0),
            bank_group: 0,
            row: 7,
            col: 0,
        };
        assert!(v.is_hit(&d));
        assert_eq!(v.array_score(&d), SCORE_HIT);
        assert_eq!(v.request_score(&d), SCORE_HIT + 5);
        assert!(v.headroom_ok(&d));
        let miss = DecodedAddr { row: 9, ..d };
        assert_eq!(v.array_score(&miss), SCORE_MISS);
        assert!(!v.headroom_ok(&miss), "miss needs 3 slots, only 2 free");
        assert_eq!(v.banks_with_work(|i| i == 3), 2);
    }

    #[test]
    fn view_helpers() {
        let mut banks = vec![BankSnapshot::default(); 16];
        banks[0] = BankSnapshot {
            last_scheduled_row: Some(7),
            queue_score: 5,
            queue_len: 6,
            headroom: 2,
            hits_since_row_open: 3,
            busy: true,
        };
        let groups = GroupTracker::default();
        let merb = MerbTable::from_timing(&TimingParams::default(), ClockDomain::GDDR5, 16);
        view_fixture(&banks, &groups, &merb);
    }
}
