//! One GDDR5 channel: 16 banks in 4 bank groups sharing a command bus and a
//! 64-bit data bus.
//!
//! Channel-global constraints enforced here, on top of the per-bank windows
//! of [`crate::bank::Bank`]:
//!
//! * **tRRD** — minimum spacing between ACTs to *any* two banks;
//! * **tFAW** — at most four ACTs in any rolling tFAW window;
//! * **tCCDL / tCCDS** — column-command spacing, longer within a bank group
//!   than across groups (the GDDR5 bank-group architecture of Section II-B);
//! * **data-bus occupancy** — each column command owns the bus for tBURST
//!   cycles, offset by tCAS (reads) or tWL (writes);
//! * **tWTR** — write-data-to-read-command turnaround;
//! * **read→write turnaround** — a write burst may not chase a read burst
//!   closer than tRTRS on the bus.

use crate::audit::{CmdEvent, CmdKind, TimingAuditor, Violation};
use crate::bank::Bank;
use ldsim_types::clock::Cycle;
use ldsim_types::config::{MemConfig, TimingCycles};
use ldsim_types::ids::BankId;
use ldsim_types::stats::Histogram;

/// A DRAM command, as placed in per-bank command queues by the transaction
/// scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    Act {
        bank: BankId,
        row: u32,
    },
    Pre {
        bank: BankId,
    },
    /// Column read; `req` is an opaque tag the controller uses to route the
    /// completion back to the originating request.
    Read {
        bank: BankId,
        req: u64,
    },
    Write {
        bank: BankId,
        req: u64,
    },
}

impl Command {
    pub fn bank(&self) -> BankId {
        match *self {
            Command::Act { bank, .. }
            | Command::Pre { bank }
            | Command::Read { bank, .. }
            | Command::Write { bank, .. } => bank,
        }
    }
}

/// Counters the channel maintains; the source of Fig. 11 (bandwidth
/// utilisation) and the Section VI-B power inputs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChannelStats {
    pub acts: u64,
    pub pres: u64,
    pub reads: u64,
    pub writes: u64,
    /// Cycles the data bus carried data.
    pub data_bus_busy: u64,
    /// All-bank refreshes performed.
    pub refreshes: u64,
    /// Column accesses that required a PRE+ACT first (counted at ACT; the
    /// remaining column accesses are row hits).
    pub row_misses: u64,
    /// Bus-only reads issued by the zero-divergence ideal model; excluded
    /// from the row-hit-rate statistic but included in bus utilisation.
    pub fast_reads: u64,
}

impl ChannelStats {
    /// Row-buffer hit rate: every ACT corresponds to exactly one column
    /// access that missed; everything else streamed from an open row.
    pub fn row_hit_rate(&self) -> f64 {
        let col = self.reads + self.writes;
        if col == 0 {
            0.0
        } else {
            1.0 - (self.acts.min(col) as f64 / col as f64)
        }
    }

    /// Column accesses that hit the open row.
    pub fn row_hits(&self) -> u64 {
        (self.reads + self.writes).saturating_sub(self.acts)
    }

    pub fn utilization(&self, elapsed: Cycle) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.data_bus_busy as f64 / elapsed as f64
        }
    }
}

/// One GDDR5 channel device.
#[derive(Debug, Clone)]
pub struct Channel {
    pub banks: Vec<Bank>,
    t: TimingCycles,
    banks_per_group: usize,
    /// Data bursts per column access (2 for 128 B lines on a 64-bit bus).
    bursts: u64,
    /// Cycle of the most recent ACT to any bank (tRRD).
    last_act: Option<Cycle>,
    /// Rolling window of the last four ACT cycles (tFAW).
    act_window: [Cycle; 4],
    act_window_len: usize,
    /// Earliest cycle the data bus is free again.
    bus_free: Cycle,
    /// End cycle of the most recent *read* data burst (read→write turnaround).
    last_read_data_end: Cycle,
    /// End cycle of the most recent *write* data burst (tWTR).
    last_write_data_end: Cycle,
    /// (cycle, bank group) of the most recent column command (tCCDL/tCCDS).
    last_col: Option<(Cycle, u8)>,
    /// Next cycle an all-bank refresh falls due (tREFI cadence).
    next_refresh: Cycle,
    pub stats: ChannelStats,
    /// Independent protocol conformance checker (None = zero cost).
    auditor: Option<Box<TimingAuditor>>,
    /// Structured command log for the event tracer (None = zero cost).
    cmd_log: Option<Vec<CmdEvent>>,
    /// Row-hit streak length distribution, one sample per row closure
    /// (None = zero cost). Observation-only: never read back by the
    /// scheduler, so arming it cannot perturb timing.
    streak_hist: Option<Box<Histogram>>,
}

impl Channel {
    pub fn new(mem: &MemConfig, t: TimingCycles) -> Self {
        Self {
            banks: vec![Bank::default(); mem.banks_per_channel],
            t,
            banks_per_group: mem.banks_per_group,
            bursts: mem.bursts_per_access.max(1),
            last_act: None,
            act_window: [0; 4],
            act_window_len: 0,
            bus_free: 0,
            last_read_data_end: 0,
            last_write_data_end: 0,
            last_col: None,
            next_refresh: t.t_refi,
            stats: ChannelStats::default(),
            auditor: None,
            cmd_log: None,
            streak_hist: None,
        }
    }

    /// Attach the independent [`TimingAuditor`]: every subsequently issued
    /// command is re-validated by a second state machine (release builds
    /// included — the channel's own checks are `debug_assert!`s).
    pub fn enable_audit(&mut self) {
        self.auditor = Some(Box::new(TimingAuditor::from_parts(
            self.banks.len(),
            self.banks_per_group,
            self.bursts,
            self.t,
        )));
    }

    /// Start recording every issued command into a structured log.
    pub fn enable_cmd_log(&mut self) {
        self.cmd_log = Some(Vec::new());
    }

    /// Start recording the row-hit streak length (bursts served per
    /// activate) of every row the channel closes.
    pub fn enable_streak_hist(&mut self) {
        self.streak_hist = Some(Box::new(Histogram::latency()));
    }

    /// The recorded row-hit streak distribution (None if recording is off).
    /// Call [`Self::flush_streak_hist`] first to include still-open rows.
    pub fn streak_hist(&self) -> Option<&Histogram> {
        self.streak_hist.as_deref()
    }

    /// Record the streaks of rows still open at end of run, which never saw
    /// the closing PRE that normally samples them. Idempotent per open row
    /// only if called once — call exactly once, at collection.
    pub fn flush_streak_hist(&mut self) {
        let Some(h) = self.streak_hist.as_deref_mut() else {
            return;
        };
        for b in &self.banks {
            if b.is_open() {
                h.add(b.hits_since_act as u64);
            }
        }
    }

    /// Violations the auditor has flagged so far (None if auditing is off).
    pub fn audit_violations(&self) -> Option<&[Violation]> {
        self.auditor.as_deref().map(|a| a.violations())
    }

    /// Total violation count (0 if auditing is off).
    pub fn audit_violation_count(&self) -> u64 {
        self.auditor.as_deref().map_or(0, |a| a.violation_count())
    }

    /// Commands the auditor has observed (0 if auditing is off).
    pub fn audit_observed(&self) -> u64 {
        self.auditor.as_deref().map_or(0, |a| a.observed())
    }

    /// Take the recorded command log (empty if logging is off). Logging
    /// continues; only the accumulated events are moved out.
    pub fn take_cmd_log(&mut self) -> Vec<CmdEvent> {
        self.cmd_log
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Feed one command to the auditor and/or log. The `Option` dance keeps
    /// the disabled path to two branch-on-None tests.
    #[inline]
    fn observe(&mut self, kind: CmdKind, bank: u8, row: u32, cycle: Cycle) {
        if self.auditor.is_none() && self.cmd_log.is_none() {
            return;
        }
        let ev = CmdEvent {
            cycle,
            kind,
            bank,
            row,
        };
        if let Some(a) = self.auditor.as_deref_mut() {
            a.observe(&ev);
        }
        if let Some(log) = self.cmd_log.as_mut() {
            log.push(ev);
        }
    }

    #[inline]
    pub fn timing(&self) -> &TimingCycles {
        &self.t
    }

    #[inline]
    pub fn bank(&self, b: BankId) -> &Bank {
        &self.banks[b.0 as usize]
    }

    /// The bank group `b` belongs to.
    #[inline]
    pub fn group_of(&self, b: BankId) -> u8 {
        (b.0 as usize / self.banks_per_group) as u8
    }

    /// Minimum spacing from the previous column command to one issued now
    /// targeting bank group `group` (tCCDL within the same bank group,
    /// tCCDS across).
    #[inline]
    fn col_ready(&self, group: u8) -> Cycle {
        match self.last_col {
            None => 0,
            Some((cyc, grp)) => {
                let gap = if grp == group {
                    self.t.t_ccdl
                } else {
                    self.t.t_ccds
                };
                cyc + gap
            }
        }
    }

    /// Is an ACT to `bank` for any row legal at `now`?
    pub fn can_act(&self, bank: BankId, now: Cycle) -> bool {
        let b = self.bank(bank);
        if b.is_open() || now < b.act_ready {
            return false;
        }
        if let Some(last) = self.last_act {
            if now < last + self.t.t_rrd {
                return false;
            }
        }
        // tFAW: the 4th-most-recent ACT must be at least tFAW ago.
        if self.act_window_len == 4 && now < self.act_window[0] + self.t.t_faw {
            return false;
        }
        true
    }

    /// Is a PRE to `bank` legal at `now`?
    pub fn can_pre(&self, bank: BankId, now: Cycle) -> bool {
        let b = self.bank(bank);
        b.is_open() && now >= b.pre_ready
    }

    /// Is a column READ on `bank`'s open row legal at `now`?
    pub fn can_read(&self, bank: BankId, now: Cycle) -> bool {
        let b = self.bank(bank);
        if !b.is_open() || now < b.rd_ready {
            return false;
        }
        if now < self.col_ready(self.group_of(bank)) {
            return false;
        }
        // tWTR: read command must wait after the last write data burst ends.
        if now < self.last_write_data_end + self.t.t_wtr {
            return false;
        }
        // Data bus must be free when this read's burst starts.
        now + self.t.t_cas >= self.bus_free
    }

    /// Is a column WRITE on `bank`'s open row legal at `now`?
    pub fn can_write(&self, bank: BankId, now: Cycle) -> bool {
        let b = self.bank(bank);
        if !b.is_open() || now < b.wr_ready {
            return false;
        }
        if now < self.col_ready(self.group_of(bank)) {
            return false;
        }
        // Read→write: the write burst must trail the last read burst by the
        // rank-to-rank/turnaround gap.
        if now + self.t.t_wl < self.last_read_data_end + self.t.t_rtrs {
            return false;
        }
        now + self.t.t_wl >= self.bus_free
    }

    /// Check legality of any command.
    pub fn can_issue(&self, cmd: &Command, now: Cycle) -> bool {
        match *cmd {
            Command::Act { bank, .. } => self.can_act(bank, now),
            Command::Pre { bank } => self.can_pre(bank, now),
            Command::Read { bank, .. } => self.can_read(bank, now),
            Command::Write { bank, .. } => self.can_write(bank, now),
        }
    }

    /// Issue an ACT. Caller must have checked [`Self::can_act`].
    pub fn issue_act(&mut self, bank: BankId, row: u32, now: Cycle) {
        debug_assert!(self.can_act(bank, now));
        self.observe(CmdKind::Act, bank.0, row, now);
        self.banks[bank.0 as usize].do_act(now, row, &self.t);
        self.last_act = Some(now);
        if self.act_window_len == 4 {
            self.act_window.copy_within(1..4, 0);
            self.act_window[3] = now;
        } else {
            self.act_window[self.act_window_len] = now;
            self.act_window_len += 1;
        }
        self.stats.acts += 1;
        self.stats.row_misses += 1;
    }

    /// Issue a PRE. Caller must have checked [`Self::can_pre`].
    pub fn issue_pre(&mut self, bank: BankId, now: Cycle) {
        debug_assert!(self.can_pre(bank, now));
        self.observe(CmdKind::Pre, bank.0, 0, now);
        if let Some(h) = self.streak_hist.as_deref_mut() {
            // A PRE closes the row, ending its hit streak: sample the
            // bursts-per-activate counter before do_pre freezes it.
            h.add(self.banks[bank.0 as usize].hits_since_act as u64);
        }
        self.banks[bank.0 as usize].do_pre(now, &self.t);
        self.stats.pres += 1;
    }

    /// Issue a column READ; returns the cycle the data burst completes (the
    /// request's DRAM completion time). Caller must have checked
    /// [`Self::can_read`].
    pub fn issue_read(&mut self, bank: BankId, now: Cycle) -> Cycle {
        debug_assert!(self.can_read(bank, now));
        self.observe(CmdKind::Read, bank.0, 0, now);
        self.banks[bank.0 as usize].do_read(now, &self.t, self.bursts as u8);
        let data_start = now + self.t.t_cas;
        let data_end = data_start + self.t.t_burst * self.bursts;
        self.bus_free = data_end;
        self.last_read_data_end = data_end;
        self.last_col = Some((now, self.group_of(bank)));
        self.stats.reads += 1;
        self.stats.data_bus_busy += self.t.t_burst * self.bursts;
        data_end
    }

    /// Issue a column WRITE; returns the cycle the data burst completes.
    /// Caller must have checked [`Self::can_write`].
    pub fn issue_write(&mut self, bank: BankId, now: Cycle) -> Cycle {
        debug_assert!(self.can_write(bank, now));
        self.observe(CmdKind::Write, bank.0, 0, now);
        self.banks[bank.0 as usize].do_write(now, &self.t, self.bursts as u8);
        let data_start = now + self.t.t_wl;
        let data_end = data_start + self.t.t_burst * self.bursts;
        self.bus_free = data_end;
        self.last_write_data_end = data_end;
        self.last_col = Some((now, self.group_of(bank)));
        self.stats.writes += 1;
        self.stats.data_bus_busy += self.t.t_burst * self.bursts;
        data_end
    }

    /// Issue any command; returns the data completion cycle for column
    /// commands.
    pub fn issue(&mut self, cmd: &Command, now: Cycle) -> Option<Cycle> {
        match *cmd {
            Command::Act { bank, row } => {
                self.issue_act(bank, row, now);
                None
            }
            Command::Pre { bank } => {
                self.issue_pre(bank, now);
                None
            }
            Command::Read { bank, .. } => Some(self.issue_read(bank, now)),
            Command::Write { bank, .. } => Some(self.issue_write(bank, now)),
        }
    }

    /// Earliest cycle `cmd` becomes legal, assuming no other command is
    /// issued in between ([`Cycle::MAX`] when the bank is in the wrong
    /// row-buffer state, e.g. ACT to an open bank). This is the exact
    /// inverse of [`Self::can_issue`]: for any returned `r < Cycle::MAX`,
    /// `can_issue(cmd, t)` is false for `t < r` and true at `t == r`.
    ///
    /// It is the later of two parts that change at different times: the
    /// bank-local [`Self::bank_ready`], which only a command to that bank
    /// (or a refresh) moves, and the channel-wide floor of the command's
    /// class ([`Self::act_floor`], [`Self::read_floor`],
    /// [`Self::write_floor`]; none for PRE), which every issued command and
    /// fast read may move.
    pub fn ready_cycle(&self, cmd: &Command) -> Cycle {
        let floor = match *cmd {
            Command::Act { .. } => self.act_floor(),
            Command::Pre { .. } => 0,
            Command::Read { bank, .. } => self.read_floor(self.group_of(bank)),
            Command::Write { bank, .. } => self.write_floor(self.group_of(bank)),
        };
        self.bank_ready(cmd).max(floor)
    }

    /// Bank-local part of [`Self::ready_cycle`]: the command's
    /// `Bank::*_ready_at`, or [`Cycle::MAX`] when the bank's row-buffer
    /// state forbids it.
    #[inline]
    pub fn bank_ready(&self, cmd: &Command) -> Cycle {
        let b = self.bank(cmd.bank());
        match *cmd {
            Command::Act { .. } => b.act_ready_at(),
            Command::Pre { .. } => b.pre_ready_at(),
            Command::Read { .. } => b.rd_ready_at(),
            Command::Write { .. } => b.wr_ready_at(),
        }
        .unwrap_or(Cycle::MAX)
    }

    /// Channel-wide floor of an ACT: tRRD and tFAW.
    #[inline]
    pub fn act_floor(&self) -> Cycle {
        let mut r = self.last_act.map_or(0, |last| last + self.t.t_rrd);
        if self.act_window_len == 4 {
            r = r.max(self.act_window[0] + self.t.t_faw);
        }
        r
    }

    /// Channel-wide floor of a column READ to bank group `group`:
    /// tCCDL/tCCDS, tWTR and the data bus.
    #[inline]
    pub fn read_floor(&self, group: u8) -> Cycle {
        self.col_ready(group)
            .max(self.last_write_data_end + self.t.t_wtr)
            .max(self.bus_free.saturating_sub(self.t.t_cas))
    }

    /// Channel-wide floor of a column WRITE to bank group `group`:
    /// tCCDL/tCCDS, the read-to-write turnaround (tRTRS) and the data bus.
    #[inline]
    pub fn write_floor(&self, group: u8) -> Cycle {
        self.col_ready(group)
            .max((self.last_read_data_end + self.t.t_rtrs).saturating_sub(self.t.t_wl))
            .max(self.bus_free.saturating_sub(self.t.t_wl))
    }

    /// Earliest cycle [`Self::try_fast_read`] would succeed.
    #[inline]
    pub fn fast_read_ready(&self) -> Cycle {
        self.bus_free.saturating_sub(self.t.t_cas)
    }

    /// Next cycle an all-bank refresh falls due.
    #[inline]
    pub fn next_refresh(&self) -> Cycle {
        self.next_refresh
    }

    /// Is an all-bank refresh due (tREFI elapsed since the last one)?
    pub fn refresh_due(&self, now: Cycle) -> bool {
        now >= self.next_refresh
    }

    /// Can REFab issue now? Requires every bank precharged and past its
    /// activate-ready point (tRP from the closing precharges).
    pub fn can_refresh(&self, now: Cycle) -> bool {
        self.banks
            .iter()
            .all(|b| !b.is_open() && now >= b.act_ready)
    }

    /// Issue an all-bank refresh: every bank is unavailable for tRFC.
    pub fn issue_refresh(&mut self, now: Cycle) {
        debug_assert!(self.can_refresh(now));
        self.observe(CmdKind::RefAb, 0, 0, now);
        for b in &mut self.banks {
            b.act_ready = b.act_ready.max(now + self.t.t_rfc);
        }
        self.next_refresh = now + self.t.t_refi;
        self.stats.refreshes += 1;
    }

    /// Number of banks with an open row.
    pub fn open_banks(&self) -> usize {
        self.banks.iter().filter(|b| b.is_open()).count()
    }

    /// Zero-divergence ideal model (Fig. 4): a "bus-only" read that bypasses
    /// all bank timing but still occupies the data bus for tBURST cycles —
    /// the paper's model "abstracts away the bank conflicts for all but one
    /// request for each warp, but still faithfully models DRAM bus bandwidth
    /// and contention". Returns the data-end cycle if the bus slot is free.
    pub fn try_fast_read(&mut self, now: Cycle) -> Option<Cycle> {
        if now + self.t.t_cas < self.bus_free {
            return None;
        }
        self.observe(CmdKind::FastRead, 0, 0, now);
        let data_start = now + self.t.t_cas;
        let data_end = data_start + self.t.t_burst * self.bursts;
        self.bus_free = data_end;
        self.last_read_data_end = data_end;
        self.stats.fast_reads += 1;
        self.stats.data_bus_busy += self.t.t_burst * self.bursts;
        Some(data_end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldsim_types::clock::ClockDomain;
    use ldsim_types::config::TimingParams;

    /// Single-burst channel: isolates the command-protocol constraints from
    /// data-bus occupancy in the spacing tests below.
    fn ch() -> Channel {
        let mem = MemConfig {
            bursts_per_access: 1,
            ..MemConfig::default()
        };
        let t = TimingParams::default().in_cycles(ClockDomain::GDDR5);
        Channel::new(&mem, t)
    }

    /// Default (two-burst) channel, as the full system runs it.
    fn ch2() -> Channel {
        let mem = MemConfig::default();
        let t = TimingParams::default().in_cycles(ClockDomain::GDDR5);
        Channel::new(&mem, t)
    }

    #[test]
    fn trrd_spaces_activates() {
        let mut c = ch();
        let t = *c.timing();
        c.issue_act(BankId(0), 1, 0);
        assert!(!c.can_act(BankId(1), t.t_rrd - 1));
        assert!(c.can_act(BankId(1), t.t_rrd));
    }

    #[test]
    fn tfaw_limits_four_acts() {
        // With the default GDDR5 numbers, cycle rounding makes 4*tRRD (36)
        // slightly exceed tFAW (35), so widen tFAW to make the four-activate
        // window clearly binding and check the rolling-window logic.
        let mem = MemConfig::default();
        let tp = TimingParams {
            t_faw_ns: 60.0, // 90 cycles
            ..TimingParams::default()
        };
        let t = tp.in_cycles(ClockDomain::GDDR5);
        let mut c = Channel::new(&mem, t);
        let mut now = 0;
        for b in 0..4u8 {
            while !c.can_act(BankId(b), now) {
                now += 1;
            }
            c.issue_act(BankId(b), 1, now);
        }
        // 4 ACTs issued at 0, tRRD, 2tRRD, 3tRRD; the 5th must wait for the
        // first ACT + tFAW even though tRRD has long elapsed.
        let now5 = now + t.t_rrd;
        assert!(now5 < t.t_faw, "test assumes tFAW binds");
        assert!(!c.can_act(BankId(4), now5));
        assert!(c.can_act(BankId(4), t.t_faw));
        // After the fifth ACT the window slides: the sixth is limited by the
        // ACT at tRRD (index 1), not the one at 0.
        c.issue_act(BankId(4), 1, t.t_faw);
        assert!(!c.can_act(BankId(5), t.t_rrd + t.t_faw - 1));
        assert!(c.can_act(BankId(5), t.t_rrd + t.t_faw));
    }

    #[test]
    fn read_needs_trcd_after_act() {
        let mut c = ch();
        let t = *c.timing();
        c.issue_act(BankId(2), 9, 10);
        assert!(!c.can_read(BankId(2), 10 + t.t_rcd - 1));
        assert!(c.can_read(BankId(2), 10 + t.t_rcd));
        let done = c.issue_read(BankId(2), 10 + t.t_rcd);
        assert_eq!(done, 10 + t.t_rcd + t.t_cas + t.t_burst);
    }

    #[test]
    fn bank_group_column_spacing() {
        let mut c = ch();
        let t = *c.timing();
        // Open rows in bank 0 (group 0) and banks 1 (group 0) and 4 (group 1).
        let mut now = 0;
        for b in [0u8, 1, 4] {
            while !c.can_act(BankId(b), now) {
                now += 1;
            }
            c.issue_act(BankId(b), 1, now);
        }
        let mut rd = now + t.t_rcd;
        while !c.can_read(BankId(0), rd) {
            rd += 1;
        }
        c.issue_read(BankId(0), rd);
        // Same group (bank 1): must wait tCCDL; different group (bank 4):
        // tCCDS suffices.
        assert!(!c.can_read(BankId(1), rd + t.t_ccds));
        assert!(c.can_read(BankId(4), rd + t.t_ccds));
        assert!(c.can_read(BankId(1), rd + t.t_ccdl));
    }

    #[test]
    fn wtr_turnaround_blocks_read_after_write() {
        let mut c = ch();
        let t = *c.timing();
        c.issue_act(BankId(0), 1, 0);
        let wr = t.t_rcd;
        let wr_end = c.issue_write(BankId(0), wr);
        assert_eq!(wr_end, wr + t.t_wl + t.t_burst);
        // A read command must wait until write-data-end + tWTR.
        assert!(!c.can_read(BankId(0), wr_end + t.t_wtr - 1));
        assert!(c.can_read(BankId(0), wr_end + t.t_wtr));
    }

    #[test]
    fn data_bus_serialises_bursts() {
        let mut c = ch();
        let t = *c.timing();
        let mut now = 0;
        for b in [0u8, 4] {
            while !c.can_act(BankId(b), now) {
                now += 1;
            }
            c.issue_act(BankId(b), 1, now);
        }
        let rd1 = now + t.t_rcd;
        let end1 = c.issue_read(BankId(0), rd1);
        // A second read whose burst would start before end1 is illegal...
        let too_soon = end1 - t.t_cas - 1;
        if too_soon > rd1 + t.t_ccds {
            assert!(!c.can_read(BankId(4), too_soon));
        }
        // ...but one aligning exactly with end1 is fine.
        let ok_at = end1 - t.t_cas;
        assert!(c.can_read(BankId(4), ok_at.max(rd1 + t.t_ccds)));
    }

    #[test]
    fn stats_accumulate() {
        let mut c = ch();
        let t = *c.timing();
        c.issue_act(BankId(0), 1, 0);
        c.issue_read(BankId(0), t.t_rcd);
        c.issue_read(BankId(0), t.t_rcd + t.t_ccdl);
        assert_eq!(c.stats.acts, 1);
        assert_eq!(c.stats.reads, 2);
        assert_eq!(c.stats.row_misses, 1);
        assert_eq!(c.stats.row_hits(), 1);
        assert_eq!(c.stats.data_bus_busy, 2 * t.t_burst);
        assert!((c.stats.row_hit_rate() - 0.5).abs() < 1e-9);
        assert!(c.stats.utilization(100) > 0.0);
    }

    #[test]
    fn pre_then_act_same_bank_honours_trp_and_trc() {
        let mut c = ch();
        let t = *c.timing();
        c.issue_act(BankId(0), 1, 0);
        let pre_at = c.bank(BankId(0)).pre_ready;
        assert!(c.can_pre(BankId(0), pre_at));
        c.issue_pre(BankId(0), pre_at);
        let earliest = (pre_at + t.t_rp).max(t.t_rc);
        assert!(!c.can_act(BankId(0), earliest - 1));
        assert!(c.can_act(BankId(0), earliest));
    }

    #[test]
    fn two_burst_access_occupies_four_cycles() {
        // The default configuration moves a 128 B line as two BL8 bursts:
        // the data burst lasts 2 x tBURST and back-to-back column commands
        // are bus-limited beyond tCCDS.
        let mut c = ch2();
        let t = *c.timing();
        let mut now = 0;
        for b in [0u8, 4] {
            while !c.can_act(BankId(b), now) {
                now += 1;
            }
            c.issue_act(BankId(b), 1, now);
        }
        let rd = now + t.t_rcd;
        let done = c.issue_read(BankId(0), rd);
        assert_eq!(done, rd + t.t_cas + 2 * t.t_burst);
        // tCCDS alone is not enough: the bus is still carrying burst #2.
        assert!(!c.can_read(BankId(4), rd + t.t_ccds));
        assert!(c.can_read(BankId(4), rd + 2 * t.t_burst));
        // MERB counter advanced by two bursts.
        assert_eq!(c.bank(BankId(0)).hits_since_act, 2);
    }

    #[test]
    fn trc_binds_same_bank_reactivation() {
        let mut c = ch();
        let t = *c.timing();
        c.issue_act(BankId(0), 1, 0);
        // Precharge as early as legal, then the next ACT must still wait
        // for tRC from the first ACT (tRAS + tRP == tRC for these timings).
        let pre = c.bank(BankId(0)).pre_ready;
        c.issue_pre(BankId(0), pre);
        let earliest = t.t_rc.max(pre + t.t_rp);
        assert!(!c.can_act(BankId(0), earliest - 1));
        assert!(c.can_act(BankId(0), earliest));
    }

    #[test]
    fn write_recovery_blocks_precharge() {
        let mut c = ch();
        let t = *c.timing();
        c.issue_act(BankId(2), 4, 0);
        let wr_at = c.bank(BankId(2)).wr_ready;
        c.issue_write(BankId(2), wr_at);
        let pre_ok = (t.t_ras).max(wr_at + t.t_wl + t.t_burst + t.t_wr);
        assert!(!c.can_pre(BankId(2), pre_ok - 1));
        assert!(c.can_pre(BankId(2), pre_ok));
    }

    #[test]
    fn fast_read_shares_the_bus_with_normal_reads() {
        let mut c = ch2();
        let t = *c.timing();
        c.issue_act(BankId(0), 1, 0);
        let rd = t.t_rcd;
        let end = c.issue_read(BankId(0), rd);
        // A fast read cannot start a burst before the normal one finishes.
        assert!(c.try_fast_read(end - t.t_cas - 1).is_none());
        let done = c.try_fast_read(end - t.t_cas).unwrap();
        assert_eq!(done, end + 2 * t.t_burst);
        assert_eq!(c.stats.fast_reads, 1);
        // Bus accounting covers both.
        assert_eq!(c.stats.data_bus_busy, 4 * t.t_burst);
    }

    #[test]
    fn utilization_is_busy_over_elapsed() {
        let mut c = ch();
        let t = *c.timing();
        c.issue_act(BankId(0), 1, 0);
        c.issue_read(BankId(0), t.t_rcd);
        let util = c.stats.utilization(100);
        assert!((util - t.t_burst as f64 / 100.0).abs() < 1e-12);
        assert_eq!(c.stats.utilization(0), 0.0);
    }

    #[test]
    fn command_dispatch_via_can_issue_and_issue() {
        let mut c = ch();
        let t = *c.timing();
        let act = Command::Act {
            bank: BankId(3),
            row: 9,
        };
        assert!(c.can_issue(&act, 0));
        assert_eq!(c.issue(&act, 0), None);
        let rd = Command::Read {
            bank: BankId(3),
            req: 42,
        };
        assert!(!c.can_issue(&rd, 1));
        assert!(c.can_issue(&rd, t.t_rcd));
        let done = c.issue(&rd, t.t_rcd);
        assert_eq!(done, Some(t.t_rcd + t.t_cas + t.t_burst));
        assert_eq!(rd.bank(), BankId(3));
    }

    #[test]
    fn refresh_cadence_and_blackout() {
        let mut c = ch();
        let t = *c.timing();
        assert!(!c.refresh_due(t.t_refi - 1));
        assert!(c.refresh_due(t.t_refi));
        // Open a bank: refresh is illegal until it is closed.
        c.issue_act(BankId(0), 1, 0);
        assert!(!c.can_refresh(t.t_refi));
        let pre = c.bank(BankId(0)).pre_ready;
        c.issue_pre(BankId(0), pre);
        let ready = pre + t.t_rp;
        assert!(c.can_refresh(ready.max(t.t_refi)));
        let at = ready.max(t.t_refi);
        c.issue_refresh(at);
        assert_eq!(c.stats.refreshes, 1);
        // All banks are dark for tRFC.
        assert!(!c.can_act(BankId(5), at + t.t_rfc - 1));
        assert!(c.can_act(BankId(5), at + t.t_rfc));
        assert!(!c.refresh_due(at + t.t_refi - 1));
    }

    #[test]
    fn open_banks_count() {
        let mut c = ch();
        assert_eq!(c.open_banks(), 0);
        c.issue_act(BankId(3), 5, 0);
        assert_eq!(c.open_banks(), 1);
    }

    #[test]
    fn auditor_sees_every_issued_command_and_stays_clean() {
        let mut c = ch2();
        c.enable_audit();
        c.enable_cmd_log();
        let t = *c.timing();
        // A legal mixed sequence driven through the channel's own gates.
        let mut now = 0;
        while !c.can_act(BankId(0), now) {
            now += 1;
        }
        c.issue_act(BankId(0), 7, now);
        let mut rd = now + t.t_rcd;
        while !c.can_read(BankId(0), rd) {
            rd += 1;
        }
        c.issue_read(BankId(0), rd);
        let mut wr = rd + 1;
        while !c.can_write(BankId(0), wr) {
            wr += 1;
        }
        c.issue_write(BankId(0), wr);
        let mut pre = wr + 1;
        while !c.can_pre(BankId(0), pre) {
            pre += 1;
        }
        c.issue_pre(BankId(0), pre);
        let mut refr = pre + 1;
        while !c.can_refresh(refr) {
            refr += 1;
        }
        c.issue_refresh(refr);
        assert_eq!(c.audit_observed(), 5);
        assert_eq!(c.audit_violation_count(), 0);
        assert_eq!(c.audit_violations().unwrap().len(), 0);
        let log = c.take_cmd_log();
        assert_eq!(log.len(), 5);
        assert_eq!(log[0].kind, crate::audit::CmdKind::Act);
        assert_eq!(log[0].row, 7);
        assert_eq!(log[4].kind, crate::audit::CmdKind::RefAb);
        // Log is drained, not disabled.
        assert!(c.take_cmd_log().is_empty());
    }

    #[test]
    fn ready_cycle_is_exact_inverse_of_can_issue() {
        // Drive a mixed legal sequence; after every step, ready_cycle must
        // be the first cycle can_issue turns true for every command shape.
        let mut c = ch2();
        let check = |c: &Channel, now: Cycle| {
            for b in [0u8, 1, 4, 9] {
                let bank = BankId(b);
                for cmd in [
                    Command::Act { bank, row: 3 },
                    Command::Pre { bank },
                    Command::Read { bank, req: 1 },
                    Command::Write { bank, req: 2 },
                ] {
                    let r = c.ready_cycle(&cmd);
                    if r == Cycle::MAX {
                        // Wrong bank state: never legal until another
                        // command changes it.
                        assert!(!c.can_issue(&cmd, now + 10_000), "{cmd:?}");
                        continue;
                    }
                    if r > 0 {
                        assert!(!c.can_issue(&cmd, r - 1), "{cmd:?} early at {r}");
                    }
                    assert!(c.can_issue(&cmd, r), "{cmd:?} not legal at {r}");
                }
            }
        };
        check(&c, 0);
        let mut now = 0;
        for b in [0u8, 1, 4] {
            now = now.max(c.ready_cycle(&Command::Act {
                bank: BankId(b),
                row: 1,
            }));
            c.issue_act(BankId(b), 1, now);
            check(&c, now);
        }
        now = now.max(c.ready_cycle(&Command::Read {
            bank: BankId(0),
            req: 1,
        }));
        c.issue_read(BankId(0), now);
        check(&c, now);
        now = now.max(c.ready_cycle(&Command::Write {
            bank: BankId(4),
            req: 2,
        }));
        c.issue_write(BankId(4), now);
        check(&c, now);
        now = now.max(c.ready_cycle(&Command::Pre { bank: BankId(1) }));
        c.issue_pre(BankId(1), now);
        check(&c, now);
        // Fast-read horizon agrees with try_fast_read.
        let fr = c.fast_read_ready();
        if fr > 0 {
            assert!(c.clone().try_fast_read(fr - 1).is_none());
        }
        assert!(c.clone().try_fast_read(fr).is_some());
    }

    #[test]
    fn audit_disabled_reports_nothing() {
        let mut c = ch();
        c.issue_act(BankId(0), 1, 0);
        assert_eq!(c.audit_observed(), 0);
        assert_eq!(c.audit_violation_count(), 0);
        assert!(c.audit_violations().is_none());
        assert!(c.take_cmd_log().is_empty());
    }
}
