//! The bank-front ready table behind the controller's command issue.
//!
//! A command can issue once both halves of its [`Channel::ready_cycle`]
//! have passed: the bank-local ready cycle, which only a command to that
//! bank moves, and the channel-wide floor of its class, which every issued
//! command may move. The table keeps the first half per bank-queue front
//! and the second half per class, so one pass over the fronts yields the
//! ready mask and the earliest ready cycle without re-deriving any timing
//! (DESIGN.md §13).

use ldsim_gddr5::{Channel, Command};
use ldsim_types::clock::Cycle;
use ldsim_types::config::MAX_BANKS;
use ldsim_types::ids::BankId;

/// Floor slot of a PRE and of an empty queue: no channel-wide constraint.
const NO_FLOOR: u8 = 0;
/// Floor slot of an ACT (tRRD, tFAW). RD slots follow, one per bank group,
/// then WR slots.
const ACT_FLOOR: u8 = 1;

/// Per bank-queue front, in rotation-position order (g0b0, g1b0, g2b0, ...):
/// position `p` holds bank `order[p]`.
pub(crate) struct FrontTable {
    order: Vec<usize>,
    /// Rotation position of each bank.
    pos: Vec<usize>,
    /// Each front's bank-local ready cycle ([`Cycle::MAX`] for an empty
    /// queue or a front the bank's row state forbids).
    ready: Vec<Cycle>,
    /// Each front's slot in `floors`.
    slot: Vec<u8>,
    /// Positions whose front is a column write.
    pub writes: u64,
    /// Channel-wide floor per slot: none, ACT, RD per group, WR per group.
    floors: Vec<Cycle>,
}

impl FrontTable {
    /// An empty table for `banks` banks in groups of `banks_per_group`.
    pub fn new(banks: usize, banks_per_group: usize) -> Self {
        assert!(
            banks <= MAX_BANKS,
            "a controller serves at most {MAX_BANKS} banks (one bit each in its ready masks), \
             got {banks}"
        );
        let groups = banks / banks_per_group;
        let mut order = Vec::with_capacity(banks);
        for within in 0..banks_per_group {
            for g in 0..groups {
                order.push(g * banks_per_group + within);
            }
        }
        let mut pos = vec![0; banks];
        for (p, &b) in order.iter().enumerate() {
            pos[b] = p;
        }
        Self {
            order,
            pos,
            ready: vec![Cycle::MAX; banks],
            slot: vec![NO_FLOOR; banks],
            writes: 0,
            floors: vec![0; 2 + 2 * groups],
        }
    }

    /// The bank at rotation position `p`.
    #[inline]
    pub fn bank_at(&self, p: usize) -> usize {
        self.order[p]
    }

    /// Re-derive bank `b`'s entry after its queue front changed or a
    /// command issued to it.
    pub fn set_front(&mut self, b: usize, front: Option<&Command>, ch: &Channel) {
        let p = self.pos[b];
        let groups = (self.floors.len() - 2) / 2;
        let (ready, slot) = match front {
            None => (Cycle::MAX, NO_FLOOR),
            Some(cmd) => {
                let g = ch.group_of(BankId(b as u8)) as usize;
                let slot = match cmd {
                    Command::Act { .. } => ACT_FLOOR,
                    Command::Pre { .. } => NO_FLOOR,
                    Command::Read { .. } => (2 + g) as u8,
                    Command::Write { .. } => (2 + groups + g) as u8,
                };
                (ch.bank_ready(cmd), slot)
            }
        };
        self.ready[p] = ready;
        self.slot[p] = slot;
        let bit = 1u64 << p;
        if matches!(front, Some(Command::Write { .. })) {
            self.writes |= bit;
        } else {
            self.writes &= !bit;
        }
    }

    /// Re-derive every channel-wide floor after a channel mutation.
    pub fn set_floors(&mut self, ch: &Channel) {
        let groups = (self.floors.len() - 2) / 2;
        self.floors[ACT_FLOOR as usize] = ch.act_floor();
        for g in 0..groups {
            self.floors[2 + g] = ch.read_floor(g as u8);
            self.floors[2 + groups + g] = ch.write_floor(g as u8);
        }
    }

    /// One pass over the fronts: the mask of positions whose front can
    /// issue at `now`, and the earliest cycle any front can issue
    /// ([`Cycle::MAX`] when none can in the current state).
    #[inline]
    pub fn scan(&self, now: Cycle) -> (u64, Cycle) {
        let mut mask = 0u64;
        let mut floor = Cycle::MAX;
        for (p, (&r, &s)) in self.ready.iter().zip(&self.slot).enumerate() {
            let r = r.max(self.floors[s as usize]);
            mask |= u64::from(now >= r) << p;
            floor = floor.min(r);
        }
        (mask, floor)
    }
}

/// The first set bit of a non-empty `mask` at or after position `from`,
/// wrapping around: the position a round-robin scan starting at `from`
/// reaches first.
#[inline]
pub(crate) fn first_from(mask: u64, from: usize) -> usize {
    debug_assert!(mask != 0 && from < 64);
    let ahead = mask & (!0u64 << from);
    (if ahead != 0 { ahead } else { mask }).trailing_zeros() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_order_interleaves_bank_groups() {
        let t = FrontTable::new(16, 4);
        let order: Vec<usize> = (0..16).map(|p| t.bank_at(p)).collect();
        assert_eq!(
            order,
            [0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15]
        );
        for (p, &b) in order.iter().enumerate() {
            assert_eq!(t.pos[b], p);
        }
    }

    #[test]
    fn first_from_wraps_like_a_round_robin_scan() {
        for mask in [1u64, 0b1010, 1 << 63, u64::MAX, 0x8000_0000_0000_0001] {
            for from in 0..64 {
                let expect = (0..64)
                    .map(|k| (from + k) % 64)
                    .find(|&p| mask >> p & 1 == 1)
                    .unwrap();
                assert_eq!(first_from(mask, from), expect, "{mask:#x} from {from}");
            }
        }
    }
}
