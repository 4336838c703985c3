//! The crossbar interconnect between SMs and memory partitions.
//!
//! Two instances are used: requests (30 SM sources → 6 partition
//! destinations) and responses (6 → 30). Each source has a bounded FIFO;
//! each destination accepts at most one payload per cycle, arbitrated
//! round-robin among the sources whose *head* targets it — so per-source
//! order is preserved end to end, which Section IV-B.2 requires of the
//! SM→GMC path ("the interconnect ... does not re-order requests from a
//! single SM"). Accepted payloads arrive after a fixed pipeline latency.

use ldsim_types::clock::Cycle;
use std::collections::VecDeque;

/// A generic fixed-latency crossbar.
#[derive(Debug)]
pub struct Crossbar<T> {
    latency: Cycle,
    num_dsts: usize,
    src_q: Vec<VecDeque<(usize, T)>>,
    /// Bit `s` set iff `src_q[s]` is non-empty, 64 sources per word: the
    /// grant loop visits only these.
    live: Vec<u64>,
    src_cap: usize,
    /// In-flight payloads, ordered by arrival cycle (monotone by
    /// construction).
    flight: VecDeque<(Cycle, usize, T)>,
    rr: usize,
    pub accepted: u64,
    /// Per-tick scratch (grant/blocked flags per destination, rejected
    /// deliveries to requeue) — reused across cycles, this is a per-cycle
    /// hot path.
    granted: Vec<bool>,
    blocked: Vec<bool>,
    kept: Vec<(Cycle, usize, T)>,
}

impl<T> Crossbar<T> {
    pub fn new(num_srcs: usize, num_dsts: usize, latency: Cycle, src_cap: usize) -> Self {
        Self {
            latency,
            num_dsts,
            src_q: (0..num_srcs).map(|_| VecDeque::new()).collect(),
            live: vec![0; num_srcs.div_ceil(64)],
            src_cap,
            flight: VecDeque::new(),
            rr: 0,
            accepted: 0,
            granted: vec![false; num_dsts],
            blocked: vec![false; num_dsts],
            kept: Vec::new(),
        }
    }

    /// Free slots in `src`'s injection FIFO.
    pub fn free_space(&self, src: usize) -> usize {
        self.src_cap - self.src_q[src].len()
    }

    /// Inject a payload for `dst`; returns false (and drops nothing) if the
    /// source FIFO is full — callers check [`Self::free_space`] first.
    pub fn inject(&mut self, src: usize, dst: usize, payload: T) -> bool {
        debug_assert!(dst < self.num_dsts);
        if self.src_q[src].len() >= self.src_cap {
            return false;
        }
        self.src_q[src].push_back((dst, payload));
        self.live[src / 64] |= 1 << (src % 64);
        true
    }

    /// One cycle: accept up to one head per destination (round-robin over
    /// sources), then deliver arrivals due at `now`. `can_accept(dst)` is
    /// consulted before each delivery; a full destination leaves its
    /// payloads in flight for next cycle (per-destination order preserved —
    /// once a destination rejects, nothing more is delivered to it this
    /// cycle).
    pub fn tick(
        &mut self,
        now: Cycle,
        can_accept: impl FnMut(usize) -> bool,
        deliver: impl FnMut(usize, T),
    ) {
        self.grant(now);
        self.deliver_due(now, can_accept, deliver);
    }

    /// [`Self::tick`] with the reference grant loop over every source.
    #[cfg(test)]
    fn tick_reference(
        &mut self,
        now: Cycle,
        can_accept: impl FnMut(usize) -> bool,
        deliver: impl FnMut(usize, T),
    ) {
        for src in self.reference_grants() {
            self.take_head(src, now);
        }
        self.rr = (self.rr + 1) % self.src_q.len();
        self.deliver_due(now, can_accept, deliver);
    }

    /// Deliver arrivals due at `now`; rejected destinations retry next
    /// cycle.
    fn deliver_due(
        &mut self,
        now: Cycle,
        mut can_accept: impl FnMut(usize) -> bool,
        mut deliver: impl FnMut(usize, T),
    ) {
        debug_assert!(self.kept.is_empty());
        self.blocked.fill(false);
        while let Some(&(arrive, _, _)) = self.flight.front() {
            if arrive > now {
                break;
            }
            let (a, dst, t) = self.flight.pop_front().unwrap();
            if !self.blocked[dst] && can_accept(dst) {
                deliver(dst, t);
            } else {
                self.blocked[dst] = true;
                self.kept.push((a, dst, t));
            }
        }
        for r in self.kept.drain(..).rev() {
            self.flight.push_front(r);
        }
    }

    /// One grant per destination, visiting the non-empty sources in
    /// round-robin order from `rr`: the words from `rr`'s (its bits at or
    /// above `rr`) to the last, then from the first back to `rr`'s (its
    /// bits below `rr`). That is the order the loop over every source
    /// reaches them in; an empty source grants nothing, and a granted
    /// source's next head waits for the next cycle either way.
    fn grant(&mut self, now: Cycle) {
        #[cfg(debug_assertions)]
        let expect = self.reference_grants();
        #[cfg(debug_assertions)]
        let mut got = Vec::new();
        self.granted.fill(false);
        let mut open = self.num_dsts;
        let (w0, bit0) = (self.rr / 64, self.rr % 64);
        let spans = std::iter::once((w0, !0u64 << bit0))
            .chain((w0 + 1..self.live.len()).chain(0..w0).map(|w| (w, !0u64)))
            .chain(std::iter::once((w0, (1u64 << bit0) - 1)));
        'grant: for (w, keep) in spans {
            let mut bits = self.live[w] & keep;
            while bits != 0 {
                let src = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let dst = self.src_q[src].front().expect("live source has a head").0;
                if self.granted[dst] {
                    continue;
                }
                self.granted[dst] = true;
                self.take_head(src, now);
                #[cfg(debug_assertions)]
                got.push(src);
                open -= 1;
                if open == 0 {
                    // Every destination is taken: the remaining sources
                    // would all be refused.
                    break 'grant;
                }
            }
        }
        #[cfg(debug_assertions)]
        assert_eq!(
            got, expect,
            "masked grants disagree with the round-robin loop"
        );
        self.rr += 1;
        if self.rr == self.src_q.len() {
            self.rr = 0;
        }
    }

    /// Grant `src`'s head: it leaves the source FIFO and flies.
    #[inline]
    fn take_head(&mut self, src: usize, now: Cycle) {
        let q = &mut self.src_q[src];
        let (dst, t) = q.pop_front().expect("granted an empty source");
        if q.is_empty() {
            self.live[src / 64] &= !(1 << (src % 64));
        }
        self.flight.push_back((now + self.latency, dst, t));
        self.accepted += 1;
    }

    /// The reference grant loop over every source, from `rr`: the sources
    /// a tick grants, in grant order, without granting them.
    #[cfg(any(test, debug_assertions))]
    fn reference_grants(&self) -> Vec<usize> {
        let ns = self.src_q.len();
        let mut granted = vec![false; self.num_dsts];
        let mut out = Vec::new();
        for k in 0..ns {
            let src = (self.rr + k) % ns;
            let Some(&(dst, _)) = self.src_q[src].front() else {
                continue;
            };
            if !granted[dst] {
                granted[dst] = true;
                out.push(src);
            }
        }
        out
    }

    /// Any source FIFO non-empty?
    #[inline]
    fn any_queued(&self) -> bool {
        self.live.iter().any(|&w| w != 0)
    }

    /// Anything queued or flying?
    pub fn busy(&self) -> bool {
        !self.flight.is_empty() || self.any_queued()
    }

    /// Earliest cycle [`Self::tick`] could move a payload: `now` while any
    /// source FIFO holds a head to grant (or a blocked delivery is
    /// retrying), else the first in-flight arrival. `None` when empty.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.any_queued() {
            return Some(now);
        }
        self.flight.front().map(|&(arrive, _, _)| arrive.max(now))
    }

    /// Account for `delta` skipped idle ticks: the round-robin pointer
    /// advances every cycle whether or not anything is granted, so skipping
    /// must replay that rotation for bit-exact arbitration afterwards.
    pub fn skip(&mut self, delta: Cycle) {
        let ns = self.src_q.len();
        self.rr = (self.rr + (delta % ns as Cycle) as usize) % ns;
    }

    /// Pop every in-flight payload due strictly before `end`, in flight
    /// (grant) order, handing `(arrival_cycle, dst, payload)` to `f`.
    ///
    /// This is the epoch scheduler's pre-distribution hook (DESIGN.md §18):
    /// deliveries due inside a conservative window were all granted before
    /// the window opened, so their contents are known at the barrier — only
    /// their exact delivery cycle (under destination back-pressure) is not,
    /// and that is destination-local, so each destination replays its own.
    pub fn drain_arrivals_before(&mut self, end: Cycle, mut f: impl FnMut(Cycle, usize, T)) {
        while let Some(&(arrive, _, _)) = self.flight.front() {
            if arrive >= end {
                break;
            }
            let (arrive, dst, t) = self.flight.pop_front().unwrap();
            f(arrive, dst, t);
        }
    }

    /// Fill `out[dst]` with the earliest in-flight arrival cycle per
    /// destination (`None` = nothing flying toward it). Queued heads are
    /// deliberately excluded: anything granted at or after the current
    /// cycle arrives a full pipeline latency later, which the epoch
    /// scheduler's window bound already accounts for (DESIGN.md §18).
    pub fn min_arrival_per_dst(&self, out: &mut Vec<Option<Cycle>>) {
        out.clear();
        out.resize(self.num_dsts, None);
        let mut unseen = self.num_dsts;
        for &(arrive, dst, _) in &self.flight {
            if out[dst].is_none() {
                out[dst] = Some(arrive);
                unseen -= 1;
                if unseen == 0 {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_source_order_is_preserved() {
        let mut xb: Crossbar<u32> = Crossbar::new(2, 2, 4, 8);
        for i in 0..4 {
            assert!(xb.inject(0, (i % 2) as usize, i));
        }
        let mut got = Vec::new();
        for now in 0..20 {
            xb.tick(now, |_| true, |_, t| got.push(t));
        }
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn one_grant_per_destination_per_cycle() {
        let mut xb: Crossbar<u32> = Crossbar::new(4, 1, 0, 8);
        for s in 0..4 {
            xb.inject(s, 0, s as u32);
        }
        let mut per_cycle = Vec::new();
        for now in 0..4 {
            let mut n = 0;
            xb.tick(now, |_| true, |_, _| n += 1);
            per_cycle.push(n);
        }
        assert_eq!(per_cycle, vec![1, 1, 1, 1]);
    }

    #[test]
    fn latency_is_applied() {
        let mut xb: Crossbar<u32> = Crossbar::new(1, 1, 5, 8);
        xb.inject(0, 0, 42);
        let mut arrived_at = None;
        for now in 0..10 {
            xb.tick(now, |_| true, |_, _| arrived_at = Some(now));
        }
        assert_eq!(arrived_at, Some(5));
    }

    #[test]
    fn bounded_injection() {
        let mut xb: Crossbar<u32> = Crossbar::new(1, 1, 1, 2);
        assert!(xb.inject(0, 0, 1));
        assert!(xb.inject(0, 0, 2));
        assert_eq!(xb.free_space(0), 0);
        assert!(!xb.inject(0, 0, 3));
    }

    #[test]
    fn round_robin_is_fair_across_sources() {
        let mut xb: Crossbar<u32> = Crossbar::new(3, 1, 0, 16);
        for s in 0..3 {
            for i in 0..5 {
                xb.inject(s, 0, (s * 10 + i) as u32);
            }
        }
        let mut first_six = Vec::new();
        for now in 0..6 {
            xb.tick(now, |_| true, |_, t| first_six.push(t / 10));
        }
        // Every source served twice in six cycles.
        for s in 0..3 {
            assert_eq!(first_six.iter().filter(|&&x| x == s).count(), 2);
        }
    }

    #[test]
    fn backpressure_retries_in_order() {
        let mut xb: Crossbar<u32> = Crossbar::new(1, 1, 0, 8);
        for i in 0..3 {
            xb.inject(0, 0, i);
        }
        let mut got = Vec::new();
        // Destination refuses for 3 cycles, then opens.
        for now in 0..8 {
            let open = now >= 3;
            xb.tick(now, |_| open, |_, t| got.push(t));
        }
        assert_eq!(got, vec![0, 1, 2], "order must survive rejection");
    }

    #[test]
    fn skip_matches_explicit_idle_ticks() {
        // Skipping N idle cycles must leave the arbiter in the same state as
        // ticking N times with nothing queued: the next contended grant goes
        // to the same source.
        for idle in [0u64, 1, 2, 3, 7, 513] {
            let mut a: Crossbar<u32> = Crossbar::new(3, 1, 0, 8);
            let mut b: Crossbar<u32> = Crossbar::new(3, 1, 0, 8);
            for now in 0..idle {
                a.tick(now, |_| true, |_, _| {});
            }
            b.skip(idle);
            assert_eq!(a.next_event(idle), None);
            assert_eq!(b.next_event(idle), None);
            for s in 0..3 {
                a.inject(s, 0, s as u32);
                b.inject(s, 0, s as u32);
            }
            assert_eq!(a.next_event(idle), Some(idle));
            let (mut ga, mut gb) = (Vec::new(), Vec::new());
            for now in idle..idle + 3 {
                a.tick(now, |_| true, |_, t| ga.push(t));
                b.tick(now, |_| true, |_, t| gb.push(t));
            }
            assert_eq!(ga, gb, "idle={idle}");
        }
    }

    #[test]
    fn next_event_reports_first_arrival() {
        let mut xb: Crossbar<u32> = Crossbar::new(1, 1, 5, 8);
        xb.inject(0, 0, 42);
        assert_eq!(xb.next_event(0), Some(0), "queued head is immediate");
        xb.tick(0, |_| true, |_, _| {});
        assert_eq!(xb.next_event(1), Some(5), "in-flight arrival at 5");
        assert_eq!(xb.next_event(7), Some(7), "past-due clamps to now");
    }

    #[test]
    fn masked_grants_match_the_round_robin_loop() {
        // Twin crossbars fed the same random traffic, one granting through
        // the live-source mask, the other through the loop over every
        // source: every acceptance check, delivery, grant count and
        // horizon must agree, every cycle, with idle gaps skipped.
        let mut rng = ldsim_util::StdRng::seed_from_u64(0x6a27_5eed);
        for (srcs, dsts) in [(6, 30), (30, 6), (100, 7), (200, 9)] {
            for case in 0..12u64 {
                let (lat, cap) = (rng.gen_range(1..4u64), rng.gen_range(1..6usize));
                let mut a: Crossbar<u64> = Crossbar::new(srcs, dsts, lat, cap);
                let mut b: Crossbar<u64> = Crossbar::new(srcs, dsts, lat, cap);
                let load = [0.02, 0.1, 0.3, 0.9][rng.gen_range(0..4usize)];
                let (mut now, mut next_id) = (0, 0u64);
                while now < 2_000 {
                    for src in 0..srcs {
                        if rng.gen_bool(load) && a.free_space(src) > 0 {
                            let dst = rng.gen_range(0..dsts);
                            assert!(a.inject(src, dst, next_id) && b.inject(src, dst, next_id));
                            next_id += 1;
                        }
                    }
                    let room: Vec<bool> = (0..dsts).map(|_| rng.gen_bool(0.6)).collect();
                    let (mut log_a, mut log_b) = (Vec::new(), Vec::new());
                    let log = std::cell::RefCell::new(&mut log_a);
                    a.tick(
                        now,
                        |d| {
                            log.borrow_mut().push((d, None));
                            room[d]
                        },
                        |d, t| log.borrow_mut().push((d, Some(t))),
                    );
                    let log = std::cell::RefCell::new(&mut log_b);
                    b.tick_reference(
                        now,
                        |d| {
                            log.borrow_mut().push((d, None));
                            room[d]
                        },
                        |d, t| log.borrow_mut().push((d, Some(t))),
                    );
                    let at = format!("{srcs} sources, case {case}, cycle {now}");
                    assert_eq!(log_a, log_b, "{at}");
                    assert_eq!(a.accepted, b.accepted, "{at}");
                    assert_eq!(a.busy(), b.busy(), "{at}");
                    now += 1;
                    assert_eq!(a.next_event(now), b.next_event(now), "{at}");
                    if rng.gen_bool(0.05) {
                        // An idle stretch as the main loop would skip it.
                        if let Some(ev) = a.next_event(now).filter(|&ev| ev > now) {
                            a.skip(ev - now);
                            b.skip(ev - now);
                            now = ev;
                        }
                    }
                }
                assert!(
                    a.accepted > 100,
                    "{srcs} sources, case {case}: too little traffic"
                );
            }
        }
    }

    #[test]
    fn head_of_line_blocking_preserves_order() {
        // Head targets dst 0 (busy via another source), later entry targets
        // dst 1 but must wait behind the head.
        let mut xb: Crossbar<u32> = Crossbar::new(2, 2, 0, 8);
        xb.inject(1, 0, 100); // source 1 competes for dst 0
        xb.inject(0, 0, 1);
        xb.inject(0, 1, 2);
        let mut got = Vec::new();
        for now in 0..6 {
            xb.tick(now, |_| true, |_, t| got.push(t));
        }
        let p1 = got.iter().position(|&t| t == 1).unwrap();
        let p2 = got.iter().position(|&t| t == 2).unwrap();
        assert!(p1 < p2, "source 0 order violated: {got:?}");
        assert!(!xb.busy());
    }
}
