//! The reference workload: a fixed piece of simulator-like work that the
//! benchmark times between passes, to measure how fast the host is
//! running at the moment.
//!
//! On a shared host the simulator's speed swings by up to 2x for seconds
//! to minutes while other tenants come and go, and a single-threaded
//! arithmetic loop or a DRAM-bound pointer walk hardly moves with it. Work
//! shaped like the simulator's — a set-associative tag lookup with LRU
//! replacement over a megabyte-sized table, and a binary-heap event queue
//! — slows down with it. Dividing a pass's time by the time of this
//! workload, taken just before and just after the pass, leaves the part of
//! the change that belongs to the simulator.
//!
//! The workload is the benchmark's own code and does not call the
//! simulator, so a change to the simulator cannot change it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Ways per set of the tag table.
const WAYS: usize = 16;
/// Sets of the tag table: 4096 x 16 ways of u64 tags and u32 stamps
/// (768 KiB).
const SETS: usize = 4096;
/// Lines of the backing array a miss writes to (4 MiB).
const MEM_LINES: usize = 1 << 19;
/// Tag lookups per call.
const LOOKUPS: usize = 1_000_000;
/// Events queued, and events popped and re-queued, per call.
const QUEUED: u32 = 100_000;
const EVENTS: usize = 250_000;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// The reference workload's state, allocated once per process.
pub struct Reference {
    tags: Vec<u64>,
    stamps: Vec<u32>,
    mem: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            tags: vec![u64::MAX; SETS * WAYS],
            stamps: vec![0; SETS * WAYS],
            mem: vec![0; MEM_LINES],
        }
    }
}

impl Reference {
    /// Run the workload once; its wall time in seconds.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.lookups());
        black_box(events());
        t.elapsed().as_secs_f64()
    }

    /// The median wall time of `runs` runs.
    pub fn median_time(&mut self, runs: usize) -> f64 {
        let times: Vec<f64> = (0..runs).map(|_| self.time()).collect();
        crate::metrics::median(&times)
    }

    /// A stream of line addresses, mostly sequential with random jumps,
    /// through the tag table; returns the hit count.
    fn lookups(&mut self) -> u64 {
        let mut rng = XorShift(0x1234_5678);
        let (mut line, mut hits) = (0u64, 0u64);
        for t in 0..LOOKUPS {
            line = if rng.next() % 8 == 0 {
                rng.next() % (1 << 22)
            } else {
                line + 1
            };
            let set = (line as usize).wrapping_mul(0x9e37) % SETS;
            let ways = &mut self.tags[set * WAYS..][..WAYS];
            let stamps = &mut self.stamps[set * WAYS..][..WAYS];
            if let Some(w) = ways.iter().position(|&tag| tag == line) {
                stamps[w] = t as u32;
                hits += 1;
            } else {
                let victim = (0..WAYS).min_by_key(|&w| stamps[w]).unwrap_or(0);
                ways[victim] = line;
                stamps[victim] = t as u32;
                let m = (line as usize).wrapping_mul(7) % MEM_LINES;
                self.mem[m] = self.mem[m].wrapping_add(line);
            }
        }
        hits
    }
}

/// A binary-heap event queue: pop the earliest event, schedule it again
/// a random delay later; returns a checksum.
fn events() -> u64 {
    let mut rng = XorShift(0xabc_def);
    let mut queue: BinaryHeap<Reverse<(u64, u32)>> = (0..QUEUED)
        .map(|id| Reverse((rng.next() % 1_000_000, id)))
        .collect();
    let mut sum = 0u64;
    for _ in 0..EVENTS {
        let Some(Reverse((t, id))) = queue.pop() else {
            break;
        };
        sum = sum.wrapping_add(t ^ u64::from(id));
        queue.push(Reverse((t + 1 + rng.next() % 5000, id)));
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_work_is_fixed() {
        let (mut a, mut b) = (Reference::default(), Reference::default());
        assert_eq!(a.lookups(), b.lookups());
        // A second call finds the table warm, the same way every time.
        assert_eq!(a.lookups(), b.lookups());
        assert_eq!(events(), events());
        assert!(a.time() > 0.0);
    }
}
