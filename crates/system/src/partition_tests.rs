//! Unit tests for the memory partition (L2 slice + controller glue).

use crate::partition::Partition;
use ldsim_gddr5::{Channel, MerbTable};
use ldsim_memctrl::Controller;
use ldsim_types::addr::AddressMapper;
use ldsim_types::clock::ClockDomain;
use ldsim_types::config::{CacheConfig, GpuConfig, MemConfig, SchedulerKind};
use ldsim_types::ids::{ChannelId, GlobalWarpId, RequestId, WarpGroupId};
use ldsim_types::req::{MemRequest, ReqKind};
use ldsim_warpsched::make_policy;

fn mk_partition() -> (Partition, AddressMapper, ChannelId) {
    let mem = MemConfig::default();
    let gpu = GpuConfig::default();
    let t = mem.timing.in_cycles(ClockDomain::GDDR5);
    let merb = MerbTable::from_timing(&mem.timing, ClockDomain::GDDR5, mem.banks_per_channel);
    let mapper = AddressMapper::new(&mem, 128);
    // Find any address on channel 0 for convenience.
    let ch = ChannelId(0);
    let ctrl = Controller::new(
        ch,
        &mem,
        Channel::new(&mem, t),
        make_policy(SchedulerKind::Gmc, &mem),
        merb,
        false,
    );
    (
        Partition::new(ch, &gpu.l2_slice, &mem, ctrl, false),
        mapper,
        ch,
    )
}

/// Find an address whose decode lands on `ch`.
fn addr_on_channel(mapper: &AddressMapper, ch: ChannelId, salt: u64) -> u64 {
    (0..10_000u64)
        .map(|i| (salt + i) * 128)
        .find(|&a| mapper.decode(a).channel == ch)
        .expect("some address maps to the channel")
}

fn read_req(mapper: &AddressMapper, addr: u64, id: u64, size: u16) -> MemRequest {
    MemRequest {
        id: RequestId(id),
        kind: ReqKind::Read,
        line_addr: mapper.line_addr(addr),
        decoded: mapper.decode(addr),
        wg: WarpGroupId::new(GlobalWarpId::new(1, 2), 7),
        last_of_group: false,
        group_size_on_channel: size,
        issue_cycle: 0,
        arrival_cycle: 0,
    }
}

#[test]
fn l2_hit_is_absorbed_and_answered() {
    let (mut p, mapper, ch) = mk_partition();
    let addr = addr_on_channel(&mapper, ch, 100);
    let req = read_req(&mapper, addr, 1, 2);
    // Warm the L2.
    p.l2.fill(req.line_addr, false);
    p.accept(req);
    p.tick(0);
    // Response queued for the SM, nothing forwarded to the controller.
    assert_eq!(p.to_sm.len(), 1);
    let (_, sm, resp) = p.to_sm[0];
    assert_eq!(sm, 1);
    assert!(!resp.from_dram);
    assert!(p.ctrl.idle());
    // The group tracker learned about the absorbed member.
    assert!(!p.ctrl.groups.is_complete(req.wg) || p.ctrl.groups.get(req.wg).is_none());
}

#[test]
fn l2_miss_forwards_after_lookup_latency() {
    let (mut p, mapper, ch) = mk_partition();
    let addr = addr_on_channel(&mapper, ch, 5000);
    let req = read_req(&mapper, addr, 2, 1);
    p.accept(req);
    p.tick(0);
    // Still inside the L2 latency window: controller has nothing.
    assert!(p.ctrl.idle());
    for now in 1..=GpuConfig::default().l2_slice.latency {
        p.tick(now);
    }
    assert!(!p.ctrl.idle(), "miss must reach the controller");
}

#[test]
fn l2_mshr_merges_duplicate_misses() {
    let (mut p, mapper, ch) = mk_partition();
    let addr = addr_on_channel(&mapper, ch, 9000);
    p.accept(read_req(&mapper, addr, 3, 2));
    p.tick(0);
    p.accept(read_req(&mapper, addr, 4, 2));
    p.tick(1);
    // Two inputs, one distinct line: exactly one downstream request.
    let mut n = 0;
    for now in 2..100 {
        p.tick(now);
        n = p.ctrl.read_backlog();
    }
    assert_eq!(n, 1, "merged miss must not forward twice");
}

#[test]
fn dram_fill_wakes_all_waiters_marked_from_dram() {
    let (mut p, mapper, ch) = mk_partition();
    let addr = addr_on_channel(&mapper, ch, 333);
    p.accept(read_req(&mapper, addr, 5, 2));
    p.tick(0);
    p.accept(read_req(&mapper, addr, 6, 2));
    p.tick(1);
    let resp = ldsim_types::req::MemResponse {
        id: RequestId(5),
        wg: WarpGroupId::new(GlobalWarpId::new(1, 2), 7),
        line_addr: mapper.line_addr(addr),
        kind: ReqKind::Read,
        done_cycle: 500,
    };
    p.on_ctrl_response(&resp, 510);
    assert_eq!(p.to_sm.len(), 2, "both waiters wake");
    assert!(p
        .to_sm
        .iter()
        .all(|(_, _, r)| r.from_dram && r.dram_cycle == 500));
    // The line is now resident: a third access hits.
    assert!(p.l2.contains(mapper.line_addr(addr)));
}

#[test]
fn store_allocates_and_dirty_eviction_writes_back() {
    let (mut p, mapper, ch) = mk_partition();
    // Fill one L2 set with dirty lines, then overflow it.
    let sets = GpuConfig::default().l2_slice.sets();
    let ways = GpuConfig::default().l2_slice.ways;
    let mut victims = Vec::new();
    let mut found = 0;
    // Collect ways+1 distinct lines mapping to the same set on this channel.
    let mut i = 0u64;
    let target_set = None::<u64>;
    let mut target = target_set;
    while found <= ways {
        i += 1;
        let a = i * 128;
        if mapper.decode(a).channel != ch {
            continue;
        }
        let line = mapper.line_addr(a);
        let set = line % sets as u64;
        match target {
            None => {
                target = Some(set);
                victims.push(a);
                found += 1;
            }
            Some(t) if set == t && !victims.contains(&a) => {
                victims.push(a);
                found += 1;
            }
            _ => {}
        }
    }
    let mut now = 0;
    for (j, &a) in victims.iter().enumerate() {
        let mut w = read_req(&mapper, a, 100 + j as u64, 1);
        w.kind = ReqKind::Write;
        while !p.can_accept() {
            p.tick(now);
            now += 1;
        }
        p.accept(w);
        p.tick(now);
        now += 1;
    }
    for extra in 0..50 {
        p.tick(now + extra);
    }
    // Overflowing ways dirty lines in one set must have produced at least
    // one DRAM write-back.
    assert!(
        p.ctrl.write_backlog() > 0 || !p.ctrl.idle(),
        "dirty eviction should reach the controller"
    );
}

#[test]
fn input_backpressure_is_bounded() {
    let (mut p, mapper, ch) = mk_partition();
    let mut accepted = 0;
    for i in 0..64u64 {
        if p.can_accept() {
            let addr = addr_on_channel(&mapper, ch, 12_000 + i * 97);
            p.accept(read_req(&mapper, addr, 200 + i, 1));
            accepted += 1;
        }
    }
    assert_eq!(accepted, Partition::INPUT_CAP, "input buffer must bound");
    assert!(!p.can_accept());
}

#[test]
fn stalled_head_memo_matches_full_probes() {
    // Twin partitions fed the same seeded traffic, one with the
    // stalled-head memo and one that probes the L2 and the MSHR in full
    // every cycle: a tiny L2 slice and MSHR and a congested controller
    // make heads stall often. The L2 (tags, LRU clock, stats), the MSHR,
    // the controller-bound delay line and the SM-bound responses must
    // agree every cycle.
    let mem = MemConfig::default();
    let t = mem.timing.in_cycles(ClockDomain::GDDR5);
    let merb = MerbTable::from_timing(&mem.timing, ClockDomain::GDDR5, mem.banks_per_channel);
    let mapper = AddressMapper::new(&mem, 128);
    let ch = ChannelId(0);
    let mut rng = ldsim_util::StdRng::seed_from_u64(0x12a7_5eed);
    let mut memo_hits = 0u64;
    for case in 0..12u64 {
        let bypass = case % 4 == 3;
        let l2 = CacheConfig {
            size_bytes: 4 * 4 * 128,
            line_bytes: 128,
            ways: 4,
            // A small MSHR stalls heads on capacity, a large one lets the
            // controller back up and stall them on `ctrl_full`.
            mshr_entries: if case % 2 == 0 {
                rng.gen_range(1..6usize)
            } else {
                rng.gen_range(80..120usize)
            },
            latency: rng.gen_range(1..30u64),
        };
        let twin = |always_probe: bool| {
            let ctrl = Controller::new(
                ch,
                &mem,
                Channel::new(&mem, t),
                make_policy(SchedulerKind::Gmc, &mem),
                merb.clone(),
                false,
            );
            let mut p = Partition::new(ch, &l2, &mem, ctrl, bypass);
            p.always_probe = always_probe;
            p
        };
        let (mut a, mut b) = (twin(false), twin(true));
        let lines: Vec<u64> = (0..rng.gen_range(8..240u64))
            .map(|i| addr_on_channel(&mapper, ch, 1 + i * 7919))
            .collect();
        let load = [0.2, 0.6, 1.0][(case % 3) as usize];
        let mut resps = Vec::new();
        for now in 0..6_000 {
            memo_hits += u64::from(a.stalled_head.is_some());
            for p in [&mut a, &mut b] {
                p.ctrl.tick(now);
                p.ctrl.drain_responses(&mut resps);
                for r in resps.drain(..) {
                    p.on_ctrl_response(&r, now);
                }
                p.tick(now);
            }
            assert_eq!(a.can_accept(), b.can_accept(), "case {case}, cycle {now}");
            if a.can_accept() && rng.gen_bool(load) {
                let addr = lines[rng.gen_range(0..lines.len())];
                let mut r = read_req(&mapper, addr, now, 1);
                if rng.gen_bool(0.1) {
                    r.kind = ReqKind::Write;
                }
                a.accept(r);
                b.accept(r);
            }
            let at = format!("case {case}, cycle {now}");
            assert_eq!(format!("{:?}", a.l2), format!("{:?}", b.l2), "{at}");
            assert_eq!(a.l2_mshr.len(), b.l2_mshr.len(), "{at}");
            for &addr in &lines {
                let line = mapper.line_addr(addr);
                assert_eq!(a.l2_mshr.waiters(line), b.l2_mshr.waiters(line), "{at}");
            }
            assert!(a.to_ctrl == b.to_ctrl, "{at}");
            assert_eq!(format!("{:?}", a.to_sm), format!("{:?}", b.to_sm), "{at}");
            a.to_sm.clear();
            b.to_sm.clear();
        }
    }
    assert!(memo_hits > 10_000, "only {memo_hits} memo hits");
}
