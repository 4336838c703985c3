//! Property tests over every transaction-scheduling policy: conservation,
//! termination, and response-id uniqueness under randomized request
//! streams driven through a real controller, and the controller's
//! settled-pick memo against full picks (seeded loops — the offline
//! environment has no proptest).

use ldsim_gddr5::{Channel, MerbTable};
use ldsim_memctrl::{Controller, CoordMsg, Policy, PolicyView};
use ldsim_types::addr::{AddressMapper, DecodedAddr};
use ldsim_types::clock::{ClockDomain, Cycle};
use ldsim_types::config::{MemConfig, SchedulerKind};
use ldsim_types::ids::{BankId, ChannelId, GlobalWarpId, RequestId, WarpGroupId};
use ldsim_types::req::{MemRequest, MemResponse, ReqKind};
use ldsim_util::StdRng;
use ldsim_warpsched::make_policy;

fn mk_ctrl(kind: SchedulerKind) -> (Controller, AddressMapper) {
    let mem = MemConfig::default();
    let t = mem.timing.in_cycles(ClockDomain::GDDR5);
    let merb = MerbTable::from_timing(&mem.timing, ClockDomain::GDDR5, mem.banks_per_channel);
    let ctrl = Controller::new(
        ChannelId(0),
        &mem,
        Channel::new(&mem, t),
        make_policy(kind, &mem),
        merb,
        false,
    );
    (ctrl, AddressMapper::new(&mem, 128))
}

fn drive(kind: SchedulerKind, stream: &[(u16, u16, u32, bool)]) {
    let (mut ctrl, m) = mk_ctrl(kind);
    ctrl.enable_audit();
    let mut id = 0u64;
    let mut reads = 0usize;
    for &(sm, warp, addr_seed, is_write) in stream {
        id += 1;
        let addr = (addr_seed as u64 % (1 << 22)) * 128;
        let kind_r = if is_write {
            ReqKind::Write
        } else {
            ReqKind::Read
        };
        if !is_write {
            reads += 1;
        }
        ctrl.push_request(MemRequest {
            id: RequestId(id),
            kind: kind_r,
            line_addr: m.line_addr(addr),
            decoded: m.decode(addr),
            wg: WarpGroupId::new(GlobalWarpId::new(sm % 8, warp % 8), id as u32 / 3),
            last_of_group: true,
            group_size_on_channel: 1,
            issue_cycle: 0,
            arrival_cycle: 0,
        });
    }
    let mut out = Vec::new();
    let mut now = 0u64;
    while !ctrl.idle() && now < 2_000_000 {
        ctrl.tick(now);
        ctrl.drain_responses(&mut out);
        now += 1;
    }
    assert!(ctrl.idle(), "{kind:?} failed to drain within bound");
    assert_eq!(out.len(), reads, "{kind:?} lost or duplicated reads");
    let mut ids: Vec<u64> = out.iter().map(|r| r.id.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), reads, "{kind:?} duplicated a response id");
    assert_eq!(
        ctrl.audit_violation_count(),
        0,
        "{kind:?} issued a protocol-violating command"
    );
}

#[test]
fn every_policy_conserves_requests() {
    let mut rng = StdRng::seed_from_u64(0xF022);
    for _case in 0..12 {
        let len = rng.gen_range(1usize..80);
        let stream: Vec<(u16, u16, u32, bool)> = (0..len)
            .map(|_| {
                (
                    rng.gen_range(0u16..8),
                    rng.gen_range(0u16..8),
                    rng.next_u64() as u32,
                    rng.gen_bool(0.5),
                )
            })
            .collect();
        for kind in [
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
            SchedulerKind::ParBs,
            SchedulerKind::AtlasLite,
        ] {
            drive(kind, &stream);
        }
    }
}

/// Forwards every call to the policy it wraps except `pick_settled`, which
/// keeps the trait's default (a full `pick`): the reference for the
/// controller's settled-pick memo.
struct FullPicks(Box<dyn Policy>);

impl Policy for FullPicks {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn on_arrival(&mut self, req: MemRequest, now: Cycle) {
        self.0.on_arrival(req, now);
    }
    fn pending(&self) -> usize {
        self.0.pending()
    }
    fn pick(&mut self, view: &PolicyView<'_>) -> Option<MemRequest> {
        self.0.pick(view)
    }
    fn remove_group(&mut self, wg: WarpGroupId) -> Vec<MemRequest> {
        self.0.remove_group(wg)
    }
    fn on_coord(&mut self, msg: CoordMsg, now: Cycle) {
        self.0.on_coord(msg, now);
    }
    fn on_shared(&mut self, wg: WarpGroupId) {
        self.0.on_shared(wg);
    }
    fn emit_coord(&mut self, out: &mut Vec<CoordMsg>) {
        self.0.emit_coord(out);
    }
    fn wants_writes(&self) -> bool {
        self.0.wants_writes()
    }
    fn has_pending_for_bank(&self, bank: usize) -> bool {
        self.0.has_pending_for_bank(bank)
    }
    fn counters(&self) -> [u64; 4] {
        self.0.counters()
    }
}

/// What reaches the controllers at a given cycle.
#[derive(Clone, Copy)]
enum Input {
    Request(MemRequest),
    /// A member of the group absorbed upstream (size on this channel).
    Absorbed(WarpGroupId, u16),
    Coord(CoordMsg),
    Shared(WarpGroupId),
}

/// Everything a controller hands back, counts or still holds, for
/// comparing twins.
type Observed = (Vec<(u64, Cycle)>, Vec<CoordMsg>, [u64; 4], [u64; 5]);

fn observe(c: &mut Controller) -> Observed {
    let (mut resps, mut coord) = (Vec::<MemResponse>::new(), Vec::new());
    c.drain_responses(&mut resps);
    c.drain_coord(&mut coord);
    let s = &c.stats;
    (
        resps.iter().map(|r| (r.id.0, r.done_cycle)).collect(),
        coord,
        c.policy_counters(),
        [
            s.reads_done,
            s.writes_done,
            s.drains,
            c.read_backlog() as u64,
            c.pending() as u64,
        ],
    )
}

/// The same seeded traffic through two controllers, one whose policy takes
/// the settled path and one that always picks in full: congested banks,
/// warp-groups whose members arrive over time or are absorbed upstream,
/// writes, WG-M caps and sharing notices. Every response, coordination
/// message, policy counter, statistic and backlog must agree, cycle by
/// cycle; debug builds also re-verify every memo hit (the issue floor and
/// the settled picks) as they run.
#[test]
fn settled_picks_match_full_picks_through_a_controller() {
    let mem = MemConfig {
        gmc_age_threshold: 800,
        ..MemConfig::default()
    };
    let merb = MerbTable::from_timing(&mem.timing, ClockDomain::GDDR5, mem.banks_per_channel);
    let t = mem.timing.in_cycles(ClockDomain::GDDR5);
    for kind in [
        SchedulerKind::Gmc,
        SchedulerKind::Wg,
        SchedulerKind::WgM,
        SchedulerKind::WgBw,
        SchedulerKind::WgW,
        SchedulerKind::WgShared,
    ] {
        for seed in 0u64..2 {
            let mk = |policy: Box<dyn Policy>| {
                Controller::new(
                    ChannelId(0),
                    &mem,
                    Channel::new(&mem, t),
                    policy,
                    merb.clone(),
                    false,
                )
            };
            let mut settled = mk(make_policy(kind, &mem));
            let mut full = mk(Box::new(FullPicks(make_policy(kind, &mem))));
            let mut rng = StdRng::seed_from_u64(0xC7_5E77 ^ seed);
            // Inputs keyed by the cycle they reach the controller.
            let mut due: Vec<(Cycle, Input)> = Vec::new();
            let mut recent: Vec<WarpGroupId> = Vec::new();
            let mut id = 0u64;
            let mut reads = (0usize, 0usize);
            for now in 0..12_000u64 {
                if now < 10_000 && settled.read_backlog() < 90 && rng.gen_bool(0.3) {
                    id += 1;
                    let wg = WarpGroupId::new(GlobalWarpId::new(0, (id % 16) as u16), id as u32);
                    let size = rng.gen_range(1u16..=4);
                    for m in 0..size {
                        let at = now + rng.gen_range(0u64..40);
                        if m > 0 && rng.gen_bool(0.25) {
                            due.push((at, Input::Absorbed(wg, size)));
                            continue;
                        }
                        // A few hot banks keep the command queues full.
                        let bank = if rng.gen_bool(0.8) {
                            rng.gen_range(0u8..3)
                        } else {
                            rng.gen_range(3u8..16)
                        };
                        let write = rng.gen_bool(0.1);
                        id += 1;
                        reads.0 += !write as usize;
                        let req = MemRequest {
                            id: RequestId(id),
                            kind: if write { ReqKind::Write } else { ReqKind::Read },
                            line_addr: id,
                            decoded: DecodedAddr {
                                channel: ChannelId(0),
                                bank: BankId(bank),
                                bank_group: bank / 4,
                                row: rng.gen_range(0u32..4),
                                col: 0,
                            },
                            wg,
                            last_of_group: m + 1 == size,
                            group_size_on_channel: size,
                            issue_cycle: now,
                            arrival_cycle: 0,
                        };
                        due.push((at, Input::Request(req)));
                    }
                    recent.push(wg);
                    if recent.len() > 32 {
                        recent.remove(0);
                    }
                }
                if !recent.is_empty() && rng.gen_bool(0.05) {
                    let wg = recent[rng.gen_range(0usize..recent.len())];
                    let input = if rng.gen_bool(0.8) {
                        Input::Coord(CoordMsg {
                            wg,
                            score: rng.gen_range(0u32..12),
                        })
                    } else {
                        Input::Shared(wg)
                    };
                    due.push((now + rng.gen_range(0u64..40), input));
                }
                let mut i = 0;
                while i < due.len() {
                    if due[i].0 > now {
                        i += 1;
                        continue;
                    }
                    let (_, input) = due.swap_remove(i);
                    for c in [&mut settled, &mut full] {
                        match input {
                            Input::Request(r) => c.push_request(r),
                            Input::Absorbed(wg, size) => c.note_absorbed(wg, size),
                            Input::Coord(m) => c.deliver_coord(m, now),
                            Input::Shared(wg) => c.note_shared(wg),
                        }
                    }
                }
                settled.tick(now);
                full.tick(now);
                let got = observe(&mut settled);
                reads.1 += got.0.len();
                assert_eq!(
                    got,
                    observe(&mut full),
                    "{kind:?} seed {seed}: settled picks diverged at cycle {now}"
                );
            }
            assert!(
                settled.idle(),
                "{kind:?} seed {seed}: traffic did not drain"
            );
            assert_eq!(reads.0, reads.1, "{kind:?} seed {seed}: reads lost");
        }
    }
}
