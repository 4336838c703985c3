//! In-memory span recording for the traced run.
//!
//! The benchmark wraps its own calls into each simulator layer in spans: a
//! span has a layer name, a start, an end, the span that encloses it, and
//! the unit of work (one simulation, or one kernel generation) it belongs
//! to. A layer's *self* time is its spans' duration minus the part their
//! child spans cover.
//!
//! The per-cycle layers are entered millions of times per simulation, far
//! too often to keep one record each, so a span is folded on exit into the
//! totals of its `(unit, layer, parent layer)` key. Coarse spans — one per
//! unit — are kept whole. Nothing leaves memory until the run ends and
//! [`Recording::write_jsonl`] writes it out.
//!
//! The recorder is thread-local: a traced simulation runs on one thread, and
//! the timing [`crate::driver::TimedPolicy`] decorator — owned by a
//! controller, out of the driver's reach — records into the same stack.

use ldsim_util::json::JsonObject;
use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// The simulation layers the traced driver times, named by module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `ldsim-workloads`: `benchmark().generate()`.
    Gen,
    /// `ldsim-system` machine construction (the driver's `Simulator::new`).
    SimNew,
    /// `ldsim-gpu::sm`: `Sm::tick` and `accept_response`.
    Sm,
    /// `ldsim-gpu::xbar`, request direction: `inject` and `tick`.
    XbarReq,
    /// `ldsim-gpu::xbar`, response direction: `inject` and `tick`.
    XbarResp,
    /// `ldsim-system::partition`: `tick`, `on_ctrl_response`, `accept`.
    Partition,
    /// `ldsim-memctrl::controller` with its GDDR5 channel: `tick`,
    /// `drain_responses`, `drain_coord`, `deliver_coord`.
    Memctrl,
    /// `Policy::pick`.
    PolicyPick,
    /// Every other timed `Policy` method.
    PolicyOther,
    /// `ldsim-warpsched::coord`: `broadcast`, `deliver`.
    Coord,
    /// The components' `next_event`, as the main loop polls them.
    HubNextEvent,
    /// The components' `skip`, across an idle gap.
    HubSkip,
}

pub const LAYERS: usize = 12;

impl Layer {
    pub const ALL: [Layer; LAYERS] = [
        Layer::Gen,
        Layer::SimNew,
        Layer::Sm,
        Layer::XbarReq,
        Layer::XbarResp,
        Layer::Partition,
        Layer::Memctrl,
        Layer::PolicyPick,
        Layer::PolicyOther,
        Layer::Coord,
        Layer::HubNextEvent,
        Layer::HubSkip,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Gen => "workloads.gen",
            Layer::SimNew => "sim.new",
            Layer::Sm => "gpu.sm",
            Layer::XbarReq => "gpu.xbar.req",
            Layer::XbarResp => "gpu.xbar.resp",
            Layer::Partition => "partition",
            Layer::Memctrl => "memctrl",
            Layer::PolicyPick => "policy.pick",
            Layer::PolicyOther => "policy.other",
            Layer::Coord => "coord",
            Layer::HubNextEvent => "hub.next_event",
            Layer::HubSkip => "hub.skip",
        }
    }
}

/// Counts the policy decorator makes where the work happens.
#[derive(Debug, Clone, Copy)]
pub enum Count {
    PickCalls,
    /// Picks that returned a request.
    PickHits,
}

const COUNTS: usize = 2;

/// Folded spans of one `(unit, layer, parent)` key.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    pub total: Duration,
    pub self_time: Duration,
}

/// One unit of traced work: its label, its whole span, and its folded
/// layer spans indexed `[layer][parent]` (parent `LAYERS` = none).
#[derive(Debug, Clone)]
pub struct Unit {
    pub label: String,
    pub start: Duration,
    pub end: Duration,
    pub layers: [[Totals; LAYERS + 1]; LAYERS],
    /// Summed duration of the unit's outermost layer spans.
    pub top: Duration,
    pub counts: [u64; COUNTS],
}

impl Unit {
    /// Self time of `layer` over every parent.
    pub fn self_time(&self, layer: Layer) -> Duration {
        self.layers[layer as usize]
            .iter()
            .map(|t| t.self_time)
            .sum()
    }

    #[cfg(test)]
    pub fn calls(&self, layer: Layer) -> u64 {
        self.layers[layer as usize].iter().map(|t| t.calls).sum()
    }

    pub fn count(&self, c: Count) -> u64 {
        self.counts[c as usize]
    }

    pub fn wall(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

struct Open {
    layer: Layer,
    start: Instant,
    child: Duration,
}

struct Recorder {
    origin: Instant,
    stack: Vec<Open>,
    units: Vec<Unit>,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread (discarding anything recorded before).
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            stack: Vec::new(),
            units: Vec::new(),
        })
    });
}

/// Open a new unit of work; spans until the next `begin_unit` belong to it.
pub fn begin_unit(label: String) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let at = rec.origin.elapsed();
            if let Some(last) = rec.units.last_mut() {
                last.end = at;
            }
            rec.units.push(Unit {
                label,
                start: at,
                end: at,
                layers: [[Totals::default(); LAYERS + 1]; LAYERS],
                top: Duration::ZERO,
                counts: [0; COUNTS],
            });
        }
    });
}

/// Close the current unit.
pub fn end_unit() {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let at = rec.origin.elapsed();
            if let Some(last) = rec.units.last_mut() {
                last.end = at;
            }
        }
    });
}

/// A span open until the guard drops. A no-op when the thread is not
/// recording.
#[must_use = "the span closes when the guard drops"]
pub struct Guard(bool);

pub fn span(layer: Layer) -> Guard {
    REC.with(|r| match r.borrow_mut().as_mut() {
        Some(rec) => {
            rec.stack.push(Open {
                layer,
                start: Instant::now(),
                child: Duration::ZERO,
            });
            Guard(true)
        }
        None => Guard(false),
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.0 {
            return;
        }
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let Some(rec) = r.as_mut() else { return };
            let Some(open) = rec.stack.pop() else { return };
            let d = open.start.elapsed();
            let parent = match rec.stack.last_mut() {
                Some(p) => {
                    p.child += d;
                    p.layer as usize
                }
                None => LAYERS,
            };
            let Some(unit) = rec.units.last_mut() else {
                return;
            };
            if parent == LAYERS {
                unit.top += d;
            }
            let t = &mut unit.layers[open.layer as usize][parent];
            t.calls += 1;
            t.total += d;
            t.self_time += d.saturating_sub(open.child);
        });
    }
}

/// Add to one of the current unit's counts.
pub fn bump(c: Count) {
    REC.with(|r| {
        if let Some(unit) = r.borrow_mut().as_mut().and_then(|rec| rec.units.last_mut()) {
            unit.counts[c as usize] += 1;
        }
    });
}

/// Everything this thread recorded since [`start`].
pub struct Recording {
    pub units: Vec<Unit>,
}

/// Stop recording and hand back the units.
pub fn finish() -> Recording {
    end_unit();
    let rec = REC.with(|r| r.borrow_mut().take());
    Recording {
        units: rec.map(|r| r.units).unwrap_or_default(),
    }
}

impl Recording {
    /// Write every unit span and every folded layer key as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, u) in self.units.iter().enumerate() {
            out.push_str(
                &JsonObject::new()
                    .str("span", "unit")
                    .u64("id", id as u64)
                    .str("label", &u.label)
                    .str("parent", "pass")
                    .f64("start_s", u.start.as_secs_f64())
                    .f64("end_s", u.end.as_secs_f64())
                    .build(),
            );
            out.push('\n');
            for layer in Layer::ALL {
                for (p, t) in u.layers[layer as usize].iter().enumerate() {
                    if t.calls == 0 {
                        continue;
                    }
                    let parent = Layer::ALL.get(p).map_or("unit", |l| l.name());
                    out.push_str(
                        &JsonObject::new()
                            .str("span", layer.name())
                            .u64("id", id as u64)
                            .str("parent", parent)
                            .u64("calls", t.calls)
                            .f64("total_s", t.total.as_secs_f64())
                            .f64("self_s", t.self_time.as_secs_f64())
                            .build(),
                    );
                    out.push('\n');
                }
            }
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_folds_by_parent() {
        start();
        begin_unit("u".into());
        {
            let _outer = span(Layer::XbarResp);
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = span(Layer::Sm);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        {
            let _top = span(Layer::Sm);
        }
        bump(Count::PickCalls);
        let rec = finish();
        let u = &rec.units[0];
        assert_eq!(u.calls(Layer::Sm), 2);
        assert_eq!(
            u.layers[Layer::Sm as usize][Layer::XbarResp as usize].calls,
            1
        );
        assert_eq!(u.layers[Layer::Sm as usize][LAYERS].calls, 1);
        let outer = u.layers[Layer::XbarResp as usize][LAYERS];
        assert!(outer.self_time < outer.total);
        assert!(outer.self_time >= Duration::from_millis(2));
        let selfs: Duration = Layer::ALL.iter().map(|&l| u.self_time(l)).sum();
        assert_eq!(selfs, u.top, "self times partition the outermost spans");
        assert_eq!(u.count(Count::PickCalls), 1);
    }

    #[test]
    fn spans_are_free_when_not_recording() {
        let _g = span(Layer::Sm);
        bump(Count::PickHits);
        assert!(finish().units.is_empty());
    }
}
