//! GPU memory controller framework and baseline schedulers.
//!
//! The controller mirrors Fig. 1 of the paper: requests arrive from the
//! memory partition into bounded **read/write queues**; a **transaction
//! scheduler** (the pluggable [`Policy`]) picks which request to service
//! next and expands it into DRAM commands placed in **per-bank command
//! queues**; a **command scheduler** issues one legal command per cycle to
//! the GDDR5 [`ldsim_gddr5::Channel`], interleaving bank groups first (the
//! multi-level round-robin of Section II-C). Writes are buffered and drained
//! in batches between high/low watermarks so the bus rarely turns around.
//!
//! Baseline policies implemented here:
//!
//! * [`policies::Fcfs`] — strict arrival order (motivation, Section III-A);
//! * [`policies::FrFcfs`] — first-ready FCFS \[Rixner+ ISCA'00\];
//! * [`policies::Gmc`] — the throughput-optimised GPU memory controller
//!   baseline with row-hit streams, streak limits and age-based starvation
//!   avoidance (Section II-C);
//! * [`policies::Wafcfs`] — warp-group FCFS \[Yuan+ MICRO'08\]
//!   (Section VI-C.2);
//! * [`policies::Sbwas`] — single-bank warp-aware scheduling with a
//!   potential function \[Lakshminarayana+ CAL'11\] (Section VI-C.1).
//!
//! The paper's warp-aware schedulers (WG, WG-M, WG-Bw, WG-W) implement the
//! same [`Policy`] trait from the `ldsim-warpsched` crate.
//!
//! The controller also hosts the *Zero Latency Divergence* ideal model of
//! Fig. 4: once the first DRAM request of a warp-group has been serviced
//! anywhere, the rest of the group's requests bypass bank timing and pay
//! only data-bus bandwidth ([`Controller::fast_track_group`]).

pub mod controller;
mod fronts;
pub mod group;
pub mod policies;
pub mod policy;

pub use controller::{Controller, CtrlStats};
pub use group::{GroupState, GroupTracker};
pub use policies::make_baseline_policy;
pub use policy::{BankSnapshot, CoordMsg, Policy, PolicyView, SCORE_HIT, SCORE_MISS};
