//! Zero-dependency support library for the ldsim workspace.
//!
//! The build environment is fully offline, so everything that would
//! normally come from small external crates lives here instead:
//!
//! * [`rng`] — a deterministic, seedable PRNG (xoshiro256**) with the
//!   `gen_range` / `gen_bool` surface the workload generators use;
//! * [`json`] — a minimal JSON object writer for the JSONL exports
//!   (results and event traces);
//! * [`hash`] — streaming FNV-1a 64-bit hashing for stable trace hashes;
//! * [`par`] — a scoped worker-pool `parallel_map` replacing rayon in the
//!   experiment runner, plus the simulator's intra-run [`BarrierPool`];
//! * [`cli`] — the named-error exit path of the binaries' argument parsers.

pub mod cli;
pub mod hash;
pub mod json;
pub mod par;
pub mod rng;

pub use cli::{cli_fail, cli_parse, cli_pos, cli_value};
pub use hash::{Fnv64, FnvBuildHasher, FnvHashMap, FnvHashSet, FnvHasher};
pub use json::{parse_object, JsonObject, JsonValue, ParsedObject};
pub use par::{jobs, parallel_map, set_jobs, set_sim_threads, sim_threads, BarrierPool};
pub use rng::StdRng;
