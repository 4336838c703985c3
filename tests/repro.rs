//! One figure alone renders the same bytes as the whole sweep: one deduped
//! pass over the whole registry must render every figure's JSONL
//! byte-identically to sweeping that figure's cells alone — the property
//! that lets `repro --only <figure>` stand for the full `repro` run.

use ldsim_bench::figures::registry;
use ldsim_system::sweep::{run_sweep, SweepConfig};
use ldsim_workloads::Scale;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ldsim-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn global_sweep_matches_per_figure_sweeps_byte_for_byte() {
    let (scale, seed) = (Scale::Tiny, 1);
    let dir = tmp("repro-equivalence");

    // One global pass over every figure's cells, shared and deduped.
    let specs = registry(scale, seed);
    let all_cells: Vec<_> = specs.iter().flat_map(|s| s.cells.iter().copied()).collect();
    let (global_store, stats) = run_sweep(&all_cells, &SweepConfig::default());
    assert!(
        stats.unique * 2 < stats.declared,
        "global dedup should collapse shared grids: {} unique of {}",
        stats.unique,
        stats.declared
    );
    let global_dir = dir.join("global");
    for spec in &specs {
        (spec.render)(&global_store, &global_dir);
    }

    // Each figure alone, the way `repro --only <figure>` runs it.
    let solo_dir = dir.join("solo");
    for spec in &specs {
        let (store, _) = run_sweep(&spec.cells, &SweepConfig::default());
        (spec.render)(&store, &solo_dir);
    }

    // Every JSONL either path produced must exist in the other and match
    // byte-for-byte.
    let mut compared = 0;
    for entry in std::fs::read_dir(&global_dir).unwrap() {
        let name = entry.unwrap().file_name();
        let g = std::fs::read(global_dir.join(&name)).unwrap();
        let s = std::fs::read(solo_dir.join(&name))
            .unwrap_or_else(|e| panic!("{name:?} missing from solo run: {e}"));
        assert_eq!(
            g, s,
            "{name:?}: global-sweep bytes differ from solo-figure bytes"
        );
        compared += 1;
    }
    assert_eq!(
        compared,
        std::fs::read_dir(&solo_dir).unwrap().count(),
        "solo run produced files the global run did not"
    );
    assert!(compared >= 15, "expected every dumping figure: {compared}");
    let _ = std::fs::remove_dir_all(&dir);
}
