//! The sharded cell log: the on-disk half of the content-addressed cell
//! cache, N append-only shard files.
//!
//! ## Layout
//!
//! A shard map is a directory:
//!
//! ```text
//! <dir>/shards.meta                 "shards=8\n" — the layout contract
//! <dir>/shard-0000-of-0008.jsonl    rows whose cellkey % 8 == 0
//! <dir>/shard-0001-of-0008.jsonl    ...
//! ```
//!
//! Every row is one self-describing JSONL line (see
//! [`crate::sweep::cache_row`]): FNV-1a cellkey, engine salt,
//! config fingerprint, full [`RunResult`](crate::RunResult). The shard of
//! a row is `cellkey % shards` — the FNV keyspace is uniform, so shards
//! stay balanced without any placement logic. The shard count is fixed at
//! creation and recorded in `shards.meta`; opening an existing map with a
//! different requested count keeps the on-disk layout (the meta file wins)
//! so rows are never scattered across two geometries.
//!
//! ## Junk rows
//!
//! Shard files are append-only and never rewritten. A crash mid-append
//! leaves a torn final line, and an engine-salt bump leaves stale rows
//! behind; the loader skips both (a stale row costs a re-simulation, never
//! a wrong answer), and `repro --cold` starts a store afresh. An append
//! after a torn tail starts a new line first, so the torn fragment never
//! swallows a good row.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Name of the layout-contract file inside a shard directory.
const META_FILE: &str = "shards.meta";

/// Hard ceiling on the shard count — far above any sensible layout, low
/// enough that a corrupt `shards.meta` cannot create a directory with
/// millions of files.
const MAX_SHARDS: usize = 4096;

/// A sharded append-only cell log rooted at one directory.
#[derive(Debug, Clone)]
pub struct ShardMap {
    dir: PathBuf,
    shards: usize,
}

impl ShardMap {
    /// Open (creating if necessary) the shard map at `dir`. A fresh
    /// directory is laid out with `shards` shard files; an existing one
    /// keeps its recorded count — the on-disk layout is the contract.
    pub fn open(dir: &Path, shards: usize) -> ShardMap {
        assert!(
            (1..=MAX_SHARDS).contains(&shards),
            "shard count must be in 1..={MAX_SHARDS}, got {shards}"
        );
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create shard dir {}: {e}", dir.display()));
        let meta = dir.join(META_FILE);
        let shards = match std::fs::read_to_string(&meta) {
            Ok(text) => {
                let n = text
                    .trim()
                    .strip_prefix("shards=")
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|n| (1..=MAX_SHARDS).contains(n))
                    .unwrap_or_else(|| {
                        panic!(
                            "corrupt shard meta {}: {text:?} (want \"shards=N\")",
                            meta.display()
                        )
                    });
                n
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // Write-temp-then-rename, like everything else in the map:
                // two racing creators converge on a whole meta file.
                let tmp = dir.join(format!("{META_FILE}.tmp.{}", std::process::id()));
                std::fs::write(&tmp, format!("shards={shards}\n"))
                    .unwrap_or_else(|e| panic!("cannot write {}: {e}", tmp.display()));
                std::fs::rename(&tmp, &meta)
                    .unwrap_or_else(|e| panic!("cannot commit {}: {e}", meta.display()));
                shards
            }
            Err(e) => panic!("cannot read {}: {e}", meta.display()),
        };
        ShardMap {
            dir: dir.to_path_buf(),
            shards,
        }
    }

    /// Which shard a cellkey lives in. FNV-1a keys are uniform over `u64`,
    /// so a plain modulus balances the shards.
    pub fn shard_of(&self, key: u64) -> usize {
        (key % self.shards as u64) as usize
    }

    /// Path of shard `i` (`shard-0003-of-0008.jsonl`).
    pub fn shard_path(&self, i: usize) -> PathBuf {
        assert!(i < self.shards);
        self.dir
            .join(format!("shard-{i:04}-of-{:04}.jsonl", self.shards))
    }

    /// Every shard path in index order (whether or not the file exists yet
    /// — shards are created lazily on first append).
    pub fn shard_paths(&self) -> Vec<PathBuf> {
        (0..self.shards).map(|i| self.shard_path(i)).collect()
    }

    /// Append one serialized row (must be newline-terminated) under `key`.
    /// Single `write_all`, so a crash tears at most the final line of one
    /// shard, which the loader skips. If the shard already ends in such a
    /// torn line, the row starts a new line instead of being glued onto it.
    /// Racing appenders can at worst both do so, leaving an empty line that
    /// the loader ignores.
    pub fn append(&self, key: u64, row: &str) {
        debug_assert!(row.ends_with('\n'), "cache rows are newline-framed");
        let path = self.shard_path(self.shard_of(key));
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("cannot open shard {}: {e}", path.display()));
        // An empty shard cannot seek to -1, and has no tail to tear.
        let mut last = [b'\n'];
        if f.seek(SeekFrom::End(-1)).is_ok() {
            f.read_exact(&mut last)
                .unwrap_or_else(|e| panic!("cannot read shard {}: {e}", path.display()));
        }
        let framed;
        let bytes = if last[0] == b'\n' {
            row
        } else {
            framed = format!("\n{row}");
            &framed
        };
        f.write_all(bytes.as_bytes())
            .unwrap_or_else(|e| panic!("shard append failed ({}): {e}", path.display()));
    }

    /// Total bytes across all shard files (missing shards count zero).
    pub fn total_bytes(&self) -> u64 {
        self.shard_paths()
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ldsim-shard-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn row(key: u64, salt: &str, payload: u64) -> String {
        format!("{{\"cellkey\":\"{key:016x}\",\"engine\":\"{salt}\",\"payload\":{payload}}}\n")
    }

    #[test]
    fn keys_route_to_their_shard_and_meta_pins_the_layout() {
        let dir = tmp("route");
        let map = ShardMap::open(&dir, 4);
        assert_eq!(map.shard_paths().len(), 4);
        for key in [0u64, 1, 5, 7, 1 << 60] {
            map.append(key, &row(key, "s", 1));
        }
        // Every row landed in the file its key maps to.
        for i in 0..4 {
            let text = std::fs::read_to_string(map.shard_path(i)).unwrap_or_default();
            for line in text.lines() {
                let obj = ldsim_util::parse_object(line).unwrap();
                let key = u64::from_str_radix(obj.req_str("cellkey").unwrap(), 16).unwrap();
                assert_eq!(map.shard_of(key), i);
            }
        }
        // Re-opening with a different requested count keeps the layout.
        let reopened = ShardMap::open(&dir, 16);
        assert_eq!(
            reopened.shard_paths(),
            map.shard_paths(),
            "shards.meta must win over the caller"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_after_a_torn_tail_starts_a_new_line() {
        let dir = tmp("torn");
        let map = ShardMap::open(&dir, 2);
        map.append(2, &row(2, "s", 1));
        // A crash mid-append leaves a final line with no newline.
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(map.shard_path(0))
                .unwrap();
            write!(f, "{{\"cellkey\":\"0000000000000004\",\"eng").unwrap();
        }
        map.append(4, &row(4, "s", 2));
        map.append(6, &row(6, "s", 3));
        let text = std::fs::read_to_string(map.shard_path(0)).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        assert!(ldsim_util::parse_object(lines[1]).is_err(), "torn line");
        for (line, (key, payload)) in
            [lines[0], lines[2], lines[3]]
                .into_iter()
                .zip([(2, 1), (4, 2), (6, 3)])
        {
            assert_eq!(line, row(key, "s", payload).trim_end(), "{text}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "corrupt shard meta")]
    fn corrupt_meta_is_refused() {
        let dir = tmp("badmeta");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(META_FILE), "shards=zero\n").unwrap();
        ShardMap::open(&dir, 8);
    }
}
