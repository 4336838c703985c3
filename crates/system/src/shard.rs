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

/// The shard count a `shards.meta` text records: exactly `shards=N`, N in
/// decimal without sign or leading zeros and in `1..=MAX_SHARDS`, with
/// surrounding ASCII whitespace (the trailing newline) ignored.
fn parse_meta(text: &str) -> Option<usize> {
    let v = text.trim_ascii().strip_prefix("shards=")?;
    let n = v.parse::<usize>().ok()?;
    ((1..=MAX_SHARDS).contains(&n) && v == n.to_string()).then_some(n)
}

impl ShardMap {
    /// Open (creating if necessary) the shard map at `dir`. A fresh
    /// directory is laid out with `shards` shard files; an existing one
    /// keeps its recorded count — the on-disk layout is the contract.
    /// Panics where [`Self::try_open`] returns an error.
    pub fn open(dir: &Path, shards: usize) -> ShardMap {
        Self::try_open(dir, shards).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::open`], returning an error that names the file when the
    /// directory or its `shards.meta` cannot be created or read, or the
    /// meta file is corrupt. `shards` itself must be in `1..=4096`.
    pub fn try_open(dir: &Path, shards: usize) -> Result<ShardMap, String> {
        assert!(
            (1..=MAX_SHARDS).contains(&shards),
            "shard count must be in 1..={MAX_SHARDS}, got {shards}"
        );
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create shard dir {}: {e}", dir.display()))?;
        let meta = dir.join(META_FILE);
        let shards = match std::fs::read_to_string(&meta) {
            Ok(text) => parse_meta(&text).ok_or_else(|| {
                format!(
                    "corrupt shard meta {}: {text:?} (want \"shards=N\", N in 1..={MAX_SHARDS})",
                    meta.display()
                )
            })?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // Write-temp-then-rename, like everything else in the map:
                // two racing creators converge on a whole meta file.
                let tmp = dir.join(format!("{META_FILE}.tmp.{}", std::process::id()));
                std::fs::write(&tmp, format!("shards={shards}\n"))
                    .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
                std::fs::rename(&tmp, &meta)
                    .map_err(|e| format!("cannot commit {}: {e}", meta.display()))?;
                shards
            }
            Err(e) => return Err(format!("cannot read {}: {e}", meta.display())),
        };
        Ok(ShardMap {
            dir: dir.to_path_buf(),
            shards,
        })
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

    #[test]
    fn try_open_names_a_corrupt_or_unreadable_meta_file() {
        let dir = tmp("trymeta");
        std::fs::create_dir_all(&dir).unwrap();
        let meta = dir.join(META_FILE);
        for bytes in [&b"shards=zero\n"[..], b"shards=0\n", b"\xff\xfe"] {
            std::fs::write(&meta, bytes).unwrap();
            let e = ShardMap::try_open(&dir, 8).unwrap_err();
            assert!(e.contains(&meta.display().to_string()), "{e}");
        }
        std::fs::write(&meta, "shards=3\n").unwrap();
        assert_eq!(ShardMap::try_open(&dir, 8).unwrap().shard_paths().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Seeded byte-level fuzzing of the meta-line parser: mutated valid
    /// lines and random bytes never panic, and a text is accepted only if
    /// it is `shards=N` (N in 1..=4096) up to surrounding ASCII whitespace;
    /// every count round-trips through the line the map writes.
    #[test]
    fn meta_parser_survives_seeded_byte_fuzzing() {
        use ldsim_util::StdRng;
        for n in 1..=MAX_SHARDS {
            assert_eq!(parse_meta(&format!("shards={n}\n")), Some(n));
        }
        for bad in [
            "shards=0",
            "shards=4097",
            "shards=+8",
            "shards=08",
            "shards= 8",
            "Shards=8",
        ] {
            assert_eq!(parse_meta(bad), None, "{bad:?}");
        }
        let seeds: [&[u8]; 4] = [b"shards=8\n", b"shards=4096\n", b"shards=1", b""];
        let alphabet = b"shards=0123456789+- \n\r\t\xff";
        let mut rng = StdRng::seed_from_u64(0x5AAD5);
        let mut accepted = 0usize;
        for case in 0..50_000 {
            let mut bytes = seeds[case % seeds.len()].to_vec();
            for _ in 0..rng.gen_range(1usize..4) {
                let b = if rng.gen_bool(0.7) {
                    alphabet[rng.gen_range(0usize..alphabet.len())]
                } else {
                    rng.gen_range(0u8..=255)
                };
                let at = rng.gen_range(0usize..=bytes.len());
                match rng.gen_range(0u32..3) {
                    0 => bytes.insert(at, b),
                    1 if at < bytes.len() => bytes[at] = b,
                    _ if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.push(b),
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            if let Some(n) = parse_meta(&text) {
                accepted += 1;
                assert!((1..=MAX_SHARDS).contains(&n), "{text:?}");
                assert_eq!(text.trim_ascii(), format!("shards={n}"), "{text:?}");
            }
        }
        assert!(accepted > 100, "only {accepted} mutated lines still parsed");
    }
}
