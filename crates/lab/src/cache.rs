//! The config-hash-keyed result store.
//!
//! One JSON Lines file per campaign (`<dir>/<campaign>.jsonl`). Each line
//! records one `(point, replication)` measurement keyed by a 128-bit
//! config hash over the campaign name, the point's canonical config key,
//! the replication index, and the derived stream seed. Re-running a
//! campaign after editing one axis therefore re-simulates only the
//! points whose config (or seed derivation) actually changed — unchanged
//! points hit the store and are skipped.
//!
//! The store is append-only: entries from removed points linger, which
//! is deliberate (editing an axis back re-hits them), and a corrupt or
//! half-written trailing line is skipped rather than poisoning the
//! whole store.

use crate::json::Json;
use crate::metrics::Metrics;
use std::collections::HashMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// FNV-1a over bytes, with a selectable offset basis so two passes give
/// 128 independent bits.
fn fnv1a(bytes: &[u8], offset: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = offset;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// A stable 64-bit identity for a point, used as the `point_index`
/// coordinate of the seed-stream derivation. Hashing the config key
/// instead of the positional index keeps a point's seeds (and therefore
/// its cache entries) stable when an axis edit shifts its position in
/// the grid.
#[must_use]
pub(crate) fn point_id(campaign: &str, point_key: &str) -> u64 {
    fnv1a(
        format!("{campaign}\u{1f}{point_key}").as_bytes(),
        0xcbf2_9ce4_8422_2325,
    )
}

/// The 128-bit config hash (as 32 hex chars) keying one
/// `(point, replication)` cache entry.
#[must_use]
pub(crate) fn config_hash(campaign: &str, point_key: &str, replication: u32, seed: u64) -> String {
    let text = format!("{campaign}\u{1f}{point_key}\u{1f}{replication}\u{1f}{seed:016x}");
    let lo = fnv1a(text.as_bytes(), 0xcbf2_9ce4_8422_2325);
    let hi = fnv1a(text.as_bytes(), 0x6c62_272e_07bb_0142);
    format!("{hi:016x}{lo:016x}")
}

/// An on-disk result store for one campaign.
#[derive(Debug)]
pub(crate) struct ResultStore {
    path: PathBuf,
    entries: HashMap<String, Metrics>,
}

impl ResultStore {
    /// Opens (or creates) the store for `campaign` under `dir`, loading
    /// every well-formed line. Lines that fail to parse are ignored.
    ///
    /// # Errors
    ///
    /// Fails if `dir` cannot be created or an existing store cannot be
    /// read.
    pub(crate) fn open(dir: &Path, campaign: &str) -> io::Result<ResultStore> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{campaign}.jsonl"));
        let mut entries = HashMap::new();
        if path.exists() {
            for line in fs::read_to_string(&path)?.lines() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let Ok(record) = Json::parse(line) else {
                    continue;
                };
                let (Some(key), Some(metrics)) = (
                    record.get("key").and_then(Json::as_str),
                    record.get("metrics"),
                ) else {
                    continue;
                };
                if let Ok(metrics) = Metrics::from_json(metrics) {
                    entries.insert(key.to_owned(), metrics);
                }
            }
        }
        Ok(ResultStore { path, entries })
    }

    /// Looks up a cached measurement by config hash.
    #[must_use]
    pub(crate) fn get(&self, hash: &str) -> Option<&Metrics> {
        self.entries.get(hash)
    }

    /// Appends freshly simulated measurements. Each record carries its
    /// full provenance (point key, replication, seed) so the store is
    /// self-describing and greppable.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors writing the store file.
    pub(crate) fn append<'a>(
        &mut self,
        records: impl IntoIterator<Item = NewRecord<'a>>,
    ) -> io::Result<()> {
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        let mut buf = String::new();
        for r in records {
            let line = Json::Obj(vec![
                ("key".into(), Json::Str(r.hash.clone())),
                ("point".into(), Json::Str(r.point_key.to_owned())),
                ("replication".into(), Json::from(u64::from(r.replication))),
                ("seed".into(), Json::Str(format!("{:016x}", r.seed))),
                ("metrics".into(), r.metrics.to_json()),
            ])
            .encode();
            buf.push_str(&line);
            buf.push('\n');
            self.entries.insert(r.hash, r.metrics.clone());
        }
        file.write_all(buf.as_bytes())?;
        Ok(())
    }
}

/// One freshly simulated measurement headed for the store.
#[derive(Debug)]
pub(crate) struct NewRecord<'a> {
    /// Config hash (from [`config_hash`]).
    pub(crate) hash: String,
    /// The point's canonical config key.
    pub(crate) point_key: &'a str,
    /// Replication index.
    pub(crate) replication: u32,
    /// The derived stream seed the run used.
    pub(crate) seed: u64,
    /// The measurement.
    pub(crate) metrics: &'a Metrics,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tsbus-lab-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip_through_disk() {
        let dir = tmp_dir("round");
        let m = Metrics::new().f64("t", 1.25).u64("n", 3);
        let hash = config_hash("camp", "a=1", 0, 42);
        {
            let mut store = ResultStore::open(&dir, "camp").unwrap();
            assert!(store.entries.is_empty());
            store
                .append([NewRecord {
                    hash: hash.clone(),
                    point_key: "a=1",
                    replication: 0,
                    seed: 42,
                    metrics: &m,
                }])
                .unwrap();
        }
        let store = ResultStore::open(&dir, "camp").unwrap();
        assert_eq!(store.entries.len(), 1);
        assert_eq!(store.get(&hash), Some(&m));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_lines_are_skipped() {
        let dir = tmp_dir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        let good = Json::Obj(vec![
            ("key".into(), Json::Str("abc".into())),
            (
                "metrics".into(),
                Json::Obj(vec![("x".into(), Json::I64(1))]),
            ),
        ])
        .encode();
        fs::write(
            dir.join("c.jsonl"),
            format!("not json\n{good}\n{{\"key\": \"truncat"),
        )
        .unwrap();
        let store = ResultStore::open(&dir, "c").unwrap();
        assert_eq!(store.entries.len(), 1);
        assert!(store.get("abc").is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hashes_separate_every_coordinate() {
        let base = config_hash("c", "k", 0, 1);
        assert_ne!(base, config_hash("c2", "k", 0, 1));
        assert_ne!(base, config_hash("c", "k2", 0, 1));
        assert_ne!(base, config_hash("c", "k", 1, 1));
        assert_ne!(base, config_hash("c", "k", 0, 2));
    }

    #[test]
    fn point_ids_are_stable_and_distinct() {
        assert_eq!(point_id("c", "a=1"), point_id("c", "a=1"));
        assert_ne!(point_id("c", "a=1"), point_id("c", "a=2"));
        assert_ne!(point_id("c", "a=1"), point_id("d", "a=1"));
    }
}
