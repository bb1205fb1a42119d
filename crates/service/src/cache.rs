//! Content-addressed, crash-safe result cache.
//!
//! Conclusive verdicts are keyed by a stable FNV-1a hash of a canonical
//! job descriptor (processor shape + method + bound + mutation + encoding
//! knobs — budgets excluded, since only conclusive verdicts are cached and
//! those are budget-independent).  Each entry is one small file:
//!
//! ```text
//! sepe-cache-v1 <16-hex checksum>
//! <canonical descriptor>
//! <verdict core JSON>
//! ```
//!
//! written to a temp name, fsynced, then atomically renamed into place —
//! so a `kill -9` at any instant leaves every entry either fully present
//! or fully absent, never torn.  The startup recovery scan re-verifies
//! every entry's checksum and its name-vs-descriptor binding, deleting
//! anything that fails (a torn rename cannot happen, but a corrupted disk
//! block or a hostile edit can), and discards leftover temp files.
//!
//! Entries are sharded across 16 subdirectories by the low nibble of the
//! key so no single directory grows unboundedly.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use sepe_processor::ProcessorConfig;
use sepe_smt::stable_hash;
use sepe_sqed::detect::Method;

use sepe_tsys::ProofMethod;

use crate::protocol::{method_name, proof_method_name};

/// Format tag of entry files; bump when the descriptor or verdict schema
/// changes so stale caches self-invalidate.
pub const CACHE_FORMAT: &str = "sepe-cache-v1";

/// Marker file whose presence on startup means the previous run flushed
/// and exited cleanly.
const CLEAN_MARKER: &str = "CLEAN";

/// What the startup recovery scan found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Entries that verified and were loaded.
    pub recovered: u64,
    /// Entries that failed checksum or binding checks and were deleted.
    pub corrupted: u64,
    /// Leftover temp files from interrupted writes, discarded.
    pub temps_discarded: u64,
    /// Whether the previous run shut down cleanly (flushed marker found).
    pub clean_shutdown: bool,
}

/// Builds the canonical descriptor string a job is cached under.  Opcodes
/// are sorted and deduplicated so permuted-but-equal universes share an
/// entry.
pub fn job_descriptor(
    processor: &ProcessorConfig,
    method: Method,
    bound: usize,
    mutation: Option<&str>,
    simplify: bool,
    aig: bool,
    prove: Option<ProofMethod>,
) -> String {
    let mut ops: Vec<&str> = processor
        .allowed_opcodes
        .iter()
        .map(|op| op.mnemonic())
        .collect();
    ops.sort_unstable();
    ops.dedup();
    format!(
        "sepe-job-v3|xlen={}|mem={}|hist={}|ops={}|method={}|mut={}|bound={}|simplify={}|aig={}|prove={}",
        processor.xlen,
        processor.mem_words,
        processor.history_depth,
        ops.join(","),
        method_name(method),
        mutation.unwrap_or("clean"),
        bound,
        u8::from(simplify),
        u8::from(aig),
        prove.map_or("none", proof_method_name),
    )
}

/// The content-addressed key of a descriptor.
pub fn cache_key(descriptor: &str) -> u64 {
    stable_hash(descriptor.as_bytes())
}

struct Entry {
    descriptor: String,
    verdict_json: String,
}

/// A persistent verdict cache rooted at one directory.
pub struct ResultCache {
    root: PathBuf,
    entries: Mutex<HashMap<u64, Entry>>,
}

impl ResultCache {
    /// Opens (creating if needed) the cache at `root`, running the
    /// recovery scan.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<(ResultCache, RecoveryStats)> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let mut stats = RecoveryStats::default();
        let marker = root.join(CLEAN_MARKER);
        if marker.exists() {
            stats.clean_shutdown = true;
            // Remove it: only a future `flush` earns it back, so a crash
            // after this point is visible on the next open.
            fs::remove_file(&marker)?;
        }
        let mut entries = HashMap::new();
        for shard in 0u64..16 {
            let dir = root.join(format!("{shard:02x}"));
            if !dir.is_dir() {
                continue;
            }
            for item in fs::read_dir(&dir)? {
                let path = item?.path();
                let name = match path.file_name().and_then(|n| n.to_str()) {
                    Some(n) => n.to_string(),
                    None => continue,
                };
                if name.starts_with(".tmp-") {
                    let _ = fs::remove_file(&path);
                    stats.temps_discarded += 1;
                    continue;
                }
                let Some(stem) = name.strip_suffix(".entry") else {
                    continue;
                };
                match Self::load_entry(&path, stem, shard) {
                    Some((key, entry)) => {
                        entries.insert(key, entry);
                        stats.recovered += 1;
                    }
                    None => {
                        let _ = fs::remove_file(&path);
                        stats.corrupted += 1;
                    }
                }
            }
        }
        Ok((
            ResultCache {
                root,
                entries: Mutex::new(entries),
            },
            stats,
        ))
    }

    /// Verifies one entry file end to end; `None` means torn/corrupt.
    fn load_entry(path: &Path, stem: &str, shard: u64) -> Option<(u64, Entry)> {
        let key = u64::from_str_radix(stem, 16).ok()?;
        if key % 16 != shard {
            return None;
        }
        let text = fs::read_to_string(path).ok()?;
        let mut lines = text.splitn(3, '\n');
        let header = lines.next()?;
        let descriptor = lines.next()?;
        let verdict_json = lines.next()?.strip_suffix('\n')?;
        let claimed = header.strip_prefix(CACHE_FORMAT)?.trim();
        let actual = Self::checksum(descriptor, verdict_json);
        if claimed != actual {
            return None;
        }
        if cache_key(descriptor) != key {
            return None;
        }
        Some((
            key,
            Entry {
                descriptor: descriptor.to_string(),
                verdict_json: verdict_json.to_string(),
            },
        ))
    }

    fn checksum(descriptor: &str, verdict_json: &str) -> String {
        let mut bytes = Vec::with_capacity(descriptor.len() + verdict_json.len() + 1);
        bytes.extend_from_slice(descriptor.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(verdict_json.as_bytes());
        format!("{:016x}", stable_hash(&bytes))
    }

    /// The cache's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up the stored verdict JSON for a descriptor.  The stored
    /// descriptor is compared byte-for-byte as a guard against (however
    /// unlikely) 64-bit hash collisions.
    pub fn lookup(&self, descriptor: &str) -> Option<String> {
        let entries = self.entries.lock().unwrap();
        let entry = entries.get(&cache_key(descriptor))?;
        (entry.descriptor == descriptor).then(|| entry.verdict_json.clone())
    }

    /// Persists a verdict: temp file, fsync, atomic rename.  Returns once
    /// the entry is durable, so a crash immediately after a job's reply
    /// frame loses nothing.
    pub fn insert(&self, descriptor: &str, verdict_json: &str) -> io::Result<()> {
        let key = cache_key(descriptor);
        let shard = self.root.join(format!("{:02x}", key % 16));
        fs::create_dir_all(&shard)?;
        let tmp = shard.join(format!(".tmp-{key:016x}"));
        let final_path = shard.join(format!("{key:016x}.entry"));
        {
            let mut file = fs::File::create(&tmp)?;
            writeln!(
                file,
                "{CACHE_FORMAT} {}",
                Self::checksum(descriptor, verdict_json)
            )?;
            writeln!(file, "{descriptor}")?;
            writeln!(file, "{verdict_json}")?;
            file.sync_all()?;
        }
        fs::rename(&tmp, &final_path)?;
        self.entries.lock().unwrap().insert(
            key,
            Entry {
                descriptor: descriptor.to_string(),
                verdict_json: verdict_json.to_string(),
            },
        );
        Ok(())
    }

    /// Marks a clean shutdown.  Entries are already durable individually;
    /// this only records that the process exited in an orderly way.
    pub fn flush(&self) -> io::Result<()> {
        let mut file = fs::File::create(self.root.join(CLEAN_MARKER))?;
        writeln!(file, "clean")?;
        file.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sepe-cache-test-{}-{}-{}",
            tag,
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn descriptor(bound: usize) -> String {
        job_descriptor(
            &ProcessorConfig::tiny(),
            Method::SepeSqed,
            bound,
            Some("single-add"),
            true,
            true,
            None,
        )
    }

    #[test]
    fn insert_then_reopen_recovers_entries() {
        let dir = scratch_dir("roundtrip");
        {
            let (cache, stats) = ResultCache::open(&dir).unwrap();
            assert_eq!(stats, RecoveryStats::default());
            cache
                .insert(&descriptor(2), r#"{"detected":true}"#)
                .unwrap();
            cache
                .insert(&descriptor(3), r#"{"detected":false}"#)
                .unwrap();
            assert_eq!(
                cache.lookup(&descriptor(2)).as_deref(),
                Some(r#"{"detected":true}"#)
            );
            // No flush: simulates a crash-stop.
        }
        let (cache, stats) = ResultCache::open(&dir).unwrap();
        assert_eq!(stats.recovered, 2);
        assert_eq!(stats.corrupted, 0);
        assert!(!stats.clean_shutdown);
        assert_eq!(
            cache.lookup(&descriptor(3)).as_deref(),
            Some(r#"{"detected":false}"#)
        );
        assert_eq!(cache.lookup(&descriptor(9)), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_marks_clean_shutdown_exactly_once() {
        let dir = scratch_dir("clean");
        {
            let (cache, _) = ResultCache::open(&dir).unwrap();
            cache.insert(&descriptor(2), "{}").unwrap();
            cache.flush().unwrap();
        }
        let (_, stats) = ResultCache::open(&dir).unwrap();
        assert!(stats.clean_shutdown, "marker written by flush");
        let (_, stats) = ResultCache::open(&dir).unwrap();
        assert!(!stats.clean_shutdown, "marker consumed by the open");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_and_tampered_entries_are_discarded() {
        let dir = scratch_dir("torn");
        let (cache, _) = ResultCache::open(&dir).unwrap();
        cache
            .insert(&descriptor(2), r#"{"detected":true}"#)
            .unwrap();
        cache
            .insert(&descriptor(3), r#"{"detected":true}"#)
            .unwrap();
        drop(cache);

        // Tamper with one entry's payload (checksum now fails), truncate
        // the other mid-file, and plant a stale temp file.
        let key2 = cache_key(&descriptor(2));
        let key3 = cache_key(&descriptor(3));
        let path2 = dir
            .join(format!("{:02x}", key2 % 16))
            .join(format!("{key2:016x}.entry"));
        let path3 = dir
            .join(format!("{:02x}", key3 % 16))
            .join(format!("{key3:016x}.entry"));
        let text = fs::read_to_string(&path2).unwrap();
        fs::write(&path2, text.replace("true", "false")).unwrap();
        let text = fs::read_to_string(&path3).unwrap();
        fs::write(&path3, &text.as_bytes()[..text.len() / 2]).unwrap();
        fs::write(path2.parent().unwrap().join(".tmp-dead"), b"partial").unwrap();

        let (cache, stats) = ResultCache::open(&dir).unwrap();
        assert_eq!(stats.recovered, 0);
        assert_eq!(stats.corrupted, 2);
        assert_eq!(stats.temps_discarded, 1);
        assert!(cache.is_empty());
        assert!(!path2.exists() && !path3.exists(), "bad entries deleted");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn descriptor_canonicalises_opcode_order() {
        use sepe_isa::Opcode;
        let a = ProcessorConfig {
            allowed_opcodes: vec![Opcode::Add, Opcode::Sub],
            ..ProcessorConfig::tiny()
        };
        let b = ProcessorConfig {
            allowed_opcodes: vec![Opcode::Sub, Opcode::Add, Opcode::Sub],
            ..ProcessorConfig::tiny()
        };
        assert_eq!(
            job_descriptor(&a, Method::Sqed, 2, None, true, false, None),
            job_descriptor(&b, Method::Sqed, 2, None, true, false, None),
        );
        assert_ne!(
            job_descriptor(&a, Method::Sqed, 2, None, true, false, None),
            job_descriptor(&a, Method::Sqed, 3, None, true, false, None),
        );
    }
}
