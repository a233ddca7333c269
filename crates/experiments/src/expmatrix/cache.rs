//! On-disk result cache, content-addressed by cell-key digest.
//!
//! One JSON file per cell, named `<hex16-digest>.json`, holding:
//!
//! ```json
//! { "schema": 1,
//!   "key": { "cell": {...}, "contract": {...} },
//!   "result": {...},
//!   "result_digest": "a1b2c3d4e5f60789" }
//! ```
//!
//! The cache trusts nothing it reads back. A load re-verifies, in order:
//! the file parses, the entry schema matches, the stored key's canonical
//! digest equals the filename digest (so a renamed or hand-edited entry
//! can't masquerade), the stored key equals the probe key byte-for-byte
//! (defense against digest collisions), and the stored result's canonical
//! digest matches `result_digest` (so truncation or bit-rot inside the
//! result is caught). Any failure is [`Lookup::Invalid`] — treated as a
//! miss, never a panic — and the next store overwrites the bad entry.
//!
//! Stores write to a temp file in the same directory and rename into
//! place, so concurrent readers only ever see whole entries.

use std::path::{Path, PathBuf};

use testkit::digest::{canonical_digest, hex16};
use testkit::json::{self, canonical, Value};

use super::CACHE_SCHEMA;

/// Outcome of probing the cache for one cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup {
    /// A validated entry; the payload is the cell's cached result.
    Hit(Value),
    /// No entry on disk.
    Miss,
    /// An entry existed but failed verification (corrupt, truncated, or
    /// written by a different layout); callers treat it as a miss.
    Invalid,
}

/// A cache directory. Cheap to construct; the directory is created lazily
/// on the first store.
#[derive(Debug, Clone)]
pub struct Cache {
    dir: PathBuf,
}

impl Cache {
    /// A cache rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Cache {
        Cache { dir: dir.into() }
    }

    /// Path of the entry for a digest.
    pub fn entry_path(&self, digest: u64) -> PathBuf {
        self.dir.join(format!("{}.json", hex16(digest)))
    }

    /// Probe for a cell's result, verifying the entry end to end.
    pub fn load(&self, digest: u64, key: &Value) -> Lookup {
        let path = self.entry_path(digest);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Lookup::Miss,
            // Unreadable (permissions, I/O error): unusable entry.
            Err(_) => return Lookup::Invalid,
        };
        match verify_entry(&text, digest, key) {
            Some(result) => Lookup::Hit(result),
            None => Lookup::Invalid,
        }
    }

    /// Store a cell's result, creating the cache directory if needed.
    pub fn store(&self, digest: u64, key: &Value, result: &Value) -> Result<(), String> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("create {}: {e}", self.dir.display()))?;
        let mut entry = std::collections::BTreeMap::new();
        entry.insert("schema".to_string(), Value::Number(CACHE_SCHEMA));
        entry.insert("key".to_string(), key.clone());
        entry.insert("result".to_string(), result.clone());
        entry.insert("result_digest".to_string(), Value::String(hex16(canonical_digest(result))));
        let text = canonical(&Value::Object(entry));

        let path = self.entry_path(digest);
        let tmp = tmp_path(&path);
        std::fs::write(&tmp, text.as_bytes())
            .map_err(|e| format!("write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("rename {}: {e}", path.display()))?;
        Ok(())
    }
}

/// Sibling temp path for atomic-rename stores.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Full verification chain; `None` on any mismatch.
fn verify_entry(text: &str, digest: u64, key: &Value) -> Option<Value> {
    let entry = json::parse(text).ok()?;
    if entry.get("schema").and_then(Value::as_f64) != Some(CACHE_SCHEMA) {
        return None;
    }
    let stored_key = entry.get("key")?;
    if canonical_digest(stored_key) != digest || stored_key != key {
        return None;
    }
    let result = entry.get("result")?;
    let declared = entry.get("result_digest").and_then(Value::as_str)?;
    if hex16(canonical_digest(result)) != declared {
        return None;
    }
    Some(result.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("expmatrix-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> (u64, Value, Value) {
        let key = json::parse(r#"{"cell":{"seed":1},"contract":{"v":1}}"#).unwrap();
        let digest = canonical_digest(&key);
        let result = json::parse(r#"{"scalars":{"avg":2.5}}"#).unwrap();
        (digest, key, result)
    }

    #[test]
    fn roundtrip_and_miss() {
        let dir = scratch("roundtrip");
        let cache = Cache::new(&dir);
        let (digest, key, result) = sample();
        assert_eq!(cache.load(digest, &key), Lookup::Miss);
        cache.store(digest, &key, &result).unwrap();
        assert_eq!(cache.load(digest, &key), Lookup::Hit(result));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_is_invalid_not_panic() {
        let dir = scratch("truncate");
        let cache = Cache::new(&dir);
        let (digest, key, result) = sample();
        cache.store(digest, &key, &result).unwrap();
        let path = cache.entry_path(digest);
        let text = std::fs::read_to_string(&path).unwrap();
        for cut in [0, 1, text.len() / 2, text.len() - 1] {
            std::fs::write(&path, &text.as_bytes()[..cut]).unwrap();
            assert_eq!(cache.load(digest, &key), Lookup::Invalid, "cut at {cut}");
        }
        // Re-store repairs the entry.
        cache.store(digest, &key, &result).unwrap();
        assert_eq!(cache.load(digest, &key), Lookup::Hit(result));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_result_is_invalid() {
        let dir = scratch("tamper");
        let cache = Cache::new(&dir);
        let (digest, key, result) = sample();
        cache.store(digest, &key, &result).unwrap();
        let path = cache.entry_path(digest);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("2.5", "9.9")).unwrap();
        assert_eq!(cache.load(digest, &key), Lookup::Invalid);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_under_wrong_digest_is_invalid() {
        // A key collision (or a renamed file) must not serve a foreign
        // result: the stored key is compared in full.
        let dir = scratch("collide");
        let cache = Cache::new(&dir);
        let (digest, key, result) = sample();
        cache.store(digest, &key, &result).unwrap();
        let other_key = json::parse(r#"{"cell":{"seed":2},"contract":{"v":1}}"#).unwrap();
        let other_digest = canonical_digest(&other_key);
        std::fs::rename(cache.entry_path(digest), cache.entry_path(other_digest)).unwrap();
        assert_eq!(cache.load(other_digest, &other_key), Lookup::Invalid);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
