#![deny(unsafe_code)]
#![deny(
    clippy::undocumented_unsafe_blocks,
    clippy::multiple_unsafe_ops_per_block
)]
//! Durable, content-fingerprinted store for checkpoints and run
//! outcomes.
//!
//! A sweep run is a pure function of its scenario, seed, and round
//! budget, so its artifacts can be cached under a [`Fingerprint`] of
//! exactly those inputs and reused by any later process — a sweep
//! killed at 60% restarts and recomputes only what is missing. The
//! store's one hard rule is that it must never *change* a result:
//! every load re-verifies the entry end to end (manifest shape, store
//! version, entry kind, full fingerprint, payload length, payload
//! SHA-256) and any discrepancy — truncation, bit flips, version
//! skew, path collisions, torn concurrent writes — degrades to a
//! typed [`StoreMiss`], which callers treat as "recompute". A corrupt
//! store can cost time; it cannot cost correctness.
//!
//! Layout: each entry lives at `entries/<short-hex>/` with two blobs,
//! `manifest` (81 fixed bytes, written last) and `payload`. The
//! directory name is a deliberately *truncated* fingerprint — the
//! manifest carries the full 32 bytes, so directory collisions are
//! detected on load rather than silently served, and tests can
//! actually construct them. Blob storage is pluggable via
//! [`StoreBackend`]; [`LocalDirBackend`] publishes via temp-file +
//! rename so readers never observe a torn blob.
//!
//! Policy knobs ([`UsePolicy`], [`CapturePolicy`]) let callers pick
//! where on the trust/freshness spectrum a sweep sits; the default
//! (`IfFresh` + `IfMissing`) reuses verified entries and fills gaps.
//! See docs/CHECKPOINTS.md § Durable store.
//!
//! Keys and payload checks are SHA-256 ([`Sha256`]). On x86-64 CPUs
//! with the SHA extensions the block function runs on them; elsewhere
//! a portable loop computes the same bytes. That call is the crate's
//! only `unsafe`: the root denies `unsafe_code` (every other crate
//! forbids it), and only the block-function dispatch in `fingerprint`
//! allows it, with a `// SAFETY:` comment naming the detected features.

mod backend;
mod fingerprint;

pub use backend::{LocalDirBackend, MemBackend, StoreBackend};
pub use fingerprint::{Fingerprint, FingerprintBuilder, Sha256};

use std::io;
use std::path::PathBuf;

/// Manifest magic: `"ANTS"` little-endian, sibling of the checkpoint
/// stream's `"ANTA"`.
pub const STORE_MAGIC: u32 = 0x414E_5453;

/// On-disk manifest format version. Entries written by any other
/// version are misses ([`StoreMiss::VersionSkew`]), never errors.
///
/// Bumped to 2 when the simulator's per-ant randomness became
/// counter-keyed: every seed's output changed, so outcomes archived
/// under version 1 would be wrong hits. Bumped to 3 when arena wander
/// moved to per-ant keyed draws: every arena scenario's output changed.
pub const STORE_VERSION: u32 = 3;

/// Exact manifest size: magic(4) + version(4) + kind(1) +
/// fingerprint(32) + payload len(8) + payload SHA-256(32).
pub const MANIFEST_LEN: usize = 81;

/// What an entry's payload contains. The kind byte travels in the
/// manifest so a checkpoint can never be decoded as an outcome row
/// (or vice versa) even if their fingerprints were somehow confused.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EntryKind {
    /// A serialized `antalloc_sim::Checkpoint` stream.
    Checkpoint,
    /// An encoded sweep outcome row.
    Outcome,
}

impl EntryKind {
    fn tag(self) -> u8 {
        match self {
            EntryKind::Checkpoint => 0,
            EntryKind::Outcome => 1,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(EntryKind::Checkpoint),
            1 => Some(EntryKind::Outcome),
            _ => None,
        }
    }
}

/// When a sweep consults the store before running.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum UsePolicy {
    /// Never read the store; every run recomputes.
    Never,
    /// Use entries that verify end to end; recompute on any miss.
    #[default]
    IfFresh,
    /// Every run must be served from the store; a miss is an error.
    /// For replay-only pipelines where recomputation would hide an
    /// incomplete or corrupted archive.
    Require,
}

/// When a sweep writes artifacts back to the store.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CapturePolicy {
    /// Never write.
    Never,
    /// Write entries that are missing or fail verification.
    #[default]
    IfMissing,
    /// Write every computed result, overwriting verified entries too.
    Always,
}

/// Why a store entry could not be served. Every variant is a safe
/// "recompute" signal — the load path cannot panic on hostile bytes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StoreMiss {
    /// `UsePolicy::Never` — the store was not consulted.
    Disabled,
    /// No manifest published at this fingerprint's path.
    NotFound,
    /// Manifest exists but is not exactly [`MANIFEST_LEN`] bytes
    /// (torn write or truncation).
    TruncatedManifest { len: usize },
    /// Manifest does not start with [`STORE_MAGIC`].
    BadMagic { found: u32 },
    /// Manifest written by a different store format version.
    VersionSkew { found: u32 },
    /// Entry holds a different kind of payload than requested.
    KindMismatch { found: u8 },
    /// Full fingerprint in the manifest differs from the requested
    /// one: a (truncated-)path collision or a relocated entry.
    FingerprintMismatch,
    /// Manifest verified but its payload blob is absent (crash between
    /// the payload and manifest publishes of a concurrent writer).
    PayloadMissing,
    /// Payload blob length disagrees with the manifest.
    PayloadTruncated { expected: u64, found: u64 },
    /// Payload SHA-256 disagrees with the manifest (bit flips).
    ChecksumMismatch,
    /// The backend itself failed (permissions, disk errors).
    Backend { detail: String },
}

impl std::fmt::Display for StoreMiss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreMiss::Disabled => write!(f, "store use disabled by policy"),
            StoreMiss::NotFound => write!(f, "no entry at this fingerprint"),
            StoreMiss::TruncatedManifest { len } => {
                write!(f, "manifest is {len} bytes, expected {MANIFEST_LEN}")
            }
            StoreMiss::BadMagic { found } => {
                write!(
                    f,
                    "manifest magic {found:#010x}, expected {STORE_MAGIC:#010x}"
                )
            }
            StoreMiss::VersionSkew { found } => {
                write!(
                    f,
                    "store format v{found}, this build writes v{STORE_VERSION}"
                )
            }
            StoreMiss::KindMismatch { found } => {
                write!(
                    f,
                    "entry holds payload kind tag {found}, not the requested kind"
                )
            }
            StoreMiss::FingerprintMismatch => {
                write!(
                    f,
                    "manifest fingerprint differs from the requested one (path collision)"
                )
            }
            StoreMiss::PayloadMissing => write!(f, "manifest present but payload blob missing"),
            StoreMiss::PayloadTruncated { expected, found } => {
                write!(f, "payload is {found} bytes, manifest says {expected}")
            }
            StoreMiss::ChecksumMismatch => write!(f, "payload SHA-256 mismatch"),
            StoreMiss::Backend { detail } => write!(f, "store backend error: {detail}"),
        }
    }
}

impl std::error::Error for StoreMiss {}

impl StoreMiss {
    fn backend(err: io::Error) -> Self {
        StoreMiss::Backend {
            detail: err.to_string(),
        }
    }
}

/// Indexed, verifying store of fingerprint-keyed entries.
pub struct CheckpointStore {
    backend: Box<dyn StoreBackend>,
}

impl CheckpointStore {
    /// Opens a store over a local directory.
    pub fn local(root: impl Into<PathBuf>) -> io::Result<Self> {
        Ok(Self::with_backend(Box::new(LocalDirBackend::new(root)?)))
    }

    /// A fresh in-memory store (tests, dry runs).
    pub fn in_memory() -> Self {
        Self::with_backend(Box::new(MemBackend::new()))
    }

    /// Wraps any backend implementation.
    pub fn with_backend(backend: Box<dyn StoreBackend>) -> Self {
        Self { backend }
    }

    /// The backing blob storage — exposed so fault-injection tests can
    /// corrupt entries through the same interface the store uses.
    pub fn backend(&self) -> &dyn StoreBackend {
        &*self.backend
    }

    /// Backend path of the manifest blob for `fp`.
    pub fn manifest_path(fp: &Fingerprint) -> String {
        entry_path(fp, "manifest")
    }

    /// Backend path of the payload blob for `fp`.
    pub fn payload_path(fp: &Fingerprint) -> String {
        entry_path(fp, "payload")
    }

    /// Loads and fully verifies the entry for `fp`. Returns the
    /// payload bytes, or the typed reason the entry is unusable.
    pub fn load(&self, fp: &Fingerprint, kind: EntryKind) -> Result<Vec<u8>, StoreMiss> {
        let manifest = self
            .backend
            .read(&Self::manifest_path(fp))
            .map_err(StoreMiss::backend)?
            .ok_or(StoreMiss::NotFound)?;
        if manifest.len() != MANIFEST_LEN {
            return Err(StoreMiss::TruncatedManifest {
                len: manifest.len(),
            });
        }
        let magic = le_u32(&manifest[0..4]);
        if magic != STORE_MAGIC {
            return Err(StoreMiss::BadMagic { found: magic });
        }
        let version = le_u32(&manifest[4..8]);
        if version != STORE_VERSION {
            return Err(StoreMiss::VersionSkew { found: version });
        }
        if EntryKind::from_tag(manifest[8]) != Some(kind) {
            return Err(StoreMiss::KindMismatch { found: manifest[8] });
        }
        if manifest[9..41] != fp.0 {
            return Err(StoreMiss::FingerprintMismatch);
        }
        let payload_len = u64::from_le_bytes(manifest[41..49].try_into().unwrap_or([0; 8]));
        let payload = self
            .backend
            .read(&Self::payload_path(fp))
            .map_err(StoreMiss::backend)?
            .ok_or(StoreMiss::PayloadMissing)?;
        if payload.len() as u64 != payload_len {
            return Err(StoreMiss::PayloadTruncated {
                expected: payload_len,
                found: payload.len() as u64,
            });
        }
        if Sha256::digest(&payload) != manifest[49..81] {
            return Err(StoreMiss::ChecksumMismatch);
        }
        Ok(payload)
    }

    /// Full verification without returning the payload — what
    /// `CapturePolicy::IfMissing` uses to decide whether to write.
    pub fn probe(&self, fp: &Fingerprint, kind: EntryKind) -> Result<(), StoreMiss> {
        self.load(fp, kind).map(drop)
    }

    /// Publishes an entry: payload first, manifest last, each
    /// atomically. A reader can therefore see (a) nothing, (b) an
    /// orphaned payload — a plain [`StoreMiss::NotFound`] — or (c) the
    /// complete verified entry; never a manifest describing bytes that
    /// are not yet there. Concurrent writers of the same fingerprint
    /// write identical bytes (the payload is a pure function of the
    /// fingerprinted inputs), so any interleaving converges.
    pub fn save(&self, fp: &Fingerprint, kind: EntryKind, payload: &[u8]) -> io::Result<()> {
        self.backend.publish(&Self::payload_path(fp), payload)?;
        let mut manifest = Vec::with_capacity(MANIFEST_LEN);
        manifest.extend_from_slice(&STORE_MAGIC.to_le_bytes());
        manifest.extend_from_slice(&STORE_VERSION.to_le_bytes());
        manifest.push(kind.tag());
        manifest.extend_from_slice(&fp.0);
        manifest.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        manifest.extend_from_slice(&Sha256::digest(payload));
        debug_assert_eq!(manifest.len(), MANIFEST_LEN);
        self.backend.publish(&Self::manifest_path(fp), &manifest)
    }

    /// Removes both blobs of the entry for `fp`, if present.
    pub fn remove(&self, fp: &Fingerprint) -> io::Result<()> {
        // Manifest first: a half-removed entry must be a miss, not a
        // manifest pointing at a vanished payload.
        self.backend.remove(&Self::manifest_path(fp))?;
        self.backend.remove(&Self::payload_path(fp))
    }

    /// Fingerprint short-hex prefixes of every entry with a published
    /// manifest (verified or not).
    pub fn entries(&self) -> io::Result<Vec<String>> {
        Ok(self
            .backend
            .list("entries/")?
            .into_iter()
            .filter_map(|p| {
                p.strip_prefix("entries/")
                    .and_then(|rest| rest.strip_suffix("/manifest"))
                    .map(str::to_owned)
            })
            .collect())
    }
}

/// `entries/<short-hex>/<blob>`, written into one exactly sized
/// `String`: a served load builds two of these and nothing else.
fn entry_path(fp: &Fingerprint, blob: &str) -> String {
    const DIR: &str = "entries/";
    let mut path = String::with_capacity(DIR.len() + 16 + 1 + blob.len());
    path.push_str(DIR);
    fp.push_short_hex(&mut path);
    path.push('/');
    path.push_str(blob);
    path
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().unwrap_or([0; 4]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(tag: &str) -> Fingerprint {
        FingerprintBuilder::new("test")
            .bytes("tag", tag.as_bytes())
            .finish()
    }

    fn store() -> CheckpointStore {
        CheckpointStore::in_memory()
    }

    #[test]
    fn save_then_load_roundtrips() {
        let s = store();
        let key = fp("a");
        s.save(&key, EntryKind::Checkpoint, b"payload bytes")
            .unwrap();
        assert_eq!(
            s.load(&key, EntryKind::Checkpoint).unwrap(),
            b"payload bytes"
        );
        assert!(s.probe(&key, EntryKind::Checkpoint).is_ok());
        assert_eq!(s.entries().unwrap(), vec![key.short_hex()]);
    }

    #[test]
    fn absent_entry_is_not_found() {
        assert_eq!(
            store().load(&fp("nope"), EntryKind::Outcome),
            Err(StoreMiss::NotFound)
        );
    }

    #[test]
    fn kind_confusion_is_a_miss() {
        let s = store();
        let key = fp("a");
        s.save(&key, EntryKind::Checkpoint, b"x").unwrap();
        assert_eq!(
            s.load(&key, EntryKind::Outcome),
            Err(StoreMiss::KindMismatch { found: 0 })
        );
    }

    #[test]
    fn truncated_manifest_is_a_miss() {
        let s = store();
        let key = fp("a");
        s.save(&key, EntryKind::Outcome, b"x").unwrap();
        let path = CheckpointStore::manifest_path(&key);
        let bytes = s.backend().read(&path).unwrap().unwrap();
        for cut in [0, 1, 8, 40, 80] {
            s.backend().publish(&path, &bytes[..cut]).unwrap();
            assert_eq!(
                s.load(&key, EntryKind::Outcome),
                Err(StoreMiss::TruncatedManifest { len: cut })
            );
        }
    }

    #[test]
    fn every_manifest_byte_flip_is_a_miss_never_a_panic() {
        let s = store();
        let key = fp("a");
        s.save(&key, EntryKind::Outcome, b"some payload").unwrap();
        let path = CheckpointStore::manifest_path(&key);
        let clean = s.backend().read(&path).unwrap().unwrap();
        for i in 0..clean.len() {
            let mut bent = clean.clone();
            bent[i] ^= 0x40;
            s.backend().publish(&path, &bent).unwrap();
            assert!(
                s.load(&key, EntryKind::Outcome).is_err(),
                "flip at manifest byte {i} was served"
            );
        }
        s.backend().publish(&path, &clean).unwrap();
        assert!(s.load(&key, EntryKind::Outcome).is_ok());
    }

    #[test]
    fn payload_corruption_is_typed() {
        let s = store();
        let key = fp("a");
        s.save(&key, EntryKind::Outcome, b"0123456789").unwrap();
        let path = CheckpointStore::payload_path(&key);

        s.backend().publish(&path, b"01234").unwrap();
        assert_eq!(
            s.load(&key, EntryKind::Outcome),
            Err(StoreMiss::PayloadTruncated {
                expected: 10,
                found: 5
            })
        );

        s.backend().publish(&path, b"0123456x89").unwrap();
        assert_eq!(
            s.load(&key, EntryKind::Outcome),
            Err(StoreMiss::ChecksumMismatch)
        );

        s.backend().remove(&path).unwrap();
        assert_eq!(
            s.load(&key, EntryKind::Outcome),
            Err(StoreMiss::PayloadMissing)
        );
    }

    #[test]
    fn version_skew_is_a_miss() {
        let s = store();
        let key = fp("a");
        s.save(&key, EntryKind::Outcome, b"x").unwrap();
        let path = CheckpointStore::manifest_path(&key);
        let mut bytes = s.backend().read(&path).unwrap().unwrap();
        bytes[4..8].copy_from_slice(&(STORE_VERSION + 1).to_le_bytes());
        s.backend().publish(&path, &bytes).unwrap();
        assert_eq!(
            s.load(&key, EntryKind::Outcome),
            Err(StoreMiss::VersionSkew {
                found: STORE_VERSION + 1
            })
        );
    }

    #[test]
    fn path_collision_is_detected_by_full_fingerprint() {
        let s = store();
        let a = fp("a");
        let b = fp("b");
        s.save(&a, EntryKind::Outcome, b"a's bytes").unwrap();
        // Simulate a short-hex directory collision: b's lookup lands
        // on a's entry.
        let stolen = s
            .backend()
            .read(&CheckpointStore::manifest_path(&a))
            .unwrap()
            .unwrap();
        s.backend()
            .publish(&CheckpointStore::manifest_path(&b), &stolen)
            .unwrap();
        assert_eq!(
            s.load(&b, EntryKind::Outcome),
            Err(StoreMiss::FingerprintMismatch)
        );
    }

    #[test]
    fn remove_makes_entry_not_found() {
        let s = store();
        let key = fp("a");
        s.save(&key, EntryKind::Checkpoint, b"x").unwrap();
        s.remove(&key).unwrap();
        assert_eq!(
            s.load(&key, EntryKind::Checkpoint),
            Err(StoreMiss::NotFound)
        );
        assert!(s.entries().unwrap().is_empty());
    }

    #[test]
    fn overwrite_replaces_entry() {
        let s = store();
        let key = fp("a");
        s.save(&key, EntryKind::Outcome, b"first").unwrap();
        s.save(&key, EntryKind::Outcome, b"second").unwrap();
        assert_eq!(s.load(&key, EntryKind::Outcome).unwrap(), b"second");
    }

    #[test]
    fn local_backend_end_to_end() {
        let root = std::env::temp_dir().join(format!("antalloc_store_lib_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let s = CheckpointStore::local(&root).unwrap();
        let key = fp("disk");
        s.save(&key, EntryKind::Checkpoint, b"on disk").unwrap();
        // A second store over the same root sees the entry.
        let s2 = CheckpointStore::local(&root).unwrap();
        assert_eq!(s2.load(&key, EntryKind::Checkpoint).unwrap(), b"on disk");
        let _ = std::fs::remove_dir_all(&root);
    }

    proptest::proptest! {
        /// The on-disk layout is a file format: entry paths are the
        /// first 16 hex chars of the full fingerprint, byte for byte as
        /// every earlier build wrote them, so old `LocalDirBackend`
        /// archives stay readable.
        #[test]
        fn entry_paths_keep_the_short_hex_layout(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 32),
        ) {
            let mut raw = [0u8; 32];
            raw.copy_from_slice(&bytes);
            let fp = Fingerprint(raw);
            let short = &fp.hex()[..16];
            proptest::prop_assert_eq!(fp.short_hex(), short);
            proptest::prop_assert_eq!(
                CheckpointStore::manifest_path(&fp),
                format!("entries/{short}/manifest")
            );
            proptest::prop_assert_eq!(
                CheckpointStore::payload_path(&fp),
                format!("entries/{short}/payload")
            );
        }
    }
}
