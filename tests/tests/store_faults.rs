//! Fault injection for the durable store, end to end on a real
//! directory: every corruption class — truncated manifests, bit-flipped
//! payloads, version skew, kind confusion, path collisions, torn
//! concurrent writes — loads as a typed [`StoreMiss`], never a panic,
//! and a store-aware sweep degrades each one to a bit-identical
//! recomputed run. Both restore paths are exercised: fresh engines
//! (`Checkpoint::restore`) and warm-started reused engines
//! (`restore_into` via `Sweep::engine_reuse`).

use std::sync::Arc;

use antalloc_core::AntParams;
use antalloc_noise::NoiseModel;
use antalloc_sim::{
    Checkpoint, CheckpointError, ControllerSpec, NullObserver, RunSummary, SimConfig, Sweep,
};
use antalloc_store::{
    CheckpointStore, EntryKind, Fingerprint, FingerprintBuilder, StoreMiss, MANIFEST_LEN,
    STORE_VERSION,
};
use antalloc_tests::{assert_same_outcomes, scratch_root};

fn config() -> SimConfig {
    SimConfig::builder(200, vec![30, 50])
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
        .build()
        .unwrap()
}

/// A small store-aware sweep with a shared warm-start prefix, so the
/// store holds both entry kinds: one checkpoint per seed, one outcome
/// per (grid point, seed).
fn sweep(store: Option<Arc<CheckpointStore>>, reuse: bool) -> Sweep {
    let mut sweep = Sweep::new(config())
        .axis("lambda", [1.0, 3.0], |cfg, lambda| {
            cfg.noise = NoiseModel::Sigmoid { lambda };
        })
        .seeds(0..3)
        .from_round(20)
        .rounds(30)
        .threads(2)
        .engine_reuse(reuse);
    if let Some(store) = store {
        sweep = sweep.store(store);
    }
    sweep
}

/// Store-served checkpoint bytes drive both restore paths to the same
/// states as the engine they were captured from.
#[test]
fn stored_checkpoint_restores_exactly_on_both_paths() {
    let root = scratch_root("store_faults_roundtrip");
    let store = CheckpointStore::local(&root).unwrap();
    let mut original = config().build();
    original.run(40, &mut NullObserver);
    let ckpt = Checkpoint::capture(&original).unwrap();
    let fp = FingerprintBuilder::new("store-faults-test")
        .u64("round", 40)
        .finish();
    store
        .save(&fp, EntryKind::Checkpoint, &ckpt.to_bytes())
        .unwrap();

    let bytes = store.load(&fp, EntryKind::Checkpoint).unwrap();
    let loaded = Checkpoint::from_bytes(&bytes).unwrap();
    let mut fresh = loaded.restore();
    let mut reused = {
        // A deliberately divergent engine: restore_into must overwrite
        // every piece of its state.
        let mut other = config();
        other.seed = 999;
        let mut engine = other.build();
        engine.run(17, &mut NullObserver);
        engine
    };
    loaded.restore_into(&mut reused);

    let mut summaries = Vec::new();
    for engine in [&mut original, &mut fresh, &mut reused] {
        let mut summary = RunSummary::new();
        engine.run(40, &mut summary);
        summaries.push((
            summary.total_regret(),
            engine.colony().instant_regret(),
            (0..2)
                .map(|j| engine.colony().load(j))
                .collect::<Vec<u64>>(),
        ));
    }
    assert_eq!(summaries[0], summaries[1], "restore() diverged");
    assert_eq!(summaries[0], summaries[2], "restore_into() diverged");
    let _ = std::fs::remove_dir_all(&root);
}

/// Each corruption class yields its own typed miss; none panic.
#[test]
fn every_fault_class_is_a_typed_miss() {
    let root = scratch_root("store_faults_typed");
    let store = CheckpointStore::local(&root).unwrap();
    let mut engine = config().build();
    engine.run(20, &mut NullObserver);
    let payload = Checkpoint::capture(&engine).unwrap().to_bytes();
    let fp = FingerprintBuilder::new("store-faults-test")
        .u64("k", 1)
        .finish();
    let manifest_path = CheckpointStore::manifest_path(&fp);
    let payload_path = CheckpointStore::payload_path(&fp);
    let publish = |path: &str, bytes: &[u8]| store.backend().publish(path, bytes).unwrap();
    let reset = |store: &CheckpointStore| {
        store.save(&fp, EntryKind::Checkpoint, &payload).unwrap();
        assert!(store.load(&fp, EntryKind::Checkpoint).is_ok());
    };

    assert_eq!(
        store.load(&fp, EntryKind::Checkpoint),
        Err(StoreMiss::NotFound)
    );

    // Truncated / torn manifest.
    reset(&store);
    let clean_manifest = store.backend().read(&manifest_path).unwrap().unwrap();
    assert_eq!(clean_manifest.len(), MANIFEST_LEN);
    publish(&manifest_path, &clean_manifest[..MANIFEST_LEN / 2]);
    assert_eq!(
        store.load(&fp, EntryKind::Checkpoint),
        Err(StoreMiss::TruncatedManifest {
            len: MANIFEST_LEN / 2
        })
    );

    // Wrong magic.
    let mut bent = clean_manifest.clone();
    bent[0] ^= 0xFF;
    publish(&manifest_path, &bent);
    assert!(matches!(
        store.load(&fp, EntryKind::Checkpoint),
        Err(StoreMiss::BadMagic { .. })
    ));

    // Version skew: written by a future format.
    let mut bent = clean_manifest.clone();
    bent[4..8].copy_from_slice(&(STORE_VERSION + 7).to_le_bytes());
    publish(&manifest_path, &bent);
    assert_eq!(
        store.load(&fp, EntryKind::Checkpoint),
        Err(StoreMiss::VersionSkew {
            found: STORE_VERSION + 7
        })
    );

    // Kind confusion: a checkpoint asked for as an outcome row.
    reset(&store);
    assert_eq!(
        store.load(&fp, EntryKind::Outcome),
        Err(StoreMiss::KindMismatch { found: 0 })
    );

    // Path collision: another fingerprint's manifest at this path.
    let mut bent = clean_manifest.clone();
    bent[9] ^= 0x01;
    publish(&manifest_path, &bent);
    assert_eq!(
        store.load(&fp, EntryKind::Checkpoint),
        Err(StoreMiss::FingerprintMismatch)
    );

    // Payload faults: missing, truncated, bit-flipped.
    reset(&store);
    store.backend().remove(&payload_path).unwrap();
    assert_eq!(
        store.load(&fp, EntryKind::Checkpoint),
        Err(StoreMiss::PayloadMissing)
    );
    publish(&payload_path, &payload[..payload.len() - 3]);
    assert!(matches!(
        store.load(&fp, EntryKind::Checkpoint),
        Err(StoreMiss::PayloadTruncated { .. })
    ));
    let mut bent = payload.clone();
    bent[payload.len() / 2] ^= 0x10;
    publish(&payload_path, &bent);
    assert_eq!(
        store.load(&fp, EntryKind::Checkpoint),
        Err(StoreMiss::ChecksumMismatch)
    );

    // A clean re-publish heals every one of them.
    reset(&store);
    let _ = std::fs::remove_dir_all(&root);
}

/// Corrupts entry `i` of a populated store with fault class `i % 5`.
fn corrupt_all_entries(store: &CheckpointStore) {
    let entries = store.entries().unwrap();
    assert!(!entries.is_empty());
    for (i, prefix) in entries.iter().enumerate() {
        let manifest_path = format!("entries/{prefix}/manifest");
        let payload_path = format!("entries/{prefix}/payload");
        let manifest = store.backend().read(&manifest_path).unwrap().unwrap();
        let payload = store.backend().read(&payload_path).unwrap().unwrap();
        match i % 5 {
            0 => store
                .backend()
                .publish(&manifest_path, &manifest[..10])
                .unwrap(),
            1 => {
                let mut bent = payload.clone();
                bent[i % payload.len()] ^= 0x80;
                store.backend().publish(&payload_path, &bent).unwrap();
            }
            2 => {
                let mut bent = manifest.clone();
                bent[4..8].copy_from_slice(&99u32.to_le_bytes());
                store.backend().publish(&manifest_path, &bent).unwrap();
            }
            3 => store.backend().remove(&payload_path).unwrap(),
            _ => {
                let mut bent = manifest.clone();
                bent[9 + (i % 32)] ^= 0x20;
                store.backend().publish(&manifest_path, &bent).unwrap();
            }
        }
    }
}

/// A sweep over a fully corrupted store recomputes everything
/// bit-identically — with fresh engines and with reused ones.
#[test]
fn sweeps_degrade_every_fault_to_bit_identical_recomputation() {
    let reference = sweep(None, true).run().unwrap();
    for reuse in [false, true] {
        let root = scratch_root(if reuse {
            "store_faults_degrade_reuse"
        } else {
            "store_faults_degrade_fresh"
        });
        let store = Arc::new(CheckpointStore::local(&root).unwrap());
        let cold = sweep(Some(store.clone()), reuse).run().unwrap();
        // 2 grid points × 3 seeds + 3 shared prefix checkpoints.
        assert_eq!(store.entries().unwrap().len(), 9);
        corrupt_all_entries(&store);
        let recomputed = sweep(Some(store.clone()), reuse).run().unwrap();
        assert!(
            recomputed.iter().all(|o| !o.cached),
            "a corrupt entry was served (engine_reuse = {reuse})"
        );
        assert_same_outcomes("recomputed vs cold", &recomputed, &cold);
        assert_same_outcomes("recomputed vs store-free", &recomputed, &reference);
        // The recomputation healed the store in passing.
        let healed = sweep(Some(store), reuse).run().unwrap();
        assert!(healed.iter().all(|o| o.cached));
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A well-formed entry whose payload is a *semantically* wrong
/// checkpoint (valid stream, wrong round) passes store verification
/// but fails the sweep's own validation and is recomputed, not served.
#[test]
fn stale_but_wellformed_checkpoint_entry_is_recomputed() {
    let root = scratch_root("store_faults_stale");
    let store = Arc::new(CheckpointStore::local(&root).unwrap());
    let reference = sweep(Some(store.clone()), false).run().unwrap();

    // Re-save every checkpoint entry (kind tag 0) with a checkpoint of
    // the right config but the wrong round, under its own fingerprint
    // (recovered from the manifest) so the store verifies it cleanly.
    let mut stale = config();
    stale.seed = 0;
    let mut engine = stale.build();
    engine.run(26, &mut NullObserver);
    let wrong_round = Checkpoint::capture(&engine).unwrap().to_bytes();
    let mut replaced = 0;
    for prefix in store.entries().unwrap() {
        let manifest = store
            .backend()
            .read(&format!("entries/{prefix}/manifest"))
            .unwrap()
            .unwrap();
        if manifest[8] == 0 {
            let mut full = [0u8; 32];
            full.copy_from_slice(&manifest[9..41]);
            store
                .save(&Fingerprint(full), EntryKind::Checkpoint, &wrong_round)
                .unwrap();
            replaced += 1;
        }
    }
    assert_eq!(replaced, 3, "one prefix checkpoint per seed");

    // Drop the outcome rows so the sweep actually consults the stale
    // checkpoints instead of serving finished outcomes.
    for prefix in store.entries().unwrap() {
        let path = format!("entries/{prefix}/manifest");
        if store.backend().read(&path).unwrap().unwrap()[8] == 1 {
            store.backend().remove(&path).unwrap();
        }
    }

    let recomputed = sweep(Some(store), false).run().unwrap();
    assert_same_outcomes("recomputed", &recomputed, &reference);
    let _ = std::fs::remove_dir_all(&root);
}

/// A checkpoint entry written by a build of another checkpoint format
/// (here v9, as a store kept across the v10 bump holds) verifies in the
/// store but decodes to the typed `CheckpointError::Version` miss: the
/// sweep recomputes its prefix bit-identically and writes the current
/// format back over it. `STORE_VERSION` need not move for that.
#[test]
fn v9_checkpoint_entry_is_a_typed_miss_and_is_recomputed() {
    let root = scratch_root("store_faults_v9");
    let store = Arc::new(CheckpointStore::local(&root).unwrap());
    let reference = sweep(Some(store.clone()), false).run().unwrap();
    let checkpoints = |store: &CheckpointStore| -> Vec<Fingerprint> {
        let mut fps = Vec::new();
        for prefix in store.entries().unwrap() {
            let path = format!("entries/{prefix}/manifest");
            let manifest = store.backend().read(&path).unwrap().unwrap();
            match manifest[8] {
                0 => {
                    let mut full = [0u8; 32];
                    full.copy_from_slice(&manifest[9..41]);
                    fps.push(Fingerprint(full));
                }
                // Drop the outcome rows so the sweep consults the
                // prefix checkpoints instead of serving outcomes.
                _ => store.backend().remove(&path).unwrap(),
            }
        }
        fps
    };
    let fps = checkpoints(&store);
    assert_eq!(fps.len(), 3, "one prefix checkpoint per seed");
    for fp in &fps {
        let mut bytes = store.load(fp, EntryKind::Checkpoint).unwrap();
        bytes[4..8].copy_from_slice(&9u32.to_le_bytes());
        assert_eq!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::Version { found: 9 })
        );
        store.save(fp, EntryKind::Checkpoint, &bytes).unwrap();
    }

    let recomputed = sweep(Some(store.clone()), false).run().unwrap();
    assert_same_outcomes("recomputed", &recomputed, &reference);
    for fp in &checkpoints(&store) {
        let bytes = store.load(fp, EntryKind::Checkpoint).unwrap();
        assert!(Checkpoint::from_bytes(&bytes).is_ok(), "rewritten as v10");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Torn temp files from a crashed concurrent writer are invisible:
/// they are skipped by listings and never shadow published blobs.
#[test]
fn torn_concurrent_writes_are_invisible() {
    let root = scratch_root("store_faults_torn");
    let store = Arc::new(CheckpointStore::local(&root).unwrap());
    let cold = sweep(Some(store.clone()), true).run().unwrap();
    let entries = store.entries().unwrap();
    for prefix in &entries {
        std::fs::write(
            root.join(format!("entries/{prefix}/.tmp.1.1")),
            b"torn manifest write",
        )
        .unwrap();
        std::fs::write(
            root.join(format!("entries/{prefix}/.tmp.2.9")),
            b"torn payload write",
        )
        .unwrap();
    }
    assert_eq!(
        store.entries().unwrap(),
        entries,
        "temp files leaked into listings"
    );
    let warm = sweep(Some(store), true).run().unwrap();
    assert!(
        warm.iter().all(|o| o.cached),
        "temp files disturbed verified entries"
    );
    assert_same_outcomes("warm", &warm, &cold);
    let _ = std::fs::remove_dir_all(&root);
}
