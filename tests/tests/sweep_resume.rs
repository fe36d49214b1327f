//! Resume equivalence: a store-aware sweep killed ~60% of the way
//! through and restarted over the same store root is outcome-for-
//! outcome bit-identical to an uninterrupted run — across 1/2/4/8
//! workers, with engine reuse on and off, for plain sweeps and for
//! `from_round` warm-started ones. The restart must also actually
//! *resume*: every run the first attempt captured is served from the
//! store, not recomputed.

use std::sync::Arc;

use antalloc_core::AntParams;
use antalloc_noise::NoiseModel;
use antalloc_sim::{ControllerSpec, SimConfig, Sweep};
use antalloc_store::CheckpointStore;
use antalloc_tests::{assert_same_outcomes, scratch_root};

fn config() -> SimConfig {
    SimConfig::builder(250, vec![40, 60])
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
        .build()
        .unwrap()
}

/// 2 grid points × 10 seeds = 20 jobs.
fn sweep(workers: usize, reuse: bool, warm_start: bool) -> Sweep {
    let mut sweep = Sweep::new(config())
        .axis("lambda", [1.5, 3.0], |cfg, lambda| {
            cfg.noise = NoiseModel::Sigmoid { lambda };
        })
        .seeds(0..10)
        .rounds(40)
        .threads(workers)
        .engine_reuse(reuse);
    if warm_start {
        sweep = sweep.from_round(30);
    }
    sweep
}

/// Entries holding outcome rows (manifest kind tag 1) — warm-started
/// sweeps also store prefix checkpoints, which are not runs.
fn outcome_entries(store: &CheckpointStore) -> usize {
    store
        .entries()
        .unwrap()
        .iter()
        .filter(|prefix| {
            let manifest = store
                .backend()
                .read(&format!("entries/{prefix}/manifest"))
                .unwrap()
                .unwrap();
            manifest[8] == 1
        })
        .count()
}

fn kill_and_resume(warm_start: bool) {
    // The uninterrupted reference, computed once without any store.
    let reference = sweep(1, false, warm_start).run().unwrap();
    assert_eq!(reference.len(), 20);

    for workers in [1usize, 2, 4, 8] {
        for reuse in [false, true] {
            let label = format!("workers {workers}, engine_reuse {reuse}, from_round {warm_start}");
            let root = scratch_root(&format!("sweep_resume_{warm_start}_{workers}_{reuse}"));

            // First attempt: die after ~60% of the outcomes arrive.
            let captured = {
                let store = Arc::new(CheckpointStore::local(&root).unwrap());
                let mut seen = 0usize;
                let delivered = sweep(workers, reuse, warm_start)
                    .store(store.clone())
                    .run_while(|_| {
                        seen += 1;
                        seen < 12
                    })
                    .unwrap();
                assert!(delivered < 20, "{label}: the kill never happened");
                outcome_entries(&store)
            };
            assert!(captured >= 11, "{label}: too little survived the kill");

            // Restart over the same root, as a new process would.
            let store = Arc::new(CheckpointStore::local(&root).unwrap());
            let resumed = sweep(workers, reuse, warm_start)
                .store(store)
                .run()
                .unwrap();
            // Exactly the captured runs are served; exactly the rest
            // recompute. (With many workers the in-flight tail may
            // have finished everything before the abort landed — the
            // equality still pins resume behavior; the deterministic
            // 60%-archive test below guarantees a non-empty remainder.)
            let served = resumed.iter().filter(|o| o.cached).count();
            assert_eq!(
                served, captured,
                "{label}: resume recomputed runs the first attempt captured"
            );
            assert_eq!(
                resumed.iter().filter(|o| !o.cached).count(),
                20 - captured,
                "{label}: recomputed more than the missing runs"
            );
            assert_same_outcomes(&label, &resumed, &reference);
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}

#[test]
fn killed_sweep_resumes_bit_identically() {
    kill_and_resume(false);
}

#[test]
fn killed_warm_start_sweep_resumes_bit_identically() {
    kill_and_resume(true);
}

/// The deterministic 60% archive: a store populated by sweeping only
/// the first 6 of 10 seeds is exactly a sweep killed at 60%, with no
/// scheduling race. The full restart must serve those 12 runs and
/// recompute exactly the other 8, bit-identically, at every worker
/// count and engine-reuse setting.
#[test]
fn sixty_percent_archive_recomputes_exactly_the_missing_runs() {
    for warm_start in [false, true] {
        let reference = sweep(1, false, warm_start).run().unwrap();
        for workers in [1usize, 2, 4, 8] {
            for reuse in [false, true] {
                let label =
                    format!("workers {workers}, engine_reuse {reuse}, from_round {warm_start}");
                let root = scratch_root(&format!(
                    "sweep_resume_sixty_{warm_start}_{workers}_{reuse}"
                ));
                {
                    let store = Arc::new(CheckpointStore::local(&root).unwrap());
                    sweep(workers, reuse, warm_start)
                        .seeds(0..6)
                        .store(store.clone())
                        .run()
                        .unwrap();
                    assert_eq!(outcome_entries(&store), 12, "{label}");
                }
                let store = Arc::new(CheckpointStore::local(&root).unwrap());
                let resumed = sweep(workers, reuse, warm_start)
                    .store(store)
                    .run()
                    .unwrap();
                assert_eq!(
                    resumed.iter().filter(|o| o.cached).count(),
                    12,
                    "{label}: the archived 60% was not served"
                );
                assert_eq!(
                    resumed.iter().filter(|o| !o.cached).count(),
                    8,
                    "{label}: the missing 40% was not recomputed"
                );
                assert_same_outcomes(&label, &resumed, &reference);
                let _ = std::fs::remove_dir_all(&root);
            }
        }
    }
}

/// The two interruption halves compose: a sweep killed twice (at ~30%
/// and ~60%) still converges to the identical full result, and the
/// third attempt computes only what the first two missed.
#[test]
fn repeated_kills_converge() {
    let reference = sweep(1, false, false).run().unwrap();
    let root = scratch_root("sweep_resume_repeated");
    for cutoff in [6usize, 12] {
        let store = Arc::new(CheckpointStore::local(&root).unwrap());
        let mut seen = 0usize;
        sweep(4, true, false)
            .store(store)
            .run_while(|_| {
                seen += 1;
                seen < cutoff
            })
            .unwrap();
    }
    let store = Arc::new(CheckpointStore::local(&root).unwrap());
    let final_pass = sweep(4, true, false).store(store).run().unwrap();
    assert!(final_pass.iter().filter(|o| o.cached).count() >= 11);
    assert_same_outcomes("repeated kills", &final_pass, &reference);
    let _ = std::fs::remove_dir_all(&root);
}
