//! Fingerprint stability: store keys are a pure function of the
//! *meaning* of a scenario, not its spelling. The canonical scenario
//! bytes (`SimConfig::to_toml`) must be invariant under TOML key
//! reordering and `Scenario::save` → `load` round-trips, and must
//! change whenever any config field, seed, timeline event, trigger,
//! generator, or round budget differs — observed end to end through
//! store hits and misses of real sweeps.

use std::sync::Arc;

use antalloc_env::{
    ArenaConfig, Condition, Event, GenShock, InitialConfig, Timeline, TimelineGen, Trigger,
};
use antalloc_noise::NoiseModel;
use antalloc_sim::{AxisValue, RunOutcome, Scenario, ScenarioBuilder, SimConfig, Sweep};
use antalloc_store::{CheckpointStore, EntryKind, Fingerprint, FingerprintBuilder};
use antalloc_tests::scenarios::{self, scenarios};
use proptest::prelude::*;

/// A scenario exercising every input of the canonical form: one of
/// four catalogue specs (homogeneous and mixed), one-shot events, a
/// demand-alternating cycle, a trigger, and a seeded shock generator.
fn rich_config(which: usize, n: usize, seed: u64, shocks: bool) -> SimConfig {
    let (kinds, mixes) = (scenarios::kinds(), scenarios::mixes());
    let spec = [&kinds[0], &kinds[2], &mixes[0], &mixes[3]][which % 4];
    let demands = vec![(n / 6) as u64, (n / 4) as u64];
    let mut builder = ScenarioBuilder::new(n, demands.clone())
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(spec.clone())
        .seed(seed)
        .initial(InitialConfig::SaturatedPlus { extra: 2 })
        // `timeline` replaces the timeline, so it goes first; the
        // one-shot event and trigger are appended onto its cycle.
        .timeline(Timeline::new().every(
            40,
            40,
            vec![
                Event::SetDemands(demands.iter().rev().copied().collect()),
                Event::SetDemands(demands.clone()),
            ],
        ))
        .event(11, Event::Kill { count: 3 })
        .trigger(Trigger::once(
            Condition::RegretAbove {
                threshold: (n / 2) as u64,
                for_rounds: 3,
            },
            Event::Scramble,
        ));
    if shocks {
        builder = builder.generate(TimelineGen {
            start: 5,
            until: 90,
            mean_gap: 30.0,
            shock: GenShock::Spawn {
                min_frac: 0.01,
                max_frac: 0.05,
            },
        });
    }
    builder.build().expect("valid scenario")
}

proptest! {
    /// Canonical bytes are a fixed point: re-parsing the emitted TOML
    /// (and JSON) reproduces the identical config and identical bytes,
    /// for any generated scenario.
    #[test]
    fn canonical_toml_is_a_fixed_point(case in scenarios()) {
        let config = case.config;
        let canonical = config.to_toml();
        let reparsed = SimConfig::from_toml(&canonical).expect("canonical form parses");
        prop_assert_eq!(&reparsed, &config, "TOML round-trip changed the config");
        prop_assert_eq!(reparsed.to_toml(), canonical.clone(), "re-emission is not stable");
        let from_json = SimConfig::from_json(&config.to_json()).expect("JSON parses");
        prop_assert_eq!(&from_json, &config);
        prop_assert_eq!(from_json.to_toml(), canonical, "JSON detour changed the bytes");
    }

    /// Any single-input mutation changes the canonical bytes — the
    /// injectivity half of fingerprint stability (SHA-256 does the
    /// rest). Covers config fields, the seed, and timeline events.
    #[test]
    fn canonical_toml_separates_distinct_configs(
        which in 0usize..4,
        n in 60usize..200,
        seed: u64,
        shocks: bool,
    ) {
        let base = rich_config(which, n, seed, shocks);
        let canonical = base.to_toml();
        let mutations: Vec<(&str, SimConfig)> = vec![
            ("n", rich_config(which, n + 1, seed, shocks)),
            ("controller", rich_config(which + 1, n, seed, shocks)),
            ("seed", rich_config(which, n, seed ^ 1, shocks)),
            ("generators", rich_config(which, n, seed, !shocks)),
            ("demands", {
                let mut c = base.clone();
                c.demands[0] += 1;
                c
            }),
            ("noise", {
                let mut c = base.clone();
                c.noise = NoiseModel::Sigmoid { lambda: 2.5 };
                c
            }),
            ("initial", {
                let mut c = base.clone();
                c.initial = InitialConfig::Inverted;
                c
            }),
            ("event round", {
                let mut c = base.clone();
                c.timeline.events[0].at += 1;
                c
            }),
            ("event payload", {
                let mut c = base.clone();
                c.timeline.events[0].event = Event::Kill { count: 4 };
                c
            }),
            ("trigger", {
                let mut c = base.clone();
                c.timeline.triggers[0].cooldown += 1;
                c
            }),
        ];
        for (what, mutated) in mutations {
            prop_assert_ne!(
                mutated.to_toml(),
                canonical.clone(),
                "changing {} left the canonical bytes unchanged", what
            );
        }
    }
}

/// The same scenario spelled with reordered TOML keys fingerprints to
/// the same store entries: a batch run from one spelling is served
/// entirely from the cache populated by the other.
#[test]
fn reordered_toml_keys_hit_the_same_store_entries() {
    let spelling_a = r#"
n = 150
demands = [25, 40]
seed = 7

[controller]
kind = "ant"
gamma = 0.0625

[noise]
kind = "sigmoid"
lambda = 2.0

[[timeline]]
at = 30
kind = "kill"
count = 5
"#;
    let spelling_b = r#"
seed = 7
demands = [25, 40]
n = 150

[noise]
lambda = 2.0
kind = "sigmoid"

[[timeline]]
count = 5
kind = "kill"
at = 30

[controller]
gamma = 0.0625
kind = "ant"
"#;
    let a = Scenario::from_toml(spelling_a).unwrap();
    let b = Scenario::from_toml(spelling_b).unwrap();
    assert_eq!(a.config, b.config, "the spellings describe one scenario");

    let store = Arc::new(CheckpointStore::in_memory());
    let cold = Sweep::new(a.config)
        .rounds(40)
        .seeds(0..4)
        .store(store.clone())
        .run()
        .unwrap();
    assert!(cold.iter().all(|o| !o.cached));
    let warm = Sweep::new(b.config)
        .rounds(40)
        .seeds(0..4)
        .store(store)
        .run()
        .unwrap();
    assert!(
        warm.iter().all(|o| o.cached),
        "reordered keys produced different fingerprints"
    );
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.summary.total_regret(), w.summary.total_regret());
        assert_eq!(c.final_loads, w.final_loads);
    }
}

/// `Scenario::save` → `Scenario::load` (both TOML and JSON) preserves
/// the fingerprint: a batch over the reloaded scenario is all hits.
#[test]
fn save_load_roundtrip_preserves_fingerprints() {
    let root = std::env::temp_dir().join(format!("antalloc_fp_roundtrip_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let scenario = Scenario::new(rich_config(2, 120, 13, true));
    let store = Arc::new(CheckpointStore::in_memory());
    let cold = Sweep::new(scenario.config.clone())
        .rounds(30)
        .seeds(0..3)
        .store(store.clone())
        .run()
        .unwrap();
    for ext in ["toml", "json"] {
        let path = root.join(format!("scenario.{ext}"));
        scenario.save(&path).unwrap();
        let reloaded = Scenario::load(&path).unwrap();
        assert_eq!(reloaded.config, scenario.config, "{ext} round-trip drifted");
        let warm = Sweep::new(reloaded.config)
            .rounds(30)
            .seeds(0..3)
            .store(store.clone())
            .run()
            .unwrap();
        assert!(
            warm.iter().all(|o| o.cached),
            "{ext} round-trip changed the fingerprints"
        );
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.final_loads, w.final_loads);
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Round budgets are part of the key: the same scenario swept for a
/// different `rounds` or `warmup` must miss, not serve the old rows.
#[test]
fn round_budgets_are_part_of_the_fingerprint() {
    let store = Arc::new(CheckpointStore::in_memory());
    let batch = |rounds: u64, warmup: u64| {
        Sweep::new(rich_config(0, 100, 3, false))
            .rounds(rounds)
            .seeds(0..2)
            .warmup(warmup)
            .store(store.clone())
    };
    assert!(batch(30, 10).run().unwrap().iter().all(|o| !o.cached));
    assert!(batch(30, 10).run().unwrap().iter().all(|o| o.cached));
    assert!(
        batch(31, 10).run().unwrap().iter().all(|o| !o.cached),
        "rounds not keyed"
    );
    assert!(
        batch(30, 11).run().unwrap().iter().all(|o| !o.cached),
        "warmup not keyed"
    );
    // And each of those populated its own entries: all three shapes
    // now replay as hits.
    assert!(batch(31, 10).run().unwrap().iter().all(|o| o.cached));
    assert!(batch(30, 11).run().unwrap().iter().all(|o| o.cached));
}

/// The scenario whose store keys are pinned below. It carries a
/// correlated-noise `seed` of its own, which must stay part of the
/// scenario text and never be mistaken for the run's seed.
const PINNED_SCENARIO: &str = r#"
n = 200
demands = [30, 50]
seed = 41

[controller]
kind = "ant"
gamma = 0.0625

[noise]
kind = "correlated-sigmoid"
lambda = 2.0
rho = 0.5
seed = 99

[[timeline]]
at = 25
kind = "kill"
count = 4
"#;

/// Key hexes recorded before `Sweep` stopped rendering the scenario
/// text per job. Archives written since then are keyed by exactly
/// these bytes; if one of them moves, every existing archive turns
/// into misses, so change it only together with a key domain.
const PINNED_OUTCOME: &str = "9e462ef8b950ddda200badf2faf3ea4012c88db96541f80336bba4de5cd9ef29";
const PINNED_OUTCOME_FROM_20: &str =
    "162070d54db712f1f04a80a2a3185099b762bd372c8f9cb09a40a9329dbaf403";
const PINNED_PREFIX_AT_20: &str =
    "9b903648c12893d45cc2d0a27057c3bfdd5576296f98bfc41c8a99a5ee9034a9";

fn fingerprint_from_hex(hex: &str) -> Fingerprint {
    assert_eq!(hex.len(), 64, "a full key is 64 hex digits");
    let mut bytes = [0u8; 32];
    for (i, byte) in bytes.iter_mut().enumerate() {
        *byte = u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("hex digit");
    }
    Fingerprint(bytes)
}

/// The outcome key `Sweep` documents, rebuilt from public parts.
fn outcome_key(
    cfg: &SimConfig,
    warmup: u64,
    rounds: u64,
    from: Option<(u64, &SimConfig)>,
) -> Fingerprint {
    let b = FingerprintBuilder::new("antalloc.outcome.v1")
        .bytes("scenario", cfg.to_toml().as_bytes())
        .u64("seed", cfg.seed)
        .u64("warmup", warmup)
        .u64("rounds", rounds);
    match from {
        Some((r, base)) => {
            let mut base = base.clone();
            base.seed = cfg.seed;
            b.u64("from-round", r)
                .bytes("prefix-scenario", base.to_toml().as_bytes())
                .finish()
        }
        None => b.finish(),
    }
}

/// The shared-prefix checkpoint key `Sweep` documents, rebuilt from
/// public parts.
fn prefix_key(base: &SimConfig, seed: u64, r: u64) -> Fingerprint {
    let mut base = base.clone();
    base.seed = seed;
    FingerprintBuilder::new("antalloc.prefix-checkpoint.v3")
        .bytes("scenario", base.to_toml().as_bytes())
        .u64("seed", seed)
        .u64("round", r)
        .finish()
}

/// Store keys are a file format: the recipe reproduces the recorded
/// hexes, and a real sweep writes its entries under exactly them.
#[test]
fn pinned_store_keys_are_stable() {
    let cfg = SimConfig::from_toml(PINNED_SCENARIO).unwrap();
    let (warmup, rounds, r) = (5, 30, 20);
    let outcome = outcome_key(&cfg, warmup, rounds, None);
    let outcome_from = outcome_key(&cfg, warmup, rounds, Some((r, &cfg)));
    let prefix = prefix_key(&cfg, cfg.seed, r);
    assert_eq!(outcome.hex(), PINNED_OUTCOME);
    assert_eq!(outcome_from.hex(), PINNED_OUTCOME_FROM_20);
    assert_eq!(prefix.hex(), PINNED_PREFIX_AT_20);

    let sweep = || {
        Sweep::new(cfg.clone())
            .warmup(warmup)
            .rounds(rounds)
            .seeds([cfg.seed])
    };
    let store = Arc::new(CheckpointStore::in_memory());
    sweep().store(store.clone()).run().unwrap();
    sweep().store(store.clone()).from_round(r).run().unwrap();
    for (hex, kind) in [
        (PINNED_OUTCOME, EntryKind::Outcome),
        (PINNED_OUTCOME_FROM_20, EntryKind::Outcome),
        (PINNED_PREFIX_AT_20, EntryKind::Checkpoint),
    ] {
        let fp = fingerprint_from_hex(hex);
        assert!(
            store.load(&fp, kind).is_ok(),
            "the sweep wrote no {kind:?} entry under the pinned key {hex}"
        );
    }
    assert_eq!(
        store.entries().unwrap().len(),
        3,
        "unexpected extra entries"
    );
}

/// `fingerprints.rs`'s rich shapes (0–3), one of them in an arena (4),
/// and one under correlated noise whose own `[noise]` seed, 9, is also
/// one of the swept seeds (5).
fn key_shape(which: usize, n: usize) -> SimConfig {
    let mut cfg = rich_config(which % 4, n, 0, which.is_multiple_of(2));
    match which {
        4 => {
            cfg.arena = Some(ArenaConfig {
                site_of_task: vec![0, 1],
                travel_rounds: 2,
                wander_probability: 0.05,
            });
        }
        5 => {
            cfg.noise = NoiseModel::CorrelatedSigmoid {
                lambda: 2.0,
                rho: 0.5,
                seed: 9,
            };
        }
        _ => {}
    }
    cfg
}

/// The first grid axis: the noise steepness, whatever the model.
fn set_lambda(cfg: &mut SimConfig, lambda: f64) {
    match &mut cfg.noise {
        NoiseModel::Sigmoid { lambda: l } | NoiseModel::CorrelatedSigmoid { lambda: l, .. } => {
            *l = lambda;
        }
        other => panic!("no steepness to sweep in {other:?}"),
    }
}

/// The second grid axis: a kill after every fork round, so a
/// `from_round` sweep still shares its prefix.
fn set_late_kill(cfg: &mut SimConfig, count: f64) {
    let timeline = std::mem::take(&mut cfg.timeline);
    cfg.timeline = timeline.at(
        30,
        Event::Kill {
            count: count as usize,
        },
    );
}

/// Job `outcome`'s config, rebuilt from the base and its axis values.
fn job_config(base: &SimConfig, outcome: &RunOutcome) -> SimConfig {
    let value = |a: usize| match outcome.params[a].1 {
        AxisValue::Float(x) => x,
        AxisValue::Text(_) => unreachable!("numeric axes"),
    };
    let mut cfg = base.clone();
    set_lambda(&mut cfg, value(0));
    set_late_kill(&mut cfg, value(1));
    cfg.seed = outcome.seed;
    cfg
}

proptest! {
    /// Every entry a two-axis sweep writes sits under the key rebuilt
    /// from scratch (`to_toml()` of the job's config and of the base
    /// config under the job's seed), with and without `from_round`, at
    /// 1 and 2 workers — and no other entry exists.
    #[test]
    fn sweep_keys_equal_from_scratch_keys(
        which in 0usize..6,
        n in 60usize..120,
        random_seed: u64,
    ) {
        let base = key_shape(which, n);
        let (warmup, rounds, r) = (2, 6, 20);
        let seeds = [0, 9, 10, 1 << 32, u64::MAX, random_seed];
        for from in [None, Some(r)] {
            for threads in [1, 2] {
                let store = Arc::new(CheckpointStore::in_memory());
                let sweep = Sweep::new(base.clone())
                    .axis("lambda", [1.5, 2.5], set_lambda)
                    .axis("late_kill", [1.0, 2.0], set_late_kill)
                    .seeds(seeds)
                    .warmup(warmup)
                    .rounds(rounds)
                    .threads(threads)
                    .store(store.clone());
                let sweep = match from {
                    Some(r) => sweep.from_round(r),
                    None => sweep,
                };
                let outcomes = sweep.run().unwrap();
                prop_assert_eq!(outcomes.len(), 4 * seeds.len());
                let mut want = Vec::new();
                for outcome in &outcomes {
                    let cfg = job_config(&base, outcome);
                    let fp = outcome_key(&cfg, warmup, rounds, from.map(|r| (r, &base)));
                    prop_assert!(
                        store.load(&fp, EntryKind::Outcome).is_ok(),
                        "no outcome entry under the from-scratch key of job {}", outcome.index
                    );
                    want.push(fp.short_hex());
                }
                if let Some(r) = from {
                    for seed in seeds {
                        let fp = prefix_key(&base, seed, r);
                        prop_assert!(
                            store.load(&fp, EntryKind::Checkpoint).is_ok(),
                            "no prefix entry under the from-scratch key of seed {}", seed
                        );
                        want.push(fp.short_hex());
                    }
                }
                let mut got = store.entries().unwrap();
                got.sort();
                want.sort();
                prop_assert_eq!(got, want);
            }
        }
    }
}
