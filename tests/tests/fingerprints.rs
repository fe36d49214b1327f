//! Fingerprint stability: store keys are a pure function of the
//! *meaning* of a scenario, not its spelling. The canonical scenario
//! bytes (`SimConfig::to_toml`) must be invariant under TOML key
//! reordering and `Scenario::save` → `load` round-trips, and must
//! change whenever any config field, seed, timeline event, trigger,
//! generator, or round budget differs — observed end to end through
//! store hits and misses of real sweeps.

use std::sync::Arc;

use antalloc_core::{AntParams, ExactGreedyParams, PreciseSigmoidParams};
use antalloc_env::{Condition, Event, GenShock, InitialConfig, Timeline, TimelineGen, Trigger};
use antalloc_noise::NoiseModel;
use antalloc_sim::{ControllerSpec, Scenario, ScenarioBuilder, SimConfig, Sweep};
use antalloc_store::CheckpointStore;
use proptest::prelude::*;

/// Homogeneous and mixed controller populations.
fn spec_for(which: usize) -> ControllerSpec {
    match which % 4 {
        0 => ControllerSpec::Ant(AntParams::new(1.0 / 16.0)),
        1 => ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.05, 0.5)),
        2 => ControllerSpec::Mix(vec![
            (2.0, ControllerSpec::Ant(AntParams::new(1.0 / 16.0))),
            (1.0, ControllerSpec::Trivial),
        ]),
        _ => ControllerSpec::Mix(vec![
            (1.0, ControllerSpec::Ant(AntParams::new(1.0 / 32.0))),
            (
                1.0,
                ControllerSpec::ExactGreedy(ExactGreedyParams::default()),
            ),
            (
                1.0,
                ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.05, 0.5)),
            ),
        ]),
    }
}

/// A scenario exercising every input of the canonical form: mixes,
/// one-shot events, a demand-alternating cycle, a trigger, and a
/// seeded shock generator.
fn rich_config(which: usize, n: usize, seed: u64, shocks: bool) -> SimConfig {
    let demands = vec![(n / 6) as u64, (n / 4) as u64];
    let mut builder = ScenarioBuilder::new(n, demands.clone())
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(spec_for(which))
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
    /// no matter which controller mix / timeline shape was drawn.
    #[test]
    fn canonical_toml_is_a_fixed_point(
        which in 0usize..4,
        n in 60usize..200,
        seed: u64,
        shocks: bool,
    ) {
        let config = rich_config(which, n, seed, shocks);
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
