//! The scenario layer end to end: a TOML-declared scenario is loaded,
//! validated, swept over seeds on multiple threads, and every per-seed
//! result matches an individual serial run exactly.

use antalloc_core::AntParams;
use antalloc_noise::NoiseModel;
use antalloc_sim::{ConfigError, ControllerSpec, Scenario, SimConfig, Sweep};
use antalloc_tests::contract::check_sweep_per_seed;
use antalloc_tests::SmallColony;

const SCENARIO_TOML: &str = r#"
name = "batch-acceptance"
n = 1200
demands = [150, 250, 100]
seed = 99

[controller]
kind = "ant"
gamma = 0.0625

[noise]
kind = "sigmoid"
lambda = 2.0

[initial]
kind = "uniform-random"
"#;

#[test]
fn toml_scenario_swept_over_8_seeds_matches_8_serial_runs() {
    let scenario = Scenario::from_toml(SCENARIO_TOML).expect("scenario validates");
    assert_eq!(scenario.name.as_deref(), Some("batch-acceptance"));

    let traces = check_sweep_per_seed(&scenario.config, 0..8, 100, 300, 4);

    // And different seeds genuinely explored different trajectories.
    // disallowed_types: only the distinct COUNT is asserted, so hash
    // iteration order cannot affect the test.
    #[allow(clippy::disallowed_types)]
    let distinct: std::collections::HashSet<_> = traces
        .iter()
        .map(|t| t.rounds.last().map(|r| &r.loads))
        .collect();
    assert!(distinct.len() > 1, "all 8 seeds produced identical loads");
}

#[test]
fn invalid_scenarios_yield_config_errors_not_panics() {
    // Structurally broken documents, one per validation class.
    for (mangle, expect) in [
        ("n = 1200", "n = 0"),                                    // zero-ant colony
        ("demands = [150, 250, 100]", "demands = []"),            // no tasks
        ("demands = [150, 250, 100]", "demands = [150, 0, 100]"), // zero demand
        ("gamma = 0.0625", "gamma = 0.2"),                        // outside γ window
        ("lambda = 2.0", "lambda = -1.0"),                        // bad noise param
    ] {
        let text = SCENARIO_TOML.replace(mangle, expect);
        assert!(
            Scenario::from_toml(&text).is_err(),
            "`{expect}` should have been rejected"
        );
    }
    // Timeline/colony task-count mismatch: a wrong-length demand step.
    let text = format!(
        "{SCENARIO_TOML}\n[[timeline]]\nat = 5\nkind = \"set-demands\"\ndemands = [1, 2]\n"
    );
    assert!(matches!(
        Scenario::from_toml(&text).unwrap_err(),
        ConfigError::Timeline(_)
    ));
    // Syntax garbage.
    assert!(matches!(
        Scenario::from_toml("[controller\nkind=").unwrap_err(),
        ConfigError::Parse(_)
    ));
}

#[test]
fn sweep_grid_is_deterministic_across_thread_counts() {
    let base = SmallColony {
        n: 600,
        demands: vec![80, 120],
        ..Default::default()
    }
    .scenario()
    .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
    .build()
    .expect("fixture scenario is valid");
    let sweep = |threads: usize| {
        Sweep::new(base.clone())
            .axis("lambda", [0.5, 2.0], |cfg, lambda| {
                cfg.noise = NoiseModel::Sigmoid { lambda };
            })
            .seeds(10..14)
            .rounds(100)
            .threads(threads)
            .run()
            .expect("sweep runs")
    };
    let serial = sweep(1);
    let parallel = sweep(8);
    assert_eq!(serial.len(), 8);
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.params, b.params);
        assert_eq!(a.summary.total_regret(), b.summary.total_regret());
        assert_eq!(a.final_loads, b.final_loads);
    }
}

#[test]
fn config_files_roundtrip_through_both_formats() {
    let scenario = Scenario::from_toml(SCENARIO_TOML).unwrap();
    let via_toml = SimConfig::from_toml(&scenario.config.to_toml()).unwrap();
    let via_json = SimConfig::from_json(&scenario.config.to_json()).unwrap();
    assert_eq!(via_toml, scenario.config);
    assert_eq!(via_json, scenario.config);
}
