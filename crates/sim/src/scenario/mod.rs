//! The scenario layer: validated construction, declarative files, and
//! multi-seed sweeps.
//!
//! The paper's theorems are statements over *distributions* of runs —
//! many seeds, many noise models, many demand timelines. This module
//! makes that the unit of work:
//!
//! * [`ScenarioBuilder`] — fluent, `Result`-returning construction of
//!   [`crate::SimConfig`] with a typed [`ConfigError`] for
//!   everything that used to panic at run time;
//! * [`Scenario`] — a named config that round-trips through TOML or
//!   JSON text ([`Scenario::from_toml`], [`Scenario::to_toml`], …) and
//!   files ([`Scenario::load`] / [`Scenario::save`]);
//! * [`Sweep`] — fans a scenario out over seed lists and parameter
//!   grids across OS threads, streaming [`RunOutcome`]s that are
//!   bit-identical to individual serial runs. A sweep with no axes is a
//!   plain multi-seed batch.
//!
//! ```
//! use antalloc_sim::{Scenario, Sweep};
//!
//! let scenario = Scenario::from_toml(r#"
//!     name = "smoke"
//!     n = 400
//!     demands = [60, 80]
//!     [controller]
//!     kind = "ant"
//!     gamma = 0.0625
//!     [noise]
//!     kind = "sigmoid"
//!     lambda = 2.0
//! "#).unwrap();
//! let outcomes = Sweep::new(scenario.config).rounds(50).seeds(0..4).run().unwrap();
//! assert_eq!(outcomes.len(), 4);
//! ```

mod builder;
mod codec;
mod error;
pub mod json;
mod sink;
mod sweep;
pub mod toml;
mod value;

use std::path::Path;

pub use builder::{ScenarioBuilder, MAX_TASKS};
pub use codec::{
    condition_from_value, condition_to_value, config_from_value, config_to_value,
    controller_from_value, controller_to_value, event_from_value, event_to_value, gen_from_value,
    gen_to_value, initial_from_value, initial_to_value, noise_from_value, noise_to_value,
    timeline_from_value, timeline_to_value, trigger_from_value, trigger_to_value,
};
pub use error::ConfigError;
pub use sink::{CsvSink, JsonlSink, RunSink};
pub use sweep::{AxisValue, CapturePolicy, RunOutcome, Sweep, UsePolicy};
pub use value::Value;

use crate::config::SimConfig;

/// A named, file-round-trippable simulation scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Optional human-readable name (the `name` key in files).
    pub name: Option<String>,
    /// The validated configuration.
    pub config: SimConfig,
    /// Whether the scenario opted out of the parameter-window checks
    /// (the `out_of_spec` key); structural validation always applies.
    pub out_of_spec: bool,
}

impl Scenario {
    /// Wraps a config with no name.
    ///
    /// `out_of_spec` is detected from the config itself: a config that
    /// passes structural validation but sits outside the parameter
    /// windows (an ablation/lower-bound scenario) gets the flag set so
    /// its serialized form round-trips through the strict loader.
    pub fn new(config: SimConfig) -> Self {
        let out_of_spec = config.validate().is_err() && config.validate_structure().is_ok();
        Self {
            name: None,
            config,
            out_of_spec,
        }
    }

    /// Names the scenario.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    fn from_value(root: &Value) -> Result<Self, ConfigError> {
        let (config, name, out_of_spec) = config_from_value(root)?;
        if out_of_spec {
            config.validate_structure()?;
        } else {
            config.validate()?;
        }
        Ok(Self {
            name,
            config,
            out_of_spec,
        })
    }

    fn to_value(&self) -> Value {
        config_to_value(&self.config, self.name.as_deref(), self.out_of_spec)
    }

    /// Parses and validates a TOML scenario.
    pub fn from_toml(text: &str) -> Result<Self, ConfigError> {
        Self::from_value(&toml::parse(text)?)
    }

    /// Parses and validates a JSON scenario.
    pub fn from_json(text: &str) -> Result<Self, ConfigError> {
        Self::from_value(&json::parse(text)?)
    }

    /// Serializes as TOML.
    pub fn to_toml(&self) -> String {
        toml::write(&self.to_value())
    }

    /// Serializes as JSON.
    pub fn to_json(&self) -> String {
        json::write(&self.to_value())
    }

    /// Loads a scenario file, dispatching on the `.toml`/`.json`
    /// extension (case-insensitive, defaulting to TOML).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ConfigError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| ConfigError::Io(format!("read {}: {e}", path.display())))?;
        if is_json_extension(path) {
            Self::from_json(&text)
        } else {
            Self::from_toml(&text)
        }
    }

    /// Saves the scenario, dispatching on the extension like
    /// [`Scenario::load`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ConfigError> {
        let path = path.as_ref();
        let text = if is_json_extension(path) {
            self.to_json()
        } else {
            self.to_toml()
        };
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| ConfigError::Io(format!("mkdir {}: {e}", parent.display())))?;
        }
        std::fs::write(path, text)
            .map_err(|e| ConfigError::Io(format!("write {}: {e}", path.display())))
    }
}

fn is_json_extension(path: &Path) -> bool {
    path.extension()
        .and_then(|e| e.to_str())
        .is_some_and(|e| e.eq_ignore_ascii_case("json"))
}

impl SimConfig {
    /// Serializes this config as a TOML scenario document.
    pub fn to_toml(&self) -> String {
        Scenario::new(self.clone()).to_toml()
    }

    /// Parses a config from a TOML scenario document (structurally
    /// validated; see [`Scenario::from_toml`]).
    pub fn from_toml(text: &str) -> Result<Self, ConfigError> {
        Scenario::from_toml(text).map(|s| s.config)
    }

    /// Serializes this config as a JSON scenario document.
    pub fn to_json(&self) -> String {
        Scenario::new(self.clone()).to_json()
    }

    /// Parses a config from a JSON scenario document.
    pub fn from_json(text: &str) -> Result<Self, ConfigError> {
        Scenario::from_json(text).map(|s| s.config)
    }

    /// Renders [`SimConfig::to_toml`] once, split around the top-level
    /// `seed` value, so the canonical text of this config under any
    /// seed is a splice instead of a fresh render.
    pub(crate) fn to_toml_around_seed(&self) -> SeedSplitToml {
        let text = self.to_toml();
        // The writer puts every top-level scalar first, one
        // `key = value` line each (strings escape their newlines), so
        // the seed's line is found before the first blank line or
        // section header; a `[noise]` seed can never match.
        let mut start = 0;
        for line in text.split_inclusive('\n') {
            if line.starts_with('[') || line == "\n" {
                break;
            }
            if let Some(digits) = line.strip_prefix("seed = ") {
                let head = start + "seed = ".len();
                let tail = head + digits.trim_end_matches('\n').len();
                return SeedSplitToml {
                    head: text[..head].to_string(),
                    tail: text[tail..].to_string(),
                };
            }
            start += line.len();
        }
        unreachable!("the canonical text has a top-level seed line:\n{text}")
    }
}

/// A config's canonical TOML with its top-level seed value cut out
/// (see [`SimConfig::to_toml_around_seed`]). Nothing else in the text
/// depends on the seed, so `head ‖ seed digits ‖ tail` is the
/// config's `to_toml()` under any seed, byte for byte.
pub(crate) struct SeedSplitToml {
    head: String,
    tail: String,
}

impl SeedSplitToml {
    /// The canonical text under `seed`, written into `buf`.
    pub(crate) fn splice<'b>(&self, seed: u64, buf: &'b mut Vec<u8>) -> &'b [u8] {
        use std::io::Write as _;
        buf.clear();
        buf.extend_from_slice(self.head.as_bytes());
        // A `Vec` write cannot fail.
        let _ = write!(buf, "{seed}");
        buf.extend_from_slice(self.tail.as_bytes());
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antalloc_core::AntParams;
    use antalloc_env::{Condition, Event, InitialConfig, Trigger};
    use antalloc_noise::{GreyZonePolicy, NoiseModel};

    use crate::config::ControllerSpec;

    fn rich_scenario() -> Scenario {
        let leaf = || Condition::RoundReached { round: 1 };
        let config = SimConfig::builder(4000, vec![400, 700, 300])
            .noise(NoiseModel::Adversarial {
                gamma_ad: 0.05,
                policy: GreyZonePolicy::LoadThreshold(vec![9, 9, 9]),
            })
            .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
            .seed(0xC0FFEE)
            .event(4000, Event::SetDemands(vec![700, 400, 300]))
            .event(8000, Event::SetDemands(vec![500, 500, 400]))
            .initial(InitialConfig::SaturatedPlus { extra: 7 })
            // 64 nested `and`s, the deepest condition validation
            // accepts, must fit under the parsers' nesting cap.
            .trigger(Trigger::once(
                (0..64).fold(leaf(), |a, _| Condition::And(Box::new(a), Box::new(leaf()))),
                Event::Scramble,
            ))
            .build()
            .unwrap();
        Scenario::new(config).named("rich")
    }

    #[test]
    fn toml_and_json_roundtrip_exactly() {
        let scenario = rich_scenario();
        let toml_text = scenario.to_toml();
        let json_text = scenario.to_json();
        assert_eq!(
            Scenario::from_toml(&toml_text).unwrap(),
            scenario,
            "\n{toml_text}"
        );
        assert_eq!(
            Scenario::from_json(&json_text).unwrap(),
            scenario,
            "\n{json_text}"
        );
    }

    #[test]
    fn minimal_toml_uses_defaults() {
        let s = Scenario::from_toml(
            "n = 100\ndemands = [20, 30]\n[controller]\nkind = \"trivial\"\n[noise]\nkind = \"exact\"\n",
        )
        .unwrap();
        assert_eq!(s.config.seed, 0);
        assert!(s.config.timeline.is_empty());
        assert_eq!(s.config.initial, InitialConfig::AllIdle);
        assert_eq!(s.name, None);
    }

    #[test]
    fn invalid_scenarios_fail_with_config_errors_not_panics() {
        // Zero-ant colony.
        let err = Scenario::from_toml(
            "n = 0\ndemands = [1]\n[controller]\nkind = \"trivial\"\n[noise]\nkind = \"exact\"\n",
        )
        .unwrap_err();
        assert_eq!(err, ConfigError::EmptyColony);
        // Demand-step task-count mismatch (timeline error).
        let err = Scenario::from_toml(
            "n = 10\ndemands = [5, 5]\n[controller]\nkind = \"trivial\"\n[noise]\nkind = \"exact\"\n[[timeline]]\nat = 3\nkind = \"set-demands\"\ndemands = [1]\n",
        )
        .unwrap_err();
        assert!(matches!(err, ConfigError::Timeline(_)), "{err:?}");
        // Parameter window violation (γ > 1/16) is strict by default...
        let gamma_high =
            "n = 10\ndemands = [5]\n[controller]\nkind = \"ant\"\ngamma = 0.125\n[noise]\nkind = \"exact\"\n";
        let err = Scenario::from_toml(gamma_high).unwrap_err();
        assert!(matches!(err, ConfigError::Controller(_)), "{err:?}");
        // ...and explicitly waivable in the file.
        let waived = format!("out_of_spec = true\n{gamma_high}");
        assert!(Scenario::from_toml(&waived).unwrap().out_of_spec);
        // Syntax errors.
        assert!(matches!(
            Scenario::from_toml("n = = 3").unwrap_err(),
            ConfigError::Parse(_)
        ));
    }

    #[test]
    fn file_roundtrip_both_formats() {
        let dir = std::env::temp_dir().join("antalloc_scenario_test");
        let scenario = rich_scenario();
        // Extension dispatch is case-insensitive (`.JSON` is JSON).
        for file in ["s.toml", "s.json", "s.JSON"] {
            let path = dir.join(file);
            scenario.save(&path).unwrap();
            let back = Scenario::load(&path).unwrap();
            assert_eq!(back, scenario, "{file}");
        }
        assert!(std::fs::read_to_string(dir.join("s.JSON"))
            .unwrap()
            .trim_start()
            .starts_with('{'));
        std::fs::remove_dir_all(&dir).ok();
        assert!(matches!(
            Scenario::load(dir.join("missing.toml")),
            Err(ConfigError::Io(_))
        ));
    }

    #[test]
    fn out_of_spec_flag_survives_roundtrip() {
        let config = SimConfig::builder(100, vec![10])
            .controller(ControllerSpec::Ant(AntParams::new(0.125)))
            .out_of_spec_params()
            .build()
            .unwrap();
        // Scenario::new detects that the config is structurally sound
        // but outside the windows, and sets the flag automatically.
        let scenario = Scenario::new(config.clone());
        assert!(scenario.out_of_spec);
        let text = scenario.to_toml();
        let back = Scenario::from_toml(&text).unwrap();
        assert!(back.out_of_spec);
        assert_eq!(back.config, scenario.config);
        // The bare SimConfig wrappers take the same path: an
        // out-of-spec config's own serialization must reload.
        let direct = SimConfig::from_toml(&config.to_toml()).unwrap();
        assert_eq!(direct, config);
        let via_json = SimConfig::from_json(&config.to_json()).unwrap();
        assert_eq!(via_json, config);
    }

    #[test]
    fn unknown_keys_are_rejected_not_ignored() {
        // A typo'd section or key must fail loudly: silently running a
        // different scenario is the worst failure mode a simulation
        // study can have.
        let base =
            "n = 10\ndemands = [5]\n[controller]\nkind = \"trivial\"\n[noise]\nkind = \"exact\"\n";
        let arena = "[arena]\nsites = [0]\ntravel_rounds = 2\nwander_probability = 0.01\n";
        assert!(Scenario::from_toml(base).is_ok());
        assert!(Scenario::from_toml(&format!("{base}{arena}")).is_ok());
        for bad in [
            format!("{base}[schedul]\nkind = \"static\"\n"), // section typo
            format!("{base}{}", arena.replace("travel_rounds", "travel_round")), // key typo
            base.replace("kind = \"trivial\"", "kind = \"trivial\"\nCd = 1e6"),
            base.replace("kind = \"exact\"", "kind = \"exact\"\nlambd = 2.0"),
            format!("sed = 4\n{base}"), // top-level typo of `seed`
            format!("{base}[schedule]\nkind = \"static\"\n"), // retired section
        ] {
            let err = Scenario::from_toml(&bad).unwrap_err();
            assert!(
                matches!(err, ConfigError::Parse(_)),
                "`{bad}` should be rejected, got {err:?}"
            );
        }
        // The retired `[schedule]` section is an ordinary unknown key in
        // JSON too, and the error names it.
        let json = r#"{"n": 10, "demands": [5], "controller": {"kind": "trivial"},
            "noise": {"kind": "exact"}, "schedule": {"kind": "static"}}"#;
        let err = Scenario::from_json(json).unwrap_err();
        assert!(matches!(err, ConfigError::Parse(_)), "{err:?}");
        assert!(err.to_string().contains("`schedule`"), "{err}");
    }

    #[test]
    fn non_finite_params_roundtrip_through_json() {
        // cd = +inf passes strict validation (leave probability 0); its
        // JSON form must survive the writer's string encoding.
        let mut params = AntParams::new(1.0 / 32.0);
        params.cd = f64::INFINITY;
        let config = SimConfig::builder(100, vec![10])
            .controller(ControllerSpec::Ant(params))
            .build()
            .unwrap();
        let back = SimConfig::from_json(&config.to_json()).unwrap();
        assert_eq!(back, config);
        let back = SimConfig::from_toml(&config.to_toml()).unwrap();
        assert_eq!(back, config);
    }

    /// Every shape the seed split must survive: `fingerprints.rs`'s
    /// rich mixes (cycle, one-shot kill, trigger, spawn generator), an
    /// arena, correlated noise whose own `[noise]` seed (9) is one of
    /// the split seeds, the 64-deep adversarial scenario, and an
    /// out-of-spec config (its `out_of_spec` line follows the seed).
    fn split_shape(which: usize, seed: u64) -> SimConfig {
        let demands = vec![20, 30];
        let base = SimConfig::builder(120, demands.clone())
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .seed(seed);
        let built = match which % 6 {
            mix @ (0 | 1) => {
                let spec = if mix == 0 {
                    ControllerSpec::Ant(AntParams::new(1.0 / 16.0))
                } else {
                    ControllerSpec::Mix(vec![
                        (2.0, ControllerSpec::Ant(AntParams::new(1.0 / 16.0))),
                        (1.0, ControllerSpec::Trivial),
                    ])
                };
                base.controller(spec)
                    .initial(InitialConfig::SaturatedPlus { extra: 2 })
                    .timeline(antalloc_env::Timeline::new().every(
                        40,
                        40,
                        vec![Event::SetDemands(vec![30, 20]), Event::SetDemands(demands)],
                    ))
                    .event(11, Event::Kill { count: 3 })
                    .trigger(Trigger::once(
                        Condition::RegretAbove {
                            threshold: 60,
                            for_rounds: 3,
                        },
                        Event::Scramble,
                    ))
                    .generate(antalloc_env::TimelineGen {
                        start: 5,
                        until: 90,
                        mean_gap: 30.0,
                        shock: antalloc_env::GenShock::Spawn {
                            min_frac: 0.01,
                            max_frac: 0.05,
                        },
                    })
                    .build()
            }
            2 => base
                .arena(antalloc_env::ArenaConfig {
                    site_of_task: vec![0, 1],
                    travel_rounds: 3,
                    wander_probability: 0.05,
                })
                .build(),
            3 => base
                .noise(NoiseModel::CorrelatedSigmoid {
                    lambda: 2.0,
                    rho: 0.5,
                    seed: 9,
                })
                .build(),
            4 => {
                let mut config = rich_scenario().config;
                config.seed = seed;
                Ok(config)
            }
            _ => base
                .controller(ControllerSpec::Ant(AntParams::new(1.0 / 8.0)))
                .out_of_spec_params()
                .build(),
        };
        built.expect("valid shape")
    }

    /// `head ‖ digits ‖ tail` of a split taken at one seed is
    /// `to_toml()` of the same config at another, byte for byte.
    fn check_seed_split(which: usize, split_seed: u64, seed: u64) {
        let split = split_shape(which, split_seed).to_toml_around_seed();
        let mut buf = Vec::new();
        let want = split_shape(which, seed).to_toml();
        assert_eq!(
            std::str::from_utf8(split.splice(seed, &mut buf)).unwrap(),
            want,
            "shape {which}, split at seed {split_seed}"
        );
    }

    #[test]
    fn seed_split_splices_edge_seeds() {
        let edges = [0, 9, 10, 1 << 32, u64::MAX];
        for which in 0..6 {
            for split_seed in edges {
                for seed in edges {
                    check_seed_split(which, split_seed, seed);
                }
            }
        }
        let text = split_shape(5, 3).to_toml();
        assert!(text.contains("seed = 3\nout_of_spec = true\n"), "{text}");
    }

    proptest::proptest! {
        #[test]
        fn seed_split_splices_random_seeds(which in 0usize..6, split_seed: u64, seed: u64) {
            check_seed_split(which, split_seed, seed);
        }
    }
}
