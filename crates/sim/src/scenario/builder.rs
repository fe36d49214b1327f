//! The fluent, validating scenario builder.

use antalloc_env::{ArenaConfig, Event, InitialConfig, Timeline};
use antalloc_noise::NoiseModel;

use crate::config::{ControllerSpec, SimConfig};
use crate::scenario::ConfigError;

pub use antalloc_core::MAX_TASKS;

/// How much validation a build performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Strictness {
    /// Structural checks plus the papers' admissible parameter windows.
    Strict,
    /// Structural checks only — for ablation and lower-bound scenarios
    /// that deliberately run outside the assumptions.
    OutOfSpec,
}

/// Builds a validated [`SimConfig`].
///
/// Replaces the old panic-prone `SimConfig::new(..)` + `build()` flow:
/// every constraint that used to explode mid-run (or silently produce a
/// meaningless run) is checked here, and violations come back as a
/// typed [`ConfigError`].
///
/// ```
/// use antalloc_core::AntParams;
/// use antalloc_noise::NoiseModel;
/// use antalloc_sim::{ControllerSpec, SimConfig};
///
/// let config = SimConfig::builder(4000, vec![400, 700, 300])
///     .noise(NoiseModel::Sigmoid { lambda: 2.0 })
///     .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
///     .seed(0xC0FFEE)
///     .build()
///     .expect("valid scenario");
/// assert_eq!(config.n, 4000);
/// ```
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    config: SimConfig,
    strictness: Strictness,
}

impl ScenarioBuilder {
    /// Starts from a colony size and demand vector, with defaults for
    /// everything else: sigmoid noise (λ = 2), Algorithm Ant at its
    /// default γ, seed 0, static demands, all-idle start.
    pub fn new(n: usize, demands: Vec<u64>) -> Self {
        Self {
            config: SimConfig {
                n,
                demands,
                noise: NoiseModel::Sigmoid { lambda: 2.0 },
                controller: ControllerSpec::Ant(antalloc_core::AntParams::default()),
                seed: 0,
                timeline: Timeline::new(),
                initial: InitialConfig::AllIdle,
                arena: None,
            },
            strictness: Strictness::Strict,
        }
    }

    /// Continues from an existing config (e.g. one loaded from a file).
    pub fn from_config(config: SimConfig) -> Self {
        Self {
            config,
            strictness: Strictness::Strict,
        }
    }

    /// Sets the feedback generator.
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.config.noise = noise;
        self
    }

    /// Sets the algorithm every ant runs.
    pub fn controller(mut self, controller: ControllerSpec) -> Self {
        self.config.controller = controller;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the event timeline (replacing any previous one).
    pub fn timeline(mut self, timeline: Timeline) -> Self {
        self.config.timeline = timeline;
        self
    }

    /// Appends one scripted event to the timeline (builder sugar; see
    /// [`Timeline::at`]).
    pub fn event(mut self, round: u64, event: Event) -> Self {
        let timeline = std::mem::take(&mut self.config.timeline);
        self.config.timeline = timeline.at(round, event);
        self
    }

    /// Appends one conditional trigger to the timeline (builder sugar;
    /// see [`antalloc_env::Trigger`]).
    pub fn trigger(mut self, trigger: antalloc_env::Trigger) -> Self {
        let timeline = std::mem::take(&mut self.config.timeline);
        self.config.timeline = timeline.trigger(trigger);
        self
    }

    /// Appends one seeded shock-schedule generator to the timeline
    /// (builder sugar; see [`antalloc_env::TimelineGen`]).
    pub fn generate(mut self, generator: antalloc_env::TimelineGen) -> Self {
        let timeline = std::mem::take(&mut self.config.timeline);
        self.config.timeline = timeline.generate(generator);
        self
    }

    /// Sets the initial configuration.
    pub fn initial(mut self, initial: InitialConfig) -> Self {
        self.config.initial = initial;
        self
    }

    /// Pins the tasks to spatial sites (see
    /// [`antalloc_env::ArenaConfig`]); ants then sense demand locally
    /// and idle ants wander between sites. `None` (the default) is the
    /// paper's well-mixed colony.
    pub fn arena(mut self, arena: ArenaConfig) -> Self {
        self.config.arena = Some(arena);
        self
    }

    /// Skips the admissible-parameter-window checks (γ ranges, pause
    /// probabilities, …) while keeping all structural validation.
    ///
    /// For ablation and lower-bound scenarios that deliberately violate
    /// the papers' assumptions; the run is still well-defined, just not
    /// covered by the theorems.
    pub fn out_of_spec_params(mut self) -> Self {
        self.strictness = Strictness::OutOfSpec;
        self
    }

    /// Validates and returns the finished config.
    pub fn build(self) -> Result<SimConfig, ConfigError> {
        validate(&self.config, self.strictness)?;
        Ok(self.config)
    }
}

impl SimConfig {
    /// Starts a [`ScenarioBuilder`]; see its docs for the defaults.
    pub fn builder(n: usize, demands: Vec<u64>) -> ScenarioBuilder {
        ScenarioBuilder::new(n, demands)
    }

    /// Full validation: structural soundness plus the papers'
    /// admissible parameter windows.
    pub fn validate(&self) -> Result<(), ConfigError> {
        validate(self, Strictness::Strict)
    }

    /// Structural validation only — everything that would make a run
    /// panic or be ill-defined, ignoring parameter windows. This is the
    /// check both engines perform at build time.
    pub fn validate_structure(&self) -> Result<(), ConfigError> {
        validate(self, Strictness::OutOfSpec)
    }
}

pub(crate) fn validate(config: &SimConfig, strictness: Strictness) -> Result<(), ConfigError> {
    if config.n == 0 {
        return Err(ConfigError::EmptyColony);
    }
    if config.demands.is_empty() {
        return Err(ConfigError::NoTasks);
    }
    if let Some(task) = config.demands.iter().position(|&d| d == 0) {
        return Err(ConfigError::ZeroDemand { task });
    }
    let k = config.demands.len();
    if k > MAX_TASKS {
        return Err(ConfigError::TooManyTasks {
            tasks: k,
            max: MAX_TASKS,
        });
    }
    validate_controller(&config.controller, k, strictness)?;
    if let Some(arena) = &config.arena {
        arena.validate(k).map_err(ConfigError::Arena)?;
    }
    config.noise.validate(k).map_err(ConfigError::Noise)?;
    config
        .timeline
        .validate(k, config.n)
        .map_err(ConfigError::Timeline)?;
    config
        .timeline
        .validate_triggers(k)
        .map_err(ConfigError::Trigger)?;
    validate_initial(&config.initial, k)?;
    Ok(())
}

fn validate_controller(
    spec: &ControllerSpec,
    num_tasks: usize,
    strictness: Strictness,
) -> Result<(), ConfigError> {
    // Mixes validate recursively: shape here, each sub-spec in full.
    if let ControllerSpec::Mix(parts) = spec {
        if parts.is_empty() {
            return Err(ConfigError::Controller(
                "mix must contain at least one sub-spec".into(),
            ));
        }
        if parts.len() > usize::from(u16::MAX) {
            return Err(ConfigError::Controller(format!(
                "mix has {} sub-specs; at most {} are supported",
                parts.len(),
                u16::MAX
            )));
        }
        for (i, (weight, sub)) in parts.iter().enumerate() {
            if !(weight.is_finite() && *weight > 0.0) {
                return Err(ConfigError::Controller(format!(
                    "mix part {i}: weight must be positive and finite, got {weight}"
                )));
            }
            if matches!(sub, ControllerSpec::Mix(_)) {
                return Err(ConfigError::Controller(format!(
                    "mix part {i}: nested mixes are not allowed"
                )));
            }
            // Sub-specs see the full validation at the caller's
            // strictness (structural always; windows when strict).
            validate_controller(sub, num_tasks, strictness)
                .map_err(|e| ConfigError::Controller(format!("mix part {i}: {e}")))?;
        }
        return Ok(());
    }
    // Structural checks: shapes that make the machine itself nonsensical.
    match spec {
        ControllerSpec::Hysteresis { depth, lazy } => {
            if *depth == 0 {
                return Err(ConfigError::Controller(
                    "hysteresis depth must be at least 1".into(),
                ));
            }
            if let Some(p) = lazy {
                if !(p.is_finite() && *p > 0.0 && *p <= 1.0) {
                    return Err(ConfigError::Controller(format!(
                        "lazy switching probability must be in (0, 1], got {p}"
                    )));
                }
            }
            if num_tasks != 1 && strictness == Strictness::Strict {
                return Err(ConfigError::Controller(format!(
                    "hysteresis machines observe a single task, colony has {num_tasks}"
                )));
            }
        }
        ControllerSpec::ExactGreedy(p) => {
            for (name, v) in [("p_join", p.p_join), ("p_leave", p.p_leave)] {
                if !(v.is_finite() && (0.0..=1.0).contains(&v)) {
                    return Err(ConfigError::Controller(format!(
                        "{name} must be a probability, got {v}"
                    )));
                }
            }
        }
        // A gain outside (0, 1] is not a probability: the draw itself
        // is ill-defined, so the check is structural, not a window.
        ControllerSpec::Proportional(p) => {
            p.validate().map_err(ConfigError::Controller)?;
        }
        _ => {}
    }
    if strictness == Strictness::OutOfSpec {
        return Ok(());
    }
    // Admissible windows, per the algorithms' own validators.
    match spec {
        ControllerSpec::Ant(p) | ControllerSpec::AntDesync(p) => {
            p.validate().map_err(ConfigError::Controller)
        }
        ControllerSpec::PreciseSigmoid(p) => p.validate().map_err(ConfigError::Controller),
        ControllerSpec::PreciseAdversarial(p) => p.validate().map_err(ConfigError::Controller),
        ControllerSpec::Trivial
        | ControllerSpec::ExactGreedy(_)
        | ControllerSpec::Proportional(_)
        | ControllerSpec::Hysteresis { .. } => Ok(()),
        // Handled (recursively) by the structural pass above.
        ControllerSpec::Mix(_) => Ok(()),
    }
}

fn validate_initial(initial: &InitialConfig, num_tasks: usize) -> Result<(), ConfigError> {
    if let InitialConfig::AllOnTask(j) = initial {
        if *j >= num_tasks {
            return Err(ConfigError::Initial(format!(
                "all-on-task references task {j}, colony has {num_tasks} tasks"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use antalloc_core::AntParams;
    use antalloc_noise::GreyZonePolicy;

    fn base() -> ScenarioBuilder {
        SimConfig::builder(100, vec![20, 30])
    }

    #[test]
    fn defaults_build() {
        let cfg = base().build().expect("defaults are valid");
        assert!(cfg.timeline.is_empty());
        assert_eq!(cfg.initial, InitialConfig::AllIdle);
    }

    #[test]
    fn zero_ants_and_empty_or_zero_demands_are_rejected() {
        assert_eq!(
            SimConfig::builder(0, vec![1]).build().unwrap_err(),
            ConfigError::EmptyColony
        );
        assert_eq!(
            SimConfig::builder(10, vec![]).build().unwrap_err(),
            ConfigError::NoTasks
        );
        assert_eq!(
            SimConfig::builder(10, vec![5, 0]).build().unwrap_err(),
            ConfigError::ZeroDemand { task: 1 }
        );
    }

    #[test]
    fn schedule_mismatch_is_rejected_at_build_time() {
        let err = base()
            .event(5, Event::SetDemands(vec![1, 2, 3]))
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::Timeline(_)), "{err:?}");
    }

    #[test]
    fn timeline_defects_are_rejected_at_build_time() {
        // Unsorted events.
        let err = base()
            .event(9, Event::Scramble)
            .event(5, Event::Scramble)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::Timeline(_)), "{err:?}");
        // Kill below zero population (colony has 100 ants).
        let err = base()
            .event(5, Event::Kill { count: 100 })
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("below 1"), "{err}");
        // Stampede onto a nonexistent task.
        let err = base().event(5, Event::StampedeTo(7)).build().unwrap_err();
        assert!(matches!(err, ConfigError::Timeline(_)), "{err:?}");
        // A noise switch to an invalid model.
        let err = base()
            .event(5, Event::SetNoise(NoiseModel::Sigmoid { lambda: -2.0 }))
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::Timeline(_)), "{err:?}");
        // Demands alternating with a zero half-period are a degenerate
        // cycle, caught here instead of dividing by zero at run time.
        let err = base()
            .timeline(Timeline::new().every(
                0,
                0,
                vec![
                    Event::SetDemands(vec![30, 20]),
                    Event::SetDemands(vec![20, 30]),
                ],
            ))
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::Timeline(_)), "{err:?}");
        // A well-formed shock script builds.
        assert!(base()
            .event(5, Event::Kill { count: 50 })
            .event(8, Event::SetDemands(vec![10, 15]))
            .event(12, Event::Scramble)
            .build()
            .is_ok());
    }

    #[test]
    fn controller_window_violations_are_rejected_unless_relaxed() {
        let spec = ControllerSpec::Ant(AntParams::new(0.125)); // γ > 1/16
        let err = base().controller(spec.clone()).build().unwrap_err();
        assert!(matches!(err, ConfigError::Controller(_)), "{err:?}");
        let cfg = base()
            .controller(spec)
            .out_of_spec_params()
            .build()
            .expect("out-of-spec builds relaxed");
        assert!(cfg.validate().is_err());
        assert!(cfg.validate_structure().is_ok());
    }

    #[test]
    fn structural_controller_errors_survive_relaxation() {
        let err = SimConfig::builder(10, vec![5])
            .controller(ControllerSpec::Hysteresis {
                depth: 0,
                lazy: None,
            })
            .out_of_spec_params()
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::Controller(_)));
    }

    #[test]
    fn noise_violations_are_rejected() {
        for noise in [
            NoiseModel::Sigmoid { lambda: 0.0 },
            NoiseModel::CorrelatedSigmoid {
                lambda: 1.0,
                rho: 1.5,
                seed: 0,
            },
            NoiseModel::Adversarial {
                gamma_ad: 1.0,
                policy: GreyZonePolicy::Truthful,
            },
            NoiseModel::Adversarial {
                gamma_ad: 0.1,
                policy: GreyZonePolicy::RandomLack(-0.1),
            },
            NoiseModel::Adversarial {
                gamma_ad: 0.1,
                policy: GreyZonePolicy::LoadThreshold(vec![5]),
            },
        ] {
            let err = base().noise(noise.clone()).build().unwrap_err();
            assert!(matches!(err, ConfigError::Noise(_)), "{noise:?}: {err:?}");
        }
    }

    #[test]
    fn initial_task_out_of_range_is_rejected() {
        let err = base()
            .initial(InitialConfig::AllOnTask(2))
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::Initial(_)));
        assert!(base().initial(InitialConfig::AllOnTask(1)).build().is_ok());
    }
}
