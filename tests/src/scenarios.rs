//! The scenario catalogue and the one generator of random valid
//! [`SimConfig`]s that the contract tests draw from.
//!
//! The catalogue names each controller kind, mix, noise model and
//! initial configuration once; [`generate`] combines them with
//! timelines (one-shots of every event kind, cycles, triggers of every
//! condition kind, generators) and arenas (none, single-site,
//! multi-site) into a config plus a round budget, as a pure function of
//! one `u64`.

use antalloc_core::{
    AntParams, ExactGreedyParams, PreciseAdversarialParams, PreciseSigmoidParams,
    ProportionalParams,
};
use antalloc_env::{
    ArenaConfig, Condition, Event, GenShock, InitialConfig, Timeline, TimelineGen, Trigger,
};
use antalloc_noise::{GreyZonePolicy, NoiseModel};
use antalloc_rng::SplitMix64;
use antalloc_sim::{ControllerSpec, ScenarioBuilder, SimConfig};
use proptest::prelude::*;

/// Every controller kind once. Hysteresis machines observe a single
/// task (see [`single_task`]).
pub fn kinds() -> Vec<ControllerSpec> {
    let proportional = ProportionalParams {
        gain: 0.5,
        deadband: 2,
    };
    vec![
        ControllerSpec::Ant(AntParams::new(1.0 / 16.0)),
        ControllerSpec::AntDesync(AntParams::new(1.0 / 32.0)),
        ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.05, 0.5)),
        ControllerSpec::PreciseAdversarial(PreciseAdversarialParams::new(0.05, 0.5)),
        ControllerSpec::Trivial,
        ControllerSpec::ExactGreedy(ExactGreedyParams::default()),
        ControllerSpec::Proportional(proportional),
        ControllerSpec::Hysteresis {
            depth: 3,
            lazy: Some(0.5),
        },
    ]
}

/// Mixed colonies of [`kinds`]: 2-, 4- and 5-way, so bank seams land
/// mid-chunk and relocated ants cross banks and kinds.
pub fn mixes() -> Vec<ControllerSpec> {
    let kinds = kinds();
    let mix = |parts: &[(f64, usize)]| {
        ControllerSpec::Mix(parts.iter().map(|&(w, i)| (w, kinds[i].clone())).collect())
    };
    vec![
        mix(&[(2.0, 0), (1.0, 4)]),
        // Single-task: AntDesync and Hysteresis.
        mix(&[(1.0, 1), (1.0, 7)]),
        mix(&[(1.0, 0), (1.0, 6)]),
        mix(&[(1.0, 0), (1.0, 2), (1.0, 4), (1.0, 5)]),
        // The benchmark's four-kind colony.
        mix(&[(1.0, 0), (1.0, 2), (1.0, 6), (1.0, 5)]),
        mix(&[(1.0, 0), (1.0, 2), (1.0, 4), (1.0, 5), (1.0, 6)]),
    ]
}

/// Every kind, then every mix.
pub fn specs() -> Vec<ControllerSpec> {
    let mut specs = kinds();
    specs.extend(mixes());
    specs
}

/// The catalogue's specs that run colonies with more than one task.
pub fn multi_task_specs() -> Vec<ControllerSpec> {
    specs().into_iter().filter(|s| !single_task(s)).collect()
}

/// The non-mix kinds `spec` runs (itself, or a mix's parts).
pub(crate) fn parts(spec: &ControllerSpec) -> Vec<&ControllerSpec> {
    match spec.mix_parts() {
        Some(parts) => parts.iter().map(|(_, s)| s).collect(),
        None => vec![spec],
    }
}

/// Whether `spec` runs a Hysteresis machine, which observes one task.
pub fn single_task(spec: &ControllerSpec) -> bool {
    parts(spec)
        .iter()
        .any(|s| matches!(s, ControllerSpec::Hysteresis { .. }))
}

/// Every noise model, the adversarial one under three grey-zone
/// policies.
pub fn noises() -> Vec<NoiseModel> {
    let adversarial = |policy| NoiseModel::Adversarial {
        gamma_ad: 0.05,
        policy,
    };
    vec![
        NoiseModel::Exact,
        NoiseModel::Sigmoid { lambda: 1.5 },
        NoiseModel::CorrelatedSigmoid {
            lambda: 1.5,
            rho: 0.4,
            seed: 9,
        },
        adversarial(GreyZonePolicy::Inverted),
        adversarial(GreyZonePolicy::RandomLack(0.5)),
        adversarial(GreyZonePolicy::AlternateByRound),
    ]
}

/// Every initial configuration over `k` tasks (Theorem 3.1's arbitrary
/// starts).
pub fn initials(k: usize) -> Vec<InitialConfig> {
    vec![
        InitialConfig::AllIdle,
        InitialConfig::AllOnTask(k - 1),
        InitialConfig::UniformRandom,
        InitialConfig::Saturated,
        InitialConfig::SaturatedPlus { extra: 2 },
        InitialConfig::Inverted,
    ]
}

/// A builder for `n` ants of `spec` over `k` distinct demands that keep
/// the colony half idle at the optimum, under sigmoid noise (λ = 1.5).
pub fn colony(spec: &ControllerSpec, n: usize, k: usize, seed: u64) -> ScenarioBuilder {
    let demands = (0..k).map(|j| (n / (2 * k) + j + 1) as u64).collect();
    SimConfig::builder(n, demands)
        .noise(NoiseModel::Sigmoid { lambda: 1.5 })
        .controller(spec.clone())
        .seed(seed)
}

/// One generated scenario: a valid config and how many rounds to run
/// it, drawn from `seed`.
#[derive(Clone, Debug)]
pub struct Generated {
    /// What [`generate`] drew this scenario from.
    pub seed: u64,
    /// Rounds to run (at least 1).
    pub rounds: u64,
    /// The config (it passes strict validation).
    pub config: SimConfig,
}

/// Random valid scenarios, as a property-test strategy.
pub fn scenarios() -> impl Strategy<Value = Generated> {
    any::<u64>().prop_map(generate)
}

/// The scenario drawn from `seed`: a catalogue spec over 1–4 tasks
/// (Hysteresis at k = 1), any noise model and initial configuration,
/// no arena, a single-site one or a multi-site one, and a timeline.
/// Colonies with a long-phase kind sometimes run up to 400 rounds, so
/// checkpoint splits land anywhere in their phases.
pub fn generate(seed: u64) -> Generated {
    let mut d = Draw(SplitMix64::new(seed));
    let spec = d.pick(specs());
    let k = match single_task(&spec) {
        true => 1,
        false => d.pick(vec![1, 2, 2, 3, 3, 4]),
    };
    let long = spec.phase_len(k) > 2 && d.below(2) == 0;
    let n = 20 + d.below(if long { 60 } else { 180 });
    let rounds = 1 + d.below(if long { 400 } else { 80 }) as u64;
    let demands: Vec<u64> = (0..k)
        .map(|j| (n / (2 * k) + j + d.below(3)).max(1) as u64)
        .collect();
    let initial = match d.pick(initials(k)) {
        InitialConfig::AllOnTask(_) => InitialConfig::AllOnTask(d.below(k)),
        other => other,
    };
    let mut builder = SimConfig::builder(n, demands.clone())
        .noise(d.pick(noises()))
        .controller(spec)
        .seed(d.next())
        .initial(initial)
        .timeline(timeline(&mut d, n, &demands, rounds));
    if d.below(3) > 0 {
        let sites = 1 + d.below(k.min(3));
        builder = builder.arena(ArenaConfig {
            site_of_task: (0..k).map(|j| (j % sites) as u32).collect(),
            travel_rounds: d.below(5) as u32,
            wander_probability: d.unit() * 0.5,
        });
    }
    let config = builder.build().expect("generated scenarios are valid");
    Generated {
        seed,
        rounds,
        config,
    }
}

/// Up to four one-shots of any kind, in round order, with the colony
/// size tracked so every kill leaves a survivor (one kind of kill
/// leaves fewer than 32, under 16 per participant at P ≥ 2); maybe a
/// cycle; up to two triggers; maybe a generator.
fn timeline(d: &mut Draw, n: usize, demands: &[u64], rounds: u64) -> Timeline {
    let k = demands.len();
    let mut timeline = Timeline::new();
    let (mut population, mut at) = (n, 0);
    for _ in 0..d.below(5) {
        at += 1 + d.below(rounds as usize / 3 + 1) as u64;
        if at > rounds {
            break;
        }
        let event = match d.below(8) {
            0 => Event::SetDemands(demands.iter().map(|&x| x + d.below(5) as u64).collect()),
            1 => task_demand(d, n, k),
            2 => Event::Kill {
                count: d.below(population / 2 + 1),
            },
            3 => Event::Kill {
                count: population.saturating_sub(1 + d.below(31)),
            },
            4 => Event::Spawn {
                count: 1 + d.below(n / 2),
            },
            5 => Event::Scramble,
            6 => Event::StampedeTo(d.below(k)),
            _ => Event::SetNoise(d.pick(noises())),
        };
        match event {
            Event::Kill { count } => population -= count,
            Event::Spawn { count } => population += count,
            _ => {}
        }
        timeline = timeline.at(at, event);
    }
    if d.below(4) == 0 {
        let events = match d.below(2) {
            0 => vec![
                Event::SetDemands(demands.iter().rev().copied().collect()),
                Event::SetDemands(demands.to_vec()),
            ],
            _ => vec![task_demand(d, n, k), Event::Scramble],
        };
        timeline = timeline.every(1 + d.below(10) as u64, 1 + d.below(20) as u64, events);
    }
    for _ in 0..d.below(3) {
        let when = condition(d, n, k, rounds, true);
        let event = match d.below(5) {
            0 => Event::Scramble,
            1 => Event::Spawn { count: n / 3 + 1 },
            2 => Event::StampedeTo(d.below(k)),
            3 => task_demand(d, n, k),
            _ => Event::Kill { count: n / 4 },
        };
        timeline = timeline.trigger(Trigger {
            when,
            event,
            cooldown: d.below(30) as u64,
            max_firings: d.below(4) as u32,
        });
    }
    if d.below(3) == 0 {
        let (min_frac, max_frac) = (0.02, 0.1);
        let shock = match d.below(4) {
            0 => GenShock::Kill { min_frac, max_frac },
            1 => GenShock::Spawn { min_frac, max_frac },
            2 => GenShock::Scramble,
            _ => GenShock::DemandStep {
                min_factor: 0.5,
                max_factor: 1.5,
            },
        };
        let start = 1 + d.below(10) as u64;
        timeline = timeline.generate(TimelineGen {
            start,
            until: start + d.below(rounds as usize + 1) as u64,
            mean_gap: 3.0 + d.unit() * 20.0,
            shock,
        });
    }
    timeline
}

/// A one-task demand step.
fn task_demand(d: &mut Draw, n: usize, k: usize) -> Event {
    Event::SetTaskDemand {
        task: d.below(k),
        demand: 1 + d.below(n / k) as u64,
    }
}

/// A trigger condition of any kind, thresholds scaled so that each
/// kind fires in some runs; `And`/`Or` nest once (when `nest`).
fn condition(d: &mut Draw, n: usize, k: usize, rounds: u64, nest: bool) -> Condition {
    let for_rounds = 1 + d.below(3) as u32;
    let leaf = |d: &mut Draw| Box::new(condition(d, n, k, rounds, false));
    match d.below(if nest { 8 } else { 6 }) {
        0 => Condition::RegretAbove {
            threshold: (n / 8) as u64,
            for_rounds,
        },
        1 => Condition::RegretBelow {
            threshold: (n / 4) as u64 + 1,
            for_rounds,
        },
        2 => Condition::PopulationBelow {
            threshold: n / 2 + 1,
        },
        3 => Condition::RoundReached {
            round: 1 + d.below(rounds as usize) as u64,
        },
        4 => Condition::DeficitAbove {
            task: d.below(k),
            threshold: d.below(5) as i64 - 2,
            for_rounds,
        },
        5 => Condition::DeficitRateAbove {
            task: d.below(k),
            min_rise: d.below(3) as i64 - 1,
            for_rounds,
        },
        6 => Condition::And(leaf(d), leaf(d)),
        _ => Condition::Or(leaf(d), leaf(d)),
    }
}

/// The generator's draws.
struct Draw(SplitMix64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform in `0..bound` (`bound ≥ 1`).
    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn pick<T>(&mut self, mut items: Vec<T>) -> T {
        let i = self.below(items.len());
        items.swap_remove(i)
    }
}
