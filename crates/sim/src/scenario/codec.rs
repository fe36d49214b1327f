//! Declarative encoding of every configuration type onto the [`Value`]
//! tree — the schema both the TOML and JSON scenario formats share.
//!
//! Schema sketch (TOML syntax):
//!
//! ```toml
//! name = "quickstart"        # optional
//! n = 4000
//! demands = [400, 700, 300]
//! seed = 12648430
//! out_of_spec = false        # optional: skip parameter-window checks
//!
//! [controller]
//! kind = "ant"               # ant | ant-desync | precise-sigmoid |
//!                            # precise-adversarial | trivial |
//!                            # exact-greedy | hysteresis |
//! gamma = 0.0625             # proportional | mix
//!
//! [noise]
//! kind = "sigmoid"           # sigmoid | correlated-sigmoid |
//! lambda = 2.0               # adversarial | exact
//!
//! [arena]                    # optional: spatial sensing (tasks pinned
//! sites = [0, 0, 1]          # to sites; demand sensed locally)
//! travel_rounds = 4
//! wander_probability = 0.02
//!
//! [[timeline]]               # optional: scripted mid-run events
//! at = 4000
//! kind = "set-demands"
//! demands = [1200, 800]
//!
//! [[timeline]]
//! at = 6000
//! kind = "kill"              # set-demands | kill | spawn | scramble |
//! count = 2000               # stampede-to | set-noise | cycle
//!
//! [[timeline]]
//! kind = "cycle"             # a repeating generator
//! start = 8000
//! period = 500
//! events = [ { kind = "set-demands", demands = [800, 1200] },
//!            { kind = "set-demands", demands = [1200, 800] } ]
//!
//! [initial]                  # optional (defaults to all-idle)
//! kind = "saturated-plus"
//! extra = 10
//! ```
//!
//! A timeline with conditional triggers or random shock generators uses
//! the *table* form instead: scripted entries move under
//! `[[timeline.events]]` (same shape as above) and the new sections sit
//! beside them:
//!
//! ```toml
//! [[timeline.trigger]]       # fire on colony state, not a round number
//! kind = "scramble"
//! when = { kind = "regret-below", threshold = 40, for_rounds = 16 }
//! cooldown = 500             # optional (default 0)
//! max_firings = 2            # optional (default 1; 0 = unlimited)
//!
//! [timeline.generate]        # a seeded random shock schedule
//! kind = "kill"              # kill | spawn | scramble | demand-step
//! until = 20000
//! mean_gap = 2000.0
//! min_frac = 0.1
//! max_frac = 0.4
//! ```
//!
//! Conditions compose with `kind = "and"` / `"or"` over sub-conditions
//! `a` and `b`; `[[timeline.generate]]` (array form) declares several
//! generators. `docs/SCENARIOS.md` documents every table and key.
//!
//! Every enum uses a `kind` discriminant with kebab-case variant names;
//! optional parameters fall back to the same defaults the Rust
//! constructors use, so minimal files stay minimal.

use antalloc_core::{
    AntParams, ExactGreedyParams, PreciseAdversarialParams, PreciseSigmoidParams,
    ProportionalParams,
};
use antalloc_env::{
    ArenaConfig, Condition, Cycle, Event, GenShock, InitialConfig, TimedEvent, Timeline,
    TimelineGen, Trigger,
};
use antalloc_noise::{GreyZonePolicy, NoiseModel};

use crate::config::{ControllerSpec, SimConfig};
use crate::scenario::value::{u64_array, Value};
use crate::scenario::ConfigError;

fn bad(what: &str, msg: impl core::fmt::Display) -> ConfigError {
    ConfigError::Parse(format!("{what}: {msg}"))
}

/// Rejects unknown keys: a typo'd key or section must fail loudly, not
/// silently run a different scenario with the default value.
fn check_keys(v: &Value, what: &str, allowed: &[&str]) -> Result<(), ConfigError> {
    if let Value::Table(pairs) = v {
        for (key, _) in pairs {
            if !allowed.contains(&key.as_str()) {
                return Err(bad(
                    what,
                    format!(
                        "unknown key `{key}` (expected one of: {})",
                        allowed.join(", ")
                    ),
                ));
            }
        }
    }
    Ok(())
}

fn float(x: f64) -> Value {
    Value::Float(x)
}

fn int(x: u64) -> Value {
    Value::Int(i128::from(x))
}

// ---- SimConfig ----------------------------------------------------------

/// Encodes a config (plus optional scenario metadata) as a value tree.
pub fn config_to_value(config: &SimConfig, name: Option<&str>, out_of_spec: bool) -> Value {
    let mut root = Value::table();
    if let Some(name) = name {
        root.insert("name", Value::Str(name.to_string()));
    }
    root.insert("n", int(config.n as u64));
    root.insert("demands", u64_array(&config.demands));
    root.insert("seed", int(config.seed));
    if out_of_spec {
        root.insert("out_of_spec", Value::Bool(true));
    }
    root.insert("controller", controller_to_value(&config.controller));
    root.insert("noise", noise_to_value(&config.noise));
    if let Some(arena) = &config.arena {
        root.insert("arena", arena_to_value(arena));
    }
    if !config.timeline.is_empty() {
        root.insert("timeline", timeline_to_value(&config.timeline));
    }
    if config.initial != InitialConfig::AllIdle {
        root.insert("initial", initial_to_value(&config.initial));
    }
    root
}

/// Decodes a config (plus metadata) from a value tree. Purely
/// syntactic: run the scenario-level validation separately.
pub fn config_from_value(root: &Value) -> Result<(SimConfig, Option<String>, bool), ConfigError> {
    check_keys(
        root,
        "scenario",
        &[
            "name",
            "n",
            "demands",
            "seed",
            "out_of_spec",
            "controller",
            "noise",
            "arena",
            "timeline",
            "initial",
        ],
    )?;
    let name = match root.get("name") {
        Some(v) => Some(v.as_str("name")?.to_string()),
        None => None,
    };
    let out_of_spec = match root.get("out_of_spec") {
        Some(v) => v.as_bool("out_of_spec")?,
        None => false,
    };
    let timeline = match root.get("timeline") {
        Some(v) => timeline_from_value(v)?,
        None => Timeline::new(),
    };
    let config = SimConfig {
        n: root.want("n")?.as_usize("n")?,
        demands: root.want("demands")?.as_u64_array("demands")?,
        seed: match root.get("seed") {
            Some(v) => v.as_u64("seed")?,
            None => 0,
        },
        controller: controller_from_value(root.want("controller")?)?,
        noise: noise_from_value(root.want("noise")?)?,
        arena: match root.get("arena") {
            Some(v) => Some(arena_from_value(v)?),
            None => None,
        },
        timeline,
        initial: match root.get("initial") {
            Some(v) => initial_from_value(v)?,
            None => InitialConfig::AllIdle,
        },
    };
    Ok((config, name, out_of_spec))
}

// ---- ControllerSpec -----------------------------------------------------

/// Encodes a controller spec.
pub fn controller_to_value(spec: &ControllerSpec) -> Value {
    let mut t = Value::table();
    match spec {
        ControllerSpec::Ant(p) | ControllerSpec::AntDesync(p) => {
            t.insert(
                "kind",
                Value::Str(
                    if matches!(spec, ControllerSpec::Ant(_)) {
                        "ant"
                    } else {
                        "ant-desync"
                    }
                    .into(),
                ),
            );
            t.insert("gamma", float(p.gamma));
            t.insert("cs", float(p.cs));
            t.insert("cd", float(p.cd));
        }
        ControllerSpec::PreciseSigmoid(p) => {
            t.insert("kind", Value::Str("precise-sigmoid".into()));
            t.insert("gamma", float(p.gamma));
            t.insert("eps", float(p.eps));
            t.insert("c_chi", float(p.c_chi));
            t.insert("cs", float(p.cs));
            t.insert("cd", float(p.cd));
            if p.paper_literal_leave_prob {
                t.insert("paper_literal_leave_prob", Value::Bool(true));
            }
        }
        ControllerSpec::PreciseAdversarial(p) => {
            t.insert("kind", Value::Str("precise-adversarial".into()));
            t.insert("gamma", float(p.gamma));
            t.insert("eps", float(p.eps));
        }
        ControllerSpec::Trivial => {
            t.insert("kind", Value::Str("trivial".into()));
        }
        ControllerSpec::ExactGreedy(p) => {
            t.insert("kind", Value::Str("exact-greedy".into()));
            t.insert("p_join", float(p.p_join));
            t.insert("p_leave", float(p.p_leave));
        }
        ControllerSpec::Hysteresis { depth, lazy } => {
            t.insert("kind", Value::Str("hysteresis".into()));
            t.insert("depth", int(u64::from(*depth)));
            if let Some(p) = lazy {
                t.insert("lazy", float(*p));
            }
        }
        ControllerSpec::Proportional(p) => {
            t.insert("kind", Value::Str("proportional".into()));
            t.insert("gain", float(p.gain));
            if p.deadband != 0 {
                t.insert("deadband", int(u64::from(p.deadband)));
            }
        }
        ControllerSpec::Mix(parts) => {
            t.insert("kind", Value::Str("mix".into()));
            t.insert(
                "parts",
                Value::Array(
                    parts
                        .iter()
                        .map(|(weight, sub)| {
                            let mut part = Value::table();
                            part.insert("weight", float(*weight));
                            part.insert("controller", controller_to_value(sub));
                            part
                        })
                        .collect(),
                ),
            );
        }
    }
    t
}

/// Decodes a controller spec.
pub fn controller_from_value(v: &Value) -> Result<ControllerSpec, ConfigError> {
    let what = "controller";
    let kind = v.want("kind")?.as_str("controller.kind")?;
    let allowed: &[&str] = match kind {
        "ant" | "ant-desync" => &["kind", "gamma", "cs", "cd"],
        "precise-sigmoid" => &[
            "kind",
            "gamma",
            "eps",
            "c_chi",
            "cs",
            "cd",
            "paper_literal_leave_prob",
        ],
        "precise-adversarial" => &["kind", "gamma", "eps"],
        "trivial" => &["kind"],
        "exact-greedy" => &["kind", "p_join", "p_leave"],
        "hysteresis" => &["kind", "depth", "lazy"],
        "proportional" => &["kind", "gain", "deadband"],
        "mix" => &["kind", "parts"],
        _ => &["kind"], // unknown kind errors below
    };
    check_keys(v, what, allowed)?;
    let opt_f64 = |key: &str, default: f64| -> Result<f64, ConfigError> {
        match v.get(key) {
            Some(x) => x.as_f64(key),
            None => Ok(default),
        }
    };
    match kind {
        "ant" | "ant-desync" => {
            let mut p = AntParams::new(v.want("gamma")?.as_f64("controller.gamma")?);
            p.cs = opt_f64("cs", p.cs)?;
            p.cd = opt_f64("cd", p.cd)?;
            Ok(if kind == "ant" {
                ControllerSpec::Ant(p)
            } else {
                ControllerSpec::AntDesync(p)
            })
        }
        "precise-sigmoid" => {
            let mut p = PreciseSigmoidParams::new(
                v.want("gamma")?.as_f64("controller.gamma")?,
                v.want("eps")?.as_f64("controller.eps")?,
            );
            p.c_chi = opt_f64("c_chi", p.c_chi)?;
            p.cs = opt_f64("cs", p.cs)?;
            p.cd = opt_f64("cd", p.cd)?;
            if let Some(flag) = v.get("paper_literal_leave_prob") {
                p.paper_literal_leave_prob = flag.as_bool("paper_literal_leave_prob")?;
            }
            Ok(ControllerSpec::PreciseSigmoid(p))
        }
        "precise-adversarial" => Ok(ControllerSpec::PreciseAdversarial(
            PreciseAdversarialParams::new(
                v.want("gamma")?.as_f64("controller.gamma")?,
                v.want("eps")?.as_f64("controller.eps")?,
            ),
        )),
        "trivial" => Ok(ControllerSpec::Trivial),
        "exact-greedy" => {
            let mut p = ExactGreedyParams::default();
            p.p_join = opt_f64("p_join", p.p_join)?;
            p.p_leave = opt_f64("p_leave", p.p_leave)?;
            Ok(ControllerSpec::ExactGreedy(p))
        }
        "proportional" => {
            let mut p = ProportionalParams::default();
            p.gain = opt_f64("gain", p.gain)?;
            if let Some(x) = v.get("deadband") {
                let raw = x.as_u64("controller.deadband")?;
                p.deadband = u16::try_from(raw)
                    .map_err(|_| bad(what, format!("deadband {raw} exceeds u16")))?;
            }
            Ok(ControllerSpec::Proportional(p))
        }
        "hysteresis" => {
            let depth64 = v.want("depth")?.as_u64("controller.depth")?;
            let depth = u16::try_from(depth64)
                .map_err(|_| bad(what, format!("depth {depth64} exceeds u16")))?;
            let lazy = match v.get("lazy") {
                Some(x) => Some(x.as_f64("controller.lazy")?),
                None => None,
            };
            Ok(ControllerSpec::Hysteresis { depth, lazy })
        }
        "mix" => {
            let parts = v
                .want("parts")?
                .as_array("controller.parts")?
                .iter()
                .map(|part| {
                    check_keys(part, "controller.parts entry", &["weight", "controller"])?;
                    let weight = part.want("weight")?.as_f64("mix.weight")?;
                    let sub = controller_from_value(part.want("controller")?)?;
                    Ok((weight, sub))
                })
                .collect::<Result<Vec<_>, ConfigError>>()?;
            Ok(ControllerSpec::Mix(parts))
        }
        other => Err(bad(what, format!("unknown kind `{other}`"))),
    }
}

// ---- NoiseModel ---------------------------------------------------------

/// Encodes a noise model.
pub fn noise_to_value(noise: &NoiseModel) -> Value {
    let mut t = Value::table();
    match noise {
        NoiseModel::Sigmoid { lambda } => {
            t.insert("kind", Value::Str("sigmoid".into()));
            t.insert("lambda", float(*lambda));
        }
        NoiseModel::CorrelatedSigmoid { lambda, rho, seed } => {
            t.insert("kind", Value::Str("correlated-sigmoid".into()));
            t.insert("lambda", float(*lambda));
            t.insert("rho", float(*rho));
            t.insert("seed", int(*seed));
        }
        NoiseModel::Adversarial { gamma_ad, policy } => {
            t.insert("kind", Value::Str("adversarial".into()));
            t.insert("gamma_ad", float(*gamma_ad));
            t.insert("policy", policy_to_value(policy));
        }
        NoiseModel::Exact => {
            t.insert("kind", Value::Str("exact".into()));
        }
    }
    t
}

/// Decodes a noise model.
pub fn noise_from_value(v: &Value) -> Result<NoiseModel, ConfigError> {
    let kind = v.want("kind")?.as_str("noise.kind")?;
    let allowed: &[&str] = match kind {
        "sigmoid" => &["kind", "lambda"],
        "correlated-sigmoid" => &["kind", "lambda", "rho", "seed"],
        "adversarial" => &["kind", "gamma_ad", "policy"],
        _ => &["kind"],
    };
    check_keys(v, "noise", allowed)?;
    match kind {
        "sigmoid" => Ok(NoiseModel::Sigmoid {
            lambda: v.want("lambda")?.as_f64("noise.lambda")?,
        }),
        "correlated-sigmoid" => Ok(NoiseModel::CorrelatedSigmoid {
            lambda: v.want("lambda")?.as_f64("noise.lambda")?,
            rho: v.want("rho")?.as_f64("noise.rho")?,
            seed: match v.get("seed") {
                Some(s) => s.as_u64("noise.seed")?,
                None => 0,
            },
        }),
        "adversarial" => Ok(NoiseModel::Adversarial {
            gamma_ad: v.want("gamma_ad")?.as_f64("noise.gamma_ad")?,
            policy: policy_from_value(v.want("policy")?)?,
        }),
        "exact" => Ok(NoiseModel::Exact),
        other => Err(bad("noise", format!("unknown kind `{other}`"))),
    }
}

fn policy_to_value(policy: &GreyZonePolicy) -> Value {
    let mut t = Value::table();
    match policy {
        GreyZonePolicy::AlwaysLack => t.insert("kind", Value::Str("always-lack".into())),
        GreyZonePolicy::AlwaysOverload => t.insert("kind", Value::Str("always-overload".into())),
        GreyZonePolicy::Truthful => t.insert("kind", Value::Str("truthful".into())),
        GreyZonePolicy::Inverted => t.insert("kind", Value::Str("inverted".into())),
        GreyZonePolicy::AlternateByRound => {
            t.insert("kind", Value::Str("alternate-by-round".into()))
        }
        GreyZonePolicy::RandomLack(p) => {
            t.insert("kind", Value::Str("random-lack".into()));
            t.insert("p", float(*p));
        }
        GreyZonePolicy::LoadThreshold(thresholds) => {
            t.insert("kind", Value::Str("load-threshold".into()));
            t.insert("thresholds", u64_array(thresholds));
        }
    }
    t
}

fn policy_from_value(v: &Value) -> Result<GreyZonePolicy, ConfigError> {
    let kind = v.want("kind")?.as_str("policy.kind")?;
    let allowed: &[&str] = match kind {
        "random-lack" => &["kind", "p"],
        "load-threshold" => &["kind", "thresholds"],
        _ => &["kind"],
    };
    check_keys(v, "policy", allowed)?;
    match kind {
        "always-lack" => Ok(GreyZonePolicy::AlwaysLack),
        "always-overload" => Ok(GreyZonePolicy::AlwaysOverload),
        "truthful" => Ok(GreyZonePolicy::Truthful),
        "inverted" => Ok(GreyZonePolicy::Inverted),
        "alternate-by-round" => Ok(GreyZonePolicy::AlternateByRound),
        "random-lack" => Ok(GreyZonePolicy::RandomLack(v.want("p")?.as_f64("policy.p")?)),
        "load-threshold" => Ok(GreyZonePolicy::LoadThreshold(
            v.want("thresholds")?.as_u64_array("policy.thresholds")?,
        )),
        other => Err(bad("policy", format!("unknown kind `{other}`"))),
    }
}

// ---- ArenaConfig --------------------------------------------------------

/// Encodes a spatial arena as the `[arena]` table.
pub fn arena_to_value(arena: &ArenaConfig) -> Value {
    let mut t = Value::table();
    t.insert(
        "sites",
        Value::Array(
            arena
                .site_of_task
                .iter()
                .map(|&s| int(u64::from(s)))
                .collect(),
        ),
    );
    if arena.travel_rounds != 0 {
        t.insert("travel_rounds", int(u64::from(arena.travel_rounds)));
    }
    if arena.wander_probability != 0.0 {
        t.insert("wander_probability", float(arena.wander_probability));
    }
    t
}

/// Decodes a spatial arena. Purely syntactic — the geometry checks
/// (dense sites, `sites` length vs the task count) run with the rest of
/// the scenario validation.
pub fn arena_from_value(v: &Value) -> Result<ArenaConfig, ConfigError> {
    let what = "arena";
    check_keys(v, what, &["sites", "travel_rounds", "wander_probability"])?;
    let site_of_task = v
        .want("sites")?
        .as_u64_array("arena.sites")?
        .into_iter()
        .map(|s| u32::try_from(s).map_err(|_| bad(what, format!("site id {s} exceeds u32"))))
        .collect::<Result<Vec<_>, ConfigError>>()?;
    let travel_rounds = match v.get("travel_rounds") {
        Some(x) => {
            let raw = x.as_u64("arena.travel_rounds")?;
            u32::try_from(raw).map_err(|_| bad(what, format!("travel_rounds {raw} exceeds u32")))?
        }
        None => 0,
    };
    let wander_probability = match v.get("wander_probability") {
        Some(x) => x.as_f64("arena.wander_probability")?,
        None => 0.0,
    };
    Ok(ArenaConfig {
        site_of_task,
        travel_rounds,
        wander_probability,
    })
}

// ---- InitialConfig ------------------------------------------------------

/// Encodes an initial configuration.
pub fn initial_to_value(initial: &InitialConfig) -> Value {
    let mut t = Value::table();
    match initial {
        InitialConfig::AllIdle => t.insert("kind", Value::Str("all-idle".into())),
        InitialConfig::AllOnTask(j) => {
            t.insert("kind", Value::Str("all-on-task".into()));
            t.insert("task", int(*j as u64));
        }
        InitialConfig::UniformRandom => t.insert("kind", Value::Str("uniform-random".into())),
        InitialConfig::Saturated => t.insert("kind", Value::Str("saturated".into())),
        InitialConfig::SaturatedPlus { extra } => {
            t.insert("kind", Value::Str("saturated-plus".into()));
            t.insert("extra", int(*extra));
        }
        InitialConfig::Inverted => t.insert("kind", Value::Str("inverted".into())),
    }
    t
}

/// Decodes an initial configuration.
pub fn initial_from_value(v: &Value) -> Result<InitialConfig, ConfigError> {
    let kind = v.want("kind")?.as_str("initial.kind")?;
    let allowed: &[&str] = match kind {
        "all-on-task" => &["kind", "task"],
        "saturated-plus" => &["kind", "extra"],
        _ => &["kind"],
    };
    check_keys(v, "initial", allowed)?;
    match kind {
        "all-idle" => Ok(InitialConfig::AllIdle),
        "all-on-task" => Ok(InitialConfig::AllOnTask(
            v.want("task")?.as_usize("initial.task")?,
        )),
        "uniform-random" => Ok(InitialConfig::UniformRandom),
        "saturated" => Ok(InitialConfig::Saturated),
        "saturated-plus" => Ok(InitialConfig::SaturatedPlus {
            extra: v.want("extra")?.as_u64("initial.extra")?,
        }),
        "inverted" => Ok(InitialConfig::Inverted),
        other => Err(bad("initial", format!("unknown kind `{other}`"))),
    }
}

// ---- Timeline -----------------------------------------------------------

/// Writes an event's `kind` and payload into an existing table (used
/// both for `[[timeline]]` entries and the events inside a cycle).
fn event_into_table(event: &Event, t: &mut Value) {
    match event {
        Event::SetDemands(demands) => {
            t.insert("kind", Value::Str("set-demands".into()));
            t.insert("demands", u64_array(demands));
        }
        Event::Kill { count } => {
            t.insert("kind", Value::Str("kill".into()));
            t.insert("count", int(*count as u64));
        }
        Event::Spawn { count } => {
            t.insert("kind", Value::Str("spawn".into()));
            t.insert("count", int(*count as u64));
        }
        Event::Scramble => t.insert("kind", Value::Str("scramble".into())),
        Event::StampedeTo(j) => {
            t.insert("kind", Value::Str("stampede-to".into()));
            t.insert("task", int(*j as u64));
        }
        Event::SetNoise(model) => {
            t.insert("kind", Value::Str("set-noise".into()));
            t.insert("noise", noise_to_value(model));
        }
        Event::SetTaskDemand { task, demand } => {
            t.insert("kind", Value::Str("set-task-demand".into()));
            t.insert("task", int(*task as u64));
            t.insert("demand", int(*demand));
        }
    }
}

/// Encodes one scripted event (no scheduling fields).
pub fn event_to_value(event: &Event) -> Value {
    let mut t = Value::table();
    event_into_table(event, &mut t);
    t
}

/// The payload keys each event kind allows, shared by one-shot entries
/// (which add `at`) and cycle events. `None` for unknown kinds, so the
/// caller reports the bad `kind` instead of flagging its payload keys.
fn event_keys(kind: &str, with_at: bool) -> Option<Vec<&'static str>> {
    let mut keys: Vec<&'static str> = if with_at {
        vec!["at", "kind"]
    } else {
        vec!["kind"]
    };
    let payload: &[&str] = match kind {
        "set-demands" => &["demands"],
        "set-task-demand" => &["task", "demand"],
        "kill" | "spawn" => &["count"],
        "stampede-to" => &["task"],
        "set-noise" => &["noise"],
        "scramble" => &[],
        _ => return None,
    };
    keys.extend(payload);
    Some(keys)
}

fn event_from_table(v: &Value, what: &str) -> Result<Event, ConfigError> {
    let kind = v.want("kind")?.as_str("event.kind")?;
    match kind {
        "set-demands" => Ok(Event::SetDemands(
            v.want("demands")?.as_u64_array("event.demands")?,
        )),
        "set-task-demand" => Ok(Event::SetTaskDemand {
            task: v.want("task")?.as_usize("event.task")?,
            demand: v.want("demand")?.as_u64("event.demand")?,
        }),
        "kill" => Ok(Event::Kill {
            count: v.want("count")?.as_usize("event.count")?,
        }),
        "spawn" => Ok(Event::Spawn {
            count: v.want("count")?.as_usize("event.count")?,
        }),
        "scramble" => Ok(Event::Scramble),
        "stampede-to" => Ok(Event::StampedeTo(v.want("task")?.as_usize("event.task")?)),
        "set-noise" => Ok(Event::SetNoise(noise_from_value(v.want("noise")?)?)),
        other => Err(bad(what, format!("unknown event kind `{other}`"))),
    }
}

/// Decodes one scripted event.
pub fn event_from_value(v: &Value) -> Result<Event, ConfigError> {
    if let Some(keys) = v
        .get("kind")
        .and_then(|k| k.as_str("kind").ok())
        .and_then(|kind| event_keys(kind, false))
    {
        check_keys(v, "event", &keys)?;
    }
    event_from_table(v, "event")
}

/// Encodes the scripted (one-shot + cycle) entries as an array of
/// entry tables: one-shot events carry an `at` round, cycles use
/// `kind = "cycle"`.
fn scripted_entries_to_value(timeline: &Timeline) -> Value {
    let mut entries = Vec::with_capacity(timeline.events.len() + timeline.cycles.len());
    for timed in &timeline.events {
        let mut t = Value::table();
        t.insert("at", int(timed.at));
        event_into_table(&timed.event, &mut t);
        entries.push(t);
    }
    for cycle in &timeline.cycles {
        let mut t = Value::table();
        t.insert("kind", Value::Str("cycle".into()));
        t.insert("start", int(cycle.start));
        t.insert("period", int(cycle.period));
        t.insert(
            "events",
            Value::Array(cycle.events.iter().map(event_to_value).collect()),
        );
        entries.push(t);
    }
    Value::Array(entries)
}

/// Encodes a timeline. Purely scripted timelines stay in the classic
/// `[[timeline]]` array form; timelines with triggers or generators use
/// the table form (`[[timeline.events]]` / `[[timeline.trigger]]` /
/// `[[timeline.generate]]`) — both forms decode.
pub fn timeline_to_value(timeline: &Timeline) -> Value {
    if timeline.triggers.is_empty() && timeline.generators.is_empty() {
        return scripted_entries_to_value(timeline);
    }
    let mut t = Value::table();
    if !(timeline.events.is_empty() && timeline.cycles.is_empty()) {
        t.insert("events", scripted_entries_to_value(timeline));
    }
    if !timeline.triggers.is_empty() {
        t.insert(
            "trigger",
            Value::Array(timeline.triggers.iter().map(trigger_to_value).collect()),
        );
    }
    if !timeline.generators.is_empty() {
        t.insert(
            "generate",
            Value::Array(timeline.generators.iter().map(gen_to_value).collect()),
        );
    }
    t
}

/// Decodes the scripted entries of a timeline from an array of entry
/// tables, appending into `timeline`.
fn scripted_entries_from_value(v: &Value, timeline: &mut Timeline) -> Result<(), ConfigError> {
    let what = "timeline";
    for entry in v.as_array(what)? {
        let kind = entry.want("kind")?.as_str("timeline.kind")?;
        if kind == "cycle" {
            check_keys(
                entry,
                "timeline cycle",
                &["kind", "start", "period", "events"],
            )?;
            let events = entry
                .want("events")?
                .as_array("cycle.events")?
                .iter()
                .map(event_from_value)
                .collect::<Result<Vec<_>, ConfigError>>()?;
            timeline.cycles.push(Cycle {
                start: entry.want("start")?.as_u64("cycle.start")?,
                period: entry.want("period")?.as_u64("cycle.period")?,
                events,
            });
        } else {
            if let Some(keys) = event_keys(kind, true) {
                check_keys(entry, "timeline entry", &keys)?;
            }
            timeline.events.push(TimedEvent {
                at: entry.want("at")?.as_u64("timeline.at")?,
                event: event_from_table(entry, what)?,
            });
        }
    }
    Ok(())
}

/// Decodes a timeline from either the classic array form or the table
/// form with `events` / `trigger` / `generate` sections.
pub fn timeline_from_value(v: &Value) -> Result<Timeline, ConfigError> {
    let mut timeline = Timeline::new();
    match v {
        Value::Table(_) => {
            check_keys(v, "timeline", &["events", "trigger", "generate"])?;
            if let Some(entries) = v.get("events") {
                scripted_entries_from_value(entries, &mut timeline)?;
            }
            // `[timeline.trigger]` / `[timeline.generate]` declare one
            // entry, `[[…]]` blocks an ensemble of them.
            match v.get("trigger") {
                Some(single @ Value::Table(_)) => {
                    timeline.triggers.push(trigger_from_value(single)?);
                }
                Some(many) => {
                    for entry in many.as_array("timeline.trigger")? {
                        timeline.triggers.push(trigger_from_value(entry)?);
                    }
                }
                None => {}
            }
            match v.get("generate") {
                Some(single @ Value::Table(_)) => {
                    timeline.generators.push(gen_from_value(single)?);
                }
                Some(many) => {
                    for entry in many.as_array("timeline.generate")? {
                        timeline.generators.push(gen_from_value(entry)?);
                    }
                }
                None => {}
            }
        }
        _ => scripted_entries_from_value(v, &mut timeline)?,
    }
    Ok(timeline)
}

// ---- Trigger ------------------------------------------------------------

/// Encodes a trigger condition.
pub fn condition_to_value(condition: &Condition) -> Value {
    let mut t = Value::table();
    match condition {
        Condition::RegretAbove {
            threshold,
            for_rounds,
        }
        | Condition::RegretBelow {
            threshold,
            for_rounds,
        } => {
            t.insert(
                "kind",
                Value::Str(
                    if matches!(condition, Condition::RegretAbove { .. }) {
                        "regret-above"
                    } else {
                        "regret-below"
                    }
                    .into(),
                ),
            );
            t.insert("threshold", int(*threshold));
            if *for_rounds != 1 {
                t.insert("for_rounds", int(u64::from(*for_rounds)));
            }
        }
        Condition::PopulationBelow { threshold } => {
            t.insert("kind", Value::Str("population-below".into()));
            t.insert("threshold", int(*threshold as u64));
        }
        Condition::RoundReached { round } => {
            t.insert("kind", Value::Str("round-reached".into()));
            t.insert("round", int(*round));
        }
        Condition::DeficitAbove {
            task,
            threshold,
            for_rounds,
        } => {
            t.insert("kind", Value::Str("deficit-above".into()));
            t.insert("task", int(*task as u64));
            t.insert("threshold", Value::Int(i128::from(*threshold)));
            if *for_rounds != 1 {
                t.insert("for_rounds", int(u64::from(*for_rounds)));
            }
        }
        Condition::DeficitRateAbove {
            task,
            min_rise,
            for_rounds,
        } => {
            t.insert("kind", Value::Str("deficit-rate-above".into()));
            t.insert("task", int(*task as u64));
            t.insert("min_rise", Value::Int(i128::from(*min_rise)));
            if *for_rounds != 1 {
                t.insert("for_rounds", int(u64::from(*for_rounds)));
            }
        }
        Condition::And(a, b) | Condition::Or(a, b) => {
            t.insert(
                "kind",
                Value::Str(
                    if matches!(condition, Condition::And(..)) {
                        "and"
                    } else {
                        "or"
                    }
                    .into(),
                ),
            );
            t.insert("a", condition_to_value(a));
            t.insert("b", condition_to_value(b));
        }
    }
    t
}

/// Decodes a trigger condition.
pub fn condition_from_value(v: &Value) -> Result<Condition, ConfigError> {
    let what = "condition";
    let kind = v.want("kind")?.as_str("condition.kind")?;
    let allowed: &[&str] = match kind {
        "regret-above" | "regret-below" => &["kind", "threshold", "for_rounds"],
        "deficit-above" => &["kind", "task", "threshold", "for_rounds"],
        "deficit-rate-above" => &["kind", "task", "min_rise", "for_rounds"],
        "population-below" => &["kind", "threshold"],
        "round-reached" => &["kind", "round"],
        "and" | "or" => &["kind", "a", "b"],
        _ => &["kind"],
    };
    check_keys(v, what, allowed)?;
    let for_rounds = || -> Result<u32, ConfigError> {
        match v.get("for_rounds") {
            Some(x) => {
                let raw = x.as_u64("condition.for_rounds")?;
                u32::try_from(raw).map_err(|_| bad(what, format!("for_rounds {raw} exceeds u32")))
            }
            None => Ok(1),
        }
    };
    match kind {
        "regret-above" | "regret-below" => {
            let threshold = v.want("threshold")?.as_u64("condition.threshold")?;
            let for_rounds = for_rounds()?;
            Ok(if kind == "regret-above" {
                Condition::RegretAbove {
                    threshold,
                    for_rounds,
                }
            } else {
                Condition::RegretBelow {
                    threshold,
                    for_rounds,
                }
            })
        }
        "deficit-above" => Ok(Condition::DeficitAbove {
            task: v.want("task")?.as_usize("condition.task")?,
            threshold: v.want("threshold")?.as_i64("condition.threshold")?,
            for_rounds: for_rounds()?,
        }),
        "deficit-rate-above" => Ok(Condition::DeficitRateAbove {
            task: v.want("task")?.as_usize("condition.task")?,
            min_rise: v.want("min_rise")?.as_i64("condition.min_rise")?,
            for_rounds: for_rounds()?,
        }),
        "population-below" => Ok(Condition::PopulationBelow {
            threshold: v.want("threshold")?.as_usize("condition.threshold")?,
        }),
        "round-reached" => Ok(Condition::RoundReached {
            round: v.want("round")?.as_u64("condition.round")?,
        }),
        "and" | "or" => {
            let a = Box::new(condition_from_value(v.want("a")?)?);
            let b = Box::new(condition_from_value(v.want("b")?)?);
            Ok(if kind == "and" {
                Condition::And(a, b)
            } else {
                Condition::Or(a, b)
            })
        }
        other => Err(bad(what, format!("unknown kind `{other}`"))),
    }
}

/// Encodes a trigger: the event's own keys plus `when` and the
/// optional `cooldown` / `max_firings` budget.
pub fn trigger_to_value(trigger: &Trigger) -> Value {
    let mut t = Value::table();
    event_into_table(&trigger.event, &mut t);
    t.insert("when", condition_to_value(&trigger.when));
    if trigger.cooldown != 0 {
        t.insert("cooldown", int(trigger.cooldown));
    }
    if trigger.max_firings != 1 {
        t.insert("max_firings", int(u64::from(trigger.max_firings)));
    }
    t
}

/// Decodes a trigger.
pub fn trigger_from_value(v: &Value) -> Result<Trigger, ConfigError> {
    let what = "trigger";
    if let Some(kind) = v.get("kind").and_then(|k| k.as_str("kind").ok()) {
        if let Some(mut keys) = event_keys(kind, false) {
            keys.extend(["when", "cooldown", "max_firings"]);
            check_keys(v, what, &keys)?;
        }
    }
    let event = event_from_table(v, what)?;
    let when = condition_from_value(v.want("when")?)?;
    let cooldown = match v.get("cooldown") {
        Some(x) => x.as_u64("trigger.cooldown")?,
        None => 0,
    };
    let max_firings = match v.get("max_firings") {
        Some(x) => {
            let raw = x.as_u64("trigger.max_firings")?;
            u32::try_from(raw).map_err(|_| bad(what, format!("max_firings {raw} exceeds u32")))?
        }
        None => 1,
    };
    Ok(Trigger {
        when,
        event,
        cooldown,
        max_firings,
    })
}

// ---- TimelineGen --------------------------------------------------------

/// Encodes a shock-schedule generator.
pub fn gen_to_value(generator: &TimelineGen) -> Value {
    let mut t = Value::table();
    let kind = match &generator.shock {
        GenShock::Kill { .. } => "kill",
        GenShock::Spawn { .. } => "spawn",
        GenShock::Scramble => "scramble",
        GenShock::DemandStep { .. } => "demand-step",
    };
    t.insert("kind", Value::Str(kind.into()));
    if generator.start != 1 {
        t.insert("start", int(generator.start));
    }
    t.insert("until", int(generator.until));
    t.insert("mean_gap", float(generator.mean_gap));
    match &generator.shock {
        GenShock::Kill { min_frac, max_frac } | GenShock::Spawn { min_frac, max_frac } => {
            t.insert("min_frac", float(*min_frac));
            t.insert("max_frac", float(*max_frac));
        }
        GenShock::Scramble => {}
        GenShock::DemandStep {
            min_factor,
            max_factor,
        } => {
            t.insert("min_factor", float(*min_factor));
            t.insert("max_factor", float(*max_factor));
        }
    }
    t
}

/// Decodes a shock-schedule generator.
pub fn gen_from_value(v: &Value) -> Result<TimelineGen, ConfigError> {
    let what = "generate";
    let kind = v.want("kind")?.as_str("generate.kind")?;
    let allowed: &[&str] = match kind {
        "kill" | "spawn" => &["kind", "start", "until", "mean_gap", "min_frac", "max_frac"],
        "scramble" => &["kind", "start", "until", "mean_gap"],
        "demand-step" => &[
            "kind",
            "start",
            "until",
            "mean_gap",
            "min_factor",
            "max_factor",
        ],
        _ => &["kind"],
    };
    check_keys(v, what, allowed)?;
    let shock = match kind {
        "kill" | "spawn" => {
            let min_frac = v.want("min_frac")?.as_f64("generate.min_frac")?;
            let max_frac = v.want("max_frac")?.as_f64("generate.max_frac")?;
            if kind == "kill" {
                GenShock::Kill { min_frac, max_frac }
            } else {
                GenShock::Spawn { min_frac, max_frac }
            }
        }
        "scramble" => GenShock::Scramble,
        "demand-step" => GenShock::DemandStep {
            min_factor: v.want("min_factor")?.as_f64("generate.min_factor")?,
            max_factor: v.want("max_factor")?.as_f64("generate.max_factor")?,
        },
        other => return Err(bad(what, format!("unknown kind `{other}`"))),
    };
    Ok(TimelineGen {
        start: match v.get("start") {
            Some(x) => x.as_u64("generate.start")?,
            None => 1,
        },
        until: v.want("until")?.as_u64("generate.until")?,
        mean_gap: v.want("mean_gap")?.as_f64("generate.mean_gap")?,
        shock,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_controllers() -> Vec<ControllerSpec> {
        vec![
            ControllerSpec::Ant(AntParams::new(1.0 / 16.0)),
            ControllerSpec::AntDesync(AntParams {
                gamma: 0.05,
                cs: 2.4,
                cd: 18.0,
            }),
            ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.05, 0.4)),
            ControllerSpec::PreciseSigmoid(PreciseSigmoidParams {
                paper_literal_leave_prob: true,
                ..PreciseSigmoidParams::new(0.05, 0.4)
            }),
            ControllerSpec::PreciseAdversarial(PreciseAdversarialParams::new(0.05, 0.3)),
            ControllerSpec::Trivial,
            ControllerSpec::ExactGreedy(ExactGreedyParams {
                p_join: 0.4,
                p_leave: 0.1,
            }),
            ControllerSpec::Hysteresis {
                depth: 4,
                lazy: None,
            },
            ControllerSpec::Hysteresis {
                depth: 2,
                lazy: Some(0.5),
            },
            ControllerSpec::Proportional(ProportionalParams::default()),
            ControllerSpec::Proportional(ProportionalParams {
                gain: 0.25,
                deadband: 3,
            }),
            ControllerSpec::Mix(vec![
                (2.0, ControllerSpec::Ant(AntParams::new(1.0 / 16.0))),
                (
                    1.0,
                    ControllerSpec::ExactGreedy(ExactGreedyParams {
                        p_join: 0.4,
                        p_leave: 0.1,
                    }),
                ),
                (
                    0.5,
                    ControllerSpec::Hysteresis {
                        depth: 3,
                        lazy: None,
                    },
                ),
            ]),
        ]
    }

    fn all_noises() -> Vec<NoiseModel> {
        vec![
            NoiseModel::Sigmoid { lambda: 2.0 },
            NoiseModel::CorrelatedSigmoid {
                lambda: 1.5,
                rho: 0.3,
                seed: 99,
            },
            NoiseModel::Exact,
            NoiseModel::Adversarial {
                gamma_ad: 0.05,
                policy: GreyZonePolicy::AlwaysLack,
            },
            NoiseModel::Adversarial {
                gamma_ad: 0.05,
                policy: GreyZonePolicy::AlwaysOverload,
            },
            NoiseModel::Adversarial {
                gamma_ad: 0.05,
                policy: GreyZonePolicy::Truthful,
            },
            NoiseModel::Adversarial {
                gamma_ad: 0.05,
                policy: GreyZonePolicy::Inverted,
            },
            NoiseModel::Adversarial {
                gamma_ad: 0.05,
                policy: GreyZonePolicy::AlternateByRound,
            },
            NoiseModel::Adversarial {
                gamma_ad: 0.05,
                policy: GreyZonePolicy::RandomLack(0.25),
            },
            NoiseModel::Adversarial {
                gamma_ad: 0.05,
                policy: GreyZonePolicy::LoadThreshold(vec![7, 9]),
            },
        ]
    }

    #[test]
    fn every_controller_roundtrips() {
        for spec in all_controllers() {
            let back = controller_from_value(&controller_to_value(&spec)).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn every_noise_roundtrips() {
        for noise in all_noises() {
            let back = noise_from_value(&noise_to_value(&noise)).unwrap();
            assert_eq!(back, noise);
        }
    }

    #[test]
    fn every_initial_roundtrips() {
        for initial in [
            InitialConfig::AllIdle,
            InitialConfig::AllOnTask(2),
            InitialConfig::UniformRandom,
            InitialConfig::Saturated,
            InitialConfig::SaturatedPlus { extra: 11 },
            InitialConfig::Inverted,
        ] {
            let back = initial_from_value(&initial_to_value(&initial)).unwrap();
            assert_eq!(back, initial);
        }
    }

    #[test]
    fn every_timeline_roundtrips() {
        let timelines = [
            Timeline::new().at(5, Event::Kill { count: 5 }),
            Timeline::new()
                .at(3, Event::SetDemands(vec![4, 4]))
                .at(3, Event::Spawn { count: 9 })
                .at(5, Event::SetTaskDemand { task: 1, demand: 7 })
                .at(8, Event::Scramble)
                .at(9, Event::StampedeTo(1))
                .at(12, Event::SetNoise(NoiseModel::Sigmoid { lambda: 4.0 })),
            Timeline::new()
                .at(
                    2,
                    Event::SetNoise(NoiseModel::Adversarial {
                        gamma_ad: 0.05,
                        policy: GreyZonePolicy::AlwaysLack,
                    }),
                )
                .every(
                    10,
                    5,
                    vec![Event::SetDemands(vec![1, 2]), Event::SetDemands(vec![2, 1])],
                ),
        ];
        for timeline in timelines {
            let back = timeline_from_value(&timeline_to_value(&timeline)).unwrap();
            assert_eq!(back, timeline);
        }
    }

    #[test]
    fn triggers_and_generators_roundtrip() {
        let timelines = [
            // Triggers only.
            Timeline::new().trigger(Trigger {
                when: Condition::RegretBelow {
                    threshold: 40,
                    for_rounds: 16,
                },
                event: Event::Scramble,
                cooldown: 500,
                max_firings: 2,
            }),
            // Composite conditions, every event payload, defaults.
            Timeline::new()
                .trigger(Trigger::once(
                    Condition::And(
                        Box::new(Condition::RegretAbove {
                            threshold: 100,
                            for_rounds: 1,
                        }),
                        Box::new(Condition::Or(
                            Box::new(Condition::PopulationBelow { threshold: 300 }),
                            Box::new(Condition::RoundReached { round: 800 }),
                        )),
                    ),
                    Event::Spawn { count: 50 },
                ))
                .trigger(Trigger {
                    when: Condition::PopulationBelow { threshold: 100 },
                    event: Event::SetNoise(NoiseModel::Exact),
                    cooldown: 0,
                    max_firings: 0,
                }),
            // Deficit conditions (absolute and rate), negative bounds,
            // firing the arena experiments' site-local demand step.
            Timeline::new()
                .trigger(Trigger::once(
                    Condition::DeficitAbove {
                        task: 1,
                        threshold: -4,
                        for_rounds: 8,
                    },
                    Event::SetTaskDemand {
                        task: 1,
                        demand: 20,
                    },
                ))
                .trigger(Trigger {
                    when: Condition::DeficitRateAbove {
                        task: 0,
                        min_rise: 2,
                        for_rounds: 1,
                    },
                    event: Event::Spawn { count: 10 },
                    cooldown: 100,
                    max_firings: 5,
                }),
            // Generators of every shock kind, mixed with scripted
            // events and cycles.
            Timeline::new()
                .at(10, Event::Kill { count: 5 })
                .every(100, 50, vec![Event::Scramble])
                .generate(TimelineGen {
                    start: 1,
                    until: 9_000,
                    mean_gap: 750.0,
                    shock: GenShock::Kill {
                        min_frac: 0.1,
                        max_frac: 0.4,
                    },
                })
                .generate(TimelineGen {
                    start: 500,
                    until: 8_000,
                    mean_gap: 1_000.0,
                    shock: GenShock::Spawn {
                        min_frac: 0.05,
                        max_frac: 0.2,
                    },
                })
                .generate(TimelineGen {
                    start: 1,
                    until: 9_000,
                    mean_gap: 2_000.0,
                    shock: GenShock::Scramble,
                })
                .generate(TimelineGen {
                    start: 1,
                    until: 9_000,
                    mean_gap: 1_500.0,
                    shock: GenShock::DemandStep {
                        min_factor: 0.5,
                        max_factor: 2.0,
                    },
                }),
        ];
        for timeline in timelines {
            let back = timeline_from_value(&timeline_to_value(&timeline)).unwrap();
            assert_eq!(back, timeline);
        }
    }

    #[test]
    fn single_trigger_and_generate_tables_decode_as_one_entry() {
        // `[timeline.generate]` / `[timeline.trigger]` (tables, not
        // arrays) are accepted alongside the `[[…]]` forms.
        let mut generate = Value::table();
        generate.insert("kind", Value::Str("scramble".into()));
        generate.insert("until", Value::Int(1000));
        generate.insert("mean_gap", Value::Float(100.0));
        let mut timeline = Value::table();
        timeline.insert("generate", generate);
        let decoded = timeline_from_value(&timeline).unwrap();
        assert_eq!(decoded.generators.len(), 1);
        assert_eq!(decoded.generators[0].shock, GenShock::Scramble);
        assert_eq!(decoded.generators[0].start, 1, "start defaults to 1");

        let trigger = trigger_to_value(&Trigger::once(
            Condition::RegretBelow {
                threshold: 5,
                for_rounds: 2,
            },
            Event::Scramble,
        ));
        let mut timeline = Value::table();
        timeline.insert("trigger", trigger);
        let decoded = timeline_from_value(&timeline).unwrap();
        assert_eq!(decoded.triggers.len(), 1);
        assert_eq!(decoded.triggers[0].max_firings, 1);
    }

    #[test]
    fn trigger_typos_and_unknown_condition_kinds_are_parse_errors() {
        let trigger = Trigger::once(
            Condition::RegretBelow {
                threshold: 5,
                for_rounds: 2,
            },
            Event::Scramble,
        );
        let mut v = trigger_to_value(&trigger);
        v.insert("cooldwn", Value::Int(5)); // typo'd key
        assert!(trigger_from_value(&v).is_err());
        let mut c = Value::table();
        c.insert("kind", Value::Str("regret-sideways".into()));
        assert!(condition_from_value(&c).is_err());
        // A trigger without a condition is rejected.
        let mut v = trigger_to_value(&trigger);
        let Value::Table(pairs) = &mut v else {
            unreachable!()
        };
        pairs.retain(|(k, _)| k != "when");
        assert!(trigger_from_value(&v).is_err());
        // Unknown keys inside the timeline table form fail loudly.
        let mut t = Value::table();
        t.insert("triger", Value::Array(vec![]));
        assert!(timeline_from_value(&t).is_err());
    }

    #[test]
    fn unknown_kinds_are_parse_errors() {
        let mut t = Value::table();
        t.insert("kind", Value::Str("quantum".into()));
        assert!(controller_from_value(&t).is_err());
        assert!(noise_from_value(&t).is_err());
        assert!(initial_from_value(&t).is_err());
        assert!(event_from_value(&t).is_err());
        assert!(timeline_from_value(&Value::Array(vec![t])).is_err());
    }

    #[test]
    fn arena_roundtrips_and_rejects_typos() {
        for arena in [
            ArenaConfig::single_site(3),
            ArenaConfig {
                site_of_task: vec![0, 0, 1, 2],
                travel_rounds: 4,
                wander_probability: 0.02,
            },
        ] {
            let back = arena_from_value(&arena_to_value(&arena)).unwrap();
            assert_eq!(back, arena);
        }
        let mut v = arena_to_value(&ArenaConfig::single_site(2));
        v.insert("travel_round", Value::Int(3)); // typo'd key
        assert!(arena_from_value(&v).is_err());
    }

    #[test]
    fn missing_required_keys_are_parse_errors() {
        let mut t = Value::table();
        t.insert("kind", Value::Str("sigmoid".into()));
        let err = noise_from_value(&t).unwrap_err();
        assert!(err.to_string().contains("lambda"), "{err}");
    }
}
