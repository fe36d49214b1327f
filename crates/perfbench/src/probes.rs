//! Per-layer probes: timed calls into one crate's public functions on
//! the workload's own data, each inside a span.

use std::hint::black_box;
use std::time::Instant;

use antalloc_core::ControllerBank;
use antalloc_env::{Assignment, Timeline};
use antalloc_noise::TaskFeedback;
use antalloc_rng::{AntRng, StreamSeeder};
use antalloc_sim::{ControllerSpec, NullObserver, Scenario, SimConfig, SyncEngine};

use crate::stats::median;
use crate::trace::{timed, SpanId, Tracer};
use crate::Report;

/// Per kind of the mix, in the order of its parts: the kind, its
/// kernel span and its per-layer metric.
const KERNELS: [(&str, &str, &str); 4] = [
    ("ant", "core.step_batch.ant", "core.kernel_ns_per_ant.ant"),
    (
        "precise_sigmoid",
        "core.step_batch.precise_sigmoid",
        "core.kernel_ns_per_ant.precise_sigmoid",
    ),
    (
        "proportional",
        "core.step_batch.proportional",
        "core.kernel_ns_per_ant.proportional",
    ),
    (
        "exact_greedy",
        "core.step_batch.exact_greedy",
        "core.kernel_ns_per_ant.exact_greedy",
    ),
];

/// The metric-name suffix of a controller kind.
pub fn kind_name(spec: &ControllerSpec) -> Option<&'static str> {
    match spec {
        ControllerSpec::Ant(_) => Some("ant"),
        ControllerSpec::PreciseSigmoid(_) => Some("precise_sigmoid"),
        ControllerSpec::Proportional(_) => Some("proportional"),
        ControllerSpec::ExactGreedy(_) => Some("exact_greedy"),
        _ => None,
    }
}

/// Cap on [`repeat`]'s repetitions, which bounds the span dump.
const MAX_REPS: usize = 1000;

/// Runs `f` repeatedly inside spans named `name`, at least `min_reps`
/// times and until `budget_s` seconds have passed (or [`MAX_REPS`]),
/// and returns the median duration in seconds.
pub fn repeat<T>(
    tracer: &mut Tracer,
    name: &'static str,
    min_reps: usize,
    budget_s: f64,
    mut f: impl FnMut() -> T,
) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps
        || (samples.len() < MAX_REPS && start.elapsed().as_secs_f64() < budget_s)
    {
        let (out, s) = timed(Some(&mut *tracer), name, None, &mut f);
        black_box(out);
        samples.push(s);
    }
    median(&samples)
}

struct SideBank {
    kind: &'static str,
    span: &'static str,
    metric: &'static str,
    bank: ControllerBank,
    rngs: Vec<AntRng>,
    out: Vec<Assignment>,
    ns_per_ant: Vec<f64>,
}

/// Steps one side bank per SoA kind on the live engine's prepared
/// rounds, so kernel cost is measured on the workload's own feedback
/// regime without reaching inside the engine.
pub struct KernelProbe {
    banks: Vec<SideBank>,
    deficits: Vec<i64>,
    prepare_s: Vec<f64>,
    rows: u64,
    stochastic_rows: u64,
}

impl KernelProbe {
    /// One bank of `ants` controllers per kind of the benchmark's mix,
    /// on `k` tasks.
    pub fn new(k: usize, ants: usize, seed: u64) -> Result<Self, String> {
        let mix = Scenario::from_toml(&crate::scenarios::wellmixed_mix(seed))
            .map_err(|e| e.to_string())?
            .config
            .controller;
        let parts = mix.mix_parts().ok_or("the benchmark mix is not a mix")?;
        let seeder = StreamSeeder::new(seed);
        let banks = parts
            .iter()
            .zip(KERNELS)
            .map(|((_, spec), (kind, span, metric))| {
                debug_assert_eq!(kind_name(spec), Some(kind));
                SideBank {
                    kind,
                    span,
                    metric,
                    bank: (0..ants).map(|_| spec.build(k)).collect(),
                    rngs: (0..ants).map(|i| seeder.ant(i)).collect(),
                    out: vec![Assignment::Idle; ants],
                    ns_per_ant: Vec::new(),
                }
            })
            .collect();
        Ok(Self {
            banks,
            deficits: Vec::new(),
            prepare_s: Vec::new(),
            rows: 0,
            stochastic_rows: 0,
        })
    }

    /// Prepares the feedback `engine` is about to step (its end-of-round
    /// deficits under its configured noise) and steps every side bank
    /// on it. Returns `(prepare seconds, estimated kernel seconds)`: the
    /// second scales each kind's measured per-ant time by how many ants
    /// of that kind the engine holds.
    pub fn feed(
        &mut self,
        engine: &SyncEngine,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
    ) -> (f64, f64) {
        let round = engine.round() + 1;
        engine.colony().deficits_into(&mut self.deficits);
        let demands = engine.colony().demands().as_slice();
        let noise = &engine.config().noise;
        let (prepared, prepare_s) = timed(Some(&mut *tracer), "noise.prepare", parent, || {
            noise.prepare(round, &self.deficits, demands)
        });
        self.prepare_s.push(prepare_s);
        self.rows += prepared.tasks().len() as u64;
        self.stochastic_rows += prepared
            .tasks()
            .iter()
            .filter(|t| matches!(t, TaskFeedback::Random { .. }))
            .count() as u64;
        let census = engine.bank_census();
        let mut kernel_s = 0.0;
        for b in &mut self.banks {
            let (_, s) = timed(Some(&mut *tracer), b.span, parent, || {
                b.bank.step_batch(prepared.view(), &mut b.rngs, &mut b.out)
            });
            let per_ant = s / b.bank.len().max(1) as f64;
            b.ns_per_ant.push(per_ant * 1e9);
            let ants: usize = census
                .iter()
                .filter(|c| kind_name(&c.spec) == Some(b.kind))
                .map(|c| c.ants)
                .sum();
            kernel_s += per_ant * ants as f64;
        }
        black_box(&self.banks);
        (prepare_s, kernel_s)
    }

    /// Reports `noise.*` and `core.kernel_ns_per_ant.*`.
    pub fn report(&self, report: &mut Report) {
        report.set_median(
            "noise.prepare_us",
            &self.prepare_s.iter().map(|s| s * 1e6).collect::<Vec<_>>(),
        );
        report.set(
            "noise.stochastic_row_share",
            self.stochastic_rows as f64 / self.rows.max(1) as f64,
        );
        for b in &self.banks {
            report.set_median(b.metric, &b.ns_per_ant);
        }
    }
}

/// Rounds stepped before the arena comparison is timed, past the first
/// rounds' all-idle start.
const QUIET_WARMUP: u64 = 10;
/// Timed rounds per side of the arena comparison.
const QUIET_ROUNDS: usize = 20;

/// Times the scenario, RNG, timeline and engine-construction layers on
/// the workload's own scenario, and compares quiet rounds with and
/// without its arena. `spare` is an engine the probe may reset.
pub fn layer_probes(
    text: &str,
    cfg: &SimConfig,
    spare: &mut SyncEngine,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let parse = repeat(tracer, "scenario.parse", 5, 0.05, || {
        Scenario::from_toml(text)
    });
    report.set("scenario.parse_us", parse * 1e6);
    let render = repeat(tracer, "scenario.canonical_toml", 5, 0.05, || cfg.to_toml());
    report.set("scenario.canonical_toml_us", render * 1e6);

    let seeder = StreamSeeder::new(cfg.seed);
    let derive = repeat(tracer, "rng.derive", 5, 0.05, || {
        for i in 0..cfg.n {
            black_box(seeder.ant(i));
        }
    });
    report.set("rng.derive_ns_per_ant", derive * 1e9 / cfg.n as f64);

    let compile = repeat(tracer, "env.timeline_compile", 5, 0.05, || {
        cfg.timeline.compile(cfg.seed, cfg.n, &cfg.demands)
    });
    report.set("env.timeline_compile_ms", compile * 1e3);

    let build = repeat(tracer, "sim.build", 5, 0.1, || cfg.try_build());
    report.set("sim.build_ms", build * 1e3);
    let reset = repeat(tracer, "sim.reset", 5, 0.1, || spare.reset_from(cfg));
    report.set("sim.reset_us", reset * 1e6);

    // Quiet rounds (no timeline) of the same colony with its arena and
    // without one, stepped alternately so both see the same machine.
    let quiet = |arena| -> Result<SyncEngine, String> {
        let mut c = cfg.clone();
        c.timeline = Timeline::new();
        c.arena = arena;
        let mut engine = c.try_build().map_err(|e| e.to_string())?;
        engine.run(QUIET_WARMUP, &mut NullObserver);
        Ok(engine)
    };
    let (mut arena, mut wellmixed) = (quiet(cfg.arena.clone())?, quiet(None)?);
    let (mut arena_s, mut wellmixed_s) = (Vec::new(), Vec::new());
    for _ in 0..QUIET_ROUNDS {
        let (_, s) = timed(Some(&mut *tracer), "sim.quiet_probe.arena", None, || {
            arena.step(&mut NullObserver)
        });
        arena_s.push(s);
        let (_, s) = timed(
            Some(&mut *tracer),
            "sim.quiet_probe.wellmixed",
            None,
            || wellmixed.step(&mut NullObserver),
        );
        wellmixed_s.push(s);
    }
    report.set(
        "sim.arena_vs_wellmixed",
        median(&wellmixed_s) / median(&arena_s),
    );
    Ok(())
}
