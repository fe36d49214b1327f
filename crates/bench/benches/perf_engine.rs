//! PERF — engine throughput (criterion).
//!
//! Tracks ant-rounds/second for the serial and parallel paths and the
//! per-algorithm step cost, so the experiment suite stays laptop-sized.
//!
//! The `banks_vs_seed` comparison races the banked engine against a
//! faithful replica of the pre-bank (array-of-enums, per-ant-probe)
//! loop on a million-ant homogeneous Ant colony, asserts the two are
//! bit-identical, and emits `target/experiments/BENCH_engine.json` —
//! the artifact the `perf-smoke` CI job uploads so the repo keeps a
//! perf trajectory. Set `PERF_QUICK=1` for a CI-sized run.

// disallowed_methods: a bench exists to read the wall clock; timing
// here never feeds a simulation (audit.toml relaxes bench files too).
#![allow(clippy::disallowed_methods)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::io::Write as _;
use std::time::{Duration, Instant};

use antalloc_bench::perf_quick as quick;
use antalloc_core::{
    AntParams, AnyController, Controller, PreciseAdversarialParams, PreciseSigmoidParams,
    ProportionalParams,
};
use antalloc_env::{ArenaConfig, ColonyState};
use antalloc_noise::{FeedbackProbe, NoiseModel};
use antalloc_rng::{AntRng, StreamSeeder};
use antalloc_sim::{ControllerSpec, NullObserver, SimConfig};

fn engine_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_throughput");
    group.sample_size(10);
    for &n in &[1_000usize, 10_000, 100_000] {
        let demands = vec![(n / 8) as u64, (n / 8) as u64, (n / 8) as u64];
        let cfg = SimConfig::builder(n, demands)
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
            .seed(1)
            .build()
            .expect("valid scenario");
        let rounds = 64u64;
        group.throughput(Throughput::Elements(n as u64 * rounds));
        group.bench_with_input(BenchmarkId::new("serial", n), &cfg, |b, cfg| {
            let mut engine = cfg.build();
            let mut obs = NullObserver;
            b.iter(|| {
                engine.run(rounds, &mut obs);
                black_box(engine.colony().instant_regret())
            });
        });
        group.bench_with_input(BenchmarkId::new("parallel", n), &cfg, |b, cfg| {
            let mut engine = cfg.build();
            let mut obs = NullObserver;
            let threads = antalloc_bench::worker_threads();
            b.iter(|| {
                engine.run_parallel(rounds, threads, &mut obs);
                black_box(engine.colony().instant_regret())
            });
        });
    }
    group.finish();
}

fn algorithm_step_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm_step_cost");
    group.sample_size(10);
    let n = 10_000usize;
    let demands = vec![2000u64, 2000];
    let rounds = 64u64;
    let specs: [(&str, ControllerSpec); 5] = [
        ("ant", ControllerSpec::Ant(AntParams::new(1.0 / 16.0))),
        (
            "precise_sigmoid",
            ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.05, 0.5)),
        ),
        ("trivial", ControllerSpec::Trivial),
        (
            "hysteresis8",
            ControllerSpec::Hysteresis {
                depth: 8,
                lazy: Some(0.5),
            },
        ),
        (
            "mix_ant_greedy_hyst",
            ControllerSpec::Mix(vec![
                (2.0, ControllerSpec::Ant(AntParams::new(1.0 / 16.0))),
                (1.0, ControllerSpec::ExactGreedy(Default::default())),
                (
                    1.0,
                    ControllerSpec::Hysteresis {
                        depth: 4,
                        lazy: Some(0.5),
                    },
                ),
            ]),
        ),
    ];
    for (name, spec) in specs {
        let demands = if matches!(
            spec,
            ControllerSpec::Hysteresis { .. } | ControllerSpec::Mix(_)
        ) {
            vec![2000u64]
        } else {
            demands.clone()
        };
        let cfg = SimConfig::builder(n, demands)
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(spec)
            .seed(2)
            .build()
            .expect("valid scenario");
        group.throughput(Throughput::Elements(n as u64 * rounds));
        group.bench_function(name, |b| {
            let mut engine = cfg.build();
            let mut obs = NullObserver;
            b.iter(|| {
                engine.run(rounds, &mut obs);
                black_box(engine.colony().instant_regret())
            });
        });
    }
    group.finish();
}

/// A faithful replica of the pre-bank engine loop: `Vec<AnyController>`
/// with one enum dispatch and one probe per ant per round, decisions
/// applied in ant order as they are made, each ant drawing from its
/// stream for the round. The controllers are cloned out of a banked
/// engine so the initial state matches exactly.
struct SeedReplica {
    controllers: Vec<AnyController>,
    seeder: StreamSeeder,
    colony: ColonyState,
    noise: NoiseModel,
    round: u64,
    deficits: Vec<i64>,
}

impl SeedReplica {
    fn new(cfg: &SimConfig) -> Self {
        let engine = cfg.build();
        let controllers = engine.reference_controllers();
        let colony = ColonyState::new(cfg.n, antalloc_env::DemandVector::new(cfg.demands.clone()));
        // cfg.initial is AllIdle here; the fresh colony already is.
        let k = colony.num_tasks();
        Self {
            controllers,
            seeder: StreamSeeder::new(cfg.seed),
            colony,
            noise: cfg.noise.clone(),
            round: 0,
            deficits: vec![0; k],
        }
    }

    fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.round += 1;
            self.colony.deficits_into(&mut self.deficits);
            let prepared =
                self.noise
                    .prepare(self.round, &self.deficits, self.colony.demands().as_slice());
            let key = self.seeder.round_key(self.round);
            for i in 0..self.controllers.len() {
                let mut rng = AntRng::keyed(key, i as u64);
                let mut probe = FeedbackProbe::new(&prepared, &mut rng);
                let next = self.controllers[i].step(&mut probe);
                if next != self.colony.assignment(i) {
                    self.colony.apply(i, next);
                }
            }
        }
    }
}

/// Times `step` over `samples` batches of `rounds` rounds; returns the
/// best ant-rounds/second (max over samples, the standard perf metric
/// for throughput floors).
fn measure(n: usize, rounds: u64, samples: usize, mut step: impl FnMut(u64)) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..samples {
        let t0 = Instant::now();
        step(rounds);
        let dt = t0.elapsed().as_secs_f64();
        best = best.max(n as f64 * rounds as f64 / dt);
    }
    best
}

/// One controller kind's SoA-bank-vs-per-ant-reference comparison.
struct KindResult {
    kind: &'static str,
    tasks: usize,
    seed_tput: f64,
    banks_tput: f64,
    banks_par_tput: f64,
    kernel_generic_tput: f64,
    kernel_soa_tput: f64,
    /// The kernel race's paired SoA / generic window ratios, ascending.
    kernel_ratios: Vec<f64>,
    /// `(threads, ant_rounds_per_sec)` for the fused parallel path.
    scaling: Vec<(usize, f64)>,
}

/// Colony size above which the fused parallel path is documented to
/// beat the serial path (given > 2 hardware threads). The scaling
/// guard in [`banks_vs_seed`] enforces this; `docs/ARCHITECTURE.md`
/// and the README state it.
const PARALLEL_CROSSOVER_N: usize = 100_000;

/// Thread counts for the per-kind parallel scaling curve.
const SCALING_THREADS: [usize; 4] = [1, 2, 4, 8];

/// The generic monomorphic per-ant loop: one probe per ant over a
/// `Vec` of controllers — the exact layout the SoA banks replaced.
fn step_per_ant<C: Controller>(
    ants: &mut [C],
    view: antalloc_noise::RoundView<'_>,
    rngs: &mut [AntRng],
    out: &mut [antalloc_env::Assignment],
) {
    for ((ant, rng), slot) in ants.iter_mut().zip(rngs).zip(out) {
        *slot = ant.step(&mut FeedbackProbe::from_view(view, rng));
    }
}

impl KindResult {
    /// The median paired SoA / generic kernel ratio.
    fn kernel_speedup(&self) -> f64 {
        self.kernel_ratios[self.kernel_ratios.len() / 2]
    }
}

/// Paired windows per kernel race (see [`kernel_race`]).
const RACE_SAMPLES: usize = 11;

/// The shortest kernel-race window: long enough to span many scheduler
/// ticks, so one preempted slice moves a window's rate by little.
const RACE_WINDOW: Duration = Duration::from_millis(100);

/// The median of `values` (the upper one of an even count), sorting
/// them.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Like-for-like kernel race: the SoA bank's `step_batch` against the
/// generic monomorphic per-ant loop ([`step_per_ant`]), same rounds,
/// same per-ant RNG streams, keyed afresh every round as the engine
/// keys them, no engine around either; ant `i` is `make(i)` over `k`
/// tasks. Asserts bit-identity.
///
/// Each of [`RACE_SAMPLES`] samples times one window of each side over
/// the same rounds, back to back, alternating which side goes first;
/// a window runs enough rounds to last at least [`RACE_WINDOW`] on the
/// faster side. Returns the median generic and SoA ant-rounds/second
/// and the per-sample SoA / generic ratios, ascending: pairing the
/// windows cancels slow drifts of the host, and their median drops the
/// samples a burst of other work landed on.
fn kernel_race<C>(n: usize, k: usize, make: impl Fn(usize) -> C) -> (f64, f64, Vec<f64>)
where
    C: Controller + Clone + Into<AnyController>,
{
    use antalloc_rng::StreamSeeder;

    let demands = vec![(n / 8) as u64; k];
    let noise = NoiseModel::Sigmoid { lambda: 2.0 };
    let seeder = StreamSeeder::new(5);
    let mut generic: Vec<C> = (0..n).map(&make).collect();
    let mut soa: antalloc_core::ControllerBank = (0..n).map(|i| make(i).into()).collect();
    let mut generic_rngs = vec![AntRng::seed_from_u64(0); n];
    let mut soa_rngs = generic_rngs.clone();
    // Every ant's stream for `round`, written over last round's.
    let key_round = |rngs: &mut [AntRng], round: u64| {
        let key = seeder.round_key(round);
        for (i, rng) in rngs.iter_mut().enumerate() {
            *rng = AntRng::keyed(key, i as u64);
        }
    };
    // Each side's decisions; the SoA side's `out_b` is in/out, carrying
    // every ant's assignment from round to round as the task column does.
    let mut out_a: Vec<_> = generic.iter().map(Controller::assignment).collect();
    let mut out_b = out_a.clone();
    // Small rotating deficits keep every signal stochastic (saturated
    // sigmoids compile to draw-free fixed feedback and would flatter
    // both loops equally but measure nothing).
    let deficits = |round: u64| {
        let mut d = vec![0i64; k];
        for (j, slot) in d.iter_mut().enumerate() {
            *slot = [2i64, 0, -2][(round as usize + j) % 3];
        }
        d
    };
    // One round of one side, `soa_side` picking which, into `out`.
    let mut step_side = |soa_side: bool, round: u64, out: &mut [antalloc_env::Assignment]| {
        let prep = noise.prepare(round, &deficits(round), &demands);
        if soa_side {
            key_round(&mut soa_rngs, round);
            soa.step_batch(prep.view(), &mut soa_rngs, out);
        } else {
            key_round(&mut generic_rngs, round);
            step_per_ant(&mut generic, prep.view(), &mut generic_rngs, out);
        }
    };
    let warm = 16u64;
    let mut spent = [Duration::ZERO; 2];
    for round in 1..=warm {
        for (side, (spent, out)) in spent.iter_mut().zip([&mut out_a, &mut out_b]).enumerate() {
            let t0 = Instant::now();
            step_side(side == 1, round, out);
            *spent += t0.elapsed();
        }
        assert_eq!(out_a, out_b, "kernel outputs diverged in warmup");
    }
    let fastest_round = spent[0].min(spent[1]) / warm as u32;
    let window_rounds = RACE_WINDOW
        .as_nanos()
        .div_ceil(fastest_round.as_nanos().max(1))
        .max(1) as u64;
    let mut generic_tputs = Vec::with_capacity(RACE_SAMPLES);
    let mut soa_tputs = Vec::with_capacity(RACE_SAMPLES);
    let mut ratios = Vec::with_capacity(RACE_SAMPLES);
    for sample in 0..RACE_SAMPLES as u64 {
        let start = warm + sample * window_rounds;
        let soa_first = sample % 2 == 1;
        let mut window = |soa_side: bool| {
            let out = if soa_side { &mut out_b } else { &mut out_a };
            let t0 = Instant::now();
            for round in start + 1..=start + window_rounds {
                step_side(soa_side, round, out);
            }
            n as f64 * window_rounds as f64 / t0.elapsed().as_secs_f64()
        };
        let first = window(soa_first);
        let second = window(!soa_first);
        let (generic_tput, soa_tput) = if soa_first {
            (second, first)
        } else {
            (first, second)
        };
        generic_tputs.push(generic_tput);
        soa_tputs.push(soa_tput);
        ratios.push(soa_tput / generic_tput);
    }
    assert_eq!(out_a, out_b, "kernel outputs diverged during measurement");
    black_box((&generic, &soa));
    ratios.sort_by(f64::total_cmp);
    (median(&mut generic_tputs), median(&mut soa_tputs), ratios)
}

/// Sensing-layer overhead: the same Ant colony well-mixed, through the
/// degenerate single-site arena (which must compile to the shared
/// view — near-zero overhead), and through multi-site geometries where
/// per-ant sense rows, wandering and travel latency are actually live.
/// Returns `(label, ant_rounds_per_sec)` rows, well-mixed first.
fn arena_overhead(n: usize, rounds: u64, samples: usize) -> Vec<(&'static str, f64)> {
    let k = 4usize;
    let demands = vec![(n / 10) as u64; k];
    let geometries: [(&'static str, Option<ArenaConfig>); 4] = [
        ("wellmixed", None),
        ("arena_single_site", Some(ArenaConfig::single_site(k))),
        (
            "arena_2_sites",
            Some(ArenaConfig {
                site_of_task: vec![0, 0, 1, 1],
                travel_rounds: 2,
                wander_probability: 0.05,
            }),
        ),
        (
            "arena_4_sites",
            Some(ArenaConfig {
                site_of_task: vec![0, 1, 2, 3],
                travel_rounds: 2,
                wander_probability: 0.05,
            }),
        ),
    ];
    let mut rows = Vec::new();
    for (label, arena) in geometries {
        let mut builder = SimConfig::builder(n, demands.clone())
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
            .seed(6);
        if let Some(a) = arena {
            builder = builder.arena(a);
        }
        let cfg = builder.build().expect("valid scenario");
        let mut engine = cfg.build();
        engine.run(16, &mut NullObserver); // warm to steady state
        let tput = measure(n, rounds, samples, |r| engine.run(r, &mut NullObserver));
        rows.push((label, tput));
    }
    rows
}

/// Races every SoA-banked controller kind against a faithful replica of
/// the pre-bank (array-of-enums, per-ant-probe) loop on a million-ant
/// homogeneous colony, asserting bit-identity along the way, and emits
/// one per-kind entry into `BENCH_engine.json`. Under `PERF_QUICK` the
/// colony shrinks to CI size and a **regression guard** fires: the run
/// fails if any SoA bank is slower than the generic per-ant path.
fn banks_vs_seed(_c: &mut Criterion) {
    let (n, rounds, samples) = if quick() {
        (150_000usize, 8u64, 3usize)
    } else {
        (1_000_000usize, 16u64, 5usize)
    };
    let threads = antalloc_bench::worker_threads();
    // One spec per kind, shared by the engine comparison AND the kernel
    // race below (via the match on `spec`), so both halves of a
    // per-kind JSON entry always measure the same configuration.
    let kinds: [(&'static str, ControllerSpec); 8] = [
        ("ant", ControllerSpec::Ant(AntParams::new(1.0 / 16.0))),
        (
            "ant_desync",
            ControllerSpec::AntDesync(AntParams::new(1.0 / 16.0)),
        ),
        (
            "precise_sigmoid",
            ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.05, 0.5)),
        ),
        ("trivial", ControllerSpec::Trivial),
        (
            "exact_greedy",
            ControllerSpec::ExactGreedy(Default::default()),
        ),
        (
            "proportional",
            ControllerSpec::Proportional(ProportionalParams::default()),
        ),
        (
            "precise_adversarial",
            ControllerSpec::PreciseAdversarial(PreciseAdversarialParams::new(0.05, 0.5)),
        ),
        (
            "hysteresis",
            ControllerSpec::Hysteresis {
                depth: 3,
                lazy: Some(0.5),
            },
        ),
    ];

    println!(
        "\nbenchmark group: banks_vs_seed (n = {n}, {rounds} rounds × {samples} samples, \
         per controller kind)"
    );

    let mut results: Vec<KindResult> = Vec::new();
    for (kind, spec) in kinds {
        // Table machines observe one task.
        let k = if matches!(spec, ControllerSpec::Hysteresis { .. }) {
            1
        } else {
            3
        };
        let demands = vec![(n / 8) as u64; k];
        let cfg = SimConfig::builder(n, demands)
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(spec.clone())
            .seed(3)
            .build()
            .expect("valid scenario");

        // Warm both to the same steady state, asserting bit-identity on
        // the way — the comparison is meaningless if the layouts
        // diverge.
        let warm = 32u64;
        let mut banked = cfg.build();
        let mut obs = NullObserver;
        banked.run(warm, &mut obs);
        let mut seed = SeedReplica::new(&cfg);
        seed.run(warm);
        assert_eq!(
            banked.colony().loads(),
            seed.colony.loads(),
            "{kind}: bank layout diverged from the seed layout"
        );

        let seed_tput = measure(n, rounds, samples, |r| seed.run(r));
        let banks_tput = measure(n, rounds, samples, |r| banked.run(r, &mut NullObserver));
        let banks_par_tput = measure(n, rounds, samples, |r| {
            banked.run_parallel(r, threads, &mut NullObserver)
        });
        // Catch the seed replica up (banked ran one extra measurement
        // block on the parallel path) and re-check bit-identity.
        seed.run(rounds * samples as u64);
        assert_eq!(
            banked.colony().loads(),
            seed.colony.loads(),
            "{kind}: layouts diverged during measurement"
        );

        // Parallel scaling curve: the fused path at fixed thread counts
        // (requested threads — the engine still clamps to one
        // participant per 8 000 ants, and 1 requested thread is the
        // plain serial run). Bit-identity across thread counts is pinned
        // by the determinism proptests; here we only measure.
        let scaling: Vec<(usize, f64)> = SCALING_THREADS
            .iter()
            .map(|&t| {
                let tput = measure(n, rounds, samples, |r| {
                    banked.run_parallel(r, t, &mut NullObserver)
                });
                (t, tput)
            })
            .collect();

        // Like-for-like kernel race: SoA step_batch vs the generic
        // monomorphic per-ant loop it replaced, no engine around
        // either — this is the number the regression guard watches
        // (the end-to-end comparison above also carries harness
        // differences: the seed replica skips the engine's
        // fused apply and round records). Constructors come
        // from the same `spec` the engine comparison ran.
        let (kernel_generic_tput, kernel_soa_tput, kernel_ratios) = match &spec {
            ControllerSpec::Ant(p) => {
                let p = *p;
                kernel_race(n, k, move |_| antalloc_core::AlgorithmAnt::new(k, p))
            }
            ControllerSpec::AntDesync(p) => {
                let p = *p;
                kernel_race(n, k, move |i| {
                    antalloc_core::AlgorithmAnt::with_phase_offset(k, p, (i % 2) as u64)
                })
            }
            ControllerSpec::PreciseSigmoid(p) => {
                let p = *p;
                kernel_race(n, k, move |_| antalloc_core::PreciseSigmoid::new(k, p))
            }
            ControllerSpec::Trivial => kernel_race(n, k, |_| antalloc_core::Trivial::new(k)),
            ControllerSpec::ExactGreedy(p) => {
                let p = *p;
                kernel_race(n, k, move |_| antalloc_core::ExactGreedy::new(k, p))
            }
            ControllerSpec::Proportional(p) => {
                let p = *p;
                kernel_race(n, k, move |_| {
                    antalloc_core::ProportionalController::new(k, p)
                })
            }
            ControllerSpec::PreciseAdversarial(p) => {
                let p = *p;
                kernel_race(n, k, move |_| antalloc_core::PreciseAdversarial::new(k, p))
            }
            ControllerSpec::Hysteresis { depth, lazy } => {
                let fsm = match lazy {
                    Some(p) => antalloc_core::FsmSpec::lazy_hysteresis(*depth, *p),
                    None => antalloc_core::FsmSpec::hysteresis(*depth),
                };
                let fsm = std::sync::Arc::new(fsm);
                kernel_race(n, k, move |_| antalloc_core::TableFsm::new(fsm.clone()))
            }
            other => unreachable!("unknown kind {other:?}"),
        };
        results.push(KindResult {
            tasks: k,
            kind,
            seed_tput,
            banks_tput,
            banks_par_tput,
            kernel_generic_tput,
            kernel_soa_tput,
            kernel_ratios,
            scaling,
        });
    }

    // The arena-vs-well-mixed overhead curve rides in the same JSON
    // artifact (and carries its own quick-mode guard below).
    let arena_rows = arena_overhead(n, rounds, samples);
    let wellmixed_tput = arena_rows[0].1;

    let mut table = antalloc_bench::Table::new(
        "perf_engine_banks_vs_seed",
        &["kind", "layout", "ant_rounds_per_sec", "speedup"],
    );
    for r in &results {
        table.row(vec![
            r.kind.into(),
            "engine_seed_per_ant".into(),
            format!("{:.3e}", r.seed_tput),
            "1.00".into(),
        ]);
        table.row(vec![
            r.kind.into(),
            "engine_banks_serial".into(),
            format!("{:.3e}", r.banks_tput),
            format!("{:.2}", r.banks_tput / r.seed_tput),
        ]);
        table.row(vec![
            r.kind.into(),
            format!("engine_banks_parallel_{threads}"),
            format!("{:.3e}", r.banks_par_tput),
            format!("{:.2}", r.banks_par_tput / r.seed_tput),
        ]);
        table.row(vec![
            r.kind.into(),
            "kernel_generic_loop".into(),
            format!("{:.3e}", r.kernel_generic_tput),
            "1.00".into(),
        ]);
        table.row(vec![
            r.kind.into(),
            "kernel_soa_bank".into(),
            format!("{:.3e}", r.kernel_soa_tput),
            format!("{:.2}", r.kernel_speedup()),
        ]);
        for &(t, tput) in &r.scaling {
            table.row(vec![
                r.kind.into(),
                format!("engine_scaling_threads_{t}"),
                format!("{tput:.3e}"),
                format!("{:.2}", tput / r.banks_tput),
            ]);
        }
    }
    table.finish();
    println!("  kernel race, paired SoA / generic window ratios (min, q1, median, q3, max):");
    for r in &results {
        let q = |f: f64| r.kernel_ratios[((r.kernel_ratios.len() - 1) as f64 * f).round() as usize];
        println!(
            "    {:>20}  {:.2} {:.2} {:.2} {:.2} {:.2}",
            r.kind,
            q(0.0),
            q(0.25),
            q(0.5),
            q(0.75),
            q(1.0)
        );
    }

    let mut arena_table = antalloc_bench::Table::new(
        "perf_engine_arena_overhead",
        &["geometry", "ant_rounds_per_sec", "vs_wellmixed"],
    );
    for &(label, tput) in &arena_rows {
        arena_table.row(vec![
            label.into(),
            format!("{tput:.3e}"),
            format!("{:.2}", tput / wellmixed_tput),
        ]);
    }
    arena_table.finish();

    let arena_json: Vec<String> = arena_rows
        .iter()
        .map(|&(label, tput)| format!("\"{label}\": {tput:.1}"))
        .collect();

    let kinds_json: Vec<String> = results
        .iter()
        .map(|r| {
            let curve: Vec<String> = r
                .scaling
                .iter()
                .map(|&(t, tput)| format!("\"threads_{t}\": {tput:.1}"))
                .collect();
            format!(
                "    \"{}\": {{\n      \
                 \"tasks\": {},\n      \
                 \"engine_seed_per_ant\": {{ \"ant_rounds_per_sec\": {:.1} }},\n      \
                 \"engine_banks_serial\": {{ \"ant_rounds_per_sec\": {:.1} }},\n      \
                 \"engine_banks_parallel\": {{ \"ant_rounds_per_sec\": {:.1} }},\n      \
                 \"kernel_generic_loop\": {{ \"ant_rounds_per_sec\": {:.1} }},\n      \
                 \"kernel_soa_bank\": {{ \"ant_rounds_per_sec\": {:.1} }},\n      \
                 \"parallel_scaling\": {{ {} }},\n      \
                 \"speedup_engine_serial_vs_seed\": {:.3},\n      \
                 \"speedup_engine_parallel_vs_seed\": {:.3},\n      \
                 \"speedup_kernel_soa_vs_generic\": {:.3}\n    }}",
                r.kind,
                r.tasks,
                r.seed_tput,
                r.banks_tput,
                r.banks_par_tput,
                r.kernel_generic_tput,
                r.kernel_soa_tput,
                curve.join(", "),
                r.banks_tput / r.seed_tput,
                r.banks_par_tput / r.seed_tput,
                r.kernel_speedup(),
            )
        })
        .collect();
    let path = antalloc_bench::out_dir().join("BENCH_engine.json");
    let mut out = std::fs::File::create(&path).expect("create BENCH_engine.json");
    writeln!(
        out,
        "{{\n  \"bench\": \"perf_engine/banks_vs_seed\",\n  \"quick\": {},\n  \
         \"n\": {n},\n  \"rounds_per_sample\": {rounds},\n  \
         \"samples\": {samples},\n  \"threads\": {threads},\n  \
         \"parallel_crossover_n\": {PARALLEL_CROSSOVER_N},\n  \
         \"arena_overhead\": {{ {}, \"ratio_single_site_vs_wellmixed\": {:.3} }},\n  \
         \"kinds\": {{\n{}\n  }}\n}}",
        quick(),
        arena_json.join(", "),
        arena_rows[1].1 / wellmixed_tput,
        kinds_json.join(",\n"),
    )
    .expect("write BENCH_engine.json");
    println!("  [json: {}]", path.display());

    // The well-mixed non-regression guard: the degenerate single-site
    // arena must compile to the shared view, so its throughput must
    // stay within noise of the well-mixed path — a big gap means the
    // sensing layer started taxing colonies that never asked for an
    // arena geometry. 0.6 is a generous CI-noise margin, not a target.
    if quick() {
        let single = arena_rows
            .iter()
            .find(|&&(label, _)| label == "arena_single_site")
            .expect("single-site row")
            .1;
        assert!(
            single >= 0.6 * wellmixed_tput,
            "single-site arena runs at {single:.3e} ant-rounds/s vs well-mixed \
             {wellmixed_tput:.3e} — the degenerate geometry no longer compiles to the \
             shared view"
        );
    }

    for r in &results {
        let engine_speedup = r.banks_tput / r.seed_tput;
        let kernel_speedup = r.kernel_speedup();
        assert!(
            engine_speedup > 0.0 && engine_speedup.is_finite(),
            "{}: nonsensical engine speedup {engine_speedup}",
            r.kind
        );
        // The PERF_QUICK regression guard: an SoA bank slower than the
        // generic per-ant loop it replaced means the fast layout
        // regressed. Guarded on the like-for-like kernel race — the
        // end-to-end engine/seed-replica comparison also reflects
        // harness differences and machine noise, so it stays
        // informational.
        if quick() {
            assert!(
                kernel_speedup >= 1.0,
                "{}: SoA bank kernel is {kernel_speedup:.2}x the generic per-ant loop — \
                 slower than the layout it replaces",
                r.kind
            );
        }
        // The scaling guard: above the documented crossover size and
        // given real hardware parallelism (> 2 threads, matching
        // `worker_threads`' own floor), the best point on the fused
        // parallel scaling curve must not lose to the serial path.
        // On 1–2-thread boxes extra participants only time-share the
        // same cores and the curve is flat, so there is nothing
        // to enforce.
        let hw = std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1);
        if n >= PARALLEL_CROSSOVER_N && hw > 2 {
            let best = r
                .scaling
                .iter()
                .map(|&(_, tput)| tput)
                .fold(0.0f64, f64::max);
            assert!(
                best >= r.banks_tput,
                "{}: parallel scaling curve peaks at {best:.3e} ant-rounds/s, below the \
                 serial path's {:.3e} at n = {n} (>= documented crossover {PARALLEL_CROSSOVER_N})",
                r.kind,
                r.banks_tput
            );
        }
    }
}

/// Regression guard for the timeline cursor: consuming a long event
/// script must cost O(1) per round, not O(events). The engine-polled
/// demand schedule the cursor replaced did a linear `find` over all
/// steps every round. With 50k pending events a linear scan would be
/// orders of magnitude slower — assert the scripted run stays within 2×
/// of the static run (generous noise margin).
fn timeline_cursor_scaling(_c: &mut Criterion) {
    use antalloc_env::{Event, Timeline};

    let n = 2_000usize;
    let rounds = 2_000u64;
    let demands = vec![(n / 8) as u64; 2];
    let base = SimConfig::builder(n, demands.clone())
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
        .seed(4)
        .build()
        .expect("valid scenario");
    // 50k one-shot events, all far beyond the horizon: the cursor must
    // never scan them.
    let mut timeline = Timeline::new();
    for i in 0..50_000u64 {
        timeline = timeline.at(1_000_000 + i, Event::SetDemands(demands.clone()));
    }
    let mut scripted = base.clone();
    scripted.timeline = timeline;

    let samples = 5usize;
    let mut static_engine = base.build();
    let mut scripted_engine = scripted.build(); // validates the script too
                                                // Warm both once to even out allocation effects.
    static_engine.run(rounds, &mut NullObserver);
    scripted_engine.run(rounds, &mut NullObserver);
    let static_tput = measure(n, rounds, samples, |r| {
        static_engine.run(r, &mut NullObserver)
    });
    let scripted_tput = measure(n, rounds, samples, |r| {
        scripted_engine.run(r, &mut NullObserver)
    });
    let slowdown = static_tput / scripted_tput;

    println!("\nbenchmark group: timeline_cursor_scaling (n = {n}, 50k pending events)");
    let mut table = antalloc_bench::Table::new(
        "perf_engine_timeline_cursor",
        &["timeline", "ant_rounds_per_sec", "slowdown_vs_static"],
    );
    table.row(vec![
        "static".into(),
        format!("{static_tput:.3e}"),
        "1.00".into(),
    ]);
    table.row(vec![
        "50k_pending_events".into(),
        format!("{scripted_tput:.3e}"),
        format!("{slowdown:.2}"),
    ]);
    table.finish();
    assert!(
        slowdown < 2.0,
        "timeline consumption regressed to O(events)/round: {slowdown:.2}x slower \
         ({static_tput:.3e} vs {scripted_tput:.3e} ant-rounds/s)"
    );
}

criterion_group!(
    benches,
    engine_throughput,
    algorithm_step_cost,
    banks_vs_seed,
    timeline_cursor_scaling
);
criterion_main!(benches);
