//! PERF — ensemble sweep throughput (runs/second).
//!
//! Measures the sweep fast path end to end: streamed jobs + engine
//! reuse versus a per-job fresh engine build, at 1/2/4/8 sweep
//! workers, on two shapes:
//!
//! - **paper**: the acceptance shape (n = 400, k = 2, 200 rounds,
//!   ≥ 1k runs in full mode). Run time dominates here — a 200-round
//!   run costs ~25× an engine build — so reuse buys a few percent at
//!   most; the honest number is reported and guarded against
//!   *regressing* (reuse must never be slower than fresh beyond
//!   noise).
//! - **churn**: a setup-bound shape (same colony, 2 rounds per run) —
//!   the regime short-horizon ensembles and transient studies live in,
//!   where amortizing the build is the whole game.
//!
//! An honest ceiling on the reuse win: every job runs under its own
//! seed, so the O(n) bank and membership rebuild must be redone on
//! reset (ants carry no RNG state, so no per-ant stream is derived).
//! Reuse eliminates the allocations and the rest of construction,
//! which on a warm single-thread allocator is a ~5–10% win on the churn
//! shape (more where allocation is pricier). The guards therefore enforce
//! "reuse always wins on the setup-bound shape, never costs at paper
//! scale", not a fantasy multiple.
//!
//! Every measured pass also cross-checks bit-identity: the reused-
//! engine sweep must produce outcome-for-outcome identical regret to
//! the fresh-build sweep. Emits `target/experiments/BENCH_sweep.json`
//! (uploaded by the `perf-smoke` CI job, next to `BENCH_engine.json`).
//! Set `PERF_QUICK=1` for a CI-sized run.

// disallowed_methods: a bench exists to read the wall clock; timing
// here never feeds a simulation (audit.toml relaxes bench files too).
#![allow(clippy::disallowed_methods)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::io::Write as _;
use std::time::Instant;

use antalloc_bench::perf_quick as quick;
use antalloc_core::AntParams;
use antalloc_noise::NoiseModel;
use antalloc_sim::{ControllerSpec, RunOutcome, SimConfig, Sweep};

/// Sweep worker counts the throughput curve is measured at.
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Reuse must at least match fresh builds on the setup-bound churn
/// shape (it measures ~1.05–1.1× here; the guard is the no-loss floor
/// so machine variance cannot flake CI).
const CHURN_MIN_SPEEDUP: f64 = 1.0;

/// Reuse must never lose more than this on the run-dominated paper
/// shape (1.0 minus a machine-noise margin).
const PAPER_MIN_SPEEDUP: f64 = 0.90;

/// The acceptance-shape base config: n = 400, two tasks.
fn base_config() -> SimConfig {
    SimConfig::builder(400, vec![120, 80])
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
        .seed(11)
        .build()
        .expect("valid scenario")
}

/// A 4-point gamma grid over the base config — enough grid structure
/// to exercise the streamed per-grid-point config derivation.
fn sweep_for(rounds: u64, seeds: u64, workers: usize, reuse: bool) -> Sweep {
    Sweep::new(base_config())
        .axis(
            "gamma",
            [1.0 / 64.0, 1.0 / 32.0, 1.0 / 16.0, 1.0 / 8.0],
            |cfg, gamma| cfg.controller = ControllerSpec::Ant(AntParams::new(gamma)),
        )
        .seeds(0..seeds)
        .rounds(rounds)
        .threads(workers)
        .engine_reuse(reuse)
}

/// Runs the sweep `samples` times, returns the best runs/second and
/// the last pass's outcomes (for the bit-identity cross-check).
fn measure(
    rounds: u64,
    seeds: u64,
    workers: usize,
    reuse: bool,
    samples: usize,
) -> (f64, Vec<RunOutcome>) {
    let mut best = 0.0f64;
    let mut last = Vec::new();
    for _ in 0..samples {
        let t0 = Instant::now();
        let outcomes = sweep_for(rounds, seeds, workers, reuse)
            .run()
            .expect("sweep runs");
        let dt = t0.elapsed().as_secs_f64();
        best = best.max(outcomes.len() as f64 / dt);
        last = outcomes;
    }
    (best, last)
}

/// One (shape, workers) measurement: fresh vs reused.
struct Point {
    workers: usize,
    fresh: f64,
    reused: f64,
}

struct ShapeResult {
    name: &'static str,
    rounds: u64,
    seeds: u64,
    points: Vec<Point>,
}

impl ShapeResult {
    fn best_speedup(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.reused / p.fresh)
            .fold(0.0, f64::max)
    }
}

fn run_shape(name: &'static str, rounds: u64, seeds: u64, samples: usize) -> ShapeResult {
    let mut points = Vec::new();
    for &workers in &WORKERS {
        let (fresh, cold_outcomes) = measure(rounds, seeds, workers, false, samples);
        let (reused, warm_outcomes) = measure(rounds, seeds, workers, true, samples);
        // Engine reuse must be invisible in the results: outcome-for-
        // outcome identical regret, loads and job order.
        assert_eq!(cold_outcomes.len(), warm_outcomes.len());
        for (a, b) in cold_outcomes.iter().zip(&warm_outcomes) {
            assert_eq!(a.index, b.index, "{name}: job order diverged");
            assert_eq!(
                (a.final_regret, &a.final_loads, a.summary.total_regret()),
                (b.final_regret, &b.final_loads, b.summary.total_regret()),
                "{name}: reused engine diverged from fresh at job {}",
                a.index
            );
        }
        points.push(Point {
            workers,
            fresh,
            reused,
        });
    }
    ShapeResult {
        name,
        rounds,
        seeds,
        points,
    }
}

fn ensemble_throughput(_c: &mut Criterion) {
    // 4 grid points × seeds = total runs per sweep.
    let (paper_seeds, churn_seeds, samples) = if quick() {
        (32u64, 64u64, 2usize)
    } else {
        (256u64, 256u64, 2usize)
    };
    let shapes = [
        run_shape("paper", 200, paper_seeds, samples),
        run_shape("churn", 2, churn_seeds, samples),
    ];

    println!("\nbenchmark group: sweep_ensemble_throughput (n = 400, k = 2, 4 grid points)");
    let mut table = antalloc_bench::Table::new(
        "perf_sweep_ensemble",
        &[
            "shape",
            "rounds",
            "workers",
            "fresh_runs_per_sec",
            "reused_runs_per_sec",
            "speedup",
        ],
    );
    for shape in &shapes {
        for p in &shape.points {
            table.row(vec![
                shape.name.into(),
                shape.rounds.to_string(),
                p.workers.to_string(),
                format!("{:.1}", p.fresh),
                format!("{:.1}", p.reused),
                format!("{:.2}", p.reused / p.fresh),
            ]);
        }
    }
    table.finish();

    let shapes_json: Vec<String> = shapes
        .iter()
        .map(|shape| {
            let curve: Vec<String> = shape
                .points
                .iter()
                .map(|p| {
                    format!(
                        "        \"workers_{}\": {{ \"fresh_runs_per_sec\": {:.1}, \
                         \"reused_runs_per_sec\": {:.1}, \"speedup\": {:.3} }}",
                        p.workers,
                        p.fresh,
                        p.reused,
                        p.reused / p.fresh,
                    )
                })
                .collect();
            format!(
                "    \"{}\": {{\n      \"n\": 400,\n      \"tasks\": 2,\n      \
                 \"rounds\": {},\n      \"grid_points\": 4,\n      \"seeds\": {},\n      \
                 \"total_runs\": {},\n      \"workers\": {{\n{}\n      }},\n      \
                 \"speedup_best\": {:.3}\n    }}",
                shape.name,
                shape.rounds,
                shape.seeds,
                4 * shape.seeds,
                curve.join(",\n"),
                shape.best_speedup(),
            )
        })
        .collect();
    let path = antalloc_bench::out_dir().join("BENCH_sweep.json");
    let mut out = std::fs::File::create(&path).expect("create BENCH_sweep.json");
    writeln!(
        out,
        "{{\n  \"bench\": \"perf_sweep/ensemble_throughput\",\n  \"quick\": {},\n  \
         \"guards\": {{ \"churn_min_speedup\": {CHURN_MIN_SPEEDUP}, \
         \"paper_min_speedup\": {PAPER_MIN_SPEEDUP} }},\n  \"shapes\": {{\n{}\n  }}\n}}",
        quick(),
        shapes_json.join(",\n"),
    )
    .expect("write BENCH_sweep.json");
    println!("  [json: {}]", path.display());

    // Regression guards. On the setup-bound churn shape engine reuse
    // must win (best point over the worker curve at least matches
    // fresh builds); on the run-dominated paper shape it buys little,
    // but it must never cost.
    for shape in &shapes {
        let best = shape.best_speedup();
        assert!(
            best.is_finite() && best > 0.0,
            "{}: nonsensical speedup {best}",
            shape.name
        );
        let min = match shape.name {
            "churn" => CHURN_MIN_SPEEDUP,
            _ => PAPER_MIN_SPEEDUP,
        };
        assert!(
            best >= min,
            "{}: engine reuse peaks at {best:.2}x fresh-build throughput, below the \
             {min}x guard",
            shape.name
        );
    }
}

criterion_group!(benches, ensemble_throughput);
criterion_main!(benches);
