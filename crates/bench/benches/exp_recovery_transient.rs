//! REC — regret transients after scripted shocks, all controllers.
//!
//! The paper's headline claim is *self-stabilization* (Theorem 3.1,
//! §6): the §4 Ant algorithm recovers from arbitrary states, population
//! changes and drifting demands. Related swarm work (Balachandran–
//! Harasha–Lynch 2024; Silva–Edwards–Hsieh 2022) evaluates exactly this
//! scenario class: scripted shocks, then the recovery transient.
//!
//! One declarative timeline scripts the whole experiment — kill-half →
//! demand step → scramble — and a labeled `Sweep` axis races every
//! controller kind through it under the batch runner, 8 seeds each.
//! For each shock the table reports the transient window (avg regret
//! right after the shock) against the settled window (just before the
//! *next* shock): self-stabilizing controllers show transient ≫ settled
//! with settled back near the static bound.
//!
//! `PERF_QUICK=1` shrinks the colony and the horizon for CI; the table
//! lands in `target/experiments/exp_recovery_transient.csv` (uploaded
//! by the `perf-smoke` job next to `BENCH_engine.json`).

use antalloc_bench::{banner, fmt, perf_quick as quick, Table};
use antalloc_core::{AntParams, ExactGreedyParams, PreciseSigmoidParams};
use antalloc_sim::{ControllerSpec, Scenario, Sweep};

fn main() {
    banner(
        "REC",
        "recovery transients: kill-half → demand step → scramble, all controllers",
        "each shock's transient decays back to the static steady band \
         (self-stabilization); fragile baselines stay elevated",
    );

    // Block length B: a shock fires at the start of blocks 2, 3, 4.
    let (n, block) = if quick() {
        (1600usize, 600u64)
    } else {
        (6000, 3000)
    };
    let window = block / 4;
    let kill = n / 2;
    let d1 = n as u64 / 8; // demands sum to n/4 before the step
    let d2 = n as u64 / 10;
    let scenario_toml = format!(
        r#"
name = "recovery-transient"
n = {n}
demands = [{d1}, {d1}]
seed = 3212

[controller]
kind = "ant"
gamma = 0.0625

[noise]
kind = "sigmoid"
lambda = 2.0

[[timeline]]
at = {kill_at}
kind = "kill"
count = {kill}

[[timeline]]
at = {step_at}
kind = "set-demands"
demands = [{d2}, {d1}]

[[timeline]]
at = {scramble_at}
kind = "scramble"
"#,
        kill_at = block + 1,
        step_at = 2 * block + 1,
        scramble_at = 3 * block + 1,
    );
    let scenario = Scenario::from_toml(&scenario_toml).expect("shock scenario validates");

    let controllers: Vec<(&str, ControllerSpec)> = vec![
        ("ant", ControllerSpec::Ant(AntParams::new(1.0 / 16.0))),
        (
            "ant-desync",
            ControllerSpec::AntDesync(AntParams::new(1.0 / 16.0)),
        ),
        (
            "precise-sigmoid",
            ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.05, 0.5)),
        ),
        (
            "exact-greedy",
            ControllerSpec::ExactGreedy(ExactGreedyParams::default()),
        ),
        ("trivial", ControllerSpec::Trivial),
    ];

    // Measurement windows, all driven by the same scripted run: the
    // transient right after each shock and the settled window at the
    // end of the block (just before the next shock).
    let shocks: [(&str, u64); 3] = [
        ("kill half", block + 1),
        ("demand step", 2 * block + 1),
        ("scramble", 3 * block + 1),
    ];

    let mut table = Table::new(
        "exp_recovery_transient",
        &[
            "controller",
            "shock",
            "transient avg regret",
            "settled avg regret",
            "max |r| in transient",
        ],
    );

    for (shock_name, at) in shocks {
        // Two batched sweeps per shock: the transient window starting
        // at the shock round, and the settled window ending the block.
        // Each window re-simulates from round 0 (warmup = window
        // start) — deliberately: every table cell is then bit-identical
        // to a standalone axis-less `Sweep` run of that window, at the
        // cost of ~4× redundant warmup rounds over an observer that
        // bins one long run (the pattern `exp_dynamic_demands` uses).
        let sweep = |warmup: u64, rounds: u64| {
            Sweep::new(scenario.config.clone())
                .axis_labeled("controller", controllers.clone(), |cfg, spec| {
                    cfg.controller = spec.clone();
                })
                .seeds(0..8)
                .warmup(warmup)
                .rounds(rounds)
                .run()
                .expect("sweep runs")
        };
        let transient = sweep(at - 1, window);
        let settled = sweep(at - 1 + block - window, window);
        for (c, (label, _)) in controllers.iter().enumerate() {
            let avg = |outcomes: &[antalloc_sim::RunOutcome]| {
                let runs = &outcomes[c * 8..(c + 1) * 8];
                let avg = runs.iter().map(|o| o.summary.average_regret()).sum::<f64>()
                    / runs.len() as f64;
                let max = runs
                    .iter()
                    .map(|o| o.summary.max_instant_regret())
                    .max()
                    .unwrap_or(0);
                (avg, max)
            };
            let (t_avg, t_max) = avg(&transient);
            let (s_avg, _) = avg(&settled);
            table.row(vec![
                label.to_string(),
                shock_name.to_string(),
                fmt(t_avg),
                fmt(s_avg),
                fmt(t_max as f64),
            ]);
        }
    }
    table.finish();
    println!(
        "\nshape check: for self-stabilizing controllers every settled column \
         returns to the\nstatic band while the transient column spikes with the shock."
    );
}
