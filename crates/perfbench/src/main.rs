//! The antalloc benchmark: one command, three workloads, end-to-end
//! metrics by default and per-layer metrics with `--trace 1`.
//!
//! ```text
//! perfbench --workload <wellmixed_mix|arena_shocks|sweep_store>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process, as a closed
//! loop on at most 2 threads, generates its inputs from `--seed`, checks
//! every output it times, prints a human-readable report on lines
//! starting with `#`, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See README.md beside this crate for what each metric measures.

#![forbid(unsafe_code)]
// A benchmark exists to read the wall clock (the main workspace's
// clippy.toml bans it in simulation code; this crate is not on that path).
#![allow(clippy::disallowed_methods)]

mod calib;
mod colony;
mod probes;
mod scenarios;
mod stats;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use antalloc_sim::{Scenario, SimConfig};
use stats::Summary;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["wellmixed_mix", "arena_shocks", "sweep_store"];

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ant_rounds_per_s", "1/s"),
    ("ant_rounds_per_s_2t", "1/s"),
    ("replay_ant_rounds_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("rng.derive_ns_per_ant", "ns"),
    ("noise.prepare_us", "us"),
    ("noise.stochastic_row_share", "ratio"),
    ("core.kernel_ns_per_ant.ant", "ns"),
    ("core.kernel_ns_per_ant.precise_sigmoid", "ns"),
    ("core.kernel_ns_per_ant.proportional", "ns"),
    ("core.kernel_ns_per_ant.exact_greedy", "ns"),
    ("core.kernel_share", "ratio"),
    ("env.timeline_compile_ms", "ms"),
    ("env.events_fired", "count"),
    ("env.triggers_fired", "count"),
    ("sim.build_ms", "ms"),
    ("sim.reset_us", "us"),
    ("sim.round_p99_ms", "ms"),
    ("sim.quiet_round_ms", "ms"),
    ("sim.event_round_ms", "ms"),
    ("sim.arena_vs_wellmixed", "ratio"),
    ("sim.pooled_speedup_2t", "ratio"),
    ("sim.pooled_segments", "count"),
    ("sim.serial_fallback_rounds", "count"),
    ("sim.unattributed_share", "ratio"),
    ("checkpoint.capture_us", "us"),
    ("checkpoint.encode_us", "us"),
    ("checkpoint.decode_us", "us"),
    ("checkpoint.restore_us", "us"),
    ("checkpoint.bytes", "bytes"),
    ("scenario.parse_us", "us"),
    ("scenario.canonical_toml_us", "us"),
    ("store.fingerprint_us", "us"),
    ("store.save_us", "us"),
    ("store.load_us", "us"),
    ("store.disk_save_us", "us"),
    ("store.disk_load_us", "us"),
    ("store.bytes_written", "bytes"),
    ("store.served", "count"),
    ("store.recomputed", "count"),
    ("store.cold_served", "count"),
    ("store.hit_ratio", "ratio"),
    ("sweep.job_us.p50", "us"),
    ("sweep.job_us.p99", "us"),
    ("sweep.overhead_share", "ratio"),
    ("sweep.scaling_2w", "ratio"),
    ("trace.overhead", "ratio"),
];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, Option<Summary>)>,
    /// Correctness checks made.
    pub attempted: u64,
    /// Checks that found a mismatch or an error.
    pub failed: u64,
    /// Extra human-readable lines (digests, derived rates).
    pub notes: Vec<String>,
}

impl Report {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// Records a metric as a single measured value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value, None));
    }

    /// Records a metric as the median of `samples`.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        let s = stats::summarize(samples);
        self.metrics.push((name, s.median, Some(s)));
    }

    fn get(&self, name: &str) -> Option<(f64, Option<Summary>)> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, s)| (v, s))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Scratch space inside the working directory for store roots and the
/// span dump; removed again before exit except for the span dump.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

fn parse_scenario(text: &str) -> Result<SimConfig, String> {
    Scenario::from_toml(text)
        .map(|s| s.config)
        .map_err(|e| e.to_string())
}

fn run_workload(
    args: &Args,
    tracer: Option<&mut trace::Tracer>,
    report: &mut Report,
) -> Result<(), String> {
    let seed = args.seed;
    let is_sweep = args.workload == "sweep_store";
    let text = match args.workload.as_str() {
        "wellmixed_mix" => scenarios::wellmixed_mix(seed),
        "arena_shocks" => scenarios::arena_shocks(seed),
        _ => scenarios::sweep_base(seed),
    };
    let cfg = parse_scenario(&text)?;
    let Some(tracer) = tracer else {
        // Set-up: scenario text to a built engine (plus the store open
        // and the grid prechecks of a zero-job sweep for sweep_store).
        // The loops below call this between blocks or passes, so the
        // samples spread over the whole run, each after the previous
        // set-up's engine was dropped.
        let mut setup_s = Vec::new();
        let mut calib = calib::Calibrator::new();
        let mut setup = |reps: usize| -> Result<(), String> {
            let scale = calib.time_scale();
            for _ in 0..reps {
                let t0 = Instant::now();
                let cfg = parse_scenario(&text)?;
                let engine = cfg.try_build().map_err(|e| e.to_string())?;
                if is_sweep {
                    sweep::Shape::sweep_store(cfg, seed)
                        .sweep(1)
                        .store(sweep::Archive::default().open())
                        .seeds(std::iter::empty())
                        .run()
                        .map_err(|e| e.to_string())?;
                }
                setup_s.push(t0.elapsed().as_secs_f64() * scale);
                drop(engine);
            }
            Ok(())
        };
        if is_sweep {
            sweep::run_e2e(
                &sweep::Shape::sweep_store(cfg, seed),
                args.seconds,
                &mut setup,
                report,
            )?;
        } else {
            colony::run_e2e(&cfg, args.seconds, &mut setup, report)?;
        }
        report.set_median("setup_s", &setup_s);
        return Ok(());
    };

    let window = colony::traced_window(&cfg, tracer, report)?;
    let mut spare = cfg.try_build().map_err(|e| e.to_string())?;
    probes::layer_probes(&text, &cfg, &mut spare, tracer, report)?;
    drop(spare);
    let shape = if is_sweep {
        sweep::Shape::sweep_store(cfg, seed)
    } else {
        sweep::Shape::probe_of(&cfg)
    };
    let sweep = sweep::sweep_layers(&shape, tracer, report)?;
    // Overhead on the workload's headline throughput: cold-pass runs
    // for the sweep, serial ant-rounds for a colony.
    let (plain, traced) = if is_sweep { sweep } else { window };
    report.set("trace.overhead", 1.0 - traced / plain);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = args.trace.then(trace::Tracer::new);
    let mut report = Report::default();
    let run = run_workload(&args, tracer.as_mut(), &mut report);
    let _ = std::fs::remove_dir(scratch_dir());
    if let Err(e) = run {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    let expected: &[(&str, &str)] = if args.trace {
        &PER_LAYER
    } else {
        report.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
        &END_TO_END
    };
    if let Some(t) = &tracer {
        let path = scratch_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match t.write_jsonl(&path) {
            Ok(()) => report
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => report.check(false, || format!("writing {}: {e}", path.display())),
        }
    }

    println!(
        "# workload {} seed {} ({} mode)",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "end-to-end" }
    );
    let mut entries = Vec::new();
    for &(name, unit) in expected {
        let Some((value, detail)) = report.get(name).filter(|(v, _)| v.is_finite()) else {
            eprintln!("perfbench: {} measured no number for {name}", args.workload);
            return ExitCode::FAILURE;
        };
        match detail {
            Some(s) => println!(
                "# {name} = {value:.6e} {unit} (median of {}; q1 {:.6e}, q3 {:.6e})",
                s.count, s.q1, s.q3
            ),
            None => println!("# {name} = {value:.6e} {unit}"),
        }
        entries.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for note in &report.notes {
        println!("# {note}");
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "# checks: {} attempted, {} failed (failed_frac {failed_frac})",
        report.attempted, report.failed
    );
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        entries.join(", ")
    );
    ExitCode::SUCCESS
}
