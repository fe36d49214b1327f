//! Shared harness for the experiment benches.
//!
//! Every figure and theorem-level claim of the paper has a `harness =
//! false` bench target in this crate; `cargo bench --workspace`
//! regenerates all of them. Each experiment prints an aligned text
//! table with a `paper` column next to `measured`, and mirrors the
//! table to `target/experiments/<name>.csv`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write as _;
use std::path::PathBuf;

use antalloc_sim::{BasicObserver, NullObserver, RunOutcome, SimConfig, SyncEngine};

/// Prints the experiment banner: id, title and the paper's claim.
pub fn banner(id: &str, title: &str, claim: &str) {
    println!("\n================================================================");
    println!("{id}: {title}");
    println!("paper claim: {claim}");
    println!("================================================================");
}

/// Where experiment CSVs land (`target/experiments`).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// An aligned text table that also saves itself as CSV.
pub struct Table {
    name: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table named `name` (used for the CSV filename).
    pub fn new(name: &str, headers: &[&str]) -> Self {
        Self {
            name: name.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Prints aligned and writes `target/experiments/<name>.csv`.
    pub fn finish(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let body: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("  {}", body.join("  "));
        };
        line(&self.headers);
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(&rule);
        for row in &self.rows {
            line(row);
        }

        let path = out_dir().join(format!("{}.csv", self.name));
        let mut out =
            std::io::BufWriter::new(std::fs::File::create(&path).expect("create experiment csv"));
        writeln!(out, "{}", self.headers.join(",")).unwrap();
        for row in &self.rows {
            writeln!(out, "{}", row.join(",")).unwrap();
        }
        println!("  [csv: {}]", path.display());
    }
}

/// Steady-state measurement of one configuration.
pub struct Measured {
    /// Average regret per post-warmup round.
    pub avg_regret: f64,
    /// Standard error of the per-round regret mean.
    pub regret_sem: f64,
    /// Largest instantaneous regret in the measurement window.
    pub max_regret: f64,
    /// Mean assignment changes per ant per round.
    pub switches_per_ant_round: f64,
    /// Fraction of (round, task) pairs violating `|Δ| ≤ 5γd`.
    pub violation_fraction: f64,
    /// The engine, for further inspection.
    pub engine: SyncEngine,
}

/// Runs `warmup` rounds unobserved, then `measure` rounds under a
/// [`BasicObserver`] with the given γ (for the regret decomposition).
pub fn steady_state(cfg: &SimConfig, gamma: f64, warmup: u64, measure: u64) -> Measured {
    let threads = worker_threads();
    let mut engine = cfg.build();
    let mut sink = NullObserver;
    engine.run_parallel(warmup, threads, &mut sink);
    let mut obs = BasicObserver::new(gamma, 2.5, 0);
    engine.run_parallel(measure, threads, &mut obs);
    let b = obs.regret.breakdown();
    let n = engine.colony().num_ants();
    let k = engine.colony().num_tasks();
    Measured {
        avg_regret: b.average(),
        regret_sem: obs.instant.sem(),
        max_regret: obs.instant.max(),
        switches_per_ant_round: obs.switches.per_ant_round(n),
        violation_fraction: b.deficit_bound_violations as f64 / (b.rounds as f64 * k as f64),
        engine,
    }
}

/// Whether `PERF_QUICK` asks for a CI-sized run (`0`/empty = off).
/// Shared by every bench that scales its workload down for the
/// `perf-smoke` job.
// disallowed_methods: PERF_QUICK only scales workload size; it cannot
// change any simulated trajectory (audit.toml relaxes bench too).
#[allow(clippy::disallowed_methods)]
pub fn perf_quick() -> bool {
    std::env::var("PERF_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Worker threads for the parallel engine, capped at 8.
///
/// On boxes with ≤ 2 hardware threads the coordinator+worker pair
/// contends with itself and the serial path wins, so this returns 1
/// there (the engine's own small-colony fallback also applies).
pub fn worker_threads() -> usize {
    let hw = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);
    if hw <= 2 {
        1
    } else {
        hw.min(8)
    }
}

/// Renders [`Sweep`](antalloc_sim::Sweep) outcomes as a [`Table`]: one
/// row per run, one column per sweep axis, plus the standard regret
/// aggregates. Call [`Table::finish`] on the result to print and mirror
/// it to CSV.
pub fn batch_table(name: &str, outcomes: &[RunOutcome]) -> Table {
    let axis_names: Vec<String> = outcomes
        .first()
        .map(|o| o.params.iter().map(|(n, _)| n.clone()).collect())
        .unwrap_or_default();
    let mut headers: Vec<&str> = vec!["seed"];
    headers.extend(axis_names.iter().map(String::as_str));
    headers.extend(["rounds", "avg regret", "max regret", "final regret"]);
    let mut table = Table::new(name, &headers);
    for o in outcomes {
        let mut row = vec![o.seed.to_string()];
        row.extend(o.params.iter().map(|(_, v)| match v {
            antalloc_sim::AxisValue::Float(x) => fmt(*x),
            antalloc_sim::AxisValue::Text(s) => s.clone(),
        }));
        row.extend([
            o.rounds.to_string(),
            fmt(o.summary.average_regret()),
            fmt(o.summary.max_instant_regret() as f64),
            o.final_regret.to_string(),
        ]);
        table.row(row);
    }
    table
}

/// Compact float formatting for tables: 4 significant-ish digits.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 10_000.0 || x.abs() < 0.01 {
        format!("{x:.3e}")
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(123.456), "123.5");
        assert_eq!(fmt(1.23456), "1.235");
        assert!(fmt(1.0e6).contains('e'));
        assert!(fmt(0.0001).contains('e'));
    }

    #[test]
    fn batch_table_shapes_rows_from_outcomes() {
        let config = SimConfig::builder(100, vec![20]).build().unwrap();
        let outcomes = antalloc_sim::Sweep::new(config)
            .axis("lambda", [1.0, 2.0], |cfg, lambda| {
                cfg.noise = antalloc_noise::NoiseModel::Sigmoid { lambda };
            })
            .seeds([3, 4])
            .rounds(20)
            .threads(2)
            .run()
            .unwrap();
        let table = batch_table("batch_table_test", &outcomes);
        assert_eq!(table.headers.len(), 1 + 1 + 4);
        assert_eq!(table.rows.len(), 4);
        assert_eq!(table.rows[0][0], "3");
        assert_eq!(table.rows[1][0], "4");
    }

    #[test]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("test_table", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.row(vec!["1".into()]);
        }));
        assert!(result.is_err());
    }
}
