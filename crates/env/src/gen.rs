//! Seeded shock-schedule generation: Poisson-spaced adversarial
//! timelines drawn from the reserved `TIMELINE` stream.
//!
//! A [`TimelineGen`] describes a *distribution* over shock schedules —
//! exponentially spaced kills, spawns, scrambles or demand steps with
//! configurable magnitude ranges. [`crate::Timeline::compile`] expands
//! every generator into concrete one-shot events as a pure function of
//! `(scenario, master seed)`, so one scenario file plus a seed list
//! yields an adversarial-robustness *ensemble*: every seed sees a
//! different schedule, and every run remains exactly reproducible
//! (including across checkpoint restore, which re-expands identically).

use antalloc_rng::{uniform_f64, AntRng};

use crate::timeline::{Event, TimedEvent};

/// What kind of shock a generator emits, with its magnitude range.
///
/// Magnitudes are *relative to the scenario's initial state* (initial
/// colony size `n`, initial demand vector), so a generator's meaning is
/// independent of when its arrivals happen to land.
#[derive(Clone, Debug, PartialEq)]
pub enum GenShock {
    /// Kill a uniform fraction of the initial colony, drawn from
    /// `[min_frac, max_frac]` per arrival. Kills clamp at runtime so at
    /// least one ant survives (like kills inside cycles, generated
    /// firing counts cannot be tracked statically).
    Kill {
        /// Smallest fraction of the initial `n` to kill (> 0).
        min_frac: f64,
        /// Largest fraction of the initial `n` to kill (≤ 1).
        max_frac: f64,
    },
    /// Spawn a uniform fraction of the initial colony.
    Spawn {
        /// Smallest fraction of the initial `n` to spawn (> 0).
        min_frac: f64,
        /// Largest fraction of the initial `n` to spawn.
        max_frac: f64,
    },
    /// Re-draw every assignment uniformly (no magnitude).
    Scramble,
    /// Replace the demand vector: each task's demand is its *initial*
    /// demand times an independent uniform factor from
    /// `[min_factor, max_factor]`, floored at 1.
    DemandStep {
        /// Smallest per-task multiplier (> 0).
        min_factor: f64,
        /// Largest per-task multiplier.
        max_factor: f64,
    },
}

/// A seeded random shock schedule: arrivals form a discretized Poisson
/// process (i.i.d. exponential gaps of mean `mean_gap`, ceiled to whole
/// rounds) on `[start, until]`, each arrival drawing one [`GenShock`]
/// magnitude.
#[derive(Clone, Debug, PartialEq)]
pub struct TimelineGen {
    /// First round an arrival may land on (≥ 1).
    pub start: u64,
    /// Last round an arrival may land on (inclusive).
    pub until: u64,
    /// Mean rounds between arrivals (finite, ≥ 1).
    pub mean_gap: f64,
    /// The shock each arrival applies.
    pub shock: GenShock,
}

/// Validation ceiling on `(until − start + 1) / mean_gap`: one event is
/// materialized per arrival at compile time, so the expected arrival
/// count must stay small enough that expansion is always cheap.
const MAX_EXPECTED_ARRIVALS: f64 = 1e6;

impl TimelineGen {
    /// Checks the generator's parameters.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.start == 0 {
            return Err("start must be ≥ 1 (rounds are 1-based)".into());
        }
        if self.until < self.start {
            return Err(format!(
                "until ({}) must be ≥ start ({})",
                self.until, self.start
            ));
        }
        if !(self.mean_gap.is_finite() && self.mean_gap >= 1.0) {
            return Err(format!(
                "mean_gap must be finite and ≥ 1 round, got {}",
                self.mean_gap
            ));
        }
        // Bound the expected arrival count: compilation materializes one
        // event per arrival, so `until = u64::MAX` with a small gap
        // would otherwise hang engine construction on a config that
        // passed every other check.
        let expected = ((self.until - self.start) as f64 + 1.0) / self.mean_gap;
        if expected > MAX_EXPECTED_ARRIVALS {
            return Err(format!(
                "window/mean_gap implies ~{expected:.0} arrivals; at most \
                 {MAX_EXPECTED_ARRIVALS:.0} expected arrivals are supported \
                 (shrink the window or raise mean_gap)"
            ));
        }
        let range = |name: &str, lo: f64, hi: f64, cap: Option<f64>| -> Result<(), String> {
            if !(lo.is_finite() && hi.is_finite() && 0.0 < lo && lo <= hi) {
                return Err(format!(
                    "{name} range must satisfy 0 < min ≤ max, got [{lo}, {hi}]"
                ));
            }
            if let Some(cap) = cap {
                if hi > cap {
                    return Err(format!("{name} range must stay ≤ {cap}, got max {hi}"));
                }
            }
            Ok(())
        };
        match &self.shock {
            GenShock::Kill { min_frac, max_frac } => {
                range("kill fraction", *min_frac, *max_frac, Some(1.0))
            }
            GenShock::Spawn { min_frac, max_frac } => {
                range("spawn fraction", *min_frac, *max_frac, None)
            }
            GenShock::Scramble => Ok(()),
            GenShock::DemandStep {
                min_factor,
                max_factor,
            } => range("demand factor", *min_factor, *max_factor, None),
        }
    }

    /// Runs the arrival process: one gap draw per arrival, then
    /// `arrive(rng, round)` draws the arrival's magnitude.
    fn arrivals(&self, rng: &mut AntRng, mut arrive: impl FnMut(&mut AntRng, u64)) {
        // Arrivals at start − 1 + cumulative gaps; gaps are ≥ 1, so the
        // earliest possible arrival is exactly `start`.
        let mut round = self.start.saturating_sub(1);
        loop {
            round = round.saturating_add(exponential_gap(rng, self.mean_gap));
            if round > self.until {
                return;
            }
            arrive(rng, round);
        }
    }

    /// Expands the schedule, appending one-shot events to `out`.
    ///
    /// Draw order per arrival is fixed (gap, then magnitude), so the
    /// expansion is a pure function of the generator, the RNG stream,
    /// and the initial `(n, base_demands)`.
    pub(crate) fn events_into(
        &self,
        rng: &mut AntRng,
        n: usize,
        base_demands: &[u64],
        out: &mut Vec<TimedEvent>,
    ) {
        self.arrivals(rng, |rng, round| {
            let count_in = |rng: &mut AntRng, lo: f64, hi: f64| -> usize {
                let frac = uniform_f64(rng, lo, hi);
                ((n as f64 * frac).round() as usize).max(1)
            };
            let event = match &self.shock {
                GenShock::Kill { min_frac, max_frac } => Event::Kill {
                    count: count_in(rng, *min_frac, *max_frac),
                },
                GenShock::Spawn { min_frac, max_frac } => Event::Spawn {
                    count: count_in(rng, *min_frac, *max_frac),
                },
                GenShock::Scramble => Event::Scramble,
                GenShock::DemandStep {
                    min_factor,
                    max_factor,
                } => Event::SetDemands(
                    base_demands
                        .iter()
                        .map(|&d| {
                            let factor = uniform_f64(rng, *min_factor, *max_factor);
                            ((d as f64 * factor).round() as u64).max(1)
                        })
                        .collect(),
                ),
            };
            out.push(TimedEvent { at: round, event });
        });
    }

    /// The number of events [`TimelineGen::events_into`] appends over
    /// `num_tasks` tasks, replaying the same draws — one per magnitude
    /// (`uniform_f64` draws once) — without building an event.
    pub(crate) fn count_events(&self, rng: &mut AntRng, num_tasks: usize) -> usize {
        let draws = match self.shock {
            GenShock::Kill { .. } | GenShock::Spawn { .. } => 1,
            GenShock::Scramble => 0,
            GenShock::DemandStep { .. } => num_tasks,
        };
        let mut count = 0;
        self.arrivals(rng, |rng, _| {
            for _ in 0..draws {
                rng.next_u64();
            }
            count += 1;
        });
        count
    }
}

/// One exponential inter-arrival gap of the given mean, ceiled to a
/// whole round (≥ 1).
fn exponential_gap(rng: &mut AntRng, mean: f64) -> u64 {
    let u = rng.next_f64(); // in [0, 1), so 1 − u is in (0, 1]
    let gap = -(1.0 - u).ln() * mean;
    (gap.ceil() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use antalloc_rng::AntRng;

    fn expand(gen: &TimelineGen, seed: u64) -> Vec<TimedEvent> {
        let mut rng = AntRng::seed_from_u64(seed);
        let mut out = Vec::new();
        gen.events_into(&mut rng, 1000, &[100, 200], &mut out);
        out
    }

    fn kill_gen(mean_gap: f64) -> TimelineGen {
        TimelineGen {
            start: 1,
            until: 10_000,
            mean_gap,
            shock: GenShock::Kill {
                min_frac: 0.1,
                max_frac: 0.3,
            },
        }
    }

    #[test]
    fn expansion_is_deterministic_and_seed_sensitive() {
        let gen = kill_gen(500.0);
        assert_eq!(expand(&gen, 7), expand(&gen, 7));
        assert_ne!(expand(&gen, 7), expand(&gen, 8));
    }

    #[test]
    fn arrivals_are_sorted_within_window_and_magnitudes_in_range() {
        let gen = kill_gen(200.0);
        let events = expand(&gen, 3);
        assert!(!events.is_empty());
        let mut prev = 0;
        for timed in &events {
            assert!(timed.at >= gen.start && timed.at <= gen.until);
            assert!(timed.at > prev, "gaps are ≥ 1 so rounds strictly increase");
            prev = timed.at;
            let Event::Kill { count } = &timed.event else {
                panic!("kill generator emitted {timed:?}");
            };
            assert!((100..=300).contains(count), "count {count}");
        }
    }

    #[test]
    fn mean_gap_controls_the_arrival_rate() {
        // Over a 10k window, mean gap 100 should give roughly 100
        // arrivals; a loose 3σ band is plenty to catch a broken clock.
        let n = expand(&kill_gen(100.0), 11).len() as f64;
        assert!((60.0..=140.0).contains(&n), "arrivals {n}");
    }

    #[test]
    fn demand_steps_scale_the_initial_demands() {
        let gen = TimelineGen {
            start: 50,
            until: 5_000,
            mean_gap: 300.0,
            shock: GenShock::DemandStep {
                min_factor: 0.5,
                max_factor: 2.0,
            },
        };
        let events = expand(&gen, 5);
        assert!(!events.is_empty());
        for timed in &events {
            let Event::SetDemands(demands) = &timed.event else {
                panic!("demand generator emitted {timed:?}");
            };
            assert_eq!(demands.len(), 2);
            assert!((50..=200).contains(&demands[0]), "{demands:?}");
            assert!((100..=400).contains(&demands[1]), "{demands:?}");
        }
    }

    #[test]
    fn validation_rejects_degenerate_generators() {
        let ok = kill_gen(100.0);
        assert!(ok.validate().is_ok());
        let mut bad = ok.clone();
        bad.start = 0;
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.until = 0;
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.mean_gap = 0.5;
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.mean_gap = f64::INFINITY;
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.shock = GenShock::Kill {
            min_frac: 0.0,
            max_frac: 0.5,
        };
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.shock = GenShock::Kill {
            min_frac: 0.5,
            max_frac: 1.5,
        };
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.shock = GenShock::DemandStep {
            min_factor: 2.0,
            max_factor: 1.0,
        };
        assert!(bad.validate().is_err());
        let mut ok2 = ok;
        ok2.shock = GenShock::Scramble;
        assert!(ok2.validate().is_ok());
    }

    #[test]
    fn validation_bounds_the_expected_arrival_count() {
        // `until = u64::MAX` (the tempting "shocks forever" spelling)
        // must be rejected: compilation materializes one event per
        // arrival, so the expected count is capped.
        let mut gen = kill_gen(100.0);
        gen.until = u64::MAX;
        assert!(gen.validate().unwrap_err().contains("arrivals"));
        let mut gen = kill_gen(1.0);
        gen.until = 2_000_000;
        assert!(gen.validate().is_err());
        // A million-round window at a sane gap stays fine.
        let mut gen = kill_gen(100.0);
        gen.until = 1_000_000;
        assert!(gen.validate().is_ok());
    }
}
