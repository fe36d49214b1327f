//! DYN — changing demands and population shocks (§2.1 remark, §6).
//!
//! Expected shape: after every demand step / kill / spawn / scramble /
//! stampede the colony re-converges within a transient comparable to
//! the cold-start one (Θ(c_d/γ) phases for the overload direction,
//! faster for lack), and the steady regret between events matches the
//! static bound.
//!
//! Everything dynamic here is declarative: one `Timeline` in the config
//! scripts the whole run (the old version interleaved imperative
//! `engine.perturb(..)` calls with stepping; those are gone).

use antalloc_bench::{banner, fmt, worker_threads, Table};
use antalloc_core::AntParams;
use antalloc_env::{Event, Timeline};
use antalloc_metrics::SaturationDetector;
use antalloc_noise::NoiseModel;
use antalloc_sim::{ControllerSpec, FnObserver, SimConfig};

fn main() {
    banner(
        "DYN",
        "demand schedules and population shocks, scripted as one timeline",
        "self-stabilization: recovery after every event, steady regret \
         per Theorem 3.1 between events",
    );
    let n = 6000usize;
    let gamma = 1.0 / 16.0;
    let lambda = 2.0;

    // Part 1: two demand steps, scripted as timeline events.
    let cfg = SimConfig::builder(n, vec![800, 1200])
        .noise(NoiseModel::Sigmoid { lambda })
        .controller(ControllerSpec::Ant(AntParams::new(gamma)))
        .seed(0xD1A)
        .timeline(
            Timeline::new()
                .at(8_000, Event::SetDemands(vec![1200, 800]))
                .at(16_000, Event::SetDemands(vec![500, 500])),
        )
        .build()
        .expect("valid scenario");
    let mut engine = cfg.build();
    let mut detector = SaturationDetector::new(gamma, 5.0 * gamma, 100);
    let mut events: Vec<(u64, Option<u64>)> = Vec::new();
    let mut last_event = 0u64;
    let mut obs = FnObserver::new(|r: &antalloc_sim::RoundRecord<'_>| {
        if r.round == 8_000 || r.round == 16_000 {
            events.push((last_event, detector.stabilized_at()));
            detector.rearm();
            last_event = r.round;
        }
        detector.record(r.round, r.loads, r.demands);
    });
    engine.run_parallel(24_000, worker_threads(), &mut obs);
    let _ = obs; // closure borrows end here
    events.push((last_event, detector.stabilized_at()));

    let mut table = Table::new(
        "dynamic_demands_schedule",
        &["event at", "stabilized at", "recovery rounds"],
    );
    for (at, stab) in &events {
        table.row(vec![
            at.to_string(),
            stab.map_or("never".into(), |s| s.to_string()),
            stab.map_or("-".into(), |s| (s.saturating_sub(*at)).to_string()),
        ]);
    }
    table.finish();

    // Part 2: population shocks, one per 6000-round block — scripted
    // in the config, so the same run replays from a scenario file or a
    // checkpoint without any bench-side stepping logic.
    println!("\npopulation shocks (steady regret in the last 2000 rounds of each block):");
    let shocks: [(&str, u64, Event); 4] = [
        ("kill 2000 ants", 6_000, Event::Kill { count: 2000 }),
        ("spawn 2000 ants", 12_000, Event::Spawn { count: 2000 }),
        ("scramble all assignments", 18_000, Event::Scramble),
        ("stampede onto task 0", 24_000, Event::StampedeTo(0)),
    ];
    let mut timeline = Timeline::new();
    for (_, at, event) in &shocks {
        timeline = timeline.at(*at, event.clone());
    }
    let cfg = SimConfig::builder(n, vec![800, 1200])
        .noise(NoiseModel::Sigmoid { lambda })
        .controller(ControllerSpec::Ant(AntParams::new(gamma)))
        .seed(0xD1B)
        .timeline(timeline)
        .build()
        .expect("valid scenario");
    let mut engine = cfg.build();
    // Steady windows: the last 2000 rounds before the next shock.
    let windows: Vec<(u64, u64)> = shocks
        .iter()
        .map(|(_, at, _)| (*at + 4000, *at + 6000))
        .collect();
    let mut steady = vec![(0u128, 0u64); windows.len()];
    let mut n_after = vec![0u64; windows.len()];
    let mut obs = FnObserver::new(|r: &antalloc_sim::RoundRecord<'_>| {
        for (i, &(from, to)) in windows.iter().enumerate() {
            if r.round >= from && r.round < to {
                steady[i].0 += u128::from(r.instant_regret());
                steady[i].1 += 1;
            }
            if r.round == to - 1 {
                n_after[i] = r.idle + r.loads.iter().map(|&w| u64::from(w)).sum::<u64>();
            }
        }
    });
    engine.run_parallel(30_000, worker_threads(), &mut obs);
    let _ = obs;

    let bound = 5.0 * gamma * 2000.0 + 3.0;
    let mut t2 = Table::new(
        "dynamic_demands_shocks",
        &[
            "shock",
            "n after",
            "avg regret after recovery",
            "bound 5γΣd+3",
        ],
    );
    for (i, (name, _, _)) in shocks.iter().enumerate() {
        let (total, rounds) = steady[i];
        t2.row(vec![
            name.to_string(),
            n_after[i].to_string(),
            fmt(total as f64 / rounds.max(1) as f64),
            fmt(bound),
        ]);
    }
    t2.finish();
    println!("\nshape check: every shock is absorbed; steady regret returns under the bound.");
}
