//! Self-stabilization live: demands jump mid-run, the colony re-converges.
//!
//! The paper (§2.1, §6): "our results trivially extend to changing
//! demands due to the self-stabilizing nature of our algorithms."
//!
//! ```text
//! cargo run --release -p colony-examples --example demand_shift
//! ```

use antalloc_core::AntParams;
use antalloc_env::Event;
use antalloc_metrics::SaturationDetector;
use antalloc_noise::NoiseModel;
use antalloc_sim::{ControllerSpec, FnObserver, SimConfig};

fn main() {
    let gamma = 1.0 / 16.0;
    // Demand changes are ordinary timeline events (`set-demands` in
    // scenario files).
    let config = SimConfig::builder(6000, vec![800, 1200])
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(ControllerSpec::Ant(AntParams::new(gamma)))
        .seed(42)
        // At round 4000 the environment flips the two demands; at 8000
        // both shrink (a "cold snap": less foraging needed).
        .event(4000, Event::SetDemands(vec![1200, 800]))
        .event(8000, Event::SetDemands(vec![500, 500]))
        .build()
        .expect("valid scenario");

    let mut engine = config.build();
    let mut detector = SaturationDetector::new(gamma, 0.25, 50);
    println!(
        "{:>6} {:>8} {:>8} {:>8} {:>9}",
        "round", "W(0)", "W(1)", "regret", "event"
    );

    let mut obs = FnObserver::new(|r: &antalloc_sim::RoundRecord<'_>| {
        detector.record(r.round, r.loads, r.demands);
        let event = match r.round {
            4000 => "demands flip!",
            8000 => "demands shrink!",
            _ => "",
        };
        if r.round.is_multiple_of(500) || !event.is_empty() {
            println!(
                "{:>6} {:>8} {:>8} {:>8} {:>9}",
                r.round,
                r.loads[0],
                r.loads[1],
                r.instant_regret(),
                event
            );
        }
    });
    engine.run(12_000, &mut obs);

    println!(
        "\nstabilized within 25% band at round {:?} (saturated fraction {:.2})",
        detector.stabilized_at(),
        detector.saturated_fraction()
    );
}
