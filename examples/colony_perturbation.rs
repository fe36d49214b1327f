//! Shock therapy: kill a third of the colony, scramble the rest, and
//! watch Algorithm Ant recover — Theorem 3.1's "arbitrary initial
//! allocation" premise exercised as scripted shocks.
//!
//! ```text
//! cargo run --release -p colony-examples --example colony_perturbation
//! ```
//!
//! The whole shock sequence lives in the config as a [`Timeline`]: the
//! engine fires each event at the start of its round, drawing from
//! reserved per-round RNG streams, so the identical run replays from a
//! scenario file, a checkpoint, or inside a `Sweep` — no imperative
//! `engine.perturb(..)` stepping logic in sight.

use antalloc_core::AntParams;
use antalloc_env::{Event, Timeline};
use antalloc_noise::NoiseModel;
use antalloc_sim::{ControllerSpec, FnObserver, RoundRecord, SimConfig};

fn main() {
    // One block per shock: settle 4000 rounds, shock, repeat.
    let block = 4000u64;
    let shocks: [(&str, Event); 4] = [
        ("kill 3000 random ants", Event::Kill { count: 3000 }),
        ("spawn 3000 fresh idle ants", Event::Spawn { count: 3000 }),
        ("scramble every assignment", Event::Scramble),
        ("stampede onto task 0", Event::StampedeTo(0)),
    ];
    let mut timeline = Timeline::new();
    for (i, (_, event)) in shocks.iter().enumerate() {
        timeline = timeline.at((i as u64 + 1) * block + 1, event.clone());
    }

    let config = SimConfig::builder(9000, vec![900, 1300, 800])
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
        .seed(0xBEE)
        .timeline(timeline)
        .build()
        .expect("valid scenario");

    // The scenario is pure data — print it as the TOML you would check
    // into an experiment directory.
    println!("--- scenario ---------------------------------------------------");
    print!("{}", config.to_toml());
    println!("----------------------------------------------------------------\n");

    let mut engine = config.build();
    let shock_rounds: Vec<u64> = (1..=shocks.len() as u64).map(|i| i * block + 1).collect();
    let mut window = (0u128, 0u64); // regret accumulator per block tail
    let mut obs = FnObserver::new(|r: &RoundRecord<'_>| {
        let block_pos = (r.round - 1) % block;
        if block_pos >= block / 2 {
            window.0 += u128::from(r.instant_regret());
            window.1 += 1;
        }
        if let Some(i) = shock_rounds.iter().position(|&at| at == r.round) {
            let n: u64 = r.idle + r.loads.iter().map(|&w| u64::from(w)).sum::<u64>();
            println!(
                ">>> {:<28} n = {n:<5} regret spikes to {}",
                shocks[i].0,
                r.instant_regret()
            );
        }
        if block_pos == block - 1 {
            println!(
                "    settled: avg regret {:.0} over the block's second half",
                window.0 as f64 / window.1.max(1) as f64
            );
            window = (0, 0);
        }
    });
    engine.run((shocks.len() as u64 + 1) * block, &mut obs);

    let c = engine.colony();
    let loads: Vec<u64> = (0..c.num_tasks()).map(|j| c.load(j)).collect();
    println!(
        "\nfinal state: n = {}, loads = {loads:?} vs demands {:?}, regret = {}",
        c.num_ants(),
        c.demands().as_slice(),
        c.instant_regret()
    );
    println!("every shock absorbed; the timeline is the experiment.");
}
