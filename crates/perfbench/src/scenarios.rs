//! The workloads' inputs: scenario TOML text generated from the seed.
//!
//! The seed picks the master seed and jitters the demand vector by a
//! few percent; everything else is fixed, so two seeds exercise the
//! same code at the same sizes and differ only in the random draws.

use antalloc_rng::SplitMix64;

/// Colony size of the two colony workloads. Large enough that a round
/// takes milliseconds (so per-round tails are not timer noise) and the
/// pooled path runs 2 workers (it needs 8 000 ants per worker).
pub const COLONY_ANTS: usize = 200_000;

/// Sigmoid steepness of the colony workloads. With `λ·|Δ|` below ~35
/// a task's feedback row stays a random draw; steeper sigmoids at this
/// demand scale would saturate steady-state rows into draw-free fixed
/// feedback and stop measuring the kernels' sampling work.
const COLONY_LAMBDA: f64 = 0.002;

/// The four SoA controller kinds, one quarter of the colony each.
const MIX: &str = r#"[controller]
kind = "mix"
parts = [
    { weight = 1.0, controller = { kind = "ant", gamma = 0.0625 } },
    { weight = 1.0, controller = { kind = "precise-sigmoid", gamma = 0.05, eps = 0.5 } },
    { weight = 1.0, controller = { kind = "proportional", gain = 0.5 } },
    { weight = 1.0, controller = { kind = "exact-greedy" } },
]"#;

/// `k` demands near `share · n / k`, each jittered by up to ±5% from
/// the seed.
fn demands(seed: u64, n: usize, k: usize, share: f64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ 0x005e_edd3_a4d5);
    (0..k)
        .map(|_| {
            let jitter = 0.95 + 0.1 * (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            (share * n as f64 / k as f64 * jitter).round() as u64
        })
        .collect()
}

fn list(values: &[u64]) -> String {
    let items: Vec<String> = values.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(", "))
}

/// Well-mixed mixed colony, no timeline: kernels and the fused commit
/// do nearly all the work.
pub fn wellmixed_mix(seed: u64) -> String {
    let d = demands(seed, COLONY_ANTS, 4, 0.6);
    format!(
        "name = \"wellmixed_mix\"\nn = {COLONY_ANTS}\ndemands = {}\nseed = {seed}\n\n{MIX}\n\n\
         [noise]\nkind = \"sigmoid\"\nlambda = {COLONY_LAMBDA}\n",
        list(&d)
    )
}

/// The same colony in a 4-site arena under a dense shock timeline:
/// Poisson kills, spawns, scrambles and demand steps, a population
/// floor that respawns ants, and per-task deficit triggers.
pub fn arena_shocks(seed: u64) -> String {
    let d = demands(seed, COLONY_ANTS, 4, 0.6);
    // Kills outpace generated spawns, and the population floor refills
    // in small steps, so the colony stays between ~80% and 100% of its
    // initial size: no seed grows it past its first allocation, which
    // keeps peak memory a property of the workload, not of the seed.
    let floor = COLONY_ANTS * 4 / 5;
    let refill = COLONY_ANTS / 20;
    let mut text = format!(
        "name = \"arena_shocks\"\nn = {COLONY_ANTS}\ndemands = {}\nseed = {seed}\n\n{MIX}\n\n\
         [noise]\nkind = \"sigmoid\"\nlambda = {COLONY_LAMBDA}\n\n\
         [arena]\nsites = [0, 1, 2, 3]\ntravel_rounds = 2\nwander_probability = 0.02\n\n\
         [[timeline.generate]]\nkind = \"kill\"\nstart = 2\nuntil = 50000\nmean_gap = 12.0\n\
         min_frac = 0.01\nmax_frac = 0.04\n\n\
         [[timeline.generate]]\nkind = \"spawn\"\nstart = 100\nuntil = 50000\nmean_gap = 15.0\n\
         min_frac = 0.005\nmax_frac = 0.015\n\n\
         [[timeline.generate]]\nkind = \"scramble\"\nstart = 2\nuntil = 50000\nmean_gap = 50.0\n\n\
         [[timeline.generate]]\nkind = \"demand-step\"\nstart = 2\nuntil = 50000\nmean_gap = 30.0\n\
         min_factor = 0.85\nmax_factor = 1.15\n\n\
         [[timeline.trigger]]\nkind = \"spawn\"\ncount = {refill}\n\
         when = {{ kind = \"population-below\", threshold = {floor} }}\ncooldown = 5\nmax_firings = 0\n",
        list(&d)
    );
    for (task, &demand) in d.iter().enumerate() {
        text.push_str(&format!(
            "\n[[timeline.trigger]]\nkind = \"set-task-demand\"\ntask = {task}\ndemand = {}\n\
             when = {{ kind = \"deficit-above\", task = {task}, threshold = {}, for_rounds = 3 }}\n\
             cooldown = 20\nmax_firings = 0\n",
            demand * 9 / 10,
            demand / 20
        ));
    }
    text
}

/// Paper-shape ensemble base: n = 400, k = 2, Algorithm Ant, one demand
/// step after the shared prefix so every run also fires an event.
pub fn sweep_base(seed: u64) -> String {
    let d = demands(seed, 400, 2, 0.5);
    let stepped: Vec<u64> = d.iter().rev().copied().collect();
    format!(
        "name = \"sweep_store\"\nn = 400\ndemands = {}\nseed = {seed}\n\n\
         [controller]\nkind = \"ant\"\ngamma = 0.0625\n\n\
         [noise]\nkind = \"sigmoid\"\nlambda = 2.0\n\n\
         [[timeline]]\nat = {}\nkind = \"set-demands\"\ndemands = {}\n",
        list(&d),
        SWEEP_FROM_ROUND + 10,
        list(&stepped)
    )
}

/// Noise steepness grid of the sweep: `λ` changes nothing before the
/// fork round, so the grid passes the shared-prefix precheck.
pub const SWEEP_LAMBDAS: [f64; 4] = [1.0, 1.5, 2.0, 3.0];
/// Seeds per grid point in one sweep pass.
pub const SWEEP_SEEDS: u64 = 96;
/// Shared prefix every run forks from.
pub const SWEEP_FROM_ROUND: u64 = 20;
/// Rounds each run steps after the fork.
pub const SWEEP_ROUNDS: u64 = 60;
