//! Engine-side arena runtime: the per-id position columns and the
//! per-round sensing and movement that turn an [`ArenaConfig`] into a
//! [`SensedRound`].
//!
//! Positions are [`Positions`] columns indexed by colony id, like the
//! task column. A round's sensing setup is O(rows), never O(n): the
//! coordinator adds the site rows to the round's prepared feedback
//! ([`PreparedRound::localize`]: one row per site plus a trailing
//! all-`Overload` row travelers sense), and every participant wraps
//! them with the shared columns in an [`ArenaRound`]. Masked entries
//! are [`antalloc_noise::TaskFeedback::Fixed`] and consume zero RNG
//! draws, so an ant's stream position never depends on where it stands.
//!
//! Movement happens inside the kernel pass: the fused driver moves each
//! ant right after writing its next assignment. Its travel counter
//! ticks down; if it is now settled and idle it flips the wander coin
//! and, on success, departs for a uniformly chosen *other* site. Ant
//! `id`'s coin and destination in round `t` come from
//! `AntRng::keyed(key, id)`, `key` being [`arena_seeder`]'s round key
//! for `t`, so a move is a pure function of `(seed, round, id)` and the
//! ant's own state — the same on every stepping path, whichever
//! participant makes it. There is no wander pass, no lock and no O(n)
//! step outside the kernels. Working ants never move — an ant can only
//! join a task whose feedback it senses, i.e. a task at its own site,
//! so "working ants stand at their task's site" is an invariant
//! maintained by construction (and re-imposed wholesale by
//! [`ArenaState::sync_to_colony`] after scrambles and restores).
//! Spawns, kills, scrambles and restores change the columns in the
//! coordinator's exclusive window.

use antalloc_env::{ArenaConfig, ArenaRound, Assignment, ColonyState, Positions, SensedRound};
use antalloc_noise::PreparedRound;
use antalloc_rng::{reserved, StreamSeeder};

/// The sub-seeder arena wander draws derive from: a pure function of
/// the master seed, keyed per round ([`StreamSeeder::round_key`]) and
/// then per ant, so movement replays bit-identically on every stepping
/// path.
pub(crate) fn arena_seeder(seed: u64) -> StreamSeeder {
    StreamSeeder::new(StreamSeeder::new(seed).stream(reserved::ARENA).next_u64())
}

/// Live spatial state for one engine: the geometry, where every ant
/// stands and how long each traveler has left.
pub(crate) struct ArenaState {
    config: ArenaConfig,
    num_sites: usize,
    /// Site and transit rounds per ant, by colony id.
    positions: Positions,
    /// Wander randomness, keyed per round and ant.
    seeder: StreamSeeder,
}

impl ArenaState {
    /// Builds the runtime for `n` ants, everyone settled at site
    /// `i % num_sites` (callers follow up with
    /// [`ArenaState::sync_to_colony`] once assignments exist).
    pub(crate) fn new(config: &ArenaConfig, n: usize, seed: u64) -> Self {
        let mut state = Self {
            config: config.clone(),
            num_sites: config.num_sites(),
            positions: Positions::default(),
            seeder: arena_seeder(seed),
        };
        state.reset(config, n, seed);
        state
    }

    /// Rebuilds to the state [`ArenaState::new`] would produce, reusing
    /// the column allocations (the engine-reuse path).
    pub(crate) fn reset(&mut self, config: &ArenaConfig, n: usize, seed: u64) {
        self.configure(config, seed);
        self.positions.clear();
        self.positions.reserve(n);
        for _ in 0..n {
            self.spawn();
        }
    }

    /// Rebuilds from checkpointed position columns, reusing the column
    /// allocations. Site indices must already be validated against the
    /// geometry (checkpoint decode does).
    pub(crate) fn restore(
        &mut self,
        config: &ArenaConfig,
        seed: u64,
        site: &[u16],
        travel: &[u32],
    ) {
        self.configure(config, seed);
        debug_assert!(site.iter().all(|&s| usize::from(s) < self.num_sites.max(1)));
        self.positions.assign(site, travel);
    }

    /// Adopts `config`'s geometry and `seed`'s wander stream, leaving
    /// the columns to the caller.
    fn configure(&mut self, config: &ArenaConfig, seed: u64) {
        self.config.clone_from(config);
        self.num_sites = config.num_sites();
        self.seeder = arena_seeder(seed);
    }

    pub(crate) fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the geometry degenerates to the shared well-mixed view
    /// (one site; sensing and wandering are skipped entirely).
    #[inline]
    pub(crate) fn is_single_site(&self) -> bool {
        self.num_sites <= 1
    }

    /// Snaps every *working* ant to its task's site (settled); idle ants
    /// keep their position and travel state. Call after anything that
    /// rewrites assignments wholesale: initial configs, scrambles,
    /// stampedes, checkpoint restore.
    pub(crate) fn sync_to_colony(&mut self, colony: &ColonyState) {
        let n = colony.num_ants();
        while self.positions.len() < n {
            self.spawn();
        }
        self.positions.truncate(n);
        for i in 0..n {
            if let Assignment::Task(j) = colony.assignment(i) {
                // audit:allow(cast): u32 → usize widening (usize ≥ 32 bits on supported targets).
                let s = self.config.site_of(j as usize) as usize;
                self.positions.settle(i, s);
            }
        }
    }

    /// Mirrors one removal of `Population::remove_batch` (swap-remove of
    /// colony id `i`).
    pub(crate) fn remove(&mut self, i: usize) {
        self.positions.swap_remove(i);
    }

    /// Mirrors `Population::spawn`: the new ant lands settled at its
    /// home site, `id % num_sites` (a pure function of its colony id,
    /// so spawns are stepping-path independent).
    pub(crate) fn spawn(&mut self) {
        let home = self.positions.len() % self.num_sites.max(1);
        self.positions.push(home, 0);
    }

    /// Adds this geometry's site rows to `prepared` (O(rows)). No-op
    /// for single-site geometries, which sense the shared view.
    pub(crate) fn localize(&self, prepared: &mut PreparedRound) {
        if !self.is_single_site() {
            prepared.localize(&self.config.site_of_task);
        }
    }

    /// The sensed view of the round `prepared` describes: the shared
    /// well-mixed view for single-site geometries, otherwise per-site
    /// rows plus this round's movement over the shared columns.
    /// `prepared` must have been passed to [`ArenaState::localize`].
    pub(crate) fn sensed<'a>(&'a self, prepared: &'a PreparedRound) -> SensedRound<'a> {
        if self.is_single_site() {
            SensedRound::Shared(prepared.view())
        } else {
            let key = self.seeder.round_key(prepared.round());
            SensedRound::Arena(ArenaRound::new(
                &self.config,
                &self.positions,
                prepared,
                key,
            ))
        }
    }

    /// Per-ant site column, id order (checkpointing).
    pub(crate) fn site(&self) -> Vec<u16> {
        self.positions.sites().collect()
    }

    /// Per-ant travel column, id order (checkpointing).
    pub(crate) fn travel(&self) -> Vec<u32> {
        self.positions.travels().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ControllerSpec, SimConfig};
    use crate::observer::NullObserver;
    use antalloc_core::AntParams;
    use antalloc_env::{DemandVector, TaskColumn};
    use antalloc_noise::NoiseModel;
    use antalloc_rng::{uniform_index, AntRng, Bernoulli};

    fn two_site_config() -> ArenaConfig {
        ArenaConfig {
            site_of_task: vec![0, 1],
            travel_rounds: 2,
            wander_probability: 1.0,
        }
    }

    /// Round `round`'s feedback (every task lacking, exactly) with
    /// `a`'s site rows.
    fn prepared(a: &ArenaState, round: u64) -> PreparedRound {
        let k = a.config.site_of_task.len();
        let mut prepared = NoiseModel::Exact.prepare(round, &vec![1; k], &vec![10; k]);
        a.localize(&mut prepared);
        prepared
    }

    /// One round's movement as the fused driver makes it, without the
    /// kernels: every ant in `ids` senses, then moves with the idleness
    /// `tasks` gives it.
    fn move_round(a: &ArenaState, round: u64, tasks: &TaskColumn, ids: impl Iterator<Item = u32>) {
        let prepared = prepared(a, round);
        let SensedRound::Arena(arena) = a.sensed(&prepared) else {
            return;
        };
        for id in ids {
            let (from, _) = arena.sense(id);
            arena.advance(id, from, tasks.load(id) == Assignment::SLOT_IDLE);
        }
    }

    fn move_all(a: &ArenaState, round: u64, tasks: &TaskColumn) {
        move_round(a, round, tasks, 0..a.len() as u32);
    }

    #[test]
    fn rows_mask_non_local_tasks_as_fixed_overload() {
        let a = ArenaState::new(&two_site_config(), 4, 7);
        let prep = prepared(&a, 1);
        let SensedRound::Arena(sensed) = a.sensed(&prep) else {
            panic!("a two-site arena senses per site");
        };
        // Ant 0 sits at site 0: task 0 real, task 1 masked.
        let mut rng = AntRng::seed_from_u64(0);
        let v0 = sensed.sense(0).1;
        assert!(v0.sample(0, &mut rng).is_lack());
        assert!(!v0.sample(1, &mut rng).is_lack());
        // Ant 1 sits at site 1: mirrored.
        let v1 = sensed.sense(1).1;
        assert!(!v1.sample(0, &mut rng).is_lack());
        assert!(v1.sample(1, &mut rng).is_lack());
    }

    #[test]
    fn travelers_sense_nothing_and_arrive_on_schedule() {
        let a = ArenaState::new(&two_site_config(), 2, 3);
        let idle = TaskColumn::new(2);
        move_all(&a, 1, &idle); // p = 1: both ants depart, travel = 2.
        assert!(a.travel().iter().all(|&t| t == 2));
        let prep = prepared(&a, 2);
        let SensedRound::Arena(sensed) = a.sensed(&prep) else {
            panic!("a two-site arena senses per site");
        };
        let mut rng = AntRng::seed_from_u64(0);
        for ant in 0..2 {
            let v = sensed.sense(ant).1;
            assert!(!v.sample(0, &mut rng).is_lack());
            assert!(!v.sample(1, &mut rng).is_lack());
        }
        // Travelers are not eligible to wander; counters tick down.
        move_all(&a, 2, &idle);
        assert!(a.travel().iter().all(|&t| t == 1));
        move_all(&a, 3, &idle); // arrive (1 -> 0) and immediately re-wander (p = 1).
        assert!(a.travel().iter().all(|&t| t == 2));
    }

    #[test]
    fn working_ants_never_wander_and_single_site_is_inert() {
        let a = ArenaState::new(&two_site_config(), 2, 3);
        let tasks = TaskColumn::new(2);
        tasks.store(0, 0); // ant 0 works; ant 1 idle.
        let before = a.site()[0];
        move_all(&a, 1, &tasks);
        assert_eq!(a.site()[0], before);
        assert_eq!(a.travel()[0], 0);
        assert_eq!(a.travel()[1], 2); // the idle ant departed (p = 1).

        let single = ArenaState::new(&ArenaConfig::single_site(2), 2, 3);
        assert!(single.is_single_site());
        let prep = prepared(&single, 1);
        assert!(matches!(single.sensed(&prep), SensedRound::Shared(_)));
    }

    #[test]
    fn sync_snaps_workers_and_spawn_remove_mirror_population() {
        let cfg = ArenaConfig {
            site_of_task: vec![0, 1, 2],
            travel_rounds: 0,
            wander_probability: 0.5,
        };
        let mut a = ArenaState::new(&cfg, 3, 9);
        assert_eq!(a.site(), &[0, 1, 2]);
        let mut colony = ColonyState::new(3, DemandVector::new(vec![5, 5, 5]));
        colony.apply(0, Assignment::Task(2));
        a.sync_to_colony(&colony);
        assert_eq!(a.site()[0], 2); // snapped to task 2's site
        a.spawn();
        assert_eq!(a.len(), 4);
        assert_eq!(a.site()[3], 0); // home site of id 3
        a.remove(0); // swap-remove: last ant slides into slot 0
        assert_eq!(a.site(), &[0, 1, 2]);
    }

    #[test]
    fn restore_and_reset_rebuild_the_columns() {
        let cfg = ArenaConfig {
            site_of_task: vec![0, 1, 2],
            travel_rounds: 3,
            wander_probability: 1.0,
        };
        let mut a = ArenaState::new(&cfg, 6, 1);
        move_all(&a, 1, &TaskColumn::new(6)); // everyone departs
        assert!(a.travel().iter().all(|&t| t == 3));
        a.restore(&cfg, 1, &[0, 2, 1], &[0, 3, 0]);
        assert_eq!(a.site(), vec![0, 2, 1]);
        assert_eq!(a.travel(), vec![0, 3, 0]);
        a.reset(&cfg, 4, 1);
        assert_eq!(a.site(), vec![0, 1, 2, 0]);
        assert_eq!(a.travel(), vec![0; 4]);
    }

    /// The move of one ant, written out from the model: its travel
    /// counter ticks down; settled and idle, it flips the wander coin
    /// and on success departs for a uniformly chosen other site, all
    /// drawn from `AntRng::keyed(key, id)`.
    fn reference_move(
        (site, travel): (u32, u32),
        cfg: &ArenaConfig,
        key: u64,
        id: u32,
        idle: bool,
    ) -> (u32, u32) {
        let travel = travel.saturating_sub(1);
        let wander = Bernoulli::new(cfg.wander_probability);
        if travel > 0 || !idle || wander.never() {
            return (site, travel);
        }
        let mut rng = AntRng::keyed(key, u64::from(id));
        if !wander.sample(&mut rng) {
            return (site, travel);
        }
        let pick = uniform_index(&mut rng, cfg.num_sites() - 1) as u32;
        (pick + u32::from(pick >= site), cfg.travel_rounds)
    }

    #[test]
    fn fused_move_matches_the_per_ant_reference() {
        // Through the engine's own kernel pass, serial and pooled at 3:
        // every ant's position after a round is the reference move from
        // its position before, given its decision.
        for sites in 2..=4u32 {
            for travel_rounds in [0, 2] {
                for p in [0.0, 0.02, 0.5, 1.0] {
                    let arena = ArenaConfig {
                        site_of_task: (0..=sites).map(|j| j % sites).collect(),
                        travel_rounds,
                        wander_probability: p,
                    };
                    let k = arena.site_of_task.len();
                    let seed = u64::from(sites) * 100 + u64::from(travel_rounds);
                    let cfg = SimConfig::builder(1_200, vec![150; k])
                        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
                        .controller(ControllerSpec::Mix(vec![
                            (1.0, ControllerSpec::Ant(AntParams::default())),
                            (1.0, ControllerSpec::ExactGreedy(Default::default())),
                        ]))
                        .arena(arena.clone())
                        .seed(seed)
                        .build()
                        .expect("valid scenario");
                    let mut engine = cfg.build();
                    let seeder = arena_seeder(seed);
                    for round in 1..=6u64 {
                        let a = engine.arena().expect("an arena engine");
                        let before: Vec<(u32, u32)> = a
                            .site()
                            .into_iter()
                            .map(u32::from)
                            .zip(a.travel())
                            .collect();
                        if round % 2 == 0 {
                            engine.run_parallel_forced(1, 3, &mut NullObserver);
                        } else {
                            engine.run(1, &mut NullObserver);
                        }
                        let key = seeder.round_key(round);
                        let expected: Vec<(u32, u32)> = before
                            .iter()
                            .zip(engine.colony().assignments())
                            .enumerate()
                            .map(|(id, (&pos, task))| {
                                reference_move(pos, &arena, key, id as u32, task.is_idle())
                            })
                            .collect();
                        let a = engine.arena().expect("an arena engine");
                        let after: Vec<(u32, u32)> = a
                            .site()
                            .into_iter()
                            .map(u32::from)
                            .zip(a.travel())
                            .collect();
                        assert_eq!(
                            after, expected,
                            "sites {sites}, travel {travel_rounds}, p {p}, round {round}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn moves_are_keyed_per_ant_not_by_order_or_other_ants() {
        let cfg = ArenaConfig {
            site_of_task: vec![0, 1, 2],
            travel_rounds: 1,
            wander_probability: 0.5,
        };
        let (n, seed) = (300, 11);
        // Any visiting order moves every ant alike.
        let (forward, backward) = (
            ArenaState::new(&cfg, n, seed),
            ArenaState::new(&cfg, n, seed),
        );
        let idle = TaskColumn::new(n);
        for round in 1..=4 {
            move_round(&forward, round, &idle, 0..n as u32);
            move_round(&backward, round, &idle, (0..n as u32).rev());
        }
        assert_eq!(forward.site(), backward.site());
        assert_eq!(forward.travel(), backward.travel());

        // Kills and spawns of other ants leave a survivor's moves
        // unchanged: every ant a kill did not relocate keeps its id,
        // so its draws.
        let whole = ArenaState::new(&cfg, n, seed);
        let mut shocked = ArenaState::new(&cfg, n, seed);
        let mut origin: Vec<usize> = (0..n).collect();
        for victim in [17, 250, 120, 296, 3] {
            shocked.remove(victim);
            origin.swap_remove(victim);
        }
        for _ in 0..40 {
            shocked.spawn();
        }
        let survivors: Vec<usize> = (0..origin.len()).filter(|&id| origin[id] == id).collect();
        assert!(survivors.len() >= n - 10);
        let (whole_idle, shocked_idle) = (TaskColumn::new(n), TaskColumn::new(shocked.len()));
        let mut moved = 0;
        for round in 1..=5 {
            let before = whole.site();
            move_all(&whole, round, &whole_idle);
            move_all(&shocked, round, &shocked_idle);
            let (w, s) = (
                (whole.site(), whole.travel()),
                (shocked.site(), shocked.travel()),
            );
            for &id in &survivors {
                assert_eq!(
                    (w.0[id], w.1[id]),
                    (s.0[id], s.1[id]),
                    "ant {id}, round {round}"
                );
                moved += usize::from(w.0[id] != before[id]);
            }
        }
        assert!(moved > 0, "nobody moved: the check shows nothing");
    }
}
