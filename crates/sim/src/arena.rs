//! Engine-side arena runtime: per-ant position and travel columns plus
//! the per-round sense-row construction that turns an
//! [`ArenaConfig`] into a [`SensedRound`].
//!
//! The layout is SoA like everything else in the engine: two `Vec`s in
//! global ant order (`site`, `travel`), rebuilt rows of
//! `(num_sites + 1) · k` [`TaskFeedback`] entries per round (one row
//! per site plus a trailing all-`Overload` row travelers sense), and a
//! per-ant `sense_of` row index. Masked entries are
//! [`TaskFeedback::Fixed`] and consume zero RNG draws, so an ant's
//! stream position never depends on where it stands — the bit-identity
//! contract survives untouched.
//!
//! Movement is resolved in the coordinator's exclusive window (right
//! after the round's deltas merge), on the reserved `ARENA` stream keyed
//! per round, in global ant order: travel counters tick down first,
//! then every idle settled ant flips the wander coin and, on success,
//! departs for a uniformly chosen *other* site. Working ants never
//! move — an ant can only join a task whose feedback it senses, i.e. a
//! task at its own site, so "working ants stand at their task's site"
//! is an invariant maintained by construction (and re-imposed wholesale
//! by [`ArenaState::sync_to_colony`] after scrambles and restores).

use antalloc_env::{ArenaConfig, Assignment, ColonyState, TaskColumn};
use antalloc_noise::{Feedback, PreparedRound, SensedRound, TaskFeedback};
use antalloc_rng::{reserved, uniform_index, Bernoulli, StreamSeeder};

/// The sub-seeder arena wander draws derive from: a pure function of
/// the master seed, keyed per round, so movement replays bit-identically
/// on every stepping path.
pub(crate) fn arena_seeder(seed: u64) -> StreamSeeder {
    StreamSeeder::new(StreamSeeder::new(seed).stream(reserved::ARENA).next_u64())
}

/// Live spatial state for one engine: where every ant stands, how long
/// each traveler has left, and the reusable sense-row buffers.
pub(crate) struct ArenaState {
    config: ArenaConfig,
    num_sites: usize,
    /// Current (or destination, while traveling) site per ant.
    site: Vec<u32>,
    /// Rounds of transit remaining per ant; 0 = settled.
    travel: Vec<u32>,
    /// `(num_sites + 1) · k` sense rows rebuilt each round; row `s`
    /// holds task `j`'s real feedback iff `site_of_task[j] == s`, the
    /// trailing row is all-`Overload` for travelers.
    rows: Vec<TaskFeedback>,
    /// Per-ant row index into `rows`.
    sense_of: Vec<u32>,
    /// Wander randomness, keyed per round.
    seeder: StreamSeeder,
    wander: Bernoulli,
}

impl ArenaState {
    /// Builds the runtime for `n` ants, everyone settled at site
    /// `i % num_sites` (callers follow up with
    /// [`ArenaState::sync_to_colony`] once assignments exist).
    pub(crate) fn new(config: &ArenaConfig, n: usize, seed: u64) -> Self {
        let num_sites = config.num_sites();
        let mut state = Self {
            config: config.clone(),
            num_sites,
            site: Vec::new(),
            travel: Vec::new(),
            rows: Vec::new(),
            sense_of: Vec::new(),
            seeder: arena_seeder(seed),
            wander: Bernoulli::new(config.wander_probability),
        };
        state.reset(n);
        state
    }

    /// Rebuilds to the fresh-engine state for `n` ants, reusing
    /// allocations (the engine-reuse path).
    pub(crate) fn reset(&mut self, n: usize) {
        self.site.clear();
        self.travel.clear();
        for i in 0..n {
            self.site.push(Self::home_site(i, self.num_sites));
            self.travel.push(0);
        }
    }

    /// The deterministic spawn/initial site for global index `i`.
    #[inline]
    fn home_site(i: usize, num_sites: usize) -> u32 {
        // audit:allow(cast): the remainder is < num_sites, which validation bounds by the task count (≤ MAX_TASKS, far below 2^32).
        (i % num_sites.max(1)) as u32
    }

    pub(crate) fn len(&self) -> usize {
        self.site.len()
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
        while self.site.len() < n {
            self.site
                .push(Self::home_site(self.site.len(), self.num_sites));
            self.travel.push(0);
        }
        self.site.truncate(n);
        self.travel.truncate(n);
        for i in 0..n {
            if let Assignment::Task(j) = colony.assignment(i) {
                // audit:allow(cast): u32 → usize widening (usize ≥ 32 bits on supported targets).
                self.site[i] = self.config.site_of(j as usize);
                self.travel[i] = 0;
            }
        }
    }

    /// Mirrors `Population::remove` (swap-remove of global slot `i`).
    pub(crate) fn remove(&mut self, i: usize) {
        self.site.swap_remove(i);
        self.travel.swap_remove(i);
    }

    /// Mirrors `Population::spawn`: the new ant lands settled at its
    /// home site (a pure function of its global index, so spawns are
    /// stepping-path independent).
    pub(crate) fn spawn(&mut self) {
        self.site
            .push(Self::home_site(self.site.len(), self.num_sites));
        self.travel.push(0);
    }

    /// Rebuilds the sense rows and per-ant row indices for the round
    /// described by `prepared`. No-op for single-site geometries — the
    /// engine hands out [`SensedRound::shared`] instead.
    pub(crate) fn build_round(&mut self, prepared: &PreparedRound) {
        if self.is_single_site() {
            return;
        }
        let k = prepared.num_tasks();
        let masked = TaskFeedback::Fixed(Feedback::Overload);
        self.rows.clear();
        self.rows.resize((self.num_sites + 1) * k, masked);
        for (j, &feedback) in prepared.tasks().iter().enumerate() {
            // audit:allow(cast): u32 → usize widening (usize ≥ 32 bits on supported targets).
            let s = self.config.site_of(j) as usize;
            self.rows[s * k + j] = feedback;
        }
        // audit:allow(cast): validation bounds num_sites by the task count (≤ MAX_TASKS, far below 2^32).
        let blind = self.num_sites as u32;
        self.sense_of.clear();
        self.sense_of.extend(
            self.site
                .iter()
                .zip(&self.travel)
                .map(|(&s, &t)| if t > 0 { blind } else { s }),
        );
    }

    /// The sensed view of this round: the shared well-mixed view for
    /// single-site geometries, per-site rows otherwise. Call after
    /// [`ArenaState::build_round`].
    pub(crate) fn sensed<'a>(&'a self, prepared: &'a PreparedRound) -> SensedRound<'a> {
        if self.is_single_site() {
            SensedRound::shared(prepared)
        } else {
            SensedRound::from_parts(
                &self.rows,
                &self.sense_of,
                prepared.num_tasks(),
                prepared.round(),
            )
        }
    }

    /// The end-of-round movement pass: travel counters tick down, then
    /// every idle settled ant flips the wander coin (reserved `ARENA`
    /// stream keyed by `round`, global ant order) and on success departs
    /// for a uniformly chosen other site. `assignments` is the
    /// just-committed authoritative column.
    pub(crate) fn wander(&mut self, round: u64, assignments: &TaskColumn) {
        if self.is_single_site() {
            return;
        }
        for t in &mut self.travel {
            *t = t.saturating_sub(1);
        }
        if self.wander.never() {
            return;
        }
        let mut rng = self.seeder.stream(round);
        for i in 0..self.site.len() {
            // audit:allow(cast): ant slot indices are < the colony size, which the u32 assignment columns already bound below 2^32.
            if self.travel[i] > 0 || assignments.load(i as u32) != Assignment::RAW_IDLE {
                continue;
            }
            if self.wander.sample(&mut rng) {
                // audit:allow(cast): the pick is < num_sites − 1, and validation bounds num_sites by the task count (≤ MAX_TASKS).
                let pick = uniform_index(&mut rng, self.num_sites - 1) as u32;
                self.site[i] = pick + u32::from(pick >= self.site[i]);
                self.travel[i] = self.config.travel_rounds;
            }
        }
    }

    /// Per-ant site column, global ant order (checkpointing).
    pub(crate) fn site(&self) -> &[u32] {
        &self.site
    }

    /// Per-ant travel column, global ant order (checkpointing).
    pub(crate) fn travel(&self) -> &[u32] {
        &self.travel
    }

    /// Restores the position columns from a checkpoint. Site indices
    /// must already be validated against the geometry.
    pub(crate) fn set_columns(&mut self, site: &[u32], travel: &[u32]) {
        debug_assert_eq!(site.len(), travel.len());
        // audit:allow(cast): u32 → usize widening (usize ≥ 32 bits on supported targets).
        debug_assert!(site.iter().all(|&s| (s as usize) < self.num_sites.max(1)));
        self.site.clear();
        self.site.extend_from_slice(site);
        self.travel.clear();
        self.travel.extend_from_slice(travel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antalloc_env::DemandVector;
    use antalloc_noise::NoiseModel;

    fn two_site_config() -> ArenaConfig {
        ArenaConfig {
            site_of_task: vec![0, 1],
            travel_rounds: 2,
            wander_probability: 1.0,
        }
    }

    fn prepared(k: usize) -> PreparedRound {
        NoiseModel::Exact.prepare(1, &vec![1; k], &vec![10; k])
    }

    #[test]
    fn rows_mask_non_local_tasks_as_fixed_overload() {
        let mut a = ArenaState::new(&two_site_config(), 4, 7);
        let prep = prepared(2);
        a.build_round(&prep);
        let sensed = a.sensed(&prep);
        assert!(sensed.shared_view().is_none());
        // Ant 0 sits at site 0: task 0 real, task 1 masked.
        let mut rng = antalloc_rng::Xoshiro256pp::seed_from_u64(0);
        let v0 = sensed.view_for(0);
        assert!(v0.sample(0, &mut rng).is_lack());
        assert!(!v0.sample(1, &mut rng).is_lack());
        // Ant 1 sits at site 1: mirrored.
        let v1 = sensed.view_for(1);
        assert!(!v1.sample(0, &mut rng).is_lack());
        assert!(v1.sample(1, &mut rng).is_lack());
    }

    #[test]
    fn travelers_sense_nothing_and_arrive_on_schedule() {
        let mut a = ArenaState::new(&two_site_config(), 2, 3);
        let idle = TaskColumn::new(2);
        a.wander(1, &idle); // p = 1: both ants depart, travel = 2.
        assert!(a.travel().iter().all(|&t| t == 2));
        let prep = prepared(2);
        a.build_round(&prep);
        let sensed = a.sensed(&prep);
        let mut rng = antalloc_rng::Xoshiro256pp::seed_from_u64(0);
        for ant in 0..2 {
            let v = sensed.view_for(ant);
            assert!(!v.sample(0, &mut rng).is_lack());
            assert!(!v.sample(1, &mut rng).is_lack());
        }
        // Travelers are not eligible to wander; counters tick down.
        a.wander(2, &idle);
        assert!(a.travel().iter().all(|&t| t == 1));
        a.wander(3, &idle); // arrive (1 -> 0) and immediately re-wander (p = 1).
        assert!(a.travel().iter().all(|&t| t == 2));
    }

    #[test]
    fn working_ants_never_wander_and_single_site_is_inert() {
        let mut a = ArenaState::new(&two_site_config(), 2, 3);
        let column = TaskColumn::new(2);
        column.store(0, 1); // ant 0 works task 1; ant 1 idle.
        let before = a.site()[0];
        a.wander(1, &column);
        assert_eq!(a.site()[0], before);
        assert_eq!(a.travel()[0], 0);
        assert_eq!(a.travel()[1], 2); // the idle ant departed (p = 1).

        let mut single = ArenaState::new(&ArenaConfig::single_site(2), 2, 3);
        assert!(single.is_single_site());
        single.wander(1, &TaskColumn::new(2));
        assert!(single.travel().iter().all(|&t| t == 0));
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
        assert_eq!(a.site()[3], 0); // home site of global index 3
        a.remove(0); // swap-remove: last ant slides into slot 0
        assert_eq!(a.site(), &[0, 1, 2]);
    }
}
