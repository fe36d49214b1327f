//! Engine-side arena runtime: per-ant position, travel and sense
//! columns plus the per-round sense rows that turn an [`ArenaConfig`]
//! into a [`SensedRound`].
//!
//! The layout is SoA like everything else in the engine: three `Vec`s
//! in global ant order (`site`, `travel`, `sense_of`) and
//! `(num_sites + 1) · k` [`TaskFeedback`] rows rebuilt per round (one
//! row per site plus a trailing all-`Overload` row travelers sense).
//! `sense_of` is not rebuilt per round: every mutator of `site` or
//! `travel` keeps it equal to "`site` if settled, else the blind row"
//! in the loop it already runs, so a round's sensing setup is O(k),
//! not O(n). Masked entries are [`TaskFeedback::Fixed`] and consume
//! zero RNG draws, so an ant's stream position never depends on where
//! it stands — the bit-identity contract survives untouched.
//!
//! Movement is resolved in the coordinator's exclusive window (right
//! after the round's deltas merge), on the reserved `ARENA` stream keyed
//! per round, in global ant order: every ant's travel counter ticks
//! down, then every idle settled ant flips the wander coin and, on
//! success, departs for a uniformly chosen *other* site. The pass walks
//! the colony in fixed-size blocks, each in two sweeps: a branch-free
//! one that ticks counters, refreshes sense rows and marks the eligible
//! ants (the colony's packed idle mask ANDed with "settled"), then one
//! that draws coins (and sites) for the marked ants alone. Eligibility
//! depends only on an ant's own state and draws happen in global order,
//! so this consumes the stream exactly as one per-ant loop would.
//! Working ants never move — an ant can only join a task whose feedback
//! it senses, i.e. a task at its own site, so "working ants stand at
//! their task's site" is an invariant maintained by construction (and
//! re-imposed wholesale by [`ArenaState::sync_to_colony`] after
//! scrambles and restores).

use antalloc_env::{ArenaConfig, Assignment, ColonyState};
use antalloc_noise::{Feedback, PreparedRound, SensedRound, TaskFeedback};
use antalloc_rng::{reserved, uniform_index, AntRng, Bernoulli, StreamSeeder};

/// The sub-seeder arena wander draws derive from: a pure function of
/// the master seed, keyed per round, so movement replays bit-identically
/// on every stepping path.
pub(crate) fn arena_seeder(seed: u64) -> StreamSeeder {
    StreamSeeder::new(StreamSeeder::new(seed).stream(reserved::ARENA).next_u64())
}

/// Ants per wander block, a multiple of 64: one block's eligibility
/// bitmask lives on the stack (128 bytes), so the pass adds no O(n)
/// scratch.
const WANDER_BLOCK: usize = 1024;

/// The row an ant senses: its site once settled, the blind row while
/// traveling.
#[inline(always)]
fn sense_row(site: u32, travel: u32, blind: u32) -> u32 {
    if travel > 0 {
        blind
    } else {
        site
    }
}

/// Live spatial state for one engine: where every ant stands, how long
/// each traveler has left, which row each ant senses, and the reusable
/// sense-row buffer.
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
    /// Per-ant row index into `rows`: `sense_row(site, travel, blind)`,
    /// maintained by every mutator of `site` and `travel`.
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
        state.reset(config, n, seed);
        state
    }

    /// Rebuilds to the state [`ArenaState::new`] would produce, reusing
    /// the column allocations (the engine-reuse path).
    pub(crate) fn reset(&mut self, config: &ArenaConfig, n: usize, seed: u64) {
        self.configure(config, seed);
        self.site.clear();
        self.travel.clear();
        self.sense_of.clear();
        self.site.reserve(n);
        self.travel.reserve(n);
        self.sense_of.reserve(n);
        for _ in 0..n {
            self.spawn();
        }
        debug_assert!(self.sense_consistent());
    }

    /// Rebuilds from checkpointed position columns, reusing the column
    /// allocations. Site indices must already be validated against the
    /// geometry.
    pub(crate) fn restore(
        &mut self,
        config: &ArenaConfig,
        seed: u64,
        site: &[u32],
        travel: &[u32],
    ) {
        self.configure(config, seed);
        debug_assert_eq!(site.len(), travel.len());
        // audit:allow(cast): u32 → usize widening (usize ≥ 32 bits on supported targets).
        debug_assert!(site.iter().all(|&s| (s as usize) < self.num_sites.max(1)));
        let blind = self.blind();
        self.site.clear();
        self.site.extend_from_slice(site);
        self.travel.clear();
        self.travel.extend_from_slice(travel);
        self.sense_of.clear();
        self.sense_of.extend(
            site.iter()
                .zip(travel)
                .map(|(&s, &t)| sense_row(s, t, blind)),
        );
        debug_assert!(self.sense_consistent());
    }

    /// Adopts `config`'s geometry and `seed`'s wander stream, leaving
    /// the columns to the caller.
    fn configure(&mut self, config: &ArenaConfig, seed: u64) {
        self.config.clone_from(config);
        self.num_sites = config.num_sites();
        self.seeder = arena_seeder(seed);
        self.wander = Bernoulli::new(config.wander_probability);
    }

    /// The deterministic spawn/initial site for global index `i`.
    #[inline]
    fn home_site(i: usize, num_sites: usize) -> u32 {
        // audit:allow(cast): the remainder is < num_sites, which validation bounds by the task count (≤ MAX_TASKS, far below 2^32).
        (i % num_sites.max(1)) as u32
    }

    /// The trailing all-`Overload` row travelers sense.
    #[inline]
    fn blind(&self) -> u32 {
        // audit:allow(cast): validation bounds num_sites by the task count (≤ MAX_TASKS, far below 2^32).
        self.num_sites as u32
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
            self.spawn();
        }
        self.site.truncate(n);
        self.travel.truncate(n);
        self.sense_of.truncate(n);
        for i in 0..n {
            if let Assignment::Task(j) = colony.assignment(i) {
                // audit:allow(cast): u32 → usize widening (usize ≥ 32 bits on supported targets).
                let s = self.config.site_of(j as usize);
                self.site[i] = s;
                self.travel[i] = 0;
                self.sense_of[i] = s;
            }
        }
        debug_assert!(self.sense_consistent());
    }

    /// Mirrors one removal of `Population::remove_batch` (swap-remove of
    /// global slot `i`).
    pub(crate) fn remove(&mut self, i: usize) {
        self.site.swap_remove(i);
        self.travel.swap_remove(i);
        self.sense_of.swap_remove(i);
        debug_assert!(self.sense_consistent());
    }

    /// Mirrors `Population::spawn`: the new ant lands settled at its
    /// home site (a pure function of its global index, so spawns are
    /// stepping-path independent).
    pub(crate) fn spawn(&mut self) {
        let home = Self::home_site(self.site.len(), self.num_sites);
        self.site.push(home);
        self.travel.push(0);
        self.sense_of.push(home);
    }

    /// Rebuilds the sense rows for the round described by `prepared`
    /// (the per-ant row indices are already current). No-op for
    /// single-site geometries — the engine hands out
    /// [`SensedRound::shared`] instead.
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
    /// for a uniformly chosen other site. `idle` is the colony's packed
    /// idle mask after the round's deltas merged (bit `i % 64` of word
    /// `i / 64` set iff ant `i` is idle).
    pub(crate) fn wander(&mut self, round: u64, idle: &[u64]) {
        if self.is_single_site() {
            return;
        }
        let mut rng = self.seeder.stream(round);
        self.wander_with(&mut rng, idle);
    }

    /// [`ArenaState::wander`] on an explicit stream, block by block:
    /// a branch-free sweep ticks counters, refreshes sense rows and
    /// marks the block's eligible (idle, settled) ants in a bitmask,
    /// then the coin and site draws run over the marked ants alone, in
    /// ascending order.
    fn wander_with(&mut self, rng: &mut AntRng, idle: &[u64]) {
        debug_assert_eq!(idle.len(), self.site.len().div_ceil(64));
        let blind = self.blind();
        let draws = !self.wander.never();
        let (wander, travel_rounds, num_sites) =
            (self.wander, self.config.travel_rounds, self.num_sites);
        for (((site, travel), sense), idle) in self
            .site
            .chunks_mut(WANDER_BLOCK)
            .zip(self.travel.chunks_mut(WANDER_BLOCK))
            .zip(self.sense_of.chunks_mut(WANDER_BLOCK))
            .zip(idle.chunks(WANDER_BLOCK / 64))
        {
            let mut eligible = [0u64; WANDER_BLOCK / 64];
            for (((travel, site), sense), (mark, &idle)) in travel
                .chunks_mut(64)
                .zip(site.chunks(64))
                .zip(sense.chunks_mut(64))
                .zip(eligible.iter_mut().zip(idle))
            {
                let mut settled = 0u64;
                for (bit, ((t, &s), row)) in travel.iter_mut().zip(site).zip(sense).enumerate() {
                    *t = t.saturating_sub(1);
                    *row = sense_row(s, *t, blind);
                    settled |= u64::from(*t == 0) << bit;
                }
                *mark = settled & idle;
            }
            if !draws {
                continue;
            }
            for (word, &mark) in eligible.iter().enumerate() {
                let mut bits = mark;
                while bits != 0 {
                    let i = word * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if wander.sample(rng) {
                        // audit:allow(cast): the pick is < num_sites − 1, and validation bounds num_sites by the task count (≤ MAX_TASKS).
                        let pick = uniform_index(rng, num_sites - 1) as u32;
                        let s = pick + u32::from(pick >= site[i]);
                        site[i] = s;
                        travel[i] = travel_rounds;
                        sense[i] = sense_row(s, travel_rounds, blind);
                    }
                }
            }
        }
        debug_assert!(self.sense_consistent());
    }

    /// Whether the maintained sense column equals a from-scratch
    /// recompute from `site` and `travel` (debug asserts and tests).
    fn sense_consistent(&self) -> bool {
        let blind = self.blind();
        self.sense_of.len() == self.site.len()
            && self.travel.len() == self.site.len()
            && self
                .site
                .iter()
                .zip(&self.travel)
                .zip(&self.sense_of)
                .all(|((&s, &t), &row)| row == sense_row(s, t, blind))
    }

    /// Per-ant site column, global ant order (checkpointing).
    pub(crate) fn site(&self) -> &[u32] {
        &self.site
    }

    /// Per-ant travel column, global ant order (checkpointing).
    pub(crate) fn travel(&self) -> &[u32] {
        &self.travel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antalloc_env::{DemandVector, TaskColumn};
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
        let mut rng = antalloc_rng::AntRng::seed_from_u64(0);
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
        let idle = [0b11];
        a.wander(1, &idle); // p = 1: both ants depart, travel = 2.
        assert!(a.travel().iter().all(|&t| t == 2));
        let prep = prepared(2);
        a.build_round(&prep);
        let sensed = a.sensed(&prep);
        let mut rng = antalloc_rng::AntRng::seed_from_u64(0);
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
        let idle = [0b10]; // ant 0 works; ant 1 idle.
        let before = a.site()[0];
        a.wander(1, &idle);
        assert_eq!(a.site()[0], before);
        assert_eq!(a.travel()[0], 0);
        assert_eq!(a.travel()[1], 2); // the idle ant departed (p = 1).

        let mut single = ArenaState::new(&ArenaConfig::single_site(2), 2, 3);
        assert!(single.is_single_site());
        single.wander(1, &[0b11]);
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

    /// The single-pass wander the two-pass one replaced, kept as the
    /// reference it must match draw for draw.
    fn wander_reference(
        site: &mut [u32],
        travel: &mut [u32],
        config: &ArenaConfig,
        rng: &mut AntRng,
        assignments: &TaskColumn,
    ) {
        let num_sites = config.num_sites();
        let wander = Bernoulli::new(config.wander_probability);
        for t in travel.iter_mut() {
            *t = t.saturating_sub(1);
        }
        if wander.never() {
            return;
        }
        for i in 0..site.len() {
            if travel[i] > 0 || assignments.load(i as u32) != Assignment::RAW_IDLE {
                continue;
            }
            if wander.sample(rng) {
                let pick = uniform_index(rng, num_sites - 1) as u32;
                site[i] = pick + u32::from(pick >= site[i]);
                travel[i] = config.travel_rounds;
            }
        }
    }

    #[test]
    fn two_pass_wander_matches_the_single_pass_reference() {
        let mut gen = antalloc_rng::AntRng::seed_from_u64(42);
        // Spans two full blocks and a ragged third.
        let n = 2 * WANDER_BLOCK + 333;
        for sites in 2..=4u32 {
            for travel_rounds in [0, 2] {
                for p in [0.0, 0.02, 0.5, 1.0] {
                    let cfg = ArenaConfig {
                        site_of_task: (0..=sites).map(|j| j % sites).collect(),
                        travel_rounds,
                        wander_probability: p,
                    };
                    let k = cfg.site_of_task.len() as u64;
                    let site: Vec<u32> = (0..n)
                        .map(|_| uniform_index(&mut gen, sites as usize) as u32)
                        .collect();
                    let travel: Vec<u32> = (0..n).map(|_| (gen.next_u64() % 4) as u32).collect();
                    let mut a = ArenaState::new(&cfg, 0, 5);
                    a.restore(&cfg, 5, &site, &travel);
                    let (mut ref_site, mut ref_travel) = (site, travel);
                    for round in 1..=5 {
                        let column = TaskColumn::new(n);
                        let mut idle = vec![0u64; n.div_ceil(64)];
                        for i in 0..n {
                            // About half idle, the rest spread over tasks.
                            let draw = gen.next_u64() % (2 * k);
                            if draw < k {
                                column.store(i as u32, draw as u32);
                            } else {
                                idle[i / 64] |= 1 << (i % 64);
                            }
                        }
                        let mut rng = a.seeder.stream(round);
                        let mut ref_rng = rng.clone();
                        a.wander_with(&mut rng, &idle);
                        wander_reference(
                            &mut ref_site,
                            &mut ref_travel,
                            &cfg,
                            &mut ref_rng,
                            &column,
                        );
                        let case =
                            format!("sites {sites}, travel {travel_rounds}, p {p}, round {round}");
                        assert_eq!(a.site(), ref_site.as_slice(), "{case}");
                        assert_eq!(a.travel(), ref_travel.as_slice(), "{case}");
                        assert_eq!(rng, ref_rng, "{case}");
                        assert!(a.sense_consistent(), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn sense_column_tracks_every_mutation() {
        let cfg = ArenaConfig {
            site_of_task: vec![0, 1, 2],
            travel_rounds: 2,
            wander_probability: 1.0,
        };
        let mut a = ArenaState::new(&cfg, 6, 1);
        assert!(a.sense_consistent());
        a.wander(1, &[0b11_1111]); // everyone departs: all blind
        assert!(a.sense_consistent());
        assert!(a.sense_of.iter().all(|&r| r == 3));
        let mut colony = ColonyState::new(6, DemandVector::new(vec![2, 2, 2]));
        colony.apply(4, Assignment::Task(1));
        a.sync_to_colony(&colony); // the worker snaps to site 1, settled
        assert_eq!(a.sense_of[4], 1);
        assert!(a.sense_consistent());
        a.spawn();
        a.remove(2);
        assert!(a.sense_consistent());
        a.restore(&cfg, 1, &[0, 2, 1], &[0, 3, 0]);
        assert_eq!(a.sense_of, vec![0, 3, 1]);
        a.reset(&cfg, 4, 1);
        assert_eq!(a.sense_of, vec![0, 1, 2, 0]);
        assert!(a.sense_consistent());
    }
}
