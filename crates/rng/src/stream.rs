//! Stream derivation.
//!
//! Each engine subsystem gets its own [`AntRng`] stream derived from
//! `(master_seed, stream_id)`, and each round gets a key from which
//! every ant's stream for that round is built ([`AntRng::keyed`]).
//! Because both derivations are pure functions of their inputs, the
//! simulation is reproducible no matter how ants are sharded across
//! threads, and a checkpoint stores no per-ant generator state at all.

use crate::splitmix::mix;
use crate::wyrand::AntRng;

/// Derives independent generator streams from a single master seed.
///
/// ```
/// use antalloc_rng::StreamSeeder;
/// let seeder = StreamSeeder::new(0xfeed);
/// let mut ant0 = seeder.stream(0);
/// let mut ant1 = seeder.stream(1);
/// assert_ne!(ant0.next_u64(), ant1.next_u64());
/// // Same pair, same stream:
/// assert_eq!(
///     seeder.stream(0).next_u64(),
///     {
///         let mut g = StreamSeeder::new(0xfeed).stream(0);
///         g.next_u64()
///     }
/// );
/// ```
#[derive(Clone, Copy, Debug)]
pub struct StreamSeeder {
    master: u64,
}

/// Reserved stream ids for engine subsystems, far above any ant index so
/// the two namespaces cannot collide (ants are indexed from 0).
pub mod reserved {
    /// Sequential-model scheduling: which ant acts each round.
    pub const ENGINE: u64 = u64::MAX;
    // `u64::MAX - 1` named a noise stream nothing drew from. It stays
    // unassigned: renumbering the ids below it would change their bits.
    /// Initial-configuration scrambling and imperative perturbations
    /// (`SyncEngine::perturb`).
    pub const INIT: u64 = u64::MAX - 2;
    /// Mixed-colony membership: the stream whose first output re-seeds
    /// the dedicated sub-seeder that assigns ants to controller
    /// sub-specs (initial shuffle and spawn draws).
    pub const MIX: u64 = u64::MAX - 3;
    /// Timeline events: the stream whose first output re-seeds the
    /// dedicated sub-seeder that hands each event round its own
    /// generator (a pure function of `(master seed, round)`, so
    /// scripted shocks replay bit-identically across serial, parallel
    /// and checkpoint-restored runs).
    pub const EVENT: u64 = u64::MAX - 4;
    /// Timeline *generation*: the stream whose first output re-seeds
    /// the dedicated sub-seeder that hands each shock-schedule
    /// generator its own generator (a pure function of
    /// `(master seed, generator index)`, so a generated timeline is
    /// fully determined by the scenario plus the seed and re-expands
    /// identically on checkpoint restore).
    pub const TIMELINE: u64 = u64::MAX - 5;
    /// Spatial-arena movement: the stream whose first output re-seeds
    /// the dedicated sub-seeder whose round key
    /// ([`crate::StreamSeeder::round_key`]) keys every ant's wander
    /// draws for that round (a pure function of `(master seed, round,
    /// ant)`, so ant movement between sites replays bit-identically
    /// across serial, parallel and checkpoint-restored runs).
    pub const ARENA: u64 = u64::MAX - 6;
    /// Ant decisions: the stream whose first output re-seeds the
    /// dedicated sub-seeder that hands each round its key
    /// ([`crate::StreamSeeder::round_key`]), from which every ant's
    /// draws for that round are built.
    pub const ANTS: u64 = u64::MAX - 7;
}

impl StreamSeeder {
    /// Creates a seeder for `master`.
    #[inline]
    pub fn new(master: u64) -> Self {
        Self { master }
    }

    /// Returns the master seed.
    #[inline]
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Derives the generator for `stream`.
    ///
    /// The starting state is a bijective mix of `(master, stream)`: for a
    /// fixed master, distinct streams start at distinct states, and (with
    /// overwhelming probability over the mixes) far apart on the cycle.
    #[inline]
    pub fn stream(&self, stream: u64) -> AntRng {
        AntRng::from_state(mix(self.master ^ mix(stream)))
    }

    /// The stream for index `index` — a persistent per-index stream, for
    /// callers that step a bank by hand
    /// (`antalloc_core::ControllerBank::step_batch`). Engines draw from
    /// [`StreamSeeder::round_key`] instead.
    #[inline]
    pub fn ant(&self, index: usize) -> AntRng {
        self.stream(index as u64)
    }

    /// The key of every ant's draws in `round`: ant `i` draws from
    /// `AntRng::keyed(round_key(round), i)`. It is the first output of
    /// stream `round` of the sub-seeder the reserved [`reserved::ANTS`]
    /// stream seeds, so a pure function of `(master seed, round)`.
    /// Engines derive it once per round.
    #[inline]
    pub fn round_key(&self, round: u64) -> u64 {
        StreamSeeder::new(self.stream(reserved::ANTS).next_u64())
            .stream(round)
            .next_u64()
    }
}

#[cfg(test)]
// disallowed_types: the collision test only needs membership, never
// iteration order, so the randomized hasher is harmless here.
#[allow(clippy::disallowed_types)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn streams_are_deterministic() {
        let a = StreamSeeder::new(77).stream(5).next_u64();
        let b = StreamSeeder::new(77).stream(5).next_u64();
        assert_eq!(a, b);
    }

    #[test]
    fn streams_differ_across_ids_and_masters() {
        let seeder = StreamSeeder::new(123);
        let mut seen = HashSet::new();
        for id in 0..10_000u64 {
            assert!(
                seen.insert(seeder.stream(id).next_u64()),
                "collision at {id}"
            );
        }
        assert_ne!(
            StreamSeeder::new(1).stream(0).next_u64(),
            StreamSeeder::new(2).stream(0).next_u64()
        );
    }

    #[test]
    fn reserved_ids_do_not_collide_with_small_ant_indices() {
        let seeder = StreamSeeder::new(9);
        let engine = seeder.stream(reserved::ENGINE).next_u64();
        for ant in 0..1000 {
            assert_ne!(engine, seeder.ant(ant).next_u64());
        }
    }

    #[test]
    fn first_outputs_look_uniform() {
        // Cross-stream first outputs are the values the simulator actually
        // consumes in round 1; check their mean.
        let seeder = StreamSeeder::new(2024);
        let n = 50_000u64;
        let mean = (0..n).map(|id| seeder.stream(id).next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
