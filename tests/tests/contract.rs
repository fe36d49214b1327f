//! The bit-identity contract over generated scenarios: serial ==
//! pooled at any participant count == serial/pooled interleavings ==
//! a checkpoint split == `restore_into` and `reset_from` on dirty
//! engines == TOML and JSON rebuilds == a one-seed `Sweep`
//! (`antalloc_tests::contract::check_contract`), and the generator's
//! coverage.

use antalloc_env::Event;
use antalloc_sim::SimConfig;
use antalloc_tests::contract::{check_contract, Trace};
use antalloc_tests::scenarios::{self, generate, scenarios};
use proptest::prelude::*;

proptest! {
    /// The whole contract on random valid scenarios.
    #[test]
    fn contract_holds_on_generated_scenarios(case in scenarios()) {
        check_contract(&case.config, case.rounds);
    }
}

/// The generator is not vacuous: over 256 draws every catalogue spec
/// (Hysteresis at k = 1), noise model, initial configuration and
/// one-shot event kind appears, as do kills to fewer than 16 ants per
/// participant, cycles, generators and every arena shape; and run
/// serially, triggers of every condition kind fire.
#[test]
fn generator_covers_every_feature() {
    let cases: Vec<_> = (0..256).map(generate).collect();
    let seen = |what: &str, hit: &dyn Fn(&SimConfig) -> bool| {
        let hit = cases.iter().any(|c| hit(&c.config));
        assert!(hit, "no generated scenario has {what}");
    };
    for spec in scenarios::specs() {
        seen(&format!("{spec:?}"), &|c| c.controller == spec);
    }
    for noise in scenarios::noises() {
        seen(&format!("{noise:?}"), &|c| c.noise == noise);
    }
    for initial in scenarios::initials(1) {
        seen(&variant(&initial), &|c| {
            variant(&c.initial) == variant(&initial)
        });
    }
    let events = "SetDemands SetTaskDemand Kill Spawn Scramble StampedeTo SetNoise";
    for event in events.split(' ') {
        seen(event, &|c| {
            c.timeline.events.iter().any(|t| variant(&t.event) == event)
        });
    }
    seen("a kill to fewer than 16 ants per participant", &|c| {
        let mut population = c.n;
        c.timeline.events.iter().any(|t| match t.event {
            Event::Kill { count } => {
                population -= count;
                population < 32
            }
            Event::Spawn { count } => {
                population += count;
                false
            }
            _ => false,
        })
    });
    seen("a cycle", &|c| !c.timeline.cycles.is_empty());
    seen("a generator", &|c| !c.timeline.generators.is_empty());
    seen("no arena", &|c| c.arena.is_none());
    let sites = |c: &SimConfig| c.arena.as_ref().map(|a| a.num_sites());
    seen("a single-site arena", &|c| sites(c) == Some(1));
    seen("a multi-site arena", &|c| sites(c) > Some(1));

    let mut fired = Vec::new();
    for case in &cases[..96] {
        let trace = Trace::of(&mut case.config.build(), case.rounds);
        for (trigger, state) in case.config.timeline.triggers.iter().zip(&trace.triggers) {
            if state.firings > 0 {
                fired.push(variant(&trigger.when));
            }
        }
    }
    let conditions = "RegretAbove RegretBelow PopulationBelow RoundReached DeficitAbove \
                      DeficitRateAbove And Or";
    for condition in conditions.split_whitespace() {
        assert!(
            fired.iter().any(|f| f == condition),
            "no generated {condition} trigger fired"
        );
    }
}

/// The name of `value`'s enum variant.
fn variant(value: &impl std::fmt::Debug) -> String {
    let text = format!("{value:?}");
    text.split([' ', '('])
        .next()
        .unwrap_or_default()
        .to_string()
}
