//! The benchmark's own tests, on the shrunken size of every workload.

use std::cell::RefCell;
use std::rc::Rc;

use super::*;

fn digests(pass: &[(usize, f64, Outcome)]) -> Vec<(Digest, u64)> {
    pass.iter().map(|(_, _, o)| (o.digest, o.events)).collect()
}

fn outcomes(pass: Vec<(usize, f64, Outcome)>) -> Vec<Outcome> {
    pass.into_iter().map(|(_, _, o)| o).collect()
}

fn small(workload: &str, seed: u64) -> Inputs {
    Inputs::generate(workload, seed, Size::Small).expect("known workload")
}

#[test]
fn traced_and_untraced_runs_give_identical_results_and_event_counts() {
    for workload in WORKLOADS {
        let inputs = small(workload, reference::DEFAULT_SEED);
        let plain = inputs.pass(&Stack::plain(), None);
        let ledger = Rc::new(RefCell::new(Ledger::default()));
        let traced = inputs.pass(&Stack::traced(Rc::clone(&ledger)), None);
        assert_eq!(digests(&plain), digests(&traced), "{workload}");
        let ledger = ledger.borrow();
        let dispatched: u64 = ledger.dispatches.iter().sum();
        let events: u64 = traced.iter().map(|(_, _, o)| o.events).sum();
        assert_eq!(
            dispatched, events,
            "{workload}: every event passes one wrapper"
        );
        assert!(
            ledger.run_ns > 0 && !ledger.delivered.is_empty(),
            "{workload}"
        );
    }
}

#[test]
fn self_assembled_topologies_match_their_library_entry_points() {
    let seed = reference::DEFAULT_SEED;
    let Inputs::Paper(points) = small("paper_sweep", seed) else {
        unreachable!()
    };
    for point in &points {
        paper_sweep::library_check(point).unwrap();
    }
    let Inputs::Chaos(seeds) = small("chaos_storm", seed) else {
        unreachable!()
    };
    for &s in &seeds {
        chaos_storm::library_check(s).unwrap();
    }
    let Inputs::Shard(trials) = small("shard_tier", seed) else {
        unreachable!()
    };
    for trial in &trials {
        shard_tier::library_check(trial).unwrap();
    }
}

#[test]
fn a_seed_replays_byte_identically_and_seeds_differ() {
    for workload in WORKLOADS {
        let run = |seed| {
            let inputs = small(workload, seed);
            let pass = outcomes(inputs.pass(&Stack::plain(), None));
            pass_digest(&pass, inputs.pinned()..pass.len())
        };
        let a = run(reference::DEFAULT_SEED);
        assert_eq!(a, run(reference::DEFAULT_SEED), "{workload}");
        assert_ne!(
            a,
            run(reference::HELD_OUT_SEED),
            "{workload}: the seed shapes the inputs"
        );
    }
}

#[test]
fn default_and_held_out_seeds_pass_the_correctness_checks() {
    for workload in WORKLOADS {
        for seed in [reference::DEFAULT_SEED, reference::HELD_OUT_SEED] {
            let inputs = small(workload, seed);
            inputs.warm_up().unwrap();
            for (i, _, out) in inputs.pass(&Stack::plain(), None) {
                assert!(
                    out.violations.is_empty(),
                    "{workload} seed {seed} trial {i}: {:?}",
                    out.violations
                );
                assert!(out.events > 0 && out.ops_attempted > 0, "{workload}");
            }
        }
    }
}

#[test]
fn pinned_trials_match_the_committed_digests() {
    // The pinned trials lead the batch at every size.
    for workload in WORKLOADS {
        let inputs = small(workload, reference::HELD_OUT_SEED);
        let pass = outcomes(inputs.pass(&Stack::plain(), None));
        if let Some(want) = reference::pinned(workload) {
            assert_eq!(pass_digest(&pass, 0..inputs.pinned()).0, want, "{workload}");
        }
    }
}

#[test]
fn refinement_re_runs_trials_slow_per_event() {
    let out = |events| Outcome {
        events,
        ..Outcome::default()
    };
    let mut run = Run {
        trial_s: vec![vec![1.0, 0.5], vec![0.7], vec![2.0], vec![9.0, 5.0]],
        first: vec![out(1), out(1), out(1), out(10)],
        ..Run::default()
    };
    // Best host seconds per event: 0.5, 0.7, 2.0, 0.5; the median is 0.6.
    assert_eq!(run.refine_subset(), Some(vec![1, 2]));
    run.trial_s[1].push(0.55);
    run.trial_s[2].push(0.55);
    assert_eq!(run.refine_subset(), None, "converged: a full pass next");
}

#[test]
fn quantiles_interpolate() {
    let v = [1.0, 2.0, 3.0, 4.0, 5.0];
    assert_eq!(quantile(&v, 0.5), 3.0);
    assert_eq!(quantile(&v, 0.9), 4.6);
    assert_eq!(quantile(&[], 0.5), 0.0);
}
