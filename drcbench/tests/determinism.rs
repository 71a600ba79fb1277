//! Each workload's op sequence and output digest are a pure function of the
//! seed, and the traced replay passes the same checks (at a tiny size, one
//! cycle of ops per phase).

use drcbench::trace::PER_LAYER;
use drcbench::{run, Options, Outcome, Size, Workload};

fn once(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let opts = Options { workload, seed, seconds: 0.0, trace, size: Size::tiny() };
    run(&opts).expect("workload runs")
}

fn check(workload: Workload) {
    let first = once(workload, 7, false);
    let replay = once(workload, 7, true);
    let other = once(workload, 8, false);
    for outcome in [&first, &replay, &other] {
        assert!(outcome.correct, "{workload:?}: {:#?}", outcome.notes);
        assert_eq!(outcome.failed, 0, "{workload:?}");
        assert!(outcome.attempted > 0, "{workload:?}");
    }
    assert_eq!(first.first_cycle, replay.first_cycle, "{workload:?}: same seed, same ops");
    assert_eq!(first.digest, replay.digest, "{workload:?}: same seed, same outputs");
    assert_ne!(first.first_cycle, other.first_cycle, "{workload:?}: another seed, other ops");
    let names: Vec<&str> = replay.per_layer.iter().map(|m| m.name).collect();
    let expected: Vec<&str> = PER_LAYER.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, expected, "{workload:?}: a traced run reports every per-layer metric");
    assert_eq!(first.end_to_end.len(), 4);
}

#[test]
fn triage_is_a_function_of_the_seed() {
    check(Workload::Triage);
}

#[test]
fn bulk_is_a_function_of_the_seed() {
    check(Workload::Bulk);
}

#[test]
fn score_is_a_function_of_the_seed() {
    check(Workload::Score);
}

#[test]
fn abductive_is_a_function_of_the_seed() {
    check(Workload::Abductive);
}
