//! The committed conformance gate: a seed sweep over every registered
//! oracle plus a short chaos soak, the same entry points CI drives
//! through `drcshap testkit run`.

#![cfg(not(feature = "inject-shap-fault"))]

use std::time::Duration;

use drcshap_testkit::{chaos_soak, registry, replay, run_all, ChaosConfig, SizeLevel};

#[test]
fn full_registry_passes_a_seed_sweep() {
    let report = run_all(0, 8);
    assert!(report.ok(), "conformance failures: {:#?}", report.failures);
    let names: Vec<_> = report.passes.iter().map(|(n, _)| *n).collect();
    for check in registry() {
        assert!(names.contains(&check.name), "{} missing from the report", check.name);
    }
}

#[test]
fn replay_is_deterministic_across_invocations() {
    // A replay line must mean the same scenario forever: run every check
    // twice on the same (seed, level) and demand identical outcomes.
    for check in registry() {
        for level in [SizeLevel(0), SizeLevel(1)] {
            let a = replay(check.name, 42, level);
            let b = replay(check.name, 42, level);
            assert_eq!(a, b, "{} not deterministic at level {}", check.name, level.0);
        }
    }
}

#[test]
fn two_second_soak_validates_every_response() {
    let config = ChaosConfig { duration: Duration::from_secs(2), ..ChaosConfig::default() };
    let report = chaos_soak(0, &config).expect("soak invariants must hold");
    assert_eq!(report.validated, report.responses, "unvalidated responses: {report}");
    assert!(report.responses > 0, "soak produced no traffic: {report}");
    assert!(report.swaps > 0, "soak never swapped: {report}");
    assert!(report.explanations > 0, "soak explained nothing: {report}");
    assert!(report.epochs_observed >= 2, "responses never crossed an epoch: {report}");
}
