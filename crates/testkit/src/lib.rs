//! # drcshap-testkit
//!
//! The workspace's deterministic conformance engine: seeded scenario
//! generators, a registry of differential oracles and metamorphic
//! properties, and a chaos/soak harness for the serving engine — all
//! replayable from a single `u64` seed.
//!
//! Three layers:
//!
//! - [`scenario`]: every scenario (forest, dataset, probe set, metric
//!   sample, chaos workload) is a pure function of `(seed, SizeLevel)`.
//! - [`oracle`]: each check pits the production code against an
//!   independent implementation (`shap::exact`, `O(n²)` reference
//!   metrics, the uncompiled forest) or a metamorphic invariant
//!   (additivity, dummy-feature nullity, monotone-transform invariance).
//! - [`chaos`]: a multi-threaded soak of the serve engine under hot
//!   swaps, overload bursts, and a shutdown drain, with bitwise
//!   epoch-consistency validation of every response. [`chaos::gateway`]
//!   lifts the same invariants to the multi-shard gateway: killed and
//!   slowed shards, quota overload, and a staged rollout mid-load —
//!   published through (and pulled back out of) the crash-safe model
//!   registry. [`crash`] soaks the registry itself: seeded kills at
//!   every publish syscall boundary, each followed by recovery and
//!   verification. [`xsat`] adds consistency oracles for the SAT-based
//!   abductive explainer: brute-force sufficiency/minimality checks and
//!   a SHAP-vs-abductive cross-view, opted in with
//!   `testkit run --xsat-checks`.
//!
//! The CLI front end is `drcshap testkit run | replay | list`; a failing
//! check prints a `drcshap testkit replay --check NAME --seed S --level L`
//! line that regenerates the minimized failing scenario exactly.
//!
//! The `inject-shap-fault` cargo feature flips one TreeSHAP contribution
//! sign inside the oracle path so CI can drill that the conformance run
//! actually catches a drifted explainer. Never enable it in a real build.

pub mod analytics;
pub mod chaos;
pub mod crash;
pub mod oracle;
pub mod reference;
pub mod scenario;
pub mod xsat;

pub use chaos::gateway::{gateway_chaos_soak, GatewayChaosConfig, GatewayChaosReport};
pub use chaos::{chaos_soak, ChaosConfig, ChaosReport};
pub use crash::{crash_soak, CrashSoakConfig, CrashSoakReport};
pub use oracle::{registry, Check, Failure};
pub use scenario::SizeLevel;
pub use xsat::checks as xsat_checks;

/// Outcome of a conformance sweep: per-check pass counts plus every
/// (minimized) failure.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Seeds that passed, per check, in registry order.
    pub passes: Vec<(&'static str, u64)>,
    /// Minimized failures, in discovery order.
    pub failures: Vec<Failure>,
}

impl RunReport {
    /// True when every check passed every seed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs every registered check over `seeds` consecutive seeds starting at
/// `base_seed`, minimizing each failure to the smallest [`SizeLevel`]
/// that still reproduces it.
pub fn run_all(base_seed: u64, seeds: u64) -> RunReport {
    run_checks(registry(), base_seed, seeds)
}

/// [`run_all`] over an explicit check list — how the CLI appends the
/// [`xsat`] consistency oracles with `testkit run --xsat-checks`.
pub fn run_checks(checks: Vec<Check>, base_seed: u64, seeds: u64) -> RunReport {
    let mut report = RunReport::default();
    for check in checks {
        let mut passed = 0u64;
        for offset in 0..seeds {
            let seed = base_seed.wrapping_add(offset);
            match (check.run)(seed, SizeLevel::DEFAULT) {
                Ok(()) => passed += 1,
                Err(detail) => {
                    report.failures.push(oracle::minimize(
                        &check,
                        seed,
                        SizeLevel::DEFAULT,
                        detail,
                    ));
                }
            }
        }
        report.passes.push((check.name, passed));
    }
    report
}

/// Replays one named check at `(seed, level)`, exactly as a failure
/// report prescribes. Searches the default registry and the [`xsat`]
/// checks, so `--xsat-checks` failures replay by name like any other.
///
/// # Errors
///
/// `Err` with the check's divergence detail when it fails, or a
/// description of the unknown check name.
pub fn replay(check_name: &str, seed: u64, level: SizeLevel) -> Result<(), String> {
    let mut registry = registry();
    registry.extend(xsat::checks());
    let check = registry
        .iter()
        .find(|c| c.name == check_name)
        .ok_or_else(|| format!("unknown check '{check_name}' — see `drcshap testkit list`"))?;
    (check.run)(seed, level)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_rejects_unknown_checks() {
        let err = replay("no-such-check", 0, SizeLevel(0)).unwrap_err();
        assert!(err.contains("unknown check"));
    }

    #[test]
    fn replay_reaches_the_xsat_checks() {
        replay("xsat-abductive-sound-minimal", 0, SizeLevel(0)).expect("xsat check replayable");
    }

    #[cfg(not(feature = "inject-shap-fault"))]
    #[test]
    fn run_all_passes_a_small_sweep() {
        let report = run_all(100, 2);
        assert!(report.ok(), "failures: {:?}", report.failures);
        assert_eq!(report.passes.len(), registry().len());
    }
}
