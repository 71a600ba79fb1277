//! Abductive-explanation bench: explanations per second through the
//! persistent [`AbductiveEngine`], plus a conflicts-vs-forest-shape sweep
//! (how SAT work grows with tree count and depth), reported as JSON.
//!
//! Every primary-phase explanation is verified against the forest's own
//! majority vote, and the engine's determinism is re-proven (two fresh
//! engines must produce bit-identical explanations) before any number is
//! reported — a drifted explainer reports nothing.
//!
//! ```text
//! cargo run --release -p drcshap-bench --bin xsat_bench
//! # merge an `xsat` section into the committed serve baseline
//! cargo run --release -p drcshap-bench --bin xsat_bench -- --out BENCH_serve.json
//! # CI regression gate against the committed baseline's xsat section
//! cargo run --release -p drcshap-bench --bin xsat_bench -- --gate BENCH_serve.json
//! ```
//!
//! `--out` and `--gate` are the shared harness's (`drcshap_bench::gate`):
//! the report is the `xsat` section of the baseline file, a baseline must
//! match this run's trees, depth and features, and the gated throughput is
//! `primary.explanations_per_s`.
//!
//! Environment knobs: `DRCSHAP_XSAT_TREES` (default 25),
//! `DRCSHAP_XSAT_DEPTH` (default 5), `DRCSHAP_XSAT_FEATURES` (default
//! 12), `DRCSHAP_XSAT_SECS` (primary-phase wall clock, default 0.6).
//! Raising trees × depth quickly makes the majority-vote UNSAT proofs
//! (sufficiency checks near the vote boundary) dramatically harder —
//! that growth is what `conflicts_vs_shape` charts.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use drcshap_bench::gate::Bench;
use drcshap_bench::{env_f64, env_usize, synthetic_dataset};
use drcshap_forest::{RandomForest, RandomForestTrainer};
use drcshap_ml::Trainer;
use drcshap_xsat::{forest_vote, AbductiveEngine, XsatBudget};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// This bench's declaration to the shared gate.
const BENCH: Bench = Bench {
    section: "xsat",
    knobs: &["trees", "depth", "features"],
    positive: &["primary.explanations_per_s"],
    gated: "primary.explanations_per_s",
};

/// A `n_trees`-tree depth-`depth` forest on the bench's training set, on
/// which every third feature decides the label.
fn train_forest(n_trees: usize, depth: usize, m: usize) -> RandomForest {
    let data = synthetic_dataset(2000, m, 3, 42);
    RandomForestTrainer { n_trees, max_depth: Some(depth), ..Default::default() }.fit(&data, 42)
}

/// One measured configuration: explanation throughput and mean SAT work.
struct PhaseResult {
    explanations_per_s: f64,
    mean_conflicts: f64,
    mean_sat_calls: f64,
    mean_core_features: f64,
}

/// Explains probes round-robin through one persistent engine until `secs`
/// of wall clock (always completing at least one pass over the probe
/// pool), cross-checking every predicted class against the forest's own
/// majority vote. Panics on any error or class mismatch. Throughput counts
/// the whole window; the SAT-work means cover the first pass only, which
/// every run makes, so they depend on the knobs and not on how fast the
/// host explains (later passes inherit more learned clauses).
fn run_phase(forest: &RandomForest, probes: &[Vec<f32>], secs: f64) -> PhaseResult {
    let mut engine = AbductiveEngine::new(forest).expect("encodable forest");
    let budget = XsatBudget::default();
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let started = Instant::now();
    let mut n = 0usize;
    let mut conflicts = 0u64;
    let mut sat_calls = 0u64;
    let mut core_features = 0usize;
    while n < probes.len() || Instant::now() < deadline {
        let p = n % probes.len();
        let ex = engine.explain(&probes[p], &budget).expect("explain within default budget");
        assert_eq!(
            ex.predicted_hotspot,
            forest_vote(forest, &probes[p]),
            "probe {p}: explained class disagrees with the forest vote"
        );
        if n < probes.len() {
            conflicts += ex.conflicts;
            sat_calls += u64::from(ex.sat_calls);
            core_features += ex.sufficient.len();
        }
        n += 1;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let pass = probes.len() as f64;
    PhaseResult {
        explanations_per_s: n as f64 / elapsed,
        mean_conflicts: conflicts as f64 / pass,
        mean_sat_calls: sat_calls as f64 / pass,
        mean_core_features: core_features as f64 / pass,
    }
}

/// Two fresh engines over the same forest must produce identical
/// explanations, solver accounting included — the bit-stability contract
/// `drcshap explain` relies on.
fn verify_deterministic(forest: &RandomForest, probes: &[Vec<f32>]) {
    let explain_all = || {
        let mut engine = AbductiveEngine::new(forest).expect("encodable forest");
        probes
            .iter()
            .take(4)
            .map(|x| {
                let ex = engine.explain(x, &XsatBudget::default()).expect("explains");
                (ex.sufficient, ex.contrastive, ex.sat_calls, ex.conflicts)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(explain_all(), explain_all(), "explanations are not bit-stable across engines");
}

fn main() -> ExitCode {
    let harness = drcshap_bench::harness(&BENCH, std::env::args().skip(1).collect());

    let n_trees = env_usize("DRCSHAP_XSAT_TREES", 25);
    let depth = env_usize("DRCSHAP_XSAT_DEPTH", 5);
    let m = env_usize("DRCSHAP_XSAT_FEATURES", 12);
    let secs = env_f64("DRCSHAP_XSAT_SECS", 0.6);
    if !secs.is_finite() || secs <= 0.0 {
        eprintln!("error: DRCSHAP_XSAT_SECS must be positive, got {secs}");
        std::process::exit(2);
    }

    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let probes: Vec<Vec<f32>> =
        (0..64).map(|_| (0..m).map(|_| rng.gen_range(0.0f32..1.0)).collect()).collect();

    // Primary configuration: throughput, SAT work, and the determinism
    // re-proof the gate insists on.
    eprintln!("training {n_trees}-tree depth-{depth} forest on {m} features...");
    let forest = train_forest(n_trees, depth, m);
    verify_deterministic(&forest, &probes);
    let primary = run_phase(&forest, &probes, secs);
    eprintln!(
        "primary: {:.3e} explanations/s, {:.1} conflicts and {:.1} SAT calls per explanation, \
         mean core {:.1} features",
        primary.explanations_per_s,
        primary.mean_conflicts,
        primary.mean_sat_calls,
        primary.mean_core_features
    );

    // Conflicts vs forest shape: one pass over the probe pool per
    // (trees, depth) point, same features and training distribution.
    // The grid is deliberately modest: UNSAT proofs over a near-boundary
    // majority vote get combinatorially harder with trees × depth, and
    // the sweep exists to chart exactly that growth, not to stall CI.
    let mut sweep = Vec::new();
    for &(t, d) in &[(5usize, 3usize), (10, 4), (15, 5), (25, 6)] {
        let f = train_forest(t, d, m);
        let r = run_phase(&f, &probes, 0.0);
        eprintln!(
            "sweep trees={t} depth={d}: {:.3e}/s, {:.1} conflicts, {:.1} SAT calls, core {:.1}",
            r.explanations_per_s, r.mean_conflicts, r.mean_sat_calls, r.mean_core_features
        );
        sweep.push(serde_json::json!({
            "trees": t,
            "depth": d,
            "explanations_per_s": r.explanations_per_s,
            "mean_conflicts": r.mean_conflicts,
            "mean_sat_calls": r.mean_sat_calls,
            "mean_core_features": r.mean_core_features,
        }));
    }

    let report = serde_json::json!({
        "trees": n_trees,
        "depth": depth,
        "features": m,
        "phase_secs": secs,
        "primary": {
            "explanations_per_s": primary.explanations_per_s,
            "mean_conflicts": primary.mean_conflicts,
            "mean_sat_calls": primary.mean_sat_calls,
            "mean_core_features": primary.mean_core_features,
        },
        "conflicts_vs_shape": sweep,
        "bit_identical": true,
    });
    harness.finish(report).exit_code()
}
