//! Consistency oracles for the SAT-based abductive explainer.
//!
//! Three checks, each a pure function of `(seed, SizeLevel)` like every
//! other registry entry:
//!
//! - `xsat-abductive-sound-minimal`: brute-force-verifies that every
//!   abductive explanation really is a *sufficient reason* (fixing its
//!   features forces the class for every completion over the threshold
//!   grid) and *subset-minimal* (dropping any single feature breaks
//!   sufficiency).
//! - `shap-vs-abductive`: pits the two explanation views against each
//!   other on what they must agree on — support. TreeSHAP and the CNF
//!   encoder walk the same trees independently, so a feature has nonzero
//!   SHAP only if the encoder saw a split on it and vice versa (unused
//!   features carry exactly-zero SHAP and never enter an abductive set).
//!   The contrastive set passes exhaustive feature-flip verification (a
//!   flip witness exists and no proper subset admits one), every core
//!   feature is flip-relevant to the vote, and explanations are
//!   bit-stable across engine rebuilds. Attribution *magnitudes* are
//!   deliberately not compared: SHAP explains the probability, the core
//!   explains the vote, and the two can legitimately rank features
//!   differently.
//! - `xsat-exact-vs-deletion`: the engine deduces most deletion-loop
//!   verdicts from UNSAT cores and SAT models instead of asking the
//!   solver. On a forest wide enough for that to happen (tens of used
//!   features), its `sufficient` and `contrastive` sets must equal, byte
//!   for byte, those of the plain loops that make one SAT call per
//!   candidate (`plain_deletion`).
//!
//! The brute-force side of the first two enumerates one representative per
//! threshold-grid cell, which is exponential in feature count — so those
//! checks clamp their scenarios to `MAX_LEVEL` (internally) and cap tree
//! depth, keeping the grid a few thousand cells.

use drcshap_forest::{RandomForest, RandomForestTrainer};
use drcshap_ml::{Dataset, Trainer};
use drcshap_shap::tree_shap;
use drcshap_xsat::{
    forest_vote, AbductiveEngine, ForestEncoding, SolveBudget, SolveOutcome, Solver, XsatBudget,
};
use rand::Rng;

use crate::oracle::Check;
use crate::scenario::{self, SizeLevel};

/// Largest scenario level the brute-force verifier can afford: 3 features
/// and 5 trees. Higher requested levels clamp down to this.
const MAX_LEVEL: SizeLevel = SizeLevel(1);

/// Probes explained per scenario. Each probe costs a full grid sweep per
/// sufficiency/minimality question, so this stays small.
const N_PROBES: usize = 4;

/// A depth-capped forest for the xsat oracles. The cap keeps the
/// per-feature threshold grid small enough that exhaustive enumeration
/// over cells stays in the low thousands.
fn xsat_forest(seed: u64, level: SizeLevel) -> RandomForest {
    let data = scenario::dataset(seed, level);
    let trainer =
        RandomForestTrainer { n_trees: level.n_trees(), max_depth: Some(3), ..Default::default() };
    trainer.fit(&data, seed ^ 0x5A7)
}

/// One representative value per grid cell of feature `j`: the thresholds
/// themselves (cells are half-open `(lo, hi]`, so each threshold is the
/// top of its cell) plus one point above the last threshold for the open
/// cell `(t_max, +inf)`.
fn cell_reps(enc: &ForestEncoding, j: usize) -> Vec<f32> {
    let ts = enc.thresholds(j);
    let mut reps = ts.to_vec();
    reps.push(ts.last().copied().unwrap_or(0.0) + 1.0);
    reps
}

/// Exhaustive check that fixing `fixed` to `x`'s values forces the vote
/// `want`: walks every completion of the remaining features (one
/// representative per grid cell) and returns `false` on the first
/// completion the forest classifies differently.
fn forces_class(
    forest: &RandomForest,
    enc: &ForestEncoding,
    x: &[f32],
    fixed: &[usize],
    want: bool,
) -> bool {
    let m = x.len();
    let reps: Vec<Vec<f32>> =
        (0..m).map(|j| if fixed.contains(&j) { vec![x[j]] } else { cell_reps(enc, j) }).collect();
    let mut probe = x.to_vec();
    let mut idx = vec![0usize; m];
    loop {
        for j in 0..m {
            probe[j] = reps[j][idx[j]];
        }
        if forest_vote(forest, &probe) != want {
            return false;
        }
        // Odometer increment over the per-feature representative lists.
        let mut j = 0;
        loop {
            if j == m {
                return true;
            }
            idx[j] += 1;
            if idx[j] < reps[j].len() {
                break;
            }
            idx[j] = 0;
            j += 1;
        }
    }
}

/// Exhaustive search for a witness that the vote depends on feature `j`:
/// two grid points differing *only* in `j` with different forest votes.
/// Returns `false` when the vote is independent of `j` everywhere on the
/// grid.
fn flip_relevant(forest: &RandomForest, enc: &ForestEncoding, j: usize, m: usize) -> bool {
    let reps: Vec<Vec<f32>> = (0..m).map(|f| cell_reps(enc, f)).collect();
    let mut probe = vec![0.0f32; m];
    let mut idx = vec![0usize; m];
    loop {
        // One assignment of every feature except `j`; scan `j`'s cells.
        for f in 0..m {
            probe[f] = reps[f][idx[f]];
        }
        let first = forest_vote(forest, &probe);
        for v in &reps[j][1..] {
            probe[j] = *v;
            if forest_vote(forest, &probe) != first {
                return true;
            }
        }
        let mut f = 0;
        loop {
            if f == m {
                return false;
            }
            if f == j {
                f += 1;
                continue;
            }
            idx[f] += 1;
            if idx[f] < reps[f].len() {
                break;
            }
            idx[f] = 0;
            f += 1;
        }
    }
}

/// Deterministic probe set for the xsat checks (no NaN: the encoder's NaN
/// cell is covered by the crate's own unit tests; here the grid sweep
/// must agree with plain `forest_vote`).
fn xsat_probes(seed: u64, m: usize) -> Vec<Vec<f32>> {
    let mut rng = scenario::rng_for(seed ^ 0xABD0);
    scenario::probes(&mut rng, m, N_PROBES, false)
}

fn check_abductive_sound_minimal(seed: u64, level: SizeLevel) -> Result<(), String> {
    let level = SizeLevel(level.0.min(MAX_LEVEL.0));
    let forest = xsat_forest(seed, level);
    let mut engine = AbductiveEngine::new(&forest).map_err(|e| format!("encoding failed: {e}"))?;
    for (p, x) in xsat_probes(seed, forest.n_features()).iter().enumerate() {
        let ex = engine
            .explain(x, &XsatBudget::default())
            .map_err(|e| format!("probe {p}: explain failed: {e}"))?;
        let want = forest_vote(&forest, x);
        if ex.predicted_hotspot != want {
            return Err(format!(
                "probe {p}: explanation claims class {} but the forest votes {}",
                ex.predicted_hotspot, want
            ));
        }
        if !forces_class(&forest, engine.encoding(), x, &ex.sufficient, want) {
            return Err(format!(
                "probe {p}: sufficient set {:?} does not force the class — a grid \
                 completion flips the vote",
                ex.sufficient
            ));
        }
        for drop in 0..ex.sufficient.len() {
            let mut reduced = ex.sufficient.clone();
            let dropped = reduced.remove(drop);
            if forces_class(&forest, engine.encoding(), x, &reduced, want) {
                return Err(format!(
                    "probe {p}: sufficient set {:?} is not subset-minimal — feature \
                     {dropped} can be dropped",
                    ex.sufficient
                ));
            }
        }
        // Hitting-set duality: every contrastive set intersects every
        // sufficient reason (when both are non-empty).
        if !ex.contrastive.is_empty()
            && !ex.sufficient.is_empty()
            && !ex.contrastive.iter().any(|j| ex.sufficient.contains(j))
        {
            return Err(format!(
                "probe {p}: contrastive {:?} misses sufficient {:?} — hitting-set \
                 duality violated",
                ex.contrastive, ex.sufficient
            ));
        }
    }
    Ok(())
}

fn check_shap_vs_abductive(seed: u64, level: SizeLevel) -> Result<(), String> {
    let level = SizeLevel(level.0.min(MAX_LEVEL.0));
    let forest = xsat_forest(seed, level);
    let m = forest.n_features();
    let mut engine = AbductiveEngine::new(&forest).map_err(|e| format!("encoding failed: {e}"))?;
    let used = engine.encoding().used_features();
    for (p, x) in xsat_probes(seed ^ 0x5AB, m).iter().enumerate() {
        let ex = engine
            .explain(x, &XsatBudget::default())
            .map_err(|e| format!("probe {p}: explain failed: {e}"))?;
        let want = ex.predicted_hotspot;

        // Forest SHAP, summed per tree in tree order.
        let mut phi = vec![0.0f64; m];
        for tree in forest.trees() {
            for (j, v) in tree_shap(tree, x).iter().enumerate() {
                phi[j] += v / forest.trees().len() as f64;
            }
        }

        // A feature no split uses must be invisible to both views: its
        // SHAP attribution is exactly zero and the abductive engine never
        // mentions it.
        for j in (0..m).filter(|j| !used.contains(j)) {
            if phi[j] != 0.0 {
                return Err(format!(
                    "probe {p}: unused feature {j} has SHAP {} (must be exactly 0)",
                    phi[j]
                ));
            }
            if ex.sufficient.contains(&j) || ex.contrastive.contains(&j) {
                return Err(format!("probe {p}: unused feature {j} appears in an abductive set"));
            }
        }

        // Exhaustive feature-flip verification of the contrastive set:
        // freeing exactly the contrastive features must admit a flip
        // witness, and no proper subset may (minimality). An empty
        // contrastive set claims the forest is constant over the grid.
        let fixed_except =
            |free: &[usize]| -> Vec<usize> { (0..m).filter(|j| !free.contains(j)).collect() };
        if ex.contrastive.is_empty() {
            if !forces_class(&forest, engine.encoding(), x, &[], want) {
                return Err(format!(
                    "probe {p}: empty contrastive set, but a grid completion flips \
                     the vote"
                ));
            }
        } else {
            if forces_class(&forest, engine.encoding(), x, &fixed_except(&ex.contrastive), want) {
                return Err(format!(
                    "probe {p}: contrastive {:?} has no flip witness — freeing it \
                     cannot change the vote",
                    ex.contrastive
                ));
            }
            for drop in 0..ex.contrastive.len() {
                let mut reduced = ex.contrastive.clone();
                let dropped = reduced.remove(drop);
                if !forces_class(&forest, engine.encoding(), x, &fixed_except(&reduced), want) {
                    return Err(format!(
                        "probe {p}: contrastive {:?} is not minimal — it flips \
                         without touching feature {dropped}",
                        ex.contrastive
                    ));
                }
            }
        }

        // SHAP support vs encoder support, the other direction: a feature
        // with any attribution at all must be one the encoder saw a split
        // on. TreeSHAP walking the trees and the CNF encoder walking the
        // trees are independent implementations, so disagreement here
        // means one of them dropped or invented a split. Note ranking
        // *magnitudes* are deliberately not compared: SHAP attributes the
        // probability while the core explains the vote, and the two
        // legitimately disagree on which feature matters most (a feature
        // can force the majority vote while barely moving the mean leaf
        // value).
        for j in (0..m).filter(|&j| phi[j] != 0.0) {
            if !used.contains(&j) {
                return Err(format!(
                    "probe {p}: feature {j} has SHAP {} but the encoder found no \
                     split on it",
                    phi[j]
                ));
            }
        }

        // Exhaustive feature-flip relevance of the abductive core: a
        // feature in a subset-minimal sufficient (or contrastive) set
        // must actually matter to the vote — some pair of grid points
        // differing only in that feature flips the class. (If the vote
        // were independent of it, the deletion loop could have dropped
        // it, contradicting minimality.)
        for &j in ex.sufficient.iter().chain(ex.contrastive.iter()) {
            if !flip_relevant(&forest, engine.encoding(), j, m) {
                return Err(format!(
                    "probe {p}: feature {j} is in an abductive set but no grid pair \
                     differing only in it flips the vote"
                ));
            }
        }
    }

    // Bit-stability: a fresh engine over the same forest must reproduce
    // every explanation exactly, solver accounting included.
    let mut rebuilt =
        AbductiveEngine::new(&forest).map_err(|e| format!("re-encoding failed: {e}"))?;
    let mut replay =
        AbductiveEngine::new(&forest).map_err(|e| format!("re-encoding failed: {e}"))?;
    for (p, x) in xsat_probes(seed ^ 0x5AB, m).iter().enumerate() {
        let a = rebuilt
            .explain(x, &XsatBudget::default())
            .map_err(|e| format!("probe {p}: explain failed: {e}"))?;
        let b = replay
            .explain(x, &XsatBudget::default())
            .map_err(|e| format!("probe {p}: explain failed: {e}"))?;
        if (a.sufficient, a.contrastive, a.sat_calls, a.conflicts)
            != (b.sufficient, b.contrastive, b.sat_calls, b.conflicts)
        {
            return Err(format!("probe {p}: explanation is not bit-stable across rebuilds"));
        }
    }
    Ok(())
}

/// `(features, trees, depth)` of the wide forest per level: the default
/// level has tens of used features, so most deletion-loop verdicts are
/// deduced rather than asked.
fn wide_shape(level: SizeLevel) -> (usize, usize, usize) {
    [(12, 8, 3), (24, 15, 4), (40, 25, 5)][level.0.min(SizeLevel::DEFAULT.0) as usize]
}

/// A forest over many features: labels from a noisy linear rule over all
/// of them, so the trees split on most features somewhere.
fn wide_forest(seed: u64, level: SizeLevel) -> RandomForest {
    let (m, n_trees, depth) = wide_shape(level);
    let mut rng = scenario::rng_for(seed ^ 0xE7AC);
    let weights: Vec<f32> = (0..m).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let n = 300;
    let mut x = Vec::with_capacity(n * m);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f32> = (0..m).map(|_| rng.gen_range(0.0f32..1.0)).collect();
        let score: f32 = row.iter().zip(&weights).map(|(a, w)| (a - 0.5) * w).sum();
        y.push(score + rng.gen_range(-0.2f32..0.2) > 0.0);
        x.extend_from_slice(&row);
    }
    let data = Dataset::from_parts(x, y, vec![0; n], m);
    RandomForestTrainer { n_trees, max_depth: Some(depth), ..Default::default() }
        .fit(&data, seed ^ 0x51DE)
}

/// The textbook deletion loops, one SAT call per candidate on a solver of
/// their own: drop each used feature in ascending order while the rest
/// still forces the class, then pin each one while the rest can still flip
/// it. Returns `(sufficient, contrastive, sat_calls)`.
fn plain_deletion(enc: &ForestEncoding, x: &[f32], hotspot: bool) -> (Vec<usize>, Vec<usize>, u32) {
    let mut solver = Solver::from_cnf(enc.cnf());
    let guard = if hotspot { enc.guard_not_hotspot() } else { enc.guard_hotspot() };
    let mut calls = 0u32;
    let mut flippable = |fixed: &[usize]| {
        let mut assumptions = Vec::new();
        for &j in fixed {
            enc.fix_feature(j, x[j], &mut assumptions);
        }
        assumptions.push(guard);
        calls += 1;
        solver.solve(&assumptions, &SolveBudget::unlimited()) == SolveOutcome::Sat
    };
    let used = enc.used_features();
    let mut sufficient = used.clone();
    let mut i = 0;
    while i < sufficient.len() {
        let mut candidate = sufficient.clone();
        candidate.remove(i);
        if flippable(&candidate) {
            i += 1;
        } else {
            sufficient = candidate;
        }
    }
    let mut contrastive = Vec::new();
    if flippable(&[]) {
        let mut free = used.clone();
        let mut i = 0;
        while i < free.len() {
            let fixed: Vec<usize> =
                used.iter().copied().filter(|&j| j == free[i] || !free.contains(&j)).collect();
            if flippable(&fixed) {
                free.remove(i);
            } else {
                i += 1;
            }
        }
        contrastive = free;
    }
    (sufficient, contrastive, calls)
}

fn check_exact_vs_deletion(seed: u64, level: SizeLevel) -> Result<(), String> {
    let forest = wide_forest(seed, level);
    let m = forest.n_features();
    let mut engine = AbductiveEngine::new(&forest).map_err(|e| format!("encoding failed: {e}"))?;
    // Finite probes, then probes with NaN / ±inf entries (the open cells).
    let mut rng = scenario::rng_for(seed ^ 0xE4AC);
    let mut probes = scenario::probes(&mut rng, m, N_PROBES, false);
    probes.extend(scenario::probes(&mut rng, m, N_PROBES / 2, true));
    // One persistent engine across probes: its trail and learned clauses
    // carry from one explanation into the next, as on the serve path.
    for (p, x) in probes.iter().enumerate() {
        let ex = engine
            .explain(x, &XsatBudget::default())
            .map_err(|e| format!("probe {p}: explain failed: {e}"))?;
        let (sufficient, contrastive, calls) =
            plain_deletion(engine.encoding(), x, ex.predicted_hotspot);
        if (&ex.sufficient, &ex.contrastive) != (&sufficient, &contrastive) {
            return Err(format!(
                "probe {p}: engine gives sufficient {:?} / contrastive {:?}, plain deletion \
                 gives {sufficient:?} / {contrastive:?}",
                ex.sufficient, ex.contrastive
            ));
        }
        if ex.sat_calls > calls {
            return Err(format!(
                "probe {p}: engine made {} SAT calls, more than plain deletion's {calls}",
                ex.sat_calls
            ));
        }
    }
    Ok(())
}

/// The xsat consistency checks, run by `testkit run --xsat-checks` and
/// replayable by name like every registry entry.
pub fn checks() -> Vec<Check> {
    vec![
        Check { name: "xsat-abductive-sound-minimal", run: check_abductive_sound_minimal },
        Check { name: "shap-vs-abductive", run: check_shap_vs_abductive },
        Check { name: "xsat-exact-vs-deletion", run: check_exact_vs_deletion },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xsat_checks_pass_a_seed_sweep() {
        for check in checks() {
            for seed in 0..4 {
                if let Err(detail) = (check.run)(seed, SizeLevel::DEFAULT) {
                    panic!("{} failed at seed {seed}: {detail}", check.name);
                }
            }
        }
    }

    #[test]
    fn the_wide_forest_makes_the_engine_skip_calls() {
        // The exactness oracle is only meaningful where verdicts are
        // deduced: tens of used features, and far fewer SAT calls than the
        // plain loops need.
        let forest = wide_forest(0, SizeLevel::DEFAULT);
        let mut engine = AbductiveEngine::new(&forest).expect("encodable");
        assert!(engine.encoding().used_features().len() >= 20);
        let x = vec![0.5f32; forest.n_features()];
        let ex = engine.explain(&x, &XsatBudget::default()).expect("explains");
        let (_, _, calls) = plain_deletion(engine.encoding(), &x, ex.predicted_hotspot);
        assert!(2 * ex.sat_calls < calls, "{} engine calls vs {calls} plain", ex.sat_calls);
    }

    #[test]
    fn levels_above_the_clamp_are_tractable() {
        // Requesting level 2 must silently clamp to MAX_LEVEL instead of
        // exploding the brute-force grid.
        for check in checks() {
            (check.run)(1, SizeLevel(2)).expect("clamped run passes");
        }
    }

    #[test]
    fn forces_class_detects_flips() {
        let forest = xsat_forest(0, SizeLevel(1));
        let engine = AbductiveEngine::new(&forest).expect("encodable");
        let x = vec![0.5f32; forest.n_features()];
        let want = forest_vote(&forest, &x);
        let all: Vec<usize> = (0..forest.n_features()).collect();
        // Fixing everything always forces the class...
        assert!(forces_class(&forest, engine.encoding(), &x, &all, want));
        // ...and claiming the opposite class must fail immediately.
        assert!(!forces_class(&forest, engine.encoding(), &x, &all, !want));
    }
}
