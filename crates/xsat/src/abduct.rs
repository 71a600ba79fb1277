//! Abductive explanations for Random Forest predictions.
//!
//! A **sufficient reason** (abductive explanation, PI-explanation) for the
//! prediction on an instance `x` is a subset `S` of features such that
//! *every* instance agreeing with `x` on `S` receives the same
//! classification — no matter what the features outside `S` do. We compute
//! a **subset-minimal** one with the classic deletion loop: start from all
//! used features and try to drop each in turn, keeping the drop whenever
//! the SAT solver proves the reduced set still forces the class.
//!
//! Formally, `S` is sufficient iff `CNF ∧ fix(S) ∧ guard(¬class)` is
//! unsatisfiable — there is no way to complete the fixed features into an
//! instance of the *opposite* class. One shared CNF (see
//! [`crate::encode`]) serves every query; only the assumptions change, so
//! clauses learned in one call speed up the next.
//!
//! The **contrastive** dual answers "what would have to change": a
//! subset-minimal set `Y` such that altering *only* the features in `Y`
//! can flip the prediction (`CNF ∧ fix(used ∖ Y) ∧ guard(¬class)`
//! satisfiable). By Reiter-style hitting-set duality, every contrastive
//! set intersects every sufficient reason — a cheap cross-check the
//! testkit oracle exploits.
//!
//! Both loops ask the solver only what they cannot deduce. Sufficiency is
//! monotone: a superset of a sufficient set is sufficient, and a subset of
//! a flippable set is flippable. An UNSAT call's failed-assumption core is
//! a sufficient subset of the candidate, and a SAT model is a flip that
//! moves only some features; every later candidate that still contains the
//! core, or still frees every feature the model moved, gets the same
//! verdict without a call. The deletion order is unchanged, so the answers
//! are the ones one call per candidate would give.
//!
//! Everything here is deterministic for a given engine state: features are
//! probed in ascending index order and the solver itself is deterministic,
//! which is what makes `drcshap explain` output bit-stable across runs.

use std::time::Instant;

use drcshap_forest::RandomForest;
use drcshap_ml::{DrcshapError, InputError, XsatError};
use drcshap_telemetry as telemetry;

use crate::cnf::Lit;
use crate::encode::{forest_vote_count, FeatureInterval, ForestEncoding};
use crate::solver::{SolveBudget, SolveOutcome, Solver, SolverStats};

/// Resource budget for one [`AbductiveEngine::explain`] call.
///
/// The conflict caps keep the call deterministic; the optional deadline is
/// for serving paths where wall-clock latency is the contract. Exceeding
/// either surfaces as [`DrcshapError::ExplanationTimeout`] — never a stall.
#[derive(Debug, Clone, Copy)]
pub struct XsatBudget {
    /// Conflicts any single SAT call may spend.
    pub max_conflicts_per_call: u64,
    /// Conflicts the whole explanation may spend across all SAT calls.
    pub max_total_conflicts: u64,
    /// Optional wall-clock cutoff (serve path; `None` keeps determinism).
    pub deadline: Option<Instant>,
}

impl Default for XsatBudget {
    fn default() -> Self {
        Self { max_conflicts_per_call: 20_000, max_total_conflicts: 200_000, deadline: None }
    }
}

impl XsatBudget {
    /// A deterministic budget of `total` conflicts overall and per call.
    pub fn conflicts(total: u64) -> Self {
        Self { max_conflicts_per_call: total, max_total_conflicts: total, deadline: None }
    }
}

/// One explained prediction: the minimal sufficient reason, its feature
/// intervals, the contrastive dual, and solver accounting.
#[derive(Debug, Clone, serde::Serialize)]
pub struct AbductiveExplanation {
    /// The majority-vote classification being explained.
    pub predicted_hotspot: bool,
    /// Trees voting hotspot.
    pub votes_for: usize,
    /// Trees in the forest.
    pub n_trees: usize,
    /// Subset-minimal sufficient reason: feature indices, ascending. Fixing
    /// these features to the instance's values forces the prediction
    /// regardless of every other feature.
    pub sufficient: Vec<usize>,
    /// For each feature in `sufficient`, the half-open interval `(lo, hi]`
    /// of values indistinguishable from the instance's — the actual
    /// condition the forest is applying.
    pub intervals: Vec<ExplainedFeature>,
    /// Subset-minimal contrastive set: changing only these features can
    /// flip the prediction. Empty when the forest can never produce the
    /// opposite class.
    pub contrastive: Vec<usize>,
    /// SAT calls spent.
    pub sat_calls: u32,
    /// Solver conflicts spent.
    pub conflicts: u64,
    /// Solver propagations spent.
    pub propagations: u64,
}

/// A feature of the sufficient reason with its pinned interval.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ExplainedFeature {
    /// Feature index.
    pub feature: usize,
    /// The instance's value for this feature (NaN serializes as null).
    pub value: f32,
    /// The grid cell the value is pinned to.
    pub interval: FeatureInterval,
}

/// The abductive-explanation engine: one encoded forest plus a persistent
/// CDCL solver. Clauses learned while explaining one instance carry over
/// to the next, so batch explanation gets cheaper as it goes.
#[derive(Debug, Clone)]
pub struct AbductiveEngine {
    forest: RandomForest,
    encoding: ForestEncoding,
    solver: Solver,
}

/// Tracks budget consumption across the SAT calls of one explanation.
struct BudgetLedger<'a> {
    budget: &'a XsatBudget,
    start: SolverStats,
    sat_calls: u32,
}

impl<'a> BudgetLedger<'a> {
    fn new(budget: &'a XsatBudget, solver: &Solver) -> Self {
        Self { budget, start: solver.stats(), sat_calls: 0 }
    }

    fn spent_conflicts(&self, solver: &Solver) -> u64 {
        solver.stats().conflicts - self.start.conflicts
    }

    /// Runs one budgeted SAT call, translating exhaustion into the typed
    /// timeout error carrying what was already spent.
    fn solve(
        &mut self,
        solver: &mut Solver,
        assumptions: &[Lit],
    ) -> Result<SolveOutcome, DrcshapError> {
        let remaining =
            self.budget.max_total_conflicts.saturating_sub(self.spent_conflicts(solver));
        let timeout = |ledger: &Self, solver: &Solver| DrcshapError::ExplanationTimeout {
            conflicts: ledger.spent_conflicts(solver),
            sat_calls: ledger.sat_calls,
        };
        if remaining == 0 {
            return Err(timeout(self, solver));
        }
        if let Some(deadline) = self.budget.deadline {
            if Instant::now() >= deadline {
                return Err(timeout(self, solver));
            }
        }
        let call = SolveBudget {
            max_conflicts: self.budget.max_conflicts_per_call.min(remaining),
            deadline: self.budget.deadline,
        };
        self.sat_calls += 1;
        match solver.solve(assumptions, &call) {
            SolveOutcome::BudgetExhausted => Err(timeout(self, solver)),
            verdict => Ok(verdict),
        }
    }
}

/// The features `lits` pin, as a mask over every feature.
fn features_of(enc: &ForestEncoding, lits: impl IntoIterator<Item = Lit>) -> Vec<bool> {
    let mut mask = vec![false; enc.n_features()];
    for j in lits.into_iter().filter_map(|l| enc.feature_of(l)) {
        mask[j] = true;
    }
    mask
}

impl AbductiveEngine {
    /// Encodes `forest` and prepares a solver. The forest is cloned so the
    /// engine can later report vote counts without a live reference.
    pub fn new(forest: &RandomForest) -> Result<Self, XsatError> {
        let encoding = ForestEncoding::encode(forest)?;
        let solver = Solver::from_cnf(encoding.cnf());
        Ok(Self { forest: forest.clone(), encoding, solver })
    }

    /// The underlying encoding (threshold grids, guards).
    pub fn encoding(&self) -> &ForestEncoding {
        &self.encoding
    }

    /// Explains the majority-vote prediction for `x` within `budget`.
    ///
    /// # Errors
    ///
    /// - [`InputError::LengthMismatch`] when `x` does not have one value
    ///   per forest feature.
    /// - [`DrcshapError::ExplanationTimeout`] when the budget runs out —
    ///   the caller decides whether to degrade (serve path falls back to
    ///   SHAP-only) or retry with a larger budget.
    /// - [`DrcshapError::Xsat`] with [`XsatError::EncodingInvariant`] if
    ///   fixing *every* used feature fails to force the predicted class —
    ///   an internal contradiction between encoder and forest that must
    ///   never happen; surfaced as a typed error, not a panic.
    pub fn explain(
        &mut self,
        x: &[f32],
        budget: &XsatBudget,
    ) -> Result<AbductiveExplanation, DrcshapError> {
        let _span = telemetry::span_with("xsat/explain", || format!("{} features", x.len()));
        let expected = self.encoding.n_features();
        if x.len() != expected {
            return Err(InputError::LengthMismatch { expected, found: x.len() }.into());
        }
        let votes_for = forest_vote_count(&self.forest, x);
        let n_trees = self.forest.trees().len();
        let predicted_hotspot = 2 * votes_for > n_trees;
        // To prove a feature set sufficient we ask for a completion of the
        // *opposite* class and expect UNSAT.
        let flip_guard = if predicted_hotspot {
            self.encoding.guard_not_hotspot()
        } else {
            self.encoding.guard_hotspot()
        };
        let used = self.encoding.used_features();
        let (enc, solver) = (&self.encoding, &mut self.solver);
        let mut ledger = BudgetLedger::new(budget, solver);
        let mut assumptions = Vec::new();
        // One SAT call: the guard, then `fixed` pinned to `x`'s grid cells,
        // in that order.
        let mut query = |solver: &mut Solver, fixed: &mut dyn Iterator<Item = &usize>| {
            assumptions.clear();
            assumptions.push(flip_guard);
            for &j in fixed {
                enc.fix_feature(j, x[j], &mut assumptions);
            }
            ledger.solve(solver, &assumptions)
        };

        // Invariant: fixing every used feature pins the whole grid cell, so
        // the opposite class must be impossible. Anything else means the
        // encoding disagrees with the forest.
        if query(solver, &mut used.iter().rev())? != SolveOutcome::Unsat {
            return Err(XsatError::EncodingInvariant {
                detail: format!(
                    "fixing all {} used features does not force the predicted class \
                     (vote {votes_for}/{n_trees})",
                    used.len()
                ),
            }
            .into());
        }

        // Deletion loop for the sufficient reason, in ascending order. An
        // UNSAT call's final conflict pins a sufficient subset of the
        // candidate. The current set always contains the last such core, so
        // dropping a feature outside it leaves a superset of a sufficient
        // set: it drops without a call. Kept features are planted first and
        // the untested tail from the highest index down, so the next core
        // draws on the features tested last.
        let core = |solver: &Solver| features_of(enc, solver.failed_assumptions().iter().copied());
        let mut in_core = core(solver);
        let mut sufficient = Vec::new();
        for (i, &j) in used.iter().enumerate() {
            if !in_core[j] {
                continue;
            }
            let verdict = query(solver, &mut sufficient.iter().chain(used[i + 1..].iter().rev()))?;
            if verdict == SolveOutcome::Unsat {
                in_core = core(solver); // still sufficient without `j`
            } else {
                sufficient.push(j); // necessary; keep it
            }
        }

        // Contrastive dual: a minimal set of features whose change alone
        // can flip the class, shrunk from "all used free" by pinning each
        // feature in turn while the rest can still flip. A SAT model leaves
        // `x`'s cell only on the features it moved, so pinning a feature it
        // did not move stays flippable without a call. Saved phases start
        // every feature in `x`'s cell to keep models close to `x`. If even
        // all-free is UNSAT the forest is constant: no contrastive set.
        let mut cell = Vec::new();
        for &j in &used {
            enc.fix_feature(j, x[j], &mut cell);
        }
        let mut flip = |solver: &mut Solver, fixed: &mut dyn Iterator<Item = &usize>| {
            cell.iter().for_each(|&l| solver.set_phase(l));
            let verdict = query(solver, fixed)?;
            Ok::<_, DrcshapError>((verdict == SolveOutcome::Sat).then(|| {
                features_of(enc, cell.iter().copied().filter(|l| !l.eval(solver.value(l.var()))))
            }))
        };
        let mut contrastive = Vec::new();
        if let Some(mut moved) = flip(solver, &mut std::iter::empty())? {
            let mut pinned = Vec::new();
            for &j in &used {
                if moved[j] {
                    match flip(solver, &mut pinned.iter().chain([&j]))? {
                        Some(now_moved) => moved = now_moved,
                        None => {
                            contrastive.push(j); // must stay free
                            continue;
                        }
                    }
                }
                pinned.push(j);
            }
        }

        let stats = solver.stats();
        telemetry::counter("xsat/explanations", 1);
        telemetry::counter("xsat/explanation_features", sufficient.len() as u64);
        Ok(AbductiveExplanation {
            predicted_hotspot,
            votes_for,
            n_trees,
            intervals: sufficient
                .iter()
                .map(|&j| ExplainedFeature {
                    feature: j,
                    value: x[j],
                    interval: enc.interval_of(j, x[j]),
                })
                .collect(),
            sufficient,
            contrastive,
            sat_calls: ledger.sat_calls,
            conflicts: ledger.spent_conflicts(solver),
            propagations: stats.propagations - ledger.start.propagations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::forest_vote;
    use drcshap_forest::RandomForestTrainer;
    use drcshap_ml::{Dataset, Trainer};
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_forest(seed: u64, n_features: usize, n_trees: usize) -> RandomForest {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = 80;
        let mut xs = Vec::with_capacity(n * n_features);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let row: Vec<f32> = (0..n_features).map(|_| rng.gen_range(0.0f32..1.0)).collect();
            ys.push(row[0] + 0.5 * row[n_features - 1] > 0.8);
            xs.extend_from_slice(&row);
        }
        let groups: Vec<u32> = (0..n as u32).map(|i| i % 4).collect();
        let data = Dataset::from_parts(xs, ys, groups, n_features);
        RandomForestTrainer { n_trees, max_depth: Some(4), ..Default::default() }
            .fit(&data, seed ^ 0x5EED)
    }

    /// Exhaustively verify sufficiency over the threshold grid: every
    /// completion of the free features (one representative per interval)
    /// keeps the class.
    fn verify_sufficient(
        forest: &RandomForest,
        enc: &ForestEncoding,
        x: &[f32],
        fixed: &[usize],
        want: bool,
    ) -> bool {
        let m = x.len();
        let reps: Vec<Vec<f32>> = (0..m)
            .map(|j| {
                if fixed.contains(&j) {
                    vec![x[j]]
                } else {
                    let ts = enc.thresholds(j);
                    let mut r: Vec<f32> = ts.to_vec();
                    r.push(ts.last().copied().unwrap_or(0.0) + 1.0);
                    r
                }
            })
            .collect();
        let mut probe = x.to_vec();
        let mut idx = vec![0usize; m];
        loop {
            for j in 0..m {
                probe[j] = reps[j][idx[j]];
            }
            if forest_vote(forest, &probe) != want {
                return false;
            }
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

    #[test]
    fn explanations_are_sufficient_and_subset_minimal() {
        for seed in 0..6u64 {
            let forest = tiny_forest(seed, 3, 3);
            let mut engine = AbductiveEngine::new(&forest).expect("encodable");
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xAB);
            for _ in 0..4 {
                let x: Vec<f32> = (0..3).map(|_| rng.gen_range(0.0f32..1.0)).collect();
                let ex = engine.explain(&x, &XsatBudget::default()).expect("explains");
                assert_eq!(ex.predicted_hotspot, forest_vote(&forest, &x));
                assert!(
                    verify_sufficient(
                        &forest,
                        engine.encoding(),
                        &x,
                        &ex.sufficient,
                        ex.predicted_hotspot
                    ),
                    "seed {seed}: sufficient set {:?} fails brute force",
                    ex.sufficient
                );
                // Subset-minimality: dropping any single feature breaks it.
                for drop in 0..ex.sufficient.len() {
                    let mut reduced = ex.sufficient.clone();
                    reduced.remove(drop);
                    assert!(
                        !verify_sufficient(
                            &forest,
                            engine.encoding(),
                            &x,
                            &reduced,
                            ex.predicted_hotspot
                        ),
                        "seed {seed}: {:?} is not minimal (can drop {})",
                        ex.sufficient,
                        ex.sufficient[drop]
                    );
                }
            }
        }
    }

    #[test]
    fn contrastive_sets_hit_the_sufficient_reason() {
        // Hitting-set duality: every contrastive set intersects every
        // sufficient reason (when both are non-empty).
        for seed in 0..4u64 {
            let forest = tiny_forest(seed, 3, 5);
            let mut engine = AbductiveEngine::new(&forest).expect("encodable");
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xCD);
            let x: Vec<f32> = (0..3).map(|_| rng.gen_range(0.0f32..1.0)).collect();
            let ex = engine.explain(&x, &XsatBudget::default()).expect("explains");
            if !ex.contrastive.is_empty() && !ex.sufficient.is_empty() {
                assert!(
                    ex.contrastive.iter().any(|j| ex.sufficient.contains(j)),
                    "seed {seed}: contrastive {:?} misses sufficient {:?}",
                    ex.contrastive,
                    ex.sufficient
                );
            }
        }
    }

    #[test]
    fn explanations_are_deterministic() {
        let forest = tiny_forest(9, 3, 5);
        let x = [0.3f32, 0.7, 0.5];
        let run = || {
            let mut engine = AbductiveEngine::new(&forest).expect("encodable");
            let ex = engine.explain(&x, &XsatBudget::default()).expect("explains");
            (ex.sufficient, ex.contrastive, ex.sat_calls, ex.conflicts)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_budget_times_out_with_typed_error() {
        let forest = tiny_forest(2, 3, 5);
        let mut engine = AbductiveEngine::new(&forest).expect("encodable");
        let got = engine.explain(&[0.5, 0.5, 0.5], &XsatBudget::conflicts(0));
        match got {
            Err(DrcshapError::ExplanationTimeout { sat_calls, .. }) => {
                assert_eq!(sat_calls, 0);
            }
            other => panic!("expected ExplanationTimeout, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_times_out() {
        let forest = tiny_forest(2, 3, 5);
        let mut engine = AbductiveEngine::new(&forest).expect("encodable");
        let budget = XsatBudget {
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            ..XsatBudget::default()
        };
        assert!(matches!(
            engine.explain(&[0.5, 0.5, 0.5], &budget),
            Err(DrcshapError::ExplanationTimeout { .. })
        ));
    }

    #[test]
    fn rows_of_the_wrong_length_are_typed_errors() {
        let forest = tiny_forest(2, 3, 5);
        let mut engine = AbductiveEngine::new(&forest).expect("encodable");
        for x in [&[0.5f32, 0.5][..], &[0.5, 0.5, 0.5, 0.5]] {
            match engine.explain(x, &XsatBudget::default()) {
                Err(DrcshapError::Input(InputError::LengthMismatch { expected: 3, found })) => {
                    assert_eq!(found, x.len());
                }
                other => panic!("expected LengthMismatch for {} values, got {other:?}", x.len()),
            }
        }
        // The engine stays usable afterwards.
        engine.explain(&[0.5, 0.5, 0.5], &XsatBudget::default()).expect("explains");
    }

    #[test]
    fn unused_features_never_appear() {
        // Feature 1 of a single-split-feature dataset: make feature 2 pure
        // noise that the label ignores; it can still be split on by chance,
        // so assert only about features the encoding reports unused.
        let forest = tiny_forest(4, 3, 3);
        let mut engine = AbductiveEngine::new(&forest).expect("encodable");
        let used = engine.encoding().used_features();
        let ex = engine.explain(&[0.2, 0.9, 0.6], &XsatBudget::default()).expect("explains");
        for j in ex.sufficient.iter().chain(ex.contrastive.iter()) {
            assert!(used.contains(j), "feature {j} is unused but appeared in an explanation");
        }
    }
}
