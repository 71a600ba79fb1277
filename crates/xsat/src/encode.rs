//! Propositional encoding of a trained [`RandomForest`]'s decision function.
//!
//! The encoding follows the standard interval-abstraction construction for
//! tree ensembles (Izza & Marques-Silva, "On Explaining Random Forests with
//! SAT"):
//!
//! - For each feature `j`, the distinct split thresholds `t_1 < … < t_k`
//!   used anywhere in the forest partition the real line into `k + 1`
//!   intervals. A Boolean *interval literal* `d[j][i]` means `x_j ≤ t_i`;
//!   ordering clauses `d[j][i] → d[j][i+1]` make every assignment of the
//!   `d` variables correspond to exactly one interval — and every interval
//!   to a realizable real value. Two instances in the same cell of this
//!   grid are indistinguishable to the forest, so reasoning over the grid
//!   is exact, not approximate.
//! - For each leaf `L` of each tree, a leaf variable with binary clauses
//!   `L → lit` for every threshold test on the root-to-leaf path, plus one
//!   at-least-one-leaf clause per tree. At-most-one is implied: two leaves
//!   of a tree disagree on the split literal at their lowest common
//!   ancestor.
//! - A vote variable `v_t` per tree (`L → v_t` for hotspot leaves,
//!   `L → ¬v_t` otherwise; a tree votes *hotspot* when its leaf value is
//!   `≥ 0.5`).
//! - Two *guarded* Sinz cardinality constraints over the vote variables
//!   share the formula: under assumption [`ForestEncoding::guard_hotspot`]
//!   the votes must reach a strict majority, under
//!   [`ForestEncoding::guard_not_hotspot`] they must not. The abductive
//!   engine switches the targeted class per SAT call through assumptions
//!   instead of rebuilding the CNF.
//!
//! The classifier being explained is therefore the **majority vote** over
//! trees (ties break to *not hotspot*), exposed as [`forest_vote`] so every
//! consumer — engine, oracle, brute-force verifier — shares one definition.

use drcshap_forest::{DecisionTree, RandomForest, TreeNode};
use drcshap_ml::XsatError;
use drcshap_telemetry as telemetry;

use crate::cnf::{Cnf, Lit};

/// Whether one tree votes *hotspot* for `x` (leaf probability `≥ 0.5`).
pub fn tree_vote(tree: &DecisionTree, x: &[f32]) -> bool {
    tree.predict(x) >= 0.5
}

/// The majority-vote classification of `x`: `true` (*hotspot*) when a
/// strict majority of trees vote hotspot; ties go to *not hotspot*.
pub fn forest_vote(forest: &RandomForest, x: &[f32]) -> bool {
    2 * forest_vote_count(forest, x) > forest.trees().len()
}

/// How many trees vote hotspot for `x`.
pub fn forest_vote_count(forest: &RandomForest, x: &[f32]) -> usize {
    forest.trees().iter().filter(|t| tree_vote(t, x)).count()
}

/// The interval literals of one feature.
#[derive(Debug, Clone, Default)]
struct FeatureVars {
    /// Distinct split thresholds, ascending. Empty when the forest never
    /// splits on this feature (the feature is trivially irrelevant).
    thresholds: Vec<f32>,
    /// `vars[i]` is the variable of `d[j][i]`: "`x_j ≤ thresholds[i]`".
    vars: Vec<u32>,
}

/// A half-open interval `(lower, upper]` of feature values; `None` bounds
/// are infinite. This is the coarsest region around an instance's value
/// that the forest cannot distinguish from it.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct FeatureInterval {
    /// Exclusive lower bound (`None` = `-∞`).
    pub lower: Option<f32>,
    /// Inclusive upper bound (`None` = `+∞`).
    pub upper: Option<f32>,
}

/// The CNF image of a forest's majority-vote decision function.
#[derive(Debug, Clone)]
pub struct ForestEncoding {
    cnf: Cnf,
    features: Vec<FeatureVars>,
    /// Variable -> the feature it is an interval literal of.
    var_feature: Vec<Option<u32>>,
    guard_hotspot: Lit,
    guard_not_hotspot: Lit,
    n_trees: usize,
}

impl ForestEncoding {
    /// Encodes `forest` into CNF.
    ///
    /// Fails with [`XsatError::UnsupportedModel`] only for shapes the
    /// encoding cannot express (currently: non-finite split thresholds,
    /// which would break the interval abstraction).
    pub fn encode(forest: &RandomForest) -> Result<Self, XsatError> {
        let _span = telemetry::span("xsat/encode");
        let mut cnf = Cnf::new();

        // Pass 1: per-feature sorted, deduplicated split thresholds.
        let mut thresholds: Vec<Vec<f32>> = vec![Vec::new(); forest.n_features()];
        for tree in forest.trees() {
            for node in tree.nodes() {
                if !node.is_leaf() {
                    if !node.threshold.is_finite() {
                        return Err(XsatError::UnsupportedModel {
                            detail: format!(
                                "non-finite split threshold {} on feature {}",
                                node.threshold, node.feature
                            ),
                        });
                    }
                    thresholds[node.feature as usize].push(node.threshold);
                }
            }
        }
        let mut features = Vec::with_capacity(thresholds.len());
        for mut ts in thresholds {
            ts.sort_by(f32::total_cmp);
            ts.dedup();
            let vars: Vec<u32> = ts.iter().map(|_| cnf.new_var()).collect();
            // Ordering: x ≤ t_i implies x ≤ t_{i+1}.
            for w in vars.windows(2) {
                cnf.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]);
            }
            features.push(FeatureVars { thresholds: ts, vars });
        }

        // Pass 2: leaf and vote variables per tree.
        let mut vote_lits = Vec::with_capacity(forest.trees().len());
        for tree in forest.trees() {
            let vote = Lit::pos(cnf.new_var());
            vote_lits.push(vote);
            let mut leaf_lits = Vec::new();
            let mut path: Vec<Lit> = Vec::new();
            encode_subtree(&mut cnf, &features, tree.nodes(), 0, &mut path, vote, &mut leaf_lits);
            cnf.add_clause(&leaf_lits);
        }

        // Pass 3: the two guarded majority constraints. Strict majority =
        // at least ⌊n/2⌋ + 1 votes; its complement is at most ⌊n/2⌋.
        let guard_hotspot = Lit::pos(cnf.new_var());
        let guard_not_hotspot = Lit::pos(cnf.new_var());
        let n = forest.trees().len();
        cnf.add_at_least_k(&vote_lits, n / 2 + 1, Some(guard_hotspot));
        cnf.add_at_most_k(&vote_lits, n / 2, Some(guard_not_hotspot));

        let mut var_feature = vec![None; cnf.n_vars() as usize];
        for (j, f) in features.iter().enumerate() {
            for &v in &f.vars {
                var_feature[v as usize] = Some(j as u32);
            }
        }
        Ok(Self { cnf, features, var_feature, guard_hotspot, guard_not_hotspot, n_trees: n })
    }

    /// The finished formula.
    pub fn cnf(&self) -> &Cnf {
        &self.cnf
    }

    /// Features the encoding covers (the forest's feature count).
    pub fn n_features(&self) -> usize {
        self.features.len()
    }

    /// Trees in the encoded forest.
    pub fn n_trees(&self) -> usize {
        self.n_trees
    }

    /// Features the forest actually splits on, ascending. Features outside
    /// this set cannot influence any prediction and are dropped from
    /// explanations up front.
    pub fn used_features(&self) -> Vec<usize> {
        (0..self.features.len()).filter(|&j| !self.features[j].thresholds.is_empty()).collect()
    }

    /// The distinct split thresholds of feature `j`, ascending. The grid
    /// cells `(-∞, t_1], (t_1, t_2], …, (t_k, ∞)` are the forest's
    /// resolution on this feature — the brute-force oracle enumerates one
    /// representative per cell.
    pub fn thresholds(&self, j: usize) -> &[f32] {
        &self.features[j].thresholds
    }

    /// Assumption guard selecting "classified hotspot" (strict majority).
    pub fn guard_hotspot(&self) -> Lit {
        self.guard_hotspot
    }

    /// Assumption guard selecting "classified not-hotspot".
    pub fn guard_not_hotspot(&self) -> Lit {
        self.guard_not_hotspot
    }

    /// Appends to `out` the interval literals that pin feature `j` to the
    /// grid cell containing `value`. A NaN value takes the `(t_k, ∞)` cell
    /// — every comparison `x ≤ t` is false — matching how
    /// [`DecisionTree::predict`] routes NaN (right at every split).
    pub fn fix_feature(&self, j: usize, value: f32, out: &mut Vec<Lit>) {
        let f = &self.features[j];
        for (i, &t) in f.thresholds.iter().enumerate() {
            out.push(Lit::with_sign(f.vars[i], value <= t));
        }
    }

    /// The feature `lit` pins when it is an interval literal; `None` for
    /// leaf, vote, counter and guard literals.
    pub(crate) fn feature_of(&self, lit: Lit) -> Option<usize> {
        self.var_feature.get(lit.var() as usize).copied().flatten().map(|j| j as usize)
    }

    /// The grid cell of feature `j` containing `value` as explicit bounds.
    pub fn interval_of(&self, j: usize, value: f32) -> FeatureInterval {
        let ts = &self.features[j].thresholds;
        // `is_none_or` keeps NaN (incomparable) in the open top cell,
        // matching the all-intervals-false encoding in `fix_feature`.
        let i = ts.partition_point(|&t| value.partial_cmp(&t).is_none_or(|o| o.is_gt()));
        FeatureInterval {
            lower: if i == 0 { None } else { Some(ts[i - 1]) },
            upper: ts.get(i).copied(),
        }
    }
}

/// Recursive walk adding leaf variables and path-implication clauses.
fn encode_subtree(
    cnf: &mut Cnf,
    features: &[FeatureVars],
    nodes: &[TreeNode],
    idx: usize,
    path: &mut Vec<Lit>,
    vote: Lit,
    leaf_lits: &mut Vec<Lit>,
) {
    let node = &nodes[idx];
    if node.is_leaf() {
        let leaf = Lit::pos(cnf.new_var());
        leaf_lits.push(leaf);
        for &p in path.iter() {
            cnf.add_clause(&[leaf.negate(), p]);
        }
        let v = if node.value >= 0.5 { vote } else { vote.negate() };
        cnf.add_clause(&[leaf.negate(), v]);
        return;
    }
    let f = &features[node.feature as usize];
    let i = f
        .thresholds
        .binary_search_by(|t| t.total_cmp(&node.threshold))
        .expect("split threshold was collected in pass 1");
    let d = Lit::pos(f.vars[i]);
    path.push(d);
    encode_subtree(cnf, features, nodes, node.left as usize, path, vote, leaf_lits);
    path.pop();
    path.push(d.negate());
    encode_subtree(cnf, features, nodes, node.right as usize, path, vote, leaf_lits);
    path.pop();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::brute_force;
    use crate::solver::{SolveBudget, SolveOutcome, Solver};
    use drcshap_forest::RandomForestTrainer;
    use drcshap_ml::{Dataset, Trainer};
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_forest(seed: u64, n_features: usize, n_trees: usize) -> RandomForest {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = 60;
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

    /// The encoding is *exact*: for every grid cell (one representative
    /// value per interval per feature), the CNF under the cell's
    /// assumptions is satisfiable with exactly the guard matching the
    /// forest's majority vote.
    #[test]
    fn encoding_agrees_with_forest_on_every_grid_cell() {
        for seed in 0..3u64 {
            let forest = tiny_forest(seed, 2, 3);
            let enc = ForestEncoding::encode(&forest).expect("encodable");
            let reps: Vec<Vec<f32>> = (0..2)
                .map(|j| {
                    let ts = enc.thresholds(j);
                    let mut r: Vec<f32> = ts.to_vec();
                    r.push(ts.last().copied().unwrap_or(0.0) + 1.0);
                    r
                })
                .collect();
            let mut solver = Solver::from_cnf(enc.cnf());
            for &a in &reps[0] {
                for &b in &reps[1] {
                    let x = [a, b];
                    let want_hot = forest_vote(&forest, &x);
                    let mut assumptions = Vec::new();
                    enc.fix_feature(0, a, &mut assumptions);
                    enc.fix_feature(1, b, &mut assumptions);
                    assumptions.push(enc.guard_hotspot());
                    let hot = solver.solve(&assumptions, &SolveBudget::unlimited());
                    *assumptions.last_mut().unwrap() = enc.guard_not_hotspot();
                    let cold = solver.solve(&assumptions, &SolveBudget::unlimited());
                    assert_eq!(
                        (hot, cold),
                        if want_hot {
                            (SolveOutcome::Sat, SolveOutcome::Unsat)
                        } else {
                            (SolveOutcome::Unsat, SolveOutcome::Sat)
                        },
                        "seed {seed}, cell ({a}, {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn cdcl_and_brute_force_agree_on_an_encoded_forest() {
        // A deliberately tiny forest so full enumeration stays feasible.
        let forest = tiny_forest(7, 2, 1);
        let enc = ForestEncoding::encode(&forest).expect("encodable");
        if enc.cnf().n_vars() > 24 {
            return; // depth cap keeps this rare; skip rather than blow up
        }
        let mut solver = Solver::from_cnf(enc.cnf());
        for guard in [enc.guard_hotspot(), enc.guard_not_hotspot()] {
            let got = solver.solve(&[guard], &SolveBudget::unlimited());
            let want = brute_force(enc.cnf(), &[guard]);
            assert_eq!(got == SolveOutcome::Sat, want.is_some());
        }
    }

    #[test]
    fn interval_of_brackets_the_value() {
        let forest = tiny_forest(11, 3, 4);
        let enc = ForestEncoding::encode(&forest).expect("encodable");
        for &j in &enc.used_features() {
            let ts = enc.thresholds(j);
            let below = enc.interval_of(j, ts[0] - 1.0);
            assert_eq!(below, FeatureInterval { lower: None, upper: Some(ts[0]) });
            let at = enc.interval_of(j, ts[0]);
            assert_eq!(at.upper, Some(ts[0]), "inclusive upper bound");
            let above = enc.interval_of(j, ts[ts.len() - 1] + 1.0);
            assert_eq!(above, FeatureInterval { lower: Some(ts[ts.len() - 1]), upper: None });
            // NaN routes right at every split: the unbounded top cell.
            let nan = enc.interval_of(j, f32::NAN);
            assert_eq!(nan.upper, None);
        }
    }

    #[test]
    fn interval_literals_map_back_to_their_feature() {
        let forest = tiny_forest(11, 3, 4);
        let enc = ForestEncoding::encode(&forest).expect("encodable");
        for j in 0..enc.n_features() {
            let mut lits = Vec::new();
            enc.fix_feature(j, 0.5, &mut lits);
            assert!(lits.iter().all(|&l| enc.feature_of(l) == Some(j)), "feature {j}");
        }
        assert_eq!(enc.feature_of(enc.guard_hotspot()), None);
        assert_eq!(enc.feature_of(enc.guard_not_hotspot()), None);
    }

    #[test]
    fn nan_assumptions_match_predict_routing() {
        let forest = tiny_forest(3, 2, 3);
        let enc = ForestEncoding::encode(&forest).expect("encodable");
        let x = [f32::NAN, 0.4];
        let want_hot = forest_vote(&forest, &x);
        let mut assumptions = Vec::new();
        enc.fix_feature(0, x[0], &mut assumptions);
        enc.fix_feature(1, x[1], &mut assumptions);
        assumptions.push(if want_hot { enc.guard_hotspot() } else { enc.guard_not_hotspot() });
        let mut solver = Solver::from_cnf(enc.cnf());
        assert_eq!(solver.solve(&assumptions, &SolveBudget::unlimited()), SolveOutcome::Sat);
    }
}
