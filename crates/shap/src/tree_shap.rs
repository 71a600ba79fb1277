//! The polynomial-time SHAP tree explainer (Lundberg, Erion & Lee 2018,
//! Algorithm 2), path-dependent variant.
//!
//! The algorithm pushes a "path" of (feature, zero-fraction, one-fraction,
//! permutation-weight) records down the tree. At each split, the fraction of
//! conditional subsets that flow left/right is tracked exactly via the
//! EXTEND/UNWIND recurrences, so every leaf contributes its value to each
//! feature's Shapley sum with the correct combinatorial weight — no subset
//! enumeration, no feature-independence assumption (interactions are
//! captured by the tree structure itself, §III-C of the reproduced paper).
//!
//! # Allocation
//!
//! The recursion keeps all live decision paths in one flat arena owned by
//! [`TreeShapScratch`]: each call's path occupies a contiguous region, the
//! "hot" child gets a copy appended after it, and the "cold" child reuses
//! the parent's region in place. A whole tree walk therefore costs zero
//! allocations once the arena is warm, and [`tree_shap_into`] lets callers
//! (the forest explainer, the serving engine) reuse one scratch across
//! thousands of trees.
//!
//! # The leaf kernel
//!
//! At a leaf, every path element needs the total weight of the path with
//! that element unwound. Each total is a serial chain of f64 divisions, but
//! the chains of different elements are independent, so [`add_leaf`] walks
//! the path positions once and advances every element's sum by one step per
//! position. Each sum performs exactly the operations of the one-element
//! loop in the same order, and a feature appears at most once on a path, so
//! φ is bit-for-bit what the one-sum-at-a-time loop gives (DESIGN.md §18).

use drcshap_forest::{DecisionTree, TreeNode};

/// One element of the decision path.
#[derive(Debug, Clone, Copy)]
struct PathElem {
    /// Feature that split this path step, `-1` for the root sentinel.
    d: i32,
    /// Fraction of "zero" (feature-unknown) subsets flowing this way.
    z: f64,
    /// Fraction of "one" (feature-known) subsets flowing this way (0 or 1).
    o: f64,
    /// Permutation weight.
    w: f64,
}

const EMPTY: PathElem = PathElem { d: -1, z: 0.0, o: 0.0, w: 0.0 };

/// The `pi` of a step that leaves the path as it is: a conditional pass
/// crossing a split on its conditioning feature.
const PASS: i32 = -2;

/// Reusable scratch memory for the tree explainer: the flat path arena and
/// the leaf kernel's running sums.
///
/// Create one per thread and pass it to [`tree_shap_into`] for every tree;
/// it grows to the working-set high-water mark (`O(depth²)` path elements,
/// one sum per element of the longest path) and is never shrunk, so
/// steady-state explanation allocates nothing.
#[derive(Debug, Default)]
pub struct TreeShapScratch {
    arena: Vec<PathElem>,
    leaf: LeafSums,
}

impl TreeShapScratch {
    /// An empty scratch; the arena grows on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One running unwound sum per path element of the current leaf. Entries
/// `..chained` are the elements with `o != 0` (their sums carry a term from
/// step to step), the rest have `o == 0` (independent terms).
#[derive(Debug, Default)]
struct LeafSums {
    /// Path position of each sum.
    pos: Vec<usize>,
    o: Vec<f64>,
    z: Vec<f64>,
    /// The carried term of a chained sum.
    n: Vec<f64>,
    total: Vec<f64>,
}

/// A feature taken out of the game by conditional TreeSHAP: fixed to its
/// observed value (`present`) or marginalized by training covers.
#[derive(Debug, Clone, Copy)]
struct Condition {
    feature: u32,
    present: bool,
}

/// Computes the SHAP values of `tree` for sample `x`.
///
/// Returns one value per feature; `Σ φ + E[f] = f(x)` exactly (up to
/// floating-point error), where `E[f]` is the cover-weighted expectation of
/// the tree (its root value).
///
/// Allocates a fresh scratch per call; hot paths that explain many trees
/// should hold a [`TreeShapScratch`] and call [`tree_shap_into`].
///
/// # Panics
///
/// Panics if `x.len() != tree.n_features()`.
pub fn tree_shap(tree: &DecisionTree, x: &[f32]) -> Vec<f64> {
    let mut phi = vec![0.0; tree.n_features()];
    let mut scratch = TreeShapScratch::new();
    tree_shap_into(tree, x, &mut scratch, &mut phi);
    phi
}

/// Accumulates the SHAP values of `tree` for sample `x` into `phi`
/// (`phi[j] += φⱼ`), reusing `scratch` for all intermediate state.
///
/// The accumulate-don't-overwrite contract is what forest explanation
/// wants (per-tree values are summed anyway); callers after a single
/// tree's values must zero `phi` first.
///
/// # Panics
///
/// Panics if `x.len()` or `phi.len()` differs from `tree.n_features()`.
pub fn tree_shap_into(
    tree: &DecisionTree,
    x: &[f32],
    scratch: &mut TreeShapScratch,
    phi: &mut [f64],
) {
    walk(tree, x, None, scratch, phi);
}

/// Accumulates into `phi` the SHAP values of the `M−1`-feature game where
/// feature `cond` is removed: fixed to its observed value (`present`) or
/// marginalized by training covers. The building block of interaction
/// values ([`crate::interactions`]).
///
/// # Panics
///
/// Panics if `x.len()` or `phi.len()` differs from `tree.n_features()`.
pub(crate) fn conditional_shap_into(
    tree: &DecisionTree,
    x: &[f32],
    cond: usize,
    present: bool,
    scratch: &mut TreeShapScratch,
    phi: &mut [f64],
) {
    walk(tree, x, Some(Condition { feature: cond as u32, present }), scratch, phi);
}

fn walk(
    tree: &DecisionTree,
    x: &[f32],
    cond: Option<Condition>,
    scratch: &mut TreeShapScratch,
    phi: &mut [f64],
) {
    assert_eq!(x.len(), tree.n_features(), "feature count mismatch");
    assert_eq!(phi.len(), tree.n_features(), "phi length mismatch");
    recurse(tree.nodes(), 0, 0, 0, 1.0, 1.0, -1, cond, 1.0, x, phi, scratch);
}

/// The recursion. The current call's path lives in
/// `arena[start .. start + len]`; everything below `start` belongs to
/// ancestors and is never touched. `cond_frac` is the share of the
/// conditioning feature's subsets that reach this node (1 without one).
#[allow(clippy::too_many_arguments)]
fn recurse(
    nodes: &[TreeNode],
    j: usize,
    start: usize,
    len: usize,
    pz: f64,
    po: f64,
    pi: i32,
    cond: Option<Condition>,
    cond_frac: f64,
    x: &[f32],
    phi: &mut [f64],
    scratch: &mut TreeShapScratch,
) {
    if cond_frac == 0.0 {
        return;
    }
    let mut len = len;
    if pi != PASS {
        let arena = &mut scratch.arena;
        if arena.len() < start + len + 1 {
            arena.resize(start + len + 1, EMPTY);
        }
        extend(&mut arena[start..start + len + 1], pz, po, pi);
        len += 1;
    }

    let node = &nodes[j];
    if node.is_leaf() {
        let path = &scratch.arena[start..start + len];
        add_leaf(path, node.value, cond_frac, &mut scratch.leaf, phi);
        return;
    }

    let f = node.feature as usize;
    let (hot, cold) = if x[f] <= node.threshold {
        (node.left as usize, node.right as usize)
    } else {
        (node.right as usize, node.left as usize)
    };
    let rj = node.cover.max(1e-12);
    let hot_frac = nodes[hot].cover / rj;
    let cold_frac = nodes[cold].cover / rj;

    // The conditioning feature is outside the game: never extend the path
    // for it; follow the sample (present) or average by cover (absent).
    if let Some(c) = cond.filter(|c| c.feature == node.feature) {
        if c.present {
            recurse(nodes, hot, start, len, 1.0, 1.0, PASS, cond, cond_frac, x, phi, scratch);
        } else {
            let child_start = copy_path(&mut scratch.arena, start, len);
            let hot_cond = cond_frac * hot_frac;
            recurse(nodes, hot, child_start, len, 1.0, 1.0, PASS, cond, hot_cond, x, phi, scratch);
            let cold_cond = cond_frac * cold_frac;
            recurse(nodes, cold, start, len, 1.0, 1.0, PASS, cond, cold_cond, x, phi, scratch);
        }
        return;
    }

    // If this feature already split above, undo its path entry and inherit
    // its fractions (each feature appears at most once on the path).
    let arena = &mut scratch.arena;
    let (mut iz, mut io) = (1.0, 1.0);
    if let Some(k) = arena[start + 1..start + len].iter().position(|e| e.d == node.feature as i32) {
        let k = k + 1;
        iz = arena[start + k].z;
        io = arena[start + k].o;
        unwind(&mut arena[start..start + len], k);
        len -= 1;
    }

    let d = node.feature as i32;
    let child_start = copy_path(arena, start, len);
    recurse(nodes, hot, child_start, len, iz * hot_frac, io, d, cond, cond_frac, x, phi, scratch);
    // Cold child: reuses this region in place (the `m` move).
    recurse(nodes, cold, start, len, iz * cold_frac, 0.0, d, cond, cond_frac, x, phi, scratch);
}

/// Appends a copy of the path `arena[start .. start + len]` right after it
/// (the arena equivalent of `m.clone()`) and returns where the copy starts.
/// A child only ever writes at or beyond its own region, so the original
/// survives for the sibling that runs next.
fn copy_path(arena: &mut Vec<PathElem>, start: usize, len: usize) -> usize {
    let child_start = start + len;
    if arena.len() < child_start + len {
        arena.resize(child_start + len, EMPTY);
    }
    arena.copy_within(start..start + len, child_start);
    child_start
}

/// Grows the path by one split, updating the permutation weights. The new
/// element lands in `m[l]` where `l = m.len() - 1` (the caller reserves the
/// slot).
fn extend(m: &mut [PathElem], pz: f64, po: f64, pi: i32) {
    let l = m.len() - 1;
    m[l] = PathElem { d: pi, z: pz, o: po, w: if l == 0 { 1.0 } else { 0.0 } };
    for i in (0..l).rev() {
        let w = m[i].w;
        m[i + 1].w += po * w * (i + 1) as f64 / (l + 1) as f64;
        m[i].w = pz * w * (l - i) as f64 / (l + 1) as f64;
    }
}

/// Removes path element `i`, exactly inverting [`extend`]. The logical
/// length shrinks by one; the caller drops the trailing slot.
fn unwind(m: &mut [PathElem], i: usize) {
    let l = m.len() - 1;
    let (o, z) = (m[i].o, m[i].z);
    let mut n = m[l].w;
    for j in (0..l).rev() {
        if o != 0.0 {
            let t = m[j].w;
            m[j].w = n * (l + 1) as f64 / ((j + 1) as f64 * o);
            n = t - m[j].w * z * (l - j) as f64 / (l + 1) as f64;
        } else {
            m[j].w = m[j].w * (l + 1) as f64 / (z * (l - j) as f64);
        }
    }
    for j in i..l {
        m[j].d = m[j + 1].d;
        m[j].z = m[j + 1].z;
        m[j].o = m[j + 1].o;
    }
}

/// The leaf update: for every element `i ≥ 1` of the path `m`,
/// `phi[m[i].d] += sum(UNWOUND(m, i).w) · (m[i].o − m[i].z) · value · scale`.
///
/// All the unwound sums advance together, one path position `j = l−1 … 0`
/// at a time, each performing the operations of the one-element loop in
/// its order: `t = (n·(l+1)) / ((j+1)·o)`, `n = m[j].w − ((t·z)·(l−j))/(l+1)`
/// for `o != 0`, and `(m[j].w·(l+1)) / (z·(l−j))` for `o == 0`.
fn add_leaf(m: &[PathElem], value: f64, scale: f64, sums: &mut LeafSums, phi: &mut [f64]) {
    let l = m.len() - 1;
    let LeafSums { pos, o, z, n, total } = sums;
    pos.clear();
    pos.extend((1..=l).filter(|&i| m[i].o != 0.0));
    let chained = pos.len();
    pos.extend((1..=l).filter(|&i| m[i].o == 0.0));
    for v in [&mut *o, &mut *z, &mut *n, &mut *total] {
        v.resize(l, 0.0);
    }
    for (k, &i) in pos.iter().enumerate() {
        o[k] = m[i].o;
        z[k] = m[i].z;
        n[k] = m[l].w;
        total[k] = 0.0;
    }

    let (co, cz, cn) = (&o[..chained], &z[..chained], &mut n[..chained]);
    let (c_total, f_total) = total.split_at_mut(chained);
    let fz = &z[chained..];
    let lp1 = (l + 1) as f64;
    for j in (0..l).rev() {
        let wj = m[j].w;
        let jp1 = (j + 1) as f64;
        let lmj = (l - j) as f64;
        for (((n, total), &o), &z) in cn.iter_mut().zip(c_total.iter_mut()).zip(co).zip(cz) {
            let t = *n * lp1 / (jp1 * o);
            *total += t;
            *n = wj - t * z * lmj / lp1;
        }
        let w_lp1 = wj * lp1;
        for (total, &z) in f_total.iter_mut().zip(fz) {
            *total += w_lp1 / (z * lmj);
        }
    }

    for (&i, &w) in pos.iter().zip(total.iter()) {
        phi[m[i].d as usize] += w * (m[i].o - m[i].z) * value * scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcshap_forest::TreeTrainer;
    use drcshap_ml::{Dataset, Trainer};
    use proptest::prelude::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The total permutation weight if element `i` were unwound (without
    /// mutating the path) — the `sum(UNWOUND(m, i).w)` of the leaf update,
    /// one element at a time: the reference `add_leaf` must match bit for
    /// bit.
    fn unwound_sum(m: &[PathElem], i: usize) -> f64 {
        let l = m.len() - 1;
        let (o, z) = (m[i].o, m[i].z);
        let mut total = 0.0;
        if o != 0.0 {
            let mut n = m[l].w;
            for j in (0..l).rev() {
                let t = n * (l + 1) as f64 / ((j + 1) as f64 * o);
                total += t;
                n = m[j].w - t * z * (l - j) as f64 / (l + 1) as f64;
            }
        } else {
            for j in (0..l).rev() {
                total += m[j].w * (l + 1) as f64 / (z * (l - j) as f64);
            }
        }
        total
    }

    /// The leaf update one element at a time, in path order.
    fn scalar_leaf(m: &[PathElem], value: f64, scale: f64, phi: &mut [f64]) {
        for i in 1..m.len() {
            let w = unwound_sum(m, i);
            phi[m[i].d as usize] += w * (m[i].o - m[i].z) * value * scale;
        }
    }

    /// Plain TreeSHAP with the scalar leaf update and a fresh `Vec` per
    /// path (the textbook formulation of Algorithm 2).
    fn reference_tree_shap(tree: &DecisionTree, x: &[f32]) -> Vec<f64> {
        #[allow(clippy::too_many_arguments)]
        fn go(
            nodes: &[TreeNode],
            j: usize,
            mut m: Vec<PathElem>,
            pz: f64,
            po: f64,
            pi: i32,
            x: &[f32],
            phi: &mut [f64],
        ) {
            m.push(EMPTY);
            extend(&mut m, pz, po, pi);
            let node = &nodes[j];
            if node.is_leaf() {
                scalar_leaf(&m, node.value, 1.0, phi);
                return;
            }
            let f = node.feature as usize;
            let (hot, cold) = if x[f] <= node.threshold {
                (node.left as usize, node.right as usize)
            } else {
                (node.right as usize, node.left as usize)
            };
            let (mut iz, mut io) = (1.0, 1.0);
            if let Some(k) = m[1..].iter().position(|e| e.d == node.feature as i32) {
                iz = m[k + 1].z;
                io = m[k + 1].o;
                unwind(&mut m, k + 1);
                m.pop();
            }
            let rj = node.cover.max(1e-12);
            let (hot_frac, cold_frac) = (nodes[hot].cover / rj, nodes[cold].cover / rj);
            let d = node.feature as i32;
            go(nodes, hot, m.clone(), iz * hot_frac, io, d, x, phi);
            go(nodes, cold, m, iz * cold_frac, 0.0, d, x, phi);
        }
        let mut phi = vec![0.0; tree.n_features()];
        go(tree.nodes(), 0, Vec::new(), 1.0, 1.0, -1, x, &mut phi);
        phi
    }

    fn dataset(rows: &[(&[f32], bool)]) -> Dataset {
        let m = rows[0].0.len();
        let mut x = Vec::new();
        let mut y = Vec::new();
        for (r, label) in rows {
            x.extend_from_slice(r);
            y.push(*label);
        }
        let n = y.len();
        Dataset::from_parts(x, y, vec![0; n], m)
    }

    #[test]
    fn single_split_tree_attributes_to_the_split_feature() {
        let data = dataset(&[
            (&[0.0, 5.0], false),
            (&[0.0, 6.0], false),
            (&[1.0, 5.0], true),
            (&[1.0, 6.0], true),
        ]);
        let tree = TreeTrainer { max_depth: Some(1), ..Default::default() }.fit(&data, 0);
        let phi = tree_shap(&tree, &[1.0, 5.0]);
        // E[f] = 0.5, f(x) = 1.0; all of the +0.5 belongs to feature 0.
        assert!((phi[0] - 0.5).abs() < 1e-12, "phi0 {}", phi[0]);
        assert!(phi[1].abs() < 1e-12);
        let phi_neg = tree_shap(&tree, &[0.0, 5.0]);
        assert!((phi_neg[0] + 0.5).abs() < 1e-12);
    }

    #[test]
    fn local_accuracy_on_deep_tree() {
        let data = dataset(&[
            (&[0.0, 0.0, 0.3], false),
            (&[0.0, 1.0, 0.7], true),
            (&[1.0, 0.0, 0.2], true),
            (&[1.0, 1.0, 0.9], false),
            (&[0.5, 0.5, 0.1], true),
            (&[0.2, 0.8, 0.6], false),
        ]);
        let tree = TreeTrainer::default().fit(&data, 0);
        for probe in [[0.0f32, 0.0, 0.3], [1.0, 1.0, 0.9], [0.4, 0.6, 0.5]] {
            let phi = tree_shap(&tree, &probe);
            let base = tree.nodes()[0].value;
            let sum: f64 = phi.iter().sum();
            let f = tree.predict(&probe);
            assert!(
                (base + sum - f).abs() < 1e-9,
                "local accuracy violated: {base} + {sum} != {f}"
            );
        }
    }

    #[test]
    fn symmetric_features_get_equal_credit() {
        // OR-like task where features 0 and 1 play identical roles.
        let data = dataset(&[
            (&[0.0, 0.0], false),
            (&[0.0, 1.0], true),
            (&[1.0, 0.0], true),
            (&[1.0, 1.0], true),
        ]);
        let tree = TreeTrainer::default().fit(&data, 0);
        let phi = tree_shap(&tree, &[1.0, 1.0]);
        assert!((phi[0] - phi[1]).abs() < 1e-9, "symmetry violated: {} vs {}", phi[0], phi[1]);
    }

    #[test]
    fn repeated_feature_on_path_is_handled() {
        // Force a tree that splits feature 0 twice along one path.
        let data = dataset(&[
            (&[0.1], false),
            (&[0.3], true),
            (&[0.5], false),
            (&[0.7], true),
            (&[0.9], false),
        ]);
        let tree = TreeTrainer::default().fit(&data, 0);
        assert!(tree.depth() >= 2, "need a multi-split tree");
        for probe in [[0.1f32], [0.3], [0.5], [0.7], [0.9], [0.2], [0.6]] {
            let phi = tree_shap(&tree, &probe);
            let gap = tree.nodes()[0].value + phi[0] - tree.predict(&probe);
            assert!(gap.abs() < 1e-9, "gap {gap} at {probe:?}");
        }
    }

    #[test]
    fn unused_features_get_zero() {
        let data = dataset(&[(&[0.0, 7.7, 3.0], false), (&[1.0, 7.7, 3.0], true)]);
        let tree = TreeTrainer::default().fit(&data, 0);
        let phi = tree_shap(&tree, &[0.5, 9.9, -1.0]);
        assert_eq!(phi[1], 0.0);
        assert_eq!(phi[2], 0.0);
    }

    #[test]
    fn into_variant_accumulates_and_matches_bit_for_bit() {
        let data = dataset(&[
            (&[0.0, 0.0, 0.3], false),
            (&[0.0, 1.0, 0.7], true),
            (&[1.0, 0.0, 0.2], true),
            (&[1.0, 1.0, 0.9], false),
            (&[0.5, 0.5, 0.1], true),
        ]);
        let tree = TreeTrainer::default().fit(&data, 0);
        let probe = [0.4f32, 0.6, 0.5];
        let reference = tree_shap(&tree, &probe);

        let mut scratch = TreeShapScratch::new();
        let mut phi = vec![0.0; 3];
        tree_shap_into(&tree, &probe, &mut scratch, &mut phi);
        for (a, b) in phi.iter().zip(&reference) {
            assert_eq!(a.to_bits(), b.to_bits(), "into variant must be bit-identical");
        }

        // Second call accumulates: exactly doubles every value.
        tree_shap_into(&tree, &probe, &mut scratch, &mut phi);
        for (a, b) in phi.iter().zip(&reference) {
            assert_eq!(a.to_bits(), (b * 2.0).to_bits());
        }
    }

    #[test]
    fn scratch_is_reusable_across_trees_and_samples() {
        let deep = dataset(&[
            (&[0.1], false),
            (&[0.3], true),
            (&[0.5], false),
            (&[0.7], true),
            (&[0.9], false),
        ]);
        let shallow = dataset(&[(&[0.0], false), (&[1.0], true)]);
        let deep_tree = TreeTrainer::default().fit(&deep, 0);
        let shallow_tree = TreeTrainer::default().fit(&shallow, 0);

        let mut scratch = TreeShapScratch::new();
        // Deep first (grows the arena), then shallow (partially reuses it),
        // then deep again — each must match the fresh-scratch answer.
        for _ in 0..2 {
            for (tree, probe) in
                [(&deep_tree, [0.6f32]), (&shallow_tree, [0.2]), (&deep_tree, [0.3])]
            {
                let mut phi = vec![0.0; 1];
                tree_shap_into(tree, &probe, &mut scratch, &mut phi);
                let reference = tree_shap(tree, &probe);
                assert_eq!(phi[0].to_bits(), reference[0].to_bits());
            }
        }
    }

    #[test]
    fn deep_unpruned_trees_match_the_scalar_reference_bit_for_bit() {
        // Three noisy features: unpruned trees grow past depth 20 and split
        // every feature many times on one path.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let rows: Vec<[f32; 3]> = (0..2000)
            .map(|_| [rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)])
            .collect();
        let x: Vec<f32> = rows.iter().flatten().copied().collect();
        let y: Vec<bool> = rows.iter().map(|r| (r[0] + r[1] > 1.0) ^ rng.gen_bool(0.3)).collect();
        let data = Dataset::from_parts(x, y, vec![0; rows.len()], 3);
        let mut scratch = TreeShapScratch::new();
        for seed in 0..3 {
            let tree = TreeTrainer::default().fit(&data, seed);
            assert!(tree.depth() >= 20, "tree depth {} < 20", tree.depth());
            for r in rows.iter().step_by(97) {
                let want = reference_tree_shap(&tree, r);
                let mut got = vec![0.0; 3];
                tree_shap_into(&tree, r, &mut scratch, &mut got);
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "seed {seed} row {r:?}: {g} vs {w}");
                }
            }
        }
    }

    /// A path built the way the recursion builds one: `extend` with fresh
    /// features, and `unwind` of a random element as a repeated split
    /// would, until it holds `len` elements beyond the root. Every
    /// one-fraction is 1 (`ones == 0`), 0 (`ones == 1`) or either (`ones == 2`).
    fn random_path(len: usize, ones: u8, seed: u64) -> Vec<PathElem> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut m = Vec::new();
        m.push(EMPTY);
        extend(&mut m, 1.0, 1.0, -1);
        let mut next_feature = 0;
        while m.len() <= len {
            if m.len() > 2 && rng.gen_bool(0.2) {
                let k = rng.gen_range(1..m.len());
                unwind(&mut m, k);
                m.pop();
                continue;
            }
            let o = match ones {
                0 => 1.0,
                1 => 0.0,
                _ => f64::from(u8::from(rng.gen_bool(0.5))),
            };
            let z = if rng.gen_bool(0.1) { 1.0 } else { rng.gen_range(0.01..1.0) };
            m.push(EMPTY);
            extend(&mut m, z, o, next_feature);
            next_feature += 1;
        }
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]
        #[test]
        fn prop_leaf_kernel_matches_the_scalar_loop_bit_for_bit(
            len in 1usize..=64,
            ones in 0u8..3,
            seed in any::<u64>(),
            value in -1.0f64..1.0,
            unit_scale in any::<bool>(),
            scale in 0.0f64..1.0,
        ) {
            let scale = if unit_scale { 1.0 } else { scale };
            let m = random_path(len, ones, seed);
            let features = m.iter().map(|e| e.d + 1).max().unwrap_or(0) as usize;
            let mut want = vec![0.0; features];
            scalar_leaf(&m, value, scale, &mut want);
            let mut got = vec![0.0; features];
            add_leaf(&m, value, scale, &mut LeafSums::default(), &mut got);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "{} vs {}", g, w);
            }
        }
    }
}
