//! Property tests pinning the compiled forest to the reference model:
//! `CompiledForest::score_batch` / `score_batch_nan_aware` must be
//! *bit-identical* to `RandomForest::predict_proba` /
//! `predict_proba_nan_aware` on every input, and `score_one` must equal
//! the batch on every row. The forests cover the shapes the eight-tree
//! lane walk depends on: 1–20 trees (so one or more full lane groups plus a
//! partial one), deep unbalanced trees, depth-capped trees (stumps
//! included) whose impure leaves make the summation order visible, and
//! single-leaf trees; the rows include NaN and ±inf on the plain path
//! too, where NaN goes right, and values on the forest's own thresholds
//! and one ulp either side of them.
//! Bit-equality (not tolerance) is the contract: the serving path may
//! never drift from the model the paper's numbers come from.

use drcshap_forest::{RandomForest, RandomForestTrainer};
use drcshap_ml::{Dataset, Trainer};
use drcshap_serve::CompiledForest;
use proptest::prelude::*;

const N_FEATURES: usize = 5;

/// A deterministic forest per (seed, n_trees): labels follow feature 0
/// with a seed-dependent threshold and some feature-1 interaction, so
/// different seeds give structurally different trees.
fn forest(seed: u64, n_trees: usize) -> RandomForest {
    let n = 90;
    let threshold = 0.25 + (seed % 5) as f32 * 0.1;
    let mut x = Vec::with_capacity(n * N_FEATURES);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        for j in 0..N_FEATURES {
            let v = (((i * 131 + j * 17 + seed as usize * 7) % 97) as f32) / 97.0;
            x.push(v);
        }
        let (a, b) = (x[i * N_FEATURES], x[i * N_FEATURES + 1]);
        y.push(a > threshold || (b > 0.8 && a > 0.1));
    }
    let data = Dataset::from_parts(x, y, vec![0; n], N_FEATURES);
    RandomForestTrainer { n_trees, ..Default::default() }.fit(&data, seed)
}

/// Trees on noisy labels over 600 rows. Unpruned (`max_depth` `None`),
/// every flipped label grows its own branch, so the trees are deep and
/// lopsided and the lanes of one group reach their leaves at very
/// different depths. Depth-capped, the leaves are impure.
fn noisy_forest(seed: u64, n_trees: usize, max_depth: Option<usize>) -> RandomForest {
    let n = 600;
    let mut x = Vec::with_capacity(n * N_FEATURES);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        for j in 0..N_FEATURES {
            x.push((((i * 131 + j * 17 + seed as usize * 7) % 997) as f32) / 997.0);
        }
        let flipped = (i as u64 * 2_654_435_761 + seed).is_multiple_of(4);
        y.push((x[i * N_FEATURES] > 0.4) != flipped);
    }
    let data = Dataset::from_parts(x, y, vec![0; n], N_FEATURES);
    RandomForestTrainer { n_trees, max_depth, ..Default::default() }.fit(&data, seed)
}

/// A forest over 40 rows with `positives` positive labels. With none,
/// every tree is a single leaf; with one, about a third of the bootstrap
/// samples miss it and grow a single leaf beside trees that split.
fn sparse_forest(seed: u64, n_trees: usize, positives: usize) -> RandomForest {
    let n = 40;
    let x: Vec<f32> = (0..n * N_FEATURES).map(|i| ((i * 37) % 41) as f32 / 41.0).collect();
    let y: Vec<bool> = (0..n).map(|i| i < positives).collect();
    let data = Dataset::from_parts(x, y, vec![0; n], N_FEATURES);
    RandomForestTrainer { n_trees, ..Default::default() }.fit(&data, seed)
}

/// A feature value: finite mostly, sometimes NaN or ±inf.
fn value() -> impl Strategy<Value = f32> {
    (0u8..10, -0.5f32..1.5).prop_map(|(kind, v)| match kind {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        _ => v,
    })
}

/// Every equality the compiled kernel owes the reference on `rows`: the
/// plain batch bit-equals `predict_proba` (NaN fails every test and goes
/// right, infinities compare naturally), the NaN-aware batch bit-equals
/// `predict_proba_nan_aware`, and `score_one` / `score_one_nan_aware`
/// equal the batch on every row.
fn check_bit_exact(rf: &RandomForest, rows: &[Vec<f32>]) -> Result<(), TestCaseError> {
    let compiled = CompiledForest::compile(rf);
    prop_assert_eq!(compiled.n_trees(), rf.trees().len());
    prop_assert_eq!(compiled.n_features(), N_FEATURES);
    let flat: Vec<f32> = rows.iter().flatten().copied().collect();
    let plain = compiled.score_batch(&flat);
    let nan_aware = compiled.score_batch_nan_aware(&flat);
    prop_assert_eq!(plain.len(), rows.len());
    prop_assert_eq!(nan_aware.len(), rows.len());
    for (i, row) in rows.iter().enumerate() {
        let reference = rf.predict_proba(row);
        prop_assert_eq!(
            plain[i].to_bits(),
            reference.to_bits(),
            "row {} {:?} diverged: compiled {} vs reference {}",
            i,
            row,
            plain[i],
            reference
        );
        let reference = rf.predict_proba_nan_aware(row);
        prop_assert_eq!(
            nan_aware[i].to_bits(),
            reference.to_bits(),
            "NaN-aware row {} {:?} diverged: compiled {} vs reference {}",
            i,
            row,
            nan_aware[i],
            reference
        );
        prop_assert_eq!(compiled.score_one(row).to_bits(), plain[i].to_bits());
        prop_assert_eq!(compiled.score_one_nan_aware(row).to_bits(), nan_aware[i].to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Finite batches: the plain and NaN-aware entry points agree with
    /// their references (and so with each other) to the bit.
    #[test]
    fn score_batch_is_bit_exact_on_finite_rows(
        seed in 0u64..5,
        n_trees in 1usize..=20,
        rows in prop::collection::vec(
            prop::collection::vec(-0.5f32..1.5, N_FEATURES),
            1..90,
        ),
    ) {
        check_bit_exact(&forest(seed, n_trees), &rows)?;
    }

    /// NaN-laced batches: the compiled NaN-aware walk routes every NaN to
    /// the same default child as the reference, so scores stay bit-equal.
    #[test]
    fn nan_aware_batch_is_bit_exact_with_nans(
        seed in 0u64..5,
        n_trees in 1usize..=20,
        rows in prop::collection::vec(
            prop::collection::vec(-0.5f32..1.5, N_FEATURES),
            1..60,
        ),
        masks in prop::collection::vec(
            prop::collection::vec(any::<bool>(), N_FEATURES),
            60,
        ),
    ) {
        let dirty: Vec<Vec<f32>> = rows
            .iter()
            .zip(&masks)
            .map(|(row, mask)| {
                row.iter()
                    .zip(mask)
                    .map(|(&v, &poison)| if poison { f32::NAN } else { v })
                    .collect()
            })
            .collect();
        check_bit_exact(&forest(seed, n_trees), &dirty)?;
    }

    /// NaN and ±inf on both paths: the plain walk sends NaN right at
    /// every split, as `predict_proba` does, and infinities take their
    /// natural branch on both.
    #[test]
    fn plain_path_routes_nan_and_inf_like_the_reference(
        seed in 0u64..5,
        n_trees in 1usize..=20,
        rows in prop::collection::vec(prop::collection::vec(value(), N_FEATURES), 1..60),
    ) {
        check_bit_exact(&forest(seed, n_trees), &rows)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Deep, unbalanced trees: lanes overshoot into their leaves or finish
    /// many levels below the lockstep count, in the same group.
    #[test]
    fn deep_unbalanced_forests_are_bit_exact(
        seed in 0u64..3,
        n_trees in 1usize..=20,
        rows in prop::collection::vec(prop::collection::vec(value(), N_FEATURES), 1..40),
    ) {
        let rf = noisy_forest(seed, n_trees, None);
        let tree = &rf.trees()[0];
        prop_assert!(tree.num_leaves() > 64, "{} leaves", tree.num_leaves());
        prop_assert!(
            tree.depth() as f64 > 1.5 * tree.mean_path_length(),
            "depth {} vs mean path {}", tree.depth(), tree.mean_path_length()
        );
        check_bit_exact(&rf, &rows)?;
    }

    /// Depth-capped trees, depth-1 stumps included: impure leaves hold
    /// fractions whose sum depends on the order it is taken in, so a walk
    /// that added its lanes out of tree order would drift from the
    /// reference.
    #[test]
    fn capped_forests_sum_leaves_in_tree_order(
        seed in 0u64..3,
        n_trees in 2usize..=20,
        max_depth in 1usize..=5,
        rows in prop::collection::vec(prop::collection::vec(value(), N_FEATURES), 1..40),
    ) {
        check_bit_exact(&noisy_forest(seed, n_trees, Some(max_depth)), &rows)?;
    }
}

/// Single-leaf trees: a group whose shallowest tree is a leaf takes no
/// lockstep steps, alone or beside trees that split.
#[test]
fn single_leaf_trees_are_bit_exact() {
    let rows: Vec<Vec<f32>> = (0..23)
        .map(|i| {
            (0..N_FEATURES)
                .map(|j| match (i + j) % 9 {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    k => k as f32 / 9.0,
                })
                .collect()
        })
        .collect();
    for n_trees in [1, 7, 8, 9, 16, 17, 20] {
        let all_leaves = sparse_forest(1, n_trees, 0);
        assert!(all_leaves.trees().iter().all(|t| t.nodes().len() == 1));
        check_bit_exact(&all_leaves, &rows).unwrap_or_else(|e| panic!("{n_trees} leaves: {e}"));
    }
    let mixed = sparse_forest(2, 20, 1);
    let leaves = mixed.trees().iter().filter(|t| t.nodes().len() == 1).count();
    assert!(0 < leaves && leaves < 20, "{leaves} of 20 trees are single leaves");
    check_bit_exact(&mixed, &rows).unwrap_or_else(|e| panic!("mixed forest: {e}"));
}

/// Degenerate and deep shapes: depth-1 stumps (one split per tree), a
/// single tree (no averaging) and depth-10 trees on noisy labels.
#[test]
fn degenerate_and_deep_shapes_are_bit_exact() {
    let probes: Vec<Vec<f32>> = (0..48)
        .map(|i| (0..N_FEATURES).map(|j| ((i * 31 + j * 7) % 53) as f32 / 53.0).collect())
        .collect();
    let stumps = noisy_forest(7, 5, Some(1));
    assert!(stumps.trees().iter().all(|t| t.depth() == 1));
    let single = forest(8, 1);
    assert_eq!(single.trees().len(), 1);
    let deep = noisy_forest(9, 3, Some(10));
    assert!(deep.trees().iter().all(|t| t.depth() == 10));
    for (label, rf) in [("stumps", stumps), ("single-tree", single), ("deep", deep)] {
        check_bit_exact(&rf, &probes).unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

/// Probes exactly on the forest's own split thresholds and one ulp to
/// either side: `x[f] <= t` sends the threshold itself left and its upper
/// neighbour right, so a `<` for `<=` slip in the walk shows here first.
#[test]
fn threshold_equal_probes_are_bit_exact() {
    for seed in 0..3u64 {
        let rf = forest(seed, 6);
        let mut rows = Vec::new();
        for tree in rf.trees() {
            for node in tree.nodes().iter().filter(|n| !n.is_leaf()) {
                for v in [node.threshold, node.threshold.next_up(), node.threshold.next_down()] {
                    let mut row = vec![0.5f32; N_FEATURES];
                    row[node.feature as usize] = v;
                    rows.push(row);
                }
            }
        }
        check_bit_exact(&rf, &rows).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// Batch sizes at and around powers of two must all agree with per-row
/// reference scoring — off-by-one chunking bugs live exactly here.
#[test]
fn block_boundary_batches_are_bit_exact() {
    let rf = forest(3, 12);
    let compiled = CompiledForest::compile(&rf);
    for n in [1usize, 63, 64, 65, 127, 128, 129, 300] {
        let flat: Vec<f32> = (0..n * N_FEATURES).map(|i| ((i * 37) % 101) as f32 / 101.0).collect();
        let batch = compiled.score_batch(&flat);
        assert_eq!(batch.len(), n);
        for i in 0..n {
            let row = &flat[i * N_FEATURES..(i + 1) * N_FEATURES];
            assert_eq!(batch[i].to_bits(), rf.predict_proba(row).to_bits(), "n={n} row={i}");
        }
    }
}
