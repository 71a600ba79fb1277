//! Seeded scenario generators.
//!
//! Every generator is a pure function of `(seed, SizeLevel)`: the same pair
//! always reproduces the same forest, dataset, probe set, or workload, on
//! any machine. That is the whole replay story — a failing check never
//! needs to serialize its scenario, it just prints the seed and level that
//! deterministically regenerate it.

use drcshap_forest::{RandomForest, RandomForestTrainer};
use drcshap_ml::{Dataset, Trainer};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Scenario size knob: level 0 is the smallest scenario that can still
/// fail, level [`SizeLevel::DEFAULT`] is what `testkit run` exercises.
/// Failures are minimized by re-running the same seed at descending
/// levels and reporting the smallest level that still fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeLevel(pub u8);

impl SizeLevel {
    /// The level `testkit run` uses.
    pub const DEFAULT: SizeLevel = SizeLevel(2);

    /// Clamps to the largest defined level.
    pub fn new(level: u8) -> Self {
        Self(level.min(Self::DEFAULT.0))
    }

    /// Feature count of generated forests/datasets (kept small enough for
    /// the exponential `shap::exact` reference).
    pub fn n_features(self) -> usize {
        [2, 3, 5][self.0 as usize]
    }

    /// Training samples.
    pub fn n_samples(self) -> usize {
        [16, 40, 90][self.0 as usize]
    }

    /// Trees per forest.
    pub fn n_trees(self) -> usize {
        [2, 5, 9][self.0 as usize]
    }

    /// Probe vectors per scenario.
    pub fn n_probes(self) -> usize {
        [4, 8, 16][self.0 as usize]
    }

    /// Samples in score/label scenarios for the metric oracles.
    pub fn n_metric_samples(self) -> usize {
        [8, 30, 80][self.0 as usize]
    }
}

/// The deterministic RNG every scenario derives from its seed.
pub fn rng_for(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// A small labelled dataset: features in `[0, 1]`, labels from a noisy
/// linear rule (both classes guaranteed present), round-robin groups with
/// a deliberately degenerate final group (constant features, one label).
pub fn dataset(seed: u64, level: SizeLevel) -> Dataset {
    let mut rng = rng_for(seed);
    let m = level.n_features();
    let n = level.n_samples();
    let weights: Vec<f32> = (0..m).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut x = Vec::with_capacity(n * m);
    let mut y = Vec::with_capacity(n);
    let mut groups = Vec::with_capacity(n);
    for i in 0..n {
        if i >= n - 2 {
            // Degenerate tail group: identical rows, fixed label — the
            // grouped-split and calibration paths must tolerate it.
            x.resize(x.len() + m, 0.5);
            y.push(true);
            groups.push(7);
            continue;
        }
        let row: Vec<f32> = (0..m).map(|_| rng.gen_range(0.0f32..1.0)).collect();
        let score: f32 = row.iter().zip(&weights).map(|(a, b)| a * b).sum();
        let noise = rng.gen_range(-0.15f32..0.15);
        x.extend_from_slice(&row);
        y.push(score + noise > 0.0);
        groups.push((i % 4) as u32);
    }
    // Both classes must be present for the trainers and metric oracles.
    y[0] = true;
    y[1] = false;
    Dataset::from_parts(x, y, groups, m)
}

/// A dataset whose *last* feature column is constant: a dummy feature no
/// split can use, so every SHAP attribution for it must be exactly zero.
pub fn dataset_with_dummy_feature(seed: u64, level: SizeLevel) -> Dataset {
    let base = dataset(seed, level);
    let m = base.n_features();
    let n = base.n_samples();
    let mut x = Vec::with_capacity(n * (m + 1));
    for i in 0..n {
        x.extend_from_slice(base.row(i));
        x.push(0.25);
    }
    Dataset::from_parts(x, base.labels().to_vec(), base.groups().to_vec(), m + 1)
}

/// A small trained Random Forest over [`dataset`].
pub fn forest(seed: u64, level: SizeLevel) -> RandomForest {
    let data = dataset(seed, level);
    let trainer = RandomForestTrainer { n_trees: level.n_trees(), ..Default::default() };
    trainer.fit(&data, seed ^ 0xF0E5)
}

/// Degenerate forest shapes the compiled walk must survive: trees with
/// the fewest leaves a layout can hold. Returns `(shape-name, forest)`
/// pairs, all trained over [`dataset`]-derived data:
///
/// * `stumps` — every tree is depth 1 (one split, two leaves).
/// * `single-tree` — a one-tree forest (one partial lane group).
/// * `pure-single-leaf` — constant labels, so every tree is a root leaf
///   with no split at all (no lockstep steps).
pub fn degenerate_forests(seed: u64, level: SizeLevel) -> Vec<(&'static str, RandomForest)> {
    let data = dataset(seed, level);
    let stumps =
        RandomForestTrainer { n_trees: level.n_trees(), max_depth: Some(1), ..Default::default() }
            .fit(&data, seed ^ 0xDE01);
    let single_tree =
        RandomForestTrainer { n_trees: 1, ..Default::default() }.fit(&data, seed ^ 0xDE02);
    let pure = {
        let constant = Dataset::from_parts(
            data.as_slice().to_vec(),
            vec![true; data.n_samples()],
            data.groups().to_vec(),
            data.n_features(),
        );
        RandomForestTrainer { n_trees: level.n_trees(), ..Default::default() }
            .fit(&constant, seed ^ 0xDE03)
    };
    vec![("stumps", stumps), ("single-tree", single_tree), ("pure-single-leaf", pure)]
}

/// `count` probe vectors of `m` features in `[0, 1]`. With `with_nan`,
/// roughly a quarter of the entries are replaced by NaN / ±∞ (the NaN-aware
/// scoring paths must handle all three).
pub fn probes(rng: &mut ChaCha8Rng, m: usize, count: usize, with_nan: bool) -> Vec<Vec<f32>> {
    (0..count)
        .map(|_| {
            (0..m)
                .map(|_| {
                    if with_nan && rng.gen_bool(0.25) {
                        match rng.gen_range(0u8..3) {
                            0 => f32::NAN,
                            1 => f32::INFINITY,
                            _ => f32::NEG_INFINITY,
                        }
                    } else {
                        rng.gen_range(0.0f32..1.0)
                    }
                })
                .collect()
        })
        .collect()
}

/// Scores/labels for the metric oracles. Scores are quantized onto a
/// coarse grid so duplicate scores (tie groups) are common; `with_nan`
/// sprinkles NaN scores in. Both classes are guaranteed present.
pub fn score_label_scenario(seed: u64, level: SizeLevel, with_nan: bool) -> (Vec<f64>, Vec<bool>) {
    let mut rng = rng_for(seed ^ 0x5C0E);
    let n = level.n_metric_samples();
    let grid = rng.gen_range(3usize..12);
    let mut scores = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let s = if with_nan && rng.gen_bool(0.1) {
            f64::NAN
        } else {
            rng.gen_range(0..=grid) as f64 / grid as f64
        };
        let l = rng.gen_bool(0.3);
        scores.push(s);
        labels.push(l);
    }
    labels[0] = true;
    labels[1] = false;
    // Keep at least the first two scores real so the forced labels attach
    // to rankable samples.
    if scores[0].is_nan() {
        scores[0] = 0.5;
    }
    if scores[1].is_nan() {
        scores[1] = 0.5;
    }
    (scores, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic() {
        let a = dataset(7, SizeLevel::DEFAULT);
        let b = dataset(7, SizeLevel::DEFAULT);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(a.labels(), b.labels());
        let fa = forest(7, SizeLevel::DEFAULT);
        let fb = forest(7, SizeLevel::DEFAULT);
        assert_eq!(fa.trees().len(), fb.trees().len());
        let probe = vec![0.3; fa.n_features()];
        assert_eq!(fa.predict_proba(&probe).to_bits(), fb.predict_proba(&probe).to_bits());
        let (sa, la) = score_label_scenario(9, SizeLevel(1), true);
        let (sb, lb) = score_label_scenario(9, SizeLevel(1), true);
        assert_eq!(la, lb);
        assert_eq!(
            sa.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            sb.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn levels_scale_monotonically() {
        for knob in [
            SizeLevel::n_features as fn(SizeLevel) -> usize,
            SizeLevel::n_samples,
            SizeLevel::n_trees,
            SizeLevel::n_probes,
            SizeLevel::n_metric_samples,
        ] {
            assert!(knob(SizeLevel(0)) <= knob(SizeLevel(1)));
            assert!(knob(SizeLevel(1)) <= knob(SizeLevel(2)));
        }
    }

    #[test]
    fn dummy_feature_is_constant() {
        let data = dataset_with_dummy_feature(3, SizeLevel(1));
        let m = data.n_features();
        for i in 0..data.n_samples() {
            assert_eq!(data.row(i)[m - 1], 0.25);
        }
    }

    #[test]
    fn degenerate_forests_have_the_advertised_shapes() {
        for seed in 0..4 {
            for (name, forest) in degenerate_forests(seed, SizeLevel(1)) {
                match name {
                    "stumps" => {
                        for tree in forest.trees() {
                            assert!(
                                tree.nodes().len() <= 3,
                                "{name}: {} nodes",
                                tree.nodes().len()
                            );
                        }
                    }
                    "single-tree" => assert_eq!(forest.trees().len(), 1),
                    "pure-single-leaf" => {
                        for tree in forest.trees() {
                            assert_eq!(tree.num_leaves(), 1, "{name}: tree grew a split");
                        }
                    }
                    other => panic!("unknown degenerate shape {other}"),
                }
            }
        }
    }

    #[test]
    fn both_classes_present() {
        for seed in 0..8 {
            for level in [SizeLevel(0), SizeLevel(1), SizeLevel(2)] {
                let data = dataset(seed, level);
                assert!(data.num_positives() > 0);
                assert!(data.num_positives() < data.n_samples());
                let (_, labels) = score_label_scenario(seed, level, true);
                assert!(labels.iter().any(|&l| l));
                assert!(labels.iter().any(|&l| !l));
            }
        }
    }
}
