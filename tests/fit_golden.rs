//! Golden digests of model fits: a CRC32 over every node's bits (feature,
//! threshold, children, value, cover) of Random Forest, OOB, RUSBoost and
//! CART fits. The constants were
//! recorded with the comparison-sort CART builder the rank-store builder
//! replaced, so they prove the two grow the same trees; any later change
//! that moves one bit of a fitted tree fails here.

use std::sync::OnceLock;

use drcshap::core::artifact::Crc32;
use drcshap::core::pipeline::{build_design, PipelineConfig};
use drcshap::forest::{DecisionTree, RandomForestTrainer, RusBoostTrainer, TreeTrainer};
use drcshap::ml::{Dataset, Trainer};
use drcshap::netlist::suite;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const RF_FFT_1: u32 = 0x6edc7444;
const OOB_FFT_1: u32 = 0x6481831f;
const RF_MULT_B: u32 = 0x3df0a019;
const RUSBOOST_MULT_B: u32 = 0x74c6f82d;
const CART_ADVERSARIAL: u32 = 0x9228ee51;

fn design(name: &str, scale: f64) -> Dataset {
    let config = PipelineConfig { scale, ..Default::default() };
    build_design(&suite::spec(name).expect("design is in the suite"), &config).to_dataset()
}

/// 81 g-cells with one hotspot.
fn fft_1() -> &'static Dataset {
    static DATA: OnceLock<Dataset> = OnceLock::new();
    DATA.get_or_init(|| design("fft_1", 0.1))
}

/// 529 g-cells with 23 hotspots: deeper trees and more boosting rounds.
fn mult_b() -> &'static Dataset {
    static DATA: OnceLock<Dataset> = OnceLock::new();
    DATA.get_or_init(|| design("mult_b", 0.15))
}

fn add_tree(crc: &mut Crc32, tree: &DecisionTree) {
    for n in tree.nodes() {
        crc.update(&n.feature.to_le_bytes());
        crc.update(&n.threshold.to_bits().to_le_bytes());
        crc.update(&n.left.to_le_bytes());
        crc.update(&n.right.to_le_bytes());
        crc.update(&n.value.to_bits().to_le_bytes());
        crc.update(&n.cover.to_bits().to_le_bytes());
    }
}

fn digest<'a>(trees: impl IntoIterator<Item = &'a DecisionTree>) -> u32 {
    let mut crc = Crc32::new();
    for tree in trees {
        add_tree(&mut crc, tree);
    }
    crc.finalize()
}

fn trainer() -> RandomForestTrainer {
    RandomForestTrainer { n_trees: 10, ..Default::default() }
}

#[test]
fn random_forest_fit_keeps_its_bits() {
    let rf = trainer().fit(fft_1(), 42);
    assert_eq!(digest(rf.trees()), RF_FFT_1, "{:#010x}", digest(rf.trees()));
    let rf = trainer().fit(mult_b(), 42);
    assert_eq!(digest(rf.trees()), RF_MULT_B, "{:#010x}", digest(rf.trees()));
}

#[test]
fn oob_fit_keeps_its_bits() {
    let (rf, oob) = trainer().fit_with_oob(fft_1(), 42);
    assert_eq!(digest(rf.trees()), RF_FFT_1, "{:#010x}", digest(rf.trees()));
    let mut crc = Crc32::new();
    for score in &oob.oob_scores {
        crc.update(&score.map_or(u64::MAX, f64::to_bits).to_le_bytes());
    }
    assert_eq!(crc.finalize(), OOB_FFT_1, "{:#010x}", crc.finalize());
}

#[test]
fn rusboost_fit_keeps_its_bits() {
    let model = RusBoostTrainer { n_iterations: 20, ..Default::default() }.fit(mult_b(), 7);
    let mut crc = Crc32::new();
    for (tree, alpha) in model.stages() {
        add_tree(&mut crc, tree);
        crc.update(&alpha.to_bits().to_le_bytes());
    }
    assert_eq!(crc.finalize(), RUSBOOST_MULT_B, "{:#010x}", crc.finalize());
}

/// Columns of NaNs of both signs, ±0.0, ±inf, heavy ties, continuous
/// values and one constant, with zero, integer and fractional weights.
#[test]
fn cart_fit_on_adversarial_data_keeps_its_bits() {
    const SPECIAL: [f32; 7] =
        [f32::NAN, -f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, 0.5];
    let mut rng = ChaCha8Rng::seed_from_u64(2020);
    let (rows, m) = (400, 6);
    let mut x = Vec::with_capacity(rows * m);
    for _ in 0..rows {
        x.push(if rng.gen_bool(0.1) {
            SPECIAL[rng.gen_range(0..SPECIAL.len())]
        } else {
            rng.gen_range(-2..3) as f32
        });
        x.push(rng.gen_range(0..3) as f32);
        x.push(if rng.gen_bool(0.05) { f32::NAN } else { rng.gen_range(0..40) as f32 });
        x.push(if rng.gen_bool(0.1) { SPECIAL[rng.gen_range(0..4)] } else { rng.gen() });
        x.push(rng.gen_range(-1.0f32..1.0));
        x.push(7.0);
    }
    let y: Vec<bool> =
        (0..rows).map(|i| rng.gen_bool(if x[i * m + 1] > 0.0 { 0.7 } else { 0.2 })).collect();
    let weights: Vec<f64> = (0..rows)
        .map(|i| match i % 3 {
            0 => 0.0,
            1 => rng.gen_range(1..4) as f64,
            _ => rng.gen_range(0.1..2.0),
        })
        .collect();
    let data = Dataset::from_parts(x, y, vec![0; rows], m);
    let tree = TreeTrainer { max_features: Some(3), min_samples_leaf: 1.5, ..Default::default() }
        .fit_weighted(&data, &weights, 11);
    assert!(tree.num_leaves() > 50, "{} leaves", tree.num_leaves());
    assert_eq!(digest([&tree]), CART_ADVERSARIAL, "{:#010x}", digest([&tree]));
}
