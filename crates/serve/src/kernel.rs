//! Forest-kernel selection and dispatch.
//!
//! Four interchangeable scoring kernels back the serve engine, all
//! bit-identical to [`RandomForest::predict_proba`] (the testkit
//! `kernel-differential` oracle and `tests/kernel_equivalence.rs` enforce
//! it):
//!
//! | kernel | layout | when |
//! |---|---|---|
//! | `reference` | `Vec<TreeNode>` walk | debugging / differential oracle anchor |
//! | `compiled` | packed 16-byte nodes, 8 trees in lockstep ([`crate::compiled`]) | every forest — the default |
//! | `bitvector` | QuickScorer bitmasks ([`crate::bitvector`]) | explicit choice only |
//! | `bitvector-quantized` | bitmasks over bin ids ([`crate::quantize`]) | explicit choice only |
//!
//! Selection order: explicit config (the CLI's `--kernel`), then the
//! `DRCSHAP_KERNEL` environment variable, then [`ForestKernel::auto`],
//! which is always `compiled`. The chosen kernel is rebuilt on every hot
//! swap and reported in [`crate::ServeMetrics`].
//!
//! NaN-aware batches score through the plain kernel first, then rows
//! containing NaN are rescored through the compiled NaN-aware path (the
//! default-direction walk) — NaN-free rows are identical under both
//! semantics, so the result is bit-identical to
//! [`RandomForest::predict_proba_nan_aware`] for every row.

use std::str::FromStr;

use drcshap_forest::RandomForest;
use drcshap_ml::DrcshapError;
use rayon::prelude::*;

use crate::bitvector::BitVectorForest;
use crate::compiled::CompiledForest;
use crate::quantize::QuantizedForest;

/// Environment variable overriding kernel auto-selection (the CLI's
/// `--kernel` flag wins over it).
pub const KERNEL_ENV: &str = "DRCSHAP_KERNEL";

/// The forest scoring kernel families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ForestKernel {
    /// Per-row `RandomForest::predict_proba` — the differential anchor.
    Reference,
    /// Packed-node traversal, eight trees in lockstep ([`CompiledForest`]).
    Compiled,
    /// QuickScorer-style branchless bitvector traversal
    /// ([`BitVectorForest`]).
    BitVector,
    /// Bitvector traversal over threshold-set bin ids
    /// ([`QuantizedForest`]).
    BitVectorQuantized,
}

impl ForestKernel {
    /// Every kernel, in reference-first order (the order benches and the
    /// CI conformance matrix sweep).
    pub const ALL: [ForestKernel; 4] =
        [Self::Reference, Self::Compiled, Self::BitVector, Self::BitVectorQuantized];

    /// The kernel's CLI/env/bench name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Reference => "reference",
            Self::Compiled => "compiled",
            Self::BitVector => "bitvector",
            Self::BitVectorQuantized => "bitvector-quantized",
        }
    }

    /// The telemetry span name batches scored by this kernel run under.
    pub fn span_name(self) -> &'static str {
        match self {
            Self::Reference => "kernel/reference",
            Self::Compiled => "kernel/compiled",
            Self::BitVector => "kernel/bitvector",
            Self::BitVectorQuantized => "kernel/bitvector-quantized",
        }
    }

    /// The kernel used when none is configured: always `compiled`. It
    /// outscores both bitvector kernels at every measured forest shape,
    /// 15-leaf depth-capped trees included (DESIGN.md §16).
    pub fn auto(_forest: &RandomForest) -> Self {
        Self::Compiled
    }

    /// Resolves the kernel for `forest`: `explicit` (CLI) wins, then the
    /// [`KERNEL_ENV`] environment variable, then [`ForestKernel::auto`].
    ///
    /// # Errors
    ///
    /// A usage [`DrcshapError`] when [`KERNEL_ENV`] holds an unknown
    /// kernel name.
    pub fn resolve(
        explicit: Option<ForestKernel>,
        forest: &RandomForest,
    ) -> Result<Self, DrcshapError> {
        if let Some(kernel) = explicit {
            return Ok(kernel);
        }
        match std::env::var(KERNEL_ENV) {
            Ok(name) => {
                name.parse().map_err(|e: String| DrcshapError::usage(format!("{KERNEL_ENV}: {e}")))
            }
            Err(_) => Ok(Self::auto(forest)),
        }
    }
}

impl std::fmt::Display for ForestKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ForestKernel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "reference" => Ok(Self::Reference),
            "compiled" => Ok(Self::Compiled),
            "bitvector" => Ok(Self::BitVector),
            "bitvector-quantized" | "quantized" => Ok(Self::BitVectorQuantized),
            other => Err(format!(
                "unknown kernel '{other}' (expected reference, compiled, bitvector, or \
                 bitvector-quantized)"
            )),
        }
    }
}

/// The per-kernel layouts (only the chosen kernel's structure is built).
#[derive(Debug)]
enum KernelVariant {
    /// Scores rows through `RandomForest::predict_proba` directly.
    Reference,
    /// Scores through the [`CompiledForest`] the epoch already holds.
    Compiled,
    /// The raw-threshold bitvector layout.
    BitVector(BitVectorForest),
    /// The bin-id bitvector layout.
    Quantized(QuantizedForest),
}

/// A built, ready-to-score kernel for one model epoch. Construction
/// happens once per model (and per hot swap); scoring borrows the
/// epoch's reference forest and compiled layout for the anchor and
/// NaN-aware paths.
#[derive(Debug)]
pub struct KernelDispatch {
    choice: ForestKernel,
    variant: KernelVariant,
}

impl KernelDispatch {
    /// Builds the layout for `choice` from `forest`.
    ///
    /// # Errors
    ///
    /// The [`QuantizedForest::compile`] eligibility error when an
    /// explicitly requested quantized kernel does not fit its id space.
    pub fn build(forest: &RandomForest, choice: ForestKernel) -> Result<Self, DrcshapError> {
        let variant = match choice {
            ForestKernel::Reference => KernelVariant::Reference,
            ForestKernel::Compiled => KernelVariant::Compiled,
            ForestKernel::BitVector => KernelVariant::BitVector(BitVectorForest::compile(forest)),
            ForestKernel::BitVectorQuantized => {
                KernelVariant::Quantized(QuantizedForest::compile(forest)?)
            }
        };
        Ok(Self { choice, variant })
    }

    /// The kernel this dispatch was built for.
    pub fn choice(&self) -> ForestKernel {
        self.choice
    }

    /// Scores a row-major batch. Plain batches are bit-identical to
    /// [`RandomForest::predict_proba`] per row; `nan_aware` batches to
    /// [`RandomForest::predict_proba_nan_aware`] (bitvector kernels
    /// rescore the NaN-containing rows through `compiled`'s
    /// default-direction path).
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` is not a multiple of the feature count.
    pub fn score_batch(
        &self,
        forest: &RandomForest,
        compiled: &CompiledForest,
        flat: &[f32],
        nan_aware: bool,
    ) -> Vec<f64> {
        match &self.variant {
            KernelVariant::Reference => {
                let m = forest.n_features();
                assert_eq!(
                    flat.len() % m,
                    0,
                    "flat batch length {} is not a multiple of the feature count {m}",
                    flat.len()
                );
                flat.par_chunks(m)
                    .map(|row| {
                        if nan_aware {
                            forest.predict_proba_nan_aware(row)
                        } else {
                            forest.predict_proba(row)
                        }
                    })
                    .collect()
            }
            KernelVariant::Compiled => {
                if nan_aware {
                    compiled.score_batch_nan_aware(flat)
                } else {
                    compiled.score_batch(flat)
                }
            }
            KernelVariant::BitVector(bv) => {
                let mut scores = bv.score_batch(flat);
                if nan_aware {
                    rescore_nan_rows(compiled, flat, &mut scores);
                }
                scores
            }
            KernelVariant::Quantized(q) => {
                let mut scores = q.score_batch(flat);
                if nan_aware {
                    rescore_nan_rows(compiled, flat, &mut scores);
                }
                scores
            }
        }
    }
}

/// Rewrites the scores of rows containing NaN through the compiled
/// NaN-aware (default-direction) walk. Rows without NaN keep their plain
/// kernel score — on those the two semantics agree comparison-for-
/// comparison, so the scores are already bit-identical. Infinities take
/// their natural comparison branch in both paths and need no rescue.
fn rescore_nan_rows(compiled: &CompiledForest, flat: &[f32], scores: &mut [f64]) {
    let m = compiled.n_features();
    for (row, score) in flat.chunks_exact(m).zip(scores.iter_mut()) {
        if row.iter().any(|v| v.is_nan()) {
            *score = compiled.score_one_nan_aware(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcshap_forest::RandomForestTrainer;
    use drcshap_ml::{Dataset, Trainer};

    fn train(n_trees: usize, seed: u64) -> RandomForest {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let n = 150;
        let m = 3;
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let row: Vec<f32> = (0..m).map(|_| rng.gen_range(0.0..1.0)).collect();
            y.push(row[0] + row[1] > 1.0);
            x.extend(row);
        }
        let data = Dataset::from_parts(x, y, vec![0; n], m);
        RandomForestTrainer { n_trees, ..Default::default() }.fit(&data, seed)
    }

    #[test]
    fn names_round_trip_through_fromstr() {
        for kernel in ForestKernel::ALL {
            assert_eq!(kernel.name().parse::<ForestKernel>(), Ok(kernel));
            assert_eq!(kernel.to_string(), kernel.name());
        }
        assert_eq!("quantized".parse::<ForestKernel>(), Ok(ForestKernel::BitVectorQuantized));
        assert!("turbo".parse::<ForestKernel>().is_err());
    }

    /// Small depth-capped forests, the shape the bitvector kernels were
    /// built for, used to be `auto`'s one route to `bitvector-quantized`.
    /// The lockstep compiled walk now outscores it there too, so `auto`
    /// keeps them on `compiled` (DESIGN.md §16).
    #[test]
    fn auto_prefers_quantized_for_typical_forests() {
        let rf = train(5, 1);
        let mean_leaves: usize =
            rf.trees().iter().map(|t| t.num_leaves()).sum::<usize>() / rf.trees().len();
        assert!(mean_leaves <= 64, "test forest grew past 64 mean leaves: {mean_leaves}");
        assert_eq!(ForestKernel::auto(&rf), ForestKernel::Compiled);
    }

    #[test]
    fn auto_falls_back_to_compiled_past_the_mask_word_boundary() {
        // 1500 samples with min_samples_leaf 1 grows trees far past 64
        // leaves — the unpruned production shape, where the measured
        // bitvector/compiled ratio is worst (DESIGN.md §16).
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let n = 1500;
        let m = 3;
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let row: Vec<f32> = (0..m).map(|_| rng.gen_range(0.0..1.0)).collect();
            // A noisy label keeps splits impure all the way down.
            y.push(row[0] + row[1] * row[2] + rng.gen_range(-0.4..0.4) > 1.0);
            x.extend(row);
        }
        let data = Dataset::from_parts(x, y, vec![0; n], m);
        let rf = RandomForestTrainer { n_trees: 3, ..Default::default() }.fit(&data, 9);
        let mean_leaves: usize =
            rf.trees().iter().map(|t| t.num_leaves()).sum::<usize>() / rf.trees().len();
        assert!(mean_leaves > 64, "forest unexpectedly small: {mean_leaves} mean leaves");
        assert_eq!(ForestKernel::auto(&rf), ForestKernel::Compiled);
    }

    #[test]
    fn every_kernel_scores_bit_identically() {
        let rf = train(7, 2);
        let compiled = CompiledForest::compile(&rf);
        let flat: Vec<f32> = (0..30 * 3).map(|i| (i % 9) as f32 / 9.0).collect();
        for kernel in ForestKernel::ALL {
            let dispatch = KernelDispatch::build(&rf, kernel).expect("buildable");
            assert_eq!(dispatch.choice(), kernel);
            let scores = dispatch.score_batch(&rf, &compiled, &flat, false);
            for (i, s) in scores.iter().enumerate() {
                let reference = rf.predict_proba(&flat[i * 3..(i + 1) * 3]);
                assert_eq!(s.to_bits(), reference.to_bits(), "{kernel} row {i}");
            }
        }
    }

    #[test]
    fn nan_aware_batches_match_the_nan_reference_on_every_kernel() {
        let rf = train(6, 3);
        let compiled = CompiledForest::compile(&rf);
        let rows: Vec<[f32; 3]> = vec![
            [f32::NAN, 0.5, 0.5],
            [0.2, 0.8, 0.4],
            [0.5, f32::NAN, f32::NAN],
            [f32::INFINITY, f32::NEG_INFINITY, f32::NAN],
            [0.9, 0.1, 0.2],
        ];
        let flat: Vec<f32> = rows.iter().flatten().copied().collect();
        for kernel in ForestKernel::ALL {
            let dispatch = KernelDispatch::build(&rf, kernel).expect("buildable");
            let scores = dispatch.score_batch(&rf, &compiled, &flat, true);
            for (row, s) in rows.iter().zip(&scores) {
                let reference = rf.predict_proba_nan_aware(row);
                assert_eq!(s.to_bits(), reference.to_bits(), "{kernel} {row:?}");
            }
        }
    }

    #[test]
    fn resolve_priority_is_explicit_then_env_then_auto() {
        let rf = train(3, 4);
        // Explicit beats everything (no env manipulation: process-global).
        let k = ForestKernel::resolve(Some(ForestKernel::Compiled), &rf).expect("resolves");
        assert_eq!(k, ForestKernel::Compiled);
        // No explicit choice: env (unset in tests) falls through to auto.
        if std::env::var(KERNEL_ENV).is_err() {
            let k = ForestKernel::resolve(None, &rf).expect("resolves");
            assert_eq!(k, ForestKernel::auto(&rf));
        }
    }
}
