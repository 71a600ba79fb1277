#![warn(missing_docs)]
//! Shared harness utilities for the table/figure regeneration binaries
//! and the gated throughput benches: environment-driven configuration,
//! bench knob and flag parsing, the gated benches' one [`gate`] and
//! training set, and the paper's published numbers for side-by-side
//! reporting.
//!
//! Environment knobs (shared by all binaries):
//!
//! - `DRCSHAP_SCALE` — linear design scale in `(0, 1]` (default 0.25);
//! - `DRCSHAP_FULL=1` — paper scale (overrides `DRCSHAP_SCALE`);
//! - `DRCSHAP_BUDGET` — `quick` (default) or `paper` training budgets;
//! - `DRCSHAP_MODELS` — comma-separated subset of `svm,rus,nn1,nn2,rf`
//!   (default: all five).

use drcshap_core::pipeline::PipelineConfig;
use drcshap_core::zoo::{ModelBudget, ModelFamily};
use drcshap_ml::Dataset;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

pub mod gate;

/// Reads the pipeline configuration from the environment. A malformed or
/// out-of-range `DRCSHAP_SCALE` prints the typed error and exits with
/// status 2 — the harness binaries are non-interactive, so failing loudly
/// up front beats running the wrong experiment.
pub fn env_pipeline() -> PipelineConfig {
    PipelineConfig::from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Reads the training budget from `DRCSHAP_BUDGET`.
pub fn env_budget() -> ModelBudget {
    match std::env::var("DRCSHAP_BUDGET").as_deref() {
        Ok("paper") => ModelBudget::Paper,
        _ => ModelBudget::Quick,
    }
}

/// Reads the model-family subset from `DRCSHAP_MODELS`.
///
/// # Panics
///
/// Panics on an unrecognized family token.
pub fn env_families() -> Vec<ModelFamily> {
    match std::env::var("DRCSHAP_MODELS") {
        Err(_) => ModelFamily::ALL.to_vec(),
        Ok(s) => s
            .split(',')
            .map(|tok| match tok.trim().to_ascii_lowercase().as_str() {
                "svm" | "svm-rbf" => ModelFamily::SvmRbf,
                "rus" | "rusboost" => ModelFamily::RusBoost,
                "nn1" | "nn-1" => ModelFamily::Nn1,
                "nn2" | "nn-2" => ModelFamily::Nn2,
                "rf" => ModelFamily::Rf,
                other => panic!("unknown model family {other:?} in DRCSHAP_MODELS"),
            })
            .collect(),
    }
}

/// Reads a `usize` bench knob from the environment variable `name`,
/// `default` when unset. A malformed value prints an error and exits
/// with status 2.
pub fn env_usize(name: &str, default: usize) -> usize {
    env_parse(name, default)
}

/// Reads an `f64` bench knob from the environment variable `name`,
/// `default` when unset. A malformed value prints an error and exits
/// with status 2.
pub fn env_f64(name: &str, default: f64) -> f64 {
    env_parse(name, default)
}

fn env_parse<T: std::str::FromStr>(name: &str, default: T) -> T {
    match std::env::var(name) {
        Ok(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("error: bad value {s:?} for {name}");
            std::process::exit(2);
        }),
        Err(_) => default,
    }
}

/// Extracts `--flag <value>` from `args`, removing both tokens. A flag
/// without a value prints an error and exits with status 2.
pub fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        eprintln!("error: {flag} needs a value");
        std::process::exit(2);
    }
    let value = args[pos + 1].clone();
    args.drain(pos..=pos + 1);
    Some(value)
}

/// The harness of a gated bench: takes `--out` and `--gate` from `args`,
/// which must hold nothing else, and reads the gate tolerance
/// `DRCSHAP_BENCH_TOLERANCE` in `[0, 1)` (default 0.25). A flag without a
/// value, another argument or a bad tolerance prints an error and exits
/// with status 2.
pub fn harness(bench: &'static gate::Bench, mut args: Vec<String>) -> gate::Harness {
    let out = take_value(&mut args, "--out");
    let gate = take_value(&mut args, "--gate");
    if let Some(extra) = args.first() {
        eprintln!("error: unexpected argument {extra:?}");
        std::process::exit(2);
    }
    let tolerance = env_f64("DRCSHAP_BENCH_TOLERANCE", 0.25);
    if !(0.0..1.0).contains(&tolerance) {
        eprintln!("error: DRCSHAP_BENCH_TOLERANCE must be in [0, 1), got {tolerance}");
        std::process::exit(2);
    }
    gate::Harness::new(bench, out, gate, tolerance)
}

/// The gated benches' training set: `rows` rows of `features` uniform
/// `[0, 1)` values drawn row-major from ChaCha8 seeded with `seed`, each
/// labelled by whether the sum of every `stride`-th feature exceeds
/// `features / (2 · stride)`.
pub fn synthetic_dataset(rows: usize, features: usize, stride: usize, seed: u64) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut x = Vec::with_capacity(rows * features);
    let mut y = Vec::with_capacity(rows);
    for _ in 0..rows {
        let mut acc = 0.0f32;
        for j in 0..features {
            let v: f32 = rng.gen_range(0.0..1.0);
            if j % stride == 0 {
                acc += v;
            }
            x.push(v);
        }
        y.push(acc > 0.5 * (features as f32 / stride as f32));
    }
    Dataset::from_parts(x, y, vec![0; rows], features)
}

/// The paper's Table II per-family averages `(TPR*, Prec*, A_prc)` for
/// side-by-side reporting.
pub fn paper_table2_averages(family: ModelFamily) -> (f64, f64, f64) {
    match family {
        ModelFamily::SvmRbf => (0.4502, 0.4941, 0.4699),
        ModelFamily::RusBoost => (0.3705, 0.4189, 0.4086),
        ModelFamily::Nn1 => (0.2776, 0.3925, 0.3559),
        ModelFamily::Nn2 => (0.2981, 0.4123, 0.3519),
        ModelFamily::Rf => (0.5058, 0.5200, 0.5691),
    }
}

/// The paper's Table II winning-design counts `(TPR*, Prec*, A_prc)`.
pub fn paper_table2_wins(family: ModelFamily) -> (usize, usize, usize) {
    match family {
        ModelFamily::SvmRbf => (6, 6, 3),
        ModelFamily::RusBoost => (2, 1, 0),
        ModelFamily::Nn1 => (0, 0, 0),
        ModelFamily::Nn2 => (1, 0, 0),
        ModelFamily::Rf => (7, 7, 9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rf_leads_on_every_average() {
        let (rf_t, rf_p, rf_a) = paper_table2_averages(ModelFamily::Rf);
        for f in [ModelFamily::SvmRbf, ModelFamily::RusBoost, ModelFamily::Nn1, ModelFamily::Nn2] {
            let (t, p, a) = paper_table2_averages(f);
            assert!(rf_t > t && rf_p > p && rf_a > a);
        }
    }

    #[test]
    fn default_families_are_all_five() {
        std::env::remove_var("DRCSHAP_MODELS");
        assert_eq!(env_families().len(), 5);
    }
}
