//! Fault-injection harness for the serving path.
//!
//! Exercises two corruption surfaces — feature vectors fed to
//! [`Classifier::score_checked`] and
//! artifact bytes fed to [`decode_model`] —
//! and asserts a single contract: **every corruption yields either a typed
//! error or a defined degraded result; nothing panics.** Each probe runs
//! under `catch_unwind`, so a regression that reintroduces a panic shows up
//! as a counted failure in the [`FaultReport`], not a crashed process.
//!
//! [`Classifier::score_checked`]: drcshap_ml::Classifier::score_checked
//! [`decode_model`]: crate::artifact::decode_model

use std::panic::{catch_unwind, AssertUnwindSafe};

use drcshap_ml::{Classifier, DrcshapError, NanPolicy};

use crate::artifact::{decode_model, SavedModel};

/// A corruption applied to a feature vector before scoring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VectorFault {
    /// Overwrite the element at `index % len` with NaN.
    InjectNan {
        /// Position to corrupt, wrapped into the vector length.
        index: usize,
    },
    /// Overwrite the element at `index % len` with +∞ or −∞.
    InjectInf {
        /// Position to corrupt, wrapped into the vector length.
        index: usize,
        /// Inject −∞ instead of +∞.
        negative: bool,
    },
    /// Drop the last `count` elements.
    Truncate {
        /// How many trailing elements to drop.
        count: usize,
    },
    /// Append `count` zero elements.
    Extend {
        /// How many zero elements to append.
        count: usize,
    },
}

impl VectorFault {
    /// Applies this fault to a copy of `x`.
    pub fn apply(&self, x: &[f32]) -> Vec<f32> {
        let mut v = x.to_vec();
        match *self {
            VectorFault::InjectNan { index } => {
                if !v.is_empty() {
                    let i = index % v.len();
                    v[i] = f32::NAN;
                }
            }
            VectorFault::InjectInf { index, negative } => {
                if !v.is_empty() {
                    let i = index % v.len();
                    v[i] = if negative { f32::NEG_INFINITY } else { f32::INFINITY };
                }
            }
            VectorFault::Truncate { count } => {
                let keep = v.len().saturating_sub(count);
                v.truncate(keep);
            }
            VectorFault::Extend { count } => {
                v.resize(v.len() + count, 0.0);
            }
        }
        v
    }

    /// A standard battery of vector faults for an `n`-element vector.
    pub fn battery(n: usize) -> Vec<VectorFault> {
        let mut faults = vec![
            VectorFault::InjectNan { index: 0 },
            VectorFault::InjectNan { index: n / 2 },
            VectorFault::InjectNan { index: n.saturating_sub(1) },
            VectorFault::InjectInf { index: 0, negative: false },
            VectorFault::InjectInf { index: n / 2, negative: true },
            VectorFault::Truncate { count: 1 },
            VectorFault::Truncate { count: n },
            VectorFault::Extend { count: 1 },
            VectorFault::Extend { count: 64 },
        ];
        faults.dedup();
        faults
    }
}

/// A corruption applied to serialized artifact bytes before decoding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArtifactFault {
    /// XOR the byte at `offset` with `mask` (single- or multi-bit flip).
    FlipBits {
        /// Byte position, wrapped into the artifact length.
        offset: usize,
        /// XOR mask (zero is a deliberate no-op fault).
        mask: u8,
    },
    /// Keep only the first `keep` bytes.
    Truncate {
        /// How many leading bytes survive.
        keep: usize,
    },
    /// Append `count` bytes of `fill`.
    Extend {
        /// How many bytes to append.
        count: usize,
        /// The byte value appended.
        fill: u8,
    },
    /// Overwrite one header byte at `offset` (< 32) with `value`.
    TamperHeader {
        /// Header byte position (silently skipped when past the end).
        offset: usize,
        /// The value written over it.
        value: u8,
    },
}

impl ArtifactFault {
    /// Applies this fault to a copy of `bytes`.
    pub fn apply(&self, bytes: &[u8]) -> Vec<u8> {
        let mut b = bytes.to_vec();
        match *self {
            ArtifactFault::FlipBits { offset, mask } => {
                if !b.is_empty() {
                    let i = offset % b.len();
                    b[i] ^= mask;
                }
            }
            ArtifactFault::Truncate { keep } => b.truncate(keep),
            ArtifactFault::Extend { count, fill } => {
                b.resize(b.len() + count, fill);
            }
            ArtifactFault::TamperHeader { offset, value } => {
                if offset < b.len() {
                    b[offset] = value;
                }
            }
        }
        b
    }

    /// A standard battery for an artifact of `len` bytes: every header byte
    /// flipped (XOR, so never a no-op), a spread of payload bit-flips, and
    /// size faults.
    pub fn battery(len: usize) -> Vec<ArtifactFault> {
        let mut faults = Vec::new();
        for offset in 0..32.min(len) {
            faults.push(ArtifactFault::FlipBits { offset, mask: 0xff });
        }
        // Bit-flips spread across the whole artifact, one per ~64 bytes.
        let step = (len / 64).max(1);
        for offset in (0..len).step_by(step) {
            faults.push(ArtifactFault::FlipBits { offset, mask: 1 << (offset % 8) });
        }
        for keep in [0, 1, 16, 31, 32, len.saturating_sub(1)] {
            if keep < len {
                faults.push(ArtifactFault::Truncate { keep });
            }
        }
        faults.push(ArtifactFault::Extend { count: 1, fill: 0 });
        faults.push(ArtifactFault::Extend { count: 7, fill: 0xaa });
        faults
    }
}

/// A deterministic fault injected at a stage boundary of a supervised run
/// ([`crate::supervisor::run_supervised`]). Fires exactly once per run —
/// the supervisor disarms it after the first match — so retry and resume
/// paths proceed cleanly and the test can assert recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageFault {
    /// Name of the design to fault.
    pub design: String,
    /// Stage at whose boundary the fault fires.
    pub stage: crate::pipeline::Stage,
    /// What the fault does.
    pub kind: StageFaultKind,
}

/// The kinds of stage-boundary faults the supervisor can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageFaultKind {
    /// Fire the run's cancel token just before the stage executes —
    /// simulates an operator kill mid-run.
    Cancel,
    /// Panic inside the stage body — exercises panic isolation and retry.
    Panic,
    /// Flip a byte in the stage's checkpoint after writing it — exercises
    /// CRC detection and recompute-on-resume.
    CorruptCheckpoint,
}

/// Outcome tally from a fault suite.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Faults that produced a typed error.
    pub rejected: usize,
    /// Faults that produced a defined (finite, in-range) degraded result.
    pub degraded: usize,
    /// Faults that panicked — must be zero.
    pub panicked: usize,
    /// Faults that slipped through with an out-of-contract result
    /// (non-finite score, or corrupted artifact decoded successfully).
    pub undetected: usize,
    /// Human-readable descriptions of every panic or undetected fault.
    pub failures: Vec<String>,
}

impl FaultReport {
    /// True when every fault was either rejected or handled as a defined
    /// degraded result.
    pub fn all_handled(&self) -> bool {
        self.panicked == 0 && self.undetected == 0
    }

    /// Total number of faults exercised.
    pub fn total(&self) -> usize {
        self.rejected + self.degraded + self.panicked + self.undetected
    }
}

impl std::fmt::Display for FaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} faults: {} rejected, {} degraded, {} panicked, {} undetected",
            self.total(),
            self.rejected,
            self.degraded,
            self.panicked,
            self.undetected
        )
    }
}

/// Runs every fault in `faults` against `model.score_checked` under
/// `policy`, starting from the clean vector `x`.
///
/// Contract per fault: a typed error counts as rejected; an `Ok` score
/// counts as degraded only if it is finite (lenient policies define the
/// degraded result); a non-finite score or a panic is a failure.
pub fn run_vector_faults(
    model: &dyn Classifier,
    x: &[f32],
    policy: NanPolicy,
    faults: &[VectorFault],
) -> FaultReport {
    let mut report = FaultReport::default();
    for fault in faults {
        let corrupted = fault.apply(x);
        let outcome = catch_unwind(AssertUnwindSafe(|| model.score_checked(&corrupted, policy)));
        match outcome {
            Err(_) => {
                report.panicked += 1;
                report.failures.push(format!("panic on {fault:?}"));
            }
            Ok(Err(_)) => report.rejected += 1,
            Ok(Ok(score)) if score.is_finite() => report.degraded += 1,
            Ok(Ok(score)) => {
                report.undetected += 1;
                report.failures.push(format!("non-finite score {score} on {fault:?}"));
            }
        }
    }
    report
}

/// Runs every fault in `faults` against [`decode_model`], starting from the
/// clean artifact `bytes`.
///
/// Contract per fault: the corrupted bytes must fail to decode with a typed
/// error — a successful decode of corrupted bytes or a panic is a failure.
/// (Faults that happen to leave the bytes unchanged, e.g. a zero-mask flip,
/// are counted as degraded when the decode still matches the clean model.)
pub fn run_artifact_faults(
    bytes: &[u8],
    expected_fingerprint: u64,
    faults: &[ArtifactFault],
) -> FaultReport {
    let mut report = FaultReport::default();
    let clean: Option<SavedModel> = decode_model(bytes, expected_fingerprint).ok();
    for fault in faults {
        let corrupted = fault.apply(bytes);
        let unchanged = corrupted == bytes;
        let outcome: Result<Result<SavedModel, DrcshapError>, _> =
            catch_unwind(AssertUnwindSafe(|| decode_model(&corrupted, expected_fingerprint)));
        match outcome {
            Err(_) => {
                report.panicked += 1;
                report.failures.push(format!("panic on {fault:?}"));
            }
            Ok(Err(_)) => report.rejected += 1,
            Ok(Ok(decoded)) if unchanged && Some(&decoded) == clean.as_ref() => {
                report.degraded += 1;
            }
            Ok(Ok(_)) => {
                report.undetected += 1;
                report.failures.push(format!("corrupted artifact decoded on {fault:?}"));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::encode_model;
    use drcshap_forest::RandomForestTrainer;
    use drcshap_ml::{Dataset, Trainer};

    fn tiny_model() -> SavedModel {
        let x: Vec<f32> = (0..40).flat_map(|i| vec![(i % 2) as f32, 0.5, 0.25]).collect();
        let y: Vec<bool> = (0..40).map(|i| i % 2 == 1).collect();
        let data = Dataset::from_parts(x, y, vec![0; 40], 3);
        SavedModel::Rf(RandomForestTrainer { n_trees: 4, ..Default::default() }.fit(&data, 11))
    }

    #[test]
    fn vector_battery_reject_policy_never_panics() {
        let model = tiny_model();
        let x = vec![0.5f32, 0.5, 0.5];
        let faults = VectorFault::battery(x.len());
        let report = run_vector_faults(model.as_classifier(), &x, NanPolicy::Reject, &faults);
        assert!(report.all_handled(), "{report}: {:?}", report.failures);
        // Reject must refuse every NaN/Inf/length fault outright.
        assert_eq!(report.degraded, 0, "{report}");
    }

    #[test]
    fn vector_battery_nan_aware_degrades_nan_faults() {
        let model = tiny_model();
        let x = vec![0.5f32, 0.5, 0.5];
        let faults = VectorFault::battery(x.len());
        let report = run_vector_faults(model.as_classifier(), &x, NanPolicy::NanAware, &faults);
        assert!(report.all_handled(), "{report}: {:?}", report.failures);
        // NaN/Inf faults keep the right length and must score (degraded);
        // length faults must still be rejected.
        assert!(report.degraded >= 5, "{report}");
        assert!(report.rejected >= 4, "{report}");
    }

    #[test]
    fn artifact_battery_detects_every_corruption() {
        let model = tiny_model();
        let bytes = encode_model(&model, 99).expect("encode");
        let faults = ArtifactFault::battery(bytes.len());
        let report = run_artifact_faults(&bytes, 99, &faults);
        assert!(report.all_handled(), "{report}: {:?}", report.failures);
        assert_eq!(report.degraded, 0, "no fault in the battery is a no-op: {report}");
        assert_eq!(report.rejected, report.total());
    }

    #[test]
    fn noop_fault_counts_as_degraded_not_undetected() {
        let model = tiny_model();
        let bytes = encode_model(&model, 99).expect("encode");
        let faults = [ArtifactFault::FlipBits { offset: 40, mask: 0 }];
        let report = run_artifact_faults(&bytes, 99, &faults);
        assert_eq!(report.degraded, 1, "{report}");
        assert!(report.all_handled());
    }

    #[test]
    fn fault_application_is_deterministic() {
        let x = vec![1.0f32, 2.0, 3.0];
        let f = VectorFault::InjectNan { index: 7 };
        let a = f.apply(&x);
        let b = f.apply(&x);
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert!(a[7 % 3].is_nan());
    }
}
