//! The workspace-wide typed error taxonomy.
//!
//! Every failure on the serving path — loading a model artifact, checking a
//! feature vector at the predict boundary, validating a pipeline config,
//! touching the filesystem — is one of the four [`DrcshapError`] variants.
//! The sub-enums carry enough structure for callers to branch on (and for
//! the fault-injection harness to assert exact diagnostics) while `Display`
//! renders an operator-readable message. Everything is hand-rolled on
//! `std`: no error-handling dependencies.

use std::fmt;

/// Any error on the drcshap serving path.
#[derive(Debug)]
pub enum DrcshapError {
    /// A model artifact is malformed, corrupted, or version-skewed.
    Artifact(ArtifactError),
    /// A model does not match the feature schema it is being served with.
    Schema(SchemaError),
    /// A caller-supplied input (feature vector, CLI argument, config value,
    /// CSV row) is invalid.
    Input(InputError),
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A supervised data-acquisition run failed or was interrupted.
    Pipeline(PipelineError),
    /// The serving engine's request queue is full; the request was shed at
    /// the admission boundary (backpressure, not failure — retry later).
    Overloaded {
        /// Queue capacity the engine was configured with.
        capacity: usize,
    },
    /// The serving engine (or a gateway shard) is draining for shutdown;
    /// the request was refused, never silently dropped. Another replica may
    /// still accept it — retryable.
    ShuttingDown,
    /// The request's deadline expired before it could be scored; it was
    /// shed instead of wasting work on an answer nobody is waiting for.
    DeadlineExceeded {
        /// True when the deadline was already expired at admission, so the
        /// request was shed in O(1) without touching a shard queue; false
        /// when it expired while queued and a worker shed it before work.
        shard_untouched: bool,
    },
    /// A cooperative cancel token fired while the request was in flight;
    /// the work unwound cleanly and can be resubmitted.
    Interrupted,
    /// A staged fleet rollout aborted: the canary shard's response digest
    /// diverged from the candidate model's reference scores, and every
    /// already-swapped shard was rolled back to the previous model.
    RolloutAborted {
        /// The canary (or failing) shard.
        shard: usize,
        /// What the digest comparison found.
        detail: String,
    },
    /// The crash-safe model registry rejected an operation (empty registry,
    /// corrupt journal, missing or quarantined blob).
    Store(StoreError),
    /// Computing a SAT-based abductive explanation exhausted its per-request
    /// budget (conflicts and/or wall clock). The prediction itself is fine —
    /// callers degrade to SHAP-only rather than stalling a shard, and
    /// retrying the same deterministic computation reproduces the timeout.
    ExplanationTimeout {
        /// Solver conflicts spent before the budget expired.
        conflicts: u64,
        /// SAT calls completed before giving up.
        sat_calls: u32,
    },
    /// The SAT-based abductive explanation engine violated an internal
    /// invariant — always a bug in the encoder or solver, never a caller
    /// mistake, and surfaced as a typed error instead of a panic.
    Xsat(XsatError),
}

impl DrcshapError {
    /// Wraps an I/O error with the path it occurred on.
    pub fn io(path: impl Into<String>, source: std::io::Error) -> Self {
        DrcshapError::Io { path: path.into(), source }
    }

    /// A CLI / API usage error with a free-form message.
    pub fn usage(message: impl Into<String>) -> Self {
        DrcshapError::Input(InputError::Usage(message.into()))
    }

    /// Whether resubmitting the same request may succeed.
    ///
    /// Transient serving conditions — a full queue ([`Overloaded`]), a
    /// draining replica ([`ShuttingDown`]), a fired cancel token
    /// ([`Interrupted`]) — are retryable: the fleet may have capacity
    /// elsewhere or a moment later. Everything that reflects the *request*
    /// or the *artifact* being wrong (schema and checksum mismatches,
    /// malformed inputs, I/O failures, an expired deadline, an aborted
    /// rollout) is not: retrying reproduces the same failure.
    ///
    /// [`ExplanationTimeout`] is deliberately *not* retryable: the abductive
    /// computation is deterministic, so resubmitting the same request with
    /// the same budget burns the budget again on another shard and times out
    /// the same way. The gateway's failover loop consults this method, which
    /// is what keeps a timed-out explanation from cascading across the fleet
    /// — the caller degrades to SHAP-only instead.
    ///
    /// [`Overloaded`]: DrcshapError::Overloaded
    /// [`ShuttingDown`]: DrcshapError::ShuttingDown
    /// [`Interrupted`]: DrcshapError::Interrupted
    /// [`ExplanationTimeout`]: DrcshapError::ExplanationTimeout
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            DrcshapError::Overloaded { .. }
                | DrcshapError::ShuttingDown
                | DrcshapError::Interrupted
        )
    }
}

impl fmt::Display for DrcshapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrcshapError::Artifact(e) => write!(f, "artifact error: {e}"),
            DrcshapError::Schema(e) => write!(f, "schema error: {e}"),
            DrcshapError::Input(e) => write!(f, "input error: {e}"),
            DrcshapError::Io { path, source } => write!(f, "io error on {path}: {source}"),
            DrcshapError::Pipeline(e) => write!(f, "pipeline error: {e}"),
            DrcshapError::Overloaded { capacity } => {
                write!(f, "overloaded: serve queue is at capacity ({capacity} requests)")
            }
            DrcshapError::ShuttingDown => {
                f.write_str("shutting down: the serving engine is draining and refused the request")
            }
            DrcshapError::DeadlineExceeded { shard_untouched } => write!(
                f,
                "deadline exceeded: request shed {} scoring work",
                if *shard_untouched { "before reaching a shard, without any" } else { "before" }
            ),
            DrcshapError::Interrupted => {
                f.write_str("interrupted: the request's cancel token fired before scoring")
            }
            DrcshapError::RolloutAborted { shard, detail } => {
                write!(f, "rollout aborted at shard {shard}: {detail}")
            }
            DrcshapError::Store(e) => write!(f, "store error: {e}"),
            DrcshapError::ExplanationTimeout { conflicts, sat_calls } => write!(
                f,
                "explanation timeout: abductive budget exhausted after {conflicts} solver \
                 conflicts across {sat_calls} SAT calls (prediction served with SHAP only)"
            ),
            DrcshapError::Xsat(e) => write!(f, "xsat error: {e}"),
        }
    }
}

impl std::error::Error for DrcshapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DrcshapError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<ArtifactError> for DrcshapError {
    fn from(e: ArtifactError) -> Self {
        DrcshapError::Artifact(e)
    }
}

impl From<SchemaError> for DrcshapError {
    fn from(e: SchemaError) -> Self {
        DrcshapError::Schema(e)
    }
}

impl From<InputError> for DrcshapError {
    fn from(e: InputError) -> Self {
        DrcshapError::Input(e)
    }
}

impl From<PipelineError> for DrcshapError {
    fn from(e: PipelineError) -> Self {
        DrcshapError::Pipeline(e)
    }
}

impl From<StoreError> for DrcshapError {
    fn from(e: StoreError) -> Self {
        DrcshapError::Store(e)
    }
}

impl From<XsatError> for DrcshapError {
    fn from(e: XsatError) -> Self {
        DrcshapError::Xsat(e)
    }
}

/// Why the SAT-based abductive explanation engine gave up.
///
/// Both variants are internal invariant violations: the CNF encoding of a
/// fitted forest is constructed so that fixing *every* feature of an
/// instance to its observed interval makes a prediction flip unsatisfiable
/// (the instance routes to exactly one leaf per tree). A violation means
/// the encoder or solver is wrong — so it surfaces as a typed error the
/// caller can log and alert on, never as a panic in the serving path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XsatError {
    /// The encoding claims the prediction can flip (or the instance is
    /// infeasible) even with every feature fixed — the CNF disagrees with
    /// the forest it was built from.
    EncodingInvariant {
        /// What the consistency check found.
        detail: String,
    },
    /// The forest cannot be encoded (no trees, or a non-finite split
    /// threshold that no real input could be compared against).
    UnsupportedModel {
        /// Why the model was rejected.
        detail: String,
    },
}

impl fmt::Display for XsatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XsatError::EncodingInvariant { detail } => {
                write!(f, "encoding invariant violated: {detail}")
            }
            XsatError::UnsupportedModel { detail } => {
                write!(f, "model cannot be SAT-encoded: {detail}")
            }
        }
    }
}

impl std::error::Error for XsatError {}

/// Why the crash-safe model registry refused an operation.
///
/// Recovery itself never errors on corruption — torn journal tails are
/// truncated and bad blobs quarantined — so these variants describe the
/// states that remain *after* recovery did its best, plus outright misuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The registry holds no verified generation (never published into, or
    /// every generation's blob was quarantined).
    Empty,
    /// The generation journal is unusable beyond torn-tail repair (e.g. the
    /// directory layout exists but the journal cannot be read back at all).
    Journal {
        /// Byte offset in the journal where reading stopped.
        offset: u64,
        /// What the journal scan found.
        detail: String,
    },
    /// A generation's blob failed CRC / fingerprint verification and was
    /// quarantined.
    BlobCorrupt {
        /// The generation whose blob was rejected.
        generation: u64,
        /// Content hash the journal recorded for the blob.
        hash: u64,
        /// What verification found.
        detail: String,
    },
    /// A journal record points at a blob that is not in the blob directory
    /// (garbage-collected, quarantined earlier, or lost).
    BlobMissing {
        /// The generation whose blob is gone.
        generation: u64,
        /// Content hash the journal recorded for the blob.
        hash: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Empty => f.write_str("registry has no verified generation"),
            StoreError::Journal { offset, detail } => {
                write!(f, "journal unusable at offset {offset}: {detail}")
            }
            StoreError::BlobCorrupt { generation, hash, detail } => {
                write!(f, "generation {generation} blob {hash:#018x} failed verification: {detail}")
            }
            StoreError::BlobMissing { generation, hash } => {
                write!(f, "generation {generation} blob {hash:#018x} is missing")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Why a supervised pipeline run (or one design within it) went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The run's cancel token fired while a stage was executing.
    Cancelled {
        /// Design being built when cancellation was observed.
        design: String,
        /// Stage name being executed.
        stage: String,
    },
    /// A stage body panicked; the panic was caught at the design boundary.
    StagePanicked {
        /// Design whose stage panicked.
        design: String,
        /// Stage name that panicked.
        stage: String,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A design failed all its attempts; the rest of the suite continued.
    DesignFailed {
        /// The failed design.
        design: String,
        /// Attempts made (including retries).
        attempts: usize,
        /// Rendering of the last attempt's error.
        last_error: String,
    },
    /// A stage checkpoint on disk failed validation and could not be used.
    CheckpointCorrupt {
        /// Path of the rejected checkpoint file.
        path: String,
        /// What the validation found.
        detail: String,
    },
    /// The on-disk run manifest disagrees with the requested run.
    ManifestMismatch {
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// A supervised run ended with designs that failed or were cancelled;
    /// the completed ones stay checkpointed for a resume.
    Incomplete {
        /// Designs that completed.
        completed: usize,
        /// Designs in the run.
        designs: usize,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Cancelled { design, stage } => {
                write!(f, "run cancelled during {design}/{stage}")
            }
            PipelineError::StagePanicked { design, stage, message } => {
                write!(f, "stage {design}/{stage} panicked: {message}")
            }
            PipelineError::DesignFailed { design, attempts, last_error } => {
                write!(f, "design {design} failed after {attempts} attempts: {last_error}")
            }
            PipelineError::CheckpointCorrupt { path, detail } => {
                write!(f, "checkpoint {path} is unusable: {detail}")
            }
            PipelineError::ManifestMismatch { detail } => {
                write!(f, "run manifest mismatch: {detail}")
            }
            PipelineError::Incomplete { completed, designs } => {
                write!(f, "run incomplete: {completed} of {designs} designs completed")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Why a serialized model artifact was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The file is shorter than the fixed-size header.
    TooShort {
        /// Header size the format requires.
        needed: usize,
        /// Bytes actually present.
        found: usize,
    },
    /// The magic bytes do not identify a drcshap artifact.
    BadMagic {
        /// The first eight bytes found.
        found: [u8; 8],
    },
    /// The format version is newer than this build understands.
    UnsupportedVersion {
        /// Version stored in the artifact.
        found: u16,
        /// Highest version this build supports.
        supported: u16,
    },
    /// The model-kind byte is not a known [`crate::classifier::Classifier`]
    /// family.
    UnknownModelKind(u8),
    /// A reserved header byte is non-zero (header tampering).
    ReservedNonZero {
        /// Offset of the offending byte.
        offset: usize,
    },
    /// The payload is shorter than the header's declared length.
    PayloadTruncated {
        /// Declared payload length.
        expected: usize,
        /// Payload bytes present.
        found: usize,
    },
    /// The file continues past the declared payload (appended garbage).
    TrailingBytes {
        /// Declared total size.
        expected: usize,
        /// Actual file size.
        found: usize,
    },
    /// The payload checksum does not match (bit rot / bit flips).
    ChecksumMismatch {
        /// CRC32 stored in the header.
        stored: u32,
        /// CRC32 computed over the payload.
        computed: u32,
    },
    /// The payload passed the checksum but failed to decode.
    Payload(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::TooShort { needed, found } => {
                write!(f, "truncated header: need {needed} bytes, found {found}")
            }
            ArtifactError::BadMagic { found } => {
                write!(f, "bad magic bytes {found:02x?}: not a drcshap model artifact")
            }
            ArtifactError::UnsupportedVersion { found, supported } => {
                write!(f, "format version {found} not supported (this build reads <= {supported})")
            }
            ArtifactError::UnknownModelKind(code) => {
                write!(f, "unknown model kind code {code:#04x}")
            }
            ArtifactError::ReservedNonZero { offset } => {
                write!(f, "reserved header byte at offset {offset} is non-zero")
            }
            ArtifactError::PayloadTruncated { expected, found } => {
                write!(f, "payload truncated: header declares {expected} bytes, found {found}")
            }
            ArtifactError::TrailingBytes { expected, found } => {
                write!(f, "trailing bytes: artifact should be {expected} bytes, found {found}")
            }
            ArtifactError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "payload CRC32 mismatch: header {stored:#010x}, computed {computed:#010x}"
                )
            }
            ArtifactError::Payload(msg) => write!(f, "payload decode failed: {msg}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// A model / feature-schema incompatibility.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// The artifact was trained against a different feature schema.
    FingerprintMismatch {
        /// Fingerprint of the schema the caller is serving with.
        expected: u64,
        /// Fingerprint stored in the artifact.
        found: u64,
    },
    /// The model's trained feature count disagrees with the schema.
    FeatureCountMismatch {
        /// Features the schema defines.
        expected: usize,
        /// Features the model was trained on.
        found: usize,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::FingerprintMismatch { expected, found } => write!(
                f,
                "feature-schema fingerprint mismatch: serving schema {expected:#018x}, artifact trained against {found:#018x}"
            ),
            SchemaError::FeatureCountMismatch { expected, found } => {
                write!(f, "feature count mismatch: schema has {expected}, model expects {found}")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// An invalid caller-supplied input.
#[derive(Debug, Clone, PartialEq)]
pub enum InputError {
    /// A feature vector has the wrong length for the model.
    LengthMismatch {
        /// Length the model expects.
        expected: usize,
        /// Length supplied.
        found: usize,
    },
    /// A feature value is NaN or infinite under [`crate::NanPolicy::Reject`].
    NonFinite {
        /// Index of the first offending feature.
        index: usize,
        /// The offending value (NaN compares unequal; kept for diagnostics).
        value: f32,
    },
    /// A pipeline scale is outside `(0, 1]` or non-finite.
    InvalidScale {
        /// The rejected value.
        value: f64,
    },
    /// A dataset offered for grouped cross-validation has too few distinct
    /// design groups to form folds (leave-one-group-out needs at least two).
    DegenerateGroups {
        /// Distinct groups actually present.
        found: usize,
    },
    /// A malformed structured input (CSV, DEF, ...) with a line number.
    Malformed {
        /// 1-based line of the offending input.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A command-line / API usage error.
    Usage(String),
}

impl fmt::Display for InputError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputError::LengthMismatch { expected, found } => {
                write!(f, "feature vector has {found} values, model expects {expected}")
            }
            InputError::NonFinite { index, value } => {
                write!(f, "feature {index} is {value} (non-finite values rejected by policy)")
            }
            InputError::InvalidScale { value } => {
                write!(f, "scale {value} invalid: must be a finite value in (0, 1]")
            }
            InputError::DegenerateGroups { found } => write!(
                f,
                "grouped cross-validation needs at least two distinct design groups, found {found}"
            ),
            InputError::Malformed { line, message } => write!(f, "line {line}: {message}"),
            InputError::Usage(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for InputError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_precise() {
        let e = DrcshapError::from(ArtifactError::ChecksumMismatch { stored: 1, computed: 2 });
        let s = e.to_string();
        assert!(s.contains("artifact error"), "{s}");
        assert!(s.contains("0x00000001") && s.contains("0x00000002"), "{s}");

        let e = DrcshapError::from(SchemaError::FeatureCountMismatch { expected: 387, found: 2 });
        assert!(e.to_string().contains("387"));

        let e = DrcshapError::from(InputError::LengthMismatch { expected: 387, found: 10 });
        assert!(e.to_string().contains("10 values"));

        let e = DrcshapError::usage("missing design name");
        assert!(e.to_string().contains("missing design name"));

        let e = DrcshapError::from(InputError::DegenerateGroups { found: 1 });
        let s = e.to_string();
        assert!(s.contains("two distinct design groups") && s.contains("found 1"), "{s}");

        let e = DrcshapError::Overloaded { capacity: 4096 };
        let s = e.to_string();
        assert!(s.contains("overloaded") && s.contains("4096"), "{s}");

        let s = DrcshapError::ShuttingDown.to_string();
        assert!(s.contains("shutting down") && s.contains("refused"), "{s}");

        let s = DrcshapError::DeadlineExceeded { shard_untouched: true }.to_string();
        assert!(s.contains("deadline exceeded") && s.contains("without any"), "{s}");
        let s = DrcshapError::DeadlineExceeded { shard_untouched: false }.to_string();
        assert!(s.contains("deadline exceeded") && !s.contains("without any"), "{s}");

        let s = DrcshapError::Interrupted.to_string();
        assert!(s.contains("interrupted"), "{s}");

        let e = DrcshapError::RolloutAborted { shard: 0, detail: "digest drift".into() };
        let s = e.to_string();
        assert!(s.contains("rollout aborted at shard 0") && s.contains("digest drift"), "{s}");

        let s = DrcshapError::from(StoreError::Empty).to_string();
        assert!(s.contains("store error") && s.contains("no verified generation"), "{s}");
        let s = StoreError::BlobCorrupt {
            generation: 3,
            hash: 0xabcd,
            detail: "payload CRC32 mismatch".into(),
        }
        .to_string();
        assert!(s.contains("generation 3") && s.contains("0x000000000000abcd"), "{s}");
        let s = StoreError::BlobMissing { generation: 7, hash: 1 }.to_string();
        assert!(s.contains("generation 7") && s.contains("missing"), "{s}");
        let s = StoreError::Journal { offset: 12, detail: "unreadable".into() }.to_string();
        assert!(s.contains("offset 12") && s.contains("unreadable"), "{s}");

        let s = DrcshapError::ExplanationTimeout { conflicts: 4096, sat_calls: 17 }.to_string();
        assert!(s.contains("explanation timeout"), "{s}");
        assert!(s.contains("4096") && s.contains("17 SAT calls"), "{s}");
        assert!(s.contains("SHAP only"), "{s}");

        let s = DrcshapError::from(XsatError::EncodingInvariant {
            detail: "full fix still flips".into(),
        })
        .to_string();
        assert!(s.contains("xsat error") && s.contains("full fix still flips"), "{s}");
        let s = XsatError::UnsupportedModel { detail: "forest has no trees".into() }.to_string();
        assert!(s.contains("cannot be SAT-encoded") && s.contains("no trees"), "{s}");
    }

    #[test]
    fn retryability_classifies_transient_vs_permanent() {
        // Transient serving conditions: resubmitting may succeed elsewhere.
        assert!(DrcshapError::Overloaded { capacity: 8 }.is_retryable());
        assert!(DrcshapError::ShuttingDown.is_retryable());
        assert!(DrcshapError::Interrupted.is_retryable());
        // The request or artifact itself is wrong: retrying reproduces it.
        assert!(!DrcshapError::DeadlineExceeded { shard_untouched: true }.is_retryable());
        assert!(!DrcshapError::from(ArtifactError::ChecksumMismatch { stored: 1, computed: 2 })
            .is_retryable());
        assert!(!DrcshapError::from(SchemaError::FingerprintMismatch { expected: 1, found: 2 })
            .is_retryable());
        assert!(!DrcshapError::from(InputError::LengthMismatch { expected: 2, found: 1 })
            .is_retryable());
        assert!(!DrcshapError::usage("bad flag").is_retryable());
        assert!(!DrcshapError::io(
            "/tmp/x",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone")
        )
        .is_retryable());
        assert!(!DrcshapError::RolloutAborted { shard: 0, detail: String::new() }.is_retryable());
        assert!(!DrcshapError::from(StoreError::Empty).is_retryable());
        // A timed-out abductive explanation is deterministic: retrying on
        // another shard reproduces it. The gateway degrades to SHAP-only
        // instead of failing over.
        assert!(!DrcshapError::ExplanationTimeout { conflicts: 1, sat_calls: 1 }.is_retryable());
        assert!(!DrcshapError::from(XsatError::EncodingInvariant { detail: String::new() })
            .is_retryable());
    }

    #[test]
    fn pipeline_errors_display_design_and_stage() {
        let e = DrcshapError::from(PipelineError::Cancelled {
            design: "fft_2".into(),
            stage: "route".into(),
        });
        let s = e.to_string();
        assert!(s.contains("pipeline error") && s.contains("fft_2/route"), "{s}");

        let e = PipelineError::DesignFailed {
            design: "des_perf_1".into(),
            attempts: 2,
            last_error: "boom".into(),
        };
        let s = e.to_string();
        assert!(s.contains("after 2 attempts") && s.contains("boom"), "{s}");

        let e = PipelineError::CheckpointCorrupt {
            path: "/run/fft_1/route.ckpt".into(),
            detail: "payload CRC32 mismatch".into(),
        };
        assert!(e.to_string().contains("route.ckpt"));
    }

    #[test]
    fn io_errors_carry_path_and_source() {
        use std::error::Error as _;
        let inner = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = DrcshapError::io("/tmp/x.model", inner);
        assert!(e.to_string().contains("/tmp/x.model"));
        assert!(e.source().is_some());
    }

    #[test]
    fn artifact_variants_are_comparable() {
        assert_eq!(ArtifactError::UnknownModelKind(9), ArtifactError::UnknownModelKind(9));
        assert_ne!(
            ArtifactError::TooShort { needed: 32, found: 0 },
            ArtifactError::TooShort { needed: 32, found: 1 }
        );
    }
}
