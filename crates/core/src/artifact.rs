//! Versioned, checksummed model artifacts: the on-disk format that lets a
//! trained model move between flow iterations, machines, and tool versions
//! without silently serving garbage.
//!
//! # Format (version 1)
//!
//! A fixed 32-byte header followed by a `serde_json` payload:
//!
//! ```text
//! offset  size  field
//!      0     8  magic bytes  b"DRCSHAP\0"
//!      8     2  format version, u16 LE (currently 1)
//!     10     1  model kind    (0 = RF, 1 = RUSBoost, 2 = SVM-RBF, 3 = NN)
//!     11     1  reserved, must be 0
//!     12     8  feature-schema fingerprint, u64 LE
//!     20     8  payload length in bytes, u64 LE
//!     28     4  CRC32 (IEEE) over the payload, u32 LE
//!     32     —  serde_json payload of the model
//! ```
//!
//! Decoding validates strictly in this order — truncated header, magic,
//! version, model kind, reserved byte, schema fingerprint, payload length
//! (both truncation and trailing bytes), checksum, JSON payload — and every
//! rejection is a precise [`ArtifactError`] / [`SchemaError`] variant, so a
//! corrupted or mismatched artifact can never panic the serving path. See
//! `core::faults` for the harness that proves it byte-by-byte.
//!
//! Compatibility rule: readers accept only `version <= FORMAT_VERSION` that
//! they know how to decode (currently exactly 1); bumping the payload layout
//! bumps the version, and old readers reject new artifacts with
//! [`ArtifactError::UnsupportedVersion`] instead of misparsing them.

use std::path::Path;

use drcshap_features::FeatureSchema;
use drcshap_forest::{RandomForest, RusBoost};
use drcshap_ml::{ArtifactError, Classifier, DrcshapError, SchemaError};
use drcshap_nn::NeuralNet;
use drcshap_svm::Svm;

/// The artifact magic bytes.
pub const MAGIC: [u8; 8] = *b"DRCSHAP\0";
/// The current (and highest readable) format version.
pub const FORMAT_VERSION: u16 = 1;
/// Size of the fixed header.
pub const HEADER_LEN: usize = 32;

/// The model family stored in an artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Random Forest (the paper's model).
    Rf,
    /// RUSBoost ensemble.
    RusBoost,
    /// SVM with RBF kernel.
    Svm,
    /// Feedforward neural net.
    Nn,
}

impl ModelKind {
    /// The header byte for this kind.
    pub fn code(self) -> u8 {
        match self {
            ModelKind::Rf => 0,
            ModelKind::RusBoost => 1,
            ModelKind::Svm => 2,
            ModelKind::Nn => 3,
        }
    }

    /// Decodes a header byte.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(ModelKind::Rf),
            1 => Some(ModelKind::RusBoost),
            2 => Some(ModelKind::Svm),
            3 => Some(ModelKind::Nn),
            _ => None,
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ModelKind::Rf => "RF",
            ModelKind::RusBoost => "RUSBoost",
            ModelKind::Svm => "SVM-RBF",
            ModelKind::Nn => "NN",
        })
    }
}

/// A trained model of any of the four serializable families, as stored in
/// (and restored from) an artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum SavedModel {
    /// Random Forest.
    Rf(RandomForest),
    /// RUSBoost ensemble.
    RusBoost(RusBoost),
    /// SVM-RBF.
    Svm(Svm),
    /// Feedforward neural net.
    Nn(NeuralNet),
}

impl SavedModel {
    /// Which family this model belongs to.
    pub fn kind(&self) -> ModelKind {
        match self {
            SavedModel::Rf(_) => ModelKind::Rf,
            SavedModel::RusBoost(_) => ModelKind::RusBoost,
            SavedModel::Svm(_) => ModelKind::Svm,
            SavedModel::Nn(_) => ModelKind::Nn,
        }
    }

    /// The feature count the model was trained on.
    pub fn n_features(&self) -> usize {
        match self {
            SavedModel::Rf(m) => m.n_features(),
            SavedModel::RusBoost(m) => m.n_features(),
            SavedModel::Svm(m) => m.n_features(),
            SavedModel::Nn(m) => m.n_features(),
        }
    }

    /// The Random Forest this model is: the one family that serves,
    /// through a compiled layout, SHAP and abductive explanations.
    ///
    /// # Errors
    ///
    /// A usage error naming the family found, for any other model.
    pub fn into_forest(self) -> Result<RandomForest, DrcshapError> {
        match self {
            SavedModel::Rf(forest) => Ok(forest),
            other => Err(DrcshapError::usage(format!(
                "an RF artifact is required, found {}",
                other.kind()
            ))),
        }
    }

    /// The model as a [`Classifier`] for scoring (including the validated
    /// `score_checked` boundary).
    pub fn as_classifier(&self) -> &dyn Classifier {
        match self {
            SavedModel::Rf(m) => m,
            SavedModel::RusBoost(m) => m,
            SavedModel::Svm(m) => m,
            SavedModel::Nn(m) => m,
        }
    }

    fn to_payload(&self) -> Result<Vec<u8>, DrcshapError> {
        let json = match self {
            SavedModel::Rf(m) => serde_json::to_vec(m),
            SavedModel::RusBoost(m) => serde_json::to_vec(m),
            SavedModel::Svm(m) => serde_json::to_vec(m),
            SavedModel::Nn(m) => serde_json::to_vec(m),
        };
        json.map_err(|e| ArtifactError::Payload(e.to_string()).into())
    }

    fn from_payload(kind: ModelKind, payload: &[u8]) -> Result<Self, DrcshapError> {
        let bad = |e: serde_json::Error| DrcshapError::from(ArtifactError::Payload(e.to_string()));
        Ok(match kind {
            ModelKind::Rf => SavedModel::Rf(serde_json::from_slice(payload).map_err(bad)?),
            ModelKind::RusBoost => {
                SavedModel::RusBoost(serde_json::from_slice(payload).map_err(bad)?)
            }
            ModelKind::Svm => SavedModel::Svm(serde_json::from_slice(payload).map_err(bad)?),
            ModelKind::Nn => SavedModel::Nn(serde_json::from_slice(payload).map_err(bad)?),
        })
    }
}

const CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE 802.3, reflected) of `data` — the checksum guarding the
/// artifact payload. Table-driven, table built at compile time.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finalize()
}

/// A streaming [`crc32`]: feed chunks with [`Crc32::update`] and close with
/// [`Crc32::finalize`]. Digesting incrementally is what lets callers (the
/// CLI's streaming score path, the serve smoke check) checksum unbounded
/// streams without buffering them.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh digest; equivalent to having hashed zero bytes.
    pub fn new() -> Self {
        Self { state: !0u32 }
    }

    /// Feeds `data` into the digest.
    pub fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.state =
                (self.state >> 8) ^ CRC32_TABLE[((self.state ^ u32::from(b)) & 0xff) as usize];
        }
    }

    /// The CRC32 of everything fed so far. Does not consume the digest:
    /// further [`Crc32::update`] calls continue the same stream.
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Assembles a versioned, checksummed container around `payload`.
///
/// The container is the generic carrier behind both model artifacts
/// ([`encode_model`], kind = a [`ModelKind`] code) and the supervisor's
/// stage checkpoints (`core::supervisor`, kind = a stage code). The `kind`
/// byte and `fingerprint` are *not* interpreted here; callers define their
/// own code spaces and bind the fingerprint to whatever identity matters
/// (feature schema, pipeline config).
pub fn encode_container(kind: u8, fingerprint: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(kind);
    out.push(0); // reserved
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates a container's framing (magic, version, reserved byte,
/// fingerprint, payload length, CRC32) and returns the kind byte and the
/// payload slice. The kind byte is returned, not validated — its code space
/// belongs to the caller.
///
/// # Errors
///
/// A precise [`ArtifactError`] variant for each corruption class, or
/// [`SchemaError::FingerprintMismatch`] when the container was stamped with
/// a different fingerprint than `expected_fingerprint`.
pub fn decode_container(
    bytes: &[u8],
    expected_fingerprint: u64,
) -> Result<(u8, &[u8]), DrcshapError> {
    if bytes.len() < HEADER_LEN {
        return Err(ArtifactError::TooShort { needed: HEADER_LEN, found: bytes.len() }.into());
    }
    let magic: [u8; 8] = bytes[0..8].try_into().expect("8-byte slice");
    if magic != MAGIC {
        return Err(ArtifactError::BadMagic { found: magic }.into());
    }
    let version = u16::from_le_bytes(bytes[8..10].try_into().expect("2-byte slice"));
    if version == 0 || version > FORMAT_VERSION {
        return Err(ArtifactError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        }
        .into());
    }
    if bytes[11] != 0 {
        return Err(ArtifactError::ReservedNonZero { offset: 11 }.into());
    }
    let fingerprint = u64::from_le_bytes(bytes[12..20].try_into().expect("8-byte slice"));
    if fingerprint != expected_fingerprint {
        return Err(SchemaError::FingerprintMismatch {
            expected: expected_fingerprint,
            found: fingerprint,
        }
        .into());
    }
    let payload_len = u64::from_le_bytes(bytes[20..28].try_into().expect("8-byte slice")) as usize;
    let found = bytes.len() - HEADER_LEN;
    if found < payload_len {
        return Err(ArtifactError::PayloadTruncated { expected: payload_len, found }.into());
    }
    if found > payload_len {
        return Err(ArtifactError::TrailingBytes {
            expected: HEADER_LEN + payload_len,
            found: bytes.len(),
        }
        .into());
    }
    let payload = &bytes[HEADER_LEN..];
    let stored = u32::from_le_bytes(bytes[28..32].try_into().expect("4-byte slice"));
    let computed = crc32(payload);
    if stored != computed {
        return Err(ArtifactError::ChecksumMismatch { stored, computed }.into());
    }
    Ok((bytes[10], payload))
}

/// Serializes `model` into artifact bytes, stamping `schema_fingerprint`.
///
/// # Errors
///
/// [`ArtifactError::Payload`] if JSON serialization fails (practically
/// impossible for in-memory models).
pub fn encode_model(model: &SavedModel, schema_fingerprint: u64) -> Result<Vec<u8>, DrcshapError> {
    let payload = model.to_payload()?;
    Ok(encode_container(model.kind().code(), schema_fingerprint, &payload))
}

/// Decodes artifact bytes, validating the full container framing and the
/// model kind before touching the payload.
///
/// # Errors
///
/// Every [`decode_container`] rejection, plus
/// [`ArtifactError::UnknownModelKind`] for a kind byte outside the
/// [`ModelKind`] code space.
pub fn decode_model(bytes: &[u8], expected_fingerprint: u64) -> Result<SavedModel, DrcshapError> {
    let (code, payload) = decode_container(bytes, expected_fingerprint)?;
    let kind = ModelKind::from_code(code).ok_or(ArtifactError::UnknownModelKind(code))?;
    SavedModel::from_payload(kind, payload)
}

/// Checks that `model` and `schema` agree on the feature count.
fn check_feature_count(model: &SavedModel, schema: &FeatureSchema) -> Result<(), DrcshapError> {
    if model.n_features() != schema.len() {
        return Err(SchemaError::FeatureCountMismatch {
            expected: schema.len(),
            found: model.n_features(),
        }
        .into());
    }
    Ok(())
}

/// Saves `model` to `path` as a versioned, checksummed artifact bound to
/// `schema`.
///
/// # Errors
///
/// [`SchemaError::FeatureCountMismatch`] if the model does not fit the
/// schema; [`DrcshapError::Io`] on filesystem failure.
pub fn save_model(
    path: impl AsRef<Path>,
    model: &SavedModel,
    schema: &FeatureSchema,
) -> Result<(), DrcshapError> {
    let path = path.as_ref();
    check_feature_count(model, schema)?;
    let bytes = encode_model(model, schema.fingerprint())?;
    write_atomic(path, &bytes)
}

/// Publishes `bytes` at `path` with full crash-atomic discipline: write to
/// a `*.tmp` sibling, fsync the file, rename over `path`, fsync the parent
/// directory. After a crash at any point, `path` holds either the complete
/// old content or the complete new content — never a torn mix.
///
/// # Errors
///
/// [`DrcshapError::Io`] naming the path of the failing step.
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> Result<(), DrcshapError> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let io = |p: &Path| {
        let p = p.display().to_string();
        move |e: std::io::Error| DrcshapError::io(p.clone(), e)
    };
    {
        use std::io::Write as _;
        let mut file = std::fs::File::create(&tmp).map_err(io(&tmp))?;
        file.write_all(bytes).map_err(io(&tmp))?;
        file.sync_all().map_err(io(&tmp))?;
    }
    std::fs::rename(&tmp, path).map_err(io(path))?;
    // Make the rename itself durable: without the directory fsync a crash
    // can still roll the directory entry back to the old file.
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        let dir = std::fs::File::open(parent).map_err(io(parent))?;
        dir.sync_all().map_err(io(parent))?;
    }
    Ok(())
}

/// Loads and fully validates a model artifact from `path` against `schema`.
///
/// # Errors
///
/// [`DrcshapError::Io`] if the file cannot be read; otherwise every
/// [`decode_model`] rejection, plus [`SchemaError::FeatureCountMismatch`]
/// if the decoded model disagrees with `schema` on the feature count.
pub fn load_model(
    path: impl AsRef<Path>,
    schema: &FeatureSchema,
) -> Result<SavedModel, DrcshapError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| DrcshapError::io(path.display().to_string(), e))?;
    let model = decode_model(&bytes, schema.fingerprint())?;
    check_feature_count(&model, schema)?;
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcshap_forest::RandomForestTrainer;
    use drcshap_ml::{Dataset, Trainer};

    fn tiny_forest() -> RandomForest {
        let x: Vec<f32> = (0..40).flat_map(|i| vec![(i % 2) as f32, 0.5]).collect();
        let y: Vec<bool> = (0..40).map(|i| i % 2 == 1).collect();
        let data = Dataset::from_parts(x, y, vec![0; 40], 2);
        RandomForestTrainer { n_trees: 5, ..Default::default() }.fit(&data, 7)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn container_round_trips_any_kind_byte() {
        let payload = br#"{"stage":"route"}"#;
        let bytes = encode_container(0x13, 77, payload);
        let (kind, body) = decode_container(&bytes, 77).expect("decode");
        assert_eq!(kind, 0x13);
        assert_eq!(body, payload.as_slice());
        // Wrong fingerprint is rejected before the payload is touched.
        assert!(matches!(
            decode_container(&bytes, 78),
            Err(DrcshapError::Schema(SchemaError::FingerprintMismatch { expected: 78, found: 77 }))
        ));
        // A payload bit-flip is caught by the checksum.
        let mut flipped = bytes.clone();
        flipped[HEADER_LEN + 3] ^= 0x20;
        assert!(matches!(
            decode_container(&flipped, 77),
            Err(DrcshapError::Artifact(ArtifactError::ChecksumMismatch { .. }))
        ));
    }

    #[test]
    fn encode_decode_round_trips_bit_exact() {
        let rf = tiny_forest();
        let model = SavedModel::Rf(rf.clone());
        let bytes = encode_model(&model, 42).expect("encode");
        assert_eq!(&bytes[..8], &MAGIC);
        let restored = decode_model(&bytes, 42).expect("decode");
        let SavedModel::Rf(back) = &restored else { panic!("wrong kind") };
        assert_eq!(back, &rf);
        // Identical scores, bit for bit.
        for x in [[0.0f32, 0.5], [1.0, 0.5], [0.3, 0.1]] {
            assert_eq!(back.predict_proba(&x).to_bits(), rf.predict_proba(&x).to_bits());
        }
    }

    #[test]
    fn every_header_field_is_validated() {
        let model = SavedModel::Rf(tiny_forest());
        let good = encode_model(&model, 7).expect("encode");

        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            decode_model(&bad, 7),
            Err(DrcshapError::Artifact(ArtifactError::BadMagic { .. }))
        ));

        let mut bad = good.clone();
        bad[8] = 0xff; // version 0xff01 or similar
        assert!(matches!(
            decode_model(&bad, 7),
            Err(DrcshapError::Artifact(ArtifactError::UnsupportedVersion { .. }))
        ));

        let mut bad = good.clone();
        bad[10] = 9;
        assert!(matches!(
            decode_model(&bad, 7),
            Err(DrcshapError::Artifact(ArtifactError::UnknownModelKind(9)))
        ));

        let mut bad = good.clone();
        bad[11] = 1;
        assert!(matches!(
            decode_model(&bad, 7),
            Err(DrcshapError::Artifact(ArtifactError::ReservedNonZero { offset: 11 }))
        ));

        let mut bad = good.clone();
        bad[12] ^= 0x01; // fingerprint
        assert!(matches!(
            decode_model(&bad, 7),
            Err(DrcshapError::Schema(SchemaError::FingerprintMismatch { .. }))
        ));

        // Wrong expected fingerprint on a pristine artifact.
        assert!(matches!(
            decode_model(&good, 8),
            Err(DrcshapError::Schema(SchemaError::FingerprintMismatch { expected: 8, found: 7 }))
        ));
    }

    #[test]
    fn truncation_extension_and_bitrot_are_rejected() {
        let model = SavedModel::Rf(tiny_forest());
        let good = encode_model(&model, 7).expect("encode");

        assert!(matches!(
            decode_model(&good[..10], 7),
            Err(DrcshapError::Artifact(ArtifactError::TooShort { needed: 32, found: 10 }))
        ));
        assert!(matches!(
            decode_model(&good[..good.len() - 1], 7),
            Err(DrcshapError::Artifact(ArtifactError::PayloadTruncated { .. }))
        ));
        let mut extended = good.clone();
        extended.push(0);
        assert!(matches!(
            decode_model(&extended, 7),
            Err(DrcshapError::Artifact(ArtifactError::TrailingBytes { .. }))
        ));
        let mut flipped = good.clone();
        let mid = HEADER_LEN + (good.len() - HEADER_LEN) / 2;
        flipped[mid] ^= 0x10;
        assert!(matches!(
            decode_model(&flipped, 7),
            Err(DrcshapError::Artifact(ArtifactError::ChecksumMismatch { .. }))
        ));
    }

    #[test]
    fn kind_payload_mismatch_fails_to_decode() {
        // Forge the kind byte from RF to RUSBoost: CRC still matches, so the
        // rejection must come from the payload decoder.
        let model = SavedModel::Rf(tiny_forest());
        let mut bytes = encode_model(&model, 7).expect("encode");
        bytes[10] = ModelKind::RusBoost.code();
        assert!(matches!(
            decode_model(&bytes, 7),
            Err(DrcshapError::Artifact(ArtifactError::Payload(_)))
        ));
    }

    #[test]
    fn save_load_checks_schema_feature_count() {
        // A 2-feature forest cannot be bound to the 387-feature schema.
        let schema = FeatureSchema::paper_387();
        let model = SavedModel::Rf(tiny_forest());
        let dir = std::env::temp_dir().join("drcshap_artifact_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("two_feature.model");
        let e = save_model(&path, &model, &schema).unwrap_err();
        assert!(matches!(
            e,
            DrcshapError::Schema(SchemaError::FeatureCountMismatch { expected: 387, found: 2 })
        ));
    }

    #[test]
    fn load_reports_missing_file_as_io() {
        let schema = FeatureSchema::paper_387();
        let e = load_model("/nonexistent/nowhere.model", &schema).unwrap_err();
        assert!(matches!(e, DrcshapError::Io { .. }), "{e}");
        assert!(e.to_string().contains("nowhere.model"));
    }

    #[test]
    fn model_kind_codes_round_trip() {
        for kind in [ModelKind::Rf, ModelKind::RusBoost, ModelKind::Svm, ModelKind::Nn] {
            assert_eq!(ModelKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(ModelKind::from_code(4), None);
    }

    #[test]
    fn streaming_crc32_matches_one_shot() {
        let data: Vec<u8> = (0u16..2048).map(|i| (i % 251) as u8).collect();
        let reference = crc32(&data);
        // Feed in ragged chunks, including empty ones.
        let mut digest = Crc32::new();
        for chunk in [&data[..1], &data[1..1], &data[1..700], &data[700..2048]] {
            digest.update(chunk);
        }
        assert_eq!(digest.finalize(), reference);
        // The known-answer vector for IEEE CRC32.
        let mut check = Crc32::new();
        check.update(b"123456789");
        assert_eq!(check.finalize(), 0xcbf4_3926);
        assert_eq!(Crc32::default().finalize(), crc32(&[]));
    }
}
