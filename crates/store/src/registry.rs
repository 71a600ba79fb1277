//! The crash-safe model registry: journaled generations over
//! content-addressed immutable blobs.
//!
//! One [`Registry`] owns a directory with this layout:
//!
//! ```text
//! <root>/LOG                      append-only generation journal
//! <root>/blobs/<hash>.blob        immutable model containers, by content hash
//! <root>/quarantine/<hash>.blob   blobs that failed verification
//! ```
//!
//! [`Registry::publish`] runs the atomic-publish protocol — blob tmp
//! write, fsync, rename, directory fsync, journal append, journal fsync —
//! so a crash at *any* syscall boundary leaves the registry recoverable:
//! [`Registry::open`] truncates a torn journal tail, syncs the journal,
//! sweeps stray temp files, and [`Registry::open_latest`] walks
//! generations newest-first, quarantining any blob whose checksum or
//! fingerprint fails, until it lands on a verified generation. A
//! generation whose publish returned `Ok` is never lost, a generation
//! recovery has served is never lost, and a quarantined blob is never
//! served again.

use std::sync::{Arc, Mutex};

use drcshap_core::artifact::{crc32, decode_model, encode_model, ModelKind, SavedModel};
use drcshap_features::FeatureSchema;
use drcshap_ml::{DrcshapError, StoreError};
use drcshap_telemetry as telemetry;
use serde::Serialize;

use crate::backend::{publish_file, StorageBackend};
use crate::journal::{self, Record};

/// Registry-relative path of the generation journal.
pub const JOURNAL: &str = "LOG";
/// Registry-relative blob directory.
pub const BLOB_DIR: &str = "blobs";
/// Registry-relative quarantine directory.
pub const QUARANTINE_DIR: &str = "quarantine";

/// FNV-1a 64-bit content hash — names blobs and detects silent content
/// drift independently of the CRC32 inside the container.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// What recovery found and repaired when the registry was opened.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct RecoveryReport {
    /// Committed generations found in the journal.
    pub generations: usize,
    /// Bytes cut off the journal tail (0 when the journal was clean).
    pub truncated_bytes: u64,
    /// Why the tail was cut, if it was.
    pub torn_detail: Option<String>,
    /// Stray `*.tmp` files swept out of the blob directory.
    pub swept_tmp_files: usize,
}

/// A successfully published generation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Published {
    /// The generation number the journal committed.
    pub generation: u64,
    /// Content hash of (and blob name for) the container bytes.
    pub hash: u64,
    /// Container size in bytes.
    pub len: u64,
    /// Schema fingerprint the model is bound to.
    pub fingerprint: u64,
}

/// A generation loaded back out of the registry, fully verified.
#[derive(Debug, Clone, PartialEq)]
pub struct Loaded {
    /// The generation number.
    pub generation: u64,
    /// Schema fingerprint the model is bound to.
    pub fingerprint: u64,
    /// Content hash of the container bytes.
    pub hash: u64,
    /// The decoded model.
    pub model: SavedModel,
}

/// One journaled generation as reported by [`Registry::list`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct GenerationInfo {
    /// The generation number.
    pub generation: u64,
    /// Model kind code (see [`kind_name`]).
    pub kind: u8,
    /// Container size in bytes.
    pub len: u64,
    /// Schema fingerprint the model is bound to.
    pub fingerprint: u64,
    /// Content hash of (and blob name for) the container bytes.
    pub hash: u64,
    /// Whether the blob file currently exists (false after gc or
    /// quarantine).
    pub blob_present: bool,
}

/// Verification status of one journaled generation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum GenerationStatus {
    /// Blob present, checksum and fingerprint verified, model decodes.
    Verified,
    /// Blob absent (garbage-collected or quarantined earlier).
    Missing,
    /// Blob failed verification during this pass and was moved to
    /// quarantine.
    Quarantined {
        /// What verification found.
        detail: String,
    },
}

/// The outcome of [`Registry::verify`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct VerifyReport {
    /// Per-generation status, oldest first: `(generation, status)`.
    pub generations: Vec<(u64, GenerationStatus)>,
    /// Newest generation that verified, if any.
    pub latest_verified: Option<u64>,
}

impl VerifyReport {
    /// Generations whose blob verified in place.
    pub fn verified(&self) -> usize {
        self.count(|s| matches!(s, GenerationStatus::Verified))
    }

    /// Generations quarantined by this pass.
    pub fn quarantined(&self) -> usize {
        self.count(|s| matches!(s, GenerationStatus::Quarantined { .. }))
    }

    /// Generations whose blob is gone (collected or already quarantined).
    pub fn missing(&self) -> usize {
        self.count(|s| matches!(s, GenerationStatus::Missing))
    }

    fn count(&self, pred: impl Fn(&GenerationStatus) -> bool) -> usize {
        self.generations.iter().filter(|(_, s)| pred(s)).count()
    }
}

/// The outcome of [`Registry::gc`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct GcReport {
    /// Generations kept in the compacted journal.
    pub kept: usize,
    /// Journal records dropped.
    pub dropped: usize,
    /// Blob files deleted (hashes no longer referenced by kept records).
    pub removed_blobs: usize,
}

struct Inner {
    backend: Arc<dyn StorageBackend>,
    /// Serializes publish/gc and carries the next generation number.
    next_generation: Mutex<u64>,
    recovery: RecoveryReport,
}

/// A handle to a crash-safe model registry. Cheap to clone; all clones
/// share one backend and serialize their writes.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Registry {
    /// Opens (and recovers) the registry stored in `backend`: lays out the
    /// directories, truncates a torn journal tail, syncs the journal so
    /// every record it serves is durable, sweeps stray temp files, and
    /// caches the next generation number.
    ///
    /// # Errors
    ///
    /// [`DrcshapError::Io`] if the backend fails; corruption is *repaired*
    /// here, never an error.
    pub fn open(backend: Arc<dyn StorageBackend>) -> Result<Registry, DrcshapError> {
        let _span = telemetry::span("store/recover");
        let io = |path: &str| {
            let path = path.to_string();
            move |e: std::io::Error| DrcshapError::io(path, e)
        };
        backend.create_dir_all(BLOB_DIR).map_err(io(BLOB_DIR))?;
        backend.create_dir_all(QUARANTINE_DIR).map_err(io(QUARANTINE_DIR))?;
        if !backend.exists(JOURNAL) {
            // Create the journal up front and make its *directory entry*
            // durable. Appends fsync file contents only — if the entry
            // itself were provisional, a crash after the first publish
            // could drop the whole journal.
            backend.write(JOURNAL, &[]).map_err(io(JOURNAL))?;
            backend.sync(JOURNAL).map_err(io(JOURNAL))?;
            backend.sync_dir("").map_err(io("<root>"))?;
        }
        let scan = journal::load(backend.as_ref(), JOURNAL).map_err(io(JOURNAL))?;
        let mut report = RecoveryReport {
            generations: scan.records.len(),
            torn_detail: scan.torn.clone(),
            ..Default::default()
        };
        if scan.torn.is_some() {
            // Only the tail of an append-only journal can be damaged; cut
            // it off so the torn frame can never shadow a later append.
            let total = backend.read(JOURNAL).map_err(io(JOURNAL))?.len() as u64;
            report.truncated_bytes = total - scan.valid_len;
            backend.truncate(JOURNAL, scan.valid_len).map_err(io(JOURNAL))?;
            telemetry::counter("store/journal_truncations", 1);
        }
        // Make every record this handle will serve durable. A publish whose
        // journal fsync failed leaves its record visible but unsynced; if
        // recovery served it unsynced, a later crash could tear it away.
        backend.sync(JOURNAL).map_err(io(JOURNAL))?;
        // Crash leftovers: a publish that died before its rename leaves a
        // *.tmp in the blob directory. Nothing references it; sweep it.
        for name in backend.list(BLOB_DIR).map_err(io(BLOB_DIR))? {
            if name.ends_with(".tmp") {
                let path = format!("{BLOB_DIR}/{name}");
                backend.remove(&path).map_err(io(&path))?;
                report.swept_tmp_files += 1;
            }
        }
        if report.swept_tmp_files > 0 {
            backend.sync_dir(BLOB_DIR).map_err(io(BLOB_DIR))?;
        }
        let next = scan.records.last().map_or(1, |r| r.generation + 1);
        Ok(Registry {
            inner: Arc::new(Inner { backend, next_generation: Mutex::new(next), recovery: report }),
        })
    }

    /// What recovery found when this handle was opened.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.inner.recovery
    }

    /// Publishes `model` bound to `schema` as the next generation.
    ///
    /// # Errors
    ///
    /// The encoding errors of [`encode_model`]; [`DrcshapError::Io`] if
    /// any step of the atomic publish protocol fails (the registry is
    /// left recoverable: re-open and retry).
    pub fn publish(
        &self,
        model: &SavedModel,
        schema: &FeatureSchema,
    ) -> Result<Published, DrcshapError> {
        self.publish_model(model, schema.fingerprint())
    }

    /// Publishes `model` bound to a raw schema `fingerprint` (for callers
    /// that track fingerprints without a full schema, e.g. soak harnesses).
    ///
    /// # Errors
    ///
    /// As [`Registry::publish`].
    pub fn publish_model(
        &self,
        model: &SavedModel,
        fingerprint: u64,
    ) -> Result<Published, DrcshapError> {
        let _span = telemetry::span("store/publish");
        let bytes = encode_model(model, fingerprint)?;
        let backend = self.inner.backend.as_ref();
        let mut next = self.inner.next_generation.lock().expect("registry lock poisoned");
        let record = Record {
            generation: *next,
            hash: fnv1a64(&bytes),
            len: bytes.len() as u64,
            crc32: crc32(&bytes),
            fingerprint,
            kind: model.kind().code(),
        };
        let blob = record.blob_path();
        let io = |path: String| move |e: std::io::Error| DrcshapError::io(path, e);
        // The atomic publish protocol. Order is everything: the journal
        // record is appended only after the blob it points at is durable,
        // and the generation is committed only once the journal is synced.
        let tmp = format!("{blob}.tmp");
        backend.write(&tmp, &bytes).map_err(io(tmp.clone()))?; //       op 1
        backend.sync(&tmp).map_err(io(tmp.clone()))?; //                op 2
        backend.rename(&tmp, &blob).map_err(io(blob.clone()))?; //      op 3
        backend.sync_dir(BLOB_DIR).map_err(io(BLOB_DIR.into()))?; //    op 4
        backend.append(JOURNAL, &journal::encode_frame(&record)).map_err(io(JOURNAL.into()))?; // op 5
        backend.sync(JOURNAL).map_err(io(JOURNAL.into()))?; //          op 6
        *next += 1;
        telemetry::counter("store/published", 1);
        Ok(Published {
            generation: record.generation,
            hash: record.hash,
            len: record.len,
            fingerprint,
        })
    }

    /// Loads the newest generation that passes full verification —
    /// journal record, content hash, container checksum, schema
    /// fingerprint, model decode — quarantining every newer generation
    /// whose blob fails on the way down.
    ///
    /// # Errors
    ///
    /// [`StoreError::Empty`] if no generation verifies;
    /// [`DrcshapError::Io`] if the backend fails.
    pub fn open_latest(&self) -> Result<Loaded, DrcshapError> {
        let _span = telemetry::span("store/open_latest");
        let backend = self.inner.backend.as_ref();
        let scan = journal::load(backend, JOURNAL)
            .map_err(|e| DrcshapError::io(JOURNAL.to_string(), e))?;
        for record in scan.records.iter().rev() {
            match self.load_record(record)? {
                Ok(loaded) => return Ok(loaded),
                Err(None) => {} // blob gone: fall through to an older generation
                Err(Some(detail)) => {
                    self.quarantine(record)?;
                    telemetry::counter("store/quarantined", 1);
                    let _ = detail;
                }
            }
        }
        Err(StoreError::Empty.into())
    }

    /// Lists every journaled generation, oldest first. Strictly read-only:
    /// unlike [`Registry::verify`] this checks only blob *presence*, never
    /// content, and quarantines nothing.
    ///
    /// # Errors
    ///
    /// [`DrcshapError::Io`] if the journal cannot be read.
    pub fn list(&self) -> Result<Vec<GenerationInfo>, DrcshapError> {
        let backend = self.inner.backend.as_ref();
        let scan = journal::load(backend, JOURNAL)
            .map_err(|e| DrcshapError::io(JOURNAL.to_string(), e))?;
        Ok(scan
            .records
            .iter()
            .map(|r| GenerationInfo {
                generation: r.generation,
                kind: r.kind,
                len: r.len,
                fingerprint: r.fingerprint,
                hash: r.hash,
                blob_present: backend.exists(&r.blob_path()),
            })
            .collect())
    }

    /// Verifies every journaled generation in place, quarantining blobs
    /// that fail. Read-mostly: a fully healthy registry is not written.
    ///
    /// # Errors
    ///
    /// [`DrcshapError::Io`] if the backend fails; bad blobs are reported
    /// (and quarantined), not errors.
    pub fn verify(&self) -> Result<VerifyReport, DrcshapError> {
        let _span = telemetry::span("store/verify");
        let backend = self.inner.backend.as_ref();
        let scan = journal::load(backend, JOURNAL)
            .map_err(|e| DrcshapError::io(JOURNAL.to_string(), e))?;
        let mut generations = Vec::with_capacity(scan.records.len());
        let mut latest_verified = None;
        for record in &scan.records {
            let status = match self.load_record(record)? {
                Ok(_) => {
                    latest_verified = Some(record.generation);
                    GenerationStatus::Verified
                }
                Err(None) => GenerationStatus::Missing,
                Err(Some(detail)) => {
                    self.quarantine(record)?;
                    telemetry::counter("store/quarantined", 1);
                    GenerationStatus::Quarantined { detail }
                }
            };
            generations.push((record.generation, status));
        }
        Ok(VerifyReport { generations, latest_verified })
    }

    /// Keeps the newest `keep` generations: compacts the journal to those
    /// records (atomically) and deletes blob files no kept record
    /// references. Quarantined blobs are untouched — they are evidence.
    ///
    /// # Errors
    ///
    /// [`DrcshapError::usage`] if `keep` is zero; [`DrcshapError::Io`] if
    /// the backend fails.
    pub fn gc(&self, keep: usize) -> Result<GcReport, DrcshapError> {
        if keep == 0 {
            return Err(DrcshapError::usage("gc must keep at least one generation"));
        }
        let _span = telemetry::span("store/gc");
        let backend = self.inner.backend.as_ref();
        let _lock = self.inner.next_generation.lock().expect("registry lock poisoned");
        let io = |path: &str| {
            let path = path.to_string();
            move |e: std::io::Error| DrcshapError::io(path, e)
        };
        let scan = journal::load(backend, JOURNAL).map_err(io(JOURNAL))?;
        let cut = scan.records.len().saturating_sub(keep);
        let (dropped, kept) = scan.records.split_at(cut);
        // Swap the compacted journal in atomically first: once no record
        // references a blob, deleting it can no longer orphan a reader. A
        // crash in between leaves unreferenced blobs — harmless garbage
        // the next gc sweeps.
        let bytes: Vec<u8> = kept.iter().flat_map(journal::encode_frame).collect();
        publish_file(backend, JOURNAL, &bytes).map_err(io(JOURNAL))?;
        let kept_hashes: Vec<u64> = kept.iter().map(|r| r.hash).collect();
        let mut removed = 0usize;
        for record in dropped {
            if kept_hashes.contains(&record.hash) {
                continue; // content-addressing: a kept generation shares this blob
            }
            let blob = record.blob_path();
            if backend.exists(&blob) {
                backend.remove(&blob).map_err(io(&blob))?;
                removed += 1;
            }
        }
        if removed > 0 {
            backend.sync_dir(BLOB_DIR).map_err(io(BLOB_DIR))?;
        }
        Ok(GcReport { kept: kept.len(), dropped: dropped.len(), removed_blobs: removed })
    }

    /// A watch that delivers generations published *after* the newest one
    /// currently committed (the fleet is assumed to already serve that).
    ///
    /// # Errors
    ///
    /// [`DrcshapError::Io`] if the journal cannot be read.
    pub fn watch(&self) -> Result<RegistryWatch, DrcshapError> {
        let backend = self.inner.backend.as_ref();
        let scan = journal::load(backend, JOURNAL)
            .map_err(|e| DrcshapError::io(JOURNAL.to_string(), e))?;
        let last_seen = scan.records.last().map_or(0, |r| r.generation);
        Ok(RegistryWatch { registry: self.clone(), last_seen })
    }

    /// A watch that delivers every generation newer than `generation`
    /// (zero replays from the beginning).
    pub fn watch_from(&self, generation: u64) -> RegistryWatch {
        RegistryWatch { registry: self.clone(), last_seen: generation }
    }

    /// Reads and fully verifies one record's blob.
    ///
    /// Outer `Err` = backend I/O failure. Inner `Err(None)` = blob absent;
    /// `Err(Some(detail))` = blob present but failed verification.
    #[allow(clippy::type_complexity)]
    fn load_record(&self, record: &Record) -> Result<Result<Loaded, Option<String>>, DrcshapError> {
        let backend = self.inner.backend.as_ref();
        let blob = record.blob_path();
        let bytes = match backend.read(&blob) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Err(None)),
            Err(e) => return Err(DrcshapError::io(blob, e)),
        };
        if bytes.len() as u64 != record.len {
            return Ok(Err(Some(format!(
                "blob is {} bytes, journal committed {}",
                bytes.len(),
                record.len
            ))));
        }
        let hash = fnv1a64(&bytes);
        if hash != record.hash {
            return Ok(Err(Some(format!(
                "content hash {hash:#018x} != committed {:#018x}",
                record.hash
            ))));
        }
        if crc32(&bytes) != record.crc32 {
            return Ok(Err(Some("container CRC32 drifted from the journal record".into())));
        }
        let model = match decode_model(&bytes, record.fingerprint) {
            Ok(model) => model,
            Err(e) => return Ok(Err(Some(format!("container rejected: {e}")))),
        };
        if model.kind().code() != record.kind {
            return Ok(Err(Some(format!(
                "model kind {} != committed kind byte {:#04x}",
                model.kind(),
                record.kind
            ))));
        }
        Ok(Ok(Loaded {
            generation: record.generation,
            fingerprint: record.fingerprint,
            hash: record.hash,
            model,
        }))
    }

    /// Moves a failed blob to quarantine (durable), so it is never read
    /// as a candidate generation again.
    fn quarantine(&self, record: &Record) -> Result<(), DrcshapError> {
        let backend = self.inner.backend.as_ref();
        let from = record.blob_path();
        let to = record.quarantine_path();
        let io = |path: &str| {
            let path = path.to_string();
            move |e: std::io::Error| DrcshapError::io(path, e)
        };
        backend.rename(&from, &to).map_err(io(&from))?;
        backend.sync_dir(BLOB_DIR).map_err(io(BLOB_DIR))?;
        backend.sync_dir(QUARANTINE_DIR).map_err(io(QUARANTINE_DIR))?;
        Ok(())
    }
}

/// An incremental view over a registry: [`poll`](RegistryWatch::poll)
/// returns each newly published (and verified) generation exactly once.
pub struct RegistryWatch {
    registry: Registry,
    last_seen: u64,
}

impl RegistryWatch {
    /// The newest generation this watch has delivered (or started after).
    pub fn last_seen(&self) -> u64 {
        self.last_seen
    }

    /// Returns the newest verified generation newer than anything this
    /// watch has delivered, or `None` if the registry has nothing newer.
    /// Corrupt newer blobs are quarantined by the underlying
    /// [`Registry::open_latest`] walk, so a torn publish can never stall
    /// the watch behind it.
    ///
    /// # Errors
    ///
    /// [`DrcshapError::Io`] if the backend fails.
    pub fn poll(&mut self) -> Result<Option<Loaded>, DrcshapError> {
        match self.registry.open_latest() {
            Ok(loaded) if loaded.generation > self.last_seen => {
                self.last_seen = loaded.generation;
                Ok(Some(loaded))
            }
            Ok(_) => Ok(None),
            Err(DrcshapError::Store(StoreError::Empty)) => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// The kind byte rendered for operator output (`registry ls`).
pub fn kind_name(code: u8) -> String {
    match ModelKind::from_code(code) {
        Some(kind) => kind.to_string(),
        None => format!("kind {code:#04x}"),
    }
}
