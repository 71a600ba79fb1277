//! Fault-injection suite for the hardened serving path and the supervised
//! pipeline: versioned artifacts, the validated predict boundary, and stage
//! checkpoints must turn every corruption into a typed error (or a defined
//! degraded result) — never a panic, never a silently-wrong answer.

use drcshap::core::artifact::{
    decode_model, encode_model, load_model, save_model, ModelKind, SavedModel, HEADER_LEN, MAGIC,
};
use drcshap::core::faults::{
    run_artifact_faults, run_vector_faults, ArtifactFault, StageFault, StageFaultKind, VectorFault,
};
use drcshap::core::pipeline::{try_build_suite, DesignBundle, PipelineConfig, Stage};
use drcshap::core::supervisor::{run_supervised, SuiteReport, SupervisorConfig};
use drcshap::features::FeatureSchema;
use drcshap::forest::{RandomForest, RandomForestTrainer};
use drcshap::geom::CancelToken;
use drcshap::ml::{
    ArtifactError, Classifier, Dataset, DrcshapError, InputError, NanPolicy, PipelineError,
    SchemaError, Trainer,
};
use drcshap::netlist::{suite, DesignSpec};

/// A small forest over `m` features (fast to train, non-trivial payload).
fn forest(m: usize, seed: u64) -> RandomForest {
    let n = 60;
    let mut x = Vec::with_capacity(n * m);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        for j in 0..m {
            x.push(((i * 31 + j * 7) % 17) as f32 / 17.0);
        }
        y.push((i * 31 % 17) > 8);
    }
    let data = Dataset::from_parts(x, y, vec![0; n], m);
    RandomForestTrainer { n_trees: 6, ..Default::default() }.fit(&data, seed)
}

#[test]
fn disk_round_trip_is_bit_exact() {
    let schema = FeatureSchema::paper_387();
    let rf = forest(schema.len(), 1);
    let model = SavedModel::Rf(rf.clone());
    let dir = std::env::temp_dir().join("drcshap_fault_injection");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("round_trip.model");
    save_model(&path, &model, &schema).expect("save");
    let restored = load_model(&path, &schema).expect("load");
    assert_eq!(restored.kind(), ModelKind::Rf);
    assert_eq!(restored.n_features(), 387);
    let x: Vec<f32> = (0..387).map(|j| (j % 13) as f32 / 13.0).collect();
    assert_eq!(
        restored.as_classifier().score(&x).to_bits(),
        rf.predict_proba(&x).to_bits(),
        "restored model must score bit-identically"
    );
}

#[test]
fn every_single_byte_flip_is_detected() {
    let model = SavedModel::Rf(forest(4, 2));
    let good = encode_model(&model, 0xfeed).expect("encode");
    for offset in 0..good.len() {
        for mask in [0x01u8, 0x80] {
            let mut bad = good.clone();
            bad[offset] ^= mask;
            let e = decode_model(&bad, 0xfeed)
                .expect_err(&format!("flip {mask:#04x} at byte {offset} must be detected"));
            assert!(
                matches!(e, DrcshapError::Artifact(_) | DrcshapError::Schema(_)),
                "byte {offset}: unexpected error class {e}"
            );
        }
    }
}

#[test]
fn header_tampering_yields_the_matching_variant() {
    let model = SavedModel::Rf(forest(4, 3));
    let good = encode_model(&model, 5).expect("encode");
    let decode_tampered = |offset: usize, value: u8| {
        let mut bad = good.clone();
        bad[offset] = value;
        decode_model(&bad, 5).unwrap_err()
    };
    assert!(matches!(
        decode_tampered(0, b'X'),
        DrcshapError::Artifact(ArtifactError::BadMagic { .. })
    ));
    assert!(matches!(
        decode_tampered(9, 0x7f),
        DrcshapError::Artifact(ArtifactError::UnsupportedVersion { .. })
    ));
    assert!(matches!(
        decode_tampered(10, 200),
        DrcshapError::Artifact(ArtifactError::UnknownModelKind(200))
    ));
    assert!(matches!(
        decode_tampered(11, 1),
        DrcshapError::Artifact(ArtifactError::ReservedNonZero { offset: 11 })
    ));
    assert!(matches!(
        decode_tampered(12, 0xaa),
        DrcshapError::Schema(SchemaError::FingerprintMismatch { .. })
    ));
    assert!(matches!(
        decode_tampered(20, good[20] ^ 0xff),
        DrcshapError::Artifact(
            ArtifactError::PayloadTruncated { .. } | ArtifactError::TrailingBytes { .. }
        )
    ));
    assert!(matches!(
        decode_tampered(28, good[28] ^ 0xff),
        DrcshapError::Artifact(ArtifactError::ChecksumMismatch { .. })
    ));
}

#[test]
fn truncation_and_extension_are_detected_at_every_boundary() {
    let model = SavedModel::Rf(forest(4, 4));
    let good = encode_model(&model, 5).expect("encode");
    for keep in [0, 1, 8, 16, HEADER_LEN - 1] {
        assert!(
            matches!(
                decode_model(&good[..keep], 5),
                Err(DrcshapError::Artifact(ArtifactError::TooShort { .. }))
            ),
            "keep={keep}"
        );
    }
    for keep in [HEADER_LEN, HEADER_LEN + 5, good.len() - 1] {
        assert!(
            matches!(
                decode_model(&good[..keep], 5),
                Err(DrcshapError::Artifact(ArtifactError::PayloadTruncated { .. }))
            ),
            "keep={keep}"
        );
    }
    let mut extended = good.clone();
    extended.extend_from_slice(b"junk");
    assert!(matches!(
        decode_model(&extended, 5),
        Err(DrcshapError::Artifact(ArtifactError::TrailingBytes { .. }))
    ));
}

#[test]
fn wrong_and_nan_vectors_yield_typed_errors_under_reject() {
    let rf = forest(4, 5);
    assert!(matches!(
        rf.score_checked(&[0.1, 0.2], NanPolicy::Reject),
        Err(DrcshapError::Input(InputError::LengthMismatch { expected: 4, found: 2 }))
    ));
    assert!(matches!(
        rf.score_checked(&[0.1; 6], NanPolicy::Reject),
        Err(DrcshapError::Input(InputError::LengthMismatch { expected: 4, found: 6 }))
    ));
    assert!(matches!(
        rf.score_checked(&[0.1, f32::NAN, 0.3, 0.4], NanPolicy::Reject),
        Err(DrcshapError::Input(InputError::NonFinite { index: 1, .. }))
    ));
    assert!(matches!(
        rf.score_checked(&[0.1, 0.2, f32::INFINITY, 0.4], NanPolicy::Reject),
        Err(DrcshapError::Input(InputError::NonFinite { index: 2, .. }))
    ));
    // The clean vector sails through and matches the raw score.
    let x = [0.1, 0.2, 0.3, 0.4];
    assert_eq!(rf.score_checked(&x, NanPolicy::Reject).unwrap().to_bits(), rf.score(&x).to_bits());
}

#[test]
fn lenient_policies_return_defined_probabilities() {
    let rf = forest(4, 6);
    let dirty = [f32::NAN, 0.2, f32::INFINITY, 0.4];
    for policy in [NanPolicy::ImputeZero, NanPolicy::NanAware] {
        let p = rf.score_checked(&dirty, policy).unwrap();
        assert!(p.is_finite() && (0.0..=1.0).contains(&p), "{policy:?}: {p}");
    }
    // Lenient policies still reject wrong-length vectors.
    for policy in [NanPolicy::ImputeZero, NanPolicy::NanAware] {
        assert!(matches!(
            rf.score_checked(&[0.5], policy),
            Err(DrcshapError::Input(InputError::LengthMismatch { .. }))
        ));
    }
}

#[test]
fn artifact_fault_battery_reports_zero_panics_and_zero_undetected() {
    let model = SavedModel::Rf(forest(6, 7));
    let bytes = encode_model(&model, 123).expect("encode");
    let faults = ArtifactFault::battery(bytes.len());
    assert!(faults.len() > 60, "battery should be substantial, got {}", faults.len());
    let report = run_artifact_faults(&bytes, 123, &faults);
    assert!(report.all_handled(), "{report}: {:?}", report.failures);
    assert_eq!(report.rejected, report.total(), "{report}");
}

#[test]
fn vector_fault_battery_reports_zero_panics_under_every_policy() {
    let rf = forest(6, 8);
    let x = [0.3f32; 6];
    let faults = VectorFault::battery(x.len());
    for policy in [NanPolicy::Reject, NanPolicy::ImputeZero, NanPolicy::NanAware] {
        let report = run_vector_faults(&rf, &x, policy, &faults);
        assert!(report.all_handled(), "{policy:?} {report}: {:?}", report.failures);
    }
}

#[test]
fn magic_constant_is_stable() {
    // The on-disk format is a contract: changing MAGIC or the header size
    // breaks every existing artifact.
    assert_eq!(&MAGIC, b"DRCSHAP\0");
    assert_eq!(HEADER_LEN, 32);
}

// ---- supervised pipeline: stage-boundary faults ------------------------

const SUP_SCALE: f64 = 0.15;

fn sup_specs() -> Vec<DesignSpec> {
    vec![suite::spec("fft_1").unwrap(), suite::spec("fft_2").unwrap()]
}

fn sup_config(tag: &str) -> SupervisorConfig {
    let dir = std::env::temp_dir().join(format!("drcshap-stagefault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    SupervisorConfig::new(PipelineConfig { scale: SUP_SCALE, ..Default::default() }, dir)
}

fn cleanup(sup: &SupervisorConfig) {
    let _ = std::fs::remove_dir_all(&sup.run_dir);
}

/// Asserts the supervised bundles match a fresh unsupervised build of the
/// same specs bit-exactly: same labels, same feature bit patterns.
fn assert_matches_direct(report: &SuiteReport, direct: &[DesignBundle]) {
    assert_eq!(report.bundles.len(), direct.len());
    for (supervised, expected) in report.bundles.iter().zip(direct) {
        let supervised = supervised.as_ref().expect("design completed");
        assert_eq!(supervised.report.labels, expected.report.labels);
        let n = expected.features.n_samples();
        assert_eq!(supervised.features.n_samples(), n);
        for i in 0..n {
            let a: Vec<u32> = supervised.features.row(i).iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = expected.features.row(i).iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "feature row {i} diverged");
        }
    }
}

#[test]
fn supervised_suite_is_bit_identical_to_the_unsupervised_pipeline() {
    let sup = sup_config("equiv");
    let report = run_supervised(&sup_specs(), &sup, &CancelToken::new()).expect("run");
    assert_eq!(report.completed(), 2, "{}", report.render());
    assert!(!report.cancelled);
    let direct = try_build_suite(&sup_specs(), &sup.pipeline).expect("direct build");
    assert_matches_direct(&report, &direct);
    cleanup(&sup);
}

#[test]
fn cancellation_mid_route_is_resumable_bit_exactly() {
    let mut sup = sup_config("cancel");
    sup.fault = Some(StageFault {
        design: "fft_2".to_string(),
        stage: Stage::Route,
        kind: StageFaultKind::Cancel,
    });
    let cancel = CancelToken::new();
    let killed = run_supervised(&sup_specs(), &sup, &cancel).expect("cancelled run returns Ok");
    assert!(killed.cancelled, "the injected cancel must mark the run cancelled");
    let faulted = killed.designs.iter().find(|d| d.name == "fft_2").unwrap();
    assert_ne!(
        faulted.status,
        drcshap::core::supervisor::DesignStatus::Completed,
        "fft_2 was cancelled before its route stage"
    );

    // Resume without the fault: the run completes from the checkpoints and
    // is bit-identical to a never-interrupted build.
    sup.fault = None;
    let resumed = run_supervised(&sup_specs(), &sup, &CancelToken::new()).expect("resume");
    assert_eq!(resumed.completed(), 2, "{}", resumed.render());
    let fft_2 = resumed.designs.iter().find(|d| d.name == "fft_2").unwrap();
    assert!(
        fft_2.stages_resumed >= 2,
        "resume must reuse the synth and place checkpoints: {fft_2:?}"
    );
    let direct = try_build_suite(&sup_specs(), &sup.pipeline).expect("direct build");
    assert_matches_direct(&resumed, &direct);
    cleanup(&sup);
}

#[test]
fn corrupt_route_checkpoint_is_recomputed_not_panicked() {
    let sup = sup_config("corrupt");
    let first = run_supervised(&sup_specs(), &sup, &CancelToken::new()).expect("run");
    assert_eq!(first.completed(), 2);

    // Flip one payload byte of fft_1's route checkpoint on disk.
    let path = sup.run_dir.join("fft_1").join("route.ckpt");
    let mut bytes = std::fs::read(&path).expect("route checkpoint exists");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let resumed = run_supervised(&sup_specs(), &sup, &CancelToken::new()).expect("resume");
    assert_eq!(resumed.completed(), 2, "{}", resumed.render());
    let fft_1 = resumed.designs.iter().find(|d| d.name == "fft_1").unwrap();
    assert_eq!(fft_1.recovered_checkpoints, 1, "{fft_1:?}");
    // synth + place resumed; route, drc, extract recomputed.
    assert_eq!(fft_1.stages_resumed, 2, "{fft_1:?}");
    assert_eq!(fft_1.stages_run, 3, "{fft_1:?}");
    let direct = try_build_suite(&sup_specs(), &sup.pipeline).expect("direct build");
    assert_matches_direct(&resumed, &direct);
    cleanup(&sup);
}

#[test]
fn torn_manifest_is_a_typed_error_never_a_panic() {
    use drcshap::core::read_manifest;

    let sup = sup_config("torn-manifest");
    let first = run_supervised(&sup_specs(), &sup, &CancelToken::new()).expect("run");
    assert_eq!(first.completed(), 2);

    // A manifest torn mid-write (pre-atomic-rename crash semantics, or a
    // sector-level tear): truncate it in the middle of the JSON body.
    let path = sup.run_dir.join("manifest.json");
    let bytes = std::fs::read(&path).expect("manifest exists");
    assert!(bytes.len() > 20);
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

    let e = read_manifest(&sup.run_dir).expect_err("torn manifest must not parse");
    assert!(
        matches!(e, DrcshapError::Pipeline(PipelineError::ManifestMismatch { .. })),
        "unexpected error class: {e}"
    );
    let e = run_supervised(&sup_specs(), &sup, &CancelToken::new())
        .expect_err("resume over a torn manifest must fail typed");
    assert!(
        matches!(e, DrcshapError::Pipeline(PipelineError::ManifestMismatch { .. })),
        "unexpected error class: {e}"
    );
    cleanup(&sup);
}

#[test]
fn stray_manifest_tmp_from_a_crashed_write_does_not_block_resume() {
    let sup = sup_config("stray-tmp");
    let first = run_supervised(&sup_specs(), &sup, &CancelToken::new()).expect("run");
    assert_eq!(first.completed(), 2);

    // The atomic-write discipline (write *.tmp, fsync, rename) can leave a
    // stray temp file if the process dies before the rename. The real
    // manifest is intact; the leftover must be ignored.
    let tmp = sup.run_dir.join("manifest.json.tmp");
    std::fs::write(&tmp, b"{ torn garbage from a crashed writer").unwrap();

    let resumed = run_supervised(&sup_specs(), &sup, &CancelToken::new()).expect("resume");
    assert_eq!(resumed.completed(), 2, "{}", resumed.render());
    let direct = try_build_suite(&sup_specs(), &sup.pipeline).expect("direct build");
    assert_matches_direct(&resumed, &direct);
    cleanup(&sup);
}

#[test]
fn expired_stage_deadline_degrades_but_the_suite_completes() {
    let mut sup = sup_config("deadline");
    sup.stage_deadline = Some(std::time::Duration::ZERO);
    let report = run_supervised(&sup_specs(), &sup, &CancelToken::new()).expect("run");
    assert_eq!(report.completed(), 2, "{}", report.render());
    assert!(!report.cancelled);
    for (outcome, bundle) in report.designs.iter().zip(&report.bundles) {
        assert!(
            outcome.degraded_stages.contains(&Stage::Route),
            "a zero deadline must degrade routing: {outcome:?}"
        );
        let bundle = bundle.as_ref().expect("bundle produced despite degradation");
        assert!(bundle.route.status.is_degraded());
        // Labels and features are still produced at full dimensionality.
        let n = bundle.design.grid.num_cells();
        assert_eq!(bundle.report.labels.len(), n);
        assert_eq!(bundle.features.n_samples(), n);
        assert_eq!(bundle.features.n_features(), 387);
    }
    cleanup(&sup);
}

#[test]
fn cli_run_with_a_failed_design_reports_it_then_exits_1() {
    let sup = sup_config("cli-failed");
    std::fs::create_dir_all(&sup.run_dir).expect("run dir");
    // A plain file where the design's checkpoint directory goes fails
    // every attempt with an I/O error.
    std::fs::write(sup.run_dir.join("fft_1"), b"").expect("blocking file");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_drcshap"))
        .arg("run")
        .arg(&sup.run_dir)
        .args(["0.05", "--design", "fft_1"])
        .output()
        .expect("run drcshap");
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.status.code(), Some(1), "{stdout}{stderr}");
    assert!(stdout.contains("0/1 designs completed"), "{stdout}");
    assert!(stdout.contains("feature digest"), "{stdout}");
    assert!(stderr.contains("run incomplete: 0 of 1 designs completed"), "{stderr}");
    cleanup(&sup);
}

/// The `feature digest` line `drcshap` prints for `args`.
fn cli_feature_digest(args: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_drcshap"))
        .args(args)
        .output()
        .expect("run drcshap");
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert!(out.status.success(), "{stdout}{stderr}");
    let line = stdout.lines().find(|l| l.starts_with("feature digest")).expect("digest line");
    line.to_owned()
}

#[test]
fn cli_resume_builds_the_designs_its_manifest_lists() {
    let sup = sup_config("cli-resume");
    let dir = sup.run_dir.to_str().expect("a UTF-8 temp path");
    let run = cli_feature_digest(&["run", dir, "0.05", "--design", "fft_1"]);
    assert!(run.ends_with("over 1 completed designs"), "{run}");
    let resumed = cli_feature_digest(&["resume", dir]);
    assert_eq!(resumed, run);

    // A manifest naming a design the suite lacks is a typed mismatch.
    let manifest = sup.run_dir.join("manifest.json");
    let text = std::fs::read_to_string(&manifest).expect("manifest");
    std::fs::write(&manifest, text.replace("\"fft_1\"", "\"no_such_design\"")).expect("edit");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_drcshap"))
        .args(["resume", dir])
        .output()
        .expect("run drcshap");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("no_such_design"), "{stderr}");
    cleanup(&sup);
}
