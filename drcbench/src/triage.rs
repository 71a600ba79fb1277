//! `triage`: the paper's Fig. 1 flow per design. Each op builds one of the
//! 14 Table I designs with `try_build_design`, then runs
//! `Explainer::triage(bundle, 0.0, 3)`, which scores every g-cell through
//! `predict_proba` and TreeSHAPs the top 3. Set-up is what the `triage`
//! verb pays before its first design: `try_build_suite` plus the forest
//! fit.
//!
//! The triage report carries no attributions, so SHAP correctness is
//! checked by the isolation pass: the pipeline's stage functions in
//! order with its RNG seeding, then `predict_proba` and `explain_gcell`.
//! It must reproduce the op's labels and report (compared by digest), and
//! every case must satisfy local accuracy (the paper's Eq. 1). Untraced
//! runs make that pass once per design after the timed phase; traced runs
//! make it after every op and time each call.

use std::time::Instant;

use drcshap_core::{
    try_build_design, try_build_suite, DesignBundle, Explainer, PipelineConfig, TriageReport,
};
use drcshap_drc::run_drc;
use drcshap_features::extract_design;
use drcshap_ml::DrcshapError;
use drcshap_netlist::{suite, synth, Design, DesignSpec};
use drcshap_place::place;
use drcshap_route::route_design;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::trace::{self, LayerMetrics, Tracer, CLIENT, ISOLATION};
use crate::{
    check, closed_loop, compact_trainer, forest_shape, host_provenance, median, ns_since, outcome,
    peak_rss_mb, percentile, unpruned_trainer, Crc32, Options, Outcome, SplitMix64, FIT_SEED,
    MAX_SHAP_GAP,
};

/// `Explainer::triage` threshold: every g-cell qualifies.
const THRESHOLD: f64 = 0.0;
/// `Explainer::triage` case cap.
const MAX_CASES: usize = 3;

/// What an op's public calls produced, by digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpOutput {
    labels: u32,
    report: u32,
}

/// What the isolation pass produced for one design.
#[derive(Debug, Clone, Copy)]
struct Decomposed {
    output: OpOutput,
    phi: u32,
    max_gap: f64,
    gcells: usize,
}

fn labels_crc(bundle: &DesignBundle) -> u32 {
    let mut crc = Crc32::default();
    crc.update(&bundle.report.labels.iter().map(|&l| u8::from(l)).collect::<Vec<_>>());
    crc.finish()
}

/// Digest of per-archetype rows `(archetype, count, actual hotspots, mean
/// probability)`, sorted by archetype (the report's own row order breaks
/// count ties arbitrarily).
fn rows_crc(mut rows: Vec<(String, usize, usize, f64)>) -> u32 {
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    let mut crc = Crc32::default();
    for (archetype, count, actual, mean) in rows {
        crc.update(archetype.as_bytes());
        crc.u64(count as u64);
        crc.u64(actual as u64);
        crc.f64(mean);
    }
    crc.finish()
}

fn report_crc(report: &TriageReport) -> u32 {
    rows_crc(
        report
            .rows
            .iter()
            .map(|r| (format!("{:?}", r.archetype), r.count, r.actual_hotspots, r.mean_probability))
            .collect(),
    )
}

/// One op's public calls, and their wall time in nanoseconds.
fn public_op(
    explainer: &Explainer,
    spec: &DesignSpec,
    config: &PipelineConfig,
    tracer: &mut Tracer,
    op: usize,
) -> (Result<(DesignBundle, TriageReport), DrcshapError>, u64) {
    let t0 = Instant::now();
    let span = tracer.open("triage.op", None, op, CLIENT);
    let result = tracer
        .time("core.try_build_design", Some(span), op, CLIENT, || try_build_design(spec, config))
        .map(|bundle| {
            let report = tracer.time("core.triage", Some(span), op, CLIENT, || {
                explainer.triage(&bundle, THRESHOLD, MAX_CASES)
            });
            (bundle, report)
        });
    tracer.close(span);
    (result, ns_since(t0))
}

/// The isolation pass: `try_build_design`'s stages and
/// `Explainer::triage`'s scoring and explanations, called one by one.
fn decompose(
    explainer: &Explainer,
    spec: &DesignSpec,
    config: &PipelineConfig,
    tracer: &mut Tracer,
    op: usize,
) -> Decomposed {
    let iso = tracer.open("isolation", None, op, ISOLATION);
    let p = Some(iso);
    let spec = spec.scaled(config.scale);
    let mut design = Design::new(spec.clone());
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed());
    tracer.time("netlist.generate_cells", p, op, ISOLATION, || {
        synth::generate_cells(&mut design, &mut rng)
    });
    tracer.time("place.place", p, op, ISOLATION, || place(&mut design, &mut rng));
    tracer.time("netlist.generate_nets", p, op, ISOLATION, || {
        synth::generate_nets(&mut design, &mut rng)
    });
    let route = tracer.time("route.route_design", p, op, ISOLATION, || {
        route_design(&design, &config.route_for(&spec), &mut rng)
    });
    let report = tracer
        .time("drc.run_drc", p, op, ISOLATION, || run_drc(&design, &route, &config.drc, &mut rng));
    let features = tracer
        .time("features.extract_design", p, op, ISOLATION, || extract_design(&design, &route));
    let bundle = DesignBundle { design, route, report, features };
    let forest = explainer.forest();
    let gcells = bundle.features.n_samples();
    let mut predicted: Vec<(usize, f64)> =
        tracer.time("forest.predict_proba", p, op, ISOLATION, || {
            (0..gcells).map(|i| (i, forest.predict_proba(bundle.features.row(i)))).collect()
        });
    predicted.retain(|&(_, prob)| prob >= THRESHOLD);
    predicted.sort_by(|a, b| b.1.total_cmp(&a.1));
    predicted.truncate(MAX_CASES);
    let mut rows: Vec<(String, usize, usize, f64)> = Vec::new();
    let mut phi = Crc32::default();
    let mut max_gap: f64 = 0.0;
    for &(i, prob) in &predicted {
        let case = tracer
            .time("shap.explain_gcell", p, op, ISOLATION, || explainer.explain_gcell(&bundle, i));
        max_gap = max_gap.max(case.explanation.local_accuracy_gap());
        phi.f64(case.explanation.base_value);
        phi.f64(case.explanation.prediction);
        case.explanation.contributions.iter().for_each(|&v| phi.f64(v));
        let archetype = format!("{:?}", case.archetype);
        let row = match rows.iter().position(|r| r.0 == archetype) {
            Some(k) => &mut rows[k],
            None => {
                rows.push((archetype, 0, 0, 0.0));
                rows.last_mut().expect("row just pushed")
            }
        };
        row.1 += 1;
        row.2 += usize::from(case.actual_hotspot);
        row.3 += prob;
    }
    for row in &mut rows {
        row.3 /= row.1.max(1) as f64;
    }
    tracer.close(iso);
    Decomposed {
        output: OpOutput { labels: labels_crc(&bundle), report: rows_crc(rows) },
        phi: phi.finish(),
        max_gap,
        gcells,
    }
}

/// Runs the `triage` workload.
///
/// # Errors
///
/// A set-up error (corpus build).
pub(crate) fn run(opts: &Options) -> Result<Outcome, DrcshapError> {
    let size = &opts.size;
    let specs = suite::all_specs();
    let corpus_config = PipelineConfig { scale: size.corpus_scale, ..Default::default() };
    let design_config = PipelineConfig { scale: size.triage_scale, ..Default::default() };
    let mut notes = host_provenance();
    notes.push(format!("seed: {}", opts.seed));

    let (mut setups, mut corpus_s, mut fit_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..size.triage_setups.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let bundles = try_build_suite(&specs, &corpus_config)?;
        let t1 = Instant::now();
        let trained = Explainer::train(&bundles, &unpruned_trainer(size), FIT_SEED);
        setups.push(t0.elapsed().as_secs_f64());
        corpus_s.push((t1 - t0).as_secs_f64());
        fit_s.push(t1.elapsed().as_secs_f64());
        last = Some((bundles, trained));
    }
    let (bundles, explainer) = last.expect("at least one set-up ran");
    // Untimed: the compact forest, fitted only to record its shape.
    let compact = Explainer::train(&bundles, &compact_trainer(size), FIT_SEED);
    drop(bundles);
    notes.push(format!("forest (unpruned): {}", forest_shape(explainer.forest())));
    notes.push(format!("forest (compact): {}", forest_shape(compact.forest())));
    notes.push(format!(
        "knobs: corpus scale {}, design scale {}, triage(threshold {THRESHOLD}, max_cases {MAX_CASES}), fit seed {FIT_SEED}",
        size.corpus_scale, size.triage_scale
    ));

    // Timed phase: public calls only. Each design's outputs must repeat
    // whenever it is drawn again.
    let n = specs.len();
    let mut seen: Vec<Option<OpOutput>> = vec![None; n];
    let mut violations = 0;
    // Ops per design whose outputs passed the in-loop checks; they fail
    // too if the design fails verification.
    let mut passed = vec![0u64; n];
    let mut untraced = Tracer::disabled();
    let mut rng = SplitMix64::new(opts.seed);
    let mut phase = closed_loop(
        opts.seconds,
        || rng.permutation(n),
        |_, _, d| {
            let (result, ns) = public_op(&explainer, &specs[d], &design_config, &mut untraced, 0);
            let (bundle, report) = result.ok()?;
            let output = OpOutput { labels: labels_crc(&bundle), report: report_crc(&report) };
            let complete = report.total() == MAX_CASES.min(bundle.features.n_samples());
            let ok = complete && *seen[d].get_or_insert(output) == output;
            passed[d] += u64::from(ok);
            check(ok, ns, &mut violations)
        },
    );

    // Verification: the isolation pass once per design drawn.
    let mut phi = vec![0u32; n];
    for d in 0..n {
        let Some(output) = seen[d] else { continue };
        let dec = decompose(&explainer, &specs[d], &design_config, &mut Tracer::disabled(), 0);
        phi[d] = dec.phi;
        if dec.output != output || dec.max_gap > MAX_SHAP_GAP {
            violations += 1;
            phase.failed += passed[d];
        }
    }
    notes.push(format!("check: isolation pass reproduces labels and report of every design, and local accuracy <= {MAX_SHAP_GAP:e}: {}", if violations == 0 { "pass" } else { "FAIL" }));
    let mut digest = Crc32::default();
    for &d in &phase.first_cycle {
        let output = seen[d].unwrap_or(OpOutput { labels: 0, report: 0 });
        digest.update(specs[d].name.as_bytes());
        digest.u64(u64::from(output.labels));
        digest.u64(u64::from(output.report));
        digest.u64(u64::from(phi[d]));
    }

    if !opts.trace {
        return Ok(outcome(opts, &setups, &phase, None, violations == 0, &digest, notes));
    }

    let mut tracer = Tracer::new();
    let mut rng = SplitMix64::new(opts.seed);
    let mut gcells = 0usize;
    let traced = closed_loop(
        opts.seconds,
        || rng.permutation(n),
        |_, seq, d| {
            let (result, ns) = public_op(&explainer, &specs[d], &design_config, &mut tracer, seq);
            let (bundle, report) = result.ok()?;
            let output = OpOutput { labels: labels_crc(&bundle), report: report_crc(&report) };
            drop(bundle);
            let dec = decompose(&explainer, &specs[d], &design_config, &mut tracer, seq);
            gcells += dec.gcells;
            check(dec.output == output && dec.max_gap <= MAX_SHAP_GAP, ns, &mut violations)
        },
    );
    let ops = tracer.total("triage.op").0;
    let per_op = |name: &str| tracer.per_op_ns(name, ops);
    let synth = per_op("netlist.generate_cells") + per_op("netlist.generate_nets");
    let stages = synth
        + per_op("place.place")
        + per_op("route.route_design")
        + per_op("drc.run_drc")
        + per_op("features.extract_design");
    let (cases, shap_total) = tracer.total("shap.explain_gcell");
    let triage_other =
        per_op("core.triage") - per_op("forest.predict_proba") - per_op("shap.explain_gcell");
    let core_other = per_op("core.try_build_design") - stages + triage_other;
    let (table, unattributed) = trace::layer_table(
        "triage",
        per_op("triage.op"),
        &[
            ("netlist (generate_cells + generate_nets)", synth),
            ("place (place)", per_op("place.place")),
            ("route (route_design)", per_op("route.route_design")),
            ("drc (run_drc)", per_op("drc.run_drc")),
            ("features (extract_design)", per_op("features.extract_design")),
            ("forest (predict_proba, all g-cells)", per_op("forest.predict_proba")),
            ("shap (explain_gcell x3)", per_op("shap.explain_gcell")),
            ("core (pipeline + triage other)", core_other),
        ],
    );
    notes.extend(table);
    let (line, overhead_pct) = trace::overhead(
        percentile(&phase.latencies_ns, 0.5).0,
        percentile(&traced.latencies_ns, 0.5).0,
    );
    notes.push(line);
    let mut m = LayerMetrics::default();
    m.set("netlist.synth_ms", synth / 1e6);
    m.set("place.place_ms", per_op("place.place") / 1e6);
    m.set("route.route_ms", per_op("route.route_design") / 1e6);
    m.set("drc.label_ms", per_op("drc.run_drc") / 1e6);
    m.set("features.extract_ms", per_op("features.extract_design") / 1e6);
    m.set("features.gcells", gcells as f64 / ops.max(1) as f64);
    m.set("forest.predict_ms", per_op("forest.predict_proba") / 1e6);
    m.set("forest.fit_s", median(&fit_s));
    m.set("shap.explain_ms", shap_total / cases.max(1) as f64 / 1e6);
    m.set("core.corpus_s", median(&corpus_s));
    m.set("core.triage_other_ms", triage_other / 1e6);
    m.set("proc.peak_rss_mb", peak_rss_mb());
    m.set("trace.unattributed_share", unattributed);
    m.set("trace.overhead_pct", overhead_pct);
    notes.push(crate::write_trace(&tracer, opts)?);
    Ok(outcome(
        opts,
        &setups,
        &phase,
        Some((&traced, m.metrics())),
        violations == 0,
        &digest,
        notes,
    ))
}
