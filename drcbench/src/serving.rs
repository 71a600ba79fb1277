//! The serving workloads: `bulk`, `score` and `abductive`.
//!
//! Each starts from the 14-design corpus (every g-cell row, built before
//! any clock starts) and a model artifact encoded with `encode_model`.
//! Set-up is `decode_model`, starting the engine or gateway with pinned
//! shards and workers, and one warm request. The traced replay starts a
//! fresh engine or gateway, and after every op sends the same inputs
//! through `ServeEngine`, `CompiledForest`, `AbductiveEngine` and
//! `AnalyticsSink` directly, so the op's time can be split across them.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use drcshap_analytics::{AnalyticsConfig, AnalyticsSink};
use drcshap_core::{
    decode_model, encode_model, try_build_suite, Explainer, PipelineConfig, SavedModel,
};
use drcshap_features::FeatureSchema;
use drcshap_forest::RandomForest;
use drcshap_gateway::{BothExplanations, Gateway, GatewayConfig, Request};
use drcshap_ml::DrcshapError;
use drcshap_netlist::suite;
use drcshap_serve::{CompiledForest, ScoredResponse, ServeConfig, ServeEngine, Ticket};
use drcshap_xsat::{forest_vote, AbductiveEngine, XsatBudget};

use crate::trace::{self, LayerMetrics, Tracer, CLIENT, ISOLATION};
use crate::{
    check, closed_loop, compact_trainer, forest_shape, host_provenance, median, ns_since, outcome,
    peak_rss_mb, percentile, unpruned_trainer, Crc32, Options, Outcome, Size, SplitMix64, FIT_SEED,
    MAX_SHAP_GAP,
};

/// Tenant every gateway request carries.
const TENANT: &str = "drcbench";
/// The design (`bulk`) or row (`score`, `abductive`) every warm request
/// sends.
const WARM: usize = 0;

/// Every g-cell row of the corpus, and both forests fitted on it.
struct Corpus {
    rows: Vec<f32>,
    width: usize,
    /// Row range of each design.
    designs: Vec<std::ops::Range<usize>>,
    unpruned: RandomForest,
    compact: RandomForest,
}

impl Corpus {
    fn build(size: &Size) -> Result<Self, DrcshapError> {
        let config = PipelineConfig { scale: size.corpus_scale, ..Default::default() };
        let bundles = try_build_suite(&suite::all_specs(), &config)?;
        let width = bundles.first().map_or(0, |b| b.features.n_features());
        let mut rows = Vec::new();
        let mut designs = Vec::new();
        for b in &bundles {
            let start = rows.len() / width;
            for i in 0..b.features.n_samples() {
                rows.extend_from_slice(b.features.row(i));
            }
            designs.push(start..start + b.features.n_samples());
        }
        let unpruned =
            Explainer::train(&bundles, &unpruned_trainer(size), FIT_SEED).forest().clone();
        let compact = Explainer::train(&bundles, &compact_trainer(size), FIT_SEED).forest().clone();
        Ok(Self { rows, width, designs, unpruned, compact })
    }

    fn n_rows(&self) -> usize {
        self.rows.len() / self.width
    }

    fn row(&self, i: usize) -> &[f32] {
        &self.rows[i * self.width..(i + 1) * self.width]
    }

    fn request(&self, i: usize) -> Request {
        Request::new(self.row(i).to_vec()).tenant(TENANT).key(i as u64)
    }

    /// Every row of design `d`, as the payloads a `bulk` op submits.
    fn payloads(&self, d: usize) -> Vec<Vec<f32>> {
        self.designs[d].clone().map(|i| self.row(i).to_vec()).collect()
    }

    fn notes(&self, opts: &Options) -> Vec<String> {
        let mut notes = host_provenance();
        notes.push(format!("seed: {}", opts.seed));
        notes.push(format!("forest (unpruned): {}", forest_shape(&self.unpruned)));
        notes.push(format!("forest (compact): {}", forest_shape(&self.compact)));
        notes.push(format!(
            "corpus: {} designs, {} rows x {} features at scale {}",
            self.designs.len(),
            self.n_rows(),
            self.width,
            opts.size.corpus_scale
        ));
        notes
    }
}

fn fingerprint() -> u64 {
    FeatureSchema::paper_387().fingerprint()
}

fn decode_rf(artifact: &[u8]) -> Result<RandomForest, DrcshapError> {
    match decode_model(artifact, fingerprint())? {
        SavedModel::Rf(forest) => Ok(forest),
        other => Err(DrcshapError::usage(format!("expected an RF artifact, got {}", other.kind()))),
    }
}

fn serve_knobs(c: &ServeConfig) -> String {
    format!(
        "serve: max_batch {}, max_wait {:?}, workers {}, queue {}, cache {}, analytics {}",
        c.max_batch,
        c.max_wait,
        c.workers,
        c.queue_capacity,
        c.cache_capacity,
        if c.analytics.is_some() { "mounted" } else { "off" }
    )
}

fn gateway_knobs(c: &GatewayConfig) -> String {
    format!(
        "gateway: shards {}, vnodes {}, max_retries {}, hedge {:?}, quota {}, deadline {:?}",
        c.shards,
        c.vnodes,
        c.max_retries,
        c.hedge_after,
        if c.quota.is_some() { "on" } else { "off" },
        c.default_deadline
    )
}

/// Set-up timings: the whole set-up, `decode_model`, and the start call.
#[derive(Default)]
struct Setups {
    total_s: Vec<f64>,
    decode_ms: Vec<f64>,
    start_ms: Vec<f64>,
}

impl Setups {
    /// Runs `reps` set-ups of `start` (which gets the decoded forest) plus
    /// `warm`, dropping each before the next; returns the last.
    fn run<T>(
        &mut self,
        reps: usize,
        artifact: &[u8],
        start: impl Fn(RandomForest) -> Result<T, DrcshapError>,
        warm: impl Fn(&T) -> Result<(), DrcshapError>,
    ) -> Result<T, DrcshapError> {
        let mut last = None;
        for _ in 0..reps.max(1) {
            drop(last.take());
            let t0 = Instant::now();
            let forest = decode_rf(artifact)?;
            let t1 = Instant::now();
            let started = start(forest)?;
            let t2 = Instant::now();
            warm(&started)?;
            self.total_s.push(t0.elapsed().as_secs_f64());
            self.decode_ms.push((t1 - t0).as_secs_f64() * 1e3);
            self.start_ms.push((t2 - t1).as_secs_f64() * 1e3);
            last = Some(started);
        }
        Ok(last.expect("at least one set-up ran"))
    }
}

/// Per-layer metrics every traced serving run sets. The corpus build and
/// the forest fits run before the set-up clock starts, so `core.corpus_s`
/// and `forest.fit_s` stay 0 here, as for any idle layer.
fn common_layers(m: &mut LayerMetrics, setups: &Setups) {
    m.set("core.decode_ms", median(&setups.decode_ms));
    m.set("proc.peak_rss_mb", peak_rss_mb());
}

/// `bulk`'s engine: one worker, batching at its defaults.
fn bulk_config() -> ServeConfig {
    ServeConfig { workers: 1, ..ServeConfig::default() }
}

/// One `bulk` op: one design's rows (built by [`Corpus::payloads`] before
/// the op's clock starts) through the sliding ticket window of `drcshap
/// serve --design`, then a wait on each ticket.
fn bulk_op(
    engine: &ServeEngine,
    payloads: Vec<Vec<f32>>,
    window_cap: usize,
    tracer: &mut Tracer,
    parent: Option<usize>,
    op: usize,
) -> Result<Vec<ScoredResponse>, DrcshapError> {
    let mut responses = Vec::with_capacity(payloads.len());
    let mut window: VecDeque<Ticket> = VecDeque::new();
    let submit = tracer.open("serve.submit", parent, op, CLIENT);
    for x in payloads {
        if window.len() == window_cap {
            responses.push(window.pop_front().expect("window is full").wait()?);
        }
        window.push_back(engine.submit(x)?);
    }
    tracer.close(submit);
    let wait = tracer.open("serve.wait", parent, op, CLIENT);
    while let Some(ticket) = window.pop_front() {
        responses.push(ticket.wait()?);
    }
    tracer.close(wait);
    Ok(responses)
}

/// Every score bit-equals `RandomForest::predict_proba` on its row.
fn scores_match(responses: &[ScoredResponse], expected: &[u64]) -> bool {
    responses.len() == expected.len()
        && responses.iter().zip(expected).all(|(r, &e)| r.score.to_bits() == e)
}

/// Runs the `bulk` workload.
///
/// # Errors
///
/// A set-up error.
pub(crate) fn run_bulk(opts: &Options) -> Result<Outcome, DrcshapError> {
    let corpus = Corpus::build(&opts.size)?;
    let forest = &corpus.unpruned;
    let artifact = encode_model(&SavedModel::Rf(forest.clone()), fingerprint())?;
    let expected: Vec<u64> =
        (0..corpus.n_rows()).map(|i| forest.predict_proba(corpus.row(i)).to_bits()).collect();
    let config = bulk_config();
    let window = config.queue_capacity;
    let mut notes = corpus.notes(opts);
    notes.push(serve_knobs(&config));
    let start = |f: RandomForest| ServeEngine::start(bulk_config(), f, fingerprint());
    let warm = |e: &ServeEngine| {
        bulk_op(e, corpus.payloads(WARM), window, &mut Tracer::disabled(), None, 0).map(drop)
    };
    let mut setups = Setups::default();
    let engine = setups.run(opts.size.serving_setups, &artifact, start, warm)?;

    let n = corpus.designs.len();
    let mut digest = Crc32::default();
    let mut violations = 0;
    let mut off = Tracer::disabled();
    let mut rng = SplitMix64::new(opts.seed);
    let phase = closed_loop(
        opts.seconds,
        || rng.permutation(n),
        |cycle, _, d| {
            let payloads = corpus.payloads(d);
            let t0 = Instant::now();
            let responses = bulk_op(&engine, payloads, window, &mut off, None, 0).ok()?;
            let ns = ns_since(t0);
            if cycle == 0 {
                responses.iter().for_each(|r| digest.f64(r.score));
            }
            let ok = scores_match(&responses, &expected[corpus.designs[d].clone()]);
            check(ok, ns, &mut violations)
        },
    );
    drop(engine);
    notes.push(format!(
        "check: every score bit-equals predict_proba: {}",
        if violations == 0 { "pass" } else { "FAIL" }
    ));
    if !opts.trace {
        return Ok(outcome(opts, &setups.total_s, &phase, None, violations == 0, &digest, notes));
    }

    let engine = start(decode_rf(&artifact)?)?;
    warm(&engine)?;
    let compiled = CompiledForest::compile(forest);
    let mut tracer = Tracer::new();
    let mut rng = SplitMix64::new(opts.seed);
    let (mut rows, mut batches, mut inv_batch) = (0usize, 0usize, 0.0f64);
    let traced = closed_loop(
        opts.seconds,
        || rng.permutation(n),
        |_, seq, d| {
            let payloads = corpus.payloads(d);
            let t0 = Instant::now();
            let op = tracer.open("bulk.op", None, seq, CLIENT);
            let responses = bulk_op(&engine, payloads, window, &mut tracer, Some(op), seq);
            tracer.close(op);
            let ns = ns_since(t0);
            let responses = responses.ok()?;
            // The kernel alone, at the batch sizes the engine formed.
            let start = corpus.designs[d].start;
            let iso = tracer.open("isolation", None, seq, ISOLATION);
            let mut ok = scores_match(&responses, &expected[corpus.designs[d].clone()]);
            let mut i = 0;
            while i < responses.len() {
                let b = responses[i].batch_size.clamp(1, responses.len() - i);
                let flat = &corpus.rows[(start + i) * corpus.width..(start + i + b) * corpus.width];
                let scores = tracer.time("kernel.score_batch", Some(iso), seq, ISOLATION, || {
                    compiled.score_batch(flat)
                });
                ok &= scores
                    .iter()
                    .zip(&responses[i..i + b])
                    .all(|(s, r)| s.to_bits() == r.score.to_bits());
                batches += 1;
                i += b;
            }
            tracer.close(iso);
            rows += responses.len();
            inv_batch += responses.iter().map(|r| 1.0 / r.batch_size.max(1) as f64).sum::<f64>();
            check(ok, ns, &mut violations)
        },
    );
    let ops = tracer.total("bulk.op").0;
    let per_op = |name: &str| tracer.per_op_ns(name, ops);
    let (op_ns, kernel_ns) = (per_op("bulk.op"), per_op("kernel.score_batch"));
    let engine_ns = per_op("serve.submit") + per_op("serve.wait");
    let (table, unattributed) = trace::layer_table(
        "bulk",
        op_ns,
        &[
            ("serve kernel (score_batch, same batches)", kernel_ns),
            ("serve queue + batching + handoff", engine_ns - kernel_ns),
        ],
    );
    notes.extend(table);
    let (line, overhead_pct) = trace::overhead(
        percentile(&phase.latencies_ns, 0.5).0,
        percentile(&traced.latencies_ns, 0.5).0,
    );
    notes.push(line);
    let mut m = LayerMetrics::default();
    common_layers(&mut m, &setups);
    m.set("serve.submit_us", tracer.total("serve.submit").1 / rows.max(1) as f64 / 1e3);
    m.set("serve.wait_ms", per_op("serve.wait") / 1e6);
    m.set("serve.batches", inv_batch / ops.max(1) as f64);
    m.set("serve.batch_fill", rows as f64 / batches.max(1) as f64 / config.max_batch as f64);
    m.set("serve.start_ms", median(&setups.start_ms));
    m.set("serve.self_us", (engine_ns - kernel_ns) * ops as f64 / rows.max(1) as f64 / 1e3);
    m.set("serve.kernel_us", kernel_ns / 1e3);
    m.set("serve.kernel_share", kernel_ns / op_ns);
    m.set("trace.unattributed_share", unattributed);
    m.set("trace.overhead_pct", overhead_pct);
    notes.push(crate::write_trace(&tracer, opts)?);
    Ok(outcome(
        opts,
        &setups.total_s,
        &phase,
        Some((&traced, m.metrics())),
        violations == 0,
        &digest,
        notes,
    ))
}

/// `score`'s gateway: 2 shards x 1 worker, flushing without a timer.
fn score_config() -> GatewayConfig {
    GatewayConfig {
        shards: 2,
        serve: ServeConfig { workers: 1, max_wait: Duration::ZERO, ..ServeConfig::default() },
        ..GatewayConfig::default()
    }
}

/// Runs the `score` workload.
///
/// # Errors
///
/// A set-up error.
pub(crate) fn run_score(opts: &Options) -> Result<Outcome, DrcshapError> {
    let corpus = Corpus::build(&opts.size)?;
    let forest = &corpus.unpruned;
    let artifact = encode_model(&SavedModel::Rf(forest.clone()), fingerprint())?;
    let expected: Vec<u64> =
        (0..corpus.n_rows()).map(|i| forest.predict_proba(corpus.row(i)).to_bits()).collect();
    let config = score_config();
    let mut notes = corpus.notes(opts);
    notes.push(gateway_knobs(&config));
    notes.push(serve_knobs(&config.serve));
    let start = |f: RandomForest| Gateway::start(score_config(), f, fingerprint());
    let warm = |g: &Gateway| g.score(corpus.request(WARM)).map(drop);
    let mut setups = Setups::default();
    let gateway = setups.run(opts.size.serving_setups, &artifact, start, warm)?;

    let n = corpus.n_rows();
    let mut digest = Crc32::default();
    let mut violations = 0;
    let mut rng = SplitMix64::new(opts.seed);
    let phase = closed_loop(
        opts.seconds,
        || rng.permutation(n),
        |cycle, _, i| {
            let request = corpus.request(i);
            let t0 = Instant::now();
            let response = gateway.score(request);
            let ns = ns_since(t0);
            let response = response.ok()?;
            if cycle == 0 {
                digest.f64(response.score);
            }
            check(response.score.to_bits() == expected[i], ns, &mut violations)
        },
    );
    drop(gateway);
    notes.push(format!(
        "check: every score bit-equals predict_proba: {}",
        if violations == 0 { "pass" } else { "FAIL" }
    ));
    if !opts.trace {
        return Ok(outcome(opts, &setups.total_s, &phase, None, violations == 0, &digest, notes));
    }

    let gateway = start(decode_rf(&artifact)?)?;
    warm(&gateway)?;
    let t0 = Instant::now();
    let engine = ServeEngine::start(config.serve.clone(), decode_rf(&artifact)?, fingerprint())?;
    let engine_start_ms = t0.elapsed().as_secs_f64() * 1e3;
    engine.score(corpus.row(WARM).to_vec())?;
    let compiled = CompiledForest::compile(forest);
    let mut tracer = Tracer::new();
    let mut rng = SplitMix64::new(opts.seed);
    let (mut attempts, mut inv_batch, mut batch_rows) = (0u64, 0.0f64, 0usize);
    let traced = closed_loop(
        opts.seconds,
        || rng.permutation(n),
        |_, seq, i| {
            let request = corpus.request(i);
            let t0 = Instant::now();
            let op = tracer.open("score.op", None, seq, CLIENT);
            let response =
                tracer.time("gateway.score", Some(op), seq, CLIENT, || gateway.score(request));
            tracer.close(op);
            let ns = ns_since(t0);
            let response = response.ok()?;
            let x = corpus.row(i).to_vec();
            let iso = tracer.open("isolation", None, seq, ISOLATION);
            let engine_score =
                tracer.time("serve.score", Some(iso), seq, ISOLATION, || engine.score(x));
            let kernel = tracer.time("kernel.score_one", Some(iso), seq, ISOLATION, || {
                compiled.score_one(corpus.row(i))
            });
            tracer.close(iso);
            attempts += u64::from(response.attempts);
            inv_batch += 1.0 / response.batch_size.max(1) as f64;
            batch_rows += response.batch_size;
            let bits = [response.score, engine_score.ok()?.score, kernel].map(f64::to_bits);
            check(bits.iter().all(|&b| b == expected[i]), ns, &mut violations)
        },
    );
    let ops = tracer.total("score.op").0;
    let per_op = |name: &str| tracer.per_op_ns(name, ops);
    let (op_ns, gateway_ns) = (per_op("score.op"), per_op("gateway.score"));
    let (engine_ns, kernel_ns) = (per_op("serve.score"), per_op("kernel.score_one"));
    let (table, unattributed) = trace::layer_table(
        "score",
        op_ns,
        &[
            ("gateway (score - engine score)", gateway_ns - engine_ns),
            ("serve handoff (engine score - kernel)", engine_ns - kernel_ns),
            ("serve kernel (score_one)", kernel_ns),
        ],
    );
    notes.extend(table);
    let (line, overhead_pct) = trace::overhead(
        percentile(&phase.latencies_ns, 0.5).0,
        percentile(&traced.latencies_ns, 0.5).0,
    );
    notes.push(line);
    let mut m = LayerMetrics::default();
    common_layers(&mut m, &setups);
    m.set("serve.batches", inv_batch / ops.max(1) as f64);
    m.set(
        "serve.batch_fill",
        batch_rows as f64 / ops.max(1) as f64 / config.serve.max_batch as f64,
    );
    m.set("serve.start_ms", engine_start_ms);
    m.set("serve.self_us", (engine_ns - kernel_ns) / 1e3);
    m.set("serve.kernel_us", kernel_ns / 1e3);
    m.set("serve.kernel_share", kernel_ns / op_ns);
    m.set("gateway.self_us", (gateway_ns - engine_ns) / 1e3);
    m.set("gateway.attempts", attempts as f64 / ops.max(1) as f64);
    m.set("gateway.start_ms", median(&setups.start_ms));
    m.set("trace.unattributed_share", unattributed);
    m.set("trace.overhead_pct", overhead_pct);
    notes.push(crate::write_trace(&tracer, opts)?);
    Ok(outcome(
        opts,
        &setups.total_s,
        &phase,
        Some((&traced, m.metrics())),
        violations == 0,
        &digest,
        notes,
    ))
}

/// `abductive`'s gateway: 1 shard x 1 worker with analytics mounted.
fn abductive_config() -> GatewayConfig {
    GatewayConfig {
        shards: 1,
        serve: ServeConfig {
            workers: 1,
            analytics: Some(AnalyticsConfig::default()),
            ..ServeConfig::default()
        },
        ..GatewayConfig::default()
    }
}

/// Cells per half-cycle of `abductive`: one from each of this many equal
/// strata of the score ranking, for the top cells and for all cells.
const STRATA: usize = 8;

/// One draw from each of [`STRATA`] equal slices of `ranked`.
fn stratified(ranked: &[usize], rng: &mut SplitMix64) -> Vec<usize> {
    (0..STRATA)
        .map(|s| {
            let lo = s * ranked.len() / STRATA;
            let hi = ((s + 1) * ranked.len() / STRATA).max(lo + 1);
            ranked[lo + rng.below(hi - lo)]
        })
        .collect()
}

/// `abductive`'s op cycles: [`STRATA`] cells from the top of the ranking
/// interleaved with [`STRATA`] from all of it.
fn abductive_cycles<'a>(
    seed: u64,
    top: &'a [usize],
    ranked: &'a [usize],
) -> impl FnMut() -> Vec<usize> + 'a {
    let mut rng = SplitMix64::new(seed);
    move || {
        let (a, b) = (stratified(top, &mut rng), stratified(ranked, &mut rng));
        a.into_iter().zip(b).flat_map(|(x, y)| [x, y]).collect()
    }
}

/// The checks on one `explain_both` answer: local accuracy, class equal
/// to `forest_vote`, sufficient set within the encoding's used features.
fn explanation_ok(
    both: &BothExplanations,
    x: &[f32],
    forest: &RandomForest,
    used: &[usize],
) -> bool {
    both.abductive.as_ref().is_some_and(|abductive| {
        both.shap.local_accuracy_gap() <= MAX_SHAP_GAP
            && abductive.predicted_hotspot == forest_vote(forest, x)
            && abductive.sufficient.iter().all(|j| used.binary_search(j).is_ok())
    })
}

/// Runs the `abductive` workload.
///
/// # Errors
///
/// A set-up error.
pub(crate) fn run_abductive(opts: &Options) -> Result<Outcome, DrcshapError> {
    let corpus = Corpus::build(&opts.size)?;
    let forest = &corpus.compact;
    let artifact = encode_model(&SavedModel::Rf(forest.clone()), fingerprint())?;
    let budget = XsatBudget::default();
    // Cells ranked by score, highest first; half of each cycle comes from
    // the top `top_cells`, half from all cells.
    let mut ranked: Vec<usize> = (0..corpus.n_rows()).collect();
    let scores: Vec<f64> = ranked.iter().map(|&i| forest.predict_proba(corpus.row(i))).collect();
    ranked.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    let top = &ranked[..opts.size.top_cells.min(ranked.len())];
    let used = AbductiveEngine::new(forest)?.encoding().used_features();
    let config = abductive_config();
    let mut notes = corpus.notes(opts);
    notes.push(gateway_knobs(&config));
    notes.push(serve_knobs(&config.serve));
    notes.push(format!(
        "xsat budget: {} conflicts per call, {} in total, deadline {:?}; cells: {STRATA} from the top {} + {STRATA} from all, per cycle",
        budget.max_conflicts_per_call, budget.max_total_conflicts, budget.deadline, top.len()
    ));
    let start = |f: RandomForest| Gateway::start(abductive_config(), f, fingerprint());
    let warm = |g: &Gateway| g.explain_both(&corpus.request(WARM), &budget).map(drop);
    let mut setups = Setups::default();
    let gateway = setups.run(opts.size.serving_setups, &artifact, start, warm)?;

    let mut digest = Crc32::default();
    let (mut timeouts, mut violations) = (0u64, 0u64);
    let phase =
        closed_loop(opts.seconds, abductive_cycles(opts.seed, top, &ranked), |cycle, _, i| {
            let request = corpus.request(i);
            let t0 = Instant::now();
            let both = gateway.explain_both(&request, &budget);
            let ns = ns_since(t0);
            let both = both.ok()?;
            let Some(abductive) = &both.abductive else {
                timeouts += 1;
                return None;
            };
            if cycle == 0 {
                digest.f64(both.shap.base_value);
                both.shap.contributions.iter().for_each(|&v| digest.f64(v));
                digest.u64(u64::from(abductive.predicted_hotspot));
                digest.u64(abductive.sufficient.len() as u64);
                abductive.sufficient.iter().for_each(|&j| digest.u64(j as u64));
            }
            check(explanation_ok(&both, corpus.row(i), forest, &used), ns, &mut violations)
        });
    drop(gateway);
    notes.push(format!(
        "check: local accuracy <= {MAX_SHAP_GAP:e}, class = forest_vote, sufficient set within used_features: {}; budget-degraded answers: {timeouts}",
        if violations == 0 { "pass" } else { "FAIL" }
    ));
    if !opts.trace {
        return Ok(outcome(opts, &setups.total_s, &phase, None, violations == 0, &digest, notes));
    }

    // Fresh gateway, engine, solver and sink, warmed alike, so the
    // isolation calls see the same history as the gateway's.
    let gateway = start(decode_rf(&artifact)?)?;
    warm(&gateway)?;
    let t0 = Instant::now();
    let engine = ServeEngine::start(config.serve.clone(), decode_rf(&artifact)?, fingerprint())?;
    let engine_start_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let mut solver = AbductiveEngine::new(forest)?;
    let encode_ms = t0.elapsed().as_secs_f64() * 1e3;
    let warm_x = corpus.row(WARM);
    engine.explain(warm_x)?;
    solver.explain(warm_x, &budget)?;
    let mut sink = AnalyticsSink::new(AnalyticsConfig::default());
    let mut tracer = Tracer::new();
    let (mut sat_calls, mut conflicts, mut propagations, mut explained) = (0u64, 0u64, 0u64, 0u64);
    let traced =
        closed_loop(opts.seconds, abductive_cycles(opts.seed, top, &ranked), |_, seq, i| {
            let request = corpus.request(i);
            let t0 = Instant::now();
            let op = tracer.open("abductive.op", None, seq, CLIENT);
            let both = tracer.time("gateway.explain_both", Some(op), seq, CLIENT, || {
                gateway.explain_both(&request, &budget)
            });
            tracer.close(op);
            let ns = ns_since(t0);
            let both = both.ok()?;
            let x = corpus.row(i);
            let iso = tracer.open("isolation", None, seq, ISOLATION);
            let shap =
                tracer.time("serve.explain", Some(iso), seq, ISOLATION, || engine.explain(x));
            let alone = tracer
                .time("xsat.explain", Some(iso), seq, ISOLATION, || solver.explain(x, &budget));
            let folded = shap.as_ref().ok().map(|shap| {
                tracer.time("analytics.fold", Some(iso), seq, ISOLATION, || {
                    sink.fold(x, &shap.contributions)
                })
            });
            tracer.close(iso);
            let Some(abductive) = &both.abductive else {
                timeouts += 1;
                return None;
            };
            sat_calls += u64::from(abductive.sat_calls);
            conflicts += abductive.conflicts;
            propagations += abductive.propagations;
            explained += 1;
            let ok = explanation_ok(&both, x, forest, &used)
                && matches!(folded, Some(Ok(())))
                && shap.is_ok_and(|s| s.contributions == both.shap.contributions)
                && alone.is_ok_and(|a| {
                    a.sufficient == abductive.sufficient
                        && a.sat_calls == abductive.sat_calls
                        && a.conflicts == abductive.conflicts
                });
            check(ok, ns, &mut violations)
        });
    let ops = tracer.total("abductive.op").0;
    let per_op = |name: &str| tracer.per_op_ns(name, ops);
    let (op_ns, both_ns) = (per_op("abductive.op"), per_op("gateway.explain_both"));
    let (explain_ns, xsat_ns, fold_ns) =
        (per_op("serve.explain"), per_op("xsat.explain"), per_op("analytics.fold"));
    let (table, unattributed) = trace::layer_table(
        "abductive",
        op_ns,
        &[
            ("xsat (AbductiveEngine::explain)", xsat_ns),
            ("shap + explanation cache (engine explain - fold)", explain_ns - fold_ns),
            ("analytics (AnalyticsSink::fold)", fold_ns),
            ("gateway (explain_both - engine calls)", both_ns - explain_ns - xsat_ns),
        ],
    );
    notes.extend(table);
    notes.push(format!(
        "analytics fold is {:.1} us of a {:.1} ms op: the end-to-end metrics do not resolve changes there",
        fold_ns / 1e3,
        op_ns / 1e6
    ));
    let (line, overhead_pct) = trace::overhead(
        percentile(&phase.latencies_ns, 0.5).0,
        percentile(&traced.latencies_ns, 0.5).0,
    );
    notes.push(line);
    let per_explained = |v: u64| v as f64 / explained.max(1) as f64;
    let mut m = LayerMetrics::default();
    common_layers(&mut m, &setups);
    m.set("shap.explain_us", explain_ns / 1e3);
    m.set("serve.start_ms", engine_start_ms);
    m.set("gateway.self_us", (both_ns - explain_ns - xsat_ns) / 1e3);
    m.set("gateway.start_ms", median(&setups.start_ms));
    m.set("xsat.explain_ms", xsat_ns / 1e6);
    m.set("xsat.sat_calls", per_explained(sat_calls));
    m.set("xsat.conflicts", per_explained(conflicts));
    m.set("xsat.propagations", per_explained(propagations));
    m.set("xsat.timeouts", timeouts as f64);
    m.set("xsat.encode_ms", encode_ms);
    m.set("analytics.fold_us", fold_ns / 1e3);
    m.set("trace.unattributed_share", unattributed);
    m.set("trace.overhead_pct", overhead_pct);
    notes.push(crate::write_trace(&tracer, opts)?);
    Ok(outcome(
        opts,
        &setups.total_s,
        &phase,
        Some((&traced, m.metrics())),
        violations == 0,
        &digest,
        notes,
    ))
}
