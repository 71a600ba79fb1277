//! The data-acquisition pipeline of the paper's Fig. 1, applied to the
//! synthetic suite: generate → place → connect → globally route → label →
//! extract features.

use drcshap_drc::{run_drc, DrcConfig, DrcReport};
use drcshap_features::{extract_design, FeatureMatrix};
use drcshap_geom::budget::{BudgetState, Interrupted, StageBudget};
use drcshap_ml::{Dataset, DrcshapError, InputError};
use drcshap_netlist::{suite::DesignSpec, synth, Design};
use drcshap_place::place_budgeted;
use drcshap_route::{route_design_budgeted, RouteConfig, RouteOutcome};
use drcshap_telemetry as telemetry;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Pipeline parameters: dataset scale and the substrate configurations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Linear design scale (1.0 = paper scale; the default 0.25 yields
    /// roughly 1/16 of the paper's ~146k samples).
    pub scale: f64,
    /// Base router configuration (capacity is derated per design below).
    pub route: RouteConfig,
    /// DRC oracle configuration.
    pub drc: DrcConfig,
    /// How strongly design stress derates routing capacity:
    /// `capacity_scale = 1 − derate_slope · (stress − 0.25)`.
    pub derate_slope: f64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            scale: 0.25,
            route: RouteConfig::default(),
            drc: DrcConfig::default(),
            derate_slope: 0.4,
        }
    }
}

impl PipelineConfig {
    /// Reads the scale from the environment: `DRCSHAP_FULL=1` selects paper
    /// scale, otherwise `DRCSHAP_SCALE` (a float in `(0, 1]`), otherwise the
    /// default 0.25.
    ///
    /// # Errors
    ///
    /// [`InputError::Usage`] when `DRCSHAP_SCALE` is set but not a number
    /// (a silently ignored typo would run the wrong experiment);
    /// [`InputError::InvalidScale`] when it parses but lies outside `(0, 1]`.
    pub fn from_env() -> Result<Self, DrcshapError> {
        let mut config = Self::default();
        if std::env::var("DRCSHAP_FULL").is_ok_and(|v| v == "1") {
            config.scale = 1.0;
        } else if let Ok(raw) = std::env::var("DRCSHAP_SCALE") {
            config.scale = raw.parse::<f64>().map_err(|_| {
                DrcshapError::usage(format!("DRCSHAP_SCALE is not a number: {raw:?}"))
            })?;
            config.validate()?;
        }
        Ok(config)
    }

    /// A stable fingerprint of this configuration: CRC32 of its canonical
    /// JSON, widened to `u64`. Stage checkpoints and run manifests are
    /// stamped with it, so resuming a run under a different configuration is
    /// rejected instead of silently mixing incompatible intermediate state.
    pub fn fingerprint(&self) -> u64 {
        let json = serde_json::to_vec(self).expect("pipeline config serializes");
        u64::from(crate::artifact::crc32(&json))
    }

    /// Checks the configuration is usable: `scale` must be a finite value
    /// in `(0, 1]` (1.0 is paper scale; larger or non-positive scales would
    /// silently distort every downstream statistic).
    ///
    /// # Errors
    ///
    /// [`InputError::InvalidScale`] when `scale` is non-finite, `<= 0`, or
    /// `> 1`.
    pub fn validate(&self) -> Result<(), DrcshapError> {
        if !self.scale.is_finite() || self.scale <= 0.0 || self.scale > 1.0 {
            return Err(InputError::InvalidScale { value: self.scale }.into());
        }
        Ok(())
    }

    /// The router config for one design, with stress-derated capacity.
    pub fn route_for(&self, spec: &DesignSpec) -> RouteConfig {
        let factor = (1.0 - self.derate_slope * (spec.stress() - 0.25)).clamp(0.05, 1.0);
        self.route.clone().derated(factor)
    }
}

/// Everything the pipeline produces for one design.
#[derive(Debug, Clone)]
pub struct DesignBundle {
    /// The placed design.
    pub design: Design,
    /// Global-routing outcome (congestion map, routes).
    pub route: RouteOutcome,
    /// DRC oracle report (violations, hotspot labels).
    pub report: DrcReport,
    /// The 387-feature matrix, one row per g-cell.
    pub features: FeatureMatrix,
}

impl DesignBundle {
    /// Converts the bundle into a labelled dataset. Every sample carries the
    /// design's Table I *group* as its group tag, so grouped CV folds form
    /// directly.
    pub fn to_dataset(&self) -> Dataset {
        let (_, n, data) = self.features.clone().into_parts();
        let labels = self.report.labels.clone();
        let groups = vec![self.design.spec.group as u32; n];
        Dataset::from_parts(data, labels, groups, 387)
    }
}

/// The named stages of one design's build, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stage {
    /// Netlist synthesis: die, grid and cell population.
    Synth,
    /// Legalized placement plus net generation.
    Place,
    /// Global routing.
    Route,
    /// DRC oracle labelling.
    Drc,
    /// 387-feature extraction.
    Extract,
}

impl Stage {
    /// All stages in execution order.
    pub const ALL: [Stage; 5] =
        [Stage::Synth, Stage::Place, Stage::Route, Stage::Drc, Stage::Extract];

    /// Stable lower-case stage name (checkpoint file stem, manifest entry).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Synth => "synth",
            Stage::Place => "place",
            Stage::Route => "route",
            Stage::Drc => "drc",
            Stage::Extract => "extract",
        }
    }

    /// Container kind byte for this stage's checkpoints (`0x10 +` index,
    /// disjoint from the model-artifact kind codes).
    pub fn code(self) -> u8 {
        0x10 + self as u8
    }

    /// Telemetry span name for this stage (`stage/<name>`).
    pub fn span_name(self) -> &'static str {
        match self {
            Stage::Synth => "stage/synth",
            Stage::Place => "stage/place",
            Stage::Route => "stage/route",
            Stage::Drc => "stage/drc",
            Stage::Extract => "stage/extract",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The outputs of one design's stages so far.
#[derive(Default)]
pub(crate) struct StageState {
    pub(crate) design: Option<Design>,
    pub(crate) route: Option<RouteOutcome>,
    pub(crate) report: Option<DrcReport>,
    pub(crate) features: Option<FeatureMatrix>,
}

impl StageState {
    /// The bundle of a design whose five stages all ran.
    pub(crate) fn into_bundle(self) -> DesignBundle {
        DesignBundle {
            design: self.design.expect("synth stage ran"),
            route: self.route.expect("route stage ran"),
            report: self.report.expect("drc stage ran"),
            features: self.features.expect("extract stage ran"),
        }
    }
}

/// Runs one stage of `spec`'s build against `state` under `budget`,
/// returning whether it finished degraded (deadline expiry). This is the
/// one stage body: [`try_build_design`] runs every stage with an
/// unlimited budget, and the supervisor wraps each one with checkpoints,
/// retries and panic isolation. Synth re-seeds `rng` from the spec, so
/// every build of a spec draws the same random numbers.
///
/// # Errors
///
/// [`Interrupted`] when `budget` is cancelled.
pub(crate) fn run_stage(
    stage: Stage,
    spec: &DesignSpec,
    route: &RouteConfig,
    drc: &DrcConfig,
    state: &mut StageState,
    rng: &mut ChaCha8Rng,
    budget: &StageBudget,
) -> Result<bool, Interrupted> {
    let _stage_span = telemetry::span_with(stage.span_name(), || spec.name.clone());
    if budget.check() == BudgetState::Cancelled {
        return Err(Interrupted);
    }
    match stage {
        Stage::Synth => {
            let mut design = Design::new(spec.clone());
            *rng = ChaCha8Rng::seed_from_u64(spec.seed());
            synth::generate_cells(&mut design, rng);
            state.design = Some(design);
            Ok(false)
        }
        Stage::Place => {
            let design = state.design.as_mut().expect("synth stage ran");
            let summary = place_budgeted(design, rng, budget)?;
            synth::generate_nets(design, rng);
            Ok(summary.deadline_degraded)
        }
        Stage::Route => {
            let design = state.design.as_ref().expect("place stage ran");
            let outcome = route_design_budgeted(design, route, rng, budget)?;
            let degraded = outcome.status.is_degraded();
            state.route = Some(outcome);
            Ok(degraded)
        }
        Stage::Drc => {
            let design = state.design.as_ref().expect("place stage ran");
            let route = state.route.as_ref().expect("route stage ran");
            state.report = Some(run_drc(design, route, drc, rng));
            Ok(false)
        }
        Stage::Extract => {
            let design = state.design.as_ref().expect("place stage ran");
            let route = state.route.as_ref().expect("route stage ran");
            state.features = Some(extract_design(design, route));
            Ok(false)
        }
    }
}

/// Runs the full pipeline for one design spec (scaled by the config).
///
/// Deterministic: all randomness derives from the spec's name-based seed.
///
/// # Panics
///
/// Panics if the config is invalid; use [`try_build_design`] on paths that
/// must not panic (the CLI serving path does).
pub fn build_design(spec: &DesignSpec, config: &PipelineConfig) -> DesignBundle {
    try_build_design(spec, config).expect("invalid pipeline config")
}

/// Validated variant of [`build_design`]: checks the config before doing
/// any work.
///
/// # Errors
///
/// [`InputError::InvalidScale`] when the config's scale is out of range.
pub fn try_build_design(
    spec: &DesignSpec,
    config: &PipelineConfig,
) -> Result<DesignBundle, DrcshapError> {
    config.validate()?;
    let spec = spec.scaled(config.scale);
    let _design_span = telemetry::span_with("pipeline/design", || spec.name.clone());
    let route = config.route_for(&spec);
    let mut state = StageState::default();
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed());
    let budget = StageBudget::unlimited();
    for stage in Stage::ALL {
        run_stage(stage, &spec, &route, &config.drc, &mut state, &mut rng, &budget)
            .expect("an unlimited budget cannot be cancelled");
    }
    Ok(state.into_bundle())
}

/// Builds bundles for many specs, one after another in `specs` order.
///
/// # Panics
///
/// Panics if the config is invalid; see [`try_build_suite`].
pub fn build_suite(specs: &[DesignSpec], config: &PipelineConfig) -> Vec<DesignBundle> {
    try_build_suite(specs, config).expect("invalid pipeline config")
}

/// Validated variant of [`build_suite`]: checks the config once up front,
/// then builds the designs one after another, in `specs` order.
///
/// # Errors
///
/// [`InputError::InvalidScale`] when the config's scale is out of range.
pub fn try_build_suite(
    specs: &[DesignSpec],
    config: &PipelineConfig,
) -> Result<Vec<DesignBundle>, DrcshapError> {
    config.validate()?;
    Ok(specs.iter().map(|s| build_design(s, config)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcshap_netlist::suite;

    fn tiny() -> PipelineConfig {
        PipelineConfig { scale: 0.2, ..Default::default() }
    }

    #[test]
    fn bundle_is_internally_consistent() {
        let bundle = build_design(&suite::spec("fft_1").unwrap(), &tiny());
        let n = bundle.design.grid.num_cells();
        assert_eq!(bundle.features.n_samples(), n);
        assert_eq!(bundle.report.labels.len(), n);
        assert_eq!(bundle.features.n_features(), 387);
    }

    #[test]
    fn dataset_tags_samples_with_table_group() {
        let bundle = build_design(&suite::spec("des_perf_1").unwrap(), &tiny());
        let data = bundle.to_dataset();
        assert_eq!(data.n_samples(), bundle.design.grid.num_cells());
        assert!(data.groups().iter().all(|&g| g == 4)); // des_perf_1 is group 4
        assert_eq!(data.num_positives(), bundle.report.num_hotspots());
    }

    #[test]
    fn pipeline_is_deterministic() {
        let a = build_design(&suite::spec("fft_2").unwrap(), &tiny());
        let b = build_design(&suite::spec("fft_2").unwrap(), &tiny());
        assert_eq!(a.report.num_hotspots(), b.report.num_hotspots());
        assert_eq!(a.features.row(5), b.features.row(5));
    }

    #[test]
    fn stressed_designs_get_derated_capacity() {
        let config = tiny();
        let hot = config.route_for(&suite::spec("des_perf_1").unwrap());
        let cool = config.route_for(&suite::spec("des_perf_b").unwrap());
        assert!(hot.capacity_scale < cool.capacity_scale);
    }

    #[test]
    fn invalid_scales_are_rejected_with_typed_error() {
        for scale in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let config = PipelineConfig { scale, ..Default::default() };
            let e = config.validate().unwrap_err();
            assert!(
                matches!(e, DrcshapError::Input(InputError::InvalidScale { .. })),
                "scale {scale}: {e}"
            );
            assert!(try_build_design(&suite::spec("fft_1").unwrap(), &config).is_err());
            assert!(try_build_suite(&[], &config).is_err());
        }
    }

    #[test]
    fn valid_scales_pass_validation() {
        for scale in [0.05, 0.25, 1.0] {
            assert!(PipelineConfig { scale, ..Default::default() }.validate().is_ok());
        }
    }

    #[test]
    fn from_env_rejects_malformed_and_out_of_range_scales() {
        // Serialize access to the process environment within this test only;
        // no other test reads DRCSHAP_SCALE at test time.
        std::env::remove_var("DRCSHAP_FULL");

        std::env::set_var("DRCSHAP_SCALE", "0.4");
        let c = PipelineConfig::from_env().expect("valid scale");
        assert_eq!(c.scale, 0.4);

        std::env::set_var("DRCSHAP_SCALE", "not-a-number");
        let e = PipelineConfig::from_env().unwrap_err();
        assert!(matches!(&e, DrcshapError::Input(InputError::Usage(_))), "{e}");
        assert!(e.to_string().contains("not-a-number"), "{e}");

        std::env::set_var("DRCSHAP_SCALE", "3.0");
        let e = PipelineConfig::from_env().unwrap_err();
        assert!(matches!(e, DrcshapError::Input(InputError::InvalidScale { .. })), "{e}");

        std::env::remove_var("DRCSHAP_SCALE");
        assert_eq!(PipelineConfig::from_env().expect("default").scale, 0.25);
    }

    #[test]
    fn config_fingerprint_tracks_parameters() {
        let a = PipelineConfig::default();
        let b = PipelineConfig { scale: 0.2, ..Default::default() };
        assert_eq!(a.fingerprint(), PipelineConfig::default().fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn build_suite_preserves_order() {
        let specs: Vec<_> = ["fft_1", "fft_2"].iter().map(|n| suite::spec(n).unwrap()).collect();
        let bundles = build_suite(&specs, &tiny());
        assert_eq!(bundles[0].design.spec.name, "fft_1");
        assert_eq!(bundles[1].design.spec.name, "fft_2");
    }
}
