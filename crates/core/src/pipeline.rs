//! The data-acquisition pipeline of the paper's Fig. 1, applied to the
//! synthetic suite: generate → place → connect → globally route → label →
//! extract features.

use drcshap_drc::{run_drc, DrcConfig, DrcReport};
use drcshap_features::{extract_design, FeatureMatrix};
use drcshap_ml::{Dataset, DrcshapError, InputError};
use drcshap_netlist::{suite::DesignSpec, synth, Design};
use drcshap_place::place;
use drcshap_route::{route_design, RouteConfig, RouteOutcome};
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
    let mut design = Design::new(spec.clone());
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed());
    {
        let _s = telemetry::span("stage/synth");
        synth::generate_cells(&mut design, &mut rng);
    }
    {
        let _s = telemetry::span("stage/place");
        place(&mut design, &mut rng);
        synth::generate_nets(&mut design, &mut rng);
    }
    let route = {
        let _s = telemetry::span("stage/route");
        route_design(&design, &config.route_for(&spec), &mut rng)
    };
    let report = {
        let _s = telemetry::span("stage/drc");
        run_drc(&design, &route, &config.drc, &mut rng)
    };
    let features = {
        let _s = telemetry::span("stage/extract");
        extract_design(&design, &route)
    };
    Ok(DesignBundle { design, route, report, features })
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
