//! The explanation service: train the RF, pick example hotspots by archetype
//! (the paper's Fig. 3 (a) edge congestion / (b) via congestion / (c) near a
//! macro), explain them with the SHAP tree explainer, render Fig. 4-style
//! force plots, and validate explanations against the oracle's ground truth.
//!
//! The RF here is trained on *raw* (unscaled) features: trees are invariant
//! to monotone feature scaling, and raw values make the rendered
//! explanations read like the paper's (`edM5_7H = -4` means "capacity is 4
//! tracks short of the load").

use drcshap_features::{CongestionQuantity, FeatureDesc, FeatureSchema, PlacementQuantity};
use drcshap_forest::{CompiledForest, RandomForest, RandomForestTrainer};
use drcshap_geom::GcellId;
use drcshap_ml::{Dataset, Trainer};
use drcshap_route::MetalLayer;
use drcshap_shap::{
    explain_forest, forest_shap_interactions, render_force, Explanation, ForceOptions,
    InteractionValues,
};
use serde::{Deserialize, Serialize};

use crate::pipeline::DesignBundle;

/// The three hotspot archetypes of the paper's Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CaseArchetype {
    /// Dominated by GR edge congestion (Fig. 3(a)).
    EdgeCongestion,
    /// Dominated by via congestion (Fig. 3(b)).
    ViaCongestion,
    /// Adjacent to a macro/blockage (Fig. 3(c)).
    MacroProximity,
}

impl std::fmt::Display for CaseArchetype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CaseArchetype::EdgeCongestion => "edge congestion",
            CaseArchetype::ViaCongestion => "via congestion",
            CaseArchetype::MacroProximity => "macro proximity",
        })
    }
}

/// One explained hotspot: the sample, its SHAP decomposition and context.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExplanationCase {
    /// Design the hotspot belongs to.
    pub design: String,
    /// The central g-cell.
    pub gcell: GcellId,
    /// Raw feature values of the sample.
    pub feature_values: Vec<f32>,
    /// SHAP explanation of the RF prediction.
    pub explanation: Explanation,
    /// Whether the g-cell is an actual DRC hotspot.
    pub actual_hotspot: bool,
    /// The detected archetype.
    pub archetype: CaseArchetype,
}

impl ExplanationCase {
    /// The metal layers implicated by the top `k` edge-congestion features.
    pub fn implicated_metal_layers(&self, schema: &FeatureSchema, k: usize) -> Vec<MetalLayer> {
        let mut layers = Vec::new();
        for (i, _) in self.explanation.top(k) {
            if let FeatureDesc::Edge { layer, .. } = schema.desc(i) {
                if !layers.contains(layer) {
                    layers.push(*layer);
                }
            }
        }
        layers
    }
}

/// One archetype bucket of a [`TriageReport`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TriageRow {
    /// The hotspot archetype of this bucket.
    pub archetype: CaseArchetype,
    /// Predicted hotspots in the bucket.
    pub count: usize,
    /// How many are actual DRC hotspots (diagnostic; unknown at prediction
    /// time in production).
    pub actual_hotspots: usize,
    /// Mean predicted probability over the bucket.
    pub mean_probability: f64,
    /// Metal layers implicated by the bucket's explanations, with counts,
    /// descending.
    pub layer_counts: Vec<(MetalLayer, usize)>,
}

/// A design-level triage of predicted hotspots, grouped by archetype.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TriageReport {
    /// Design name.
    pub design: String,
    /// Probability threshold used to select predictions.
    pub threshold: f64,
    /// Buckets, largest first.
    pub rows: Vec<TriageRow>,
}

impl TriageReport {
    /// Total predicted hotspots across buckets.
    pub fn total(&self) -> usize {
        self.rows.iter().map(|r| r.count).sum()
    }

    /// Renders the triage as a small table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "hotspot triage for {} (threshold {:.2}): {} predicted hotspots\n",
            self.design,
            self.threshold,
            self.total()
        );
        for row in &self.rows {
            let layers: Vec<String> =
                row.layer_counts.iter().take(3).map(|(l, c)| format!("{l}x{c}")).collect();
            out.push_str(&format!(
                "  {:<18} {:>4} predicted ({} actual), mean p = {:.2}, layers: {}\n",
                row.archetype.to_string(),
                row.count,
                row.actual_hotspots,
                row.mean_probability,
                layers.join(" ")
            ));
        }
        out
    }
}

/// A trained RF plus everything needed to explain individual g-cells.
pub struct Explainer {
    forest: RandomForest,
    /// The forest's batch scorer, bit-identical to
    /// [`RandomForest::predict_proba`].
    compiled: CompiledForest,
    schema: FeatureSchema,
}

impl Explainer {
    /// Trains the RF on the given bundles (raw features) and wraps it.
    pub fn train(bundles: &[DesignBundle], trainer: &RandomForestTrainer, seed: u64) -> Self {
        let mut train = Dataset::empty(387);
        for b in bundles {
            train.append(&b.to_dataset());
        }
        Self::from_forest(trainer.fit(&train, seed))
    }

    /// Wraps an already-trained forest.
    pub fn from_forest(forest: RandomForest) -> Self {
        let compiled = CompiledForest::compile(&forest);
        Self { forest, compiled, schema: FeatureSchema::paper_387() }
    }

    /// The underlying forest.
    pub fn forest(&self) -> &RandomForest {
        &self.forest
    }

    /// The feature schema used for naming.
    pub fn schema(&self) -> &FeatureSchema {
        &self.schema
    }

    /// The forest's hotspot probability for one feature row, through the
    /// compiled forest: bit-identical to [`RandomForest::predict_proba`].
    pub(crate) fn score(&self, row: &[f32]) -> f64 {
        self.compiled.score_one(row)
    }

    /// Explains the g-cell at sample `index` of `bundle`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn explain_gcell(&self, bundle: &DesignBundle, index: usize) -> ExplanationCase {
        let row = bundle.features.row(index);
        let explanation = explain_forest(&self.forest, row);
        let archetype = self.classify(&explanation, row);
        ExplanationCase {
            design: bundle.design.spec.name.clone(),
            gcell: bundle.design.grid.cell_at_index(index),
            feature_values: row.to_vec(),
            actual_hotspot: bundle.report.labels[index],
            explanation,
            archetype,
        }
    }

    /// SHAP interaction values for a case (one conditional-TreeSHAP pass per
    /// used feature per tree; noticeably slower than a plain explanation).
    pub fn interactions(&self, case: &ExplanationCase) -> InteractionValues {
        forest_shap_interactions(&self.forest, &case.feature_values)
    }

    /// Renders the `k` strongest pairwise interactions of a case, by name —
    /// e.g. "how much of the M4 overflow's credit only exists together with
    /// the neighbouring via crowding".
    pub fn render_interactions(&self, case: &ExplanationCase, k: usize) -> String {
        let inter = self.interactions(case);
        let mut out =
            format!("top feature interactions for hotspot {} in {}\n", case.gcell, case.design);
        let pairs = inter.top_pairs(k);
        if pairs.is_empty() {
            out.push_str("  (no interactions: additive prediction)\n");
            return out;
        }
        let max = pairs[0].2.abs().max(1e-12);
        for (i, j, v) in pairs {
            let bar = "█".repeat(((v.abs() / max) * 20.0).round() as usize);
            out.push_str(&format!(
                "  {:<12} x {:<12} {:+.4}  {}\n",
                self.schema.name(i),
                self.schema.name(j),
                v,
                bar
            ));
        }
        out
    }

    /// Renders a case as a Fig. 4-style force plot with feature names.
    pub fn render(&self, case: &ExplanationCase, options: &ForceOptions) -> String {
        let mut out = format!(
            "hotspot {} in {} ({} archetype, actual DRC hotspot: {})\n",
            case.gcell, case.design, case.archetype, case.actual_hotspot
        );
        out.push_str(&render_force(
            &case.explanation,
            self.schema.names(),
            &case.feature_values,
            options,
        ));
        out
    }

    /// Selects up to `k` example hotspots from `bundle`: the top-predicted
    /// true hotspots, diversified across archetypes when possible (the
    /// paper's three examples span all three).
    pub fn select_cases(&self, bundle: &DesignBundle, k: usize) -> Vec<ExplanationCase> {
        // Rank all true hotspots by predicted probability.
        let mut ranked: Vec<(usize, f64)> = (0..bundle.features.n_samples())
            .filter(|&i| bundle.report.labels[i])
            .map(|i| (i, self.score(bundle.features.row(i))))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));

        let mut cases: Vec<ExplanationCase> = Vec::new();
        let mut seen: std::collections::HashSet<CaseArchetype> = Default::default();
        // First pass: one case per archetype.
        for &(i, _) in &ranked {
            if cases.len() >= k {
                break;
            }
            let case = self.explain_gcell(bundle, i);
            if seen.insert(case.archetype) {
                cases.push(case);
            }
        }
        // Second pass: fill with the strongest remaining predictions.
        for &(i, _) in &ranked {
            if cases.len() >= k {
                break;
            }
            if !cases.iter().any(|c| c.gcell == bundle.design.grid.cell_at_index(i)) {
                cases.push(self.explain_gcell(bundle, i));
            }
        }
        cases
    }

    /// Triages all predicted hotspots of a design: explains the samples
    /// scoring at or above `threshold` (capped at the `max_cases` highest),
    /// groups them by archetype, and tallies the implicated metal layers —
    /// the design-level view a routability-fix loop starts from.
    pub fn triage(&self, bundle: &DesignBundle, threshold: f64, max_cases: usize) -> TriageReport {
        let mut predicted: Vec<(usize, f64)> = (0..bundle.features.n_samples())
            .map(|i| (i, self.score(bundle.features.row(i))))
            .filter(|&(_, p)| p >= threshold)
            .collect();
        predicted.sort_by(|a, b| b.1.total_cmp(&a.1));
        predicted.truncate(max_cases);

        let mut rows: std::collections::HashMap<CaseArchetype, TriageRow> = Default::default();
        for &(i, p) in &predicted {
            let case = self.explain_gcell(bundle, i);
            let row = rows.entry(case.archetype).or_insert_with(|| TriageRow {
                archetype: case.archetype,
                count: 0,
                actual_hotspots: 0,
                mean_probability: 0.0,
                layer_counts: Vec::new(),
            });
            row.count += 1;
            row.actual_hotspots += case.actual_hotspot as usize;
            row.mean_probability += p;
            for layer in case.implicated_metal_layers(&self.schema, 6) {
                match row.layer_counts.iter_mut().find(|(l, _)| *l == layer) {
                    Some((_, c)) => *c += 1,
                    None => row.layer_counts.push((layer, 1)),
                }
            }
        }
        let mut rows: Vec<TriageRow> = rows.into_values().collect();
        for row in &mut rows {
            row.mean_probability /= row.count.max(1) as f64;
            row.layer_counts.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        }
        rows.sort_by_key(|r| std::cmp::Reverse(r.count));
        TriageReport { design: bundle.design.spec.name.clone(), threshold, rows }
    }

    /// Checks an explanation against the oracle ground truth: at least one
    /// of the layers implicated by the top features must carry an actual
    /// violation in the g-cell (the validation the paper does by visual
    /// comparison with the routed layout, §IV-B).
    pub fn validate_case(&self, case: &ExplanationCase, bundle: &DesignBundle) -> bool {
        if !case.actual_hotspot {
            return false;
        }
        let violations = bundle.report.violations_in(&bundle.design.grid, case.gcell);
        if violations.is_empty() {
            return false;
        }
        let actual_layers: Vec<MetalLayer> = violations.iter().map(|v| v.layer).collect();
        // Implicated layers: metal layers of top edge features, plus the
        // metals sandwiching top via features.
        let mut implicated: Vec<MetalLayer> = Vec::new();
        for (i, phi) in case.explanation.top(8) {
            if phi <= 0.0 {
                continue;
            }
            match self.schema.desc(i) {
                FeatureDesc::Edge { layer, .. } => implicated.push(*layer),
                FeatureDesc::Via { layer, .. } => {
                    implicated.push(layer.lower_metal());
                    implicated.push(layer.upper_metal());
                }
                FeatureDesc::Placement { .. } => {
                    // Pin/density causes express as low-metal violations.
                    implicated.push(MetalLayer::M1);
                    implicated.push(MetalLayer::M2);
                }
            }
        }
        actual_layers.iter().any(|l| implicated.contains(l))
    }

    /// Classifies the archetype from the SHAP decomposition and the raw
    /// window features.
    fn classify(&self, explanation: &Explanation, row: &[f32]) -> CaseArchetype {
        // Macro proximity: substantial blockage anywhere in the window.
        let max_blk = self
            .schema
            .iter()
            .filter(|(_, d)| {
                matches!(
                    d,
                    FeatureDesc::Placement { quantity: PlacementQuantity::BlockageArea, .. }
                )
            })
            .map(|(i, _)| row[i])
            .fold(0.0f32, f32::max);
        if max_blk > 0.25 {
            return CaseArchetype::MacroProximity;
        }
        // Otherwise: compare positive SHAP mass of edge vs via features.
        let (mut edge, mut via) = (0.0f64, 0.0f64);
        for (i, &phi) in explanation.contributions.iter().enumerate() {
            if phi <= 0.0 {
                continue;
            }
            match self.schema.desc(i) {
                FeatureDesc::Edge { quantity, .. } => {
                    if *quantity != CongestionQuantity::Capacity {
                        edge += phi;
                    }
                }
                FeatureDesc::Via { quantity, .. } => {
                    if *quantity != CongestionQuantity::Capacity {
                        via += phi;
                    }
                }
                FeatureDesc::Placement { .. } => {}
            }
        }
        if via > edge {
            CaseArchetype::ViaCongestion
        } else {
            CaseArchetype::EdgeCongestion
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{build_design, PipelineConfig};
    use drcshap_netlist::suite;

    fn trained_on(design: &str) -> (Explainer, DesignBundle) {
        let config = PipelineConfig { scale: 0.25, ..Default::default() };
        let bundle = build_design(&suite::spec(design).unwrap(), &config);
        let trainer = RandomForestTrainer { n_trees: 40, ..Default::default() };
        // Self-training is fine here: the explainer tests care about SHAP
        // mechanics, not generalization.
        let explainer = Explainer::train(std::slice::from_ref(&bundle), &trainer, 7);
        (explainer, bundle)
    }

    #[test]
    fn explanations_are_locally_accurate() {
        let (explainer, bundle) = trained_on("des_perf_1");
        let cases = explainer.select_cases(&bundle, 3);
        assert!(!cases.is_empty());
        for case in &cases {
            assert!(case.explanation.local_accuracy_gap() < 1e-9);
            assert!(case.actual_hotspot);
        }
    }

    #[test]
    fn hotspot_predictions_exceed_base_value() {
        let (explainer, bundle) = trained_on("des_perf_1");
        let cases = explainer.select_cases(&bundle, 3);
        for case in &cases {
            assert!(
                case.explanation.prediction > case.explanation.base_value,
                "selected hotspot not above average"
            );
        }
    }

    #[test]
    fn render_mentions_feature_names() {
        let (explainer, bundle) = trained_on("des_perf_1");
        let cases = explainer.select_cases(&bundle, 1);
        let s = explainer.render(&cases[0], &ForceOptions::default());
        assert!(s.contains("prediction ="));
        assert!(s.contains("archetype"));
        // At least one paper-style feature name appears.
        let has_name = explainer.schema().names().iter().any(|n| s.contains(n.as_str()));
        assert!(has_name, "no feature names in: {s}");
    }

    #[test]
    fn triage_groups_predictions_by_archetype() {
        let (explainer, bundle) = trained_on("des_perf_1");
        let report = explainer.triage(&bundle, 0.3, 50);
        assert!(report.total() > 0, "no predictions above threshold");
        assert!(report.total() <= 50);
        // Buckets sorted by size, probabilities above the threshold.
        let mut prev = usize::MAX;
        for row in &report.rows {
            assert!(row.count <= prev);
            prev = row.count;
            assert!(row.mean_probability >= 0.3);
            assert!(row.actual_hotspots <= row.count);
        }
        let rendered = report.render();
        assert!(rendered.contains("hotspot triage for des_perf_1"));
    }

    #[test]
    fn interactions_row_sums_recover_shap_values() {
        let (explainer, bundle) = trained_on("des_perf_1");
        let case = &explainer.select_cases(&bundle, 1)[0];
        let inter = explainer.interactions(case);
        for (j, &phi) in case.explanation.contributions.iter().enumerate() {
            let row_sum: f64 = inter.row(j).iter().sum();
            assert!((row_sum - phi).abs() < 1e-8, "feature {j}: row sum {row_sum} vs phi {phi}");
        }
        let rendered = explainer.render_interactions(case, 5);
        assert!(rendered.contains("interactions"));
    }

    #[test]
    fn most_selected_cases_validate_against_oracle() {
        let (explainer, bundle) = trained_on("des_perf_1");
        let cases = explainer.select_cases(&bundle, 3);
        let ok = cases.iter().filter(|c| explainer.validate_case(c, &bundle)).count();
        assert!(
            ok * 2 >= cases.len(),
            "only {ok}/{} explanations consistent with oracle",
            cases.len()
        );
    }
}
