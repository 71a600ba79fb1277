//! The routability fix loop the paper's introduction motivates: predict DRC
//! hotspots at the global-routing stage, pick the worst offenders, rip up
//! and reroute the traffic crossing them ([`drcshap_route::reroute_around`]),
//! re-extract features, and re-predict — all without detailed routing.
//!
//! Each iteration produces a real (legal) new global-routing state, so the
//! recorded risk trajectory reflects what the router can actually deliver,
//! not a synthetic congestion edit.

use drcshap_features::extract_design;
use drcshap_geom::budget::{BudgetState, Interrupted, StageBudget};
use drcshap_geom::GcellId;
use drcshap_route::{reroute_around_budgeted, RouteConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::explain::Explainer;
use crate::pipeline::DesignBundle;

/// Per-iteration record of the fix loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FixIteration {
    /// Cells predicted at or above the threshold *before* this iteration's
    /// reroute.
    pub predicted_hotspots: usize,
    /// Mean predicted probability over those cells.
    pub mean_risk: f64,
    /// Connections ripped up and rerouted.
    pub rerouted_conns: usize,
    /// Total edge overflow after the reroute.
    pub edge_overflow: f64,
}

/// The outcome of a [`run_fix_loop`] call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FixLoopReport {
    /// One record per executed iteration.
    pub iterations: Vec<FixIteration>,
    /// Predicted hotspots remaining after the final reroute.
    pub remaining_hotspots: usize,
    /// Mean predicted probability over the remaining hotspots (0 if none).
    pub remaining_mean_risk: f64,
    /// True when the loop stopped with hotspots still predicted — because a
    /// round rerouted nothing, the wall-clock budget ran out, or the
    /// iteration budget was exhausted. False when the loop converged (no
    /// cell scores at or above the threshold any more).
    #[serde(default)]
    pub stalled: bool,
}

impl FixLoopReport {
    /// Renders the risk trajectory as a small table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:>5} {:>12} {:>10} {:>10} {:>12}\n",
            "iter", "predicted", "mean p", "rerouted", "overflow"
        );
        for (k, it) in self.iterations.iter().enumerate() {
            out.push_str(&format!(
                "{:>5} {:>12} {:>10.3} {:>10} {:>12.1}\n",
                k, it.predicted_hotspots, it.mean_risk, it.rerouted_conns, it.edge_overflow
            ));
        }
        out.push_str(&format!(
            "final {:>12} {:>10.3}\n",
            self.remaining_hotspots, self.remaining_mean_risk
        ));
        out
    }
}

/// Predicted hotspots of the bundle's current state: `(grid index, p)` for
/// every cell scoring at or above `threshold`, strongest first.
fn predicted_hotspots(
    explainer: &Explainer,
    bundle: &DesignBundle,
    threshold: f64,
) -> Vec<(usize, f64)> {
    let mut hits: Vec<(usize, f64)> = (0..bundle.features.n_samples())
        .map(|i| (i, explainer.score(bundle.features.row(i))))
        .filter(|&(_, p)| p >= threshold)
        .collect();
    hits.sort_by(|a, b| b.1.total_cmp(&a.1));
    hits
}

/// Runs up to `max_iterations` predict→reroute rounds on `bundle`, mutating
/// its route and features in place. Stops early when nothing scores at or
/// above `threshold`, a round reroutes nothing, or `budget` runs out —
/// whichever comes first; the report's `stalled` flag says whether hotspots
/// were still predicted when the loop stopped.
///
/// `targets_per_iter` caps how many hotspots each round attacks (the
/// strongest predictions first). On cancellation mid-reroute the round's
/// partial work is discarded and the bundle keeps its previous route.
#[allow(clippy::too_many_arguments)] // established call signature + budget
pub fn run_fix_loop(
    explainer: &Explainer,
    bundle: &mut DesignBundle,
    config: &RouteConfig,
    threshold: f64,
    targets_per_iter: usize,
    max_iterations: usize,
    seed: u64,
    budget: &StageBudget,
) -> FixLoopReport {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut iterations = Vec::new();
    for _ in 0..max_iterations {
        if budget.check() != BudgetState::Within {
            break;
        }
        let hits = predicted_hotspots(explainer, bundle, threshold);
        if hits.is_empty() {
            break;
        }
        let mean_risk = hits.iter().map(|&(_, p)| p).sum::<f64>() / hits.len() as f64;
        let targets: Vec<GcellId> = hits
            .iter()
            .take(targets_per_iter)
            .map(|&(i, _)| bundle.design.grid.cell_at_index(i))
            .collect();
        let (new_route, rerouted) = match reroute_around_budgeted(
            &bundle.design,
            &bundle.route,
            &targets,
            config,
            &mut rng,
            budget,
        ) {
            Ok(result) => result,
            Err(Interrupted) => break,
        };
        let no_progress = rerouted == 0;
        iterations.push(FixIteration {
            predicted_hotspots: hits.len(),
            mean_risk,
            rerouted_conns: rerouted,
            edge_overflow: new_route.edge_overflow,
        });
        bundle.route = new_route;
        bundle.features = extract_design(&bundle.design, &bundle.route);
        if no_progress {
            break;
        }
    }
    let remaining = predicted_hotspots(explainer, bundle, threshold);
    let remaining_mean_risk = if remaining.is_empty() {
        0.0
    } else {
        remaining.iter().map(|&(_, p)| p).sum::<f64>() / remaining.len() as f64
    };
    FixLoopReport {
        iterations,
        remaining_hotspots: remaining.len(),
        remaining_mean_risk,
        stalled: !remaining.is_empty(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{build_design, PipelineConfig};
    use drcshap_forest::RandomForestTrainer;
    use drcshap_netlist::suite;

    #[test]
    fn fix_loop_reduces_predicted_hotspots() {
        let pconfig = PipelineConfig { scale: 0.25, ..Default::default() };
        let mut bundle = build_design(&suite::spec("des_perf_1").unwrap(), &pconfig);
        // Self-trained model: the loop mechanics are what is under test.
        let trainer = RandomForestTrainer { n_trees: 30, ..Default::default() };
        let explainer = Explainer::train(std::slice::from_ref(&bundle), &trainer, 7);
        let route_config = pconfig.route_for(&bundle.design.spec);

        let hits = predicted_hotspots(&explainer, &bundle, 0.3);
        assert!(!hits.is_empty(), "no predicted hotspots to fix");
        // Track the cells the first round will attack: rerouting must cut
        // *their* risk (displaced congestion may raise neighbours — the
        // whack-a-mole a real routability loop also faces).
        let targets: Vec<usize> = hits.iter().take(10).map(|&(i, _)| i).collect();
        let risk_of = |b: &DesignBundle| {
            targets
                .iter()
                .map(|&i| explainer.forest().predict_proba(b.features.row(i)))
                .sum::<f64>()
                / targets.len() as f64
        };
        let before = risk_of(&bundle);
        let report = run_fix_loop(
            &explainer,
            &mut bundle,
            &route_config,
            0.3,
            10,
            3,
            11,
            &StageBudget::unlimited(),
        );
        assert!(!report.iterations.is_empty());
        assert!(report.iterations[0].rerouted_conns > 0, "nothing rerouted");
        let after = risk_of(&bundle);
        assert!(
            after < before,
            "risk at the attacked cells did not drop: {before:.3} -> {after:.3}"
        );
        let rendered = report.render();
        assert!(rendered.contains("rerouted"));
    }

    #[test]
    fn fix_loop_halts_when_nothing_scores_above_threshold() {
        let pconfig = PipelineConfig { scale: 0.2, ..Default::default() };
        let mut bundle = build_design(&suite::spec("des_perf_b").unwrap(), &pconfig);
        let trainer = RandomForestTrainer { n_trees: 5, ..Default::default() };
        let explainer = Explainer::train(std::slice::from_ref(&bundle), &trainer, 1);
        let route_config = pconfig.route_for(&bundle.design.spec);
        // des_perf_b is DRC-clean: the self-trained model scores ~0 everywhere.
        let report = run_fix_loop(
            &explainer,
            &mut bundle,
            &route_config,
            0.5,
            5,
            3,
            1,
            &StageBudget::unlimited(),
        );
        assert!(report.iterations.is_empty());
        assert_eq!(report.remaining_hotspots, 0);
        assert!(!report.stalled, "a converged loop is not stalled");
    }

    #[test]
    fn fix_loop_expired_budget_stops_early_and_reports_stall() {
        let pconfig = PipelineConfig { scale: 0.25, ..Default::default() };
        let mut bundle = build_design(&suite::spec("des_perf_1").unwrap(), &pconfig);
        let trainer = RandomForestTrainer { n_trees: 10, ..Default::default() };
        let explainer = Explainer::train(std::slice::from_ref(&bundle), &trainer, 7);
        let route_config = pconfig.route_for(&bundle.design.spec);
        assert!(
            !predicted_hotspots(&explainer, &bundle, 0.3).is_empty(),
            "no predicted hotspots to stall on"
        );
        let budget = StageBudget::with_deadline(std::time::Duration::ZERO);
        let report = run_fix_loop(&explainer, &mut bundle, &route_config, 0.3, 10, 3, 11, &budget);
        assert!(report.iterations.is_empty(), "expired budget must stop before any round");
        assert!(report.stalled, "hotspots remain, so the loop stalled");
        assert!(report.remaining_hotspots > 0);
    }
}
