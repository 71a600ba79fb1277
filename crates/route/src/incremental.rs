//! Incremental rip-up-and-reroute: given a routed design and a set of
//! target g-cells (predicted DRC hotspots), rip up the connections passing
//! through them, penalize the targets' routing resources, and reroute —
//! the router-side half of the predict → explain → fix loop the paper's
//! introduction motivates.
//!
//! Unlike the synthetic congestion edits of a pure what-if query, this
//! produces a *legal* new routing outcome: every ripped connection is
//! re-planned under negotiated congestion (patterns first, A* maze when the
//! pattern still overflows), and layer assignment + via insertion rerun.

use drcshap_geom::budget::{BudgetState, Interrupted, StageBudget};
use drcshap_geom::GcellId;
use drcshap_netlist::Design;
use rand::Rng;

use crate::config::RouteConfig;
use crate::congestion::CongestionMap;
use crate::decompose::{net_demand, pin_cells, TwoPinConn};
use crate::outcome::RouteOutcome;
use crate::router::{finalize_routing, PlanarState};

/// Extra history cost stamped on edges incident to target cells, steering
/// rerouted connections away from the hotspots.
const TARGET_PENALTY: f64 = 6.0;

/// Rips up every connection whose path crosses a `target` cell and reroutes
/// it away from the targets. Returns a fresh, fully finalized outcome
/// (congestion map, layer assignment, statistics) plus how many connections
/// were rerouted.
///
/// `prior` must come from routing the same `design` (paths are trusted).
/// Deterministic for a given `rng` state.
///
/// # Panics
///
/// Panics if a prior path references a net that no longer exists, or if a
/// target lies outside the design's grid.
pub fn reroute_around<R: Rng>(
    design: &Design,
    prior: &RouteOutcome,
    targets: &[GcellId],
    config: &RouteConfig,
    rng: &mut R,
) -> (RouteOutcome, usize) {
    match reroute_around_budgeted(design, prior, targets, config, rng, &StageBudget::unlimited()) {
        Ok(result) => result,
        Err(Interrupted) => unreachable!("an unlimited budget cannot be cancelled"),
    }
}

/// Budgeted variant of [`reroute_around`]: on deadline expiry, victims not
/// yet rerouted keep their *original* paths (recommitted unchanged) and the
/// outcome is marked degraded; on cancellation the call returns
/// [`Interrupted`] and the partial state is discarded.
///
/// # Errors
///
/// [`Interrupted`] when the budget's cancel token fires.
///
/// # Panics
///
/// As [`reroute_around`]: a prior path referencing a missing net, or a
/// target outside the grid.
pub fn reroute_around_budgeted<R: Rng>(
    design: &Design,
    prior: &RouteOutcome,
    targets: &[GcellId],
    config: &RouteConfig,
    rng: &mut R,
    budget: &StageBudget,
) -> Result<(RouteOutcome, usize), Interrupted> {
    for &t in targets {
        assert!(design.grid.contains_cell(t), "target {t} outside the grid");
    }
    let target_set: std::collections::HashSet<GcellId> = targets.iter().copied().collect();

    // Reconstruct planar connections (endpoints + demand) from prior paths.
    let conns: Vec<TwoPinConn> = prior
        .conns
        .iter()
        .map(|c| TwoPinConn {
            net: c.net,
            a: *c.path.first().expect("non-empty prior path"),
            b: *c.path.last().expect("non-empty prior path"),
            demand: net_demand(design, design.netlist.net(c.net)),
        })
        .collect();
    let mut paths: Vec<Vec<GcellId>> = prior.conns.iter().map(|c| c.path.clone()).collect();

    // Rebuild the planar state with all prior paths committed.
    let capacities = CongestionMap::with_capacities(design, config);
    let (nx, ny) = design.grid.dims();
    let mut planar = PlanarState::from_congestion(&capacities, nx, ny, config);
    for (conn, path) in conns.iter().zip(&paths) {
        planar.commit(path, conn.demand, 1.0);
    }
    // Penalize routing over the targets.
    planar.penalize_cells(&target_set, TARGET_PENALTY);

    // Victims: connections whose path crosses a target (endpoints at a
    // target cannot leave it — their pins live there).
    let victims: Vec<usize> = (0..conns.len())
        .filter(|&i| {
            let path = &paths[i];
            path.len() >= 2 && path[1..path.len() - 1].iter().any(|g| target_set.contains(g))
        })
        .collect();

    for &i in &victims {
        planar.commit(&paths[i], conns[i].demand, -1.0);
    }
    let mut deadline_hit = false;
    let mut skipped = 0usize;
    let mut pacer = budget.pacer(16);
    for &i in &victims {
        if !deadline_hit {
            match pacer.tick(budget) {
                BudgetState::Cancelled => return Err(Interrupted),
                BudgetState::DeadlineExpired => deadline_hit = true,
                BudgetState::Within => {}
            }
        }
        if deadline_hit {
            // Out of time: recommit the original path unchanged.
            planar.commit(&paths[i], conns[i].demand, 1.0);
            skipped += 1;
            continue;
        }
        let mut path = planar.route_patterns(&conns[i], rng).0;
        // Pattern routes may still cross a target; fall back to the maze,
        // which sees the target penalty.
        if path[1..path.len().saturating_sub(1)].iter().any(|g| target_set.contains(g)) {
            if let Some(maze) = planar.route_maze(&conns[i], budget) {
                path = maze;
            }
        }
        planar.commit(&path, conns[i].demand, 1.0);
        paths[i] = path;
    }

    let rerouted = victims.len() - skipped;
    let deadline = deadline_hit.then_some(skipped);
    let pins = pin_cells(design);
    let outcome =
        finalize_routing(design, &pins, capacities, &conns, paths, prior.local_nets, rng, deadline);
    Ok((outcome, rerouted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::route_design;
    use drcshap_netlist::{suite, synth, Design};
    use drcshap_place::place;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn routed_design() -> (Design, RouteOutcome) {
        let spec = suite::spec("fft_1").unwrap().scaled(0.3);
        let mut d = Design::new(spec);
        let mut rng = ChaCha8Rng::seed_from_u64(d.spec.seed());
        synth::generate_cells(&mut d, &mut rng);
        place(&mut d, &mut rng);
        synth::generate_nets(&mut d, &mut rng);
        let out = route_design(&d, &RouteConfig::default(), &mut rng);
        (d, out)
    }

    /// The most-trafficked interior cell of the prior routing.
    fn busiest_cell(d: &Design, out: &RouteOutcome) -> GcellId {
        let (nx, ny) = d.grid.dims();
        let mut traffic = vec![0usize; d.grid.num_cells()];
        for conn in &out.conns {
            for g in &conn.path[1..conn.path.len().saturating_sub(1)] {
                traffic[d.grid.index_of(*g)] += 1;
            }
        }
        let mut best = GcellId::new(nx / 2, ny / 2);
        let mut most = 0;
        for g in d.grid.iter() {
            // Keep away from the boundary so detours exist.
            if g.x == 0 || g.y == 0 || g.x + 1 == nx || g.y + 1 == ny {
                continue;
            }
            let t = traffic[d.grid.index_of(g)];
            if t > most {
                most = t;
                best = g;
            }
        }
        best
    }

    #[test]
    fn reroute_reduces_target_through_traffic() {
        let (d, prior) = routed_design();
        let target = busiest_cell(&d, &prior);
        let through = |out: &RouteOutcome| {
            out.conns
                .iter()
                .filter(|c| c.path.len() >= 2 && c.path[1..c.path.len() - 1].contains(&target))
                .count()
        };
        let before = through(&prior);
        assert!(before > 0, "picked a target with no through traffic");
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let (after_outcome, rerouted) =
            reroute_around(&d, &prior, &[target], &RouteConfig::default(), &mut rng);
        assert_eq!(rerouted, before);
        let after = through(&after_outcome);
        assert!(after < before, "through-traffic not reduced: {before} -> {after}");
    }

    #[test]
    fn rerouted_outcome_is_complete_and_legal() {
        let (d, prior) = routed_design();
        let target = busiest_cell(&d, &prior);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let (out, _) = reroute_around(&d, &prior, &[target], &RouteConfig::default(), &mut rng);
        assert_eq!(out.conns.len(), prior.conns.len());
        for (new, old) in out.conns.iter().zip(&prior.conns) {
            // Same endpoints, contiguous path, segments tile the path.
            assert_eq!(new.path.first(), old.path.first());
            assert_eq!(new.path.last(), old.path.last());
            for w in new.path.windows(2) {
                assert_eq!(w[0].x.abs_diff(w[1].x) + w[0].y.abs_diff(w[1].y), 1);
            }
            let seg_len: u32 = new.segments.iter().map(|s| s.len()).sum();
            assert_eq!(seg_len, new.wirelength());
        }
    }

    #[test]
    fn empty_target_list_is_identity_up_to_layer_assignment() {
        let (d, prior) = routed_design();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let (out, rerouted) = reroute_around(&d, &prior, &[], &RouteConfig::default(), &mut rng);
        assert_eq!(rerouted, 0);
        // Paths unchanged (layer assignment may differ by rng).
        for (new, old) in out.conns.iter().zip(&prior.conns) {
            assert_eq!(new.path, old.path);
        }
        assert_eq!(out.total_wirelength, prior.total_wirelength);
    }
}
