//! The global router: planar (2D) pattern routing with negotiated
//! congestion and an A* maze fallback, followed by layer assignment and via
//! demand insertion.
//!
//! The planar-then-layer-assign organization follows standard global-router
//! practice: congestion is negotiated on the combined per-direction capacity,
//! then each straight run is committed to a specific metal layer (short runs
//! prefer low metals, long runs float up to the less-congested high metals),
//! and vias are inserted at endpoints and bends.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use drcshap_geom::budget::{BudgetState, Interrupted, StageBudget};
use drcshap_geom::GcellId;
use drcshap_netlist::{Design, Net};
use drcshap_telemetry as telemetry;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::config::{NetOrder, RouteConfig};
use crate::congestion::{CongestionMap, EdgeDir};
use crate::decompose::{net_demand, pin_cells, MstBuffers, PinCell, TwoPinConn};
use crate::layers::{MetalLayer, ViaLayer, ALL_METALS};
use crate::outcome::{DegradeReason, RouteOutcome, RouteStatus, RoutedConn, Segment};
use crate::steiner::{decompose_net_with, Decomposition};

/// Globally routes `design` and returns the congestion map, routed
/// connections and summary statistics.
///
/// The run is deterministic for a given `rng` state. Equivalent to
/// [`route_design_budgeted`] under an unlimited budget.
///
/// # Panics
///
/// Panics if any net has unplaced pins.
pub fn route_design<R: Rng>(design: &Design, config: &RouteConfig, rng: &mut R) -> RouteOutcome {
    match route_design_budgeted(design, config, rng, &StageBudget::unlimited()) {
        Ok(outcome) => outcome,
        Err(Interrupted) => unreachable!("an unlimited budget cannot be cancelled"),
    }
}

/// The cheapest complete fallback for a connection: a straight or single-L
/// pattern, with no congestion costing and no randomness.
fn fallback_pattern(conn: &TwoPinConn) -> Vec<GcellId> {
    let (a, b) = (conn.a, conn.b);
    if a.x == b.x || a.y == b.y {
        expand(&[a, b])
    } else {
        expand(&[a, GcellId::new(b.x, a.y), b])
    }
}

/// Budgeted variant of [`route_design`]: polls `budget` at iteration
/// granularity inside the initial pass, the rip-up-and-reroute negotiation
/// rounds, and the A* maze search.
///
/// On **deadline expiry** the router degrades instead of dying: connections
/// not yet routed fall back to uncosted L/Z patterns, remaining negotiation
/// rounds are skipped, and the outcome's [`RouteStatus`] records how many
/// connections were short-changed — the congestion map stays consistent and
/// overflow is recorded, so labelling and feature extraction still work.
///
/// # Errors
///
/// [`Interrupted`] when the budget's cancel token fires; the partial state
/// is discarded (a supervisor resumes from the previous stage checkpoint).
pub fn route_design_budgeted<R: Rng>(
    design: &Design,
    config: &RouteConfig,
    rng: &mut R,
    budget: &StageBudget,
) -> Result<RouteOutcome, Interrupted> {
    let _route_span = telemetry::span("route/design");
    let (congestion, mut planar) = {
        let _capacities_span = telemetry::span("route/capacities");
        let congestion = CongestionMap::with_capacities(design, config);
        let (nx, ny) = design.grid.dims();
        let planar = PlanarState::from_congestion(&congestion, nx, ny, config);
        (congestion, planar)
    };

    // Decompose all nets. Decomposition is required for connectivity, so
    // only cancellation (not the deadline) interrupts it.
    let mut conns: Vec<TwoPinConn> = Vec::new();
    let mut local_nets = 0usize;
    let pins = {
        let _decompose_span = telemetry::span("route/decompose");
        let pins = pin_cells(design);
        let mut mst = MstBuffers::default();
        let mut pacer = budget.pacer(256);
        for (net_id, net) in design.netlist.nets() {
            if pacer.tick(budget) == BudgetState::Cancelled {
                return Err(Interrupted);
            }
            let added = match config.decomposition {
                Decomposition::Mst => mst.decompose(
                    net_id,
                    net_demand(design, net),
                    net.pins.iter().map(|&pin| pins[pin.index()].clamped),
                    &mut conns,
                ),
                Decomposition::Steiner => {
                    let cs = decompose_net_with(design, net_id, Decomposition::Steiner);
                    let added = cs.len();
                    conns.extend(cs);
                    added
                }
            };
            if added == 0 {
                local_nets += 1;
            }
        }
        pins
    };

    // Initial pass, in the configured connection order.
    let mut paths: Vec<Vec<GcellId>> = vec![Vec::new(); conns.len()];
    let mut deadline_hit = false;
    let mut fallback_routes = 0usize;
    {
        let _pass_span =
            telemetry::span_with("route/initial_pass", || format!("{} conns", conns.len()));
        let mut order: Vec<usize> = (0..conns.len()).collect();
        match config.net_order {
            NetOrder::ShortFirst => order.sort_by_key(|&i| conns[i].manhattan_len()),
            NetOrder::LongFirst => {
                order.sort_by_key(|&i| std::cmp::Reverse(conns[i].manhattan_len()))
            }
            NetOrder::Random => order.shuffle(rng),
        }
        let mut pacer = budget.pacer(64);
        for &i in &order {
            if !deadline_hit {
                match pacer.tick(budget) {
                    BudgetState::Cancelled => return Err(Interrupted),
                    BudgetState::DeadlineExpired => deadline_hit = true,
                    BudgetState::Within => {}
                }
            }
            let path = if deadline_hit {
                fallback_routes += 1;
                fallback_pattern(&conns[i])
            } else {
                planar.route_patterns(&conns[i], rng).0
            };
            planar.commit(&path, conns[i].demand, 1.0);
            paths[i] = path;
        }
    }

    // Negotiation: rip up and reroute connections crossing overflowed edges.
    'rounds: for round in 0..config.negotiation_rounds {
        if deadline_hit {
            break;
        }
        match budget.check() {
            BudgetState::Cancelled => return Err(Interrupted),
            BudgetState::DeadlineExpired => {
                deadline_hit = true;
                break;
            }
            BudgetState::Within => {}
        }
        let _round_span =
            telemetry::span_with("route/negotiate_round", || format!("round {round}"));
        planar.accumulate_history();
        let mut victims: Vec<usize> =
            (0..conns.len()).filter(|&i| planar.path_overflows(&paths[i])).collect();
        if victims.is_empty() {
            break;
        }
        victims.shuffle(rng);
        let cap = ((conns.len() as f64 * config.max_reroute_fraction) as usize).max(64);
        victims.truncate(cap);
        telemetry::counter("route/ripups", victims.len() as u64);
        let last_round = round + 1 == config.negotiation_rounds;
        let mut pacer = budget.pacer(16);
        for i in victims {
            // Poll *between* victims, so a rip-up is never left uncommitted.
            match pacer.tick(budget) {
                BudgetState::Cancelled => return Err(Interrupted),
                BudgetState::DeadlineExpired => {
                    deadline_hit = true;
                    break 'rounds;
                }
                BudgetState::Within => {}
            }
            planar.commit(&paths[i], conns[i].demand, -1.0);
            let (mut path, cost) = planar.route_patterns(&conns[i], rng);
            if last_round && planar.path_would_overflow(&path, conns[i].demand) {
                telemetry::counter("route/maze_attempts", 1);
                if let Some(maze) = planar.route_maze(&conns[i], budget) {
                    if planar.path_cost(&maze, conns[i].demand) < cost {
                        path = maze;
                        telemetry::counter("route/maze_accepted", 1);
                    }
                }
            }
            planar.commit(&path, conns[i].demand, 1.0);
            paths[i] = path;
        }
    }

    telemetry::counter("route/fallback_patterns", fallback_routes as u64);
    let deadline = deadline_hit.then_some(fallback_routes);
    Ok(finalize_routing(design, &pins, congestion, &conns, paths, local_nets, rng, deadline))
}

/// Layer-assigns planar paths, inserts via demand (bends, pin access, local
/// nets) and assembles the final [`RouteOutcome`]. Shared by the full router
/// and the incremental rerouter; `pins` is [`pin_cells`] of `design`, and
/// `congestion` must carry capacities but no wire loads yet.
///
/// `deadline_fallbacks` is `Some(n)` when the caller's wall-clock budget
/// expired after handing `n` connections an uncosted fallback pattern; the
/// outcome is then marked [`RouteStatus::Degraded`]. Independently, any
/// connection the assignment loop fails to produce (structurally impossible
/// today, but formerly an `expect` panic) is given a fallback pattern route
/// here and counted as degraded instead of aborting the run.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finalize_routing<R: Rng>(
    design: &Design,
    pins: &[PinCell],
    mut congestion: CongestionMap,
    conns: &[TwoPinConn],
    mut paths: Vec<Vec<GcellId>>,
    local_nets: usize,
    rng: &mut R,
    deadline_fallbacks: Option<usize>,
) -> RouteOutcome {
    let _finalize_span = telemetry::span("route/finalize");
    // Assign layers in shuffled order (no connection systematically gets
    // the least-congested layers), but keep the output aligned with the
    // input connection order.
    let mut routed: Vec<Option<RoutedConn>> = (0..conns.len()).map(|_| None).collect();
    let mut total_wirelength = 0u64;
    let mut assign_order: Vec<usize> = (0..conns.len()).collect();
    assign_order.shuffle(rng);
    for i in assign_order {
        let conn = &conns[i];
        let path = std::mem::take(&mut paths[i]);
        total_wirelength += (path.len().saturating_sub(1)) as u64;
        let segments = assign_layers(&path, conn.demand, &mut congestion, rng);
        insert_vias(&path, &segments, conn.demand, &mut congestion);
        routed[i] = Some(RoutedConn { net: conn.net, path, segments });
    }
    let mut unassigned = 0usize;
    let mut out: Vec<RoutedConn> = Vec::with_capacity(conns.len());
    for (i, slot) in routed.into_iter().enumerate() {
        match slot {
            Some(r) => out.push(r),
            None => {
                // Degrade, don't die: give the connection a complete (if
                // uncosted) pattern route so downstream stages can proceed.
                unassigned += 1;
                let path = fallback_pattern(&conns[i]);
                total_wirelength += (path.len().saturating_sub(1)) as u64;
                let segments = assign_layers(&path, conns[i].demand, &mut congestion, rng);
                insert_vias(&path, &segments, conns[i].demand, &mut congestion);
                out.push(RoutedConn { net: conns[i].net, path, segments });
            }
        }
    }
    let routed = out;
    let status = match (deadline_fallbacks, unassigned) {
        (None, 0) => RouteStatus::Complete,
        (Some(n), u) => {
            RouteStatus::Degraded { unrouted: n + u, reason: DegradeReason::DeadlineExpired }
        }
        (None, u) => RouteStatus::Degraded { unrouted: u, reason: DegradeReason::Unassigned },
    };

    // Pin-access via demand: every pin consumes a V1 cut in its g-cell;
    // local nets additionally consume a V2 cut for the intra-cell jog.
    for g in pins.iter().filter_map(|pin| pin.clamped) {
        congestion.add_via_load(ViaLayer::V1, g, 1.0);
    }
    for (_, net) in design.netlist.nets() {
        if let Some(g) = local_gcell(net, pins) {
            congestion.add_via_load(ViaLayer::V2, g, 1.0);
        }
    }

    let edge_overflow = congestion.total_edge_overflow();
    let overflowed_edges = congestion.overflowed_edges();
    let via_overflow = congestion.total_via_overflow();
    RouteOutcome {
        status,
        congestion,
        conns: routed,
        total_wirelength,
        local_nets,
        edge_overflow,
        overflowed_edges,
        via_overflow,
    }
}

/// The one g-cell every pin of a net of at least two pins sits in, judged
/// on unclamped positions (a pin off the die makes the net non-local);
/// `None` when the net is not local.
fn local_gcell(net: &Net, pins: &[PinCell]) -> Option<GcellId> {
    if net.pins.len() < 2 {
        return None;
    }
    let first = pins[net.pins[0].index()].on_die?;
    net.pins.iter().all(|&pin| pins[pin.index()].on_die == Some(first)).then_some(first)
}

/// Planar (direction-combined) routing state: capacity, load and history per
/// horizontal/vertical edge.
pub(crate) struct PlanarState {
    nx: usize,
    ny: usize,
    h_cap: Vec<f64>,
    v_cap: Vec<f64>,
    h_load: Vec<f64>,
    v_load: Vec<f64>,
    h_hist: Vec<f64>,
    v_hist: Vec<f64>,
    congestion_weight: f64,
    history_increment: f64,
}

impl PlanarState {
    pub(crate) fn from_congestion(
        map: &CongestionMap,
        nx: u32,
        ny: u32,
        config: &RouteConfig,
    ) -> Self {
        let (nx, ny) = (nx as usize, ny as usize);
        let mut h_cap = vec![0.0; (nx - 1).max(1) * ny];
        let mut v_cap = vec![0.0; nx * (ny - 1).max(1)];
        for y in 0..ny {
            for x in 0..nx.saturating_sub(1) {
                let a = GcellId::new(x as u32, y as u32);
                let b = GcellId::new(x as u32 + 1, y as u32);
                h_cap[y * (nx - 1) + x] = map.dir_capacity(EdgeDir::Horizontal, a, b);
            }
        }
        for y in 0..ny.saturating_sub(1) {
            for x in 0..nx {
                let a = GcellId::new(x as u32, y as u32);
                let b = GcellId::new(x as u32, y as u32 + 1);
                v_cap[y * nx + x] = map.dir_capacity(EdgeDir::Vertical, a, b);
            }
        }
        Self {
            nx,
            ny,
            h_load: vec![0.0; h_cap.len()],
            v_load: vec![0.0; v_cap.len()],
            h_hist: vec![0.0; h_cap.len()],
            v_hist: vec![0.0; v_cap.len()],
            h_cap,
            v_cap,
            congestion_weight: config.congestion_weight,
            history_increment: config.history_increment,
        }
    }

    #[inline]
    fn h_idx(&self, x: usize, y: usize) -> usize {
        y * (self.nx - 1) + x
    }

    #[inline]
    fn v_idx(&self, x: usize, y: usize) -> usize {
        y * self.nx + x
    }

    /// Cost of crossing one edge with `demand` extra tracks.
    #[inline]
    fn edge_cost(&self, horizontal: bool, idx: usize, demand: f64) -> f64 {
        let (cap, load, hist) = if horizontal {
            (self.h_cap[idx], self.h_load[idx], self.h_hist[idx])
        } else {
            (self.v_cap[idx], self.v_load[idx], self.v_hist[idx])
        };
        let after = load + demand;
        let penalty = if after <= cap { 0.8 * after / cap.max(1.0) } else { 2.0 + (after - cap) };
        1.0 + hist + self.congestion_weight * penalty
    }

    pub(crate) fn edge_between(&self, a: GcellId, b: GcellId) -> (bool, usize) {
        if a.y == b.y {
            let x = a.x.min(b.x) as usize;
            (true, self.h_idx(x, a.y as usize))
        } else {
            let y = a.y.min(b.y) as usize;
            (false, self.v_idx(a.x as usize, y))
        }
    }

    pub(crate) fn path_cost(&self, path: &[GcellId], demand: f64) -> f64 {
        path.windows(2)
            .map(|w| {
                let (h, i) = self.edge_between(w[0], w[1]);
                self.edge_cost(h, i, demand)
            })
            .sum()
    }

    pub(crate) fn commit(&mut self, path: &[GcellId], demand: f64, sign: f64) {
        for w in path.windows(2) {
            let (h, i) = self.edge_between(w[0], w[1]);
            if h {
                self.h_load[i] += sign * demand;
            } else {
                self.v_load[i] += sign * demand;
            }
        }
    }

    pub(crate) fn path_overflows(&self, path: &[GcellId]) -> bool {
        path.windows(2).any(|w| {
            let (h, i) = self.edge_between(w[0], w[1]);
            if h {
                self.h_load[i] > self.h_cap[i]
            } else {
                self.v_load[i] > self.v_cap[i]
            }
        })
    }

    pub(crate) fn path_would_overflow(&self, path: &[GcellId], demand: f64) -> bool {
        path.windows(2).any(|w| {
            let (h, i) = self.edge_between(w[0], w[1]);
            if h {
                self.h_load[i] + demand > self.h_cap[i]
            } else {
                self.v_load[i] + demand > self.v_cap[i]
            }
        })
    }

    /// Adds `penalty` history cost to every edge incident to a cell in
    /// `targets` (used by the incremental rerouter to steer traffic away).
    pub(crate) fn penalize_cells(
        &mut self,
        targets: &std::collections::HashSet<GcellId>,
        penalty: f64,
    ) {
        for &g in targets {
            let (x, y) = (g.x as usize, g.y as usize);
            if x + 1 < self.nx {
                let i = self.h_idx(x, y);
                self.h_hist[i] += penalty;
            }
            if x > 0 {
                let i = self.h_idx(x - 1, y);
                self.h_hist[i] += penalty;
            }
            if y + 1 < self.ny {
                let i = self.v_idx(x, y);
                self.v_hist[i] += penalty;
            }
            if y > 0 {
                let i = self.v_idx(x, y - 1);
                self.v_hist[i] += penalty;
            }
        }
    }

    pub(crate) fn accumulate_history(&mut self) {
        for i in 0..self.h_load.len() {
            if self.h_load[i] > self.h_cap[i] {
                self.h_hist[i] += self.history_increment;
            }
        }
        for i in 0..self.v_load.len() {
            if self.v_load[i] > self.v_cap[i] {
                self.v_hist[i] += self.history_increment;
            }
        }
    }

    /// Cost of the cell-by-cell path through `corners`: the edge costs
    /// summed in path order, bit-identical to
    /// `path_cost(&expand(corners), demand)` without building the path.
    fn corners_cost(&self, corners: &[GcellId], demand: f64) -> f64 {
        CellSteps::new(corners)
            .map(|(a, b)| {
                let (h, i) = self.edge_between(a, b);
                self.edge_cost(h, i, demand)
            })
            .sum()
    }

    /// Best of the straight/L/Z pattern candidates for `conn`, and its
    /// [`PlanarState::path_cost`].
    ///
    /// Candidates go in a fixed order (L x-first, L y-first, Z at a random
    /// column, Z at a random row), each costed once from its corners; the
    /// first of equal minima under `total_cmp` wins, as `Iterator::min_by`
    /// picks, and only the winner is expanded.
    pub(crate) fn route_patterns<R: Rng>(
        &self,
        conn: &TwoPinConn,
        rng: &mut R,
    ) -> (Vec<GcellId>, f64) {
        let (a, b) = (conn.a, conn.b);
        // Corner lists padded to four by repeating the sink: a zero-length
        // leg adds no cell and no edge.
        let mut candidates = [[a, b, b, b]; 4];
        let mut n = 1;
        if a.x != b.x && a.y != b.y {
            candidates[0] = [a, GcellId::new(b.x, a.y), b, b];
            candidates[1] = [a, GcellId::new(a.x, b.y), b, b];
            n = 2;
            // Z patterns with random intermediate splits.
            let (xlo, xhi) = (a.x.min(b.x), a.x.max(b.x));
            let (ylo, yhi) = (a.y.min(b.y), a.y.max(b.y));
            if xhi - xlo > 1 {
                let mx = rng.gen_range(xlo + 1..xhi);
                candidates[n] = [a, GcellId::new(mx, a.y), GcellId::new(mx, b.y), b];
                n += 1;
            }
            if yhi - ylo > 1 {
                let my = rng.gen_range(ylo + 1..yhi);
                candidates[n] = [a, GcellId::new(a.x, my), GcellId::new(b.x, my), b];
                n += 1;
            }
        }
        let mut best = (0, self.corners_cost(&candidates[0], conn.demand));
        for (k, corners) in candidates.iter().enumerate().take(n).skip(1) {
            let cost = self.corners_cost(corners, conn.demand);
            if cost.total_cmp(&best.1).is_lt() {
                best = (k, cost);
            }
        }
        (expand(&candidates[best.0]), best.1)
    }

    /// A* maze route on the planar grid; `None` on pathological inputs or
    /// when `budget` runs out mid-search (the caller keeps its pattern
    /// route — the degraded-but-complete fallback).
    pub(crate) fn route_maze(
        &self,
        conn: &TwoPinConn,
        budget: &StageBudget,
    ) -> Option<Vec<GcellId>> {
        let _maze_span = telemetry::span("route/maze");
        let (nx, ny) = (self.nx, self.ny);
        let idx = |g: GcellId| g.y as usize * nx + g.x as usize;
        let n = nx * ny;
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<u32> = vec![u32::MAX; n];
        let start = idx(conn.a);
        let goal = idx(conn.b);
        dist[start] = 0.0;
        // Binary heap keyed on f = g + h (scaled to integer for Ord).
        let h = |i: usize| {
            let (x, y) = ((i % nx) as i64, (i / nx) as i64);
            ((x - conn.b.x as i64).abs() + (y - conn.b.y as i64).abs()) as f64
        };
        let key = |f: f64| (f * 1024.0) as u64;
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        heap.push(Reverse((key(h(start)), start as u32)));
        let mut pops = 0usize;
        let mut pacer = budget.pacer(2048);
        while let Some(Reverse((_, u))) = heap.pop() {
            let u = u as usize;
            if u == goal {
                break;
            }
            pops += 1;
            if pops > 4 * n || pacer.tick(budget) != BudgetState::Within {
                return None;
            }
            let (x, y) = (u % nx, u / nx);
            let relax = |v: usize,
                         cost: f64,
                         heap: &mut BinaryHeap<Reverse<(u64, u32)>>,
                         dist: &mut [f64],
                         prev: &mut [u32]| {
                let nd = dist[u] + cost;
                if nd < dist[v] {
                    dist[v] = nd;
                    prev[v] = u as u32;
                    heap.push(Reverse((key(nd + h(v)), v as u32)));
                }
            };
            if x + 1 < nx {
                let c = self.edge_cost(true, self.h_idx(x, y), conn.demand);
                relax(u + 1, c, &mut heap, &mut dist, &mut prev);
            }
            if x > 0 {
                let c = self.edge_cost(true, self.h_idx(x - 1, y), conn.demand);
                relax(u - 1, c, &mut heap, &mut dist, &mut prev);
            }
            if y + 1 < ny {
                let c = self.edge_cost(false, self.v_idx(x, y), conn.demand);
                relax(u + nx, c, &mut heap, &mut dist, &mut prev);
            }
            if y > 0 {
                let c = self.edge_cost(false, self.v_idx(x, y - 1), conn.demand);
                relax(u - nx, c, &mut heap, &mut dist, &mut prev);
            }
        }
        if dist[goal].is_infinite() {
            return None;
        }
        let mut path = vec![conn.b];
        let mut cur = goal;
        while cur != start {
            cur = prev[cur] as usize;
            path.push(GcellId::new((cur % nx) as u32, (cur / nx) as u32));
        }
        path.reverse();
        Some(path)
    }
}

/// Expands an axis-aligned corner sequence into a cell-by-cell path.
///
/// # Panics
///
/// Panics if consecutive corners are not axis-aligned.
fn expand(corners: &[GcellId]) -> Vec<GcellId> {
    let steps: u32 =
        corners.windows(2).map(|w| w[0].x.abs_diff(w[1].x) + w[0].y.abs_diff(w[1].y)).sum();
    let mut path = Vec::with_capacity(steps as usize + 1);
    path.push(corners[0]);
    path.extend(CellSteps::new(corners).map(|(_, to)| to));
    path
}

/// The unit steps `(from, to)` of the cell-by-cell path through an
/// axis-aligned corner sequence, in path order: the windows of
/// [`expand`]'s path, without building it.
///
/// # Panics
///
/// Panics, when it reaches them, if consecutive corners are not
/// axis-aligned.
struct CellSteps<'a> {
    corners: &'a [GcellId],
    /// Index of the corner the walk is heading for.
    leg: usize,
    cur: GcellId,
}

impl<'a> CellSteps<'a> {
    fn new(corners: &'a [GcellId]) -> Self {
        Self { corners, leg: 0, cur: corners[0] }
    }
}

impl Iterator for CellSteps<'_> {
    type Item = (GcellId, GcellId);

    #[inline]
    fn next(&mut self) -> Option<(GcellId, GcellId)> {
        loop {
            let &to = self.corners.get(self.leg)?;
            if self.cur != to {
                let from = self.cur;
                let toward = |c: u32, t: u32| match c.cmp(&t) {
                    std::cmp::Ordering::Less => c + 1,
                    std::cmp::Ordering::Equal => c,
                    std::cmp::Ordering::Greater => c - 1,
                };
                self.cur = GcellId::new(toward(from.x, to.x), toward(from.y, to.y));
                return Some((from, self.cur));
            }
            self.leg += 1;
            if let Some(&next) = self.corners.get(self.leg) {
                assert!(to.x == next.x || to.y == next.y, "corners {to}-{next} not axis-aligned");
            }
        }
    }
}

/// Splits `path` into maximal straight runs and assigns each to the
/// cheapest direction-compatible metal layer; commits the wire load.
fn assign_layers<R: Rng>(
    path: &[GcellId],
    demand: f64,
    congestion: &mut CongestionMap,
    rng: &mut R,
) -> Vec<Segment> {
    let mut segments = Vec::new();
    let mut start = 0usize;
    for i in 1..path.len() {
        // A run ends at a bend or at the path's end.
        let bend =
            i + 1 < path.len() && (path[i].x != path[i - 1].x) != (path[i + 1].x != path[i].x);
        if bend || i + 1 == path.len() {
            segments.push(assign_run(&path[start..=i], demand, congestion, rng));
            start = i;
        }
    }
    segments
}

/// Assigns one straight run of at least two cells to the cheapest layer of
/// its direction, drawing one tie-breaking jitter per candidate layer in
/// M1→M5 order, and commits its wire load.
fn assign_run<R: Rng>(
    run: &[GcellId],
    demand: f64,
    congestion: &mut CongestionMap,
    rng: &mut R,
) -> Segment {
    let (from, to) = (run[0], run[run.len() - 1]);
    let horizontal = from.y == to.y && from.x != to.x;
    let dir = if horizontal { EdgeDir::Horizontal } else { EdgeDir::Vertical };
    let len = (run.len() - 1) as f64;
    let mut best: Option<(f64, MetalLayer)> = None;
    for layer in ALL_METALS.into_iter().filter(|m| m.direction() == dir) {
        let mut acc = 0.0;
        for w in run.windows(2) {
            let (cap, load) = congestion.edge_capacity_load(layer, w[0], w[1]);
            acc += (load + demand) / cap.max(0.5);
        }
        // Short runs prefer low metals; jitter breaks ties.
        let score =
            acc / len + layer.index() as f64 * (0.6 / (len + 1.0)) + rng.gen_range(0.0..0.01);
        if best.is_none_or(|(b, _)| score < b) {
            best = Some((score, layer));
        }
    }
    let layer = best.expect("direction always has compatible layers").1;
    for w in run.windows(2) {
        congestion.add_edge_load(layer, w[0], w[1], demand);
    }
    Segment { layer, from, to }
}

/// Inserts via demand at segment endpoints and bends.
fn insert_vias(
    path: &[GcellId],
    segments: &[Segment],
    demand: f64,
    congestion: &mut CongestionMap,
) {
    if segments.is_empty() {
        return;
    }
    // Pin access stacks at both ends: M1 up to the first/last segment layer.
    let first = segments.first().expect("non-empty");
    let last = segments.last().expect("non-empty");
    for v in ViaLayer::between(MetalLayer::M1, first.layer) {
        congestion.add_via_load(v, path[0], demand);
    }
    for v in ViaLayer::between(MetalLayer::M1, last.layer) {
        congestion.add_via_load(v, *path.last().expect("non-empty path"), demand);
    }
    // Layer changes at bends.
    for w in segments.windows(2) {
        let junction = w[0].to;
        for v in ViaLayer::between(w[0].layer, w[1].layer) {
            congestion.add_via_load(v, junction, demand);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcshap_netlist::{suite, synth, Design};
    use drcshap_place::place;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn routed(name: &str, scale: f64) -> (Design, RouteOutcome) {
        let spec = suite::spec(name).unwrap().scaled(scale);
        let mut d = Design::new(spec);
        let mut rng = ChaCha8Rng::seed_from_u64(d.spec.seed());
        synth::generate_cells(&mut d, &mut rng);
        place(&mut d, &mut rng);
        synth::generate_nets(&mut d, &mut rng);
        let out = route_design(&d, &RouteConfig::default(), &mut rng);
        (d, out)
    }

    #[test]
    fn expand_walks_cell_by_cell() {
        let p = expand(&[GcellId::new(0, 0), GcellId::new(3, 0), GcellId::new(3, 2)]);
        assert_eq!(p.len(), 6);
        assert_eq!(p[0], GcellId::new(0, 0));
        assert_eq!(p[3], GcellId::new(3, 0));
        assert_eq!(p[5], GcellId::new(3, 2));
        for w in p.windows(2) {
            assert_eq!(w[0].x.abs_diff(w[1].x) + w[0].y.abs_diff(w[1].y), 1);
        }
    }

    #[test]
    #[should_panic(expected = "not axis-aligned")]
    fn expand_rejects_diagonals() {
        let _ = expand(&[GcellId::new(0, 0), GcellId::new(2, 2)]);
    }

    #[test]
    fn paths_connect_endpoints() {
        let (_, out) = routed("fft_1", 0.25);
        assert!(!out.conns.is_empty());
        for conn in &out.conns {
            let path = &conn.path;
            assert!(path.len() >= 2 || conn.segments.is_empty());
            for w in path.windows(2) {
                assert_eq!(
                    w[0].x.abs_diff(w[1].x) + w[0].y.abs_diff(w[1].y),
                    1,
                    "path not cell-contiguous"
                );
            }
        }
    }

    #[test]
    fn segments_cover_paths_with_matching_directions() {
        let (_, out) = routed("fft_1", 0.25);
        for conn in out.conns.iter().filter(|c| c.path.len() >= 2) {
            let seg_len: u32 = conn.segments.iter().map(|s| s.len()).sum();
            assert_eq!(seg_len, conn.wirelength(), "segments must tile the path");
            for s in &conn.segments {
                let horizontal = s.from.y == s.to.y && s.from.x != s.to.x;
                let dir = if horizontal { EdgeDir::Horizontal } else { EdgeDir::Vertical };
                if !s.is_empty() {
                    assert_eq!(s.layer.direction(), dir, "segment on wrong-direction layer");
                }
            }
        }
    }

    #[test]
    fn congestion_load_matches_wirelength() {
        // Total committed edge load (at demand >= 1 per crossing) must be at
        // least the total wirelength.
        let (d, out) = routed("fft_1", 0.25);
        let grid = &d.grid;
        let mut committed = 0.0;
        for m in ALL_METALS {
            let (dx, dy) = match m.direction() {
                EdgeDir::Horizontal => (1, 0),
                EdgeDir::Vertical => (0, 1),
            };
            for a in grid.iter() {
                if let Some(b) = grid.neighbor(a, dx, dy) {
                    committed += out.congestion.edge_load(m, a, b);
                }
            }
        }
        assert!(
            committed >= out.total_wirelength as f64 * 0.999,
            "committed {committed} < wirelength {}",
            out.total_wirelength
        );
    }

    #[test]
    pub(crate) fn committed_edge_load_equals_demand_times_length() {
        // Conservation: total committed metal load must equal the sum over
        // connections of (wirelength x demand).
        let (d, out) = routed("fft_2", 0.25);
        let demand_of = |net: drcshap_netlist::NetId| {
            d.netlist.net(net).ndr.map(|id| d.netlist.ndr(id).track_demand()).unwrap_or(1.0)
        };
        let expected: f64 =
            out.conns.iter().map(|c| c.wirelength() as f64 * demand_of(c.net)).sum();
        let grid = &d.grid;
        let mut committed = 0.0;
        for m in ALL_METALS {
            let (dx, dy) = match m.direction() {
                EdgeDir::Horizontal => (1, 0),
                EdgeDir::Vertical => (0, 1),
            };
            for a in grid.iter() {
                if let Some(b) = grid.neighbor(a, dx, dy) {
                    committed += out.congestion.edge_load(m, a, b);
                }
            }
        }
        assert!(
            (committed - expected).abs() < 1e-6 * expected.max(1.0),
            "committed {committed} vs expected {expected}"
        );
    }

    #[test]
    fn via_loads_exist_at_pins() {
        let (d, out) = routed("fft_1", 0.25);
        let total_v1: f64 = d.grid.iter().map(|g| out.congestion.via_load(ViaLayer::V1, g)).sum();
        // Every pin adds at least one V1 cut.
        assert!(total_v1 >= d.netlist.num_pins() as f64 * 0.999);
    }

    #[test]
    fn capacity_derating_increases_overflow() {
        // The core pipeline derates capacity on stressed designs; a derated
        // route of the same design must overflow at least as much.
        let spec = suite::spec("des_perf_1").unwrap().scaled(0.2);
        let mut d = Design::new(spec);
        let mut rng = ChaCha8Rng::seed_from_u64(d.spec.seed());
        synth::generate_cells(&mut d, &mut rng);
        place(&mut d, &mut rng);
        synth::generate_nets(&mut d, &mut rng);
        let mut rng_a = ChaCha8Rng::seed_from_u64(1);
        let full = route_design(&d, &RouteConfig::default(), &mut rng_a);
        let mut rng_b = ChaCha8Rng::seed_from_u64(1);
        let derated = route_design(&d, &RouteConfig::default().derated(0.5), &mut rng_b);
        assert!(
            derated.edge_overflow > full.edge_overflow,
            "derated {} <= full {}",
            derated.edge_overflow,
            full.edge_overflow
        );
    }

    #[test]
    fn routing_is_deterministic() {
        let (_, a) = routed("fft_2", 0.2);
        let (_, b) = routed("fft_2", 0.2);
        assert_eq!(a.total_wirelength, b.total_wirelength);
        assert_eq!(a.edge_overflow, b.edge_overflow);
    }

    #[test]
    fn net_order_changes_routing_but_stays_legal() {
        let spec = suite::spec("fft_1").unwrap().scaled(0.25);
        let mut d = Design::new(spec);
        let mut rng = ChaCha8Rng::seed_from_u64(d.spec.seed());
        synth::generate_cells(&mut d, &mut rng);
        place(&mut d, &mut rng);
        synth::generate_nets(&mut d, &mut rng);
        let mut results = Vec::new();
        for order in
            [crate::NetOrder::ShortFirst, crate::NetOrder::LongFirst, crate::NetOrder::Random]
        {
            let cfg = RouteConfig { net_order: order, ..RouteConfig::default() };
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            let out = route_design(&d, &cfg, &mut rng);
            // Each ordering yields a complete, well-formed route set.
            assert!(out.total_wirelength > 0);
            for conn in &out.conns {
                let seg_len: u32 = conn.segments.iter().map(|s| s.len()).sum();
                assert_eq!(seg_len, conn.wirelength());
            }
            results.push((out.total_wirelength, out.edge_overflow, out.via_overflow));
        }
        // All patterns are shortest paths, so wirelength often ties — but
        // the congestion outcome should differ between orderings.
        assert!(results.windows(2).any(|w| w[0] != w[1]), "all orderings identical: {results:?}");
    }

    #[test]
    fn maze_route_finds_detour() {
        // Construct a planar state with a blocked straight path.
        let spec = suite::spec("fft_1").unwrap().scaled(0.2);
        let d = Design::new(spec);
        let map = CongestionMap::with_capacities(&d, &RouteConfig::default());
        let (nx, ny) = d.grid.dims();
        let mut planar = PlanarState::from_congestion(&map, nx, ny, &RouteConfig::default());
        // Saturate the direct horizontal corridor.
        let y = 5usize;
        for x in 0..(planar.nx - 1) {
            let i = planar.h_idx(x, y);
            planar.h_load[i] = planar.h_cap[i] + 50.0;
        }
        let conn = TwoPinConn {
            net: drcshap_netlist::NetId::from_index(0),
            a: GcellId::new(0, y as u32),
            b: GcellId::new(8, y as u32),
            demand: 1.0,
        };
        let maze = planar.route_maze(&conn, &StageBudget::unlimited()).expect("maze must succeed");
        assert_eq!(*maze.first().unwrap(), conn.a);
        assert_eq!(*maze.last().unwrap(), conn.b);
        // The detour leaves the saturated row.
        assert!(maze.iter().any(|g| g.y != y as u32), "maze did not detour");
    }

    #[test]
    fn expired_deadline_degrades_but_completes() {
        let spec = suite::spec("fft_1").unwrap().scaled(0.25);
        let mut d = Design::new(spec);
        let mut rng = ChaCha8Rng::seed_from_u64(d.spec.seed());
        synth::generate_cells(&mut d, &mut rng);
        place(&mut d, &mut rng);
        synth::generate_nets(&mut d, &mut rng);
        let budget = StageBudget::with_deadline(std::time::Duration::ZERO);
        let out = route_design_budgeted(&d, &RouteConfig::default(), &mut rng, &budget).unwrap();
        match out.status {
            RouteStatus::Degraded { unrouted, reason } => {
                assert_eq!(reason, DegradeReason::DeadlineExpired);
                assert!(unrouted > 0, "zero-deadline run must fall back on some connections");
            }
            RouteStatus::Complete => panic!("zero deadline must degrade"),
        }
        // Degraded is still a complete routing state: every connection has a
        // contiguous path tiled by its segments.
        assert!(!out.conns.is_empty());
        for conn in &out.conns {
            assert!(!conn.path.is_empty());
            for w in conn.path.windows(2) {
                assert_eq!(w[0].x.abs_diff(w[1].x) + w[0].y.abs_diff(w[1].y), 1);
            }
            let seg_len: u32 = conn.segments.iter().map(|s| s.len()).sum();
            assert_eq!(seg_len, conn.wirelength());
        }
    }

    #[test]
    fn cancelled_budget_interrupts_routing() {
        let spec = suite::spec("fft_1").unwrap().scaled(0.2);
        let mut d = Design::new(spec);
        let mut rng = ChaCha8Rng::seed_from_u64(d.spec.seed());
        synth::generate_cells(&mut d, &mut rng);
        place(&mut d, &mut rng);
        synth::generate_nets(&mut d, &mut rng);
        let token = drcshap_geom::budget::CancelToken::new();
        token.cancel();
        let budget = StageBudget::unlimited().cancelled_by(token);
        let res = route_design_budgeted(&d, &RouteConfig::default(), &mut rng, &budget);
        assert_eq!(res.err(), Some(Interrupted));
    }

    /// The pattern router as it was before candidates were costed from
    /// their corners: every candidate expanded, `path_cost` on both sides
    /// of every `min_by` comparison.
    fn route_patterns_reference<R: Rng>(
        planar: &PlanarState,
        conn: &TwoPinConn,
        rng: &mut R,
    ) -> Vec<GcellId> {
        fn expand_reference(corners: &[GcellId]) -> Vec<GcellId> {
            let mut path = vec![corners[0]];
            for w in corners.windows(2) {
                let (a, b) = (w[0], w[1]);
                let mut cur = a;
                while cur != b {
                    cur = GcellId::new(
                        (cur.x as i64 + (b.x as i64 - cur.x as i64).signum()) as u32,
                        (cur.y as i64 + (b.y as i64 - cur.y as i64).signum()) as u32,
                    );
                    path.push(cur);
                }
            }
            path
        }
        let (a, b) = (conn.a, conn.b);
        let mut candidates: Vec<Vec<GcellId>> = Vec::with_capacity(6);
        if a.x == b.x || a.y == b.y {
            candidates.push(expand_reference(&[a, b]));
        } else {
            candidates.push(expand_reference(&[a, GcellId::new(b.x, a.y), b]));
            candidates.push(expand_reference(&[a, GcellId::new(a.x, b.y), b]));
            let (xlo, xhi) = (a.x.min(b.x), a.x.max(b.x));
            let (ylo, yhi) = (a.y.min(b.y), a.y.max(b.y));
            if xhi - xlo > 1 {
                let mx = rng.gen_range(xlo + 1..xhi);
                candidates.push(expand_reference(&[
                    a,
                    GcellId::new(mx, a.y),
                    GcellId::new(mx, b.y),
                    b,
                ]));
            }
            if yhi - ylo > 1 {
                let my = rng.gen_range(ylo + 1..yhi);
                candidates.push(expand_reference(&[
                    a,
                    GcellId::new(a.x, my),
                    GcellId::new(b.x, my),
                    b,
                ]));
            }
        }
        candidates
            .into_iter()
            .min_by(|p, q| {
                planar.path_cost(p, conn.demand).total_cmp(&planar.path_cost(q, conn.demand))
            })
            .expect("at least one pattern candidate")
    }

    proptest::proptest! {
        /// Costing candidates from their corners picks the same path, with
        /// the same RNG draws, as expanding and costing every candidate;
        /// the returned cost is the winner's `path_cost`, bit for bit.
        /// Small integer loads, capacities and history make ties common.
        #[test]
        fn prop_route_patterns_matches_reference(
            seed in proptest::any::<u64>(),
            nx in 2u32..14,
            ny in 2u32..14,
            shape in 0u32..4,
            demand in 1u32..4,
        ) {
            let mut gen = ChaCha8Rng::seed_from_u64(seed);
            let map = CongestionMap::zeros(nx, ny);
            let mut planar = PlanarState::from_congestion(&map, nx, ny, &RouteConfig::default());
            let residue = gen.gen_bool(0.3);
            let draw = |gen: &mut ChaCha8Rng, hi: u32| {
                let v = gen.gen_range(0..hi) as f64;
                if residue { v + gen.gen_range(0.0..1e-9) } else { v }
            };
            for v in planar.h_cap.iter_mut().chain(planar.v_cap.iter_mut()) {
                *v = draw(&mut gen, 6);
            }
            for v in planar.h_load.iter_mut().chain(planar.v_load.iter_mut()) {
                *v = draw(&mut gen, 8);
            }
            for v in planar.h_hist.iter_mut().chain(planar.v_hist.iter_mut()) {
                *v = 1.5 * draw(&mut gen, 3);
            }
            let demand = demand as f64;
            for _ in 0..16 {
                let a = GcellId::new(gen.gen_range(0..nx), gen.gen_range(0..ny));
                let b = match shape {
                    // Straight along a row or column.
                    0 if gen.gen_bool(0.5) => GcellId::new(gen.gen_range(0..nx), a.y),
                    0 => GcellId::new(a.x, gen.gen_range(0..ny)),
                    // Adjacent.
                    1 if a.x + 1 < nx => GcellId::new(a.x + 1, a.y),
                    1 => GcellId::new(a.x, (a.y + 1) % ny),
                    // One column apart: no Z split in x.
                    2 => GcellId::new(if a.x + 1 < nx { a.x + 1 } else { a.x - 1 }, gen.gen_range(0..ny)),
                    _ => GcellId::new(gen.gen_range(0..nx), gen.gen_range(0..ny)),
                };
                if a == b {
                    continue;
                }
                let conn = TwoPinConn { net: drcshap_netlist::NetId::from_index(0), a, b, demand };
                let stream = gen.gen::<u64>();
                let mut rng_new = ChaCha8Rng::seed_from_u64(stream);
                let mut rng_ref = ChaCha8Rng::seed_from_u64(stream);
                let (path, cost) = planar.route_patterns(&conn, &mut rng_new);
                let reference = route_patterns_reference(&planar, &conn, &mut rng_ref);
                proptest::prop_assert_eq!(&path, &reference);
                proptest::prop_assert_eq!(
                    cost.to_bits(),
                    planar.path_cost(&reference, demand).to_bits()
                );
                proptest::prop_assert_eq!(rng_new.get_word_pos(), rng_ref.get_word_pos());
            }
        }
    }

    #[test]
    fn fallback_pattern_connects_endpoints() {
        let conn = TwoPinConn {
            net: drcshap_netlist::NetId::from_index(0),
            a: GcellId::new(2, 7),
            b: GcellId::new(6, 1),
            demand: 1.0,
        };
        let p = fallback_pattern(&conn);
        assert_eq!(*p.first().unwrap(), conn.a);
        assert_eq!(*p.last().unwrap(), conn.b);
        for w in p.windows(2) {
            assert_eq!(w[0].x.abs_diff(w[1].x) + w[0].y.abs_diff(w[1].y), 1);
        }
    }
}
