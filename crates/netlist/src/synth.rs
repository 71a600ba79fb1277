//! Synthetic design generation: cells/macros ([`generate_cells`]) and
//! locality-driven net synthesis ([`generate_nets`]).
//!
//! Net synthesis runs *after* placement so that net locality can be expressed
//! physically: endpoints are sampled with a distance-decaying kernel around a
//! seed cell, reproducing the short-net-dominated wirelength distributions of
//! real netlists (Rent's rule territory). This ordering is a generation
//! device only — the resulting `Design` is indistinguishable, for the
//! downstream pipeline, from a conventionally placed netlist.

use drcshap_geom::{GcellId, Point, Rect};
use drcshap_telemetry as telemetry;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::design::Design;
use crate::ids::{CellId, NetId};
use crate::model::{Cell, Macro, Ndr, Net, NetKind, Pin, PinOwner};
use crate::suite::{ROW_HEIGHT_DBU, SITE_WIDTH_DBU};

/// Fraction of cells that span two placement rows.
const MULTI_HEIGHT_FRACTION: f64 = 0.03;
/// Nets per standard cell (typical SoC netlists sit near 1.0–1.2).
const NETS_PER_CELL: f64 = 1.1;
/// Fraction of cells that are clock sinks.
const CLOCK_SINK_FRACTION: f64 = 0.02;
/// Fraction of signal nets routed with a non-default rule.
const NDR_NET_FRACTION: f64 = 0.02;

/// Generates standard cells, macros and routing blockages for `design`.
///
/// Cell widths follow a discrete library-like distribution (2–10 sites);
/// macros are mutually non-overlapping blocks sized relative to the die; one
/// or two routing-blockage strips may be added. Idempotent only on an empty
/// design.
///
/// # Panics
///
/// Panics if the design already contains cells.
pub fn generate_cells<R: Rng>(design: &mut Design, rng: &mut R) {
    assert_eq!(design.netlist.num_cells(), 0, "generate_cells on non-empty design");
    let _span = telemetry::span("netlist/generate_cells");

    place_macros(design, rng);
    add_routing_blockages(design, rng);

    let n = design.spec.num_cells();
    for _ in 0..n {
        let sites = *[2i64, 3, 4, 5, 6, 8, 10]
            .choose_weighted(rng, |&s| match s {
                2 => 20.0,
                3 => 25.0,
                4 => 20.0,
                5 => 12.0,
                6 => 12.0,
                8 => 7.0,
                _ => 4.0,
            })
            .expect("non-empty weights");
        let multi = rng.gen_bool(MULTI_HEIGHT_FRACTION);
        design.netlist.add_cell(Cell {
            width: sites * SITE_WIDTH_DBU,
            height: if multi { 2 * ROW_HEIGHT_DBU } else { ROW_HEIGHT_DBU },
            multi_height: multi,
            pins: Vec::new(),
        });
    }
    design.placement.resize(design.netlist.num_cells());
}

fn place_macros<R: Rng>(design: &mut Design, rng: &mut R) {
    let die = design.die;
    let n = design.spec.num_macros();
    let mut placed: Vec<Rect> = Vec::with_capacity(n);
    let min_side = die.width().min(die.height());
    for _ in 0..n {
        // Rejection-sample a non-overlapping block, shrinking on failure.
        let mut frac = 0.28;
        let rect = loop {
            let w = (min_side as f64 * frac * rng.gen_range(0.6..1.0)) as i64;
            let h = (min_side as f64 * frac * rng.gen_range(0.6..1.0)) as i64;
            let margin = min_side / 20;
            if die.width() - w - 2 * margin <= 0 || die.height() - h - 2 * margin <= 0 {
                frac *= 0.8;
                continue;
            }
            let x = rng.gen_range(margin..die.width() - w - margin);
            let y = rng.gen_range(margin..die.height() - h - margin);
            let candidate = Rect::new(x, y, x + w, y + h);
            let keepout = candidate.inflate(min_side / 50);
            if placed.iter().all(|p| !p.overlaps(&keepout)) {
                break candidate;
            }
            frac *= 0.9;
            if frac < 0.02 {
                break candidate; // give up on separation for pathological dice
            }
        };
        placed.push(rect);
        design.netlist.add_macro(Macro { rect, pins: Vec::new() });
    }
}

fn add_routing_blockages<R: Rng>(design: &mut Design, rng: &mut R) {
    let die = design.die;
    let count = rng.gen_range(0..=2usize);
    for _ in 0..count {
        let w = die.width() / rng.gen_range(8..16);
        let h = die.height() / rng.gen_range(20..40);
        let x = rng.gen_range(0..die.width() - w);
        let y = rng.gen_range(0..die.height() - h);
        let strip = Rect::new(die.lo.x + x, die.lo.y + y, die.lo.x + x + w, die.lo.y + y + h);
        // Keep blockages clear of macros so blockage areas stay additive.
        if design.netlist.macros().all(|(_, m)| !m.rect.overlaps(&strip)) {
            design.routing_blockages.push(strip);
        }
    }
}

/// Generates nets for a placed `design`: locality-driven signal nets,
/// regional clock nets, NDR assignment and macro boundary-pin nets.
///
/// # Panics
///
/// Panics if any cell is unplaced, or nets were already generated.
pub fn generate_nets<R: Rng>(design: &mut Design, rng: &mut R) {
    assert_eq!(design.netlist.num_nets(), 0, "generate_nets on routed design");
    assert_eq!(
        design.placement.num_placed(),
        design.netlist.num_cells(),
        "all cells must be placed before net synthesis"
    );
    let _nets_span = telemetry::span("netlist/generate_nets");

    let buckets = bucket_cells(design);
    let stress = design.spec.stress();
    let num_cells = design.netlist.num_cells();
    let num_signal = ((num_cells as f64) * NETS_PER_CELL) as usize;

    // NDR classes as in the ISPD-2015 benchmarks: 2x and 3x width/spacing.
    let ndr2 = design.netlist.add_ndr(Ndr { width_mult: 2.0, spacing_mult: 2.0 });
    let ndr3 = design.netlist.add_ndr(Ndr { width_mult: 3.0, spacing_mult: 3.0 });

    {
        let _span = telemetry::span("netlist/signal_nets");
        for _ in 0..num_signal {
            let seed = CellId::from_index(rng.gen_range(0..num_cells));
            let fanout = sample_fanout(rng);
            let members = sample_local_cells(design, &buckets, seed, fanout, stress, rng);
            if members.len() < 2 {
                continue;
            }
            let ndr = if rng.gen_bool(NDR_NET_FRACTION) {
                Some(if rng.gen_bool(0.7) { ndr2 } else { ndr3 })
            } else {
                None
            };
            add_cell_net(design, &members, NetKind::Signal, ndr, rng);
        }
    }
    {
        let _span = telemetry::span("netlist/clock_nets");
        generate_clock_nets(design, &buckets, rng);
    }
    let _span = telemetry::span("netlist/macro_nets");
    generate_macro_nets(design, &buckets, rng);
}

/// Spatial index: cell ids bucketed by the g-cell containing their center.
fn bucket_cells(design: &Design) -> Vec<Vec<CellId>> {
    let mut buckets = vec![Vec::new(); design.grid.num_cells()];
    for (id, _) in design.netlist.cells() {
        let outline = design.cell_outline(id).expect("cells are placed before bucketing");
        if let Some(g) = design.grid.cell_containing(outline.center()) {
            buckets[design.grid.index_of(g)].push(id);
        }
    }
    buckets
}

fn sample_fanout<R: Rng>(rng: &mut R) -> usize {
    *[2usize, 3, 4, 5, 6, 8, 12]
        .choose_weighted(rng, |&k| match k {
            2 => 55.0,
            3 => 20.0,
            4 => 10.0,
            5 => 6.0,
            6 => 4.0,
            8 => 3.0,
            _ => 2.0,
        })
        .expect("non-empty weights")
}

/// Samples up to `fanout` distinct cells around `seed` with a
/// distance-decaying kernel. Higher `stress` shortens nets (denser local
/// congestion); the tail still produces a few long nets.
fn sample_local_cells<R: Rng>(
    design: &Design,
    buckets: &[Vec<CellId>],
    seed: CellId,
    fanout: usize,
    stress: f64,
    rng: &mut R,
) -> Vec<CellId> {
    let grid = &design.grid;
    let (nx, ny) = grid.dims();
    let seed_outline = design.cell_outline(seed).expect("seed placed");
    let Some(seed_g) = grid.cell_containing(seed_outline.center()) else {
        return Vec::new();
    };
    let mean_radius = (3.0 - 1.5 * stress).max(1.0);

    let mut members = vec![seed];
    let mut attempts = 0;
    while members.len() < fanout && attempts < fanout * 12 {
        attempts += 1;
        // Geometric-ish radius with a heavy-ish tail for occasional long nets.
        let r = if rng.gen_bool(0.05) {
            rng.gen_range(0..(nx.max(ny) / 2 + 1) as i32)
        } else {
            let mut r = 0i32;
            while rng.gen_bool(1.0 - 1.0 / mean_radius) && r < 12 {
                r += 1;
            }
            r
        };
        let dx = rng.gen_range(-r..=r);
        let dy = rng.gen_range(-r..=r);
        let Some(g) = grid.neighbor(seed_g, dx, dy) else { continue };
        let bucket = &buckets[grid.index_of(g)];
        if bucket.is_empty() {
            continue;
        }
        let cand = bucket[rng.gen_range(0..bucket.len())];
        if !members.contains(&cand) {
            members.push(cand);
        }
    }
    members
}

/// Adds a net whose endpoints are fresh pins on `members`.
fn add_cell_net<R: Rng>(
    design: &mut Design,
    members: &[CellId],
    kind: NetKind,
    ndr: Option<crate::NdrId>,
    rng: &mut R,
) -> NetId {
    let mut pin_ids = Vec::with_capacity(members.len());
    for &cell in members {
        let c = design.netlist.cell(cell);
        let (w, h) = (c.width, c.height);
        let offset = Point::new(
            rng.gen_range(0..w.max(1)),
            rng.gen_range(h / 4..(3 * h / 4).max(h / 4 + 1)),
        );
        let pin = design.netlist.add_pin(Pin {
            owner: PinOwner::Cell { cell, offset },
            // Rewritten by add_net below.
            net: NetId::from_index(0),
        });
        pin_ids.push(pin);
    }
    design.netlist.add_net(Net { pins: pin_ids, kind, ndr })
}

/// Regional clock nets: clock sinks are grouped by coarse die quadrant chunks
/// so each clock net spans a region (long, constrained routes) without
/// producing one unroutable giant net.
fn generate_clock_nets<R: Rng>(design: &mut Design, buckets: &[Vec<CellId>], rng: &mut R) {
    let num_cells = design.netlist.num_cells();
    let num_sinks = ((num_cells as f64) * CLOCK_SINK_FRACTION) as usize;
    if num_sinks < 2 {
        return;
    }
    let (nx, ny) = design.grid.dims();
    let regions_per_axis = 4u32;
    let mut regional: Vec<Vec<CellId>> =
        vec![Vec::new(); (regions_per_axis * regions_per_axis) as usize];
    let mut chosen = 0;
    let mut attempts = 0;
    while chosen < num_sinks && attempts < num_sinks * 10 {
        attempts += 1;
        let g = GcellId::new(rng.gen_range(0..nx), rng.gen_range(0..ny));
        let bucket = &buckets[design.grid.index_of(g)];
        if bucket.is_empty() {
            continue;
        }
        let cell = bucket[rng.gen_range(0..bucket.len())];
        let rx = (g.x * regions_per_axis / nx).min(regions_per_axis - 1);
        let ry = (g.y * regions_per_axis / ny).min(regions_per_axis - 1);
        regional[(ry * regions_per_axis + rx) as usize].push(cell);
        chosen += 1;
    }
    for members in regional {
        if members.len() >= 2 {
            add_cell_net(design, &members, NetKind::Clock, None, rng);
        }
    }
}

/// Macro boundary pins, each connected to a few nearby standard cells.
fn generate_macro_nets<R: Rng>(design: &mut Design, buckets: &[Vec<CellId>], rng: &mut R) {
    let macro_ids: Vec<_> = design.netlist.macros().map(|(id, _)| id).collect();
    for mid in macro_ids {
        let rect = design.netlist.macro_block(mid).rect;
        let num_pins = rng.gen_range(8..=24usize);
        for _ in 0..num_pins {
            let position = random_boundary_point(&rect, rng);
            let Some(g) = design.grid.cell_containing(position).or_else(|| {
                design.grid.cell_containing(Point::new(
                    position.x.min(design.die.hi.x - 1),
                    position.y.min(design.die.hi.y - 1),
                ))
            }) else {
                continue;
            };
            // Find nearby standard cells to connect to.
            let mut members = Vec::new();
            for _ in 0..20 {
                let dx = rng.gen_range(-3..=3);
                let dy = rng.gen_range(-3..=3);
                if let Some(ng) = design.grid.neighbor(g, dx, dy) {
                    let bucket = &buckets[design.grid.index_of(ng)];
                    if !bucket.is_empty() {
                        let cand = bucket[rng.gen_range(0..bucket.len())];
                        if !members.contains(&cand) {
                            members.push(cand);
                        }
                    }
                }
                if members.len() >= rng.gen_range(1..=3) {
                    break;
                }
            }
            if members.is_empty() {
                continue;
            }
            let macro_pin = design.netlist.add_pin(Pin {
                owner: PinOwner::Macro { id: mid, position },
                net: NetId::from_index(0),
            });
            let mut pin_ids = vec![macro_pin];
            for &cell in &members {
                let c = design.netlist.cell(cell);
                let offset = Point::new(rng.gen_range(0..c.width.max(1)), c.height / 2);
                pin_ids.push(design.netlist.add_pin(Pin {
                    owner: PinOwner::Cell { cell, offset },
                    net: NetId::from_index(0),
                }));
            }
            design.netlist.add_net(Net { pins: pin_ids, kind: NetKind::Signal, ndr: None });
        }
    }
}

fn random_boundary_point<R: Rng>(rect: &Rect, rng: &mut R) -> Point {
    match rng.gen_range(0..4) {
        0 => Point::new(rng.gen_range(rect.lo.x..rect.hi.x), rect.lo.y),
        1 => Point::new(rng.gen_range(rect.lo.x..rect.hi.x), rect.hi.y - 1),
        2 => Point::new(rect.lo.x, rng.gen_range(rect.lo.y..rect.hi.y)),
        _ => Point::new(rect.hi.x - 1, rng.gen_range(rect.lo.y..rect.hi.y)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_design() -> Design {
        let spec = suite::spec("fft_1").unwrap().scaled(0.35);
        let mut d = Design::new(spec);
        let mut rng = ChaCha8Rng::seed_from_u64(d.spec.seed());
        generate_cells(&mut d, &mut rng);
        d
    }

    /// Naive uniform placement for testing net synthesis in isolation.
    fn place_uniform(d: &mut Design, rng: &mut ChaCha8Rng) {
        let die = d.die;
        let ids: Vec<_> = d.netlist.cells().map(|(id, _)| id).collect();
        for id in ids {
            let c = d.netlist.cell(id);
            let x = rng.gen_range(die.lo.x..die.hi.x - c.width);
            let y = rng.gen_range(die.lo.y..die.hi.y - c.height);
            d.placement.place(id, Point::new(x, y));
        }
    }

    #[test]
    fn generate_cells_respects_spec_counts() {
        let d = tiny_design();
        assert_eq!(d.netlist.num_cells(), d.spec.num_cells());
        assert_eq!(d.netlist.num_macros(), d.spec.num_macros());
        assert_eq!(d.placement.len(), d.netlist.num_cells());
    }

    #[test]
    fn macros_do_not_overlap_on_macro_heavy_design() {
        let spec = suite::spec("fft_a").unwrap().scaled(0.5);
        let mut d = Design::new(spec);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        generate_cells(&mut d, &mut rng);
        let rects: Vec<_> = d.netlist.macros().map(|(_, m)| m.rect).collect();
        assert_eq!(rects.len(), 6);
        for i in 0..rects.len() {
            for j in i + 1..rects.len() {
                assert!(!rects[i].overlaps(&rects[j]), "macros {i} and {j} overlap");
            }
        }
        for r in &rects {
            assert!(d.die.contains_rect(r));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = suite::spec("fft_1").unwrap().scaled(0.3);
        let gen = |seed: u64| {
            let mut d = Design::new(spec.clone());
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            generate_cells(&mut d, &mut rng);
            d
        };
        let a = gen(1);
        let b = gen(1);
        let c = gen(2);
        assert_eq!(a.netlist, b.netlist);
        assert_ne!(a.netlist, c.netlist);
    }

    #[test]
    fn nets_have_at_least_two_pins_and_valid_owners() {
        let mut d = tiny_design();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        place_uniform(&mut d, &mut rng);
        generate_nets(&mut d, &mut rng);
        assert!(d.netlist.num_nets() > d.netlist.num_cells() / 2);
        for (_, net) in d.netlist.nets() {
            assert!(net.pins.len() >= 2);
        }
        for (pid, _) in d.netlist.pins() {
            assert!(d.pin_position(pid).is_some());
        }
    }

    #[test]
    fn pin_net_back_references_are_consistent() {
        let mut d = tiny_design();
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        place_uniform(&mut d, &mut rng);
        generate_nets(&mut d, &mut rng);
        for (nid, net) in d.netlist.nets() {
            for &p in &net.pins {
                assert_eq!(d.netlist.pin(p).net, nid);
            }
        }
    }

    #[test]
    fn clock_and_ndr_nets_exist() {
        let spec = suite::spec("des_perf_1").unwrap().scaled(0.3);
        let mut d = Design::new(spec);
        let mut rng = ChaCha8Rng::seed_from_u64(d.spec.seed());
        generate_cells(&mut d, &mut rng);
        place_uniform(&mut d, &mut rng);
        generate_nets(&mut d, &mut rng);
        let clocks = d.netlist.nets().filter(|(_, n)| n.kind == NetKind::Clock).count();
        let ndrs = d.netlist.nets().filter(|(_, n)| n.ndr.is_some()).count();
        assert!(clocks >= 1, "no clock nets");
        assert!(ndrs >= 1, "no NDR nets");
    }

    #[test]
    fn most_nets_are_short() {
        let mut d = tiny_design();
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        place_uniform(&mut d, &mut rng);
        generate_nets(&mut d, &mut rng);
        // Median half-perimeter wirelength should be well below die perimeter.
        let mut hpwls: Vec<i64> = d
            .netlist
            .nets()
            .map(|(_, net)| {
                let pts: Vec<_> = net.pins.iter().map(|&p| d.pin_position(p).unwrap()).collect();
                let (mut xmin, mut xmax, mut ymin, mut ymax) =
                    (i64::MAX, i64::MIN, i64::MAX, i64::MIN);
                for p in pts {
                    xmin = xmin.min(p.x);
                    xmax = xmax.max(p.x);
                    ymin = ymin.min(p.y);
                    ymax = ymax.max(p.y);
                }
                (xmax - xmin) + (ymax - ymin)
            })
            .collect();
        hpwls.sort_unstable();
        let median = hpwls[hpwls.len() / 2];
        let die_half_perim = d.die.width() + d.die.height();
        assert!(
            median < die_half_perim / 4,
            "median HPWL {median} too long vs die {die_half_perim}"
        );
    }

    #[test]
    fn macro_pins_sit_on_boundaries() {
        let spec = suite::spec("fft_a").unwrap().scaled(0.4);
        let mut d = Design::new(spec);
        let mut rng = ChaCha8Rng::seed_from_u64(d.spec.seed());
        generate_cells(&mut d, &mut rng);
        place_uniform(&mut d, &mut rng);
        generate_nets(&mut d, &mut rng);
        let mut macro_pins = 0;
        for (_, pin) in d.netlist.pins() {
            if let PinOwner::Macro { id, position } = pin.owner {
                macro_pins += 1;
                let r = d.netlist.macro_block(id).rect;
                let on_boundary = position.x == r.lo.x
                    || position.x == r.hi.x - 1
                    || position.y == r.lo.y
                    || position.y == r.hi.y - 1;
                assert!(on_boundary, "macro pin {position} not on boundary of {r}");
            }
        }
        assert!(macro_pins >= 8 * 6, "expected boundary pins on all 6 macros");
    }
}
