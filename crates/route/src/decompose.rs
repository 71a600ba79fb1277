//! Multi-pin net decomposition into two-pin connections at g-cell
//! granularity, via Prim's minimum spanning tree under Manhattan distance —
//! the standard first step of pattern-based global routing.

use drcshap_geom::{GcellId, Point};
use drcshap_netlist::{Design, Net, NetId, PinId};
use serde::{Deserialize, Serialize};

/// A two-pin connection produced by net decomposition: route from g-cell `a`
/// to g-cell `b` with `demand` routing tracks per crossed edge (NDR nets
/// demand more than 1.0).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TwoPinConn {
    /// The net this connection belongs to.
    pub net: NetId,
    /// Source g-cell.
    pub a: GcellId,
    /// Sink g-cell.
    pub b: GcellId,
    /// Track demand per crossed edge (1.0 default, more for NDR nets).
    pub demand: f64,
}

impl TwoPinConn {
    /// Manhattan length of the connection in g-cell steps.
    pub fn manhattan_len(&self) -> u32 {
        self.a.x.abs_diff(self.b.x) + self.a.y.abs_diff(self.b.y)
    }
}

/// Decomposes `net` into two-pin connections between the *distinct* g-cells
/// its pins occupy. Returns an empty vector for local nets (all pins inside
/// one g-cell) — those consume via resources but no edges.
///
/// # Panics
///
/// Panics if any pin of the net is unplaced.
pub fn decompose_net(design: &Design, net: NetId) -> Vec<TwoPinConn> {
    let n = design.netlist.net(net);
    let mut conns = Vec::new();
    MstBuffers::default().decompose(
        net,
        net_demand(design, n),
        n.pins.iter().map(|&pin| pin_cell(design, pin).clamped),
        &mut conns,
    );
    conns
}

/// Track demand per crossed edge of `net`: 1.0, or its NDR's demand.
pub(crate) fn net_demand(design: &Design, net: &Net) -> f64 {
    net.ndr.map_or(1.0, |ndr| design.netlist.ndr(ndr).track_demand())
}

/// A pin's g-cells, looked up once per route.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PinCell {
    /// The g-cell of the pin's position clamped onto the die (boundary
    /// pins, e.g. macro pins on the die edge); `None` while unplaced, or
    /// if the grid does not cover the clamped position.
    pub(crate) clamped: Option<GcellId>,
    /// The g-cell of the position itself; `None` while unplaced or off-die.
    pub(crate) on_die: Option<GcellId>,
}

/// The g-cells of `pin`.
fn pin_cell(design: &Design, pin: PinId) -> PinCell {
    let Some(pos) = design.pin_position(pin) else {
        return PinCell { clamped: None, on_die: None };
    };
    let clamped = Point::new(
        pos.x.clamp(design.die.lo.x, design.die.hi.x - 1),
        pos.y.clamp(design.die.lo.y, design.die.hi.y - 1),
    );
    let g = design.grid.cell_containing(clamped);
    PinCell {
        clamped: g,
        on_die: if clamped == pos { g } else { design.grid.cell_containing(pos) },
    }
}

/// Every pin's g-cells, indexed by pin.
pub(crate) fn pin_cells(design: &Design) -> Vec<PinCell> {
    design.netlist.pins().map(|(pin, _)| pin_cell(design, pin)).collect()
}

/// Buffers for decomposing net after net without allocating per net.
#[derive(Debug, Default)]
pub(crate) struct MstBuffers {
    gcells: Vec<GcellId>,
    in_tree: Vec<bool>,
    /// `(distance, parent)` per g-cell.
    best: Vec<(u32, usize)>,
}

impl MstBuffers {
    /// Appends to `conns` the edges of Prim's minimum spanning tree over
    /// the distinct g-cells among `cells`, in first-seen order, and returns
    /// how many it appended: none for a local net.
    ///
    /// # Panics
    ///
    /// Panics if a cell is `None` (see [`PinCell::clamped`]).
    pub(crate) fn decompose(
        &mut self,
        net: NetId,
        demand: f64,
        cells: impl IntoIterator<Item = Option<GcellId>>,
        conns: &mut Vec<TwoPinConn>,
    ) -> usize {
        let gcells = &mut self.gcells;
        gcells.clear();
        for g in cells {
            let g = g.expect("net decomposition requires pins placed inside the grid");
            if !gcells.contains(&g) {
                gcells.push(g);
            }
        }
        let n_cells = gcells.len();
        if n_cells < 2 {
            return 0;
        }

        // Prim's MST over the distinct g-cells.
        let dist = |a: GcellId, b: GcellId| a.x.abs_diff(b.x) + a.y.abs_diff(b.y);
        let (in_tree, best) = (&mut self.in_tree, &mut self.best);
        in_tree.clear();
        in_tree.resize(n_cells, false);
        best.clear();
        best.resize(n_cells, (u32::MAX, 0));
        in_tree[0] = true;
        for (i, &g) in gcells.iter().enumerate().skip(1) {
            best[i] = (dist(gcells[0], g), 0);
        }
        for _ in 1..n_cells {
            let (next, &(_, parent)) = best
                .iter()
                .enumerate()
                .filter(|(i, _)| !in_tree[*i])
                .min_by_key(|(_, (d, _))| *d)
                .expect("at least one vertex outside the tree");
            in_tree[next] = true;
            conns.push(TwoPinConn { net, a: gcells[parent], b: gcells[next], demand });
            for (i, &g) in gcells.iter().enumerate() {
                if !in_tree[i] {
                    let d = dist(gcells[next], g);
                    if d < best[i].0 {
                        best[i] = (d, next);
                    }
                }
            }
        }
        n_cells - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcshap_geom::Point;
    use drcshap_netlist::{suite, Cell, Design, Net, NetKind, Pin, PinOwner};

    /// A design with one cell per given position and a single net over them.
    fn design_with_net(positions: &[(f64, f64)]) -> (Design, NetId) {
        let spec = suite::spec("fft_1").unwrap().scaled(0.3);
        let mut d = Design::new(spec);
        let mut pins = Vec::new();
        for &(x, y) in positions {
            let c = d.netlist.add_cell(Cell {
                width: 400,
                height: 1800,
                multi_height: false,
                pins: vec![],
            });
            d.placement.resize(d.netlist.num_cells());
            d.placement.place(c, Point::from_microns(x, y));
            pins.push(d.netlist.add_pin(Pin {
                owner: PinOwner::Cell { cell: c, offset: Point::new(100, 900) },
                net: NetId::from_index(0),
            }));
        }
        let net = d.netlist.add_net(Net { pins, kind: NetKind::Signal, ndr: None });
        (d, net)
    }

    #[test]
    fn local_net_yields_no_connections() {
        let (d, net) = design_with_net(&[(10.0, 10.0), (10.5, 10.2)]);
        assert!(decompose_net(&d, net).is_empty());
    }

    #[test]
    fn two_pin_net_yields_one_connection() {
        let (d, net) = design_with_net(&[(5.0, 5.0), (60.0, 40.0)]);
        let conns = decompose_net(&d, net);
        assert_eq!(conns.len(), 1);
        assert!(conns[0].manhattan_len() > 0);
        assert_eq!(conns[0].demand, 1.0);
    }

    #[test]
    fn mst_spans_all_distinct_gcells() {
        let (d, net) =
            design_with_net(&[(5.0, 5.0), (60.0, 5.0), (5.0, 60.0), (60.0, 60.0), (30.0, 30.0)]);
        let conns = decompose_net(&d, net);
        // 5 distinct g-cells -> 4 tree edges.
        assert_eq!(conns.len(), 4);
        // Union-find connectivity check.
        let mut nodes: Vec<GcellId> = Vec::new();
        let id = |g: GcellId, nodes: &mut Vec<GcellId>| {
            nodes.iter().position(|&x| x == g).unwrap_or_else(|| {
                nodes.push(g);
                nodes.len() - 1
            })
        };
        let mut parent: Vec<usize> = (0..10).collect();
        fn find(p: &mut Vec<usize>, i: usize) -> usize {
            if p[i] != i {
                let r = find(p, p[i]);
                p[i] = r;
            }
            p[i]
        }
        for c in &conns {
            let (ia, ib) = (id(c.a, &mut nodes), id(c.b, &mut nodes));
            let (ra, rb) = (find(&mut parent, ia), find(&mut parent, ib));
            parent[ra] = rb;
        }
        let root = find(&mut parent, 0);
        for i in 0..nodes.len() {
            assert_eq!(find(&mut parent, i), root, "MST not connected");
        }
    }

    #[test]
    fn mst_prefers_short_edges() {
        // Three collinear clusters: MST must not connect the two far ends.
        let (d, net) = design_with_net(&[(5.0, 5.0), (35.0, 5.0), (70.0, 5.0)]);
        let conns = decompose_net(&d, net);
        assert_eq!(conns.len(), 2);
        let max_len = conns.iter().map(|c| c.manhattan_len()).max().unwrap();
        let direct = {
            let a = d.grid.cell_containing(Point::from_microns(5.0, 5.0)).unwrap();
            let b = d.grid.cell_containing(Point::from_microns(70.0, 5.0)).unwrap();
            a.x.abs_diff(b.x)
        };
        assert!(max_len < direct, "MST kept the longest chord");
    }

    #[test]
    fn ndr_net_demands_more_tracks() {
        let (mut d, _) = design_with_net(&[(5.0, 5.0), (60.0, 40.0)]);
        let ndr = d.netlist.add_ndr(drcshap_netlist::Ndr { width_mult: 2.0, spacing_mult: 2.0 });
        // Build a second net with NDR over two fresh cells.
        let c1 = d.netlist.add_cell(Cell {
            width: 400,
            height: 1800,
            multi_height: false,
            pins: vec![],
        });
        let c2 = d.netlist.add_cell(Cell {
            width: 400,
            height: 1800,
            multi_height: false,
            pins: vec![],
        });
        d.placement.resize(d.netlist.num_cells());
        d.placement.place(c1, Point::from_microns(10.0, 10.0));
        d.placement.place(c2, Point::from_microns(50.0, 50.0));
        let p1 = d.netlist.add_pin(Pin {
            owner: PinOwner::Cell { cell: c1, offset: Point::new(0, 0) },
            net: NetId::from_index(0),
        });
        let p2 = d.netlist.add_pin(Pin {
            owner: PinOwner::Cell { cell: c2, offset: Point::new(0, 0) },
            net: NetId::from_index(0),
        });
        let net =
            d.netlist.add_net(Net { pins: vec![p1, p2], kind: NetKind::Signal, ndr: Some(ndr) });
        let conns = decompose_net(&d, net);
        assert_eq!(conns.len(), 1);
        assert_eq!(conns[0].demand, 2.0);
    }
}
