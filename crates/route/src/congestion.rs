//! The congestion map: per-metal-layer edge capacity/load and per-via-layer
//! cell capacity/load — the source of all 288 congestion features.

use drcshap_geom::{GcellId, Rect};
use drcshap_netlist::Design;
use serde::{Deserialize, Serialize};

use crate::config::RouteConfig;
use crate::layers::{MetalLayer, ViaLayer, ALL_METALS, ALL_VIAS};

/// Traversal direction of a routing edge: a `Horizontal` edge is crossed by
/// east-west wires (it is the border between horizontally adjacent g-cells).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeDir {
    /// Crossed by wires running east-west.
    Horizontal,
    /// Crossed by wires running north-south.
    Vertical,
}

/// Capacity and load bookkeeping for every routing resource of a design:
/// one value per (metal layer, g-cell border edge) and per (via layer,
/// g-cell).
///
/// The paper's congestion features are direct reads of this structure: the
/// *capacity* `C`, the *load* `L`, and the *resource margin* `C − L` (which
/// is negative on overflowed resources, e.g. `edM5_7H = -4` in Fig. 4(a)).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CongestionMap {
    nx: u32,
    ny: u32,
    /// Per metal layer: capacities on that layer's preferred-direction edges.
    edge_cap: Vec<Vec<f64>>,
    /// Per metal layer: loads, same indexing as `edge_cap`.
    edge_load: Vec<Vec<f64>>,
    /// Per via layer: capacities per g-cell (row-major).
    via_cap: Vec<Vec<f64>>,
    /// Per via layer: loads per g-cell.
    via_load: Vec<Vec<f64>>,
}

impl CongestionMap {
    /// An all-zero map for an `nx` × `ny` grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(nx: u32, ny: u32) -> Self {
        assert!(nx > 0 && ny > 0, "empty grid");
        let cells = (nx * ny) as usize;
        let edges = |dir: EdgeDir| match dir {
            EdgeDir::Horizontal => ((nx - 1) * ny) as usize,
            EdgeDir::Vertical => (nx * (ny - 1)) as usize,
        };
        Self {
            nx,
            ny,
            edge_cap: ALL_METALS.iter().map(|m| vec![0.0; edges(m.direction())]).collect(),
            edge_load: ALL_METALS.iter().map(|m| vec![0.0; edges(m.direction())]).collect(),
            via_cap: ALL_VIAS.iter().map(|_| vec![0.0; cells]).collect(),
            via_load: ALL_VIAS.iter().map(|_| vec![0.0; cells]).collect(),
        }
    }

    /// Builds the map for `design` with capacities from `config`, derated
    /// under blockages: macros block all layers, explicit routing blockages
    /// block M1–M3.
    pub fn with_capacities(design: &Design, config: &RouteConfig) -> Self {
        let grid = &design.grid;
        let (nx, ny) = grid.dims();
        let mut map = Self::zeros(nx, ny);
        let macros: Vec<Rect> = design.netlist.macros().map(|(_, m)| m.rect).collect();
        let strips: Vec<Rect> = design.routing_blockages.clone();

        let tracks = grid.gcell_size() as f64 / config.wire_pitch_dbu as f64;
        for m in ALL_METALS {
            let usable = config.layer_usable_fraction[m.index()];
            let base = tracks * usable * config.capacity_scale;
            let (dx, dy) = match m.direction() {
                EdgeDir::Horizontal => (1, 0),
                EdgeDir::Vertical => (0, 1),
            };
            for a in grid.iter() {
                let Some(b) = grid.neighbor(a, dx, dy) else { continue };
                let border = border_rect(grid, a, b);
                let blocked_m = blocked_fraction(&border, &macros);
                let blocked_s =
                    if m.index() <= 2 { blocked_fraction(&border, &strips) } else { 0.0 };
                let blocked = (blocked_m + blocked_s).min(1.0);
                let idx = map
                    .edge_index(m.direction(), a, b)
                    .expect("neighbor edges are always indexable");
                map.edge_cap[m.index()][idx] = (base * (1.0 - blocked)).floor().max(0.0);
            }
        }

        // Lower via layers have far more cut capacity (V1 serves pin access
        // for every cell); upper ones are scarcer.
        let via_layer_scale = [1.6, 0.8, 0.6, 0.45];
        for v in ALL_VIAS {
            let vias_per_cell =
                tracks * tracks / 8.0 * via_layer_scale[v.index()] * config.capacity_scale;
            for g in grid.iter() {
                let rect = grid.cell_rect(g);
                let blocked = blocked_fraction_area(&rect, &macros);
                map.via_cap[v.index()][grid.index_of(g)] =
                    (vias_per_cell * (1.0 - blocked)).floor().max(0.0);
            }
        }
        map
    }

    /// Grid dimensions `(nx, ny)`.
    pub fn dims(&self) -> (u32, u32) {
        (self.nx, self.ny)
    }

    /// Index of the edge between adjacent cells `a` and `b` for direction
    /// `dir`, `None` if the cells are not adjacent in that direction.
    pub fn edge_index(&self, dir: EdgeDir, a: GcellId, b: GcellId) -> Option<usize> {
        let (lo, hi) = if (a.x, a.y) <= (b.x, b.y) { (a, b) } else { (b, a) };
        match dir {
            EdgeDir::Horizontal => (lo.y == hi.y && lo.x + 1 == hi.x && hi.x < self.nx)
                .then(|| lo.y as usize * (self.nx - 1) as usize + lo.x as usize),
            EdgeDir::Vertical => (lo.x == hi.x && lo.y + 1 == hi.y && hi.y < self.ny)
                .then(|| lo.y as usize * self.nx as usize + lo.x as usize),
        }
    }

    /// Capacity and load of layer `m` across the border between `a` and
    /// `b`, read through one edge lookup; both zero when the border is not
    /// in `m`'s preferred direction (no wires of that layer cross it).
    #[inline]
    pub fn edge_capacity_load(&self, m: MetalLayer, a: GcellId, b: GcellId) -> (f64, f64) {
        self.edge_index(m.direction(), a, b)
            .map_or((0.0, 0.0), |i| (self.edge_cap[m.index()][i], self.edge_load[m.index()][i]))
    }

    /// Capacity of layer `m` across the border between `a` and `b` (see
    /// [`CongestionMap::edge_capacity_load`] for direction handling).
    pub fn edge_capacity(&self, m: MetalLayer, a: GcellId, b: GcellId) -> f64 {
        self.edge_capacity_load(m, a, b).0
    }

    /// Load of layer `m` across the border between `a` and `b` (see
    /// [`CongestionMap::edge_capacity_load`] for direction handling).
    pub fn edge_load(&self, m: MetalLayer, a: GcellId, b: GcellId) -> f64 {
        self.edge_capacity_load(m, a, b).1
    }

    /// Resource margin `capacity − load` for layer `m` on the border between
    /// `a` and `b` — negative when overflowed.
    pub fn edge_margin(&self, m: MetalLayer, a: GcellId, b: GcellId) -> f64 {
        let (capacity, load) = self.edge_capacity_load(m, a, b);
        capacity - load
    }

    /// Adds `demand` wire tracks of layer `m` across the border `a`–`b`.
    ///
    /// # Panics
    ///
    /// Panics if the border is not in `m`'s preferred direction.
    pub fn add_edge_load(&mut self, m: MetalLayer, a: GcellId, b: GcellId, demand: f64) {
        let i = self
            .edge_index(m.direction(), a, b)
            .unwrap_or_else(|| panic!("{a}-{b} is not a {:?} edge", m.direction()));
        self.edge_load[m.index()][i] += demand;
    }

    /// Via capacity of layer `v` inside g-cell `g`.
    pub fn via_capacity(&self, v: ViaLayer, g: GcellId) -> f64 {
        self.via_cap[v.index()][self.cell_index(g)]
    }

    /// Via load of layer `v` inside g-cell `g`.
    pub fn via_load(&self, v: ViaLayer, g: GcellId) -> f64 {
        self.via_load[v.index()][self.cell_index(g)]
    }

    /// Via margin `capacity − load` of layer `v` inside g-cell `g`.
    pub fn via_margin(&self, v: ViaLayer, g: GcellId) -> f64 {
        self.via_capacity(v, g) - self.via_load(v, g)
    }

    /// Adds `demand` vias of layer `v` inside g-cell `g`.
    pub fn add_via_load(&mut self, v: ViaLayer, g: GcellId, demand: f64) {
        let i = self.cell_index(g);
        self.via_load[v.index()][i] += demand;
    }

    /// Summed capacity over all layers of direction `dir` on the border
    /// `a`–`b` (the 2D capacity the router's planar phase works against).
    pub fn dir_capacity(&self, dir: EdgeDir, a: GcellId, b: GcellId) -> f64 {
        ALL_METALS
            .iter()
            .filter(|m| m.direction() == dir)
            .map(|&m| self.edge_capacity(m, a, b))
            .sum()
    }

    /// Total edge overflow `Σ max(0, load − capacity)` over all layers/edges.
    pub fn total_edge_overflow(&self) -> f64 {
        self.edge_cap
            .iter()
            .zip(&self.edge_load)
            .flat_map(|(caps, loads)| caps.iter().zip(loads))
            .map(|(&c, &l)| (l - c).max(0.0))
            .sum()
    }

    /// Number of overflowed edges across all layers.
    pub fn overflowed_edges(&self) -> usize {
        self.edge_cap
            .iter()
            .zip(&self.edge_load)
            .flat_map(|(caps, loads)| caps.iter().zip(loads))
            .filter(|&(&c, &l)| l > c)
            .count()
    }

    /// Total via overflow `Σ max(0, load − capacity)` over all via layers.
    pub fn total_via_overflow(&self) -> f64 {
        self.via_cap
            .iter()
            .zip(&self.via_load)
            .flat_map(|(caps, loads)| caps.iter().zip(loads))
            .map(|(&c, &l)| (l - c).max(0.0))
            .sum()
    }

    fn cell_index(&self, g: GcellId) -> usize {
        assert!(g.x < self.nx && g.y < self.ny, "{g} outside congestion map");
        g.y as usize * self.nx as usize + g.x as usize
    }
}

/// The shared border of two adjacent g-cells as a thin rectangle (1 DBU
/// thick), used for blockage overlap accounting.
fn border_rect(grid: &drcshap_geom::GcellGrid, a: GcellId, b: GcellId) -> Rect {
    let ra = grid.cell_rect(a);
    let rb = grid.cell_rect(b);
    if a.y == b.y {
        // Vertical border at x = shared boundary.
        let x = ra.hi.x.min(rb.hi.x).max(ra.lo.x.max(rb.lo.x));
        Rect::new(x - 1, ra.lo.y, x + 1, ra.hi.y)
    } else {
        let y = ra.hi.y.min(rb.hi.y).max(ra.lo.y.max(rb.lo.y));
        Rect::new(ra.lo.x, y - 1, ra.hi.x, y + 1)
    }
}

/// Fraction of the border length covered by any of `blockages`.
fn blocked_fraction(border: &Rect, blockages: &[Rect]) -> f64 {
    if blockages.is_empty() || border.area() == 0 {
        return 0.0;
    }
    let covered: i64 = blockages.iter().map(|b| b.overlap_area(border)).sum();
    (covered as f64 / border.area() as f64).min(1.0)
}

/// Fraction of a cell's area covered by any of `blockages`.
fn blocked_fraction_area(rect: &Rect, blockages: &[Rect]) -> f64 {
    blocked_fraction(rect, blockages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcshap_geom::GcellGrid;
    use drcshap_netlist::{suite, Design, Macro};

    fn small_map() -> CongestionMap {
        CongestionMap::zeros(4, 3)
    }

    #[test]
    fn edge_counts_per_direction() {
        let m = small_map();
        // Horizontal edges: (nx-1)*ny = 9; vertical: nx*(ny-1) = 8.
        assert_eq!(m.edge_cap[MetalLayer::M1.index()].len(), 9);
        assert_eq!(m.edge_cap[MetalLayer::M2.index()].len(), 8);
    }

    #[test]
    fn edge_index_requires_adjacency_in_direction() {
        let m = small_map();
        let a = GcellId::new(1, 1);
        assert!(m.edge_index(EdgeDir::Horizontal, a, GcellId::new(2, 1)).is_some());
        // Symmetric in argument order.
        assert_eq!(
            m.edge_index(EdgeDir::Horizontal, a, GcellId::new(2, 1)),
            m.edge_index(EdgeDir::Horizontal, GcellId::new(2, 1), a)
        );
        assert!(m.edge_index(EdgeDir::Horizontal, a, GcellId::new(1, 2)).is_none());
        assert!(m.edge_index(EdgeDir::Vertical, a, GcellId::new(1, 2)).is_some());
        assert!(m.edge_index(EdgeDir::Vertical, a, GcellId::new(3, 1)).is_none());
    }

    #[test]
    fn loads_accumulate_and_margin_goes_negative() {
        let mut m = small_map();
        let (a, b) = (GcellId::new(0, 0), GcellId::new(1, 0));
        m.edge_cap[MetalLayer::M3.index()][0] = 2.0;
        m.add_edge_load(MetalLayer::M3, a, b, 1.0);
        m.add_edge_load(MetalLayer::M3, a, b, 2.5);
        assert_eq!(m.edge_load(MetalLayer::M3, a, b), 3.5);
        assert_eq!(m.edge_margin(MetalLayer::M3, a, b), -1.5);
        assert_eq!(m.total_edge_overflow(), 1.5);
        assert_eq!(m.overflowed_edges(), 1);
    }

    #[test]
    fn wrong_direction_edge_reads_zero() {
        let mut m = small_map();
        let (a, b) = (GcellId::new(0, 0), GcellId::new(0, 1));
        m.add_via_load(ViaLayer::V1, a, 3.0);
        // M1 is horizontal; a-b is a vertical-direction border.
        assert_eq!(m.edge_capacity(MetalLayer::M1, a, b), 0.0);
        assert_eq!(m.edge_load(MetalLayer::M1, a, b), 0.0);
    }

    #[test]
    fn via_accounting() {
        let mut m = small_map();
        let g = GcellId::new(2, 1);
        let idx = m.cell_index(g);
        m.via_cap[ViaLayer::V2.index()][idx] = 10.0;
        m.add_via_load(ViaLayer::V2, g, 12.0);
        assert_eq!(m.via_margin(ViaLayer::V2, g), -2.0);
        assert_eq!(m.total_via_overflow(), 2.0);
    }

    #[test]
    fn dir_capacity_sums_matching_layers() {
        let grid = GcellGrid::with_dims(Rect::from_microns(0.0, 0.0, 40.0, 30.0), 4, 3);
        let spec = suite::spec("fft_1").unwrap();
        let design = Design::new(spec);
        let _ = design;
        let mut m = CongestionMap::zeros(4, 3);
        let (a, b) = (GcellId::new(0, 0), GcellId::new(1, 0));
        for layer in [MetalLayer::M1, MetalLayer::M3, MetalLayer::M5] {
            let i = m.edge_index(EdgeDir::Horizontal, a, b).unwrap();
            m.edge_cap[layer.index()][i] = 5.0;
        }
        assert_eq!(m.dir_capacity(EdgeDir::Horizontal, a, b), 15.0);
        assert_eq!(m.dir_capacity(EdgeDir::Vertical, a, b), 0.0);
        let _ = grid;
    }

    #[test]
    fn capacities_derate_under_macros() {
        let spec = suite::spec("fft_1").unwrap().scaled(0.3);
        let mut design = Design::new(spec);
        // Drop a macro over the middle third of the die.
        let die = design.die;
        let w = die.width();
        let rect = Rect::new(w / 3, die.lo.y, 2 * w / 3, die.hi.y);
        design.netlist.add_macro(Macro { rect, pins: vec![] });
        let map = CongestionMap::with_capacities(&design, &RouteConfig::default());
        let (nx, ny) = design.grid.dims();
        let mid = GcellId::new(nx / 2, ny / 2);
        let east = GcellId::new(nx / 2 + 1, ny / 2);
        let corner = GcellId::new(0, 0);
        let corner_e = GcellId::new(1, 0);
        assert_eq!(map.edge_capacity(MetalLayer::M3, mid, east), 0.0);
        assert!(map.edge_capacity(MetalLayer::M3, corner, corner_e) > 0.0);
        assert_eq!(map.via_capacity(ViaLayer::V2, mid), 0.0);
        assert!(map.via_capacity(ViaLayer::V2, corner) > 0.0);
    }

    #[test]
    fn m1_has_less_capacity_than_m5() {
        let spec = suite::spec("fft_1").unwrap().scaled(0.3);
        let design = Design::new(spec);
        let map = CongestionMap::with_capacities(&design, &RouteConfig::default());
        let (a, b) = (GcellId::new(0, 0), GcellId::new(1, 0));
        assert!(map.edge_capacity(MetalLayer::M1, a, b) < map.edge_capacity(MetalLayer::M5, a, b));
    }
}
