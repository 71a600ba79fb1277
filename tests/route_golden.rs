//! Golden digests of global routing: one CRC32 per case over every
//! connection's net, path cells and layer-assigned segments, every
//! per-layer edge load and via load bit, the total wirelength, the overflow
//! bits, the status, and the RNG's word position after the call. The
//! constants were recorded before the router's pattern costing, layer
//! assignment and net decomposition were rewritten for speed, so they prove
//! the rewrite routes every path and loads every resource exactly as
//! before; any later change that moves one bit fails here.

use std::sync::OnceLock;

use drcshap::core::artifact::Crc32;
use drcshap::core::pipeline::PipelineConfig;
use drcshap::geom::GcellId;
use drcshap::netlist::{suite, synth, Design};
use drcshap::place::place;
use drcshap::route::{
    reroute_around, route_design, Decomposition, EdgeDir, NetOrder, RouteConfig, RouteOutcome,
    ALL_METALS, ALL_VIAS,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// 268 maze searches, 68 of them accepted.
const DES_PERF_A: u32 = 0xc0647048;
/// Macros; 39 maze searches.
const FFT_B: u32 = 0x381deaa0;
const FFT_1_STEINER: u32 = 0x95af9ff6;
const FFT_1_RANDOM_ORDER: u32 = 0xb59e8ea5;
const DES_PERF_1_DERATED: u32 = 0xebc1c302;
const DES_PERF_A_REROUTE: u32 = 0x5cc2c563;

/// A design synthesized and placed as the pipeline does, with the RNG
/// positioned where the pipeline hands it to the router.
fn placed(name: &str, scale: f64) -> (Design, ChaCha8Rng) {
    let spec = suite::spec(name).expect("design is in the suite").scaled(scale);
    let mut design = Design::new(spec);
    let mut rng = ChaCha8Rng::seed_from_u64(design.spec.seed());
    synth::generate_cells(&mut design, &mut rng);
    place(&mut design, &mut rng);
    synth::generate_nets(&mut design, &mut rng);
    (design, rng)
}

/// Routes `name` at `scale` under `config` and digests the outcome.
fn routed_digest(name: &str, scale: f64, config: &RouteConfig) -> u32 {
    let (design, mut rng) = placed(name, scale);
    let out = route_design(&design, config, &mut rng);
    digest(&out, &rng)
}

/// `des_perf_a` at 0.25 routed under the pipeline's config, and the
/// outcome's digest.
fn des_perf_a() -> &'static (Design, RouteOutcome, u32) {
    static ROUTED: OnceLock<(Design, RouteOutcome, u32)> = OnceLock::new();
    ROUTED.get_or_init(|| {
        let (design, mut rng) = placed("des_perf_a", 0.25);
        let config = PipelineConfig::default().route_for(&design.spec);
        let out = route_design(&design, &config, &mut rng);
        let d = digest(&out, &rng);
        (design, out, d)
    })
}

fn digest(out: &RouteOutcome, rng: &ChaCha8Rng) -> u32 {
    let mut crc = Crc32::new();
    let u32s =
        |crc: &mut Crc32, vals: &[u32]| vals.iter().for_each(|v| crc.update(&v.to_le_bytes()));
    for conn in &out.conns {
        crc.update(&(conn.net.index() as u64).to_le_bytes());
        crc.update(&(conn.path.len() as u64).to_le_bytes());
        for g in &conn.path {
            u32s(&mut crc, &[g.x, g.y]);
        }
        crc.update(&(conn.segments.len() as u64).to_le_bytes());
        for s in &conn.segments {
            u32s(&mut crc, &[s.layer.index() as u32, s.from.x, s.from.y, s.to.x, s.to.y]);
        }
    }
    let map = &out.congestion;
    let (nx, ny) = map.dims();
    let cells = || (0..ny).flat_map(move |y| (0..nx).map(move |x| GcellId::new(x, y)));
    for m in ALL_METALS {
        for a in cells() {
            let b = match m.direction() {
                EdgeDir::Horizontal if a.x + 1 < nx => GcellId::new(a.x + 1, a.y),
                EdgeDir::Vertical if a.y + 1 < ny => GcellId::new(a.x, a.y + 1),
                _ => continue,
            };
            crc.update(&map.edge_load(m, a, b).to_bits().to_le_bytes());
        }
    }
    for v in ALL_VIAS {
        for g in cells() {
            crc.update(&map.via_load(v, g).to_bits().to_le_bytes());
        }
    }
    crc.update(&out.total_wirelength.to_le_bytes());
    crc.update(&(out.local_nets as u64).to_le_bytes());
    crc.update(&out.edge_overflow.to_bits().to_le_bytes());
    crc.update(&(out.overflowed_edges as u64).to_le_bytes());
    crc.update(&out.via_overflow.to_bits().to_le_bytes());
    crc.update(format!("{:?}", out.status).as_bytes());
    crc.update(&rng.get_word_pos().to_le_bytes());
    crc.finalize()
}

/// The `k` interior g-cells most paths pass through, ties to the lowest
/// row-major index.
fn busiest_cells(design: &Design, out: &RouteOutcome, k: usize) -> Vec<GcellId> {
    let (nx, ny) = design.grid.dims();
    let mut traffic = vec![0usize; design.grid.num_cells()];
    for conn in &out.conns {
        for &g in &conn.path[1..conn.path.len().saturating_sub(1)] {
            traffic[design.grid.index_of(g)] += 1;
        }
    }
    let mut interior: Vec<GcellId> =
        design.grid.iter().filter(|g| g.x > 0 && g.y > 0 && g.x + 1 < nx && g.y + 1 < ny).collect();
    interior.sort_by_key(|&g| std::cmp::Reverse(traffic[design.grid.index_of(g)]));
    interior.truncate(k);
    interior
}

#[test]
fn des_perf_a_routes_to_its_bits() {
    let d = des_perf_a().2;
    assert_eq!(d, DES_PERF_A, "{d:#010x}");
}

#[test]
fn fft_b_with_macros_routes_to_its_bits() {
    let spec = suite::spec("fft_b").expect("design is in the suite").scaled(0.25);
    let d = routed_digest("fft_b", 0.25, &PipelineConfig::default().route_for(&spec));
    assert_eq!(d, FFT_B, "{d:#010x}");
}

#[test]
fn fft_1_steiner_routes_to_its_bits() {
    let config = RouteConfig { decomposition: Decomposition::Steiner, ..RouteConfig::default() };
    let d = routed_digest("fft_1", 0.25, &config);
    assert_eq!(d, FFT_1_STEINER, "{d:#010x}");
}

#[test]
fn fft_1_random_order_routes_to_its_bits() {
    let config = RouteConfig { net_order: NetOrder::Random, ..RouteConfig::default() };
    let d = routed_digest("fft_1", 0.25, &config);
    assert_eq!(d, FFT_1_RANDOM_ORDER, "{d:#010x}");
}

#[test]
fn des_perf_1_derated_routes_to_its_bits() {
    let d = routed_digest("des_perf_1", 0.2, &RouteConfig::default().derated(0.5));
    assert_eq!(d, DES_PERF_1_DERATED, "{d:#010x}");
}

#[test]
fn reroute_around_des_perf_a_keeps_its_bits() {
    let (design, prior, _) = des_perf_a();
    let targets = busiest_cells(design, prior, 3);
    let config = PipelineConfig::default().route_for(&design.spec);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let (out, rerouted) = reroute_around(design, prior, &targets, &config, &mut rng);
    assert!(rerouted > 0, "the busiest cells carry through traffic");
    let mut crc = Crc32::new();
    crc.update(&digest(&out, &rng).to_le_bytes());
    crc.update(&(rerouted as u64).to_le_bytes());
    let d = crc.finalize();
    assert_eq!(d, DES_PERF_A_REROUTE, "{d:#010x}");
}
