//! Degenerate-input and boundary robustness across the whole stack: clean
//! designs, minimum-size grids, DEF round-trips of pipeline output, bad
//! DEF input rejected at its line, and macro-blocked g-cells.

use drcshap::core::pipeline::{build_design, PipelineConfig};
use drcshap::forest::RandomForestTrainer;
use drcshap::ml::{Classifier, Trainer};
use drcshap::netlist::{read_def, suite, write_def};

#[test]
fn drc_clean_design_flows_end_to_end() {
    // des_perf_b has zero hotspots; every stage must still work, and a
    // model trained on it degenerates gracefully (constant low scores).
    let config = PipelineConfig { scale: 0.2, ..Default::default() };
    let bundle = build_design(&suite::spec("des_perf_b").unwrap(), &config);
    assert_eq!(bundle.report.num_hotspots(), 0);
    assert!(bundle.report.violations.is_empty());
    let data = bundle.to_dataset();
    assert_eq!(data.num_positives(), 0);
    let rf = RandomForestTrainer { n_trees: 5, ..Default::default() }.fit(&data, 1);
    for i in (0..data.n_samples()).step_by(50) {
        assert_eq!(rf.score(data.row(i)), 0.0);
    }
}

#[test]
fn minimum_grid_clamp_still_extracts_windows() {
    // An extreme downscale hits the 9x9 grid floor; corner windows are
    // mostly blank padding but extraction must stay well-formed.
    let spec = suite::spec("fft_1").unwrap().scaled(0.05);
    assert_eq!(spec.grid_dims(), (9, 9));
    let config = PipelineConfig { scale: 1.0, ..Default::default() };
    // The spec itself is already scaled; pass scale 1.0 so the pipeline
    // does not scale twice... build_design rescales by config.scale, so use
    // the tiny scale directly instead:
    let config = PipelineConfig { scale: 0.05, ..config };
    let bundle = build_design(&suite::spec("fft_1").unwrap(), &config);
    assert_eq!(bundle.design.grid.dims(), (9, 9));
    assert_eq!(bundle.features.n_samples(), 81);
    for i in 0..81 {
        assert!(bundle.features.row(i).iter().all(|v| v.is_finite()));
    }
}

#[test]
fn pipeline_design_round_trips_through_def() {
    let config = PipelineConfig { scale: 0.2, ..Default::default() };
    let bundle = build_design(&suite::spec("bridge32_a").unwrap(), &config);
    let text = write_def(&bundle.design);
    let parsed = read_def(&text, bundle.design.spec.clone()).expect("parse DEF");
    assert_eq!(parsed.netlist.num_cells(), bundle.design.netlist.num_cells());
    assert_eq!(parsed.netlist.num_nets(), bundle.design.netlist.num_nets());
    // Spot-check pin positions across the whole id range.
    let n_pins = bundle.design.netlist.num_pins();
    for k in [0usize, n_pins / 3, n_pins - 1] {
        let pid = drcshap::netlist::PinId::from_index(k);
        assert_eq!(parsed.pin_position(pid), bundle.design.pin_position(pid));
    }
}

#[test]
fn def_whose_die_differs_from_the_spec_is_rejected_at_its_line() {
    let config = PipelineConfig { scale: 0.1, ..Default::default() };
    let bundle = build_design(&suite::spec("fft_1").unwrap(), &config);
    let die = bundle.design.die;
    let text = write_def(&bundle.design);
    let area = format!("DIEAREA ( {} {} ) ( {} {} ) ;", die.lo.x, die.lo.y, die.hi.x, die.hi.y);
    let doubled = format!(
        "DIEAREA ( {} {} ) ( {} {} ) ;",
        die.lo.x,
        die.lo.y,
        die.lo.x + 2 * die.width(),
        die.lo.y + 2 * die.height()
    );
    let line = text.lines().position(|l| l == area).expect("DIEAREA line") + 1;
    let e = read_def(&text.replace(&area, &doubled), bundle.design.spec.clone()).unwrap_err();
    assert_eq!(e.line, line, "{e}");
    assert!(e.message.contains("DIEAREA"), "{e}");
}

#[test]
fn def_with_a_bad_component_size_is_rejected_at_its_line() {
    let config = PipelineConfig { scale: 0.1, ..Default::default() };
    let bundle = build_design(&suite::spec("fft_1").unwrap(), &config);
    let text = write_def(&bundle.design);
    let lines: Vec<&str> = text.lines().collect();
    let at = lines.iter().position(|l| l.starts_with("- cell_")).expect("a cell line");
    let toks: Vec<&str> = lines[at].split_whitespace().collect();
    let (name, kind) = (toks[1], &toks[2][..3]);
    let max = i64::MAX;
    for (component, expect) in [
        // Sizes that are not positive.
        ("- macro_99 BLOCK_-5x3 + FIXED ( 0 0 ) N ;".to_owned(), "bad macro dims"),
        (format!("- {name} {kind}4x-8 + PLACED ( 0 0 ) N ;"), "bad cell dims"),
        (format!("- {name} {kind}0x8 + PLACED ( 0 0 ) N ;"), "bad cell dims"),
        // A far corner past the coordinate range.
        (format!("- macro_99 BLOCK_5x3 + FIXED ( {max} 0 ) N ;"), "coordinate range"),
        (format!("- {name} {kind}4x8 + PLACED ( 0 {max} ) N ;"), "coordinate range"),
    ] {
        let mut edited = lines.clone();
        edited[at] = &component;
        let e = read_def(&edited.join("\n"), bundle.design.spec.clone()).unwrap_err();
        assert_eq!(e.line, at + 1, "{component}: {e}");
        assert!(e.message.contains(expect), "{component}: {e}");
    }
}

#[test]
fn macro_heavy_design_keeps_blocked_cells_unlabeled_mostly() {
    // Cells fully under macros have no routing resources; the oracle should
    // rarely, if ever, mark them (only 'surprise' draws can).
    let config = PipelineConfig { scale: 0.3, ..Default::default() };
    let bundle = build_design(&suite::spec("fft_a").unwrap(), &config);
    let grid = &bundle.design.grid;
    let mut blocked_hot = 0usize;
    let mut blocked = 0usize;
    for (i, g) in grid.iter().enumerate() {
        let rect = grid.cell_rect(g);
        if bundle.design.blockage_fraction(&rect) > 0.95 {
            blocked += 1;
            blocked_hot += bundle.report.labels[i] as usize;
        }
    }
    assert!(blocked > 0, "fft_a should have fully blocked cells");
    assert!(
        blocked_hot * 10 <= blocked.max(10),
        "{blocked_hot}/{blocked} fully-blocked cells labelled hot"
    );
}
