//! Simplified DEF (Design Exchange Format) writer/reader for placed
//! designs: `DIEAREA`, `COMPONENTS` (with placement), `PINS`-on-macros and
//! `NETS`. The dialect is the subset needed to hand a placed design to (or
//! read one from) external tooling — the artifact the paper's flow exchanges
//! between Eh?Placer and Olympus-SoC ("produces a placed .def file").
//!
//! The writer is lossy by design (library cell *names* are synthesized from
//! dimensions); the reader accepts exactly what the writer emits, and the
//! pair round-trips every placement-relevant quantity (see tests).

use std::fmt::Write as _;

use drcshap_geom::{Point, Rect};

use crate::design::Design;
use crate::ids::NetId;
use crate::model::{Cell, Macro, Net, NetKind, Pin, PinOwner};
use crate::suite::DesignSpec;

/// Serializes a placed design to the simplified DEF dialect.
///
/// # Panics
///
/// Panics if any cell is unplaced.
pub fn write_def(design: &Design) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "VERSION 5.8 ;");
    let _ = writeln!(out, "DESIGN {} ;", design.spec.name);
    let _ = writeln!(out, "UNITS DISTANCE MICRONS 1000 ;");
    let die = design.die;
    let _ = writeln!(out, "DIEAREA ( {} {} ) ( {} {} ) ;", die.lo.x, die.lo.y, die.hi.x, die.hi.y);

    // Macros as fixed components.
    let _ =
        writeln!(out, "COMPONENTS {} ;", design.netlist.num_cells() + design.netlist.num_macros());
    for (id, m) in design.netlist.macros() {
        let _ = writeln!(
            out,
            "- macro_{} BLOCK_{}x{} + FIXED ( {} {} ) N ;",
            id.index(),
            m.rect.width(),
            m.rect.height(),
            m.rect.lo.x,
            m.rect.lo.y
        );
    }
    for (id, cell) in design.netlist.cells() {
        let origin =
            design.placement.position(id).expect("write_def requires a fully placed design");
        let mh = if cell.multi_height { "MH" } else { "SH" };
        let _ = writeln!(
            out,
            "- cell_{} {}_{}x{} + PLACED ( {} {} ) N ;",
            id.index(),
            mh,
            cell.width,
            cell.height,
            origin.x,
            origin.y
        );
    }
    let _ = writeln!(out, "END COMPONENTS");

    // Nets, with pins given as owner + offset/position.
    let _ = writeln!(out, "NETS {} ;", design.netlist.num_nets());
    for (nid, net) in design.netlist.nets() {
        let kind = match net.kind {
            NetKind::Signal => "SIGNAL",
            NetKind::Clock => "CLOCK",
        };
        let ndr = net
            .ndr
            .map(|n| {
                let r = design.netlist.ndr(n);
                format!(" + NONDEFAULTRULE W{}S{}", r.width_mult, r.spacing_mult)
            })
            .unwrap_or_default();
        let _ = write!(out, "- net_{} + USE {kind}{ndr}", nid.index());
        for &p in &net.pins {
            match design.netlist.pin(p).owner {
                PinOwner::Cell { cell, offset } => {
                    let _ = write!(out, " ( cell_{} P_{}_{} )", cell.index(), offset.x, offset.y);
                }
                PinOwner::Macro { id, position } => {
                    let _ =
                        write!(out, " ( macro_{} A_{}_{} )", id.index(), position.x, position.y);
                }
            }
        }
        let _ = writeln!(out, " ;");
    }
    let _ = writeln!(out, "END NETS");
    let _ = writeln!(out, "END DESIGN");
    out
}

/// Errors from [`read_def`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDefError {
    /// Line number (1-based) of the offending input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseDefError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DEF parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseDefError {}

/// Parses the simplified DEF dialect back into a [`Design`].
///
/// The returned design reuses `spec` for suite metadata (DEF carries no
/// group/scale information) and for its die and g-cell grid, which the
/// router bins every pin into; the DEF `DIEAREA` must therefore match
/// `spec`'s die.
///
/// # Errors
///
/// Returns [`ParseDefError`] on any malformed line, a `DIEAREA` other than
/// `spec`'s die, a component size that is not positive or whose far
/// corner overflows, an unknown component reference, or a missing section.
pub fn read_def(text: &str, spec: DesignSpec) -> Result<Design, ParseDefError> {
    let err = |line: usize, message: &str| ParseDefError { line, message: message.to_owned() };

    let mut design = Design::new(spec);
    let mut cell_ids: std::collections::HashMap<String, crate::CellId> = Default::default();
    let mut macro_ids: std::collections::HashMap<String, crate::MacroId> = Default::default();
    let mut ndr_ids: std::collections::HashMap<String, crate::NdrId> = Default::default();
    let mut saw_components = false;
    let mut saw_nets = false;

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let n = lineno + 1;
        if line.starts_with("DIEAREA") {
            let nums: Vec<i64> = line
                .split(|c: char| !c.is_ascii_digit() && c != '-')
                .filter(|t| !t.is_empty())
                .filter_map(|t| t.parse().ok())
                .collect();
            if nums.len() != 4 {
                return Err(err(n, "DIEAREA needs four coordinates"));
            }
            let die = design.die;
            if nums != [die.lo.x, die.lo.y, die.hi.x, die.hi.y] {
                return Err(err(n, "DIEAREA differs from the design spec's die"));
            }
        } else if line.starts_with("COMPONENTS") {
            saw_components = true;
        } else if line.starts_with("NETS") {
            saw_nets = true;
        } else if line.starts_with("- macro_") {
            let toks: Vec<&str> = line.split_whitespace().collect();
            // - macro_K BLOCK_WxH + FIXED ( x y ) N ;
            let name = *toks.get(1).ok_or_else(|| err(n, "truncated macro statement"))?;
            let master = *toks.get(2).ok_or_else(|| err(n, "truncated macro statement"))?;
            let dims = master
                .strip_prefix("BLOCK_")
                .ok_or_else(|| err(n, "macro without BLOCK_ master"))?;
            let (w, h) = parse_dims(dims).ok_or_else(|| err(n, "bad macro dims"))?;
            let (x, y) = parse_point(&toks, 5).ok_or_else(|| err(n, "bad macro origin"))?;
            let (x1, y1) = far_corner(x, y, w, h)
                .ok_or_else(|| err(n, "macro extends past the coordinate range"))?;
            let id =
                design.netlist.add_macro(Macro { rect: Rect::new(x, y, x1, y1), pins: Vec::new() });
            macro_ids.insert(name.to_owned(), id);
        } else if line.starts_with("- cell_") {
            let toks: Vec<&str> = line.split_whitespace().collect();
            let name = *toks.get(1).ok_or_else(|| err(n, "truncated cell statement"))?;
            let master = *toks.get(2).ok_or_else(|| err(n, "truncated cell statement"))?;
            let (multi, dims) = if let Some(d) = master.strip_prefix("MH_") {
                (true, d)
            } else if let Some(d) = master.strip_prefix("SH_") {
                (false, d)
            } else {
                return Err(err(n, "unknown cell master"));
            };
            let (w, h) = parse_dims(dims).ok_or_else(|| err(n, "bad cell dims"))?;
            let (x, y) = parse_point(&toks, 5).ok_or_else(|| err(n, "bad cell origin"))?;
            far_corner(x, y, w, h)
                .ok_or_else(|| err(n, "cell extends past the coordinate range"))?;
            let id = design.netlist.add_cell(Cell {
                width: w,
                height: h,
                multi_height: multi,
                pins: Vec::new(),
            });
            design.placement.resize(design.netlist.num_cells());
            design.placement.place(id, Point::new(x, y));
            cell_ids.insert(name.to_owned(), id);
        } else if line.starts_with("- net_") {
            let toks: Vec<&str> = line.split_whitespace().collect();
            let kind = if toks.contains(&"CLOCK") { NetKind::Clock } else { NetKind::Signal };
            let ndr = match toks.iter().position(|&t| t == "NONDEFAULTRULE") {
                None => None,
                Some(i) => {
                    let rule = *toks
                        .get(i + 1)
                        .ok_or_else(|| err(n, "NONDEFAULTRULE without a rule name"))?;
                    let (w, s) =
                        parse_ndr(rule).ok_or_else(|| err(n, "bad NONDEFAULTRULE spec"))?;
                    Some(*ndr_ids.entry(rule.to_owned()).or_insert_with(|| {
                        design.netlist.add_ndr(crate::Ndr { width_mult: w, spacing_mult: s })
                    }))
                }
            };
            // Pins: ( owner P_x_y ) groups.
            let mut pins = Vec::new();
            let mut i = 0usize;
            while i < toks.len() {
                if toks[i] == "(" {
                    let owner = toks.get(i + 1).ok_or_else(|| err(n, "truncated pin"))?;
                    let pin_tok = toks.get(i + 2).ok_or_else(|| err(n, "truncated pin"))?;
                    let (px, py) =
                        parse_pin_offset(pin_tok).ok_or_else(|| err(n, "bad pin token"))?;
                    let owner = if let Some(&cell) = cell_ids.get(*owner) {
                        PinOwner::Cell { cell, offset: Point::new(px, py) }
                    } else if let Some(&mid) = macro_ids.get(*owner) {
                        PinOwner::Macro { id: mid, position: Point::new(px, py) }
                    } else {
                        return Err(err(n, "pin references unknown component"));
                    };
                    pins.push(design.netlist.add_pin(Pin { owner, net: NetId::from_index(0) }));
                    i += 4;
                } else {
                    i += 1;
                }
            }
            if pins.len() < 2 {
                return Err(err(n, "net with fewer than two pins"));
            }
            design.netlist.add_net(Net { pins, kind, ndr });
        } else if line.starts_with("- ") {
            return Err(err(n, "unknown DEF statement"));
        } else if !line.is_empty()
            && !line.starts_with("VERSION")
            && !line.starts_with("DESIGN")
            && !line.starts_with("UNITS")
            && !line.starts_with("END")
        {
            return Err(err(n, "unknown DEF section"));
        }
    }
    if !saw_components || !saw_nets {
        return Err(err(0, "missing COMPONENTS or NETS section"));
    }
    Ok(design)
}

/// A component size `WxH`; `None` unless both are positive integers.
fn parse_dims(s: &str) -> Option<(i64, i64)> {
    let (w, h) = s.split_once('x')?;
    let (w, h): (i64, i64) = (w.parse().ok()?, h.parse().ok()?);
    (w > 0 && h > 0).then_some((w, h))
}

/// The corner opposite `(x, y)` of a `w`×`h` component; `None` when it
/// lies past the `i64` range.
fn far_corner(x: i64, y: i64, w: i64, h: i64) -> Option<(i64, i64)> {
    Some((x.checked_add(w)?, y.checked_add(h)?))
}

fn parse_point(toks: &[&str], open_paren: usize) -> Option<(i64, i64)> {
    if toks.get(open_paren)? != &"(" {
        return None;
    }
    Some((toks.get(open_paren + 1)?.parse().ok()?, toks.get(open_paren + 2)?.parse().ok()?))
}

fn parse_pin_offset(tok: &str) -> Option<(i64, i64)> {
    let rest = tok.strip_prefix("P_").or_else(|| tok.strip_prefix("A_"))?;
    let (x, y) = rest.split_once('_')?;
    Some((x.parse().ok()?, y.parse().ok()?))
}

fn parse_ndr(rule: &str) -> Option<(f64, f64)> {
    let rest = rule.strip_prefix('W')?;
    let (w, s) = rest.split_once('S')?;
    Some((w.parse().ok()?, s.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{suite, synth};
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn placed_design() -> Design {
        let spec = suite::spec("fft_a").unwrap().scaled(0.25);
        let mut d = Design::new(spec);
        let mut rng = ChaCha8Rng::seed_from_u64(d.spec.seed());
        synth::generate_cells(&mut d, &mut rng);
        // Uniform placement (the def module must not depend on the placer).
        let die = d.die;
        let ids: Vec<_> = d.netlist.cells().map(|(id, _)| id).collect();
        for id in ids {
            let c = d.netlist.cell(id);
            let x = rng.gen_range(die.lo.x..die.hi.x - c.width);
            let y = rng.gen_range(die.lo.y..die.hi.y - c.height);
            d.placement.place(id, Point::new(x, y));
        }
        synth::generate_nets(&mut d, &mut rng);
        d
    }

    #[test]
    fn def_round_trips_everything_placement_relevant() {
        let original = placed_design();
        let text = write_def(&original);
        let parsed = read_def(&text, original.spec.clone()).expect("parse back");

        assert_eq!(parsed.die, original.die);
        assert_eq!(parsed.netlist.num_cells(), original.netlist.num_cells());
        assert_eq!(parsed.netlist.num_macros(), original.netlist.num_macros());
        assert_eq!(parsed.netlist.num_nets(), original.netlist.num_nets());
        assert_eq!(parsed.netlist.num_pins(), original.netlist.num_pins());
        // Every pin lands at the same absolute position.
        for (pid, _) in original.netlist.pins() {
            assert_eq!(parsed.pin_position(pid), original.pin_position(pid));
        }
        // Net kinds and NDR demands survive.
        for (nid, net) in original.netlist.nets() {
            let pnet = parsed.netlist.net(nid);
            assert_eq!(pnet.kind, net.kind);
            let demand = |d: &Design, n: &Net| {
                n.ndr.map(|id| d.netlist.ndr(id).track_demand()).unwrap_or(1.0)
            };
            assert_eq!(demand(&parsed, pnet), demand(&original, net));
        }
    }

    #[test]
    fn def_text_looks_like_def() {
        let d = placed_design();
        let text = write_def(&d);
        assert!(text.starts_with("VERSION 5.8 ;"));
        assert!(text.contains("DIEAREA"));
        assert!(text.contains("END COMPONENTS"));
        assert!(text.contains("END NETS"));
        assert!(text.contains("+ FIXED")); // macros
        assert!(text.contains("+ PLACED"));
    }

    #[test]
    fn truncated_def_is_rejected() {
        let d = placed_design();
        let text = write_def(&d);
        let truncated: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
        let e = read_def(&truncated, d.spec.clone()).unwrap_err();
        assert!(e.message.contains("missing"));
    }

    #[test]
    fn unknown_component_reference_is_an_error() {
        let d = placed_design();
        let spec = d.spec.clone();
        let text = "COMPONENTS 0 ;\nEND COMPONENTS\nNETS 1 ;\n- net_0 + USE SIGNAL ( cell_99 P_0_0 ) ( cell_98 P_0_0 ) ;\nEND NETS\n";
        let e = read_def(text, spec).unwrap_err();
        assert!(e.message.contains("unknown component"), "{e}");
        assert!(e.line > 0);
    }

    #[test]
    fn error_display_is_informative() {
        let e = ParseDefError { line: 7, message: "bad cell dims".to_owned() };
        assert_eq!(e.to_string(), "DEF parse error at line 7: bad cell dims");
    }

    /// Wraps one body line in the minimal valid scaffolding.
    fn with_scaffold(body: &str) -> String {
        format!("COMPONENTS 1 ;\n{body}\nEND COMPONENTS\nNETS 0 ;\nEND NETS\n")
    }

    #[test]
    fn unknown_section_header_is_an_error() {
        let spec = suite::spec("fft_a").unwrap();
        let text = "COMPONENTS 0 ;\nEND COMPONENTS\nSPECIALNETS 2 ;\nNETS 0 ;\nEND NETS\n";
        let e = read_def(text, spec).unwrap_err();
        assert!(e.message.contains("unknown DEF section"), "{e}");
        assert_eq!(e.line, 3);
    }

    #[test]
    fn unknown_dash_statement_is_an_error() {
        let spec = suite::spec("fft_a").unwrap();
        let e = read_def(&with_scaffold("- via_0 VIARULE ;"), spec).unwrap_err();
        assert!(e.message.contains("unknown DEF statement"), "{e}");
    }

    #[test]
    fn truncated_statements_error_instead_of_panicking() {
        let spec = suite::spec("fft_a").unwrap();
        for body in ["- macro_0", "- cell_0", "- macro_0 BLOCK_10x10", "- cell_0 SH_4x8"] {
            let e = read_def(&with_scaffold(body), spec.clone()).unwrap_err();
            assert!(e.line > 0, "{body:?} must fail with a located error, got {e}");
        }
    }

    #[test]
    fn short_or_unknown_cell_master_is_an_error() {
        let spec = suite::spec("fft_a").unwrap();
        for body in ["- cell_0 X + PLACED ( 0 0 ) N ;", "- cell_0 ZZ_4x8 + PLACED ( 0 0 ) N ;"] {
            let e = read_def(&with_scaffold(body), spec.clone()).unwrap_err();
            assert!(e.message.contains("unknown cell master"), "{e}");
        }
    }

    #[test]
    fn dangling_ndr_is_an_error() {
        let d = placed_design();
        let spec = d.spec.clone();
        let scaffold = "COMPONENTS 2 ;\n- cell_0 SH_4x8 + PLACED ( 0 0 ) N ;\n- cell_1 SH_4x8 + PLACED ( 9 9 ) N ;\nEND COMPONENTS\nNETS 1 ;\n";
        for (net, expect) in [
            ("- net_0 + USE SIGNAL + NONDEFAULTRULE", "without a rule name"),
            (
                "- net_0 + USE SIGNAL + NONDEFAULTRULE bogus ( cell_0 P_0_0 ) ( cell_1 P_0_0 ) ;",
                "bad NONDEFAULTRULE",
            ),
        ] {
            let text = format!("{scaffold}{net}\nEND NETS\n");
            let e = read_def(&text, spec.clone()).unwrap_err();
            assert!(e.message.contains(expect), "{e}");
        }
    }
}
