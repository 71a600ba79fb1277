//! The metal/via layer stack: M1–M5 with alternating preferred directions
//! and the via layers V1–V4 between them (65 nm, five routing layers, as in
//! the paper's benchmark setup).

use serde::{Deserialize, Serialize};

use crate::congestion::EdgeDir;

/// A routing metal layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MetalLayer {
    /// Metal 1 — horizontal, mostly consumed by pins and cell-internal wiring.
    M1,
    /// Metal 2 — vertical.
    M2,
    /// Metal 3 — horizontal.
    M3,
    /// Metal 4 — vertical.
    M4,
    /// Metal 5 — horizontal.
    M5,
}

/// All metal layers, bottom-up.
pub const ALL_METALS: [MetalLayer; 5] =
    [MetalLayer::M1, MetalLayer::M2, MetalLayer::M3, MetalLayer::M4, MetalLayer::M5];

impl MetalLayer {
    /// Zero-based index in the stack (M1 = 0).
    pub const fn index(self) -> usize {
        match self {
            MetalLayer::M1 => 0,
            MetalLayer::M2 => 1,
            MetalLayer::M3 => 2,
            MetalLayer::M4 => 3,
            MetalLayer::M5 => 4,
        }
    }

    /// The layer at stack `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 5`.
    pub fn from_index(index: usize) -> Self {
        ALL_METALS[index]
    }

    /// Preferred wire direction: wires on a `Horizontal` layer run east-west
    /// and therefore cross *vertical* g-cell borders, and vice versa.
    pub const fn direction(self) -> EdgeDir {
        match self {
            MetalLayer::M1 | MetalLayer::M3 | MetalLayer::M5 => EdgeDir::Horizontal,
            MetalLayer::M2 | MetalLayer::M4 => EdgeDir::Vertical,
        }
    }

    /// The layer name as used in feature names (`"M4"` in `edM4_6V`).
    pub const fn name(self) -> &'static str {
        match self {
            MetalLayer::M1 => "M1",
            MetalLayer::M2 => "M2",
            MetalLayer::M3 => "M3",
            MetalLayer::M4 => "M4",
            MetalLayer::M5 => "M5",
        }
    }
}

impl std::fmt::Display for MetalLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A via (cut) layer connecting two adjacent metal layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ViaLayer {
    /// V1 connects M1–M2.
    V1,
    /// V2 connects M2–M3.
    V2,
    /// V3 connects M3–M4.
    V3,
    /// V4 connects M4–M5.
    V4,
}

/// All via layers, bottom-up.
pub const ALL_VIAS: [ViaLayer; 4] = [ViaLayer::V1, ViaLayer::V2, ViaLayer::V3, ViaLayer::V4];

impl ViaLayer {
    /// Zero-based index in the stack (V1 = 0).
    pub const fn index(self) -> usize {
        match self {
            ViaLayer::V1 => 0,
            ViaLayer::V2 => 1,
            ViaLayer::V3 => 2,
            ViaLayer::V4 => 3,
        }
    }

    /// The via layer at stack `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 4`.
    pub fn from_index(index: usize) -> Self {
        ALL_VIAS[index]
    }

    /// The metal layer directly below this via layer.
    pub const fn lower_metal(self) -> MetalLayer {
        match self {
            ViaLayer::V1 => MetalLayer::M1,
            ViaLayer::V2 => MetalLayer::M2,
            ViaLayer::V3 => MetalLayer::M3,
            ViaLayer::V4 => MetalLayer::M4,
        }
    }

    /// The metal layer directly above this via layer.
    pub const fn upper_metal(self) -> MetalLayer {
        match self {
            ViaLayer::V1 => MetalLayer::M2,
            ViaLayer::V2 => MetalLayer::M3,
            ViaLayer::V3 => MetalLayer::M4,
            ViaLayer::V4 => MetalLayer::M5,
        }
    }

    /// The via layer name as used in feature names (`"V2"` in `vlV2_E`).
    pub const fn name(self) -> &'static str {
        match self {
            ViaLayer::V1 => "V1",
            ViaLayer::V2 => "V2",
            ViaLayer::V3 => "V3",
            ViaLayer::V4 => "V4",
        }
    }

    /// The via layers crossed when moving between metal layers `a` and `b`,
    /// bottom-up (none when `a == b`).
    pub fn between(a: MetalLayer, b: MetalLayer) -> impl Iterator<Item = ViaLayer> {
        let (lo, hi) = if a.index() <= b.index() { (a, b) } else { (b, a) };
        ALL_VIAS[lo.index()..hi.index()].iter().copied()
    }
}

impl std::fmt::Display for ViaLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directions_alternate() {
        assert_eq!(MetalLayer::M1.direction(), EdgeDir::Horizontal);
        assert_eq!(MetalLayer::M2.direction(), EdgeDir::Vertical);
        assert_eq!(MetalLayer::M5.direction(), EdgeDir::Horizontal);
    }

    #[test]
    fn index_round_trip() {
        for (i, m) in ALL_METALS.iter().enumerate() {
            assert_eq!(m.index(), i);
            assert_eq!(MetalLayer::from_index(i), *m);
        }
        for (i, v) in ALL_VIAS.iter().enumerate() {
            assert_eq!(v.index(), i);
            assert_eq!(ViaLayer::from_index(i), *v);
        }
    }

    #[test]
    fn via_sandwich_is_consistent() {
        for v in ALL_VIAS {
            assert_eq!(v.lower_metal().index() + 1, v.upper_metal().index());
        }
    }

    #[test]
    fn vias_between_layers() {
        let between = |a, b| ViaLayer::between(a, b).collect::<Vec<_>>();
        assert!(between(MetalLayer::M3, MetalLayer::M3).is_empty());
        assert_eq!(between(MetalLayer::M1, MetalLayer::M3), [ViaLayer::V1, ViaLayer::V2]);
        // Order-insensitive.
        assert_eq!(
            between(MetalLayer::M5, MetalLayer::M2),
            [ViaLayer::V2, ViaLayer::V3, ViaLayer::V4]
        );
    }

    #[test]
    fn names_match_paper_convention() {
        assert_eq!(MetalLayer::M4.to_string(), "M4");
        assert_eq!(ViaLayer::V2.to_string(), "V2");
    }
}
