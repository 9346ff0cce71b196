//! Per-rank **level descriptors**: how the models charge a format.
//!
//! The paper treats a compression format as a per-rank choice
//! (uncompressed, bitmask/ZVC, run-length, coordinate) applied dimension
//! by dimension (§III, Fig. 3). [`MatrixFormat`] / [`TensorFormat`] name
//! the formats SAGE searches over and MINT converts between. A
//! [`FormatDescriptor`] spells each of those presets as an ordered list
//! of per-rank [`Level`]s plus a [`ValuesLayout`], following the level
//! abstraction of *Format Abstraction for Sparse Tensor Algebra
//! Compilers* (Chou et al.):
//!
//! | preset | rank order | levels | values |
//! |---|---|---|---|
//! | Dense  | row-major | `Uncompressed · Uncompressed` | contiguous |
//! | COO    | row-major | `Singleton · Singleton` | contiguous |
//! | CSR    | row-major | `Uncompressed · CompressedOffsets` | contiguous |
//! | CSC    | col-major | `Uncompressed · CompressedOffsets` | contiguous |
//! | BSR    | row-major | `Blocked(br,bc) · CompressedOffsets` | dense blocks |
//! | DIA    | diagonal  | `Singleton · Uncompressed` | padded fibers |
//! | ELL    | row-major | `Uncompressed · Singleton` | padded fibers |
//! | RLC    | row-major (linearized) | `RunLength(r)` | contiguous |
//! | ZVC    | row-major (linearized) | `Bitmask` | contiguous |
//!
//! (and analogously for the six tensor formats; a single level over a
//! multi-rank operand means the ranks are linearized into one flat
//! stream first, which is exactly how the paper's RLC/ZVC work.)
//!
//! Every enum variant round-trips losslessly through its descriptor
//! ([`FormatDescriptor::to_matrix_format`] /
//! [`FormatDescriptor::to_tensor_format`]). The descriptors are what the
//! models charge: the generic level size model
//! ([`crate::size_model::descriptor_matrix_bits`]), MINT's descriptor
//! cost model and the stable
//! [`fingerprint`](FormatDescriptor::fingerprint) that plan caches key
//! on all read the levels, so no model special-cases a format.

use crate::formats::{MatrixFormat, TensorFormat};

/// How one rank of the operand is represented — the per-dimension
/// vocabulary of the paper's §III taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// Every position along this rank is materialized; coordinates are
    /// implicit in the layout (the paper's "uncompressed dimension").
    Uncompressed,
    /// Only occupied positions are stored, with explicit coordinates and
    /// an offsets (pointer) array delimiting each parent fiber — the
    /// CSR/CSC/CSF building block.
    CompressedOffsets,
    /// A presence bitmask over the rank's positions; values are packed in
    /// mask order (the paper's ZVC building block).
    Bitmask,
    /// Zero runs between stored entries, encoded in a fixed-width run
    /// field (the paper's RLC building block).
    RunLength {
        /// Bits in the zero-run field.
        run_bits: u32,
    },
    /// One explicit coordinate stored per element (or per stored fiber),
    /// with no grouping structure of its own — the COO building block.
    Singleton,
    /// The rank is split into `br x bc` dense blocks; only occupied
    /// blocks are stored (BSR; for 3-D tensors the block is the cubic
    /// `br`-edge HiCOO block and `br == bc` is required).
    Blocked {
        /// Block rows (block edge for cubic tensor blocks).
        br: usize,
        /// Block columns.
        bc: usize,
    },
}

impl Level {
    /// Does this level store explicit coordinate metadata (as opposed to
    /// positions implicit in the stream order)?
    pub const fn stores_coordinates(&self) -> bool {
        matches!(
            self,
            Level::CompressedOffsets | Level::Singleton | Level::Blocked { .. }
        )
    }

    /// Short notation for [`std::fmt::Display`].
    fn token(&self) -> String {
        match self {
            Level::Uncompressed => "U".to_string(),
            Level::CompressedOffsets => "C".to_string(),
            Level::Bitmask => "B".to_string(),
            Level::RunLength { run_bits } => format!("R{run_bits}"),
            Level::Singleton => "S".to_string(),
            Level::Blocked { br, bc } => format!("K{br}x{bc}"),
        }
    }
}

/// The order ranks are traversed in (which dimension is the outer rank).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RankOrder {
    /// Rows (x for tensors) outermost — the canonical streaming order.
    #[default]
    RowMajor,
    /// Columns outermost (CSC territory; decoding into the row-major
    /// compute stream engages MINT's sorter).
    ColMajor,
    /// Diagonals outermost (DIA territory): the outer rank enumerates
    /// the `rows + cols` signed diagonal offsets.
    Diagonal,
}

/// How the stored values relate to the stored structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ValuesLayout {
    /// One value slot per stored nonzero (no padding).
    #[default]
    Contiguous,
    /// Every stored fiber is padded to the full (or uniform) inner
    /// extent, so explicit zero slots are stored (DIA strips, ELL rows).
    PaddedFibers,
    /// Values are stored as dense `br x bc` blocks, padding included
    /// (BSR).
    DenseBlocks,
}

/// A compression format composed from per-rank levels — the canonical
/// format identity of the workspace (see the module docs for the preset
/// table and the enum round-trip contract).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FormatDescriptor {
    /// Rank traversal order.
    pub order: RankOrder,
    /// One level per (possibly linearized) rank, outermost first. A
    /// single level over a 2-D/3-D operand means the ranks are
    /// linearized into one flat stream.
    pub levels: Vec<Level>,
    /// Value storage layout.
    pub values: ValuesLayout,
}

impl FormatDescriptor {
    /// Compose a descriptor from parts (no validation).
    pub fn new(order: RankOrder, levels: Vec<Level>, values: ValuesLayout) -> Self {
        FormatDescriptor {
            order,
            levels,
            values,
        }
    }

    // ---- matrix presets -------------------------------------------------

    /// Uncompressed row-major (`Dense`).
    pub fn dense() -> Self {
        Self::new(
            RankOrder::RowMajor,
            vec![Level::Uncompressed, Level::Uncompressed],
            ValuesLayout::Contiguous,
        )
    }

    /// Coordinate list (`COO`).
    pub fn coo() -> Self {
        Self::new(
            RankOrder::RowMajor,
            vec![Level::Singleton, Level::Singleton],
            ValuesLayout::Contiguous,
        )
    }

    /// Compressed sparse row (`CSR`).
    pub fn csr() -> Self {
        Self::new(
            RankOrder::RowMajor,
            vec![Level::Uncompressed, Level::CompressedOffsets],
            ValuesLayout::Contiguous,
        )
    }

    /// Compressed sparse column (`CSC`).
    pub fn csc() -> Self {
        Self::new(
            RankOrder::ColMajor,
            vec![Level::Uncompressed, Level::CompressedOffsets],
            ValuesLayout::Contiguous,
        )
    }

    /// Block compressed row with `br x bc` dense blocks (`BSR`).
    pub fn bsr(br: usize, bc: usize) -> Self {
        Self::new(
            RankOrder::RowMajor,
            vec![Level::Blocked { br, bc }, Level::CompressedOffsets],
            ValuesLayout::DenseBlocks,
        )
    }

    /// Diagonal storage (`DIA`).
    pub fn dia() -> Self {
        Self::new(
            RankOrder::Diagonal,
            vec![Level::Singleton, Level::Uncompressed],
            ValuesLayout::PaddedFibers,
        )
    }

    /// ELLPACK padded rows (`ELL`).
    pub fn ell() -> Self {
        Self::new(
            RankOrder::RowMajor,
            vec![Level::Uncompressed, Level::Singleton],
            ValuesLayout::PaddedFibers,
        )
    }

    /// Run-length coding over the linearized stream (`RLC`).
    pub fn rlc(run_bits: u32) -> Self {
        Self::new(
            RankOrder::RowMajor,
            vec![Level::RunLength { run_bits }],
            ValuesLayout::Contiguous,
        )
    }

    /// Zero-value compression over the linearized stream (`ZVC`).
    pub fn zvc() -> Self {
        Self::new(
            RankOrder::RowMajor,
            vec![Level::Bitmask],
            ValuesLayout::Contiguous,
        )
    }

    // ---- 3-D tensor presets ---------------------------------------------

    /// Uncompressed 3-D tensor (z fastest).
    pub fn dense3() -> Self {
        Self::new(
            RankOrder::RowMajor,
            vec![
                Level::Uncompressed,
                Level::Uncompressed,
                Level::Uncompressed,
            ],
            ValuesLayout::Contiguous,
        )
    }

    /// 3-D coordinate list.
    pub fn coo3() -> Self {
        Self::new(
            RankOrder::RowMajor,
            vec![Level::Singleton, Level::Singleton, Level::Singleton],
            ValuesLayout::Contiguous,
        )
    }

    /// Compressed sparse fiber (`CSF`).
    pub fn csf() -> Self {
        Self::new(
            RankOrder::RowMajor,
            vec![
                Level::CompressedOffsets,
                Level::CompressedOffsets,
                Level::CompressedOffsets,
            ],
            ValuesLayout::Contiguous,
        )
    }

    /// Hierarchical COO with cubic blocks of the given edge (`HiCOO`).
    pub fn hicoo(block: usize) -> Self {
        Self::new(
            RankOrder::RowMajor,
            vec![
                Level::Blocked {
                    br: block,
                    bc: block,
                },
                Level::Singleton,
            ],
            ValuesLayout::Contiguous,
        )
    }

    /// Run-length coding over the linearized tensor stream.
    pub fn rlc3(run_bits: u32) -> Self {
        Self::rlc(run_bits)
    }

    /// Zero-value compression over the linearized tensor stream.
    pub fn zvc3() -> Self {
        Self::zvc()
    }

    // ---- round trip to the enums -----------------------------------------

    /// The [`MatrixFormat`] this descriptor names, when it is one of the
    /// nine matrix presets (`None` for any other composition).
    pub fn to_matrix_format(&self) -> Option<MatrixFormat> {
        use Level as L;
        use RankOrder as O;
        use ValuesLayout as V;
        match (self.order, self.levels.as_slice(), self.values) {
            (O::RowMajor, [L::Uncompressed, L::Uncompressed], V::Contiguous) => {
                Some(MatrixFormat::Dense)
            }
            (O::RowMajor, [L::Singleton, L::Singleton], V::Contiguous) => Some(MatrixFormat::Coo),
            (O::RowMajor, [L::Uncompressed, L::CompressedOffsets], V::Contiguous) => {
                Some(MatrixFormat::Csr)
            }
            (O::ColMajor, [L::Uncompressed, L::CompressedOffsets], V::Contiguous) => {
                Some(MatrixFormat::Csc)
            }
            (O::RowMajor, [L::Blocked { br, bc }, L::CompressedOffsets], V::DenseBlocks) => {
                Some(MatrixFormat::Bsr { br: *br, bc: *bc })
            }
            (O::Diagonal, [L::Singleton, L::Uncompressed], V::PaddedFibers) => {
                Some(MatrixFormat::Dia)
            }
            (O::RowMajor, [L::Uncompressed, L::Singleton], V::PaddedFibers) => {
                Some(MatrixFormat::Ell)
            }
            (O::RowMajor, [L::RunLength { run_bits }], V::Contiguous) => Some(MatrixFormat::Rlc {
                run_bits: *run_bits,
            }),
            (O::RowMajor, [L::Bitmask], V::Contiguous) => Some(MatrixFormat::Zvc),
            _ => None,
        }
    }

    /// The [`TensorFormat`] this descriptor names, when it is one of the
    /// six tensor presets.
    pub fn to_tensor_format(&self) -> Option<TensorFormat> {
        use Level as L;
        use RankOrder as O;
        use ValuesLayout as V;
        match (self.order, self.levels.as_slice(), self.values) {
            (O::RowMajor, [L::Uncompressed, L::Uncompressed, L::Uncompressed], V::Contiguous) => {
                Some(TensorFormat::Dense)
            }
            (O::RowMajor, [L::Singleton, L::Singleton, L::Singleton], V::Contiguous) => {
                Some(TensorFormat::Coo)
            }
            (
                O::RowMajor,
                [L::CompressedOffsets, L::CompressedOffsets, L::CompressedOffsets],
                V::Contiguous,
            ) => Some(TensorFormat::Csf),
            (O::RowMajor, [L::Blocked { br, bc }, L::Singleton], V::Contiguous) if br == bc => {
                Some(TensorFormat::HiCoo { block: *br })
            }
            (O::RowMajor, [L::RunLength { run_bits }], V::Contiguous) => Some(TensorFormat::Rlc {
                run_bits: *run_bits,
            }),
            (O::RowMajor, [L::Bitmask], V::Contiguous) => Some(TensorFormat::Zvc),
            _ => None,
        }
    }

    // ---- structural predicates ------------------------------------------

    /// True when no level stores explicit coordinates — positions are
    /// implicit in the stream order (Dense, RLC, ZVC and their per-rank
    /// combinations). These decode without MINT's divide/mod array.
    pub fn is_flat(&self) -> bool {
        !self.levels.iter().any(Level::stores_coordinates)
    }

    /// True when some rank is bitmask-encoded — building it engages
    /// MINT's population counter.
    pub fn has_bitmask_rank(&self) -> bool {
        self.levels.iter().any(|l| matches!(l, Level::Bitmask))
    }

    /// True when some rank is block-partitioned — computing block
    /// positions engages MINT's divide/mod array.
    pub fn has_blocked_rank(&self) -> bool {
        self.levels
            .iter()
            .any(|l| matches!(l, Level::Blocked { .. }))
    }

    /// True when the encoding stores explicit zero value slots (padding
    /// strips or dense blocks), i.e. `stored_elements > logical_nnz` in
    /// general. Flat run-length streams also carry zero-valued extension
    /// slots.
    pub fn stores_explicit_zeros(&self) -> bool {
        !matches!(self.values, ValuesLayout::Contiguous)
            || self
                .levels
                .iter()
                .any(|l| matches!(l, Level::RunLength { .. }))
            || self.levels.iter().all(|l| matches!(l, Level::Uncompressed))
    }

    // ---- identity --------------------------------------------------------

    /// Stable 64-bit fingerprint of the descriptor (FNV-1a over a
    /// canonical byte rendering). Equal descriptors always produce equal
    /// fingerprints **across processes and releases** — unlike
    /// `DefaultHasher`, the constants are fixed — so plan caches and
    /// persisted artifacts can key on it.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |byte: u64| {
            h ^= byte;
            h = h.wrapping_mul(FNV_PRIME);
        };
        eat(match self.order {
            RankOrder::RowMajor => 1,
            RankOrder::ColMajor => 2,
            RankOrder::Diagonal => 3,
        });
        eat(match self.values {
            ValuesLayout::Contiguous => 1,
            ValuesLayout::PaddedFibers => 2,
            ValuesLayout::DenseBlocks => 3,
        });
        eat(self.levels.len() as u64);
        for l in &self.levels {
            match l {
                Level::Uncompressed => eat(10),
                Level::CompressedOffsets => eat(11),
                Level::Bitmask => eat(12),
                Level::RunLength { run_bits } => {
                    eat(13);
                    eat(u64::from(*run_bits));
                }
                Level::Singleton => eat(14),
                Level::Blocked { br, bc } => {
                    eat(15);
                    eat(*br as u64);
                    eat(*bc as u64);
                }
            }
        }
        h
    }
}

/// Fold several descriptor fingerprints into one order-sensitive key
/// (FNV-1a over the member fingerprints) — the shared rule plan caches
/// use to key a multi-operand format choice, defined once here so every
/// keyed choice folds its operands the same way.
pub fn combine_fingerprints<'a>(descs: impl IntoIterator<Item = &'a FormatDescriptor>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in descs {
        h ^= d.fingerprint();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl std::fmt::Display for FormatDescriptor {
    /// Preset name when the descriptor maps to an enum, otherwise the
    /// level notation, e.g. `B·R4[row]` for bitmask rows ×
    /// run-length columns.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(m) = self.to_matrix_format() {
            return write!(f, "{m}");
        }
        if let Some(t) = self.to_tensor_format() {
            return write!(f, "{t}");
        }
        let levels: Vec<String> = self.levels.iter().map(Level::token).collect();
        let order = match self.order {
            RankOrder::RowMajor => "row",
            RankOrder::ColMajor => "col",
            RankOrder::Diagonal => "diag",
        };
        write!(f, "{}[{order}]", levels.join("·"))?;
        match self.values {
            ValuesLayout::Contiguous => Ok(()),
            ValuesLayout::PaddedFibers => write!(f, "+pad"),
            ValuesLayout::DenseBlocks => write!(f, "+blk"),
        }
    }
}

impl From<MatrixFormat> for FormatDescriptor {
    fn from(f: MatrixFormat) -> Self {
        match f {
            MatrixFormat::Dense => FormatDescriptor::dense(),
            MatrixFormat::Coo => FormatDescriptor::coo(),
            MatrixFormat::Csr => FormatDescriptor::csr(),
            MatrixFormat::Csc => FormatDescriptor::csc(),
            MatrixFormat::Bsr { br, bc } => FormatDescriptor::bsr(br, bc),
            MatrixFormat::Dia => FormatDescriptor::dia(),
            MatrixFormat::Ell => FormatDescriptor::ell(),
            MatrixFormat::Rlc { run_bits } => FormatDescriptor::rlc(run_bits),
            MatrixFormat::Zvc => FormatDescriptor::zvc(),
        }
    }
}

impl From<TensorFormat> for FormatDescriptor {
    fn from(f: TensorFormat) -> Self {
        match f {
            TensorFormat::Dense => FormatDescriptor::dense3(),
            TensorFormat::Coo => FormatDescriptor::coo3(),
            TensorFormat::Csf => FormatDescriptor::csf(),
            TensorFormat::HiCoo { block } => FormatDescriptor::hicoo(block),
            TensorFormat::Rlc { run_bits } => FormatDescriptor::rlc3(run_bits),
            TensorFormat::Zvc => FormatDescriptor::zvc3(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_matrix_formats() -> Vec<MatrixFormat> {
        vec![
            MatrixFormat::Dense,
            MatrixFormat::Coo,
            MatrixFormat::Csr,
            MatrixFormat::Csc,
            MatrixFormat::Bsr { br: 3, bc: 5 },
            MatrixFormat::Dia,
            MatrixFormat::Ell,
            MatrixFormat::Rlc { run_bits: 7 },
            MatrixFormat::Zvc,
        ]
    }

    fn all_tensor_formats() -> Vec<TensorFormat> {
        vec![
            TensorFormat::Dense,
            TensorFormat::Coo,
            TensorFormat::Csf,
            TensorFormat::HiCoo { block: 8 },
            TensorFormat::Rlc { run_bits: 5 },
            TensorFormat::Zvc,
        ]
    }

    #[test]
    fn matrix_enum_round_trips_losslessly() {
        for f in all_matrix_formats() {
            let d = FormatDescriptor::from(f);
            assert_eq!(d.to_matrix_format(), Some(f), "round trip lost {f}");
        }
    }

    #[test]
    fn tensor_enum_round_trips_losslessly() {
        for f in all_tensor_formats() {
            let d = FormatDescriptor::from(f);
            assert_eq!(d.to_tensor_format(), Some(f), "round trip lost {f}");
        }
    }

    #[test]
    fn fingerprints_are_distinct_and_stable() {
        let mut seen = std::collections::HashMap::new();
        for f in all_matrix_formats() {
            let d = FormatDescriptor::from(f);
            let fp = d.fingerprint();
            assert_eq!(fp, FormatDescriptor::from(f).fingerprint(), "unstable {f}");
            if let Some(prev) = seen.insert(fp, f) {
                panic!("fingerprint collision between {prev} and {f}");
            }
        }
        // Parameters matter.
        assert_ne!(
            FormatDescriptor::rlc(4).fingerprint(),
            FormatDescriptor::rlc(8).fingerprint()
        );
        assert_ne!(
            FormatDescriptor::bsr(2, 4).fingerprint(),
            FormatDescriptor::bsr(4, 2).fingerprint()
        );
        // Pinned literal: the fingerprint is a persistence format
        // (plan-cache keys, artifacts), so changing the FNV constants or
        // the byte rendering is a breaking change and must fail here.
        assert_eq!(FormatDescriptor::csr().fingerprint(), 0x6693_1bb6_f425_4bdc);
    }

    #[test]
    fn display_names_presets_and_compositions() {
        assert_eq!(FormatDescriptor::csr().to_string(), "CSR");
        assert_eq!(FormatDescriptor::bsr(2, 4).to_string(), "BSR2x4");
        assert_eq!(FormatDescriptor::hicoo(8).to_string(), "HiCOO(b8)");
        let custom = FormatDescriptor::new(
            RankOrder::RowMajor,
            vec![Level::Bitmask, Level::RunLength { run_bits: 4 }],
            ValuesLayout::Contiguous,
        );
        assert_eq!(custom.to_string(), "B·R4[row]");
        assert_eq!(custom.to_matrix_format(), None);
    }

    #[test]
    fn structural_predicates_match_the_legacy_classification() {
        // is_flat must agree with the old MINT cost-model classification:
        // Dense, RLC, ZVC are flat; everything storing coordinates is not.
        for f in all_matrix_formats() {
            let d = FormatDescriptor::from(f);
            let legacy_flat = matches!(
                f,
                MatrixFormat::Dense | MatrixFormat::Rlc { .. } | MatrixFormat::Zvc
            );
            assert_eq!(d.is_flat(), legacy_flat, "flatness mismatch for {f}");
        }
        assert!(FormatDescriptor::zvc().has_bitmask_rank());
        assert!(FormatDescriptor::bsr(2, 2).has_blocked_rank());
    }

    #[test]
    fn explicit_zero_accounting_flags_the_padded_presets() {
        for f in all_matrix_formats() {
            let expect = matches!(
                f,
                MatrixFormat::Dense
                    | MatrixFormat::Bsr { .. }
                    | MatrixFormat::Dia
                    | MatrixFormat::Ell
                    | MatrixFormat::Rlc { .. }
            );
            assert_eq!(
                FormatDescriptor::from(f).stores_explicit_zeros(),
                expect,
                "explicit-zero flag mismatch for {f}"
            );
        }
    }
}
