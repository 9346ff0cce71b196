//! Logical element datatypes and bit-width accounting.
//!
//! The paper's compactness study (Fig. 4) sweeps the element datatype
//! (32-bit, 16-bit, 8-bit): "As the number of bits per data element goes
//! down, the percentage of memory that goes to the compression format
//! metadata goes up." Every size-model function in this crate is therefore
//! parameterized on a [`DataType`].

/// Logical datatype of tensor elements, used for storage and energy
/// accounting (the functional payload is always carried as `f64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataType {
    /// 8-bit integer (quantized DL inference).
    Int8,
    /// 16-bit integer.
    Int16,
    /// 16-bit brain floating point.
    Bf16,
    /// 32-bit integer (metadata arithmetic inside the accelerator).
    Int32,
    /// 32-bit IEEE float — the paper's default evaluation datatype.
    Fp32,
    /// 64-bit IEEE float (scientific computing extension).
    Fp64,
}

impl DataType {
    /// Bit width of one element.
    #[inline]
    pub const fn bits(self) -> u64 {
        match self {
            DataType::Int8 => 8,
            DataType::Int16 | DataType::Bf16 => 16,
            DataType::Int32 | DataType::Fp32 => 32,
            DataType::Fp64 => 64,
        }
    }

    /// Byte width of one element (bits / 8).
    #[inline]
    pub const fn bytes(self) -> u64 {
        self.bits() / 8
    }

    /// Short human-readable name, used in benchmark CSV output.
    pub const fn name(self) -> &'static str {
        match self {
            DataType::Int8 => "int8",
            DataType::Int16 => "int16",
            DataType::Bf16 => "bf16",
            DataType::Int32 => "int32",
            DataType::Fp32 => "fp32",
            DataType::Fp64 => "fp64",
        }
    }
}

impl std::fmt::Display for DataType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::DataType;

    #[test]
    fn bit_widths() {
        assert_eq!(DataType::Int8.bits(), 8);
        assert_eq!(DataType::Int16.bits(), 16);
        assert_eq!(DataType::Bf16.bits(), 16);
        assert_eq!(DataType::Int32.bits(), 32);
        assert_eq!(DataType::Fp32.bits(), 32);
        assert_eq!(DataType::Fp64.bits(), 64);
    }

    #[test]
    fn byte_widths_consistent_with_bits() {
        for dt in [
            DataType::Int8,
            DataType::Int16,
            DataType::Bf16,
            DataType::Int32,
            DataType::Fp32,
            DataType::Fp64,
        ] {
            assert_eq!(dt.bytes() * 8, dt.bits());
        }
    }

    #[test]
    fn names_unique() {
        let names: Vec<_> = [
            DataType::Int8,
            DataType::Int16,
            DataType::Bf16,
            DataType::Int32,
            DataType::Fp32,
            DataType::Fp64,
        ]
        .iter()
        .map(|d| d.name())
        .collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
