//! Hierarchical Coordinate (HiCOO) format for 3-D tensors.

use crate::error::FormatError;
use crate::tensor::CooTensor3;
use crate::traits::SparseTensor3;
use crate::Value;

/// Hierarchical COO tensor (Fig. 3b, "Hierarchical Coordinate (HiCOO)
/// 2x2x2 blocks"; Li et al. SC'18).
///
/// Nonzeros are grouped into cubic blocks of edge `block`: per block the
/// format stores one set of (wide) block coordinates `bx, by, bz` plus a
/// pointer `bptr` into the element arrays, and per nonzero only (narrow,
/// `log2(block)`-bit) element offsets `ex, ey, ez`. Clustering makes the
/// per-nonzero metadata cheap when nonzeros are spatially correlated.
#[derive(Debug, Clone, PartialEq)]
pub struct HiCooTensor {
    dims: (usize, usize, usize),
    block: usize,
    /// `num_blocks + 1` pointers into the element arrays.
    bptr: Vec<usize>,
    /// Block coordinates (units of `block`).
    bx: Vec<usize>,
    /// Block coordinates (units of `block`).
    by: Vec<usize>,
    /// Block coordinates (units of `block`).
    bz: Vec<usize>,
    /// Element offsets within the block (`< block`).
    ex: Vec<u8>,
    /// Element offsets within the block (`< block`).
    ey: Vec<u8>,
    /// Element offsets within the block (`< block`).
    ez: Vec<u8>,
    /// Nonzero values.
    values: Vec<Value>,
}

impl HiCooTensor {
    /// Encode from the COO hub with cubic blocks of edge `block`
    /// (must be a power of two no larger than 256, so offsets fit in `u8`
    /// and hardware divides reduce to shifts).
    pub fn from_coo(coo: &CooTensor3, block: usize) -> Result<Self, FormatError> {
        if block == 0 || !block.is_power_of_two() || block > 256 {
            return Err(FormatError::InvalidBlockSize { block });
        }
        // Sort nonzeros by (block key, element key).
        let mut order: Vec<usize> = (0..coo.nnz()).collect();
        let key = |i: usize| {
            let (x, y, z) = (coo.x_ids()[i], coo.y_ids()[i], coo.z_ids()[i]);
            (
                (x / block, y / block, z / block),
                (x % block, y % block, z % block),
            )
        };
        order.sort_unstable_by_key(|&i| key(i));

        let mut t = HiCooTensor {
            dims: coo.shape(),
            block,
            bptr: vec![0],
            bx: Vec::new(),
            by: Vec::new(),
            bz: Vec::new(),
            ex: Vec::with_capacity(coo.nnz()),
            ey: Vec::with_capacity(coo.nnz()),
            ez: Vec::with_capacity(coo.nnz()),
            values: Vec::with_capacity(coo.nnz()),
        };
        let mut last_block: Option<(usize, usize, usize)> = None;
        for &i in &order {
            let (x, y, z) = (coo.x_ids()[i], coo.y_ids()[i], coo.z_ids()[i]);
            let b = (x / block, y / block, z / block);
            if last_block != Some(b) {
                if last_block.is_some() {
                    t.bptr.push(t.values.len());
                }
                t.bx.push(b.0);
                t.by.push(b.1);
                t.bz.push(b.2);
                last_block = Some(b);
            }
            t.ex.push((x % block) as u8);
            t.ey.push((y % block) as u8);
            t.ez.push((z % block) as u8);
            t.values.push(coo.values()[i]);
        }
        t.bptr.push(t.values.len());
        // Empty tensor: bptr should be just [0].
        if t.values.is_empty() {
            t.bptr = vec![0];
        }
        Ok(t)
    }

    /// Cubic block edge length.
    #[inline]
    pub fn block(&self) -> usize {
        self.block
    }

    /// Number of occupied blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.bx.len()
    }

    /// Block pointer array (`num_blocks + 1` entries, or `[0]` when empty).
    #[inline]
    pub fn bptr(&self) -> &[usize] {
        &self.bptr
    }

    /// Block x coordinates.
    #[inline]
    pub fn bx(&self) -> &[usize] {
        &self.bx
    }
    /// Block y coordinates.
    #[inline]
    pub fn by(&self) -> &[usize] {
        &self.by
    }
    /// Block z coordinates.
    #[inline]
    pub fn bz(&self) -> &[usize] {
        &self.bz
    }
    /// Element x offsets within blocks.
    #[inline]
    pub fn ex(&self) -> &[u8] {
        &self.ex
    }
    /// Element y offsets within blocks.
    #[inline]
    pub fn ey(&self) -> &[u8] {
        &self.ey
    }
    /// Element z offsets within blocks.
    #[inline]
    pub fn ez(&self) -> &[u8] {
        &self.ez
    }
    /// Nonzero values.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }
}

impl SparseTensor3 for HiCooTensor {
    fn dim_x(&self) -> usize {
        self.dims.0
    }
    fn dim_y(&self) -> usize {
        self.dims.1
    }
    fn dim_z(&self) -> usize {
        self.dims.2
    }
    fn nnz(&self) -> usize {
        self.values.len()
    }
    fn get(&self, x: usize, y: usize, z: usize) -> Value {
        let b = (x / self.block, y / self.block, z / self.block);
        // Blocks are sorted by (bx, by, bz): binary search.
        let mut lo = 0usize;
        let mut hi = self.num_blocks();
        while lo < hi {
            let mid = (lo + hi) / 2;
            let mk = (self.bx[mid], self.by[mid], self.bz[mid]);
            match mk.cmp(&b) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    let (e, f) = (
                        (x % self.block) as u8,
                        ((y % self.block) as u8, (z % self.block) as u8),
                    );
                    for i in self.bptr[mid]..self.bptr[mid + 1] {
                        if self.ex[i] == e && (self.ey[i], self.ez[i]) == f {
                            return self.values[i];
                        }
                    }
                    return 0.0;
                }
            }
        }
        0.0
    }
    fn to_coo(&self) -> CooTensor3 {
        crate::traverse::coo3_from_stream(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 3b tensor (same nonzeros as the CSF test).
    fn fig3b() -> CooTensor3 {
        CooTensor3::from_quads(
            4,
            4,
            4,
            vec![
                (0, 0, 0, 1.0), // a
                (0, 0, 1, 2.0), // b
                (1, 2, 2, 3.0), // c
                (2, 1, 0, 4.0), // d
                (2, 1, 3, 5.0), // e
                (3, 0, 3, 6.0), // f
            ],
        )
        .unwrap()
    }

    #[test]
    fn fig3b_blocks_2x2x2() {
        let h = HiCooTensor::from_coo(&fig3b(), 2).unwrap();
        // Expected 2x2x2 block keys of the 6 nonzeros:
        // a,b -> (0,0,0); c -> (0,1,1); d -> (1,0,0); e -> (1,0,1); f -> (1,0,1).
        assert_eq!(h.num_blocks(), 4);
        assert_eq!(h.bptr(), &[0, 2, 3, 4, 6]);
        assert_eq!(h.nnz(), 6);
    }

    #[test]
    fn roundtrip() {
        let coo = fig3b();
        let h = HiCooTensor::from_coo(&coo, 2).unwrap();
        assert_eq!(h.to_coo(), coo);
    }

    #[test]
    fn get_searches_blocks() {
        let h = HiCooTensor::from_coo(&fig3b(), 2).unwrap();
        assert_eq!(h.get(2, 1, 3), 5.0);
        assert_eq!(h.get(3, 0, 3), 6.0);
        assert_eq!(h.get(0, 0, 2), 0.0);
        assert_eq!(h.get(3, 3, 3), 0.0);
    }

    #[test]
    fn rejects_bad_block_sizes() {
        let coo = fig3b();
        assert!(HiCooTensor::from_coo(&coo, 0).is_err());
        assert!(HiCooTensor::from_coo(&coo, 3).is_err());
        assert!(HiCooTensor::from_coo(&coo, 512).is_err());
        assert!(HiCooTensor::from_coo(&coo, 4).is_ok());
    }

    #[test]
    fn block_larger_than_tensor_gives_single_block() {
        let coo = fig3b();
        let h = HiCooTensor::from_coo(&coo, 8).unwrap();
        assert_eq!(h.num_blocks(), 1);
        assert_eq!(h.to_coo(), coo);
    }

    #[test]
    fn empty_tensor() {
        let coo = CooTensor3::empty(4, 4, 4);
        let h = HiCooTensor::from_coo(&coo, 2).unwrap();
        assert_eq!(h.num_blocks(), 0);
        assert_eq!(h.bptr(), &[0]);
        assert_eq!(h.to_coo(), coo);
    }

    #[test]
    fn clustered_pattern_uses_few_blocks() {
        // 8 nonzeros all inside one 2x2x2 corner.
        let quads: Vec<_> = (0..2)
            .flat_map(|x| (0..2).flat_map(move |y| (0..2).map(move |z| (x, y, z, 1.0 + x as f64))))
            .collect();
        let coo = CooTensor3::from_quads(16, 16, 16, quads).unwrap();
        let h = HiCooTensor::from_coo(&coo, 2).unwrap();
        assert_eq!(h.num_blocks(), 1);
        assert_eq!(h.nnz(), 8);
    }
}
