//! Compressed Sparse Fiber (CSF) format for 3-D tensors.

use crate::error::FormatError;
use crate::tensor::CooTensor3;
use crate::traits::SparseTensor3;
use crate::Value;

/// Compressed Sparse Fiber tensor (Fig. 3b; Smith & Karypis).
///
/// "CSF constructs a tree to hold tensors" (§II): a three-level structure
/// for mode order `x -> y -> z`. Level 0 stores the distinct x slices;
/// each x slice points at a run of (x, y) fibers in level 1; each fiber
/// points at a run of z coordinates + values in level 2. The paper's
/// Dense→CSF MINT pipeline (Fig. 8f) produces exactly this layout.
#[derive(Debug, Clone, PartialEq)]
pub struct CsfTensor {
    dims: (usize, usize, usize),
    /// Distinct x coordinates, sorted.
    x_fids: Vec<usize>,
    /// `x_fids.len() + 1` pointers into the level-1 fiber arrays.
    x_ptr: Vec<usize>,
    /// y coordinate of each (x, y) fiber.
    y_fids: Vec<usize>,
    /// `y_fids.len() + 1` pointers into the level-2 arrays.
    y_ptr: Vec<usize>,
    /// z coordinate of each nonzero.
    z_fids: Vec<usize>,
    /// Nonzero values, parallel to `z_fids`.
    values: Vec<Value>,
}

impl CsfTensor {
    /// Build from the COO hub (already x-major sorted, so this is a single
    /// linear pass — the same traversal MINT's tree-construction logic
    /// performs in step 6 of Fig. 8f).
    pub fn from_coo(coo: &CooTensor3) -> Self {
        let (dx, dy, dz) = coo.shape();
        let mut x_fids: Vec<usize> = Vec::new();
        let mut x_ptr: Vec<usize> = Vec::new();
        let mut y_fids: Vec<usize> = Vec::new();
        let mut y_ptr: Vec<usize> = Vec::new();
        let mut z_fids = Vec::with_capacity(coo.nnz());
        let mut values = Vec::with_capacity(coo.nnz());
        let mut last_x: Option<usize> = None;
        let mut last_xy: Option<(usize, usize)> = None;
        for (x, y, z, v) in coo.iter() {
            if last_x != Some(x) {
                x_fids.push(x);
                x_ptr.push(y_fids.len()); // slice begins at the current fiber count
                last_x = Some(x);
                last_xy = None;
            }
            if last_xy != Some((x, y)) {
                y_fids.push(y);
                y_ptr.push(z_fids.len()); // fiber begins at the current nnz count
                last_xy = Some((x, y));
            }
            z_fids.push(z);
            values.push(v);
        }
        x_ptr.push(y_fids.len());
        y_ptr.push(z_fids.len());
        CsfTensor {
            dims: (dx, dy, dz),
            x_fids,
            x_ptr,
            y_fids,
            y_ptr,
            z_fids,
            values,
        }
    }

    /// Build from raw arrays, validating tree structure.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        dims: (usize, usize, usize),
        x_fids: Vec<usize>,
        x_ptr: Vec<usize>,
        y_fids: Vec<usize>,
        y_ptr: Vec<usize>,
        z_fids: Vec<usize>,
        values: Vec<Value>,
    ) -> Result<Self, FormatError> {
        if x_ptr.len() != x_fids.len() + 1 {
            return Err(FormatError::LengthMismatch {
                what: "csf x_ptr vs x_fids+1",
                expected: x_fids.len() + 1,
                actual: x_ptr.len(),
            });
        }
        if y_ptr.len() != y_fids.len() + 1 {
            return Err(FormatError::LengthMismatch {
                what: "csf y_ptr vs y_fids+1",
                expected: y_fids.len() + 1,
                actual: y_ptr.len(),
            });
        }
        if z_fids.len() != values.len() {
            return Err(FormatError::LengthMismatch {
                what: "csf z_fids vs values",
                expected: values.len(),
                actual: z_fids.len(),
            });
        }
        if x_ptr.first() != Some(&0)
            || x_ptr.last() != Some(&y_fids.len())
            || x_ptr.windows(2).any(|w| w[0] >= w[1])
        {
            return Err(FormatError::MalformedPointer { what: "csf x_ptr" });
        }
        if y_ptr.first() != Some(&0)
            || y_ptr.last() != Some(&values.len())
            || y_ptr.windows(2).any(|w| w[0] >= w[1])
        {
            return Err(FormatError::MalformedPointer { what: "csf y_ptr" });
        }
        if x_fids.windows(2).any(|w| w[0] >= w[1]) {
            return Err(FormatError::MalformedPointer {
                what: "csf x_fids not sorted",
            });
        }
        // The walk streams each slice's fibers and each fiber's entries
        // as stored, so both must already ascend.
        let ascending_runs = |ptr: &[usize], ids: &[usize]| {
            ptr.windows(2)
                .all(|w| ids[w[0]..w[1]].windows(2).all(|p| p[0] < p[1]))
        };
        if !ascending_runs(&x_ptr, &y_fids) {
            return Err(FormatError::MalformedPointer {
                what: "csf y_fids not strictly increasing within a slice",
            });
        }
        if !ascending_runs(&y_ptr, &z_fids) {
            return Err(FormatError::MalformedPointer {
                what: "csf z_fids not strictly increasing within a fiber",
            });
        }
        for &x in &x_fids {
            if x >= dims.0 {
                return Err(FormatError::IndexOutOfBounds {
                    index: x,
                    bound: dims.0,
                    axis: 0,
                });
            }
        }
        for &y in &y_fids {
            if y >= dims.1 {
                return Err(FormatError::IndexOutOfBounds {
                    index: y,
                    bound: dims.1,
                    axis: 1,
                });
            }
        }
        for &z in &z_fids {
            if z >= dims.2 {
                return Err(FormatError::IndexOutOfBounds {
                    index: z,
                    bound: dims.2,
                    axis: 2,
                });
            }
        }
        Ok(CsfTensor {
            dims,
            x_fids,
            x_ptr,
            y_fids,
            y_ptr,
            z_fids,
            values,
        })
    }

    /// Distinct x slice coordinates (level 0 of the tree).
    #[inline]
    pub fn x_fids(&self) -> &[usize] {
        &self.x_fids
    }
    /// Pointers from x slices into the fiber arrays.
    #[inline]
    pub fn x_ptr(&self) -> &[usize] {
        &self.x_ptr
    }
    /// y coordinate of each (x, y) fiber (level 1).
    #[inline]
    pub fn y_fids(&self) -> &[usize] {
        &self.y_fids
    }
    /// Pointers from fibers into the nonzero arrays.
    #[inline]
    pub fn y_ptr(&self) -> &[usize] {
        &self.y_ptr
    }
    /// z coordinate of each nonzero (level 2).
    #[inline]
    pub fn z_fids(&self) -> &[usize] {
        &self.z_fids
    }
    /// Nonzero values.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of (x, y) fibers.
    #[inline]
    pub fn num_fibers(&self) -> usize {
        self.y_fids.len()
    }

    /// Number of occupied x slices.
    #[inline]
    pub fn num_slices(&self) -> usize {
        self.x_fids.len()
    }
}

impl SparseTensor3 for CsfTensor {
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
        let si = match self.x_fids.binary_search(&x) {
            Ok(i) => i,
            Err(_) => return 0.0,
        };
        let fibers = &self.y_fids[self.x_ptr[si]..self.x_ptr[si + 1]];
        let fi = match fibers.binary_search(&y) {
            Ok(i) => self.x_ptr[si] + i,
            Err(_) => return 0.0,
        };
        let zs = &self.z_fids[self.y_ptr[fi]..self.y_ptr[fi + 1]];
        match zs.binary_search(&z) {
            Ok(i) => self.values[self.y_ptr[fi] + i],
            Err(_) => 0.0,
        }
    }
    fn to_coo(&self) -> CooTensor3 {
        crate::traverse::coo3_from_stream(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 3b tensor: nonzeros a..f at COO coordinates
    /// x: 0 0 1 2 2 3, y: 0 0 2 1 1 0, z: 0 1 2 0 3 3.
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
    fn fig3b_tree_shape() {
        let csf = CsfTensor::from_coo(&fig3b());
        // 4 occupied slices (x = 0,1,2,3), 4 fibers, 6 nonzeros.
        assert_eq!(csf.x_fids(), &[0, 1, 2, 3]);
        assert_eq!(csf.num_fibers(), 4);
        assert_eq!(csf.y_fids(), &[0, 2, 1, 0]);
        assert_eq!(csf.x_ptr(), &[0, 1, 2, 3, 4]);
        assert_eq!(csf.y_ptr(), &[0, 2, 3, 5, 6]);
        assert_eq!(csf.z_fids(), &[0, 1, 2, 0, 3, 3]);
        assert_eq!(csf.nnz(), 6);
    }

    #[test]
    fn roundtrip() {
        let coo = fig3b();
        let csf = CsfTensor::from_coo(&coo);
        assert_eq!(csf.to_coo(), coo);
    }

    #[test]
    fn get_traverses_tree() {
        let csf = CsfTensor::from_coo(&fig3b());
        assert_eq!(csf.get(2, 1, 3), 5.0);
        assert_eq!(csf.get(2, 1, 1), 0.0);
        assert_eq!(csf.get(2, 2, 0), 0.0);
        assert_eq!(csf.get(1, 2, 2), 3.0);
    }

    #[test]
    fn shared_fibers_compress() {
        // Two nonzeros in the same (x, y) fiber should share one level-1
        // entry.
        let coo = CooTensor3::from_quads(
            2,
            2,
            8,
            vec![(0, 0, 0, 1.0), (0, 0, 7, 2.0), (1, 1, 3, 3.0)],
        )
        .unwrap();
        let csf = CsfTensor::from_coo(&coo);
        assert_eq!(csf.num_slices(), 2);
        assert_eq!(csf.num_fibers(), 2);
        assert_eq!(csf.to_coo(), coo);
    }

    #[test]
    fn empty_tensor() {
        let coo = CooTensor3::empty(3, 3, 3);
        let csf = CsfTensor::from_coo(&coo);
        assert_eq!(csf.nnz(), 0);
        assert_eq!(csf.num_slices(), 0);
        assert_eq!(csf.to_coo(), coo);
    }

    #[test]
    fn from_parts_validates() {
        // Mismatched pointer lengths.
        assert!(CsfTensor::from_parts(
            (2, 2, 2),
            vec![0],
            vec![0],
            vec![0],
            vec![0, 1],
            vec![0],
            vec![1.0],
        )
        .is_err());
        // Valid single-entry tensor.
        assert!(CsfTensor::from_parts(
            (2, 2, 2),
            vec![1],
            vec![0, 1],
            vec![1],
            vec![0, 1],
            vec![1],
            vec![1.0],
        )
        .is_ok());
        // z out of bounds.
        assert!(CsfTensor::from_parts(
            (2, 2, 2),
            vec![1],
            vec![0, 1],
            vec![1],
            vec![0, 1],
            vec![5],
            vec![1.0],
        )
        .is_err());
    }

    /// The slice `x = 0` of a 2×4×4 tensor: fibers `y_fids` over the
    /// entries `z_fids`, split at `y_ptr`, each valued 1.
    fn slice(
        y_fids: Vec<usize>,
        y_ptr: Vec<usize>,
        z_fids: Vec<usize>,
    ) -> Result<CsfTensor, FormatError> {
        let (x_ptr, values) = (vec![0, y_fids.len()], vec![1.0; z_fids.len()]);
        CsfTensor::from_parts((2, 4, 4), vec![0], x_ptr, y_fids, y_ptr, z_fids, values)
    }

    const Y_UNSORTED: FormatError = FormatError::MalformedPointer {
        what: "csf y_fids not strictly increasing within a slice",
    };
    const Z_UNSORTED: FormatError = FormatError::MalformedPointer {
        what: "csf z_fids not strictly increasing within a fiber",
    };

    #[test]
    fn from_parts_rejects_y_fids_out_of_order_within_a_slice() {
        let fibers = |y_fids| slice(y_fids, vec![0, 1, 2], vec![0, 0]);
        assert!(fibers(vec![1, 3]).is_ok());
        assert_eq!(fibers(vec![3, 1]).err(), Some(Y_UNSORTED));
        assert_eq!(fibers(vec![2, 2]).err(), Some(Y_UNSORTED));
    }

    #[test]
    fn from_parts_rejects_z_fids_out_of_order_within_a_fiber() {
        assert!(slice(vec![0], vec![0, 3], vec![0, 2, 3]).is_ok());
        let unsorted = slice(vec![0], vec![0, 3], vec![0, 3, 2]);
        assert_eq!(unsorted.err(), Some(Z_UNSORTED));
    }

    #[test]
    fn from_parts_rejects_z_fids_repeated_within_a_fiber() {
        let repeated = slice(vec![0], vec![0, 2], vec![1, 1]);
        assert_eq!(repeated.err(), Some(Z_UNSORTED));
    }

    /// The same y (or z) may recur across slices (or fibers): only runs
    /// must ascend.
    #[test]
    fn from_parts_accepts_ids_that_restart_at_a_boundary() {
        let csf = CsfTensor::from_parts(
            (2, 4, 4),
            vec![0, 1],
            vec![0, 2, 3],
            vec![1, 3, 1],
            vec![0, 2, 3, 5],
            vec![0, 3, 1, 0, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
        .unwrap();
        let quads: Vec<_> = csf.to_coo().iter().map(|(x, y, z, _)| (x, y, z)).collect();
        let expect = [(0, 1, 0), (0, 1, 3), (0, 3, 1), (1, 1, 0), (1, 1, 3)];
        assert_eq!(quads, expect);
    }
}
