//! Dense and coordinate 3-D tensor storage.

use crate::dense::DenseMatrix;
use crate::error::FormatError;
use crate::traits::{SparseMatrix, SparseTensor3};
use crate::Value;

/// Dense 3-D tensor, flattened `x -> y -> z` with z fastest.
///
/// The flattening order matches the paper's Fig. 8f Dense→CSF walkthrough
/// ("the dense format equivalent in z → y → x order"), i.e. z is the
/// innermost loop of the stream. That stream is the row-major buffer of
/// the `(dim_x·dim_y) × dim_z` [`DenseMatrix`] whose row `x·dim_y + y` is
/// fiber `(x, y)`, and the tensor holds exactly that matrix: its
/// accessors, walk and partition are the matrix's.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseTensor3 {
    dim_x: usize,
    dim_y: usize,
    matrix: DenseMatrix,
}

impl DenseTensor3 {
    /// All-zeros tensor of the given shape.
    pub fn zeros(dx: usize, dy: usize, dz: usize) -> Self {
        DenseTensor3 {
            dim_x: dx,
            dim_y: dy,
            matrix: DenseMatrix::zeros(dx * dy, dz),
        }
    }

    /// Build from a flat buffer (z fastest). Fails on length mismatch.
    pub fn from_vec(
        dx: usize,
        dy: usize,
        dz: usize,
        data: Vec<Value>,
    ) -> Result<Self, FormatError> {
        Ok(DenseTensor3 {
            dim_x: dx,
            dim_y: dy,
            matrix: DenseMatrix::from_vec(dx * dy, dz, data)?,
        })
    }

    /// The `(dim_x·dim_y) × dim_z` matrix the tensor stores.
    #[inline]
    pub(crate) fn matrix(&self) -> &DenseMatrix {
        &self.matrix
    }

    /// Flat backing buffer.
    #[inline]
    pub fn data(&self) -> &[Value] {
        self.matrix.data()
    }

    /// Mutable flat backing buffer (z fastest) — lets kernels update a
    /// whole `(x, y)` output fiber as one contiguous lane.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [Value] {
        self.matrix.data_mut()
    }

    /// Write access to element `(x, y, z)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: Value) {
        self.matrix.set(x * self.dim_y + y, z, v);
    }

    /// Add into element `(x, y, z)`.
    #[inline]
    pub fn add_assign(&mut self, x: usize, y: usize, z: usize, v: Value) {
        self.matrix.add_assign(x * self.dim_y + y, z, v);
    }

    /// Count explicit nonzeros.
    pub fn count_nonzeros(&self) -> usize {
        self.matrix.count_nonzeros()
    }
}

impl SparseTensor3 for DenseTensor3 {
    fn dim_x(&self) -> usize {
        self.dim_x
    }
    fn dim_y(&self) -> usize {
        self.dim_y
    }
    fn dim_z(&self) -> usize {
        self.matrix.cols()
    }
    fn nnz(&self) -> usize {
        self.matrix.nnz()
    }
    #[inline]
    fn get(&self, x: usize, y: usize, z: usize) -> Value {
        self.matrix.get(x * self.dim_y + y, z)
    }
    fn to_coo(&self) -> CooTensor3 {
        crate::traverse::coo3_from_stream(self)
    }
    fn to_dense(&self) -> DenseTensor3 {
        self.clone()
    }
}

/// Coordinate-list 3-D tensor (Fig. 3b "Coordinate (COO)"): parallel
/// arrays `(x_ids, y_ids, z_ids, values)` sorted x-major.
#[derive(Debug, Clone, PartialEq)]
pub struct CooTensor3 {
    dims: (usize, usize, usize),
    x_ids: Vec<usize>,
    y_ids: Vec<usize>,
    z_ids: Vec<usize>,
    values: Vec<Value>,
}

impl CooTensor3 {
    /// Empty tensor of the given shape.
    pub fn empty(dx: usize, dy: usize, dz: usize) -> Self {
        CooTensor3 {
            dims: (dx, dy, dz),
            x_ids: Vec::new(),
            y_ids: Vec::new(),
            z_ids: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Build from `(x, y, z, value)` quads: sorts, sums duplicates, drops
    /// resulting zeros.
    pub fn from_quads(
        dx: usize,
        dy: usize,
        dz: usize,
        mut quads: Vec<(usize, usize, usize, Value)>,
    ) -> Result<Self, FormatError> {
        for &(x, y, z, _) in &quads {
            if x >= dx {
                return Err(FormatError::IndexOutOfBounds {
                    index: x,
                    bound: dx,
                    axis: 0,
                });
            }
            if y >= dy {
                return Err(FormatError::IndexOutOfBounds {
                    index: y,
                    bound: dy,
                    axis: 1,
                });
            }
            if z >= dz {
                return Err(FormatError::IndexOutOfBounds {
                    index: z,
                    bound: dz,
                    axis: 2,
                });
            }
        }
        quads.sort_unstable_by_key(|&(x, y, z, _)| (x, y, z));
        let mut t = CooTensor3::empty(dx, dy, dz);
        for (x, y, z, v) in quads {
            if let (Some(&lx), Some(&ly), Some(&lz), Some(last)) = (
                t.x_ids.last(),
                t.y_ids.last(),
                t.z_ids.last(),
                t.values.last_mut(),
            ) {
                if (lx, ly, lz) == (x, y, z) {
                    *last += v;
                    continue;
                }
            }
            t.x_ids.push(x);
            t.y_ids.push(y);
            t.z_ids.push(z);
            t.values.push(v);
        }
        // Drop exact zeros after duplicate accumulation.
        let mut keep = CooTensor3::empty(dx, dy, dz);
        for i in 0..t.values.len() {
            if t.values[i] != 0.0 {
                keep.x_ids.push(t.x_ids[i]);
                keep.y_ids.push(t.y_ids[i]);
                keep.z_ids.push(t.z_ids[i]);
                keep.values.push(t.values[i]);
            }
        }
        Ok(keep)
    }

    /// Assemble from parallel arrays that already hold every invariant
    /// [`from_quads`](Self::from_quads) establishes (sorted x-major, no
    /// duplicates, in bounds, no zeros): a fiber walk's entries, collected.
    pub(crate) fn from_parts_unchecked(
        dims: (usize, usize, usize),
        x_ids: Vec<usize>,
        y_ids: Vec<usize>,
        z_ids: Vec<usize>,
        values: Vec<Value>,
    ) -> Self {
        CooTensor3 {
            dims,
            x_ids,
            y_ids,
            z_ids,
            values,
        }
    }

    /// x coordinates, parallel to `values`.
    #[inline]
    pub fn x_ids(&self) -> &[usize] {
        &self.x_ids
    }
    /// y coordinates, parallel to `values`.
    #[inline]
    pub fn y_ids(&self) -> &[usize] {
        &self.y_ids
    }
    /// z coordinates, parallel to `values`.
    #[inline]
    pub fn z_ids(&self) -> &[usize] {
        &self.z_ids
    }
    /// Stored nonzero values.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Iterate `(x, y, z, value)` in x-major sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, usize, Value)> + '_ {
        (0..self.values.len())
            .map(move |i| (self.x_ids[i], self.y_ids[i], self.z_ids[i], self.values[i]))
    }

    /// Consume into a dense tensor.
    pub fn into_dense(self) -> DenseTensor3 {
        let (dx, dy, dz) = self.dims;
        let mut out = DenseTensor3::zeros(dx, dy, dz);
        for i in 0..self.values.len() {
            out.set(self.x_ids[i], self.y_ids[i], self.z_ids[i], self.values[i]);
        }
        out
    }
}

impl SparseTensor3 for CooTensor3 {
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
        // Binary search on the sorted (x, y, z) key.
        let key = (x, y, z);
        let mut lo = 0usize;
        let mut hi = self.values.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            let mk = (self.x_ids[mid], self.y_ids[mid], self.z_ids[mid]);
            match mk.cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return self.values[mid],
            }
        }
        0.0
    }
    fn to_coo(&self) -> CooTensor3 {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooTensor3 {
        CooTensor3::from_quads(
            4,
            4,
            4,
            vec![
                (0, 0, 0, 1.0),
                (0, 0, 1, 2.0),
                (1, 2, 2, 3.0),
                (2, 1, 0, 4.0),
                (2, 1, 3, 5.0),
                (3, 0, 3, 6.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn quads_sort_and_dedup() {
        let t = CooTensor3::from_quads(
            2,
            2,
            2,
            vec![(1, 1, 1, 5.0), (0, 0, 0, 1.0), (0, 0, 0, 2.0)],
        )
        .unwrap();
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.get(0, 0, 0), 3.0);
    }

    #[test]
    fn bounds_checked_per_axis() {
        assert!(matches!(
            CooTensor3::from_quads(2, 2, 2, vec![(2, 0, 0, 1.0)]),
            Err(FormatError::IndexOutOfBounds { axis: 0, .. })
        ));
        assert!(matches!(
            CooTensor3::from_quads(2, 2, 2, vec![(0, 2, 0, 1.0)]),
            Err(FormatError::IndexOutOfBounds { axis: 1, .. })
        ));
        assert!(matches!(
            CooTensor3::from_quads(2, 2, 2, vec![(0, 0, 2, 1.0)]),
            Err(FormatError::IndexOutOfBounds { axis: 2, .. })
        ));
    }

    #[test]
    fn dense_roundtrip() {
        let t = sample();
        let d = t.clone().into_dense();
        assert_eq!(d.to_coo(), t);
        assert_eq!(d.nnz(), 6);
    }

    #[test]
    fn get_via_binary_search() {
        let t = sample();
        assert_eq!(t.get(2, 1, 3), 5.0);
        assert_eq!(t.get(2, 1, 2), 0.0);
        assert_eq!(t.get(3, 3, 3), 0.0);
    }

    #[test]
    fn dense_tensor_set_get() {
        let mut d = DenseTensor3::zeros(2, 3, 4);
        d.set(1, 2, 3, 9.0);
        d.add_assign(1, 2, 3, 1.0);
        assert_eq!(d.get(1, 2, 3), 10.0);
        assert_eq!(d.nnz(), 1);
        assert_eq!(d.shape(), (2, 3, 4));
    }

    #[test]
    fn dense_from_vec_validates() {
        assert!(DenseTensor3::from_vec(2, 2, 2, vec![0.0; 7]).is_err());
        assert!(DenseTensor3::from_vec(2, 2, 2, vec![0.0; 8]).is_ok());
    }

    #[test]
    fn duplicate_cancellation() {
        let t = CooTensor3::from_quads(2, 2, 2, vec![(0, 1, 1, 2.0), (0, 1, 1, -2.0)]).unwrap();
        assert_eq!(t.nnz(), 0);
    }
}
