//! Chunked dense-lane primitives shared by every kernel inner loop.
//!
//! The SSSR model (*Sparse Stream Semantic Registers*, PAPERS.md) splits a
//! sparse kernel into two decoupled streams: an index stream walking the
//! compressed structure, and a dense FMA stream over the output columns.
//! The fiber-stream traversal supplies the former; this module supplies
//! the latter as fixed-width lane loops (`LANES` elements per step) whose
//! bodies the optimizer reliably auto-vectorizes — the scalar fallback
//! covers the tail.
//!
//! Every primitive performs **exactly** the element-wise operations of the
//! naive loop it replaces, in the same per-output-element order, so
//! results are bit-for-bit identical to the pre-lane kernels: `axpy`,
//! `axpy_mul3`, and `fold_scaled` touch each output column independently
//! (chunking changes iteration bookkeeping, not arithmetic), and the one
//! primitive that *does* reassociate a reduction — [`dot_indexed`]'s
//! four-accumulator dot — is used by both the tuned CSR fast path and the
//! generic stream path, so the dispatcher's `generic == specialized`
//! contract still holds exactly.

use sparseflex_formats::Value;

/// Lane width for the chunked dense loops (f64 elements per step — two
/// AVX2 / one AVX-512 register's worth, and enough unroll for NEON).
const LANES: usize = 8;

/// `out[j] += a * b[j]` for every `j` — the SpMM/SpTTM/MTTKRP row update.
///
/// `out` and `b` must have equal length (the dispatchers slice both from
/// shape-checked operands).
#[inline]
pub fn axpy(out: &mut [Value], b: &[Value], a: Value) {
    debug_assert_eq!(out.len(), b.len(), "axpy lanes must be parallel");
    let split = out.len() - out.len() % LANES;
    let (o_main, o_tail) = out.split_at_mut(split);
    let (b_main, b_tail) = b.split_at(split);
    for (oc, bc) in o_main
        .chunks_exact_mut(LANES)
        .zip(b_main.chunks_exact(LANES))
    {
        for i in 0..LANES {
            oc[i] += a * bc[i];
        }
    }
    for (ov, bv) in o_tail.iter_mut().zip(b_tail) {
        *ov += a * bv;
    }
}

/// `out[j] += a * b[j] * c[j]` for every `j` — the fused COO MTTKRP update
/// (one nonzero against both factor rows).
#[inline]
pub fn axpy_mul3(out: &mut [Value], b: &[Value], c: &[Value], a: Value) {
    debug_assert_eq!(out.len(), b.len(), "axpy_mul3 lanes must be parallel");
    debug_assert_eq!(out.len(), c.len(), "axpy_mul3 lanes must be parallel");
    let split = out.len() - out.len() % LANES;
    let (o_main, o_tail) = out.split_at_mut(split);
    let (b_main, b_tail) = b.split_at(split);
    let (c_main, c_tail) = c.split_at(split);
    for ((oc, bc), cc) in o_main
        .chunks_exact_mut(LANES)
        .zip(b_main.chunks_exact(LANES))
        .zip(c_main.chunks_exact(LANES))
    {
        for i in 0..LANES {
            oc[i] += a * bc[i] * cc[i];
        }
    }
    for ((ov, bv), cv) in o_tail.iter_mut().zip(b_tail).zip(c_tail) {
        *ov += a * bv * cv;
    }
}

/// `out[j] += acc[j] * b[j]` for every `j` — the factored-MTTKRP fiber
/// fold (scale the fiber's partial sum by the `B[k][:]` row once).
#[inline]
pub fn fold_scaled(out: &mut [Value], acc: &[Value], b: &[Value]) {
    debug_assert_eq!(out.len(), acc.len(), "fold_scaled lanes must be parallel");
    debug_assert_eq!(out.len(), b.len(), "fold_scaled lanes must be parallel");
    let split = out.len() - out.len() % LANES;
    let (o_main, o_tail) = out.split_at_mut(split);
    let (a_main, a_tail) = acc.split_at(split);
    let (b_main, b_tail) = b.split_at(split);
    for ((oc, ac), bc) in o_main
        .chunks_exact_mut(LANES)
        .zip(a_main.chunks_exact(LANES))
        .zip(b_main.chunks_exact(LANES))
    {
        for i in 0..LANES {
            oc[i] += ac[i] * bc[i];
        }
    }
    for ((ov, av), bv) in o_tail.iter_mut().zip(a_tail).zip(b_tail) {
        *ov += av * bv;
    }
}

/// Indexed scatter update: `out[idx[t]] += a * vals[t]` for each `t` — the
/// sparse-B SpMM row update (one stored `A[i][k]` against the sparse row
/// `B[k][:]`, scattered into the dense output row `O[i][:]`).
///
/// `idx` and `vals` are parallel; each index is touched once per call
/// (fiber columns are strictly ascending), so chunking changes only loop
/// bookkeeping and results stay bit-for-bit equal to the scalar loop.
#[inline]
pub fn scatter_axpy(out: &mut [Value], idx: &[usize], vals: &[Value], a: Value) {
    debug_assert_eq!(idx.len(), vals.len(), "scatter_axpy lanes must be parallel");
    let split = idx.len() - idx.len() % LANES;
    for (ic, vc) in idx[..split]
        .chunks_exact(LANES)
        .zip(vals[..split].chunks_exact(LANES))
    {
        for t in 0..LANES {
            out[ic[t]] += a * vc[t];
        }
    }
    for (&i, &v) in idx[split..].iter().zip(&vals[split..]) {
        out[i] += a * v;
    }
}

/// Indexed (gather) dot product: `Σ_i vals[i] * x[idx[i]]` — the SpMV row
/// reduction and the CSC-stationary column reduction.
///
/// Runs four independent accumulator chains so consecutive FMAs do not
/// serialize on one register, combined as `(a0 + a1) + (a2 + a3)` plus the
/// scalar tail. This reassociates the sum relative to a single-accumulator
/// loop; both the CSR fast path and the generic stream path call this same
/// routine, so the two stay bit-for-bit identical to each other.
#[inline]
pub fn dot_indexed(idx: &[usize], vals: &[Value], x: &[Value]) -> Value {
    debug_assert_eq!(idx.len(), vals.len(), "dot_indexed lanes must be parallel");
    let split = idx.len() - idx.len() % 4;
    let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
    for (ic, vc) in idx[..split]
        .chunks_exact(4)
        .zip(vals[..split].chunks_exact(4))
    {
        a0 += vc[0] * x[ic[0]];
        a1 += vc[1] * x[ic[1]];
        a2 += vc[2] * x[ic[2]];
        a3 += vc[3] * x[ic[3]];
    }
    let mut acc = (a0 + a1) + (a2 + a3);
    for (&i, &v) in idx[split..].iter().zip(&vals[split..]) {
        acc += v * x[i];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_matches_scalar_loop_at_every_length() {
        for n in 0..=2 * LANES + 3 {
            let b: Vec<Value> = (0..n).map(|i| i as Value - 3.0).collect();
            let mut out: Vec<Value> = (0..n).map(|i| (i * i) as Value).collect();
            let mut expect = out.clone();
            for (ov, bv) in expect.iter_mut().zip(&b) {
                *ov += 2.5 * bv;
            }
            axpy(&mut out, &b, 2.5);
            assert_eq!(out, expect, "axpy length {n}");
        }
    }

    #[test]
    fn axpy_mul3_matches_scalar_loop() {
        for n in [0, 1, LANES - 1, LANES, LANES + 1, 3 * LANES + 2] {
            let b: Vec<Value> = (0..n).map(|i| i as Value - 2.0).collect();
            let c: Vec<Value> = (0..n).map(|i| (i % 5) as Value).collect();
            let mut out = vec![1.0; n];
            let mut expect = out.clone();
            for ((ov, bv), cv) in expect.iter_mut().zip(&b).zip(&c) {
                *ov += -1.5 * bv * cv;
            }
            axpy_mul3(&mut out, &b, &c, -1.5);
            assert_eq!(out, expect, "axpy_mul3 length {n}");
        }
    }

    #[test]
    fn fold_scaled_matches_scalar_loop() {
        for n in [0, 1, LANES, 2 * LANES + 5] {
            let acc: Vec<Value> = (0..n).map(|i| i as Value).collect();
            let b: Vec<Value> = (0..n).map(|i| 2.0 - i as Value).collect();
            let mut out = vec![0.5; n];
            let mut expect = out.clone();
            for ((ov, av), bv) in expect.iter_mut().zip(&acc).zip(&b) {
                *ov += av * bv;
            }
            fold_scaled(&mut out, &acc, &b);
            assert_eq!(out, expect, "fold_scaled length {n}");
        }
    }

    #[test]
    fn scatter_axpy_matches_scalar_loop() {
        for n in [0, 1, LANES - 1, LANES, LANES + 1, 2 * LANES + 3] {
            let idx: Vec<usize> = (0..n).map(|i| i * 2).collect(); // distinct
            let vals: Vec<Value> = (0..n).map(|i| i as Value - 1.5).collect();
            let mut out = vec![0.25; 2 * n + 1];
            let mut expect = out.clone();
            for (&i, &v) in idx.iter().zip(&vals) {
                expect[i] += -2.0 * v;
            }
            scatter_axpy(&mut out, &idx, &vals, -2.0);
            assert_eq!(out, expect, "scatter_axpy length {n}");
        }
    }

    #[test]
    fn dot_indexed_is_exact_on_integer_lanes() {
        // Integer-valued operands sum exactly under any association, so
        // the four-chain reduction must equal the plain ordered sum.
        for n in [0, 1, 3, 4, 5, 17] {
            let idx: Vec<usize> = (0..n).map(|i| (i * 7) % 20).collect();
            let vals: Vec<Value> = (0..n).map(|i| i as Value - 4.0).collect();
            let x: Vec<Value> = (0..20).map(|i| (i % 9) as Value - 3.0).collect();
            let expect: Value = idx.iter().zip(&vals).map(|(&i, &v)| v * x[i]).sum();
            assert_eq!(dot_indexed(&idx, &vals, &x), expect, "dot length {n}");
        }
    }
}
