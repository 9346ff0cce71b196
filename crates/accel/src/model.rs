//! Analytic performance model — the "performance model" half of SAGE
//! (§VI).
//!
//! Where [`crate::exec`] streams the operands beat by beat, this module
//! predicts the same quantities in closed form from `(M, K, N, nnz_A,
//! nnz_B)` under the paper's uniform-random assumption ("we assume a
//! uniform random distribution of the dense values ... this has minimal
//! effect on the performance of unstructured format conversions", §VI).
//! Tests cross-validate these estimates against the cycle-accurate
//! simulator.

use crate::bus::BusPacking;
use crate::config::AccelConfig;
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::exec::SimError;
use sparseflex_formats::MatrixFormat;

/// Workload description for the analytic WS model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WsWorkload {
    /// Rows of A (and O).
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Columns of B (and O).
    pub n: usize,
    /// Nonzeros of the streaming operand A.
    pub nnz_a: u64,
    /// Nonzeros of the stationary operand B.
    pub nnz_b: u64,
    /// ACF of A: Dense, CSR, COO or CSC.
    pub acf_a: MatrixFormat,
    /// ACF of B: Dense or CSC (or CSR for the SpGEMM dataflow).
    pub acf_b: MatrixFormat,
}

impl WsWorkload {
    /// Density of A.
    pub fn density_a(&self) -> f64 {
        self.nnz_a as f64 / (self.m as f64 * self.k as f64).max(1.0)
    }
    /// Density of B.
    pub fn density_b(&self) -> f64 {
        self.nnz_b as f64 / (self.k as f64 * self.n as f64).max(1.0)
    }
}

/// Predicted cycle components (fractional — expectations).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AnalyticCycles {
    /// Stationary tile loading.
    pub load_b: f64,
    /// Bus beats for streaming A (before PE stalls).
    pub beats_a: f64,
    /// Streaming cycles including PE stalls (>= beats_a).
    pub stream_a: f64,
    /// Output drain.
    pub drain: f64,
}

impl AnalyticCycles {
    /// Total predicted compute-side cycles.
    pub fn total(&self) -> f64 {
        self.load_b + self.stream_a + self.drain
    }
}

/// Full analytic estimate: cycles plus activity for energy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AnalyticEstimate {
    /// Cycle components.
    pub cycles: AnalyticCycles,
    /// Total MAC lane-operations (including wasted zero-operand ones).
    pub macs: f64,
    /// MACs with both operands nonzero.
    pub effective_macs: f64,
    /// Bus slot traffic.
    pub bus_slots: f64,
    /// PE buffer reads.
    pub pe_reads: f64,
    /// PE buffer writes (tile loads).
    pub pe_writes: f64,
    /// Output flush events.
    pub flushes: f64,
}

impl AnalyticEstimate {
    /// Predicted PE utilization.
    pub fn utilization(&self) -> f64 {
        if self.macs == 0.0 {
            0.0
        } else {
            self.effective_macs / self.macs
        }
    }

    /// On-chip energy (DRAM accounted separately).
    pub fn energy(&self, e: &EnergyModel) -> EnergyBreakdown {
        EnergyBreakdown {
            compute: self.macs * e.mac_fp32,
            pe_buffer: (self.pe_reads + self.pe_writes) * e.pe_buffer_access,
            global_buffer: self.flushes * e.global_buffer_access,
            noc: self.bus_slots * e.noc_transfer,
            dram: 0.0,
        }
    }
}

/// Predict a WS execution analytically.
pub fn ws_estimate(w: &WsWorkload, cfg: &AccelConfig) -> Result<AnalyticEstimate, SimError> {
    let a_ok = matches!(
        w.acf_a,
        MatrixFormat::Dense | MatrixFormat::Csr | MatrixFormat::Coo | MatrixFormat::Csc
    );
    let b_ok = matches!(w.acf_b, MatrixFormat::Dense | MatrixFormat::Csc);
    if !a_ok || !b_ok {
        if w.acf_a == MatrixFormat::Csr && w.acf_b == MatrixFormat::Csr {
            return spgemm_estimate(w, cfg);
        }
        return Err(SimError::UnsupportedAcf {
            a: w.acf_a,
            b: w.acf_b,
        });
    }

    let bus = BusPacking {
        slots: cfg.bus_slots,
    };
    let p = cfg.num_pes.max(1) as f64;
    let vw = cfg.vector_width.max(1) as f64;
    let (m, k, n) = (w.m as f64, w.k as f64, w.n as f64);
    let d_a = w.density_a();
    let d_b = w.density_b();
    let n_tiles = (n / p).ceil().max(1.0);
    let cols_per_tile = n.min(p);

    // ---- K ranges.
    let buf = cfg.pe_buffer_elems.max(1) as f64;
    let ranges = match w.acf_b {
        MatrixFormat::Dense => (k / buf).ceil().max(1.0),
        MatrixFormat::Csc => {
            // Pairs capacity per range; expected entries per column per
            // range ~ d_b * range_len. Uneven columns shrink ranges; the
            // busiest of `cols_per_tile` uniform columns exceeds the mean
            // by roughly 2 sigma, folded into a 1.5x safety factor that
            // matches the greedy packer's behaviour on random patterns.
            let cap_pairs = (buf / 2.0).floor().max(1.0);
            ((d_b * k * 1.5) / cap_pairs).ceil().max(1.0)
        }
        _ => unreachable!(),
    };

    // ---- Stationary load: every element of B (plus metadata for CSC)
    // is broadcast exactly once.
    let load_slots = match w.acf_b {
        MatrixFormat::Dense => k * n,
        MatrixFormat::Csc => 2.0 * w.nnz_b as f64,
        _ => unreachable!(),
    };
    let load_b = load_slots / cfg.bus_slots as f64;

    // ---- Beats for streaming A (full matrix, once per column tile).
    let rows_nonempty_per_range = m * (1.0 - (1.0 - d_a).powf(k / ranges));
    let (beats_once, stream_slots_once) = match w.acf_a {
        MatrixFormat::Dense => {
            let cap = bus.dense_capacity() as f64;
            // Each row in each range pays one ceil; model the expected
            // ceil overhead as half a beat per (row, range).
            let beats = m * k / cap + 0.5 * m * ranges;
            (beats, m * k + beats)
        }
        MatrixFormat::Csr => {
            let cap = bus.pair_capacity() as f64;
            let beats = w.nnz_a as f64 / cap + 0.5 * rows_nonempty_per_range * ranges;
            (beats, 2.0 * w.nnz_a as f64 + beats)
        }
        MatrixFormat::Coo => {
            let cap = bus.triple_capacity() as f64;
            // COO beats may mix rows; only ranges introduce partial beats.
            let beats = w.nnz_a as f64 / cap + 0.5 * ranges;
            (beats, 3.0 * w.nnz_a as f64)
        }
        MatrixFormat::Csc => {
            let cap = bus.pair_capacity() as f64;
            let cols_nonempty = k * (1.0 - (1.0 - d_a).powf(m));
            let beats = w.nnz_a as f64 / cap + 0.5 * cols_nonempty;
            (beats, 2.0 * w.nnz_a as f64 + beats)
        }
        _ => unreachable!(),
    };
    let beats_a = beats_once * n_tiles;

    // ---- MAC work. `work_pe` is the busiest PE's lane-op total per tile.
    let stream_elems_once = match w.acf_a {
        MatrixFormat::Dense => m * k,
        _ => w.nnz_a as f64,
    };
    let (macs_total, work_pe_per_tile) = match w.acf_b {
        MatrixFormat::Dense => {
            // Every streamed element issues a MAC at every PE.
            (stream_elems_once * n, stream_elems_once)
        }
        MatrixFormat::Csc => {
            // A streamed element MACs only where the station holds k.
            // P(station j has k) = s_j / K; uniform expectation s = d_b*K.
            let per_pe = stream_elems_once
                * d_b
                * match w.acf_a {
                    // Dense A streams every row over every k, so each station
                    // entry is hit once per row.
                    MatrixFormat::Dense => 1.0,
                    _ => 1.0,
                };
            (per_pe * cols_per_tile * n_tiles, per_pe)
        }
        _ => unreachable!(),
    };
    let effective = match (w.acf_a, w.acf_b) {
        (MatrixFormat::Dense, MatrixFormat::Dense) => m * k * n * d_a * d_b,
        (MatrixFormat::Dense, MatrixFormat::Csc) => w.nnz_b as f64 * m * d_a,
        (_, MatrixFormat::Dense) => w.nnz_a as f64 * n * d_b,
        (_, MatrixFormat::Csc) => w.nnz_a as f64 * w.nnz_b as f64 / k.max(1.0),
        _ => unreachable!(),
    };

    // ---- Stream cycles: bus-limited or MAC-limited, per tile.
    let stream_a = n_tiles * (beats_once).max(work_pe_per_tile / vw);

    // ---- Output flushes.
    let flushes = match w.acf_a {
        MatrixFormat::Csc => effective, // column-major: flush per MAC
        MatrixFormat::Dense => m * ranges * cols_per_tile * n_tiles,
        _ => rows_nonempty_per_range * ranges * cols_per_tile * n_tiles,
    };
    let drain = flushes / cfg.num_pes.max(1) as f64;

    Ok(AnalyticEstimate {
        cycles: AnalyticCycles {
            load_b,
            beats_a,
            stream_a,
            drain,
        },
        macs: macs_total,
        effective_macs: effective.min(macs_total),
        bus_slots: load_slots + stream_slots_once * n_tiles,
        pe_reads: macs_total,
        pe_writes: load_slots,
        flushes,
    })
}

/// Predict the CSR(A)-CSR(B) Gustavson SpGEMM dataflow analytically.
pub fn spgemm_estimate(w: &WsWorkload, cfg: &AccelConfig) -> Result<AnalyticEstimate, SimError> {
    if w.acf_a != MatrixFormat::Csr || w.acf_b != MatrixFormat::Csr {
        return Err(SimError::UnsupportedAcf {
            a: w.acf_a,
            b: w.acf_b,
        });
    }
    let bus = BusPacking {
        slots: cfg.bus_slots,
    };
    let p = cfg.num_pes.max(1) as f64;
    let vw = cfg.vector_width.max(1) as f64;
    let (m, k) = (w.m as f64, w.k as f64);
    let d_a = w.density_a();

    // Expected flops: every A nonzero multiplies a full B row.
    let avg_b_row = w.nnz_b as f64 / k.max(1.0);
    let flops = w.nnz_a as f64 * avg_b_row;

    // K ranges: all PEs together must hold 2*nnz_B slots.
    let total_cap = p * cfg.pe_buffer_elems as f64;
    let ranges = ((2.0 * w.nnz_b as f64) / total_cap).ceil().max(1.0);

    let load_slots = 2.0 * w.nnz_b as f64;
    let load_b = load_slots / cfg.bus_slots as f64;

    let cap = bus.pair_capacity() as f64;
    let rows_nonempty_per_range = m * (1.0 - (1.0 - d_a).powf(k / ranges));
    let beats_a = w.nnz_a as f64 / cap + 0.5 * rows_nonempty_per_range * ranges;

    // Work concentrates on single PEs per streamed element; with few
    // elements per beat the busiest-PE work per beat is ~ the whole
    // beat's work for small beats. Model stalls as total flops spread
    // over (vw x min(p, elements-in-flight)) with a serialization factor.
    let elems_per_beat = cap.min(w.nnz_a as f64);
    let parallel_pes = elems_per_beat.max(1.0).min(p);
    let stream_a = beats_a.max(flops / (vw * parallel_pes));

    let flushes = flops;
    let drain = flushes / cfg.num_pes.max(1) as f64;

    Ok(AnalyticEstimate {
        cycles: AnalyticCycles {
            load_b,
            beats_a,
            stream_a,
            drain,
        },
        macs: flops,
        effective_macs: flops,
        bus_slots: load_slots + 2.0 * w.nnz_a as f64 + beats_a,
        pe_reads: 2.0 * flops,
        pe_writes: load_slots,
        flushes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{simulate_spgemm, simulate_ws};
    use sparseflex_formats::{CooMatrix, CsrMatrix, MatrixData};
    use sparseflex_workloads::synth::random_matrix;

    fn workload(
        m: usize,
        k: usize,
        n: usize,
        nnz_a: usize,
        nnz_b: usize,
        acf_a: MatrixFormat,
        acf_b: MatrixFormat,
    ) -> (WsWorkload, CooMatrix, CooMatrix) {
        let a = random_matrix(m, k, nnz_a, 11);
        let b = random_matrix(k, n, nnz_b, 22);
        (
            WsWorkload {
                m,
                k,
                n,
                nnz_a: nnz_a as u64,
                nnz_b: nnz_b as u64,
                acf_a,
                acf_b,
            },
            a,
            b,
        )
    }

    /// Relative error helper.
    fn rel(err: f64, truth: f64) -> f64 {
        if truth == 0.0 {
            err.abs()
        } else {
            (err - truth).abs() / truth
        }
    }

    #[test]
    fn dense_dense_beats_are_exact() {
        let cfg = AccelConfig {
            num_pes: 8,
            pe_buffer_elems: 32,
            ..AccelConfig::walkthrough()
        };
        let (w, a, b) = workload(20, 32, 8, 100, 64, MatrixFormat::Dense, MatrixFormat::Dense);
        let est = ws_estimate(&w, &cfg).unwrap();
        let sim = simulate_ws(
            &MatrixData::encode(&a, &MatrixFormat::Dense).unwrap(),
            &MatrixData::encode(&b, &MatrixFormat::Dense).unwrap(),
            &cfg,
        )
        .unwrap();
        // K = 32 fits one range: beats = M * ceil(K/cap) exactly, and the
        // model's +0.5*M*ranges ceil-term over-counts by at most M/2.
        let tol = w.m as f64;
        assert!(
            (est.cycles.beats_a - sim.cycles.stream_a as f64).abs() <= tol,
            "beats {} vs sim {}",
            est.cycles.beats_a,
            sim.cycles.stream_a
        );
    }

    #[test]
    fn csr_dense_estimate_tracks_simulator() {
        let cfg = AccelConfig {
            num_pes: 16,
            pe_buffer_elems: 64,
            ..AccelConfig::walkthrough()
        };
        for (nnz, seed_gap) in [(50, 0), (400, 1), (1200, 2)] {
            let (w, a, b) = workload(
                40,
                60,
                16,
                nnz,
                60 * 16,
                MatrixFormat::Csr,
                MatrixFormat::Dense,
            );
            let _ = seed_gap;
            let est = ws_estimate(&w, &cfg).unwrap();
            let sim = simulate_ws(
                &MatrixData::encode(&a, &MatrixFormat::Csr).unwrap(),
                &MatrixData::encode(&b, &MatrixFormat::Dense).unwrap(),
                &cfg,
            )
            .unwrap();
            let e = rel(est.cycles.stream_a, sim.cycles.stream_a as f64);
            assert!(
                e < 0.5,
                "nnz={nnz}: stream est {} vs sim {} (rel {e})",
                est.cycles.stream_a,
                sim.cycles.stream_a
            );
            assert_eq!(est.macs, sim.counts.macs as f64, "macs exact for dense B");
        }
    }

    #[test]
    fn csr_csc_estimate_tracks_simulator() {
        let cfg = AccelConfig {
            num_pes: 16,
            pe_buffer_elems: 64,
            ..AccelConfig::walkthrough()
        };
        let (w, a, b) = workload(50, 80, 16, 600, 400, MatrixFormat::Csr, MatrixFormat::Csc);
        let est = ws_estimate(&w, &cfg).unwrap();
        let sim = simulate_ws(
            &MatrixData::encode(&a, &MatrixFormat::Csr).unwrap(),
            &MatrixData::encode(&b, &MatrixFormat::Csc).unwrap(),
            &cfg,
        )
        .unwrap();
        let e_macs = rel(est.macs, sim.counts.macs as f64);
        assert!(
            e_macs < 0.35,
            "macs est {} vs sim {} (rel {e_macs})",
            est.macs,
            sim.counts.macs
        );
        let e_cycles = rel(est.cycles.total(), sim.cycles.total() as f64);
        assert!(
            e_cycles < 0.6,
            "cycles est {} vs sim {} (rel {e_cycles})",
            est.cycles.total(),
            sim.cycles.total()
        );
    }

    #[test]
    fn coo_dense_estimate_tracks_simulator() {
        let cfg = AccelConfig {
            num_pes: 16,
            pe_buffer_elems: 64,
            ..AccelConfig::walkthrough()
        };
        let (w, a, b) = workload(
            30,
            64,
            16,
            300,
            64 * 16,
            MatrixFormat::Coo,
            MatrixFormat::Dense,
        );
        let est = ws_estimate(&w, &cfg).unwrap();
        let sim = simulate_ws(
            &MatrixData::encode(&a, &MatrixFormat::Coo).unwrap(),
            &MatrixData::encode(&b, &MatrixFormat::Dense).unwrap(),
            &cfg,
        )
        .unwrap();
        let e = rel(est.cycles.stream_a, sim.cycles.stream_a as f64);
        assert!(
            e < 0.35,
            "stream est {} vs sim {} (rel {e})",
            est.cycles.stream_a,
            sim.cycles.stream_a
        );
    }

    #[test]
    fn spgemm_estimate_tracks_simulator() {
        let cfg = AccelConfig {
            num_pes: 8,
            pe_buffer_elems: 64,
            ..AccelConfig::walkthrough()
        };
        let a = random_matrix(30, 40, 200, 5);
        let b = random_matrix(40, 30, 180, 6);
        let w = WsWorkload {
            m: 30,
            k: 40,
            n: 30,
            nnz_a: 200,
            nnz_b: 180,
            acf_a: MatrixFormat::Csr,
            acf_b: MatrixFormat::Csr,
        };
        let est = spgemm_estimate(&w, &cfg).unwrap();
        let sim =
            simulate_spgemm(&CsrMatrix::from_coo(&a), &CsrMatrix::from_coo(&b), &cfg).unwrap();
        let e_macs = rel(est.macs, sim.counts.macs as f64);
        assert!(
            e_macs < 0.15,
            "flops est {} vs sim {} (rel {e_macs})",
            est.macs,
            sim.counts.macs
        );
        let e = rel(est.cycles.total(), sim.cycles.total() as f64);
        assert!(
            e < 0.8,
            "cycles est {} vs sim {} (rel {e})",
            est.cycles.total(),
            sim.cycles.total()
        );
    }

    #[test]
    fn sparser_streaming_operand_cuts_predicted_cycles() {
        // The ACF story of Fig. 6: CSR streaming beats Dense streaming
        // when A is sparse.
        let cfg = AccelConfig::paper();
        let base = WsWorkload {
            m: 1000,
            k: 1000,
            n: 1000,
            nnz_a: 10_000, // 1% dense
            nnz_b: 1_000_000,
            acf_a: MatrixFormat::Dense,
            acf_b: MatrixFormat::Dense,
        };
        let base = WsWorkload {
            nnz_b: 10_000,
            ..base
        }; // B also 1% dense
        let dense = ws_estimate(&base, &cfg).unwrap();
        let sparse = ws_estimate(
            &WsWorkload {
                acf_a: MatrixFormat::Csr,
                acf_b: MatrixFormat::Csc,
                ..base
            },
            &cfg,
        )
        .unwrap();
        assert!(
            sparse.cycles.total() < dense.cycles.total() / 5.0,
            "csr-csc {} vs dense-dense {}",
            sparse.cycles.total(),
            dense.cycles.total()
        );
    }

    #[test]
    fn dense_acf_wins_at_full_density() {
        // At 100% density the metadata of CSR only adds traffic.
        let cfg = AccelConfig::paper();
        let base = WsWorkload {
            m: 500,
            k: 500,
            n: 500,
            nnz_a: 250_000,
            nnz_b: 250_000,
            acf_a: MatrixFormat::Dense,
            acf_b: MatrixFormat::Dense,
        };
        let dense = ws_estimate(&base, &cfg).unwrap();
        let csr = ws_estimate(
            &WsWorkload {
                acf_a: MatrixFormat::Csr,
                ..base
            },
            &cfg,
        )
        .unwrap();
        assert!(dense.cycles.total() < csr.cycles.total());
    }

    #[test]
    fn unsupported_pair_rejected() {
        let cfg = AccelConfig::paper();
        let w = WsWorkload {
            m: 10,
            k: 10,
            n: 10,
            nnz_a: 10,
            nnz_b: 10,
            acf_a: MatrixFormat::Zvc,
            acf_b: MatrixFormat::Dense,
        };
        assert!(ws_estimate(&w, &cfg).is_err());
    }

    #[test]
    fn utilization_reflects_sparsity() {
        let cfg = AccelConfig::paper();
        let w = WsWorkload {
            m: 1000,
            k: 1000,
            n: 1000,
            nnz_a: 10_000,
            nnz_b: 10_000,
            acf_a: MatrixFormat::Dense,
            acf_b: MatrixFormat::Dense,
        };
        let est = ws_estimate(&w, &cfg).unwrap();
        assert!(
            est.utilization() < 1e-3,
            "dense ACF on 1% data must waste MACs"
        );
        let sparse = ws_estimate(
            &WsWorkload {
                acf_a: MatrixFormat::Csr,
                acf_b: MatrixFormat::Csc,
                ..w
            },
            &cfg,
        )
        .unwrap();
        assert!(sparse.utilization() > 0.9);
    }
}
