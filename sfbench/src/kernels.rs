//! kernels_formats: a closed loop over the format-generic kernels of
//! `kernels::dispatch` — `spmm`, `spgemm`, `mttkrp`, `spttm` and their
//! `*_parallel` variants — on all 9 matrix and 6 tensor formats. No other
//! workload times this layer. Jobs are kernel calls.

use crate::gen::{self, MatrixOperands, TensorOperands};
use crate::model;
use crate::trace::Tracer;
use crate::util::{
    class_medians, closed_loop, closed_loop_wall, geomean, median, repeat_setup, secs, Metrics,
    Times,
};
use crate::RunOut;
use sparseflex_formats::{CsrMatrix, DenseMatrix, DenseTensor3, MatrixData, TensorData};
use sparseflex_kernels as k;
use std::collections::BTreeMap;
use std::time::Instant;

const SETUP_REPEATS: usize = 5;
pub const MATRIX_KERNELS: [&str; 2] = ["spmm", "spgemm"];
pub const TENSOR_KERNELS: [&str; 2] = ["mttkrp", "spttm"];

/// A kernel result, compared against the reference with tolerance 1e-9.
pub enum Out {
    Dense(DenseMatrix),
    Csr(CsrMatrix),
    Tensor(DenseTensor3),
}

fn close(x: f64, y: f64) -> bool {
    (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
}

impl Out {
    fn matches(&self, reference: &Out) -> bool {
        match (self, reference) {
            (Out::Dense(x), Out::Dense(y)) => x.approx_eq(y, 1e-9),
            (Out::Tensor(x), Out::Tensor(y)) => {
                x.data().len() == y.data().len()
                    && x.data().iter().zip(y.data()).all(|(p, q)| close(*p, *q))
            }
            (Out::Csr(x), Out::Csr(y)) => {
                x.row_ptr() == y.row_ptr()
                    && x.col_ids() == y.col_ids()
                    && x.values()
                        .iter()
                        .zip(y.values())
                        .all(|(p, q)| close(*p, *q))
            }
            _ => false,
        }
    }
}

/// One timed call: kernel, format, variant.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub kernel: &'static str,
    pub format: &'static str,
    pub parallel: bool,
    slot: usize,
}

impl Call {
    pub fn name(&self) -> String {
        format!(
            "kernels.{}.{}.{}",
            self.kernel,
            self.format,
            if self.parallel { "par" } else { "seq" }
        )
    }
}

pub struct Inputs {
    pub matrices: Vec<MatrixOperands>,
    pub tensors: Vec<TensorOperands>,
    pub calls: Vec<Call>,
    /// Reference output per call (the CSR / COO sequential result).
    pub references: Vec<Out>,
}

fn invoke(inputs: &Inputs, call: &Call) -> Result<Out, k::KernelError> {
    if MATRIX_KERNELS.contains(&call.kernel) {
        let m = &inputs.matrices[call.slot];
        match (call.kernel, call.parallel) {
            ("spmm", false) => k::spmm(&m.a, &m.dense).map(Out::Dense),
            ("spmm", true) => k::spmm_parallel(&m.a, &m.dense).map(Out::Dense),
            (_, false) => k::spgemm(&m.a, &m.b).map(Out::Csr),
            (_, true) => k::spgemm_parallel(&m.a, &m.b).map(Out::Csr),
        }
    } else {
        let t = &inputs.tensors[call.slot];
        match (call.kernel, call.parallel) {
            ("mttkrp", false) => k::mttkrp(&t.t, &t.fb, &t.fc).map(Out::Dense),
            ("mttkrp", true) => k::mttkrp_parallel(&t.t, &t.fb, &t.fc).map(Out::Dense),
            (_, false) => k::spttm(&t.t, &t.ttm).map(Out::Tensor),
            (_, true) => k::spttm_parallel(&t.t, &t.ttm).map(Out::Tensor),
        }
    }
}

fn reference(inputs: &Inputs, call: &Call) -> Result<Out, k::KernelError> {
    if MATRIX_KERNELS.contains(&call.kernel) {
        let m = &inputs.matrices[call.slot];
        let a = MatrixData::Csr(CsrMatrix::from_coo(&m.a_coo));
        if call.kernel == "spmm" {
            k::spmm(&a, &m.dense).map(Out::Dense)
        } else {
            let b = MatrixData::Csr(CsrMatrix::from_coo(&m.b_coo));
            k::spgemm(&a, &b).map(Out::Csr)
        }
    } else {
        let t = &inputs.tensors[call.slot];
        let coo = TensorData::Coo(t.t_coo.clone());
        if call.kernel == "mttkrp" {
            k::mttkrp(&coo, &t.fb, &t.fc).map(Out::Dense)
        } else {
            k::spttm(&coo, &t.ttm).map(Out::Tensor)
        }
    }
}

/// Every (kernel, format, variant) the loop cycles through, in order.
pub fn call_list() -> Vec<Call> {
    let mut calls = Vec::new();
    for kernel in MATRIX_KERNELS {
        for (slot, (format, _)) in gen::MATRIX_FORMATS.iter().enumerate() {
            for parallel in [false, true] {
                calls.push(Call {
                    kernel,
                    format,
                    parallel,
                    slot,
                });
            }
        }
    }
    for kernel in TENSOR_KERNELS {
        for (slot, (format, _)) in gen::TENSOR_FORMATS.iter().enumerate() {
            for parallel in [false, true] {
                calls.push(Call {
                    kernel,
                    format,
                    parallel,
                    slot,
                });
            }
        }
    }
    calls
}

fn setup(seed: u64) -> Result<Inputs, String> {
    let mut inputs = Inputs {
        matrices: gen::matrix_operands(seed),
        tensors: gen::tensor_operands(seed ^ 0x7e45),
        calls: call_list(),
        references: Vec::new(),
    };
    let references = inputs
        .calls
        .iter()
        .map(|c| reference(&inputs, c).map_err(|e| format!("{} reference: {e}", c.name())))
        .collect::<Result<Vec<_>, _>>()?;
    inputs.references = references;
    // Warm-up: one verified call of each.
    for (c, r) in inputs.calls.iter().zip(&inputs.references) {
        match invoke(&inputs, c) {
            Ok(out) if out.matches(r) => {}
            _ => return Err(format!("{} failed or mismatched during warm-up", c.name())),
        }
    }
    Ok(inputs)
}

/// One round over every call: appends per-call seconds to `times` and
/// returns the failures. With a tracer, each call is a span named after it.
fn round(
    inputs: &Inputs,
    names: &[&'static str],
    times: &mut Times,
    mut tracer: Option<&mut Tracer>,
    job_base: u64,
) -> u64 {
    let mut failed = 0;
    for (i, (c, r)) in inputs.calls.iter().zip(&inputs.references).enumerate() {
        let out = times.time(|| match tracer.as_deref_mut() {
            Some(tr) => tr.span(names[i], job_base + i as u64, || invoke(inputs, c)),
            None => invoke(inputs, c),
        });
        if !matches!(out, Ok(ref o) if o.matches(r)) {
            failed += 1;
        }
    }
    failed
}

pub fn params() -> Vec<(&'static str, String)> {
    vec![
        (
            "loop",
            "closed, 1 caller, round-robin over every call".into(),
        ),
        ("kernels", "spmm,spgemm,mttkrp,spttm (+ *_parallel)".into()),
        (
            "matrix_formats",
            gen::MATRIX_FORMATS.map(|(n, _)| n).join(","),
        ),
        (
            "tensor_formats",
            gen::TENSOR_FORMATS.map(|(n, _)| n).join(","),
        ),
        (
            "operands",
            "dia: banded 1536^2 15 bands; bsr2x2: 768^2 2x2 blocks at 2%; dense: 192^2 ~7k nnz; \
             others: 1024^2 ~12k nnz; tensors 96^3 ~30k nnz (dense layout 44^3 ~16k nnz)"
                .into(),
        ),
        ("spmm_cols", gen::SPMM_COLS.to_string()),
        ("tensor_rank", gen::TENSOR_RANK.to_string()),
        (
            "parallel_workers",
            k::parallel::worker_count(usize::MAX).to_string(),
        ),
    ]
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<RunOut, String> {
    let (inputs, setup_s) = repeat_setup(SETUP_REPEATS, || setup(seed))?;
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    // Span names are `&'static str`; the 60 call names are leaked once.
    let names: Vec<&'static str> = inputs
        .calls
        .iter()
        .map(|c| &*Box::leak(c.name().into_boxed_str()))
        .collect();
    let mut tracer = trace.then(|| Tracer::new(Instant::now()));
    let (mut times, mut traced_times) = (Times::default(), Times::default());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let calls = inputs.calls.len();
    let mut stream_over_fast: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let budget = seconds * if trace { 0.8 } else { 1.0 };
    let start = Instant::now();
    let mut rounds = 0u64;
    while secs(start) < budget {
        failed += round(&inputs, &names, &mut times, None, 0);
        attempted += calls as u64;
        if let Some(tr) = tracer.as_mut() {
            let base = rounds * calls as u64;
            failed += round(&inputs, &names, &mut traced_times, Some(tr), base);
            attempted += calls as u64;
            // The generic stream path against the CSR/COO fast path.
            for mo in inputs
                .matrices
                .iter()
                .filter(|m| matches!(m.label, "csr" | "coo"))
            {
                let t = Instant::now();
                let fast = k::spmm(&mo.a, &mo.dense);
                let fast_s = secs(t);
                let t = Instant::now();
                let stream = k::spmm_via_stream(&mo.a, &mo.dense);
                let stream_s = secs(t);
                attempted += 2;
                if fast.is_err() || fast != stream {
                    failed += 1;
                }
                stream_over_fast
                    .entry(mo.label)
                    .or_default()
                    .push(stream_s / fast_s);
            }
        }
        rounds += 1;
    }
    let jobs_per_cpu_s = closed_loop(&times.cpu, calls).0;
    m.put("jobs_per_cpu_s", jobs_per_cpu_s, "jobs/cpu-s");
    let wall = closed_loop_wall(&times.wall, calls);
    let pairs: Vec<_> = inputs
        .matrices
        .iter()
        .filter(|m| matches!(m.label, "csr" | "bsr2x2" | "dia"))
        .map(|m| (&m.a_coo, &m.b_coo))
        .collect();
    let modeled = model::modeled(&pairs)?;
    m.put("sim_cycles_per_job", modeled.sim_cycles_per_job, "cycles");
    m.put("model_speedup_vs_sw_conv", modeled.speedup_vs_sw_conv, "x");
    eprintln!(
        "kernels: {rounds} rounds of {calls} calls over {:.1} s",
        secs(start)
    );

    let mut spans = None;
    if let Some(tr) = tracer {
        m.put(
            "bench.trace_overhead",
            jobs_per_cpu_s / closed_loop(&traced_times.cpu, calls).0,
            "x",
        );
        // Per-call wall time: the parallel variants' gain is in wall time.
        let medians_ms: Vec<f64> = class_medians(&traced_times.wall, calls)
            .iter()
            .map(|s| s * 1e3)
            .collect();
        for (c, med) in inputs.calls.iter().zip(&medians_ms) {
            m.put(format!("{}_ms", c.name()), *med, "ms");
        }
        for kernel in MATRIX_KERNELS.iter().chain(&TENSOR_KERNELS) {
            let ratios: Vec<f64> = inputs
                .calls
                .iter()
                .zip(&medians_ms)
                .filter(|(c, _)| c.kernel == *kernel && !c.parallel)
                .map(|(c, seq)| {
                    let par = inputs
                        .calls
                        .iter()
                        .zip(&medians_ms)
                        .find(|(p, _)| p.parallel && p.kernel == c.kernel && p.format == c.format)
                        .map_or(f64::NAN, |(_, ms)| *ms);
                    seq / par
                })
                .collect();
            m.put(
                format!("kernels.{kernel}.par_speedup"),
                geomean(&ratios),
                "x",
            );
        }
        for (label, ratios) in &stream_over_fast {
            m.put(
                format!("kernels.spmm.stream_over_fast.{label}"),
                median(ratios),
                "x",
            );
        }
        spans = Some(tr);
    }
    m.put("peak_rss_mb", crate::util::peak_rss_mb(), "MB");
    Ok(RunOut {
        metrics: m,
        wall,
        attempted,
        failed,
        params: params(),
        spans,
    })
}
