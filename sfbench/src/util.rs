//! Small shared helpers: a seeded generator, order statistics, the metric
//! table, the host record and the result line.

use std::fmt::Write as _;
use std::time::Instant;

/// SplitMix64: derives every per-input seed from the `--seed` argument.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The `q`-quantile (nearest rank) of unsorted samples; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Latency samples per window: ten samples beyond the p99 in every window.
pub const LATENCY_WINDOW: usize = 1000;

/// The p99 of time-ordered latency samples: the p99 of each window of
/// `LATENCY_WINDOW` consecutive samples, median across windows. A burst of
/// host noise moves the p99 of the windows it falls in, not their median.
pub fn windowed_p99(samples: &[f64]) -> f64 {
    let windows = (samples.len() / LATENCY_WINDOW).max(1);
    let len = samples.len().div_ceil(windows).max(1);
    let per_window: Vec<f64> = samples.chunks(len).map(|w| quantile(w, 0.99)).collect();
    median(&per_window)
}

/// `(jobs per second, p50 ms, p99 ms)` of a closed loop over a fixed mix of
/// `classes` jobs, from per-job seconds on one clock in issue order (job
/// `i` is of class `i % classes`). Each class is summarised by its median
/// time, so no statistic sits on the boundary between two classes:
///
/// - jobs per second: `classes` ÷ the sum of the class medians, one pass
///   of the mix at each job's median time;
/// - p50: the geomean of the class medians;
/// - p99: p50 × the windowed p99 of every job's time ÷ its class median.
pub fn closed_loop(times: &[f64], classes: usize) -> (f64, f64, f64) {
    let medians = class_medians(times, classes);
    let relative: Vec<f64> = times
        .iter()
        .enumerate()
        .map(|(i, t)| t / medians[i % classes])
        .collect();
    let p50_ms = geomean(&medians) * 1e3;
    (
        classes as f64 / medians.iter().sum::<f64>(),
        p50_ms,
        p50_ms * windowed_p99(&relative),
    )
}

/// The median of each class's samples, where sample `i` is of class
/// `i % classes`.
pub fn class_medians(times: &[f64], classes: usize) -> Vec<f64> {
    (0..classes)
        .map(|c| {
            let own: Vec<f64> = times.iter().skip(c).step_by(classes).copied().collect();
            median(&own)
        })
        .collect()
}

/// The wall-clock figures of a closed loop: [`closed_loop`] on wall time.
pub fn closed_loop_wall(wall: &[f64], classes: usize) -> Metrics {
    let (rate, p50_ms, p99_ms) = closed_loop(wall, classes);
    let mut m = Metrics::default();
    m.put("jobs_per_s", rate, "jobs/s");
    m.put("latency_p50_ms", p50_ms, "ms");
    m.put("latency_p99_ms", p99_ms, "ms");
    m
}

/// Per-job seconds of a closed loop, in issue order, on both clocks.
#[derive(Debug, Default)]
pub struct Times {
    pub cpu: Vec<f64>,
    pub wall: Vec<f64>,
}

impl Times {
    /// Run `f` and record its time on both clocks.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (t, c) = (Instant::now(), cpu_s());
        let out = f();
        self.cpu.push(cpu_since(c));
        self.wall.push(secs(t));
        out
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
    }
}

/// Seconds since `t`, as f64.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// CPU seconds the process has used so far, over all its threads, live or
/// exited (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// The end-to-end timings use this clock, not the wall clock. A shared VM
/// loses its vCPUs to other guests (steal) for up to ~40% of a run. The
/// kernel's task clock leaves that time out, so this clock counts the
/// program's own work, while the wall clock also counts its neighbours'.
pub fn cpu_s() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (both fields are
    // `long` on Linux), and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU seconds since `t0`, a reading of [`cpu_s`].
pub fn cpu_since(t0: f64) -> f64 {
    cpu_s() - t0
}

/// Run the set-up `times` times and return the last result plus the
/// median CPU seconds it took, so `setup_s` is a median.
pub fn repeat_setup<T, E>(
    times: usize,
    mut f: impl FnMut() -> Result<T, E>,
) -> Result<(T, f64), E> {
    let mut durations = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let t = cpu_s();
        last = Some(f()?);
        durations.push(cpu_since(t));
    }
    Ok((last.expect("at least one set-up"), median(&durations)))
}

/// Ordered `(name, value, unit)` metric table.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if let Some(slot) = self.0.iter_mut().find(|(n, _, _)| *n == name) {
            slot.1 = value;
        } else {
            self.0.push((name, value, unit));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Keep exactly the catalogued metrics, in catalogue order; a metric
    /// the workload did not produce reads 0 (its layer was not run).
    pub fn select(&self, catalogue: &[(String, &'static str)]) -> Metrics {
        Metrics(
            catalogue
                .iter()
                .map(|(name, unit)| (name.clone(), self.get(name).unwrap_or(0.0), *unit))
                .collect(),
        )
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit of the checkout, read from `.git` in the working directory
/// without leaving it; `unknown` in an exported tree.
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(c) = std::fs::read_to_string(format!(".git/{reference}")) {
        return c.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number with every digit the f64 carries (non-finite reads 0).
pub fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The host record printed with every result: what a reader needs to
/// compare numbers across machines and commits.
pub fn host_record(workload: &str, seed: u64, params: &[(&str, String)]) -> String {
    let workers_env = std::env::var("SPARSEFLEX_WORKERS").ok();
    let mut s = format!(
        "{{\"nproc\": {}, \"rustc\": {}, \"git_commit\": {}, \"workload\": {}, \"seed\": {}, \
         \"sparseflex_workers_set\": {}, \"sparseflex_workers\": {}, \"params\": {{",
        nproc(),
        jstr(env!("SFBENCH_RUSTC_VERSION")),
        jstr(&git_commit()),
        jstr(workload),
        seed,
        workers_env.is_some(),
        jstr(workers_env.as_deref().unwrap_or("")),
    );
    for (i, (k, v)) in params.iter().enumerate() {
        let _ = write!(
            s,
            "{}{}: {}",
            if i > 0 { ", " } else { "" },
            jstr(k),
            jstr(v)
        );
    }
    s.push_str("}}");
    s
}

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let _ = write!(
            s,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if i > 0 { ", " } else { "" },
            jstr(name),
            jnum(*value),
            jstr(unit)
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn closed_loop_summarises_each_class_by_its_median() {
        // Two classes, 1 ms and 4 ms, with one slow outlier in class 0.
        let mut times: Vec<f64> = (0..4000)
            .map(|i| if i % 2 == 0 { 1e-3 } else { 4e-3 })
            .collect();
        times[0] = 9e-3;
        let (rate, p50, p99) = closed_loop(&times, 2);
        assert!((rate - 2.0 / 5e-3).abs() < 1e-6);
        assert!((p50 - 2.0).abs() < 1e-9);
        assert!((p99 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.put("latency_p50_ms", 0.125, "ms");
        let line = result_line(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 0.125, \"unit\": \"ms\"}}}"
        );
    }
}
