//! Options and helpers the three workloads share.

use std::time::Instant;

use ftcoma_machine::{Machine, RunMetrics};

use crate::report::{self, fast_time, median, Report};
use crate::tracer::Tracer;

/// Set-ups measured before the first timed call; more follow between ops.
const SETUP_FIRST: usize = 5;

/// Command-line options of one benchmark run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Shrinks every workload to a few hundred milliseconds (tests only).
    pub short: bool,
}

/// Repeats `op` until `seconds` have passed, stopping only after a
/// multiple of `granule` calls (a whole cycle of untraced and traced ops),
/// so a slower host runs fewer cycles of the same work, never a different
/// mix of it.
pub fn repeat_for(seconds: f64, granule: usize, mut op: impl FnMut(usize)) {
    let t = Instant::now();
    let mut i = 0;
    while i == 0 || i % granule != 0 || t.elapsed().as_secs_f64() < seconds {
        op(i);
        i += 1;
    }
}

/// Spreads a single-threaded workload over every CPU the process may use:
/// [`CpuRotation::pin`] moves the calling thread to the next one, and
/// dropping the rotation restores the original mask. On a shared 2-vCPU
/// host, one vCPU ran 1.3-1.8x slower than the other for minutes at a
/// time, and which one changed; the scheduler keeps a lone busy thread
/// where it started, so an unpinned run measured one CPU's speed by
/// chance and ten runs split into a fast and a slow group.
pub struct CpuRotation {
    original: Option<affinity::CpuSet>,
    cpus: Vec<usize>,
}

impl CpuRotation {
    pub fn new() -> Self {
        let original = affinity::get();
        let cpus = original.map_or(Vec::new(), |set| {
            (0..set.len() * 64)
                .filter(|&c| set[c / 64] & (1 << (c % 64)) != 0)
                .collect()
        });
        CpuRotation { original, cpus }
    }

    /// Pins the calling thread to the `k`-th allowed CPU, cyclically.
    pub fn pin(&self, k: usize) {
        if self.cpus.len() > 1 {
            let c = self.cpus[k % self.cpus.len()];
            let mut set = [0u64; 16];
            set[c / 64] = 1 << (c % 64);
            affinity::set(&set);
        }
    }
}

impl Drop for CpuRotation {
    fn drop(&mut self) {
        if let Some(set) = &self.original {
            affinity::set(set);
        }
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    /// glibc's `cpu_set_t`: 1024 CPUs.
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> std::os::raw::c_int;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> std::os::raw::c_int;
    }

    /// The calling thread's CPU mask, if the kernel reports it.
    pub fn get() -> Option<CpuSet> {
        let mut set = [0u64; 16];
        // SAFETY: `set` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    /// Sets the calling thread's CPU mask. A refused mask leaves the
    /// thread where it was, which only makes the run unpinned.
    pub fn set(set: &CpuSet) {
        // SAFETY: `set` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set);
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub type CpuSet = [u64; 16];

    pub fn get() -> Option<CpuSet> {
        None
    }

    pub fn set(_: &CpuSet) {}
}

/// Set-up samples. One set-up builds every machine one op of the workload
/// starts from and returns each `Machine::new`'s seconds. A few run
/// before the first timed call and the rest between ops, so the median
/// sees the host as the whole run does, not only its first moments. Each
/// starts from a trimmed heap, as a fresh process would, instead of from
/// whatever the previous op left free.
pub struct Setup<F> {
    build: F,
    totals: Vec<f64>,
    news: Vec<f64>,
}

impl<F: FnMut(&mut Tracer) -> Vec<f64>> Setup<F> {
    pub fn new(tr: &mut Tracer, build: F) -> Self {
        let mut s = Setup {
            build,
            totals: Vec::new(),
            news: Vec::new(),
        };
        s.sample(tr, SETUP_FIRST);
        s
    }

    /// Measures `reps` more set-ups.
    pub fn sample(&mut self, tr: &mut Tracer, reps: usize) {
        for _ in 0..reps {
            report::trim_heap();
            let (new_secs, secs) = tr.span("bench.setup", &mut self.build);
            self.totals.push(secs);
            self.news.extend(new_secs);
        }
    }

    /// Sets `setup_s` and `machine.new_ms` from every sample.
    pub fn finish(&self, report: &mut Report) {
        report.set("setup_s", fast_time(&self.totals));
        report.set("machine.new_ms", median(&self.news) * 1e3);
    }
}

/// Builds one machine inside a span; returns it with the seconds taken.
pub fn new_machine(tr: &mut Tracer, cfg: ftcoma_machine::MachineConfig) -> (Machine, f64) {
    tr.span("machine.new", |_| Machine::new(cfg))
}

/// How one machine run went.
pub struct RunResult {
    pub metrics: RunMetrics,
    /// Host seconds inside `Machine::run` / `Machine::run_until`.
    pub run_s: f64,
    /// Simulated references, warmup included.
    pub refs: u64,
    /// Host seconds of each `run_until` epoch (traced runs only).
    pub epochs: Vec<f64>,
}

/// Runs `m` to completion. A traced run advances in epochs of `epoch`
/// simulated cycles through `Machine::run_until` until every stream has
/// emitted `quota` references, then finishes with `Machine::run`; the
/// composite run is byte-identical to a straight one.
pub fn run_machine(tr: &mut Tracer, m: &mut Machine, epoch: u64, quota: u64) -> RunResult {
    let mut epochs = Vec::new();
    if tr.is_on() {
        // A halted machine stops emitting; give up on epochs after a long
        // stretch without progress and let `run` finish it.
        let (mut k, mut last, mut idle) = (1u64, 0u64, 0u32);
        while idle < 200 {
            let progress = m.stream_progress();
            if progress.iter().all(|&p| p >= quota) {
                break;
            }
            let emitted: u64 = progress.iter().sum();
            idle = if emitted == last { idle + 1 } else { 0 };
            last = emitted;
            let ((), secs) = tr.span("machine.run_until", |_| m.run_until(k * epoch));
            epochs.push(secs);
            k += 1;
        }
    }
    let (metrics, secs) = tr.span("machine.run", |_| m.run());
    RunResult {
        metrics,
        run_s: epochs.iter().sum::<f64>() + secs,
        refs: m.stream_progress().iter().sum(),
        epochs,
    }
}

/// Sets the per-op self time of every layer, over the spans under roots
/// named `root`, divided by `ops`.
pub fn set_self_times(report: &mut Report, tr: &Tracer, root: &str, ops: usize) {
    let by_layer = tr.self_ms_by_layer(root);
    for (layer, metric) in [
        ("bench", "self.bench_ms"),
        ("machine", "self.machine_ms"),
        ("export", "self.export_ms"),
        ("campaign", "self.campaign_ms"),
        ("chaos", "self.chaos_ms"),
    ] {
        let ms = by_layer.get(layer).copied().unwrap_or(0.0);
        report.set(metric, ms / ops.max(1) as f64);
    }
}

/// Sets `bench.trace_overhead_pct` from op wall times with tracing off
/// and on.
pub fn set_trace_overhead(report: &mut Report, untraced: &[f64], traced: &[f64]) {
    report.set(
        "bench.trace_overhead_pct",
        (median(traced) / median(untraced) - 1.0) * 100.0,
    );
}
