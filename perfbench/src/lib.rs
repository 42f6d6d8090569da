//! End-to-end and per-layer benchmark of the taor system.
//!
//! Three workloads, each run in its own process by the `perfbench`
//! binary:
//!
//! * [`paper`] — all nine tables through `PreparedRepro` at Table 1
//!   cardinalities (the `repro --medium` configuration);
//! * [`serve`] — an in-process `taor-serve` answering two simulated
//!   robots that pipeline frames of crops on an open-loop schedule;
//! * [`gallery`] — HNSW and MIH built over a 10,500-view
//!   `gallery_grid` catalogue and queried one query at a time.
//!
//! Every workload times calls into the repository's public functions
//! from this package, checks each answer against a computation made
//! apart from the timed path (or against a property the method must
//! have), and reports the same end-to-end metrics as the others, each
//! filled from its own work. With tracing on it also records spans
//! around each layer call ([`trace`]) and reports the per-layer metrics
//! ([`per_layer`]) instead. Figures only one workload has (a table's
//! time, a query percentile) are its [`Outcome::detail`].

pub mod gallery;
pub mod host;
pub mod paper;
pub mod serve;
pub mod trace;

use std::time::{Duration, Instant};

use trace::Tracer;

/// The layers a span name starts with (`layer.call`), in the order the
/// per-layer metrics list them: the benchmark's own glue and checks, the
/// host probe, then the repository's layers and the load generator.
pub const LAYERS: [&str; 10] =
    ["bench", "host", "data", "imgproc", "features", "ann", "core", "nn", "serve", "gen"];

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload seed: every input is a function of it.
    pub seed: u64,
    /// How long the measured phase runs. Workloads made of rounds run
    /// as many whole rounds as fit (always at least one).
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Full scale, or the reduced inputs the package's own tests use.
    pub small: bool,
}

impl RunOpts {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }
}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back to the binary.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Reason of every failed operation (the first few are printed).
    pub failures: Vec<String>,
    /// `setup_s` and `result_s`; the binary adds `peak_rss_mb`.
    pub end_to_end: Vec<Metric>,
    /// Figures of this workload alone, printed on a `detail` line.
    pub detail: Vec<Metric>,
}

impl Outcome {
    /// Count one operation, failed when `problems` is non-empty.
    pub fn op(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures.push(format!("{what}: {}", problems.join("; ")));
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name: name.to_string(), value, unit });
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.detail.push(Metric { name: name.to_string(), value, unit });
    }

    /// Look a metric up by name in either list.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.end_to_end.iter().chain(&self.detail).find(|m| m.name == name).map(|m| m.value)
    }
}

/// The per-layer metrics of a traced run, the same names on every
/// workload: the time the workload's own rendering took
/// (`data.render_s`, from its detail), the host probe, the pool width,
/// the share of wall time root spans cover, and each layer's self time
/// as a share of the run's wall time (`self_share.<layer>`, 0 for a
/// layer the workload does not call).
pub fn per_layer(out: &Outcome, tr: &Tracer, probe_ms: f64) -> Result<Vec<Metric>, String> {
    let render = out.metric("data.render_s").ok_or("the workload timed no data.render")?;
    let wall = tr.elapsed_s();
    let own = tr.self_seconds();
    if let Some(stray) = own.keys().find(|l| !LAYERS.contains(&l.as_str())) {
        return Err(format!("span layer {stray:?} is not one of {LAYERS:?}"));
    }
    let metric = |name: &str, value, unit| Metric { name: name.to_string(), value, unit };
    let mut metrics = vec![
        metric("data.render_s", render, "s"),
        metric("host.probe_ms", probe_ms, "ms"),
        metric("pool.width", rayon::current_num_threads() as f64, "count"),
        metric("trace.coverage", tr.coverage(), "ratio"),
    ];
    for layer in LAYERS {
        let share = own.get(layer).copied().unwrap_or(0.0) / wall;
        metrics.push(metric(&format!("self_share.{layer}"), share, "ratio"));
    }
    Ok(metrics)
}

/// Run `round(0)`, `round(1)`, … while the next round, at the mean
/// round time so far, still ends within `budget`; always at least one.
/// Returns the number of rounds run.
pub fn run_rounds(budget: Duration, mut round: impl FnMut(u64)) -> u64 {
    let started = Instant::now();
    let mut n = 0;
    loop {
        round(n);
        n += 1;
        let spent = started.elapsed();
        if spent + spent / n as u32 > budget {
            return n;
        }
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median of `values` (mean of the middle two for an even count); 0
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in `[0, 100]`; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Run `f` `reps` times and return the median wall time in seconds of
/// one call, with the last result.
pub fn timed_median<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let out = std::hint::black_box(f());
        times.push(secs(t));
        last = Some(out);
    }
    (median(&times), last.expect("at least one repetition ran"))
}
