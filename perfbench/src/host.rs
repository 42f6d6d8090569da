//! The host record printed with every run: enough to tell host drift
//! from a regression when two runs are compared.

use std::time::Instant;

/// A fixed scalar workload (a 192³ f64 matrix product, no SIMD
/// intrinsics, no threads), timed several times; median milliseconds.
/// Timed before and after a workload, it shows how fast the host ran
/// independently of the code under test.
pub fn probe_ms() -> f64 {
    const N: usize = 192;
    let a: Vec<f64> = (0..N * N).map(|i| (i % 17) as f64 * 0.25).collect();
    let b: Vec<f64> = (0..N * N).map(|i| (i % 13) as f64 * 0.5).collect();
    let mut times = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        let mut c = vec![0.0f64; N * N];
        for i in 0..N {
            for k in 0..N {
                let aik = std::hint::black_box(a[i * N + k]);
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
        std::hint::black_box(&c);
        times.push(crate::secs(t) * 1e3);
    }
    crate::median(&times)
}

/// Peak resident set of this process in MiB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One JSON object describing the host and the run's settings.
pub fn record(workload: &str, seed: u64, probe_before: f64, probe_after: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let (avx2, fma) = (is_x86_feature_detected!("avx2"), is_x86_feature_detected!("fma"));
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, fma) = (false, false);
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"nproc\":{nproc},\"avx2\":{avx2},\
         \"fma\":{fma},\"profile\":\"{profile}\",\"pool_width\":{},\
         \"probe_ms_before\":{probe_before},\"probe_ms_after\":{probe_after}}}",
        rayon::current_num_threads()
    )
}
