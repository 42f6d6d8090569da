//! `perfbench` — run one benchmark workload and print its metrics.
//!
//! ```text
//! perfbench --workload paper-tables|serve-frames|gallery-10k
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints the workload's own figures (`detail {…}`) and a host record,
//! then as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics, or with `--trace 1`
//! the per-layer ones, the same names on every workload. A traced run
//! also writes its spans to `perfbench/out/trace-<workload>-<seed>.jsonl`.

use std::path::PathBuf;
use std::process::ExitCode;

use taor_perfbench::trace::{SpanId, Tracer};
use taor_perfbench::{gallery, host, paper, per_layer, serve, Metric, Outcome, RunOpts};

const WORKLOADS: [&str; 3] = ["paper-tables", "serve-frames", "gallery-10k"];

struct Args {
    workload: String,
    opts: RunOpts,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad("duration"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        opts: RunOpts {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
            small: false,
        },
    })
}

fn metrics_json(metrics: &[Metric]) -> Result<String, String> {
    let mut parts = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        parts.push(format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, m.value, m.unit));
    }
    Ok(format!("{{{}}}", parts.join(",")))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload != "paper-tables" {
        // The service and gallery workloads run at pool width 1; set
        // before any thread exists and before the pool reads it.
        std::env::set_var("TAOR_THREADS", "1");
    }
    let tracer = Tracer::new(args.opts.trace);
    let probe_before = tracer.span("host.probe", SpanId::NONE, 0, |_| host::probe_ms());
    let mut out: Outcome = match args.workload.as_str() {
        "paper-tables" => paper::run(&args.opts, &tracer),
        "serve-frames" => serve::run(&args.opts, &tracer),
        _ => gallery::run(&args.opts, &tracer),
    };
    let probe_after = tracer.span("host.probe", SpanId::NONE, 0, |_| host::probe_ms());
    let Some(rss) = host::peak_rss_mb() else {
        eprintln!("perfbench: cannot read the peak resident set");
        return ExitCode::from(1);
    };
    out.e2e("peak_rss_mb", rss, "MiB");

    let metrics = if args.opts.trace {
        // The traced run's end-to-end figures, set against an untraced
        // run's, give the tracing overhead.
        match metrics_json(&out.end_to_end) {
            Ok(m) => println!("traced_end_to_end {m}"),
            Err(e) => eprintln!("perfbench: {e}"),
        }
        let layers = match per_layer(&out, &tracer, (probe_before + probe_after) / 2.0) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        };
        let path = PathBuf::from(format!(
            "perfbench/out/trace-{}-{}.jsonl",
            args.workload, args.opts.seed
        ));
        if let Err(e) = tracer.write(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
        layers
    } else {
        out.end_to_end.clone()
    };
    let (metrics, detail) = match (metrics_json(&metrics), metrics_json(&out.detail)) {
        (Ok(m), Ok(d)) => (m, d),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for f in out.failures.iter().take(10) {
        eprintln!("perfbench: failed {f}");
    }
    println!("detail {detail}");
    println!("host {}", host::record(&args.workload, args.opts.seed, probe_before, probe_after));
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics
    );
    ExitCode::SUCCESS
}
