//! `perfbench --workload <weaver|tourney|serve-mixed> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! line before it carries the host fingerprint and the configuration
//! that ran. A traced run also writes its spans to
//! `.perfbench/spans-<workload>-<seed>.tsv`.

use perfbench::offline::{self, Batch};
use perfbench::report::Report;
use perfbench::trace::Tracer;
use perfbench::{host, serve_mixed};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is not in (0, 600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val}")),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Per-layer metrics of the serve path, which the batch workloads never
/// cross: reported there as 0.
const SERVE_ONLY: [(&str, &str); 16] = [
    ("serve.construct_ms", "ms"),
    ("serve.exec_ms.stream", "ms"),
    ("serve.exec_ms.rubik_run", "ms"),
    ("serve.wire_ms.stream", "ms"),
    ("serve.wire_ms.open", "ms"),
    ("serve.stream_p99_ms", "ms"),
    ("serve.stream_alone_p99_ms", "ms"),
    ("serve.interference_p99_ms", "ms"),
    ("serve.open_p50_ms", "ms"),
    ("serve.open_p99_ms", "ms"),
    ("serve.sessions_per_s", "1/s"),
    ("serve.refused.busy", "count"),
    ("serve.refused.overloaded", "count"),
    ("serve.refused.err", "count"),
    ("serve.rss_kb_per_kreq", "kB"),
    ("driver.late_p99_ms", "ms"),
];

fn run(args: &Args, r: &mut Report) -> Result<(), String> {
    let knobs = host::set_knobs();
    if !knobs.is_empty() {
        return Err(format!(
            "refusing to run with {} set: the benchmark measures the shipped \
             default configuration",
            knobs.join(", ")
        ));
    }
    for (k, v) in host::fingerprint() {
        r.info(k, v);
    }
    r.info("workload", &args.workload);
    r.info("seed", args.seed);
    r.info("seconds", args.seconds);
    r.info("trace", u8::from(args.trace));
    let batch = match args.workload.as_str() {
        "weaver" => Some(Batch::Weaver),
        "tourney" => Some(Batch::Tourney),
        "serve-mixed" => None,
        other => return Err(format!("unknown workload {other}")),
    };
    let tr = Tracer::default();
    let server = serve_mixed::default_server_bin();
    let ticks = host::cpu_ticks();
    match (batch, args.trace) {
        (Some(b), false) => {
            offline::run_untraced(b, args.seed, args.seconds, r).map_err(|e| e.to_string())?
        }
        (Some(b), true) => {
            offline::run_traced(b, args.seed, args.seconds, r, &tr).map_err(|e| e.to_string())?;
            for (name, unit) in SERVE_ONLY {
                r.metric(name, 0.0, unit);
            }
        }
        (None, false) => serve_mixed::run_untraced(&server, args.seed, args.seconds, r)
            .map_err(|e| e.to_string())?,
        (None, true) => serve_mixed::run_traced(&server, args.seed, args.seconds, r, &tr)
            .map_err(|e| e.to_string())?,
    }
    // Latency on a shared virtual machine follows the hypervisor's steal.
    r.info(
        "host_steal_share",
        host::steal_share(ticks, host::cpu_ticks()),
    );
    if args.trace {
        r.metric(
            "failed_share",
            r.failed as f64 / r.attempted.max(1) as f64,
            "share",
        );
        let dir = std::path::Path::new(".perfbench");
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        std::fs::write(&path, tr.to_tsv()).map_err(|e| format!("{}: {e}", path.display()))?;
        r.info("spans", path.display());
        r.info("span_count", tr.mark());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut r = Report::default();
    let outcome = run(&args, &mut r);
    for f in &r.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    match r.result_line() {
        Ok(line) => {
            println!("{}", r.info_line());
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
