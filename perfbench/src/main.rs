//! `wino-perfbench`: the Winograd stack's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table4-offline|net-latency|net-stream> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). See
//! `perfbench/README.md` for what each workload and metric means.

mod bench;
mod net;
mod probes;
mod reference;
mod spans;
mod stats;
mod sys;
mod table4;

use std::process::ExitCode;

#[global_allocator]
static GLOBAL: sys::CountingAlloc = sys::CountingAlloc;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

const WORKLOADS: &[&str] = &["table4-offline", "net-latency", "net-stream"];

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload = value,
            "--workload" => return Err(bad(&format!("expected one of {WORKLOADS:?}"))),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => match value.parse() {
                Ok(s) if (1..=600).contains(&s) => args.seconds = s,
                _ => return Err(bad("expected 1..=600")),
            },
            "--trace" => match value.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                _ => return Err(bad("expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{}",
        sys::header(&args.workload, args.seed, args.seconds, args.trace)
    );
    let report = match (args.workload.as_str(), args.trace) {
        ("table4-offline", false) => table4::run(&args),
        ("table4-offline", true) => table4::run_traced(&args),
        ("net-latency", false) => net::run(net::Shape::Latency, &args),
        ("net-latency", true) => net::run_traced(net::Shape::Latency, &args),
        (_, false) => net::run(net::Shape::Stream, &args),
        (_, true) => net::run_traced(net::Shape::Stream, &args),
    };
    eprintln!("perfbench: peak RSS at exit {:.1} MiB", sys::peak_rss_mib());
    let names: Vec<(String, &str)> = if args.trace {
        bench::per_layer_names()
    } else {
        bench::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut fields = Vec::with_capacity(names.len());
    for (name, unit) in &names {
        match report.metrics.get(name) {
            Some(v) if v.is_finite() => {
                fields.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                ));
            }
            other => {
                eprintln!("perfbench: metric {name} is missing or not finite: {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.broken.is_empty(),
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
