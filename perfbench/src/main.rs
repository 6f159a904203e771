//! End-to-end benchmark of the atomask workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <detect|verify|masked-calls|repro> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints per-configuration rows, then as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones of a separate traced run, whose spans are written to
//! `.bench_out/spans-<workload>-seed<n>.tsv`. See `perfbench/README.md`.

#![forbid(unsafe_code)]

mod bench;
mod plan;
mod probe;
mod spans;
mod stats;
mod workloads;

use bench::{Bench, Metric};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <detect|verify|masked-calls|repro> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Checked command line.
struct Args {
    workload: fn(&mut Bench),
    workload_name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let workload_name = value("--workload")?.to_owned();
    let workload: fn(&mut Bench) = match workload_name.as_str() {
        "detect" => workloads::detect::run,
        "verify" => workloads::verify::run,
        "masked-calls" => workloads::masked_calls::run,
        "repro" => workloads::repro::run,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let seconds = number("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must lie in 1..=600, not {seconds}"));
    }
    Ok(Args {
        workload,
        workload_name,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// The engine reads `ATOMASK_*` variables even under explicit settings
/// (`CheckpointStride::Auto` consults `ATOMASK_CKPT_STRIDE`), so any of
/// them could move the numbers: refuse to run instead.
fn engine_env() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("ATOMASK_"))
        .collect()
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The result line. Metric names and units are fixed identifiers that need
/// no JSON escaping.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Share of traced op time spent in the benchmark's own code rather than
/// inside the library calls its spans wrap, %.
fn harness_self_pct(b: &Bench) -> f64 {
    let self_ns = b.tracer.self_times_ns();
    let (mut own, mut total) = (0u64, 0u64);
    for (span, ns) in b.tracer.spans().iter().zip(self_ns) {
        if span.parent.is_none() && span.name.ends_with(".op") {
            own += ns;
            total += span.duration_ns();
        }
    }
    100.0 * own as f64 / total.max(1) as f64
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let env = engine_env();
    if !env.is_empty() {
        eprintln!(
            "perfbench: refusing to run with engine variables set ({}); they change \
             what the campaigns execute. Unset them and retry.",
            env.join(", ")
        );
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} profile={profile}",
        args.workload_name, args.seed, args.seconds, args.trace as u8
    );

    let mut b = Bench::new(args.seed, args.seconds, args.trace, nproc);
    (args.workload)(&mut b);

    let setup_s = stats::median(&b.setup_s).unwrap_or(0.0);
    let rss = peak_rss_mb().unwrap_or(0.0);
    if args.trace {
        let pct = harness_self_pct(&b);
        b.layer("harness_self_pct", pct, "%");
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!(
            "spans-{}-seed{}.tsv",
            args.workload_name, args.seed
        ));
        let header = format!(
            "# workload={} seed={} nproc={nproc} profile={profile}\n",
            args.workload_name, args.seed
        );
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, header + &b.tracer.to_tsv()));
        match written {
            Ok(()) => b.lines.push(format!("spans written to {}", path.display())),
            Err(e) => b.problems.push(format!("writing {}: {e}", path.display())),
        }
    } else {
        b.e2e("setup_s", setup_s, "s");
        b.e2e("peak_rss_mb", rss, "MB");
    }
    b.lines.push(format!(
        "setup_s samples: {:?} ; peak_rss_mb = {rss}",
        b.setup_s
    ));
    for line in &b.lines {
        println!("{line}");
    }
    for f in b.failures.iter().chain(&b.problems).take(20) {
        println!("FAILED: {f}");
    }
    let metrics = if args.trace {
        &b.per_layer
    } else {
        &b.end_to_end
    };
    let correct = b.failures.is_empty() && b.problems.is_empty();
    println!(
        "{}",
        result_line(correct, b.attempted, b.failures.len() as u64, metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload repro --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload_name.as_str(), a.seed, a.seconds, a.trace),
            ("repro", 7, 10, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload detect --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload detect --seed 1 --seconds 5 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload detect --seed 1 --seconds 5")).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let m = [Metric {
            name: "unit_us".into(),
            value: 1.25,
            unit: "us",
        }];
        assert_eq!(
            result_line(true, 3, 0, &m),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"unit_us": {"value": 1.25, "unit": "us"}}}"#
        );
    }
}
