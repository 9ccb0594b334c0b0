//! The repository's end-to-end benchmark: three seeded workloads that
//! drive the simulator and `um-serve` through their public interfaces.
//!
//! ```text
//! um-benchmark --workload <qos-search|rack-512|serve-mix> --seed N
//!              --seconds S --trace <0|1> --serve-bin PATH [--spans-dir DIR]
//! ```
//!
//! `--trace 0` times the workload with tracing off and prints the
//! end-to-end metrics. `--trace 1` is the separate traced run: it runs
//! each workload's traced part in its own process, the selected one also
//! untraced for the overhead ratio, and prints every per-layer metric.
//! The last line of stdout is the result object; see README.md.

mod helpers;
mod inputs;
mod qos_search;
mod rack;
mod serve_mix;
mod spans;

use std::path::PathBuf;
use std::process::{Command, Stdio};

use um_bench::benchjson::Json;

use helpers::{result_line, Metric, Outcomes};
use spans::Spans;

/// What one workload run measured and how its checks went.
pub struct Run {
    pub metrics: Vec<Metric>,
    pub outcomes: Outcomes,
}

const WORKLOADS: [&str; 3] = ["qos-search", "rack-512", "serve-mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run only this workload's traced part (a child of `--trace 1`).
    part: bool,
    /// In a traced part, also time the workload untraced and report
    /// `trace.overhead_ratio`.
    overhead: bool,
    serve_bin: PathBuf,
    spans_dir: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("um-benchmark: {msg}");
    eprintln!(
        "usage: um-benchmark --workload <{}> --seed N --seconds S --trace <0|1> --serve-bin PATH [--spans-dir DIR]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: inputs::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        part: false,
        overhead: false,
        serve_bin: PathBuf::new(),
        spans_dir: PathBuf::from("spans"),
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--part" || flag == "--overhead" {
            args.part |= flag == "--part";
            args.overhead |= flag == "--overhead";
            continue;
        }
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = || -> ! { usage(&format!("bad value {value:?} for {flag}")) };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| bad()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            "--serve-bin" => args.serve_bin = PathBuf::from(value),
            "--spans-dir" => args.spans_dir = PathBuf::from(value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    args
}

fn untraced(args: &Args) -> Result<Run, String> {
    Ok(match args.workload.as_str() {
        "qos-search" => qos_search::e2e(args.seed, args.seconds),
        "rack-512" => rack::e2e(args.seed, args.seconds),
        _ => serve_mix::e2e(args.seed, args.seconds, &args.serve_bin)?,
    })
}

/// One workload's traced part; its spans go to the spans directory.
fn traced_part(args: &Args) -> Result<Run, String> {
    let mut spans = Spans::new(true);
    let run = match args.workload.as_str() {
        "qos-search" => qos_search::traced(args.seed, &mut spans, args.overhead),
        "rack-512" => rack::traced(args.seed, &mut spans, args.overhead),
        _ => serve_mix::traced(
            args.seed,
            args.seconds,
            &args.serve_bin,
            &mut spans,
            args.overhead,
        )?,
    };
    let path = args
        .spans_dir
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "um-benchmark: {} spans written to {}",
        spans.spans().len(),
        path.display()
    );
    Ok(run)
}

/// Runs this binary again as a traced part and parses its result line.
fn child(args: &Args, workload: &str) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "1", "--part"])
        .arg("--serve-bin")
        .arg(&args.serve_bin)
        .arg("--spans-dir")
        .arg(&args.spans_dir)
        .stderr(Stdio::inherit());
    if workload == args.workload {
        cmd.arg("--overhead");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("running the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("the {workload} child failed: {}", out.status));
    }
    let line = stdout.lines().last().ok_or("the child printed nothing")?;
    let doc = Json::parse(line)?;
    let num = |k: &str| doc.get(k).and_then(Json::as_num).map(|v| v as u64);
    let mut outcomes = Outcomes {
        attempted: num("attempted").ok_or("no attempted")?,
        failed: num("failed").ok_or("no failed")?,
        problems: Vec::new(),
    };
    if outcomes.failed > 0 {
        outcomes.problems.push(format!(
            "{workload}: {} operations failed in a child run",
            outcomes.failed
        ));
    }
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("no metrics")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_num).unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            Metric::new(name.clone(), value, unit)
        })
        .collect();
    Ok(Run { metrics, outcomes })
}

/// `--trace 1`: every workload's traced part, each in a process of its
/// own so that peak memory and warm caches do not carry over.
fn traced_suite(args: &Args) -> Result<Run, String> {
    let mut run = Run {
        metrics: Vec::new(),
        outcomes: Outcomes::default(),
    };
    for workload in WORKLOADS {
        let part = child(args, workload)?;
        run.outcomes.merge(part.outcomes);
        run.metrics.extend(part.metrics);
    }
    if !run.metrics.iter().any(|m| m.name == "trace.overhead_ratio") {
        return Err("the selected workload's part reported no overhead ratio".into());
    }
    Ok(run)
}

fn main() {
    let args = parse_args();
    let result = match (args.trace, args.part) {
        (false, _) => untraced(&args),
        (true, true) => traced_part(&args),
        (true, false) => traced_suite(&args),
    };
    match result {
        Ok(run) => {
            for p in &run.outcomes.problems {
                eprintln!("um-benchmark: FAILED: {p}");
            }
            println!("{}", result_line(&run.outcomes, &run.metrics));
        }
        Err(e) => {
            eprintln!("um-benchmark: {e}");
            std::process::exit(1);
        }
    }
}
