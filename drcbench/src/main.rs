//! The benchmark's command line.
//!
//! ```text
//! cargo run --release --offline --manifest-path drcbench/Cargo.toml -- \
//!     --workload <triage|bulk|score|abductive> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints provenance, knobs, check verdicts (and, traced, the layer table
//! and tracing overhead), then as its last line one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. Untraced
//! runs report the end-to-end metrics, traced runs every per-layer metric
//! and write their spans under `drcbench/out/`.

use std::fmt::Write as _;
use std::process::ExitCode;

use drcbench::{run, Metric, Options, Size, Workload};

const USAGE: &str = "usage: drcbench --workload <triage|bulk|score|abductive> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(i + 1).map(String::as_str).ok_or(format!("missing value for {flag}"))
    };
    for a in args.iter().step_by(2) {
        if !["--workload", "--seed", "--seconds", "--trace"].contains(&a.as_str()) {
            return Err(format!("unexpected argument {a:?}"));
        }
    }
    let workload = value("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = value("--seed")?.parse().map_err(|_| "--seed must be an unsigned integer")?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|_| "--seconds must be a number")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be finite and non-negative".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Options { workload, seed, seconds, trace, size: Size::full() })
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN or infinity: `null` makes a broken metric visible.
        let value = if m.value.is_finite() { format!("{:?}", m.value) } else { "null".into() };
        let _ =
            write!(out, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("workload: {} (closed loop, 1 client)", opts.workload.name());
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.end_to_end {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "ops: {} attempted, {} failed; correct: {}",
        outcome.attempted, outcome.failed, outcome.correct
    );
    let metrics = if opts.trace { &outcome.per_layer } else { &outcome.end_to_end };
    println!("{}", json_line(outcome.correct, outcome.attempted, outcome.failed, metrics));
    ExitCode::SUCCESS
}
