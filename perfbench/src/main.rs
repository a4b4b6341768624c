//! The HiRISE benchmark: one command, three workloads, driven through
//! the workspace crates' public APIs only.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload still_vga --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` is a separate traced run that
//! reports the per-layer metrics instead. Any correctness violation
//! prints `"correct": false` and exits 1; a usage error exits 2. See
//! `README.md` for the workloads, the metrics and what each layer is
//! predicted to move.

mod cli;
mod common;
mod fleet;
mod stats;
mod still;
mod trace;
mod tracked;

use std::fmt::Write as _;
use std::process::ExitCode;

use cli::{Command, Workload};
use common::Outcome;

/// Per-layer metrics that are not span statistics.
const LAYER_VALUES: [(&str, &str); 23] = [
    ("tick_miss_frac", "frac"),
    ("sensor.stage1_conversions", "count/frame"),
    ("sensor.stage2_conversions", "count/frame"),
    ("sensor.roi_pixels", "px/frame"),
    ("sensor.transfer_bits", "bit/frame"),
    ("sensor.shard_speedup", "x"),
    ("detect.detections", "count/call"),
    ("core.rois", "count/frame"),
    ("core.roi_hit_rate", "frac"),
    ("temporal.tracked_frac", "frac"),
    ("serve.snapshot_kb", "kB"),
    ("serve.worker_util", "frac"),
    ("serve.deferred", "count"),
    ("serve.max_shed_level", "level"),
    ("serve.dropped", "count"),
    ("report.capture.ms", "ms"),
    ("report.pool.ms", "ms"),
    ("report.detect.ms", "ms"),
    ("report.roi_read.ms", "ms"),
    ("report.serve.p50_ms", "ms"),
    ("report.serve.p99_ms", "ms"),
    ("trace_overhead_frac", "frac"),
    ("host_score", "Mpx/s"),
];

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
fn per_layer_units() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for span in trace::SPANS {
        for (suffix, unit) in
            [(".ms", "ms"), (".count", "count"), (".total_ms", "ms"), (".share", "frac")]
        {
            out.push((format!("{span}{suffix}"), unit));
        }
    }
    out.extend(LAYER_VALUES.iter().map(|&(name, unit)| (name.to_string(), unit)));
    out
}

/// Formats the result line.
fn result_json(outcome: &Outcome, metrics: &[(String, f64, &str)]) -> String {
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            .expect("writing to a String cannot fail");
    }
    json.push_str("}}");
    json
}

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(Command::Run(args)) => args,
        Ok(Command::Help) => {
            print!("{}", cli::usage());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprint!("error: {e}\n{}", cli::usage());
            return ExitCode::from(2);
        }
    };
    let mut clock = stats::HostClock::new();
    let run = match args.workload {
        Workload::StillVga => still::run(&args, &mut clock),
        Workload::TrackedHd => tracked::run(&args, &mut clock),
        Workload::ServeFleet => fleet::run(&args, &mut clock),
    };
    let mut outcome = match run {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {} set-up failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    outcome.e2e.peak_rss_mb = stats::peak_rss_mb() - clock.bytes() as f64 / 1e6;
    let host_score = clock.median_mpxs();
    outcome.trace.gauge("host_score", host_score);
    let miss_frac = outcome.e2e.tick_miss_frac;
    outcome.trace.gauge("tick_miss_frac", miss_frac);
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        per_layer_units()
            .into_iter()
            .map(|(name, unit)| {
                let value = outcome.trace.value(&name);
                (name, value, unit)
            })
            .collect()
    } else {
        outcome
            .e2e
            .metrics()
            .into_iter()
            .map(|(name, v, unit)| (name.to_string(), v, unit))
            .collect()
    };
    let metrics: Vec<_> = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            if value.is_finite() {
                (name, value, unit)
            } else {
                outcome.error(format!("metric {name} is not finite ({value})"));
                (name, 0.0, unit)
            }
        })
        .collect();
    println!(
        "# {} seed {} seconds {} trace {}: host_score {host_score:.1} Mpx/s",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (name, value, unit) in &metrics {
        println!("# {name:<32} {value:>14.4} {unit}");
    }
    for error in &outcome.errors {
        eprintln!("correctness: {error}");
    }
    println!("{}", result_json(&outcome, &metrics));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The program prints exactly the metrics `BENCHMARK.json` lists.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let listed = json.matches("\"unit\"").count();
        let e2e = common::EndToEnd::default().metrics();
        let names: Vec<String> = e2e
            .iter()
            .map(|&(n, _, u)| (n.to_string(), u))
            .chain(per_layer_units())
            .map(|(n, u)| format!("\"name\": \"{n}\", \"unit\": \"{u}\""))
            .collect();
        for name in &names {
            assert!(json.contains(name.as_str()), "BENCHMARK.json lacks {name}");
        }
        assert_eq!(listed, names.len(), "BENCHMARK.json lists metrics the program does not print");
    }
}
