//! Command-line parsing. Unknown flags, missing values and malformed
//! numbers are usage errors (exit 2), so a typo can never silently run
//! a different measurement.

use std::fmt;

/// The seed a bare run uses.
pub const DEFAULT_SEED: u64 = 1;
/// The seed kept out of tuning, for confirming a claimed gain.
pub const HELD_OUT_SEED: u64 = 1009;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Still VGA frames through `HirisePipeline::run_with_scratch`.
    StillVga,
    /// A long HD video through `TrackingPipeline::run_frame`.
    TrackedHd,
    /// An open-loop multi-session fleet through `ServeEngine`.
    ServeFleet,
}

impl Workload {
    /// Every workload, in the order `--help` lists them.
    pub const ALL: [Workload; 3] = [Workload::StillVga, Workload::TrackedHd, Workload::ServeFleet];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StillVga => "still_vga",
            Workload::TrackedHd => "tracked_hd",
            Workload::ServeFleet => "serve_fleet",
        }
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of the input generators (scenes, traffic).
    pub seed: u64,
    /// Measured time of the run, seconds: the wall time of the fleet's
    /// schedule, and what sizes the closed loops' fixed work on an
    /// uncontended 2-CPU host.
    pub seconds: f64,
    /// `true` for the traced per-layer run.
    pub trace: bool,
}

/// What the command line asked for.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one measurement.
    Run(Args),
    /// Print usage and exit successfully.
    Help,
}

/// A usage error.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The usage text.
pub fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: hirise-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n\
         \n  --seed     input seed (default {DEFAULT_SEED}; held-out seed for claims: {HELD_OUT_SEED})\
         \n  --seconds  measured wall time per run (default 10)\
         \n  --trace    1 = traced per-layer run instead of the end-to-end run (default 0)\n",
        names.join("|")
    )
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// [`UsageError`] for an unknown flag, a flag without a value, a
/// malformed value, or a missing `--workload`.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Command, UsageError> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(Command::Help);
        }
        let mut value = || args.next().ok_or_else(|| UsageError(format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| UsageError(format!("unknown workload {name:?}")))?,
                );
            }
            "--seed" => {
                let text = value()?;
                seed = text.parse().map_err(|_| UsageError(format!("bad --seed {text:?}")))?;
            }
            "--seconds" => {
                let text = value()?;
                seconds = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| UsageError(format!("bad --seconds {text:?}")))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(UsageError(format!("bad --trace {other:?} (0 or 1)"))),
                };
            }
            other => return Err(UsageError(format!("unknown argument {other:?}"))),
        }
    }
    let workload = workload.ok_or_else(|| UsageError("--workload is required".into()))?;
    Ok(Command::Run(Args { workload, seed, seconds, trace }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<Command, UsageError> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let cmd =
            run(&["--workload", "tracked_hd", "--seed", "7", "--seconds", "10", "--trace", "1"]);
        assert_eq!(
            cmd,
            Ok(Command::Run(Args {
                workload: Workload::TrackedHd,
                seed: 7,
                seconds: 10.0,
                trace: true
            }))
        );
    }

    #[test]
    fn rejects_unknown_or_malformed_input() {
        assert!(run(&["--workload", "still_vga", "--out", "x"]).is_err());
        assert!(run(&["--workload", "nope"]).is_err());
        assert!(run(&["--workload", "still_vga", "--seed"]).is_err());
        assert!(run(&["--workload", "still_vga", "--seconds", "0"]).is_err());
        assert!(run(&["--workload", "still_vga", "--trace", "2"]).is_err());
        assert!(run(&["--seed", "3"]).is_err());
        assert_eq!(run(&["--workload", "still_vga", "--help"]), Ok(Command::Help));
    }
}
