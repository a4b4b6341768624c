//! Stage-breakdown benchmark of the steady-state frame path.
//!
//! Runs the HiRISE two-stage pipeline through one warmed
//! [`hirise::PipelineScratch`], collects the per-stage
//! [`hirise::StageTimings`] the profiler threads through every
//! [`hirise::RunReport`], and emits `results/BENCH_pipeline.json` so the
//! perf trajectory is tracked across PRs (see the `bench_compare` binary
//! for the trajectory gate).
//!
//! ```text
//! cargo run --release -p hirise-bench --bin pipeline_stages -- \
//!     [--width 640] [--height 480] [--k 2] [--frames 30] \
//!     [--mode keyed|sequential] [--out results/BENCH_pipeline.json] \
//!     [--quick | --full]
//! ```
//!
//! `--frames` overrides the `--quick`/`--full` frame budget; `--mode`
//! selects the sensor noise mode so Keyed and Sequential runs are
//! distinguishable in the emitted JSON (and therefore in the committed
//! trajectory).

use hirise::NoiseRngMode;
use hirise_bench::args::Flags;
use hirise_bench::stages::{measure, StageBenchConfig};

fn main() {
    let flags = Flags::from_env(&["width", "height", "k", "frames", "mode", "out"]);
    let defaults = StageBenchConfig::default();
    let config = StageBenchConfig {
        width: flags.parsed("width").unwrap_or(defaults.width),
        height: flags.parsed("height").unwrap_or(defaults.height),
        pooling_k: flags.parsed("k").unwrap_or(defaults.pooling_k),
        frames: flags.parsed("frames").unwrap_or_else(|| flags.run_size().pick(5, 30, 100)),
        mode: flags.parsed::<NoiseRngMode>("mode").unwrap_or(defaults.mode),
    };

    let result = measure(&config);
    let total = result.end_to_end_ms_mean;
    println!(
        "stage breakdown over {} frames at {}x{}, k={}, mode={}:",
        config.frames, config.width, config.height, config.pooling_k, config.mode
    );
    for (label, ms) in [
        ("capture ", result.capture_ms),
        ("pool    ", result.pool_ms),
        ("detect  ", result.detect_ms),
        ("roi-read", result.roi_read_ms),
    ] {
        println!("  {label}  {ms:8.2} ms  ({:5.1} %)", 100.0 * ms / total);
    }
    println!(
        "  end-to-end {total:7.2} ms/frame mean (min {:.2} ms, {:.1} fps)",
        result.end_to_end_ms_min,
        result.fps_mean()
    );

    let path = flags.value_of("out").unwrap_or("results/BENCH_pipeline.json");
    let path = std::path::Path::new(path);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).expect("results directory is writable");
    }
    std::fs::write(path, result.to_json()).expect("bench JSON is writable");
    println!("wrote {}", path.display());
}
