//! Serve-layer saturation benchmark: the multi-tenant capacity number.
//!
//! Drives a [`hirise_serve::ServeEngine`] through the seeded synthetic
//! session mix of [`hirise_bench::serve`] — short and long sessions
//! across the scenario presets, priority spread, bursty arrivals, 3×
//! rated load so the shed ladder engages — and emits
//! `results/BENCH_serve.json` with the headline metric: **sessions one
//! core sustains at the p99 latency SLO**, alongside fleet p50/p99, the
//! deterministic workload counters, and the structurally-zero `dropped`
//! field the `bench_compare` gate hard-fails on.
//!
//! ```text
//! cargo run --release -p hirise-bench --bin serve_stages -- \
//!     [--sessions N] [--frames N] [--out results/BENCH_serve.json] \
//!     [--quick | --full]
//! ```
//!
//! `--quick` shrinks the fleet and array for a CI path smoke — point
//! `--out` somewhere disposable; only standard runs belong in
//! `results/`.

use hirise_bench::args::{Flags, RunSize};
use hirise_bench::serve::{measure, ServeBenchConfig};

fn main() {
    let flags = Flags::from_env(&["out", "sessions", "frames"]);
    let size = flags.run_size();
    let out = flags.value_of("out").unwrap_or("results/BENCH_serve.json");

    let mut config = ServeBenchConfig::default();
    match size {
        RunSize::Quick => {
            config.sessions = 6;
            config.frames_per_session = 4;
            config.width = 96;
            config.height = 72;
            config.keyframe_interval = 4;
            config.rated_sessions = 2;
        }
        RunSize::Standard => {}
        RunSize::Full => {
            config.sessions = 48;
            config.frames_per_session = 16;
            config.rated_sessions = 16;
        }
    }
    if let Some(sessions) = flags.parsed("sessions") {
        config.sessions = sessions;
    }
    if let Some(frames) = flags.parsed("frames") {
        config.frames_per_session = frames;
    }

    println!(
        "serve_stages: {} sessions ({} rated) of ~{} frames on {}x{} k={}",
        config.sessions,
        config.rated_sessions,
        config.frames_per_session,
        config.width,
        config.height,
        config.pooling_k
    );
    let result = measure(&config);
    println!(
        "  served {} frames in {:.1} ms -> {:.1} fps/core",
        result.frames,
        result.wall_ms,
        result.throughput_fps()
    );
    println!(
        "  latency: p50 {:.3} ms, p99 {:.3} ms (SLO {:.1} ms)",
        result.p50_ms, result.p99_ms, result.config.slo_ms
    );
    println!(
        "  fleet: {} admitted, {} completed, {} dropped, {} deferrals, shed max {}",
        result.admitted, result.completed, result.dropped, result.deferred, result.max_shed_level
    );
    println!(
        "  capacity: {:.0} sessions/core at {:.0} fps within the SLO",
        result.sessions_per_core_at_slo(),
        result.config.session_fps
    );
    assert_eq!(result.dropped, 0, "the serve layer dropped admitted sessions");

    let path = std::path::Path::new(out);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).expect("results directory is writable");
    }
    std::fs::write(path, result.to_json()).expect("serve JSON is writable");
    println!("wrote {}", path.display());
}
