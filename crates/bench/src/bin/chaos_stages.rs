//! Chaos benchmark: recovery under a seeded fault plan.
//!
//! Runs the fleet of [`hirise_bench::chaos`] twice — fault-free and
//! with the plan's panic injected mid-stream into one session — and
//! emits `results/BENCH_chaos.json` with the recovery axes the
//! `bench_compare` chaos gate hard-fails on: `dropped`, the quarantine
//! and recovery counts, the worst recovery span in frames, availability,
//! and the blast-radius bit (every non-faulted session identical to the
//! fault-free run).
//!
//! ```text
//! cargo run --release -p hirise-bench --bin chaos_stages -- \
//!     [--sessions N] [--frames N] [--out results/BENCH_chaos.json] \
//!     [--quick | --full]
//! ```
//!
//! `--quick` shrinks the fleet and array for a CI smoke — point `--out`
//! somewhere disposable; only standard runs belong in `results/`.

use hirise_bench::args::{Flags, RunSize};
use hirise_bench::chaos::{measure, ChaosBenchConfig};

fn main() {
    let flags = Flags::from_env(&["out", "sessions", "frames"]);
    let size = flags.run_size();
    let out = flags.value_of("out").unwrap_or("results/BENCH_chaos.json");

    let mut config = ChaosBenchConfig::default();
    match size {
        RunSize::Quick => {
            config.sessions = 4;
            config.frames_per_session = 8;
            config.width = 64;
            config.height = 48;
            config.panic_session = 1;
            config.panic_frame = 3;
        }
        RunSize::Standard => {}
        RunSize::Full => {
            config.sessions = 16;
            config.frames_per_session = 32;
        }
    }
    if let Some(sessions) = flags.parsed("sessions") {
        config.sessions = sessions;
        config.panic_session = config.panic_session.min(sessions as u64 - 1);
    }
    if let Some(frames) = flags.parsed("frames") {
        config.frames_per_session = frames;
        config.panic_frame = config.panic_frame.min(frames.saturating_sub(1));
    }

    println!(
        "chaos_stages: {} sessions of {} frames on {}x{} k={}, \
         panic into session {} frame {}",
        config.sessions,
        config.frames_per_session,
        config.width,
        config.height,
        config.pooling_k,
        config.panic_session,
        config.panic_frame
    );
    let result = measure(&config);
    println!(
        "  faulted run: {} frames in {:.1} ms, {} dropped, {} completed",
        result.frames, result.wall_ms, result.dropped, result.completed
    );
    println!(
        "  recovery: {} quarantined, {} recovered, worst {} frames \
         (budget {}), availability {:.4}",
        result.quarantined,
        result.recovered,
        result.max_recovery_frames,
        result.config.keyframe_interval,
        result.availability()
    );
    println!("  blast radius contained: {}", result.others_bit_identical);
    assert_eq!(result.dropped, 0, "the chaos run dropped admitted sessions");
    assert!(result.others_bit_identical, "a session fault perturbed the rest of the fleet");

    let path = std::path::Path::new(out);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).expect("results directory is writable");
    }
    std::fs::write(path, result.to_json()).expect("chaos JSON is writable");
    println!("wrote {}", path.display());
}
