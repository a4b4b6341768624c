//! Crash-recovery benchmark: warm restart from snapshot plus journal.
//!
//! Runs the fleet of [`hirise_bench::recover`] twice — uninterrupted
//! and killed mid-run at a seeded [`hirise_fault::CrashPlan`] tick —
//! then restores, replays, resumes, and emits
//! `results/BENCH_recover.json` with the axes the `bench_compare`
//! recovery gate hard-fails on: `dropped`, the replay MTTR in frames
//! against its one-snapshot-interval budget, and the post-restore
//! bit-identity verdict.
//!
//! ```text
//! cargo run --release -p hirise-bench --bin recover_stages -- \
//!     [--sessions N] [--frames N] [--out results/BENCH_recover.json] \
//!     [--quick | --full]
//! ```
//!
//! `--quick` shrinks the fleet for a CI smoke — point `--out` somewhere
//! disposable; only standard runs belong in `results/`.

use hirise_bench::args::{Flags, RunSize};
use hirise_bench::recover::{measure, RecoverBenchConfig};

fn main() {
    let flags = Flags::from_env(&["out", "sessions", "frames"]);
    let size = flags.run_size();
    let out = flags.value_of("out").unwrap_or("results/BENCH_recover.json");

    let mut config = RecoverBenchConfig::default();
    match size {
        RunSize::Quick => {
            config.sessions = 4;
            config.frames_per_session = 8;
            config.width = 64;
            config.height = 48;
            config.snapshot_every = 3;
        }
        RunSize::Standard => {}
        RunSize::Full => {
            config.sessions = 16;
            config.frames_per_session = 32;
        }
    }
    if let Some(sessions) = flags.parsed("sessions") {
        config.sessions = sessions;
    }
    if let Some(frames) = flags.parsed("frames") {
        config.frames_per_session = frames;
    }

    println!(
        "recover_stages: {} sessions of {} frames on {}x{} k={}, \
         snapshot every {} ticks, seeded crash rate {}",
        config.sessions,
        config.frames_per_session,
        config.width,
        config.height,
        config.pooling_k,
        config.snapshot_every,
        config.crash_rate
    );
    let result = measure(&config);
    println!(
        "  killed at tick {} of {}; snapshot {} B ({:.0} B/session, {} live), \
         taken in {:.3} ms, restored in {:.3} ms",
        result.crash_tick,
        result.total_ticks,
        result.snapshot_bytes,
        result.snapshot_bytes_per_session(),
        result.snapshot_sessions,
        result.snapshot_ms,
        result.restore_ms
    );
    println!(
        "  replay MTTR: {} frames in {:.3} ms (budget {} frames = one snapshot interval)",
        result.replay_frames, result.replay_ms, result.replay_budget_frames
    );
    println!("  recovered run bit-identical: {}", result.identical);
    assert_eq!(result.dropped, 0, "the recovered run dropped admitted sessions");
    assert!(result.identical, "the recovered run diverged from the uninterrupted twin");
    assert!(
        result.replay_frames <= result.replay_budget_frames,
        "replay MTTR {} exceeds the one-interval budget {}",
        result.replay_frames,
        result.replay_budget_frames
    );

    let path = std::path::Path::new(out);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).expect("results directory is writable");
    }
    std::fs::write(path, result.to_json()).expect("recover JSON is writable");
    println!("wrote {}", path.display());
}
