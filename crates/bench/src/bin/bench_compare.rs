//! Perf-trajectory gate: measures the frame path fresh and diffs it
//! against the committed `results/BENCH_pipeline.json` baseline.
//!
//! The fresh run reuses the baseline's configuration (array size,
//! pooling factor, noise mode) so the comparison is apples-to-apples,
//! appends a dated entry to the `results/BENCH_history.json` trajectory,
//! and **exits nonzero when the end-to-end mean regressed by more than
//! the allowed percentage** (default 15 %) — the labelled CI gate.
//!
//! The gate also covers the **temporal** trajectory: when a committed
//! `results/BENCH_temporal.json` exists (see the `video_stages` binary),
//! tracked-mode video is re-measured against it with the same budget and
//! folded into the history entry.
//!
//! And the **scenario fleet**: every committed baseline under
//! `results/scenarios/` (see the `scenario_stages` binary) is
//! re-measured with its own configuration and gated on all three axes —
//! tracked latency (the shared `--max-regress-pct` budget), accuracy
//! (mean ROI IoU must not drop by more than `--max-iou-drop`), and
//! sensor energy (total mJ must not grow by more than
//! `--max-energy-regress-pct`).
//!
//! And the **serve layer**: when a committed `results/BENCH_serve.json`
//! exists (see the `serve_stages` binary), the multi-tenant fleet is
//! re-measured with the baseline's own configuration. Wall-clock axes
//! (fleet p99, sessions/core at the SLO) get a deliberately loose
//! budget (`--max-serve-regress-pct`, default 75 % — shared runners are
//! noisy); the deterministic axes are hard gates: any `dropped > 0`
//! or a served-frame count that differs from the baseline fails
//! outright.
//!
//! And the **chaos layer**: when a committed `results/BENCH_chaos.json`
//! exists (see the `chaos_stages` binary), the seeded fault plan is
//! replayed with the baseline's own configuration. Every chaos axis is
//! deterministic and gated hard — any fleet abort or drop, a blast
//! radius that leaks past the faulted session, an unrecovered
//! quarantine, or a fault schedule that no longer matches the baseline
//! fails outright; only the recovery span gets a (loose) budget,
//! `--max-recovery-frames`, defaulting to the baseline's keyframe
//! interval (the checkpoint cadence).
//!
//! And the **recovery layer**: when a committed
//! `results/BENCH_recover.json` exists (see the `recover_stages`
//! binary), the crash-recovery protocol is replayed with the baseline's
//! own configuration — kill, restore, replay, resume. The deterministic
//! axes are hard gates: any drop, a kill tick that moved off the
//! baseline's seeded schedule, a served-frame count that differs from
//! the baseline, or **any post-restore divergence** (`identical:
//! false`) fails outright; the replay MTTR is gated against
//! `--max-replay-frames`, defaulting to the baseline's one-interval
//! budget (`replay_budget_frames`).
//!
//! A baseline that exists but cannot be parsed (truncated, corrupt,
//! missing fields) is a **configuration error, not a regression**: the
//! gate prints one `bench_compare: error:` line and exits 2 without
//! measuring anything.
//!
//! ```text
//! cargo run --release -p hirise-bench --bin bench_compare -- \
//!     [--baseline results/BENCH_pipeline.json] \
//!     [--temporal-baseline results/BENCH_temporal.json] \
//!     [--scenario-dir results/scenarios] \
//!     [--serve-baseline results/BENCH_serve.json] \
//!     [--chaos-baseline results/BENCH_chaos.json] \
//!     [--recover-baseline results/BENCH_recover.json] \
//!     [--history results/BENCH_history.json] \
//!     [--max-regress-pct 15] [--max-iou-drop 0.05] \
//!     [--max-energy-regress-pct 10] [--max-serve-regress-pct 75] \
//!     [--max-recovery-frames N] [--max-replay-frames N] \
//!     [--frames N] [--mode keyed|sequential] \
//!     [--quick | --full]
//! ```

use std::time::{SystemTime, UNIX_EPOCH};

use hirise::NoiseRngMode;
use hirise_bench::args::Flags;
use hirise_bench::stages::{json_bool, json_f64, json_str, measure, StageBenchConfig};
use hirise_bench::{chaos, recover, scenario, serve, video};

/// A malformed baseline or an unwritable history file is a
/// configuration error, not a regression: print one diagnostic line and
/// exit 2 (regressions exit 1), never a panic with a backtrace.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("bench_compare: error: {msg}");
    std::process::exit(2)
}

/// Gregorian `(year, month, day)` for a Unix day number (days since
/// 1970-01-01), via Howard Hinnant's civil-from-days algorithm.
fn civil_from_days(days: i64) -> (i64, u32, u32) {
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let month = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let year = yoe as i64 + era * 400 + i64::from(month <= 2);
    (year, month, day)
}

/// Appends `entry` to the JSON array in `path`, creating the array when
/// the file is missing or empty.
fn append_history(path: &std::path::Path, entry: &str) {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .unwrap_or_else(|e| fail(format!("history directory is not writable: {e}")));
    }
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let updated = match text.rfind(']') {
        Some(close) if text.contains('[') => {
            let head = text[..close].trim_end();
            let empty = head.trim_end().ends_with('[');
            let sep = if empty { "\n" } else { ",\n" };
            format!("{head}{sep}{entry}\n]\n")
        }
        _ => format!("[\n{entry}\n]\n"),
    };
    std::fs::write(path, updated)
        .unwrap_or_else(|e| fail(format!("history file {} is not writable: {e}", path.display())));
}

fn main() {
    let flags = Flags::from_env(&[
        "baseline",
        "history",
        "max-regress-pct",
        "frames",
        "mode",
        "temporal-baseline",
        "scenario-dir",
        "max-iou-drop",
        "max-energy-regress-pct",
        "serve-baseline",
        "max-serve-regress-pct",
        "chaos-baseline",
        "max-recovery-frames",
        "recover-baseline",
        "max-replay-frames",
    ]);
    let baseline_path = flags.value_of("baseline").unwrap_or("results/BENCH_pipeline.json");
    let history_path = flags.value_of("history").unwrap_or("results/BENCH_history.json");
    let max_regress_pct: f64 = flags.parsed("max-regress-pct").unwrap_or(15.0);

    let baseline = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| fail(format!("cannot read baseline {baseline_path}: {e}")));
    let base_mean = json_f64(&baseline, "end_to_end_ms_mean").unwrap_or_else(|| {
        fail(format!("baseline {baseline_path} lacks end_to_end_ms_mean (corrupt or truncated?)"))
    });
    let base_pool = json_f64(&baseline, "pool");
    let array = json_str(&baseline, "array").unwrap_or_else(|| "640x480".into());
    let (width, height) = array
        .split_once('x')
        .and_then(|(w, h)| Some((w.parse().ok()?, h.parse().ok()?)))
        .unwrap_or_else(|| fail(format!("baseline {baseline_path} array {array:?} is not WxH")));
    let defaults = StageBenchConfig::default();
    let config = StageBenchConfig {
        width,
        height,
        pooling_k: json_f64(&baseline, "pooling_k").map_or(defaults.pooling_k, |k| k as u32),
        frames: flags.parsed("frames").unwrap_or_else(|| flags.run_size().pick(5, 30, 100)),
        // `--mode` overrides the baseline's mode (to measure a mode
        // switch against the previous trajectory point); baselines from
        // before the mode field default to the legacy sequential stream.
        mode: flags.parsed::<NoiseRngMode>("mode").unwrap_or_else(|| {
            json_str(&baseline, "mode")
                .and_then(|m| m.parse().ok())
                .unwrap_or(NoiseRngMode::Sequential)
        }),
    };

    println!(
        "bench_compare: re-running {array} k={} mode={} over {} frames \
         (baseline {base_mean:.2} ms/frame)",
        config.pooling_k, config.mode, config.frames
    );
    let fresh = measure(&config);
    let delta_pct = 100.0 * (fresh.end_to_end_ms_mean - base_mean) / base_mean;
    println!(
        "  end-to-end {:.2} ms/frame vs baseline {base_mean:.2} ms/frame ({delta_pct:+.1} %)",
        fresh.end_to_end_ms_mean
    );
    if let Some(base_pool) = base_pool {
        println!("  pool stage {:.2} ms vs baseline {base_pool:.2} ms", fresh.pool_ms);
    }

    // Temporal (tracked-mode video) trajectory: measured against its own
    // committed baseline when one exists; skipped otherwise so the gate
    // still runs on checkouts from before the temporal pipeline.
    let temporal_baseline_path =
        flags.value_of("temporal-baseline").unwrap_or("results/BENCH_temporal.json");
    let tracked = match std::fs::read_to_string(temporal_baseline_path) {
        Err(e) => {
            println!("no temporal baseline at {temporal_baseline_path} ({e}); skipping");
            None
        }
        Ok(temporal_baseline) => {
            let tracked_base =
                json_f64(&temporal_baseline, "tracked_ms_mean").unwrap_or_else(|| {
                    fail(format!(
                        "temporal baseline {temporal_baseline_path} lacks tracked_ms_mean \
                         (corrupt or truncated?)"
                    ))
                });
            let defaults = video::VideoBenchConfig::default();
            // Reconstruct the measurement configuration from the
            // temporal baseline itself (array, k, cadence, noise mode),
            // exactly as the still gate does from its baseline, so the
            // comparison stays apples-to-apples. The frame count also
            // comes from the baseline: the keyframe fraction is part of
            // the tracked mean, so a shorter fresh run (e.g. 2
            // keyframes over 12 frames vs 6 over 48) would bias the
            // delta with no real regression. `--mode`/`--frames`
            // override deliberately.
            let video_array =
                json_str(&temporal_baseline, "array").unwrap_or_else(|| array.clone());
            let (video_width, video_height) = video_array
                .split_once('x')
                .and_then(|(w, h)| Some((w.parse().ok()?, h.parse().ok()?)))
                .unwrap_or_else(|| {
                    fail(format!("temporal baseline array {video_array:?} is not WxH"))
                });
            let video_config = video::VideoBenchConfig {
                width: video_width,
                height: video_height,
                pooling_k: json_f64(&temporal_baseline, "pooling_k")
                    .map_or(defaults.pooling_k, |k| k as u32),
                frames: flags.parsed("frames").unwrap_or_else(|| {
                    json_f64(&temporal_baseline, "frames").map_or(defaults.frames, |v| v as u32)
                }),
                keyframe_interval: json_f64(&temporal_baseline, "keyframe_interval")
                    .map_or(defaults.keyframe_interval, |v| v as u32),
                mode: flags.parsed::<NoiseRngMode>("mode").unwrap_or_else(|| {
                    json_str(&temporal_baseline, "mode")
                        .and_then(|m| m.parse().ok())
                        .unwrap_or(defaults.mode)
                }),
            };
            // Tracked-only measurement: the per-frame-mode half of the
            // video bench is not gated here, so don't pay for it.
            let fresh_video = video::measure_tracked(&video_config);
            let tracked_delta_pct =
                100.0 * (fresh_video.tracked_ms_mean - tracked_base) / tracked_base;
            println!(
                "  tracked video {:.2} ms/frame vs baseline {tracked_base:.2} ms/frame \
                 ({tracked_delta_pct:+.1} %), mean ROI IoU {:.3}",
                fresh_video.tracked_ms_mean, fresh_video.mean_roi_iou
            );
            Some((fresh_video, tracked_base, tracked_delta_pct))
        }
    };

    // Scenario-fleet trajectory: one committed baseline per scenario,
    // each re-measured with its own configuration and gated on latency,
    // IoU, *and* energy. Missing directory => skipped (checkouts from
    // before the fleet), like the temporal gate.
    let scenario_dir =
        std::path::Path::new(flags.value_of("scenario-dir").unwrap_or("results/scenarios"));
    let max_iou_drop: f64 = flags.parsed("max-iou-drop").unwrap_or(0.05);
    let max_energy_pct: f64 = flags.parsed("max-energy-regress-pct").unwrap_or(10.0);
    let mut scenario_failures: Vec<String> = Vec::new();
    let mut scenarios_checked = 0u32;
    match std::fs::read_dir(scenario_dir) {
        Err(e) => {
            println!("no scenario baselines at {} ({e}); skipping", scenario_dir.display());
        }
        Ok(dir) => {
            let mut paths: Vec<_> = dir
                .filter_map(|entry| entry.ok().map(|entry| entry.path()))
                .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
                .collect();
            paths.sort();
            for path in &paths {
                let base = std::fs::read_to_string(path).unwrap_or_else(|e| {
                    fail(format!("cannot read scenario baseline {}: {e}", path.display()))
                });
                let miss = |field: &str| -> ! {
                    fail(format!(
                        "scenario baseline {} lacks {field} (corrupt or truncated?)",
                        path.display()
                    ))
                };
                let label = json_str(&base, "label").unwrap_or_else(|| miss("label"));
                let scenario_array = json_str(&base, "array").unwrap_or_else(|| miss("array"));
                let (scenario_w, scenario_h) = scenario_array
                    .split_once('x')
                    .and_then(|(w, h)| Some((w.parse().ok()?, h.parse().ok()?)))
                    .unwrap_or_else(|| {
                        fail(format!("scenario baseline array {scenario_array:?} is not WxH"))
                    });
                // The whole configuration comes from the baseline itself —
                // including the frame count, which `--frames` deliberately
                // does NOT override here: a different clip length changes
                // the keyframe fraction and with it all three gated
                // numbers.
                let config = scenario::ScenarioBenchConfig {
                    scenario: json_str(&base, "scenario").unwrap_or_else(|| miss("scenario")),
                    label: label.clone(),
                    width: scenario_w,
                    height: scenario_h,
                    pooling_k: json_f64(&base, "pooling_k").map_or(2, |v| v as u32),
                    frames: json_f64(&base, "frames").map_or(32, |v| v as u32),
                    keyframe_interval: json_f64(&base, "keyframe_interval").map_or(8, |v| v as u32),
                    max_rois: json_f64(&base, "max_rois").map_or(8, |v| v as usize),
                    mode: json_str(&base, "mode").and_then(|m| m.parse().ok()).unwrap_or_default(),
                    seed: json_f64(&base, "seed").map_or(scenario::SCENARIO_SEED, |v| v as u64),
                };
                let base_ms =
                    json_f64(&base, "tracked_ms_mean").unwrap_or_else(|| miss("tracked_ms_mean"));
                let base_iou =
                    json_f64(&base, "mean_roi_iou").unwrap_or_else(|| miss("mean_roi_iou"));
                let base_energy =
                    json_f64(&base, "energy_mj_total").unwrap_or_else(|| miss("energy_mj_total"));
                let fresh = scenario::measure_tracked(&config);
                let ms_pct = 100.0 * (fresh.tracked_ms_mean - base_ms) / base_ms;
                let iou_drop = base_iou - fresh.mean_roi_iou;
                let energy_pct = if base_energy > 0.0 {
                    100.0 * (fresh.energy_mj_total - base_energy) / base_energy
                } else {
                    0.0
                };
                println!(
                    "  scenario {label:>13}: {:.2} ms/frame ({ms_pct:+.1} %), \
                     IoU {:.3} ({:+.3} vs baseline), energy {:.3} mJ ({energy_pct:+.1} %)",
                    fresh.tracked_ms_mean, fresh.mean_roi_iou, -iou_drop, fresh.energy_mj_total
                );
                if ms_pct > max_regress_pct {
                    scenario_failures.push(format!(
                        "scenario {label}: tracked mean {ms_pct:+.1} % exceeds the allowed \
                         +{max_regress_pct:.1} %"
                    ));
                }
                if iou_drop > max_iou_drop {
                    scenario_failures.push(format!(
                        "scenario {label}: mean ROI IoU dropped {iou_drop:.3} \
                         (from {base_iou:.3} to {:.3}), more than the allowed {max_iou_drop:.3}",
                        fresh.mean_roi_iou
                    ));
                }
                if energy_pct > max_energy_pct {
                    scenario_failures.push(format!(
                        "scenario {label}: sensor energy {energy_pct:+.1} % exceeds the allowed \
                         +{max_energy_pct:.1} %"
                    ));
                }
                scenarios_checked += 1;
            }
        }
    }

    // Serve-layer trajectory: the multi-tenant fleet re-measured with
    // the committed baseline's own configuration. Missing file =>
    // skipped (checkouts from before the serve layer), like the
    // temporal gate. Timing axes are gated loosely; the deterministic
    // axes (no drops, exact served-frame count) are hard.
    let serve_baseline_path =
        flags.value_of("serve-baseline").unwrap_or("results/BENCH_serve.json");
    let max_serve_pct: f64 = flags.parsed("max-serve-regress-pct").unwrap_or(75.0);
    let mut serve_failures: Vec<String> = Vec::new();
    let serve_fresh = match std::fs::read_to_string(serve_baseline_path) {
        Err(e) => {
            println!("no serve baseline at {serve_baseline_path} ({e}); skipping");
            None
        }
        Ok(serve_baseline) => {
            let miss = |field: &str| -> ! {
                fail(format!(
                    "serve baseline {serve_baseline_path} lacks {field} (corrupt or truncated?)"
                ))
            };
            let serve_array = json_str(&serve_baseline, "array").unwrap_or_else(|| miss("array"));
            let (serve_w, serve_h) = serve_array
                .split_once('x')
                .and_then(|(w, h)| Some((w.parse().ok()?, h.parse().ok()?)))
                .unwrap_or_else(|| {
                    fail(format!("serve baseline array {serve_array:?} is not WxH"))
                });
            let defaults = serve::ServeBenchConfig::default();
            // The whole configuration comes from the baseline itself —
            // including the session mix and seed: the fresh run must
            // replay the identical workload or the deterministic
            // frame-count gate below would be meaningless.
            let serve_config = serve::ServeBenchConfig {
                sessions: json_f64(&serve_baseline, "sessions")
                    .map_or(defaults.sessions, |v| v as usize),
                frames_per_session: json_f64(&serve_baseline, "frames_per_session")
                    .map_or(defaults.frames_per_session, |v| v as u32),
                width: serve_w,
                height: serve_h,
                pooling_k: json_f64(&serve_baseline, "pooling_k")
                    .map_or(defaults.pooling_k, |v| v as u32),
                keyframe_interval: json_f64(&serve_baseline, "keyframe_interval")
                    .map_or(defaults.keyframe_interval, |v| v as u32),
                rated_sessions: json_f64(&serve_baseline, "rated_sessions")
                    .map_or(defaults.rated_sessions, |v| v as usize),
                session_fps: json_f64(&serve_baseline, "session_fps")
                    .unwrap_or(defaults.session_fps),
                slo_ms: json_f64(&serve_baseline, "slo_ms").unwrap_or(defaults.slo_ms),
                seed: json_f64(&serve_baseline, "seed").map_or(defaults.seed, |v| v as u64),
            };
            let base_p99 = json_f64(&serve_baseline, "p99_ms").unwrap_or_else(|| miss("p99_ms"));
            let base_capacity = json_f64(&serve_baseline, "sessions_per_core_at_slo")
                .unwrap_or_else(|| miss("sessions_per_core_at_slo"));
            let base_frames =
                json_f64(&serve_baseline, "frames").unwrap_or_else(|| miss("frames")) as u64;
            let fresh_serve = serve::measure(&serve_config);
            let p99_pct = if base_p99 > 0.0 {
                100.0 * (fresh_serve.p99_ms - base_p99) / base_p99
            } else {
                0.0
            };
            let capacity = fresh_serve.sessions_per_core_at_slo();
            let capacity_drop_pct = if base_capacity > 0.0 {
                100.0 * (base_capacity - capacity) / base_capacity
            } else {
                0.0
            };
            println!(
                "  serve fleet: p99 {:.3} ms ({p99_pct:+.1} %), {capacity:.0} sessions/core \
                 ({:.0} baseline), {} frames, {} dropped, shed max {}",
                fresh_serve.p99_ms,
                base_capacity,
                fresh_serve.frames,
                fresh_serve.dropped,
                fresh_serve.max_shed_level
            );
            if fresh_serve.dropped > 0 {
                serve_failures.push(format!(
                    "serve: {} admitted sessions were dropped — the no-drop contract is broken",
                    fresh_serve.dropped
                ));
            }
            if fresh_serve.frames != base_frames {
                serve_failures.push(format!(
                    "serve: served {} frames but the baseline workload is {base_frames} — \
                     the seeded mix is no longer deterministic",
                    fresh_serve.frames
                ));
            }
            if p99_pct > max_serve_pct {
                serve_failures.push(format!(
                    "serve: fleet p99 {p99_pct:+.1} % exceeds the allowed +{max_serve_pct:.1} %"
                ));
            }
            if capacity_drop_pct > max_serve_pct {
                serve_failures.push(format!(
                    "serve: sessions/core at the SLO dropped {capacity_drop_pct:.1} % \
                     (from {base_capacity:.0} to {capacity:.0}), more than the allowed \
                     {max_serve_pct:.1} %"
                ));
            }
            Some(fresh_serve)
        }
    };

    // Chaos trajectory: the seeded fault plan replayed with the
    // committed baseline's own configuration. Missing file => skipped
    // (checkouts from before the chaos layer). Everything here is
    // deterministic, so every axis except the recovery-span budget is a
    // hard gate.
    let chaos_baseline_path =
        flags.value_of("chaos-baseline").unwrap_or("results/BENCH_chaos.json");
    let mut chaos_failures: Vec<String> = Vec::new();
    let chaos_fresh = match std::fs::read_to_string(chaos_baseline_path) {
        Err(e) => {
            println!("no chaos baseline at {chaos_baseline_path} ({e}); skipping");
            None
        }
        Ok(chaos_baseline) => {
            let miss = |field: &str| -> ! {
                fail(format!(
                    "chaos baseline {chaos_baseline_path} lacks {field} (corrupt or truncated?)"
                ))
            };
            let chaos_array = json_str(&chaos_baseline, "array").unwrap_or_else(|| miss("array"));
            let (chaos_w, chaos_h) = chaos_array
                .split_once('x')
                .and_then(|(w, h)| Some((w.parse().ok()?, h.parse().ok()?)))
                .unwrap_or_else(|| {
                    fail(format!("chaos baseline array {chaos_array:?} is not WxH"))
                });
            let defaults = chaos::ChaosBenchConfig::default();
            // The whole configuration — fleet shape, fault coordinates,
            // seed — comes from the baseline itself: the gate replays
            // the identical fault plan or the schedule comparison below
            // would be meaningless.
            let chaos_config = chaos::ChaosBenchConfig {
                sessions: json_f64(&chaos_baseline, "sessions")
                    .map_or(defaults.sessions, |v| v as usize),
                frames_per_session: json_f64(&chaos_baseline, "frames_per_session")
                    .map_or(defaults.frames_per_session, |v| v as u32),
                width: chaos_w,
                height: chaos_h,
                pooling_k: json_f64(&chaos_baseline, "pooling_k")
                    .map_or(defaults.pooling_k, |v| v as u32),
                keyframe_interval: json_f64(&chaos_baseline, "keyframe_interval")
                    .map_or(defaults.keyframe_interval, |v| v as u32),
                panic_session: json_f64(&chaos_baseline, "panic_session")
                    .map_or(defaults.panic_session, |v| v as u64),
                panic_frame: json_f64(&chaos_baseline, "panic_frame")
                    .map_or(defaults.panic_frame, |v| v as u32),
                seed: json_f64(&chaos_baseline, "seed").map_or(defaults.seed, |v| v as u64),
            };
            // The recovery budget is loose by default: the baseline's
            // checkpoint cadence, overridable for tighter policies.
            let max_recovery_frames: u32 =
                flags.parsed("max-recovery-frames").unwrap_or(chaos_config.keyframe_interval);
            let base_frames =
                json_f64(&chaos_baseline, "frames").unwrap_or_else(|| miss("frames")) as u64;
            let base_quarantined = json_f64(&chaos_baseline, "quarantined")
                .unwrap_or_else(|| miss("quarantined")) as u64;
            let fresh_chaos = chaos::measure(&chaos_config);
            println!(
                "  chaos fleet: {} frames, {} dropped, {} quarantined, {} recovered, \
                 worst recovery {} frames (budget {max_recovery_frames}), \
                 availability {:.4}, blast radius contained: {}",
                fresh_chaos.frames,
                fresh_chaos.dropped,
                fresh_chaos.quarantined,
                fresh_chaos.recovered,
                fresh_chaos.max_recovery_frames,
                fresh_chaos.availability(),
                fresh_chaos.others_bit_identical
            );
            if fresh_chaos.dropped > 0 {
                chaos_failures.push(format!(
                    "chaos: {} admitted sessions were dropped — a fault became fleet-fatal",
                    fresh_chaos.dropped
                ));
            }
            if fresh_chaos.completed != chaos_config.sessions as u64 {
                chaos_failures.push(format!(
                    "chaos: only {} of {} sessions completed under the fault plan",
                    fresh_chaos.completed, chaos_config.sessions
                ));
            }
            if !fresh_chaos.others_bit_identical {
                chaos_failures.push(
                    "chaos: a session fault perturbed other sessions — the isolation \
                     boundary leaks"
                        .into(),
                );
            }
            if fresh_chaos.quarantined != base_quarantined {
                chaos_failures.push(format!(
                    "chaos: {} sessions quarantined but the baseline schedule says \
                     {base_quarantined} — the fault plan is no longer deterministic",
                    fresh_chaos.quarantined
                ));
            }
            if fresh_chaos.recovered != fresh_chaos.quarantined {
                chaos_failures.push(format!(
                    "chaos: {} of {} quarantined sessions recovered — checkpoint \
                     recovery is broken",
                    fresh_chaos.recovered, fresh_chaos.quarantined
                ));
            }
            if fresh_chaos.max_recovery_frames > max_recovery_frames {
                chaos_failures.push(format!(
                    "chaos: worst recovery took {} frames, over the allowed \
                     {max_recovery_frames}",
                    fresh_chaos.max_recovery_frames
                ));
            }
            if fresh_chaos.frames != base_frames {
                chaos_failures.push(format!(
                    "chaos: served {} frames but the baseline is {base_frames} — \
                     the faulted workload is no longer deterministic",
                    fresh_chaos.frames
                ));
            }
            if json_bool(&chaos_baseline, "others_bit_identical") == Some(false) {
                chaos_failures.push(
                    "chaos: the committed baseline itself records a leaking blast \
                     radius — regenerate it from a healthy build"
                        .into(),
                );
            }
            Some(fresh_chaos)
        }
    };

    // Recovery trajectory: the crash-recovery protocol replayed with
    // the committed baseline's own configuration — kill, restore,
    // replay, resume. Missing file => skipped (checkouts from before
    // the recovery layer). Wall-clock costs (snapshot/restore/replay
    // ms) are reported, not gated; the deterministic axes are hard, and
    // the replay MTTR rides a one-snapshot-interval frame budget.
    let recover_baseline_path =
        flags.value_of("recover-baseline").unwrap_or("results/BENCH_recover.json");
    let mut recover_failures: Vec<String> = Vec::new();
    let recover_fresh = match std::fs::read_to_string(recover_baseline_path) {
        Err(e) => {
            println!("no recovery baseline at {recover_baseline_path} ({e}); skipping");
            None
        }
        Ok(recover_baseline) => {
            let miss = |field: &str| -> ! {
                fail(format!(
                    "recovery baseline {recover_baseline_path} lacks {field} \
                     (corrupt or truncated?)"
                ))
            };
            let recover_array =
                json_str(&recover_baseline, "array").unwrap_or_else(|| miss("array"));
            let (recover_w, recover_h) = recover_array
                .split_once('x')
                .and_then(|(w, h)| Some((w.parse().ok()?, h.parse().ok()?)))
                .unwrap_or_else(|| {
                    fail(format!("recovery baseline array {recover_array:?} is not WxH"))
                });
            let defaults = recover::RecoverBenchConfig::default();
            // The whole configuration — fleet shape, snapshot cadence,
            // crash seed — comes from the baseline itself: the gate
            // replays the identical kill schedule or the crash-tick
            // comparison below would be meaningless.
            let recover_config = recover::RecoverBenchConfig {
                sessions: json_f64(&recover_baseline, "sessions")
                    .map_or(defaults.sessions, |v| v as usize),
                frames_per_session: json_f64(&recover_baseline, "frames_per_session")
                    .map_or(defaults.frames_per_session, |v| v as u32),
                width: recover_w,
                height: recover_h,
                pooling_k: json_f64(&recover_baseline, "pooling_k")
                    .map_or(defaults.pooling_k, |v| v as u32),
                keyframe_interval: json_f64(&recover_baseline, "keyframe_interval")
                    .map_or(defaults.keyframe_interval, |v| v as u32),
                snapshot_every: json_f64(&recover_baseline, "snapshot_every")
                    .map_or(defaults.snapshot_every, |v| v as u64),
                crash_rate: json_f64(&recover_baseline, "crash_rate")
                    .unwrap_or(defaults.crash_rate),
                seed: json_f64(&recover_baseline, "seed").map_or(defaults.seed, |v| v as u64),
            };
            // The replay budget defaults to the baseline's own
            // one-snapshot-interval bound, overridable for tighter
            // policies.
            let base_budget = json_f64(&recover_baseline, "replay_budget_frames")
                .unwrap_or_else(|| miss("replay_budget_frames"))
                as u64;
            let max_replay_frames: u64 = flags.parsed("max-replay-frames").unwrap_or(base_budget);
            let base_frames =
                json_f64(&recover_baseline, "frames").unwrap_or_else(|| miss("frames")) as u64;
            let base_crash_tick = json_f64(&recover_baseline, "crash_tick")
                .unwrap_or_else(|| miss("crash_tick")) as u64;
            let fresh_recover = recover::measure(&recover_config);
            println!(
                "  recovery: killed at tick {} of {}, snapshot {} B, restored in {:.3} ms, \
                 replay MTTR {} frames (budget {max_replay_frames}) in {:.3} ms, \
                 {} frames, {} dropped, bit-identical: {}",
                fresh_recover.crash_tick,
                fresh_recover.total_ticks,
                fresh_recover.snapshot_bytes,
                fresh_recover.restore_ms,
                fresh_recover.replay_frames,
                fresh_recover.replay_ms,
                fresh_recover.frames,
                fresh_recover.dropped,
                fresh_recover.identical
            );
            if fresh_recover.dropped > 0 {
                recover_failures.push(format!(
                    "recovery: {} admitted sessions were dropped — a crash became \
                     session-fatal",
                    fresh_recover.dropped
                ));
            }
            if !fresh_recover.identical {
                recover_failures.push(
                    "recovery: the restored run diverged from the uninterrupted twin — \
                     the crash-consistency contract is broken"
                        .into(),
                );
            }
            if fresh_recover.crash_tick != base_crash_tick {
                recover_failures.push(format!(
                    "recovery: the seeded kill landed at tick {} but the baseline \
                     schedule says {base_crash_tick} — the crash plan is no longer \
                     deterministic",
                    fresh_recover.crash_tick
                ));
            }
            if fresh_recover.frames != base_frames {
                recover_failures.push(format!(
                    "recovery: served {} frames but the baseline is {base_frames} — \
                     the recovered workload is no longer deterministic",
                    fresh_recover.frames
                ));
            }
            if fresh_recover.replay_frames > max_replay_frames {
                recover_failures.push(format!(
                    "recovery: replay MTTR {} frames exceeds the allowed \
                     {max_replay_frames} (one snapshot interval)",
                    fresh_recover.replay_frames
                ));
            }
            if json_bool(&recover_baseline, "identical") == Some(false) {
                recover_failures.push(
                    "recovery: the committed baseline itself records a post-restore \
                     divergence — regenerate it from a healthy build"
                        .into(),
                );
            }
            Some(fresh_recover)
        }
    };

    let epoch_secs = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    let (y, m, d) = civil_from_days((epoch_secs / 86_400) as i64);
    let tracked_fields = tracked.as_ref().map_or_else(String::new, |(v, base, delta)| {
        format!(
            ", \"tracked_ms_mean\": {:.3}, \"tracked_baseline_ms_mean\": {base:.3}, \
             \"tracked_delta_pct\": {delta:.2}, \"mean_roi_iou\": {:.4}",
            v.tracked_ms_mean, v.mean_roi_iou,
        )
    });
    let scenario_fields = if scenarios_checked == 0 {
        String::new()
    } else {
        format!(
            ", \"scenarios_checked\": {scenarios_checked}, \"scenario_failures\": {}",
            scenario_failures.len()
        )
    };
    let serve_fields = serve_fresh.as_ref().map_or_else(String::new, |s| {
        format!(
            ", \"serve_p99_ms\": {:.3}, \"serve_sessions_per_core\": {:.0}, \
             \"serve_failures\": {}",
            s.p99_ms,
            s.sessions_per_core_at_slo(),
            serve_failures.len()
        )
    });
    let chaos_fields = chaos_fresh.as_ref().map_or_else(String::new, |c| {
        format!(
            ", \"chaos_recovery_frames\": {}, \"chaos_availability\": {:.6}, \
             \"chaos_failures\": {}",
            c.max_recovery_frames,
            c.availability(),
            chaos_failures.len()
        )
    });
    let recover_fields = recover_fresh.as_ref().map_or_else(String::new, |r| {
        format!(
            ", \"recover_replay_frames\": {}, \"recover_snapshot_bytes\": {}, \
             \"recover_restore_ms\": {:.3}, \"recover_failures\": {}",
            r.replay_frames,
            r.snapshot_bytes,
            r.restore_ms,
            recover_failures.len()
        )
    });
    let entry = format!(
        "  {{ \"date\": \"{y:04}-{m:02}-{d:02}\", \"epoch_secs\": {epoch_secs}, \
         \"array\": \"{array}\", \"pooling_k\": {}, \"mode\": \"{}\", \"frames\": {}, \
         \"end_to_end_ms_mean\": {:.3}, \"pool_ms_mean\": {:.3}, \
         \"baseline_ms_mean\": {base_mean:.3}, \"delta_pct\": \
         {delta_pct:.2}{tracked_fields}{scenario_fields}{serve_fields}{chaos_fields}\
         {recover_fields} }}",
        config.pooling_k, config.mode, config.frames, fresh.end_to_end_ms_mean, fresh.pool_ms,
    );
    let history = std::path::Path::new(history_path);
    append_history(history, &entry);
    println!("appended trajectory entry to {}", history.display());

    let mut failed = false;
    if delta_pct > max_regress_pct {
        eprintln!(
            "REGRESSION: end-to-end mean {delta_pct:+.1} % exceeds the allowed \
             +{max_regress_pct:.1} %"
        );
        failed = true;
    }
    if let Some((_, _, tracked_delta_pct)) = tracked {
        if tracked_delta_pct > max_regress_pct {
            eprintln!(
                "REGRESSION: tracked-video mean {tracked_delta_pct:+.1} % exceeds the \
                 allowed +{max_regress_pct:.1} %"
            );
            failed = true;
        }
    }
    for failure in scenario_failures
        .iter()
        .chain(&serve_failures)
        .chain(&chaos_failures)
        .chain(&recover_failures)
    {
        eprintln!("REGRESSION: {failure}");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "within budget (+{max_regress_pct:.1} % latency, -{max_iou_drop:.3} IoU, \
         +{max_energy_pct:.1} % energy, +{max_serve_pct:.1} % serve, chaos clean, \
         recovery bit-identical)"
    );
}
