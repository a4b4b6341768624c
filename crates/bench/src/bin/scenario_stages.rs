//! Scenario-fleet benchmark: the table-driven stress matrix.
//!
//! Runs every scenario of [`hirise_bench::scenario::scenario_matrix`]
//! (occlusion/crossing, scale change, illumination drift + flicker,
//! keyed sensor defects, a 24-object crowd, an emptying scene, and the
//! VGA→4K resolution sweep) through the per-frame and tracked
//! pipelines, and emits one JSON per scenario under `results/scenarios/`
//! carrying latency, accuracy (mean ROI IoU + recall), per-frame-kind
//! sensor energy, and the analog pooling-consistency residual. The
//! `bench_compare` binary re-measures the committed baselines and fails
//! on a latency, IoU, or energy regression.
//!
//! ```text
//! cargo run --release -p hirise-bench --bin scenario_stages -- \
//!     [--scenario crossing] [--out-dir results/scenarios] [--quick]
//! ```
//!
//! `--scenario` filters the matrix by scenario name or baseline label;
//! `--quick` shrinks every entry to a small array and short clip — a CI
//! path smoke, not a baseline regeneration (it still writes to
//! `--out-dir`, so point it somewhere disposable or let CI discard the
//! working tree).

use hirise_bench::args::{Flags, RunSize};
use hirise_bench::scenario::{measure, scenario_matrix};

fn main() {
    let flags = Flags::from_env(&["scenario", "out-dir"]);
    let filter = flags.value_of("scenario");
    let quick = flags.run_size() == RunSize::Quick;
    let out_dir = std::path::Path::new(flags.value_of("out-dir").unwrap_or("results/scenarios"));

    let mut matrix = scenario_matrix();
    if let Some(name) = filter {
        matrix.retain(|c| c.scenario == name || c.label == name);
        assert!(!matrix.is_empty(), "no scenario matches {name:?}");
    }
    if quick {
        for config in &mut matrix {
            config.width = 192;
            config.height = 144;
            config.pooling_k = 2;
            config.frames = config.frames.min(6);
            config.keyframe_interval = 4;
        }
    }

    std::fs::create_dir_all(out_dir).expect("results directory is writable");
    for config in &matrix {
        let result = measure(config);
        let t = &result.tracked;
        println!(
            "{:>13}: {}x{} k={} over {} frames",
            config.label, config.width, config.height, config.pooling_k, config.frames
        );
        println!(
            "  per-frame {:8.2} ms/frame   tracked {:8.2} ms/frame  -> {:.2}x",
            result.per_frame_ms_mean,
            t.tracked_ms_mean,
            result.speedup()
        );
        println!(
            "  policy: {} keyframes, {} drift refreshes, {} tracked frames",
            t.keyframes, t.drift_refreshes, t.tracked_frames
        );
        println!("  accuracy: mean ROI IoU {:.3}, recall@0.5 {:.3}", t.mean_roi_iou, t.recall);
        println!(
            "  energy: {:.3} mJ total ({:.3} keyframe / {:.3} drift / {:.3} tracked)",
            t.energy_mj_total, t.energy_mj_keyframes, t.energy_mj_drift, t.energy_mj_tracked
        );
        println!("  analog pooling residual: {:.4} V", result.pooling_residual_v);
        let path = out_dir.join(format!("scenario_{}.json", config.label));
        std::fs::write(&path, result.to_json()).expect("scenario JSON is writable");
        println!("  wrote {}", path.display());
    }
}
