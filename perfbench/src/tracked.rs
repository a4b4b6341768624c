//! `tracked_hd`: closed loop, one caller. `clean` scenario video at
//! 1280×720 through `TrackingPipeline::run_frame`, with capture and pool
//! row-sharded over 2 threads. Most frames are tracked (capture + ROI
//! read); pool and detect run only on keyframe and drift frames, so they
//! set the tail, not the median.
//!
//! A run plays clips of independent scenes back to back, the tracker
//! restarting on each, so one run averages over many scenes. The number
//! of clips follows the requested time alone. The first clips are
//! replayed at the end and must reproduce their first play exactly.
//! A host clock burst runs before each frame is rendered, off the
//! clock, and each frame time is rescaled by the host speed around it.

use std::time::Instant;

use hirise::temporal::{TrackerState, TrackingPipeline};
use hirise::{DetectorConfig, HiriseConfig, HiriseError, PipelineScratch, TemporalConfig};
use hirise_scene::{ScenarioGenerator, ScenarioSpec};

use crate::cli::Args;
use crate::common::{scene_seed, units_for, Outcome, Setup, Tally, WARM_SEED};
use crate::stats::{median, ms, percentile, ratio, HostClock};
use crate::trace::Probe;

const WIDTH: u32 = 1280;
const HEIGHT: u32 = 720;
/// Requested seconds per clip: a clip with its host clock bursts takes
/// ~0.45 s on an uncontended 2-CPU host, and a run needs ~60 scenes
/// before its recall stops hanging on a few of them.
const CLIP_S: f64 = 0.4;
/// The fewest clips a run plays: enough scenes that the simulated
/// metrics do not hang on a few of them.
const MIN_CLIPS: u64 = 16;
/// Clips replayed at the end to check that outputs repeat exactly.
const REPEATS: u64 = 2;
/// Frames per clip (two keyframe intervals); each clip starts from an
/// empty tracker.
const CLIP_FRAMES: u32 = 16;
const KEYFRAME_INTERVAL: u32 = 8;
const SHARDS: u32 = 2;

/// The pipeline at `shards` row shards, with the detector scan range
/// calibrated to the scenario's object sizes.
pub fn config(width: u32, height: u32, shards: u32) -> Result<HiriseConfig, HiriseError> {
    let detector = DetectorConfig {
        min_object_frac: 0.16,
        max_object_frac: 0.45,
        aspects: vec![0.4, 0.65],
        part_containment: 0.6,
        part_area_ratio: 0.5,
        part_suppress_ratio: 0.45,
        fill_norm: 0.6,
        ..Default::default()
    };
    HiriseConfig::builder(width, height)
        .pooling(2)
        .detector(detector)
        .max_rois(8)
        .roi_margin(2)
        .sensor_shards(shards)
        .build()
}

/// The generator of clip `clip` of a run seeded `seed`.
fn scene(seed: u64, clip: u64) -> ScenarioGenerator {
    ScenarioGenerator::new(ScenarioSpec::clean(), WIDTH, HEIGHT, scene_seed(seed, clip))
}

/// Plays one clip from an empty tracker; returns its tally and frame
/// times, each with its host clock mark. With a probe, every frame is
/// also rebuilt from public calls after the timed call.
fn clip(
    out: &mut Outcome,
    clock: &mut HostClock,
    scene: &ScenarioGenerator,
    tracker: &TrackingPipeline,
    scratch: &mut PipelineScratch,
    mut probe: Option<&mut Probe>,
) -> (Tally, Vec<(f64, usize)>) {
    let mut state = TrackerState::new();
    let mut tally = Tally::default();
    let mut times = Vec::with_capacity(CLIP_FRAMES as usize);
    for index in 0..CLIP_FRAMES {
        let mark = clock.sample();
        let render = Instant::now();
        let frame = scene.frame(index);
        if probe.is_some() {
            out.trace.span("scene.render", ms(render.elapsed()));
        }
        out.attempted += 1;
        let call = Instant::now();
        let result = tracker.run_frame(&frame.image, &mut state, scratch);
        let frame_ms = ms(call.elapsed());
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                out.failed += 1;
                out.error(format!("frame {index}: {e}"));
                continue;
            }
        };
        times.push((frame_ms, mark));
        tally.fold(&report.report, Some(report.kind), scratch.rois(), &frame.objects);
        if let Some(probe) = probe.as_deref_mut() {
            let rois = scratch.rois();
            if let Err(e) =
                probe.temporal_frame(&mut out.trace, tracker, &frame.image, &report, rois, frame_ms)
            {
                out.error(format!("frame {index}: traced rebuild failed: {e}"));
            }
        }
    }
    (tally, times)
}

/// Runs the workload.
///
/// # Errors
///
/// A set-up failure (invalid configuration or a failing warm-up frame).
pub fn run(args: &Args, clock: &mut HostClock) -> Result<Outcome, HiriseError> {
    let temporal = TemporalConfig::default().keyframe_interval(KEYFRAME_INTERVAL);
    let build = |shards| {
        let tracker = TrackingPipeline::new(config(WIDTH, HEIGHT, shards)?, temporal)?;
        let mut scratch = PipelineScratch::new();
        let mut state = TrackerState::new();
        let warm = scene(WARM_SEED, 0);
        for i in 0..2 {
            tracker.run_frame(&warm.frame(i).image, &mut state, &mut scratch)?;
        }
        Ok::<_, HiriseError>((tracker, scratch))
    };
    // Rebuilt after each third of the clips for `setup_s`.
    let (mut setup, (mut tracker, mut scratch)) = Setup::new(|| build(SHARDS), clock)?;
    let mut out = Outcome::default();
    let mut probe = Probe::new();
    let clips = units_for(args.seconds, CLIP_S, MIN_CLIPS);
    let mut scored = Vec::with_capacity(clips as usize);
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut clip0 = Vec::new();
    // Whole clips only, each a new scene, all scored. The traced run
    // probes every other clip.
    for k in 0..clips {
        let probed = args.trace && k % 2 == 1;
        let p = if probed { Some(&mut probe) } else { None };
        let scene = scene(args.seed, k);
        let (tally, times) = clip(&mut out, clock, &scene, &tracker, &mut scratch, p);
        scored.push(tally);
        if k == 0 {
            clip0.clone_from(&times);
        }
        if probed { &mut traced } else { &mut untraced }.extend_from_slice(&times);
        if (k + 1) % clips.div_ceil(3) == 0 || k + 1 == clips {
            (tracker, scratch) = setup.rebuild((tracker, scratch), clock)?;
        }
    }
    out.e2e.setup_s = setup.median_s(clock);
    // Repeats must reproduce their first play exactly.
    for k in 0..REPEATS {
        let scene = scene(args.seed, k);
        let (tally, times) = clip(&mut out, clock, &scene, &tracker, &mut scratch, None);
        out.check_repeat(&mut scored, k, tally);
        if k == 0 {
            for (best, ms) in clip0.iter_mut().zip(times) {
                best.0 = best.0.min(ms.0);
            }
        }
    }
    if args.trace {
        // Row sharding must not change a single output: replay clip 0 at
        // one shard and compare.
        let (one, mut one_scratch) = build(1)?;
        let scene = scene(args.seed, 0);
        let (tally, times) = clip(&mut out, clock, &scene, &one, &mut one_scratch, None);
        out.check_repeat(&mut scored, 0, tally);
        let sum = |s: &[(f64, usize)]| s.iter().map(|t| t.0).sum::<f64>();
        out.trace.gauge("sensor.shard_speedup", ratio(sum(&times), sum(&clip0)));
        let wall = |s: &[(f64, usize)]| median(&s.iter().map(|t| t.0).collect::<Vec<_>>());
        let overhead = ratio(wall(&traced), wall(&untraced)) - 1.0;
        out.trace.gauge("trace_overhead_frac", overhead);
    }
    let wall_ms: Vec<f64> = untraced.iter().map(|&(ms, _)| ms).collect();
    out.notes.push(format!(
        "{clips} clips of {CLIP_FRAMES} frames, {} frames timed; wall-clock frame p50 {:.2} ms, p90 {:.2} ms",
        wall_ms.len(),
        percentile(&wall_ms, 50.0),
        percentile(&wall_ms, 90.0)
    ));
    out.closed_loop(&clock.scale_all(&untraced), &scored);
    Ok(out)
}
