//! `still_vga`: closed loop, one caller, one thread. Distinct frames of
//! the `crossing` scenario at 640×480 through
//! `HirisePipeline::run_with_scratch` — the paper's per-frame
//! pool → detect → ROI-read path. Temporal tracking, serving and row
//! sharding are not touched.
//!
//! Each frame of a pass comes from its own scene (its own seed and a
//! different point of the crossing), so one run averages over many
//! scenes. The number of passes follows the requested time alone (at
//! least two), and every repeated frame must reproduce its first pass
//! exactly. A host clock burst runs before each frame is rendered, off
//! the clock, and each frame time is rescaled by the host speed around
//! it.

use std::time::Instant;

use hirise::{HiriseConfig, HiriseError, HirisePipeline, PipelineScratch};
use hirise_scene::{ScenarioGenerator, ScenarioSpec, VideoFrame};

use crate::cli::Args;
use crate::common::{scene_seed, units_for, Outcome, Setup, Tally, WARM_SEED};
use crate::stats::{median, ms, percentile, ratio, HostClock};
use crate::trace::Probe;

const WIDTH: u32 = 640;
const HEIGHT: u32 = 480;
/// Frames (and scenes) per pass: enough that 12 lie beyond p90.
const FRAMES: u64 = 120;
/// Nominal length of a pass on an uncontended 2-CPU host, seconds; the
/// traced run's passes take twice as long, as every frame is rebuilt.
const PASS_S: f64 = 6.0;
/// Frames of the crossing sampled (the pedestrians leave after ~42).
const CROSSING_FRAMES: u64 = 40;

fn config() -> Result<HiriseConfig, HiriseError> {
    HiriseConfig::builder(WIDTH, HEIGHT).pooling(2).max_rois(8).sensor_shards(1).build()
}

/// Frame `k` of a pass: scene `k`, at a point of the crossing that
/// steps by 7 frames from scene to scene.
fn frame(seed: u64, k: u64) -> VideoFrame {
    let scene =
        ScenarioGenerator::new(ScenarioSpec::crossing(), WIDTH, HEIGHT, scene_seed(seed, k));
    scene.frame(((k * 7) % CROSSING_FRAMES) as u32)
}

/// Runs the workload.
///
/// # Errors
///
/// A set-up failure (invalid configuration or a failing warm-up frame).
pub fn run(args: &Args, clock: &mut HostClock) -> Result<Outcome, HiriseError> {
    // Set-up: the pipeline, its scratch and two warm-up frames; rebuilt
    // after every pass for `setup_s`.
    let (mut setup, (mut pipeline, mut scratch)) = Setup::new(
        || {
            let pipeline = HirisePipeline::new(config()?);
            let mut scratch = PipelineScratch::new();
            for k in 0..2 {
                pipeline.run_with_scratch(&frame(WARM_SEED, k).image, &mut scratch)?;
            }
            Ok::<_, HiriseError>((pipeline, scratch))
        },
        clock,
    )?;
    let mut out = Outcome::default();
    let mut probe = Probe::new();
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut first_pass = Vec::with_capacity(FRAMES as usize);
    let pass_s = if args.trace { 2.0 * PASS_S } else { PASS_S };
    let passes = units_for(args.seconds, pass_s, 2);
    for k in 0..passes * FRAMES {
        let index = k % FRAMES;
        let mark = clock.sample();
        let render = Instant::now();
        let frame = frame(args.seed, index);
        if args.trace {
            out.trace.span("scene.render", ms(render.elapsed()));
        }
        // The traced rebuild alternates before and after the timed call,
        // so neither side always finds the frame warm in cache.
        let traced_first = args.trace && k % 2 == 1;
        let mut traced = None;
        if traced_first {
            traced = Some(probe.frame(&mut out.trace, &pipeline, &frame.image, true, None));
        }
        out.attempted += 1;
        let call = Instant::now();
        let result = pipeline.run_with_scratch(&frame.image, &mut scratch);
        let frame_ms = ms(call.elapsed());
        if args.trace && !traced_first {
            traced = Some(probe.frame(&mut out.trace, &pipeline, &frame.image, true, None));
        }
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                out.failed += 1;
                out.error(format!("frame {index}: {e}"));
                continue;
            }
        };
        untraced_ms.push((frame_ms, mark));
        let mut tally = Tally::default();
        tally.fold(&report, None, scratch.rois(), &frame.objects);
        out.check_repeat(&mut first_pass, index, tally);
        if let Some(traced) = traced {
            match traced {
                Ok((built, traced)) => {
                    out.trace.frame_time(traced);
                    traced_ms.push(traced);
                    if built.stage1 != report.stage1
                        || built.stage2 != report.stage2
                        || probe.planned() != scratch.rois()
                    {
                        out.error(format!(
                            "frame {index}: public-call rebuild differs from run_with_scratch"
                        ));
                    }
                }
                Err(e) => out.error(format!("frame {index}: traced rebuild failed: {e}")),
            }
            out.trace.program_timings(&report);
        }
        if index == FRAMES - 1 {
            (pipeline, scratch) = setup.rebuild((pipeline, scratch), clock)?;
        }
    }
    let wall_ms: Vec<f64> = untraced_ms.iter().map(|&(ms, _)| ms).collect();
    out.closed_loop(&clock.scale_all(&untraced_ms), &first_pass);
    out.e2e.setup_s = setup.median_s(clock);
    if args.trace {
        let overhead = ratio(median(&traced_ms), median(&wall_ms)) - 1.0;
        out.trace.gauge("trace_overhead_frac", overhead);
    }
    out.notes.push(format!(
        "{passes} passes of {FRAMES} frames, {} frames timed; wall-clock frame p50 {:.2} ms, p90 {:.2} ms",
        wall_ms.len(),
        percentile(&wall_ms, 50.0),
        percentile(&wall_ms, 90.0)
    ));
    Ok(out)
}
