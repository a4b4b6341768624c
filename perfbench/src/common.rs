//! What every workload shares: the deterministic per-pass tally, the
//! end-to-end result, and set-up timing.

use std::time::Instant;

use hirise::{FrameKind, Rect, RunReport};
use hirise_scene::VideoObject;

use crate::stats::{percentile, ratio, HostClock};
use crate::trace::Trace;

/// The IoU at which a ground-truth box counts as recalled by an ROI.
pub const RECALL_IOU: f64 = 0.5;

/// Seed of the closed loops' warm-up frames: fixed, so a set-up does
/// the same work whatever the run's seed.
pub const WARM_SEED: u64 = 0;

/// The camera frame period a frame or tick is held to: 30 Hz.
pub const PERIOD_MS: f64 = 1000.0 / 30.0;

/// The deterministic outputs of a sequence of frames. Two passes over
/// the same inputs must produce equal tallies, bit for bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Frames folded.
    pub frames: u64,
    /// Stage-1 ADC conversions.
    pub stage1_conversions: u64,
    /// Stage-2 ADC conversions.
    pub stage2_conversions: u64,
    /// Sensor↔processor transfer, bits (the paper's `D_new`).
    pub transfer_bits: u64,
    /// Sensor energy in frame order, millijoules.
    pub energy_mj: f64,
    /// Summed per-frame peak image memory, bytes.
    pub peak_image_bytes: u64,
    /// ROIs read.
    pub rois: u64,
    /// ROIs whose best ground-truth IoU reaches [`RECALL_IOU`].
    pub roi_hits: u64,
    /// Sum over ROIs of each ROI's best ground-truth IoU.
    pub iou_sum: f64,
    /// Ground-truth boxes.
    pub truth: u64,
    /// Ground-truth boxes covered by an ROI at IoU ≥ [`RECALL_IOU`].
    pub recalled: u64,
    /// Keyframes, drift refreshes and tracked frames (temporal paths).
    pub kinds: [u64; 3],
}

impl Tally {
    /// Folds one frame: its report, its frame kind (temporal paths), the
    /// ROIs it read and the frame's ground truth.
    pub fn fold(
        &mut self,
        report: &RunReport,
        kind: Option<FrameKind>,
        rois: &[Rect],
        truth: &[VideoObject],
    ) {
        self.frames += 1;
        self.stage1_conversions += report.stage1.conversions;
        self.stage2_conversions += report.stage2.conversions;
        self.transfer_bits += report.total_transfer_bits();
        self.energy_mj += report.sensor_energy_mj_default();
        self.peak_image_bytes += report.peak_image_bytes();
        self.rois += rois.len() as u64;
        for roi in rois {
            let best = truth.iter().map(|t| roi.iou(&t.bbox)).fold(0.0, f64::max);
            self.iou_sum += best;
            self.roi_hits += u64::from(best >= RECALL_IOU);
        }
        self.truth += truth.len() as u64;
        self.recalled +=
            truth.iter().filter(|t| rois.iter().any(|r| r.iou(&t.bbox) >= RECALL_IOU)).count()
                as u64;
        match kind {
            Some(FrameKind::Keyframe) => self.kinds[0] += 1,
            Some(FrameKind::DriftRefresh) => self.kinds[1] += 1,
            Some(FrameKind::Tracked) => self.kinds[2] += 1,
            None => {}
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.frames += other.frames;
        self.stage1_conversions += other.stage1_conversions;
        self.stage2_conversions += other.stage2_conversions;
        self.transfer_bits += other.transfer_bits;
        self.energy_mj += other.energy_mj;
        self.peak_image_bytes += other.peak_image_bytes;
        self.rois += other.rois;
        self.roi_hits += other.roi_hits;
        self.iou_sum += other.iou_sum;
        self.truth += other.truth;
        self.recalled += other.recalled;
        for (a, b) in self.kinds.iter_mut().zip(other.kinds) {
            *a += b;
        }
    }

    /// Records the tally's per-frame counts and ratios on the trace.
    pub fn record(&self, trace: &mut Trace) {
        let frames = self.frames as f64;
        trace.gauge("sensor.stage1_conversions", ratio(self.stage1_conversions as f64, frames));
        trace.gauge("sensor.stage2_conversions", ratio(self.stage2_conversions as f64, frames));
        trace.gauge("sensor.transfer_bits", ratio(self.transfer_bits as f64, frames));
        trace.gauge("core.rois", ratio(self.rois as f64, frames));
        trace.gauge("core.roi_hit_rate", ratio(self.roi_hits as f64, self.rois as f64));
        trace.gauge("temporal.tracked_frac", ratio(self.kinds[2] as f64, frames));
    }
}

/// A workload's end-to-end measurement.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Median frame latency, ms.
    pub frame_ms_p50: f64,
    /// 90th-percentile frame latency, ms.
    pub frame_ms_p90: f64,
    /// Median tick latency from the tick's scheduled time, ms.
    pub tick_ms_p50: f64,
    /// 90th-percentile tick latency from the tick's scheduled time, ms.
    pub tick_ms_p90: f64,
    /// Ticks that missed their period, over ticks scheduled. Reported by
    /// the traced run only: as a count over a threshold it amplifies
    /// host contention too much to gate on (see README).
    pub tick_miss_frac: f64,
    /// Frames delivered per second.
    pub frames_per_s: f64,
    /// Frames served per second of serving time.
    pub capacity_fps: f64,
    /// Peak resident memory of the measured work, MB: the process peak
    /// less the host clock's reference plane.
    pub peak_rss_mb: f64,
    /// The deterministic outputs the simulated metrics come from.
    pub tally: Tally,
}

impl EndToEnd {
    /// The end-to-end metrics with their units, in `BENCHMARK.json`
    /// order.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let t = &self.tally;
        let frames = t.frames as f64;
        vec![
            ("setup_s", self.setup_s, "s"),
            ("frame_ms_p50", self.frame_ms_p50, "ms"),
            ("frame_ms_p90", self.frame_ms_p90, "ms"),
            ("frames_per_s", self.frames_per_s, "1/s"),
            ("tick_ms_p50", self.tick_ms_p50, "ms"),
            ("tick_ms_p90", self.tick_ms_p90, "ms"),
            ("serve_capacity_fps", self.capacity_fps, "1/s"),
            ("peak_rss_mb", self.peak_rss_mb, "MB"),
            ("transfer_kb_per_frame", ratio(t.transfer_bits as f64 / 8000.0, frames), "kB"),
            ("sensor_energy_uj_per_frame", ratio(t.energy_mj * 1e3, frames), "uJ"),
            ("peak_image_kb", ratio(t.peak_image_bytes as f64 / 1000.0, frames), "kB"),
            ("roi_recall", ratio(t.recalled as f64, t.truth as f64), "frac"),
            ("roi_iou_mean", ratio(t.iou_sum, t.rois as f64), "frac"),
        ]
    }
}

/// Ticks that missed their period, over ticks scheduled: the tick took
/// longer than the period from its due time, or could not even start on
/// time because the work before it ran past its due time.
pub fn miss_frac(tick_ms: &[f64], late: &[bool]) -> f64 {
    let late = |i: usize| late.get(i).copied().unwrap_or(false);
    let misses = tick_ms.iter().enumerate().filter(|&(i, &ms)| ms > PERIOD_MS || late(i)).count();
    ratio(misses as f64, tick_ms.len() as f64)
}

/// Units of work, each nominally `unit_s` seconds long on an
/// uncontended 2-CPU host, that fill a `seconds` run; at least `min`.
/// The count depends on the requested time alone, never on how fast
/// the program runs, so every commit measures the same work.
pub fn units_for(seconds: f64, unit_s: f64, min: u64) -> u64 {
    ((seconds / unit_s).round() as u64).max(min)
}

/// A workload run's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The end-to-end measurement.
    pub e2e: EndToEnd,
    /// The per-layer trace (empty unless traced).
    pub trace: Trace,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: frame errors, refused admissions, dropped
    /// sessions and quarantined frames.
    pub failed: u64,
    /// Correctness violations found.
    pub errors: Vec<String>,
    /// Context printed beside the result (offered load, sizes).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether the run was correct: no violation and no failed operation.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// Records a correctness violation.
    pub fn error(&mut self, message: String) {
        if self.errors.len() < 16 {
            self.errors.push(message);
        }
    }

    /// Keeps the first-pass tally of unit `index` (a frame or a clip),
    /// or checks a later pass's repeat of it, which must match exactly.
    pub fn check_repeat(&mut self, first: &mut Vec<Tally>, index: u64, tally: Tally) {
        match first.get(index as usize) {
            None => first.push(tally),
            Some(seen) if *seen == tally => {}
            Some(seen) => {
                let message = format!("unit {index} repeated differently: {tally:?} vs {seen:?}");
                self.error(message);
            }
        }
    }

    /// Derives the closed-loop metrics from the frame times and the
    /// scored units' tallies. Each frame is scheduled when the previous
    /// one returns, so each frame is its own tick.
    pub fn closed_loop(&mut self, frame_ms: &[f64], scored: &[Tally]) {
        let e2e = &mut self.e2e;
        e2e.frame_ms_p50 = percentile(frame_ms, 50.0);
        e2e.frame_ms_p90 = percentile(frame_ms, 90.0);
        e2e.tick_ms_p50 = e2e.frame_ms_p50;
        e2e.tick_ms_p90 = e2e.frame_ms_p90;
        e2e.tick_miss_frac = miss_frac(frame_ms, &[]);
        let total_ms: f64 = frame_ms.iter().sum();
        e2e.frames_per_s = ratio(frame_ms.len() as f64, total_ms / 1e3);
        e2e.capacity_fps = e2e.frames_per_s;
        e2e.tally = Tally::default();
        for tally in scored {
            e2e.tally.merge(tally);
        }
        e2e.tally.record(&mut self.trace);
    }
}

/// The seed of scene `index` in a run seeded `seed`: a SplitMix64 step
/// of the pair, so every scene of every run is an independent draw.
pub fn scene_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Set-up timing. A workload builds twice before it measures, and
/// rebuilds at a few points spread over its run, each time dropping the
/// build in use first, so only one is ever live: `setup_s`, the median
/// build time rescaled by the host clock, samples the host across the
/// run rather than in one burst.
pub struct Setup<F> {
    build: F,
    times: Vec<(f64, usize)>,
}

impl<T, E, F: FnMut() -> Result<T, E>> Setup<F> {
    /// Builds twice; returns the timer and the second build.
    pub fn new(build: F, clock: &mut HostClock) -> Result<(Self, T), E> {
        let mut setup = Self { build, times: Vec::new() };
        let first = setup.timed(clock)?;
        let built = setup.rebuild(first, clock)?;
        Ok((setup, built))
    }

    /// Drops `built` and times a fresh build to replace it.
    pub fn rebuild(&mut self, built: T, clock: &mut HostClock) -> Result<T, E> {
        drop(built);
        self.timed(clock)
    }

    /// The median build time on the nominal host, seconds.
    pub fn median_s(&self, clock: &HostClock) -> f64 {
        crate::stats::median(&clock.scale_all(&self.times))
    }

    fn timed(&mut self, clock: &mut HostClock) -> Result<T, E> {
        let mark = clock.sample();
        let start = Instant::now();
        let built = (self.build)()?;
        self.times.push((start.elapsed().as_secs_f64(), mark));
        Ok(built)
    }
}
