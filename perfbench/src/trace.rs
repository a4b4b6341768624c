//! The traced run's span table, and the probe that times each layer's
//! public calls from outside the program.
//!
//! Spans are kept in memory as raw samples and summarised once, when the
//! run ends. A span's share is its total over the total of its scope:
//! `serve.*` spans are shares of the summed tick latency, every other
//! span a share of the summed frame time of the traced frames.

use std::collections::BTreeMap;
use std::time::Instant;

use hirise::roi::detections_to_rois_into;
use hirise::temporal::TrackingPipeline;
use hirise::{FrameKind, HirisePipeline, ReadoutStats, RunReport, Sensor, TemporalFrameReport};
use hirise_detect::{DetectorScratch, FeatureMaps, FeatureScratch};
use hirise_imaging::rect::UnionScratch;
use hirise_imaging::{FramePool, GrayImage, Image, Plane, Rect, RgbImage};

use crate::stats::{median, ms, ratio};

/// Every span the traced run records, in output order.
pub const SPANS: [&str; 15] = [
    "sensor.capture",
    "sensor.pool",
    "sensor.roi_read",
    "detect.detect",
    "detect.features",
    "core.roi_plan",
    "temporal.keyframe",
    "temporal.tracked",
    "temporal.drift",
    "scene.render",
    "serve.admit",
    "serve.tick",
    "serve.drain",
    "serve.snapshot",
    "serve.gen_late",
];

/// In-memory span samples plus per-frame counter means and gauges.
#[derive(Debug, Default)]
pub struct Trace {
    spans: BTreeMap<&'static str, Vec<f64>>,
    means: BTreeMap<&'static str, (f64, u64)>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    gauges: BTreeMap<&'static str, f64>,
    frame_ms: f64,
    tick_ms: f64,
}

impl Trace {
    /// Records one span sample, ms.
    pub fn span(&mut self, name: &'static str, ms: f64) {
        debug_assert!(SPANS.contains(&name), "unregistered span {name}");
        self.spans.entry(name).or_default().push(ms);
    }

    /// Times `f` as one sample of span `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.span(name, ms(start.elapsed()));
        out
    }

    /// Adds one observation to the running mean `name`.
    pub fn mean(&mut self, name: &'static str, value: f64) {
        let entry = self.means.entry(name).or_default();
        entry.0 += value;
        entry.1 += 1;
    }

    /// Adds one sample to the median metric `name`.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Sets gauge `name`.
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Records the program's own stage timings of one frame (its
    /// `RunReport::timings`), for the stages that ran.
    pub fn program_timings(&mut self, report: &RunReport) {
        let t = report.timings;
        for (name, d) in [
            ("report.capture.ms", t.capture),
            ("report.pool.ms", t.pool),
            ("report.detect.ms", t.detect),
            ("report.roi_read.ms", t.roi_read),
        ] {
            if !d.is_zero() {
                self.sample(name, ms(d));
            }
        }
    }

    /// Adds a traced frame's time to the frame-scope total.
    pub fn frame_time(&mut self, ms: f64) {
        self.frame_ms += ms;
    }

    /// Adds a traced tick's latency to the tick-scope total.
    pub fn tick_time(&mut self, ms: f64) {
        self.tick_ms += ms;
    }

    /// The summary value of per-layer metric `name`: a span's
    /// `.ms` (median), `.count`, `.total_ms` or `.share`, else a mean,
    /// median sample or gauge. Layers the workload never calls read `0`.
    pub fn value(&self, name: &str) -> f64 {
        for (suffix, stat) in [(".total_ms", 0), (".count", 1), (".share", 2), (".ms", 3)] {
            let Some(span) = name.strip_suffix(suffix) else { continue };
            let Some(span) = SPANS.iter().find(|s| **s == span) else { continue };
            let samples = self.spans.get(span).map_or(&[][..], Vec::as_slice);
            let total = samples.iter().fold(0.0, |a, b| a + b);
            let scope = if span.starts_with("serve.") { self.tick_ms } else { self.frame_ms };
            return match stat {
                0 => total,
                1 => samples.len() as f64,
                2 => ratio(total, scope),
                _ => median(samples),
            };
        }
        if let Some(&(sum, n)) = self.means.get(name) {
            return ratio(sum, n as f64);
        }
        if let Some(samples) = self.samples.get(name) {
            return median(samples);
        }
        self.gauges.get(name).copied().unwrap_or(0.0)
    }
}

/// The span a temporal frame's `run_frame` time belongs to.
fn kind_span(kind: FrameKind) -> &'static str {
    match kind {
        FrameKind::Keyframe => "temporal.keyframe",
        FrameKind::DriftRefresh => "temporal.drift",
        FrameKind::Tracked => "temporal.tracked",
    }
}

/// What one probed frame produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeFrame {
    /// Stage-1 readout counters (zero when detection did not run).
    pub stage1: ReadoutStats,
    /// Stage-2 readout counters.
    pub stage2: ReadoutStats,
}

/// A second set of frame buffers on which a frame is rebuilt from the
/// layers' public calls, each call timed as its own span.
#[derive(Debug)]
pub struct Probe {
    sensor: Option<Sensor>,
    analog: Plane,
    pooled: Image,
    detector: DetectorScratch,
    maps: FeatureMaps,
    features: FeatureScratch,
    order: Vec<u32>,
    planned: Vec<Rect>,
    crops: Vec<RgbImage>,
    pool: FramePool,
    union: UnionScratch,
}

impl Probe {
    /// Empty buffers; they grow on the first frame.
    pub fn new() -> Self {
        Self {
            sensor: None,
            analog: Plane::new(1, 1),
            pooled: Image::Gray(GrayImage::new(1, 1)),
            detector: DetectorScratch::new(),
            maps: FeatureMaps::default(),
            features: FeatureScratch::new(),
            order: Vec::new(),
            planned: Vec::new(),
            crops: Vec::new(),
            pool: FramePool::new(),
            union: UnionScratch::new(),
        }
    }

    /// The ROIs the last detecting frame planned.
    pub fn planned(&self) -> &[Rect] {
        &self.planned
    }

    /// Rebuilds one frame of `pipeline` on `scene`: capture, then (when
    /// `detect`) pool → detect → ROI plan, then the ROI readout of
    /// `read` (or of the planned ROIs when `None`). Returns the readout
    /// counters and the frame's traced time, ms; the feature-map split
    /// of detect runs after the frame and is not part of that time.
    ///
    /// # Errors
    ///
    /// Sensor failures, as for the pipeline itself.
    pub fn frame(
        &mut self,
        trace: &mut Trace,
        pipeline: &HirisePipeline,
        scene: &RgbImage,
        detect: bool,
        read: Option<&[Rect]>,
    ) -> hirise_sensor::Result<(ProbeFrame, f64)> {
        let cfg = pipeline.config();
        let start = Instant::now();
        let slot = &mut self.sensor;
        let sensor = trace.time("sensor.capture", || {
            if slot.as_ref().is_some_and(|s| *s.config() == cfg.sensor) {
                let sensor = slot.as_mut().expect("presence just checked");
                sensor.recapture(scene);
                sensor
            } else {
                slot.insert(Sensor::capture(scene, cfg.sensor))
            }
        });
        let mut stage1 = ReadoutStats::default();
        if detect {
            let (analog, pooled) = (&mut self.analog, &mut self.pooled);
            stage1 = trace.time("sensor.pool", || {
                sensor.capture_pooled_into(cfg.pooling_k, cfg.stage1_color, analog, pooled)
            })?;
            let (detector, scratch) = (pipeline.detector(), &mut self.detector);
            let detections = trace.time("detect.detect", || {
                detector.detect_with_scratch(&self.pooled, scratch).len()
            });
            trace.mean("detect.detections", detections as f64);
            let (order, planned) = (&mut self.order, &mut self.planned);
            let detections = self.detector.detections();
            trace.time("core.roi_plan", || {
                detections_to_rois_into(
                    detections,
                    cfg.pooling_k,
                    cfg.roi_margin,
                    cfg.array_width,
                    cfg.array_height,
                    cfg.max_rois,
                    order,
                    planned,
                )
            });
        }
        let rois = read.unwrap_or(&self.planned);
        let (crops, pool, union) = (&mut self.crops, &mut self.pool, &mut self.union);
        let stage2 =
            trace.time("sensor.roi_read", || sensor.read_rois_into(rois, crops, pool, union))?;
        let frame_ms = ms(start.elapsed());
        if detect {
            let (maps, pooled, features) = (&mut self.maps, &self.pooled, &mut self.features);
            trace.time("detect.features", || maps.recompute(pooled, features));
        }
        trace.mean("sensor.roi_pixels", rois.iter().map(Rect::area).sum::<u64>() as f64);
        Ok((ProbeFrame { stage1, stage2 }, frame_ms))
    }

    /// Traces one frame of `tracker` that took `frame_ms` in
    /// `run_frame`: the span of its frame kind, the program's own stage
    /// timings, and a rebuild on the probe's buffers that reads the
    /// frame's ROIs `rois`.
    ///
    /// # Errors
    ///
    /// Sensor failures of the rebuild.
    pub fn temporal_frame(
        &mut self,
        trace: &mut Trace,
        tracker: &TrackingPipeline,
        scene: &RgbImage,
        report: &TemporalFrameReport,
        rois: &[Rect],
        frame_ms: f64,
    ) -> hirise_sensor::Result<()> {
        trace.span(kind_span(report.kind), frame_ms);
        trace.frame_time(frame_ms);
        trace.program_timings(&report.report);
        let detect = report.kind.ran_detection();
        self.frame(trace, tracker.pipeline(), scene, detect, Some(rois)).map(|_| ())
    }
}
