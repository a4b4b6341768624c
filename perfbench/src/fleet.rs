//! `serve_fleet`: open loop. Seeded `hirise_serve::generate` traffic at
//! 256×192, admitted over the whole run, ticked on a fixed 30 Hz
//! wall-clock schedule and drained by `serve_parallel(2)`, with an
//! engine snapshot every second. Frames are small, so per-frame and
//! per-tick fixed costs dominate rather than pixel kernels.
//!
//! Each tick is timed from when it was due, so a drain that overruns its
//! period delays the ticks behind it and that wait is counted. A host
//! clock burst runs in a tick's slack when enough of the period is
//! left, and each tick's times are rescaled by the host speed around
//! it. The run is two plays, each with its own traffic on a fresh
//! engine, and the figures pool their ticks: a play's session mix moves
//! its tick percentiles by up to a fifth, so a run averages two. After
//! the plays (off the clock) the first play's schedule is run again
//! unpaced and must serve the same frames at the same shed levels, and
//! every session is replayed through `TrackingPipeline` at the shed
//! levels the engine stamped, which both checks the engine's output and
//! gives the ROIs for recall.

use std::thread::sleep;
use std::time::{Duration, Instant};

use hirise::stream::SequenceSummary;
use hirise::temporal::{TrackerState, TrackingPipeline};
use hirise::{HiriseConfig, HiriseError, PipelineScratch, TemporalConfig};
use hirise_scene::{ScenarioGenerator, ScenarioSpec};
use hirise_serve::{
    generate, source_for, AdmitError, ServeConfig, ServeEngine, ServeSummary, SessionPlan,
    SessionReport, TrafficConfig,
};

use crate::cli::Args;
use crate::common::{miss_frac, scene_seed, EndToEnd, Outcome, Setup, Tally, PERIOD_MS};
use crate::stats::{median, ms, percentile, ratio, HostClock};
use crate::trace::Probe;

const WIDTH: u32 = 256;
const HEIGHT: u32 = 192;
const WORKERS: usize = 2;
/// Offered load, frames per second: a third of the 180–200 frames/s
/// `serve_parallel(2)` drains on an uncontended 2-CPU host, and 60 % of
/// the ~100 frames/s it drains when other tenants load that host, so
/// the queue stays stable in both.
const OFFERED_FPS: f64 = 60.0;
/// Sessions the shed ladder is provisioned for; peaks above it shed.
const RATED_SESSIONS: usize = 2;
/// Plays per run, each with its own traffic.
const PLAYS: u64 = 2;
/// Sessions served to completion by each set-up's warm-up.
const WARM_SESSIONS: usize = 4;
/// Ticks between engine snapshots (one per second).
const SNAPSHOT_EVERY: u64 = 30;
/// Slack left in a tick's period, ms, above which a host clock burst
/// runs: a burst takes 3–5 ms, so it never delays the next tick.
const CLOCK_SLACK_MS: f64 = 12.0;
const KEYFRAME_INTERVAL: u32 = 8;

fn serve_config() -> Result<ServeConfig, HiriseError> {
    let pipeline = HiriseConfig::builder(WIDTH, HEIGHT).pooling(2).roi_margin(2).build()?;
    Ok(ServeConfig::new(pipeline)
        .temporal(TemporalConfig::default().keyframe_interval(KEYFRAME_INTERVAL))
        .rated_sessions(RATED_SESSIONS)
        .max_sessions(64)
        // Holds every frame of the longest session, so the engine's own
        // latency samples are complete.
        .latency_window(TrafficConfig::default().long_frames as usize))
}

/// The traffic for a play of `ticks` ticks: the seed's session mix, just
/// enough of it that the planned frames reach the offered load (session
/// `i` of a seed is the same at any session count), admitted in the
/// generated order at the offered frame rate — evenly over the play, so
/// it measures a steady state rather than chance arrival clusters — and
/// early enough that every session completes within the play.
fn plans(seed: u64, ticks: u64) -> Vec<SessionPlan> {
    let target = (OFFERED_FPS * ticks as f64 * PERIOD_MS / 1e3).ceil() as u64;
    let mut config = TrafficConfig { sessions: 1, seed, ..TrafficConfig::default() };
    config.arrival_span = ticks.saturating_sub(u64::from(config.long_frames) + 2).max(1);
    let frames =
        |plans: &[SessionPlan]| plans.iter().map(|p| u64::from(p.spec.frames)).sum::<u64>();
    let mut plans = generate(&config);
    while frames(&plans) < target {
        config.sessions += 1;
        plans = generate(&config);
    }
    let total = frames(&plans);
    let mut before = 0;
    for plan in &mut plans {
        plan.at_tick = before * config.arrival_span / total;
        before += u64::from(plan.spec.frames);
    }
    plans
}

/// What one play of the tick schedule produced.
struct Play {
    /// Latency of each tick from its due time, ms.
    tick_ms: Vec<f64>,
    /// Whether each tick started late: the work before it ran past its
    /// due time.
    late: Vec<bool>,
    /// `serve_parallel` time of each tick, ms.
    drain_ms: Vec<f64>,
    /// Time each tick spent in the program — admissions, `tick`, the
    /// drain and any snapshot — from its start to its end, ms.
    busy_ms: Vec<f64>,
    /// Frames served by each tick.
    served: Vec<u64>,
    /// The host clock mark each tick's times are rescaled by.
    marks: Vec<usize>,
    /// The tick each plan was admitted on.
    admitted_at: Vec<u64>,
    /// The shed base level after each tick.
    levels: Vec<u8>,
    summary: ServeSummary,
}

/// The plays' timed figures, over the ticks of every play. Tick
/// percentiles are over the ticks that served frames: an empty tick's
/// latency is the loop's, not the engine's, and the share of them moves
/// with the seed's mix. Each frame takes the latency of the tick that
/// served it. Each tick's times pass through `scale` with the tick's
/// host clock mark.
fn figures(plays: &[Play], scale: impl Fn(f64, usize) -> f64) -> EndToEnd {
    let scaled = |field: fn(&Play) -> &[f64]| -> Vec<f64> {
        let ticks = plays.iter().flat_map(|p| field(p).iter().zip(&p.marks));
        ticks.map(|(&ms, &mark)| scale(ms, mark)).collect()
    };
    let tick_ms = scaled(|p| &p.tick_ms);
    let served: Vec<u64> = plays.iter().flat_map(|p| p.served.iter().copied()).collect();
    let loaded: Vec<f64> =
        tick_ms.iter().zip(&served).filter(|&(_, &n)| n > 0).map(|(&ms, _)| ms).collect();
    let mut frame_ms = Vec::new();
    for (&ms, &n) in tick_ms.iter().zip(&served) {
        frame_ms.extend(std::iter::repeat_n(ms, n as usize));
    }
    let total = served.iter().sum::<u64>() as f64;
    let sum_s = |v: Vec<f64>| v.iter().sum::<f64>() / 1e3;
    let wall: Vec<f64> = plays.iter().flat_map(|p| p.tick_ms.iter().copied()).collect();
    let late: Vec<bool> = plays.iter().flat_map(|p| p.late.iter().copied()).collect();
    EndToEnd {
        frame_ms_p50: percentile(&frame_ms, 50.0),
        frame_ms_p90: percentile(&frame_ms, 90.0),
        tick_ms_p50: percentile(&loaded, 50.0),
        tick_ms_p90: percentile(&loaded, 90.0),
        tick_miss_frac: miss_frac(&wall, &late),
        frames_per_s: ratio(total, sum_s(scaled(|p| &p.busy_ms))),
        capacity_fps: ratio(total, sum_s(scaled(|p| &p.drain_ms))),
        ..EndToEnd::default()
    }
}

/// Plays a tick schedule once on a fresh engine: `paced` on the 30 Hz
/// wall clock, or else back to back, off the clock, to check that it
/// repeats. The traced run times the calls of every other paced tick,
/// swapping which ones each play.
fn schedule(
    out: &mut Outcome,
    clock: &mut HostClock,
    args: &Args,
    plans: &[SessionPlan],
    ticks: u64,
    play: Option<u64>,
) -> Result<Play, HiriseError> {
    let mut engine = ServeEngine::new(serve_config()?)?;
    let mut run = Play {
        tick_ms: Vec::with_capacity(ticks as usize),
        late: Vec::with_capacity(ticks as usize),
        drain_ms: Vec::with_capacity(ticks as usize),
        busy_ms: Vec::with_capacity(ticks as usize),
        served: Vec::with_capacity(ticks as usize),
        marks: Vec::with_capacity(ticks as usize),
        admitted_at: Vec::with_capacity(plans.len()),
        levels: Vec::with_capacity(ticks as usize),
        summary: engine.summary(),
    };
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut next = 0;
    let period = Duration::from_secs_f64(PERIOD_MS / 1e3);
    let t0 = Instant::now();
    for t in 0..ticks {
        let due = t0 + period.mul_f64(t as f64);
        let wait = due.checked_duration_since(Instant::now()).filter(|_| play.is_some());
        run.late.push(wait.is_none() && t > 0);
        if let Some(wait) = wait {
            sleep(wait);
        }
        let begin = Instant::now();
        run.marks.push(clock.mark());
        let tracing = args.trace && play.is_some_and(|p| (t + p) % 2 == 1);
        while next < plans.len() && plans[next].at_tick <= engine.ticks() {
            let admit = Instant::now();
            let spec = plans[next].spec.clone();
            let source = source_for(&spec, WIDTH, HEIGHT).ok_or_else(|| unknown(&spec.scenario))?;
            match engine.admit(spec, source) {
                Ok(_) => run.admitted_at.push(t),
                Err(AdmitError::Full { .. }) => out.failed += 1,
                Err(e) => return Err(HiriseError::InvalidConfig { reason: e.to_string() }),
            }
            if tracing {
                out.trace.span("serve.admit", ms(admit.elapsed()));
            }
            next += 1;
        }
        let tick = Instant::now();
        engine.tick();
        if tracing {
            out.trace.span("serve.tick", ms(tick.elapsed()));
        }
        run.levels.push(engine.shed_level());
        let drain = Instant::now();
        let result = engine.serve_parallel(WORKERS);
        let drained = Instant::now();
        // The snapshot is part of the tick it is taken on, so its cost
        // reaches the tick latency.
        if (t + 1) % SNAPSHOT_EVERY == 0 {
            let bytes = engine.snapshot().len();
            if args.trace && play.is_some() {
                out.trace.span("serve.snapshot", ms(drained.elapsed()));
                out.trace.gauge("serve.snapshot_kb", bytes as f64 / 1000.0);
            }
        }
        let end = Instant::now();
        let tick_ms = ms(end - due);
        run.served.push(match result {
            Ok(n) => n,
            Err(e) => {
                out.failed += 1;
                out.error(format!("tick {t}: {e}"));
                0
            }
        });
        run.drain_ms.push(ms(drained - drain));
        run.busy_ms.push(ms(end - begin));
        run.tick_ms.push(tick_ms);
        if tracing {
            out.trace.span("serve.drain", ms(drained - drain));
            out.trace.span("serve.gen_late", ms(begin - due));
            out.trace.tick_time(tick_ms);
            traced.push(tick_ms);
        } else {
            untraced.push(tick_ms);
        }
        let next_due = t0 + period.mul_f64((t + 1) as f64);
        let slack = next_due.checked_duration_since(Instant::now());
        if play.is_some() && slack.is_some_and(|d| ms(d) > CLOCK_SLACK_MS) {
            clock.sample();
        }
    }
    run.summary = engine.summary();
    if args.trace && play == Some(0) {
        out.trace.gauge("trace_overhead_frac", ratio(median(&traced), median(&untraced)) - 1.0);
    }
    Ok(run)
}

/// Checks one play's fleet: every planned frame served, nothing
/// dropped, refused, quarantined or deferred.
fn check_fleet(out: &mut Outcome, play: &Play, planned: u64) {
    let summary = &play.summary;
    let served: u64 = play.served.iter().sum();
    let lost = summary.dropped + summary.quarantined + summary.rejected;
    out.failed += lost;
    if lost > 0 || summary.frames != planned || served != planned {
        out.error(format!(
            "served {served} (summary {}) of {planned} planned frames; \
             {} dropped, {} quarantined, {} refused",
            summary.frames, summary.dropped, summary.quarantined, summary.rejected
        ));
    }
    if summary.deferred > 0 {
        out.error(format!("{} deferrals: queues drained every tick never fill", summary.deferred));
    }
}

/// Warms the serve path on a throwaway engine: the first
/// [`WARM_SESSIONS`] sessions of the generator's default traffic — the
/// same work on every seed — served to completion without a schedule:
/// one `serve_parallel` drain to warm the worker path, then serial ones
/// (an all-parallel warm-up's time spread twice as much across runs).
fn warm_up() -> Result<(), HiriseError> {
    let invalid = |e: &dyn std::fmt::Display| HiriseError::InvalidConfig { reason: e.to_string() };
    let mut warm = ServeEngine::new(serve_config()?)?;
    let mut frames = 0;
    let traffic = TrafficConfig { sessions: WARM_SESSIONS, ..TrafficConfig::default() };
    for plan in generate(&traffic) {
        let spec = plan.spec;
        frames += u64::from(spec.frames);
        let source = source_for(&spec, WIDTH, HEIGHT).ok_or_else(|| unknown(&spec.scenario))?;
        warm.admit(spec, source).map_err(|e| invalid(&e))?;
    }
    let mut served = 0;
    for _ in 0..=frames {
        if served == frames {
            return Ok(());
        }
        warm.tick();
        let drained = if served == 0 { warm.serve_parallel(WORKERS) } else { warm.serve(u64::MAX) };
        served += drained.map_err(|e| invalid(&e))?;
    }
    Err(invalid(&format!("warm-up served {served} of {frames} frames")))
}

/// Runs the workload.
///
/// # Errors
///
/// A set-up failure (invalid configuration or a failing warm-up).
pub fn run(args: &Args, clock: &mut HostClock) -> Result<Outcome, HiriseError> {
    let ticks = (args.seconds * 1e3 / PERIOD_MS / PLAYS as f64).round().max(1.0) as u64;
    // Set-up: every play's traffic and a warm-up; rebuilt after each
    // play for `setup_s`.
    let (mut setup, mut traffic) = Setup::new(
        || {
            let traffic: Vec<_> =
                (0..PLAYS).map(|play| plans(scene_seed(args.seed, play), ticks)).collect();
            warm_up()?;
            Ok::<_, HiriseError>(traffic)
        },
        clock,
    )?;
    let frames = |plans: &[SessionPlan]| plans.iter().map(|p| u64::from(p.spec.frames)).sum();
    let planned: u64 = traffic.iter().map(|plans| frames(plans)).sum();
    let sessions = traffic.iter().map(Vec::len).sum::<usize>();
    // The plays, then the first play's schedule again.
    let attempted = (sessions + traffic[0].len()) as u64 + planned + frames(&traffic[0]);
    let mut out = Outcome { attempted, ..Outcome::default() };
    out.notes.push(format!(
        "offered {:.1} frames/s ({sessions} sessions, {planned} frames over {PLAYS} plays of \
         {ticks} ticks)",
        planned as f64 / ((PLAYS * ticks) as f64 * PERIOD_MS / 1e3),
    ));
    let mut plays = Vec::with_capacity(PLAYS as usize);
    for play in 0..PLAYS {
        plays.push(schedule(&mut out, clock, args, &traffic[play as usize], ticks, Some(play))?);
        traffic = setup.rebuild(traffic, clock)?;
    }
    // The engine's output is a function of the schedule alone, never of
    // timing: the first play's schedule, run again unpaced, must serve
    // the same frames at the same shed levels.
    let first = &plays[0];
    let repeat = schedule(&mut out, clock, args, &traffic[0], ticks, None)?;
    let same_sessions = repeat.summary.sessions.iter().map(|s| &s.summary).eq(first
        .summary
        .sessions
        .iter()
        .map(|s| &s.summary));
    if repeat.served != first.served || repeat.levels != first.levels || !same_sessions {
        out.error("the first play's schedule served differently when repeated".into());
    }
    for (play, plans) in plays.iter().zip(&traffic) {
        check_fleet(&mut out, play, frames(plans));
    }
    let wall = figures(&plays, |ms, _| ms);
    out.notes.push(format!(
        "wall-clock tick p50 {:.2} ms, p90 {:.2} ms; frame p50 {:.2} ms, p90 {:.2} ms",
        wall.tick_ms_p50, wall.tick_ms_p90, wall.frame_ms_p50, wall.frame_ms_p90
    ));
    out.e2e = EndToEnd {
        setup_s: setup.median_s(clock),
        ..figures(&plays, |ms, mark| clock.scale(ms, mark))
    };

    if args.trace {
        let summaries = || plays.iter().map(|p| &p.summary);
        let engine_ms: f64 =
            summaries().flat_map(|s| &s.sessions).flat_map(|s| s.latency_ms.iter()).sum();
        let drain_ms: f64 = plays.iter().flat_map(|p| &p.drain_ms).sum();
        let t = &mut out.trace;
        t.gauge("serve.worker_util", ratio(engine_ms, WORKERS as f64 * drain_ms));
        t.gauge("serve.deferred", summaries().map(|s| s.deferred).sum::<u64>() as f64);
        let max_shed = summaries().map(|s| s.max_shed_level).max().unwrap_or(0);
        t.gauge("serve.max_shed_level", f64::from(max_shed));
        t.gauge("serve.dropped", summaries().map(|s| s.dropped).sum::<u64>() as f64);
        t.gauge("report.serve.p50_ms", first.summary.p50_ms);
        t.gauge("report.serve.p99_ms", first.summary.p99_ms);
    }

    let config = serve_config()?;
    let mut replay = Replay::new(&config, args.trace);
    for (play, plans) in plays.iter().zip(&traffic) {
        if play.admitted_at.len() != plans.len() {
            out.error(format!("admitted {} of {} sessions", play.admitted_at.len(), plans.len()));
        }
        let sessions = &play.summary.sessions;
        for ((plan, &at), report) in plans.iter().zip(&play.admitted_at).zip(sessions) {
            if let Err(e) = replay.session(&mut out, plan, report, at, &play.levels) {
                out.error(format!("replay of {}: {e}", report.name));
            }
        }
    }
    out.e2e.tally = replay.tally;
    if args.trace {
        out.e2e.tally.record(&mut out.trace);
    }
    Ok(out)
}

fn unknown(scenario: &str) -> HiriseError {
    HiriseError::InvalidConfig { reason: format!("unknown scenario {scenario:?}") }
}

/// Off-clock replay of served sessions through `TrackingPipeline`.
struct Replay<'a> {
    config: &'a ServeConfig,
    scratch: PipelineScratch,
    probe: Option<Probe>,
    tally: Tally,
}

impl<'a> Replay<'a> {
    fn new(config: &'a ServeConfig, trace: bool) -> Self {
        let probe = trace.then(Probe::new);
        Self { config, scratch: PipelineScratch::new(), probe, tally: Tally::default() }
    }

    /// The shed level each frame of a session was stamped with. Each
    /// tick from admission delivers `frames_per_tick` frames (plus the
    /// burst extra on burst ticks), stamped with the tick's base level
    /// biased by priority; the queues are drained every tick, so no
    /// frame is ever deferred to a later tick.
    fn frame_levels(&self, plan: &SessionPlan, at: u64, base: &[u8]) -> Vec<u8> {
        let spec = &plan.spec;
        let mut out = Vec::with_capacity(spec.frames as usize);
        let mut k = 0u32;
        while out.len() < spec.frames as usize {
            k += 1;
            let mut due = spec.frames_per_tick;
            if spec.burst_every > 0 && k.is_multiple_of(spec.burst_every) {
                due += spec.burst_extra;
            }
            let base = base.get((at + u64::from(k) - 1) as usize).copied().unwrap_or(0);
            let level = self.config.shed.level_for(base, spec.priority);
            let left = spec.frames as usize - out.len();
            out.extend(std::iter::repeat_n(level, (due as usize).min(left)));
        }
        out
    }

    fn session(
        &mut self,
        out: &mut Outcome,
        plan: &SessionPlan,
        report: &SessionReport,
        at: u64,
        base: &[u8],
    ) -> Result<(), HiriseError> {
        let spec = &plan.spec;
        let scenario =
            ScenarioSpec::by_name(&spec.scenario).ok_or_else(|| unknown(&spec.scenario))?;
        let scenario = ScenarioGenerator::new(scenario, WIDTH, HEIGHT, spec.seed);
        let mut tracker =
            TrackingPipeline::new(self.config.pipeline.clone(), self.config.temporal)?;
        let mut state = TrackerState::new();
        let mut summary = SequenceSummary::with_report_capacity(0);
        let mut applied = 0;
        for (index, level) in self.frame_levels(plan, at, base).into_iter().enumerate() {
            if level != applied {
                let (temporal, margin) = self.config.shed.apply(
                    level,
                    self.config.temporal,
                    self.config.pipeline.roi_margin,
                );
                tracker.set_temporal(temporal)?;
                if tracker.pipeline().config().roi_margin != margin {
                    tracker.set_roi_margin(margin);
                }
                applied = level;
            }
            let render = Instant::now();
            let frame = scenario.frame(index as u32);
            let render_ms = ms(render.elapsed());
            let call = Instant::now();
            let frame_report = tracker.run_frame(&frame.image, &mut state, &mut self.scratch)?;
            let frame_ms = ms(call.elapsed());
            summary.fold(&frame_report, false);
            let rois = self.scratch.rois();
            self.tally.fold(&frame_report.report, Some(frame_report.kind), rois, &frame.objects);
            if let Some(probe) = self.probe.as_mut() {
                out.trace.span("scene.render", render_ms);
                probe.temporal_frame(
                    &mut out.trace,
                    &tracker,
                    &frame.image,
                    &frame_report,
                    rois,
                    frame_ms,
                )?;
            }
        }
        if summary != report.summary {
            out.error(format!(
                "{}: engine output differs from a TrackingPipeline replay",
                report.name
            ));
        }
        Ok(())
    }
}
