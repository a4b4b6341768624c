//! The serve engine: session slab, admission control, tick-driven
//! shedding, and deficit-round-robin frame scheduling.
//!
//! # Lifecycle
//!
//! Sessions are [`ServeEngine::admit`]ted into a fixed slab (refused —
//! never silently queued or dropped — past `max_sessions`). Time
//! advances in [`ServeEngine::tick`]s: each tick retires finished
//! sessions, recomputes the fleet's shed level from the deterministic
//! load ratio `active / rated_sessions`, and lets every session move
//! this tick's frame arrivals into its bounded queue, stamping each
//! queued frame with the session's current shed level. Between ticks,
//! [`ServeEngine::serve`] drains the queues round-robin on the calling
//! thread, `quantum` frames per session per round;
//! [`ServeEngine::serve_parallel`] drains them on a persistent worker
//! pool, each participant claiming the next live session in slot order.
//!
//! # Determinism
//!
//! The shed level is computed only at tick time from admission/retire
//! counts, and stamped per frame at enqueue time — never read during
//! serving. A session's output is therefore a pure function of its
//! `(spec, source, arrival schedule, stamped level trajectory)`: for a
//! fixed tick/serve driver schedule, worker counts, slot placement, and
//! round-robin order cannot change any session's frames, counters, or
//! energy fold. The integration tests pin this bit-for-bit.
//!
//! # No drops, by construction
//!
//! There is no code path that discards an admitted session or a
//! generated frame: overload widens keyframe intervals and shrinks ROI
//! margins (the [`ShedPolicy`] ladder), and full queues defer arrivals
//! to later ticks. [`ServeSummary::dropped`] exists to pin that
//! contract at 0 in every report.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use hirise::{HiriseConfig, HiriseError, PipelineScratch, Result, ShardPool, TemporalConfig};

use crate::fault::FaultInjector;
use crate::session::{FrameSource, Session, SessionReport, SessionSpec};
use crate::shed::ShedPolicy;

/// Engine-assigned session identity: the admission sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Why [`ServeEngine::admit`] refused a session. Refusal at the door is
/// the only "no" the engine ever says — an admitted session is never
/// dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The slab is at its hard cap.
    Full {
        /// Sessions currently live.
        active: usize,
        /// The configured cap.
        max_sessions: usize,
    },
    /// The spec or source is degenerate (zero frames, empty clip, …).
    Invalid {
        /// Description of the violated constraint.
        reason: String,
    },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Full { active, max_sessions } => {
                write!(f, "admission refused: {active} active sessions at the cap {max_sessions}")
            }
            AdmitError::Invalid { reason } => write!(f, "admission refused: {reason}"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// Why a serve pass failed. With session isolation on (the default) a
/// panicking session is quarantined rather than surfaced here, so
/// [`ServeError::WorkerPanicked`] only appears when isolation is
/// explicitly disabled or a worker fails outside any session's frame.
#[derive(Debug)]
pub enum ServeError {
    /// A serve worker thread panicked. Replaces the old fleet-fatal
    /// `handle.join().expect(...)`: the caller gets a structured error
    /// (and every other worker still wound down cleanly) instead of an
    /// abort.
    WorkerPanicked {
        /// The serve participant that was running the panicking frame:
        /// its index in the pool, which is also the index of the
        /// scratch it serves with (`0` for the serial path). Which
        /// participant claims which session varies from run to run.
        worker: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A frame-level pipeline failure (the session's queue state stays
    /// consistent — the failed frame is consumed).
    Frame(HiriseError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::WorkerPanicked { worker, message } => {
                write!(f, "serve worker {worker} panicked: {message}")
            }
            ServeError::Frame(e) => write!(f, "frame failure: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Frame(e) => Some(e),
            ServeError::WorkerPanicked { .. } => None,
        }
    }
}

impl From<HiriseError> for ServeError {
    fn from(e: HiriseError) -> Self {
        ServeError::Frame(e)
    }
}

/// Extracts a human-readable message from a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Configuration of a [`ServeEngine`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The per-session pipeline configuration (shared; sessions differ
    /// only in their frame sources and specs).
    pub pipeline: HiriseConfig,
    /// The undegraded temporal policy — shed level 0.
    pub temporal: TemporalConfig,
    /// The load the fleet is provisioned for; the shed ladder engages on
    /// `active / rated_sessions`.
    pub rated_sessions: usize,
    /// Hard admission cap (slab size, ≥ `rated_sessions`).
    pub max_sessions: usize,
    /// Bounded per-session frame queue length (≥ 1).
    pub queue_capacity: usize,
    /// Deficit-round-robin quantum: frames served per session per
    /// scheduling round (≥ 1).
    pub quantum: u32,
    /// Latency reservoir window per session.
    pub latency_window: usize,
    /// The overload shed ladder.
    pub shed: ShedPolicy,
    /// Optional per-frame fault oracle (chaos testing); `None` disables
    /// injection entirely.
    pub fault: Option<Arc<dyn FaultInjector>>,
    /// Wrap each session's frame work in a panic boundary: a panicking
    /// session is quarantined and restored from its keyframe checkpoint
    /// while the fleet keeps serving. Off, a panic escapes to the serve
    /// worker and surfaces as [`ServeError::WorkerPanicked`].
    pub isolate_sessions: bool,
    /// Per-frame latency deadline for the watchdog, ms (`0` disables
    /// it). A frame over deadline escalates its session one shed rung on
    /// the next tick's arrivals — the session gets cheaper before the
    /// queue starts deferring.
    pub deadline_ms: f64,
}

impl ServeConfig {
    /// A small default fleet: rated for 8 sessions, capped at 32,
    /// session isolation on, no fault injection, watchdog disabled.
    pub fn new(pipeline: HiriseConfig) -> Self {
        Self {
            pipeline,
            temporal: TemporalConfig::default(),
            rated_sessions: 8,
            max_sessions: 32,
            queue_capacity: 8,
            quantum: 2,
            latency_window: 128,
            shed: ShedPolicy::default(),
            fault: None,
            isolate_sessions: true,
            deadline_ms: 0.0,
        }
    }

    /// Sets the undegraded temporal policy.
    pub fn temporal(mut self, temporal: TemporalConfig) -> Self {
        self.temporal = temporal;
        self
    }

    /// Sets the rated session count.
    pub fn rated_sessions(mut self, rated: usize) -> Self {
        self.rated_sessions = rated;
        self
    }

    /// Sets the hard admission cap.
    pub fn max_sessions(mut self, max: usize) -> Self {
        self.max_sessions = max;
        self
    }

    /// Sets the per-session queue bound.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the round-robin quantum.
    pub fn quantum(mut self, quantum: u32) -> Self {
        self.quantum = quantum;
        self
    }

    /// Sets the latency reservoir window.
    pub fn latency_window(mut self, window: usize) -> Self {
        self.latency_window = window;
        self
    }

    /// Sets the shed ladder.
    pub fn shed(mut self, shed: ShedPolicy) -> Self {
        self.shed = shed;
        self
    }

    /// Installs a per-frame fault oracle.
    pub fn fault(mut self, fault: Arc<dyn FaultInjector>) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Enables or disables the per-session panic boundary.
    pub fn isolate_sessions(mut self, isolate: bool) -> Self {
        self.isolate_sessions = isolate;
        self
    }

    /// Sets the per-frame watchdog deadline, ms (`0` disables it).
    pub fn deadline_ms(mut self, deadline_ms: f64) -> Self {
        self.deadline_ms = deadline_ms;
        self
    }

    /// Checks the fleet shape and both embedded policies.
    ///
    /// # Errors
    ///
    /// [`hirise::HiriseError::InvalidConfig`] for a degenerate fleet
    /// (zero rated load, cap below rated, zero queue or quantum) or
    /// embedded policy.
    pub fn validate(&self) -> Result<()> {
        self.temporal.validate()?;
        self.shed.validate()?;
        let invalid = |reason: String| hirise::HiriseError::InvalidConfig { reason };
        if self.rated_sessions == 0 {
            return Err(invalid("rated_sessions must be ≥ 1".into()));
        }
        if self.max_sessions < self.rated_sessions {
            return Err(invalid(format!(
                "max_sessions ({}) must be ≥ rated_sessions ({})",
                self.max_sessions, self.rated_sessions
            )));
        }
        if self.queue_capacity == 0 {
            return Err(invalid("queue_capacity must be ≥ 1".into()));
        }
        if self.quantum == 0 {
            return Err(invalid("quantum must be ≥ 1".into()));
        }
        // `!(x >= 0.0)` rather than `x < 0.0`: rejects NaN too.
        if !(self.deadline_ms >= 0.0) {
            return Err(invalid(format!(
                "deadline_ms must be a non-negative number ({})",
                self.deadline_ms
            )));
        }
        Ok(())
    }
}

/// Fleet-wide observability: counters, shed gauges, and latency
/// percentiles over the merged per-session windows.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Ticks elapsed.
    pub ticks: u64,
    /// Sessions admitted.
    pub admitted: u64,
    /// Sessions refused at the door (the cap).
    pub rejected: u64,
    /// Sessions dropped after admission — **structurally zero**: no
    /// engine code path discards an admitted session. The field pins
    /// the contract in every report and gate.
    pub dropped: u64,
    /// Sessions that served every requested frame.
    pub completed: u64,
    /// Sessions still live.
    pub active: u64,
    /// Frames served across all sessions.
    pub frames: u64,
    /// Scheduled full-detection frames across all sessions.
    pub keyframes: u64,
    /// Drift-triggered re-detections across all sessions.
    pub drift_refreshes: u64,
    /// Pure tracked frames across all sessions.
    pub tracked_frames: u64,
    /// Sensor-side energy across all sessions, millijoules.
    pub energy_mj: f64,
    /// Total (frame × tick) backpressure deferrals.
    pub deferred: u64,
    /// Sessions that were ever quarantined (a frame of theirs panicked
    /// inside the isolation boundary).
    pub quarantined: u64,
    /// Quarantined sessions whose every fault has recovered — the
    /// tracker restored from its keyframe checkpoint and reached the
    /// next detection frame.
    pub recovered: u64,
    /// The longest fault-to-recovery span any session paid, in served
    /// frames.
    pub max_recovery_frames: u32,
    /// Frames that exceeded the watchdog deadline, across all sessions.
    pub deadline_misses: u64,
    /// The fleet's shed base level at the last tick.
    pub shed_level: u8,
    /// The highest base level any tick reached.
    pub max_shed_level: u8,
    /// Median frame latency over the merged windows, ms.
    pub p50_ms: f64,
    /// Tail frame latency over the merged windows, ms.
    pub p99_ms: f64,
    /// Per-session reports (completed and live), in admission order.
    pub sessions: Vec<SessionReport>,
}

impl std::fmt::Display for ServeSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "serve: {} sessions ({} done, {} live, {} refused, {} dropped), \
             {} frames over {} ticks, shed {}/{} now/max, \
             p50 {:.3} ms, p99 {:.3} ms, {} deferrals, \
             {} quarantined ({} recovered, worst {} frames)",
            self.admitted,
            self.completed,
            self.active,
            self.rejected,
            self.dropped,
            self.frames,
            self.ticks,
            self.shed_level,
            self.max_shed_level,
            self.p50_ms,
            self.p99_ms,
            self.deferred,
            self.quarantined,
            self.recovered,
            self.max_recovery_frames,
        )
    }
}

/// The multi-tenant engine. See the module docs for the lifecycle.
#[derive(Debug)]
pub struct ServeEngine {
    // Fields are `pub(crate)` (not private) solely for the snapshot /
    // restore codec in [`crate::recover`], which must see the whole
    // slab to persist it.
    pub(crate) config: ServeConfig,
    /// The session slab: `max_sessions` fixed slots.
    pub(crate) slots: Vec<Option<Session>>,
    /// Free slot indices (top of the stack is the next admission's
    /// slot); seeded in reverse so slots fill in index order.
    pub(crate) free: Vec<usize>,
    /// One scratch per serve participant, kept across ticks and
    /// sessions (scratch is frame-local). [`ServeEngine::serve`] uses
    /// participant 0's; in [`ServeEngine::serve_parallel`] participant
    /// `i` locks only scratch `i`, so the locks are never contended.
    scratches: Vec<Mutex<PipelineScratch>>,
    /// The persistent serve workers: built by the first
    /// [`ServeEngine::serve_parallel`] call and rebuilt only when its
    /// worker count changes.
    pool: Option<ShardPool>,
    pub(crate) ticks: u64,
    pub(crate) admitted: u64,
    pub(crate) rejected: u64,
    pub(crate) active: usize,
    pub(crate) base_level: u8,
    pub(crate) max_base_level: u8,
    pub(crate) completed: Vec<SessionReport>,
}

impl ServeEngine {
    /// Creates an engine with an empty slab.
    ///
    /// # Errors
    ///
    /// [`hirise::HiriseError::InvalidConfig`] as for
    /// [`ServeConfig::validate`].
    pub fn new(config: ServeConfig) -> Result<Self> {
        config.validate()?;
        let max = config.max_sessions;
        Ok(Self {
            config,
            slots: (0..max).map(|_| None).collect(),
            free: (0..max).rev().collect(),
            scratches: vec![Mutex::new(PipelineScratch::new())],
            pool: None,
            ticks: 0,
            admitted: 0,
            rejected: 0,
            active: 0,
            base_level: 0,
            max_base_level: 0,
            completed: Vec::new(),
        })
    }

    /// The engine configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Ticks elapsed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Sessions currently live in the slab.
    pub fn active_sessions(&self) -> usize {
        self.active
    }

    /// Sessions admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Sessions refused at the cap so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// The fleet's shed base level as of the last tick.
    pub fn shed_level(&self) -> u8 {
        self.base_level
    }

    /// Admits a session into the slab.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Full`] at the hard cap (counted in
    /// [`ServeEngine::rejected`]); [`AdmitError::Invalid`] for a
    /// degenerate spec or source. Refusal is the engine's only "no" —
    /// once admitted, a session is never dropped.
    pub fn admit(
        &mut self,
        spec: SessionSpec,
        source: FrameSource,
    ) -> std::result::Result<SessionId, AdmitError> {
        if let Err(reason) = spec.validate() {
            return Err(AdmitError::Invalid { reason });
        }
        if source.is_empty() {
            return Err(AdmitError::Invalid { reason: "frame source is empty".into() });
        }
        let Some(slot) = self.free.pop() else {
            self.rejected += 1;
            return Err(AdmitError::Full {
                active: self.active,
                max_sessions: self.config.max_sessions,
            });
        };
        let id = SessionId(self.admitted);
        match Session::new(id, spec, source, &self.config) {
            Ok(session) => {
                self.slots[slot] = Some(session);
                self.admitted += 1;
                self.active += 1;
                Ok(id)
            }
            Err(e) => {
                self.free.push(slot);
                Err(AdmitError::Invalid { reason: e.to_string() })
            }
        }
    }

    /// Advances fleet time: retires finished sessions, recomputes the
    /// shed base level from the load ratio, and generates every live
    /// session's arrivals (stamped with its priority-biased level).
    pub fn tick(&mut self) {
        self.ticks += 1;
        self.retire();
        let load = self.active as f64 / self.config.rated_sessions as f64;
        self.base_level = self.config.shed.base_level(load);
        self.max_base_level = self.max_base_level.max(self.base_level);
        let Self { slots, config, base_level, .. } = self;
        for session in slots.iter_mut().flatten() {
            let level = config.shed.level_for(*base_level, session.priority());
            session.arrive(level);
        }
    }

    /// Moves finished sessions out of the slab into the completed list,
    /// freeing their slots. Runs in slot order, so the completed list
    /// ordering is a pure function of the tick/serve schedule.
    fn retire(&mut self) {
        for slot in 0..self.slots.len() {
            if self.slots[slot].as_ref().is_some_and(Session::is_done) {
                let session = self.slots[slot].take().expect("checked above");
                self.completed.push(session.report());
                self.free.push(slot);
                self.active -= 1;
            }
        }
    }

    /// Serves up to `budget` frames round-robin on the calling thread:
    /// each round visits the slab in slot order giving every session up
    /// to `quantum` frames, until the queues are dry or the budget is
    /// spent. Returns the frames served.
    ///
    /// # Errors
    ///
    /// The first frame failure aborts the pass (the session's queue
    /// state stays consistent — the failed frame is consumed). With
    /// [`ServeConfig::isolate_sessions`] off, a panicking frame
    /// surfaces as [`ServeError::WorkerPanicked`] instead of unwinding
    /// through the caller.
    pub fn serve(&mut self, budget: u64) -> std::result::Result<u64, ServeError> {
        let Self { slots, config, scratches, .. } = self;
        let config = &*config;
        // Frames only ever unwind out of the catch below, never while
        // the lock is held, so the scratch cannot be poisoned.
        let scratch = scratches[0].get_mut().unwrap_or_else(PoisonError::into_inner);
        let mut pass =
            catch_unwind(AssertUnwindSafe(|| -> std::result::Result<u64, ServeError> {
                let mut served = 0u64;
                loop {
                    let mut progressed = false;
                    for session in slots.iter_mut().flatten() {
                        let mut quantum = config.quantum;
                        while quantum > 0
                            && served < budget
                            && session.serve_one(config, scratch)?
                        {
                            served += 1;
                            quantum -= 1;
                            progressed = true;
                        }
                        if served >= budget {
                            return Ok(served);
                        }
                    }
                    if !progressed {
                        return Ok(served);
                    }
                }
            }));
        if let Err(payload) = &pass {
            pass = Ok(Err(ServeError::WorkerPanicked {
                worker: 0,
                message: panic_message(payload.as_ref()),
            }));
        }
        pass.expect("panic converted above")
    }

    /// Drains every queued frame on `workers` serve participants (`0`
    /// counts as `1`): the calling thread plus `workers - 1` threads of
    /// a persistent [`ShardPool`] the engine keeps. The pool is built on
    /// the first call and rebuilt only when `workers` changes, and
    /// participant `i` serves with the engine's scratch `i`, which keeps
    /// its grown buffers across ticks. Participants claim live sessions
    /// one at a time in slot order and drain each claimed queue to dry,
    /// so wherever the sessions sit in the slab, no participant idles
    /// while a session is unclaimed. Per-session outputs are
    /// bit-identical to the serial path at any worker count: sessions
    /// never share mutable state, scratch is frame-local, and levels
    /// were stamped at enqueue. Returns the frames served.
    ///
    /// # Errors
    ///
    /// A participant that hits a frame failure stops claiming; the
    /// others drain the rest. Of all failures in the call, the one of
    /// the lowest slot is returned, which does not depend on the worker
    /// count. A frame that panics outright (possible only with
    /// [`ServeConfig::isolate_sessions`] off, since the per-session
    /// boundary otherwise quarantines the panic first) surfaces as
    /// [`ServeError::WorkerPanicked`] rather than unwinding through the
    /// caller, and the pool stays usable: the next call serves whatever
    /// is still queued.
    pub fn serve_parallel(&mut self, workers: usize) -> std::result::Result<u64, ServeError> {
        let workers = workers.max(1);
        // While a pool exists it has one participant per scratch.
        if self.pool.is_none() || self.scratches.len() != workers {
            // Join the old workers before spawning the new ones.
            self.pool = None;
            self.pool = Some(ShardPool::new(workers));
            self.scratches.resize_with(workers, Mutex::default);
        }
        let Self { slots, config, scratches, pool, .. } = self;
        let config = &*config;
        let pool = pool.as_ref().expect("built above");
        let claims = Mutex::new(
            slots.iter_mut().enumerate().filter_map(|(slot, s)| Some((slot, s.as_mut()?))),
        );
        let served = AtomicU64::new(0);
        let failure: Mutex<Option<(usize, ServeError)>> = Mutex::new(None);
        // Nothing panics while the claim or failure lock is held, and
        // frames unwind only into the catch below, inside the scratch
        // lock: none of the three locks can be poisoned.
        pool.run(workers, &|worker| {
            let mut scratch = scratches[worker].lock().unwrap_or_else(PoisonError::into_inner);
            let mut slot = 0;
            let outcome = catch_unwind(AssertUnwindSafe(|| loop {
                // A statement of its own, so the claim lock is released
                // before the session is served.
                let claim = claims.lock().unwrap_or_else(PoisonError::into_inner).next();
                let Some((claimed, session)) = claim else {
                    return Ok(());
                };
                slot = claimed;
                while session.serve_one(config, &mut scratch)? {
                    // A count only: the pool's check-in publishes it.
                    served.fetch_add(1, Ordering::Relaxed);
                }
            }));
            let error = match outcome {
                Ok(Ok(())) => return,
                Ok(Err(e)) => e,
                Err(payload) => {
                    ServeError::WorkerPanicked { worker, message: panic_message(payload.as_ref()) }
                }
            };
            let mut failure = failure.lock().unwrap_or_else(PoisonError::into_inner);
            if failure.as_ref().is_none_or(|&(first, _)| slot < first) {
                *failure = Some((slot, error));
            }
        });
        match failure.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some((_, e)) => Err(e),
            None => Ok(served.into_inner()),
        }
    }

    /// Runs tick/serve cycles until every admitted session has completed
    /// and been retired. Returns the frames served.
    ///
    /// # Errors
    ///
    /// As for [`ServeEngine::serve`].
    pub fn drain(&mut self) -> std::result::Result<u64, ServeError> {
        let mut served = 0u64;
        loop {
            self.tick();
            if self.active == 0 {
                return Ok(served);
            }
            served += self.serve(u64::MAX)?;
        }
    }

    /// The fleet-wide summary over completed and live sessions.
    pub fn summary(&self) -> ServeSummary {
        let mut sessions = self.completed.clone();
        for session in self.slots.iter().flatten() {
            sessions.push(session.report());
        }
        sessions.sort_by_key(|r| r.id);
        let mut frames = 0u64;
        let mut keyframes = 0u64;
        let mut drift_refreshes = 0u64;
        let mut tracked_frames = 0u64;
        let mut energy_mj = 0.0;
        let mut deferred = 0u64;
        let mut quarantined = 0u64;
        let mut recovered = 0u64;
        let mut max_recovery_frames = 0u32;
        let mut deadline_misses = 0u64;
        let mut max_shed_level = self.max_base_level;
        let mut merged: Vec<f64> = Vec::new();
        for report in &sessions {
            frames += report.summary.frames;
            keyframes += report.summary.keyframes;
            drift_refreshes += report.summary.drift_refreshes;
            tracked_frames += report.summary.tracked_frames;
            energy_mj += report.summary.energy_mj;
            deferred += report.deferred;
            if report.poisoned {
                quarantined += 1;
                if report.recoveries == report.quarantines {
                    recovered += 1;
                }
            }
            max_recovery_frames = max_recovery_frames.max(report.max_recovery_frames);
            deadline_misses += report.deadline_misses;
            max_shed_level = max_shed_level.max(report.max_shed_level);
            merged.extend_from_slice(&report.latency_ms);
        }
        merged.sort_by(f64::total_cmp);
        ServeSummary {
            ticks: self.ticks,
            admitted: self.admitted,
            rejected: self.rejected,
            dropped: 0,
            completed: self.completed.len() as u64,
            active: self.active as u64,
            frames,
            keyframes,
            drift_refreshes,
            tracked_frames,
            energy_mj,
            deferred,
            quarantined,
            recovered,
            max_recovery_frames,
            deadline_misses,
            shed_level: self.base_level,
            max_shed_level,
            p50_ms: crate::metrics::nearest_rank(&merged, 50.0),
            p99_ms: crate::metrics::nearest_rank(&merged, 99.0),
            sessions,
        }
    }
}
