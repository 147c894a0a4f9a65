//! The simulation kernel: owns the event queue, the mailboxes, and every
//! process state, and drives everything in deterministic virtual time.
//!
//! Every process is a [`Process`] state machine resumed by one dispatch
//! loop. An `async` body ([`Simulation::spawn_async`]) and a blocking
//! closure on its own OS thread ([`Simulation::spawn`]) are both adapters
//! onto that one `Process` contract, so the event stream a process
//! produces depends only on the operations it issues.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use obs::{Gauge, Recorder};

use crate::event::{EventKind, EventQueue, Payload};
use crate::mailbox::{Mailbox, MailboxId};
use crate::process::{ProcessHandle, ProcessId, ProcessResult, ThreadProcess};
use crate::stackless::{AsyncHandle, Bridge, FutureProcess, ProcCtx, Process, Resume, Yield};
use crate::time::SimTime;
use crate::trace::{TraceEvent, TraceLog};

/// Why a simulation failed.
#[derive(Debug)]
pub enum SimError {
    /// A process panicked; contains the process name and panic message.
    ProcessPanicked {
        /// Name given to [`Simulation::spawn`].
        name: String,
        /// The panic payload, stringified.
        message: String,
    },
    /// The event queue drained while processes were still blocked.
    Deadlock {
        /// `(process name, mailbox)` pairs that will never be woken.
        blocked: Vec<(String, MailboxId)>,
        /// Virtual time at which the simulation wedged.
        at: SimTime,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::ProcessPanicked { name, message } => {
                write!(f, "simulated process `{name}` panicked: {message}")
            }
            SimError::Deadlock { blocked, at } => {
                write!(f, "deadlock at {at}: ")?;
                for (i, (name, mbox)) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "`{name}` blocked on {mbox:?}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Aggregate statistics and outcome of a completed simulation.
///
/// `PartialEq` so differential suites can assert two runs produced the
/// same report wholesale.
#[derive(Debug, PartialEq, Eq)]
pub struct SimReport {
    /// Virtual time when the last process finished.
    pub end_time: SimTime,
    /// Number of events the kernel dispatched.
    pub events_processed: u64,
    /// Number of messages scheduled for delivery.
    pub messages_sent: u64,
    /// Number of messages that reached a mailbox.
    pub messages_delivered: u64,
    /// Number of deadline timers that expired and woke a timed receive
    /// (stale — cancelled-by-delivery — timers are not counted).
    pub timers_fired: u64,
    /// `(name, finish time)` per process, in spawn order.
    pub finish_times: Vec<(String, SimTime)>,
    /// Trace annotations, if tracing was enabled.
    pub trace: Vec<TraceEvent>,
}

struct ProcInfo {
    name: String,
    /// The process's state machine. `None` only transiently while it is
    /// being resumed, and permanently once the process finished (freeing
    /// its state early — at 100k ranks that is most of the memory).
    body: Option<Box<dyn Process>>,
    started: bool,
    finished: bool,
    blocked_on: Option<MailboxId>,
    finish_time: Option<SimTime>,
    /// Monotone counter stamping armed deadline timers; bumping it is how
    /// a timer is cancelled without touching the event heap.
    timer_gen: u64,
    /// Generation of the currently armed deadline timer, if the process is
    /// blocked in a timed receive.
    armed_timer: Option<u64>,
}

/// The blocking yield a process is suspended on, as tracked by the
/// scheduling-invariant oracle (see
/// [`Simulation::enable_scheduling_checks`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PendingYield {
    Timer,
    Recv,
    RecvDeadline,
}

/// Optional runtime oracle over the kernel's scheduling invariants:
/// no process is resumed while blocked, every blocking yield is answered
/// exactly once and with the matching grant kind, and virtual time is
/// monotone per process. Violations panic with a diagnostic.
#[derive(Default)]
struct SchedChecks {
    enabled: bool,
    last_resume: Vec<SimTime>,
    pending: Vec<Option<PendingYield>>,
    started: Vec<bool>,
}

impl SchedChecks {
    fn ensure(&mut self, n: usize) {
        if self.last_resume.len() < n {
            self.last_resume.resize(n, SimTime::ZERO);
            self.pending.resize(n, None);
            self.started.resize(n, false);
        }
    }

    /// Validate a grant against the process's recorded suspension state.
    fn on_grant(&mut self, pid: ProcessId, grant: &Resume, now: SimTime, blocked: bool) {
        if !self.enabled {
            return;
        }
        self.ensure(pid.0 + 1);
        assert!(
            now >= self.last_resume[pid.0],
            "scheduling oracle: virtual time ran backwards for {pid:?} \
             ({now} < {})",
            self.last_resume[pid.0]
        );
        self.last_resume[pid.0] = now;
        let pending = self.pending[pid.0].take();
        match grant {
            Resume::Start => {
                assert!(
                    !self.started[pid.0],
                    "scheduling oracle: {pid:?} started twice"
                );
                assert_eq!(
                    pending, None,
                    "scheduling oracle: {pid:?} had a pending yield before its start grant"
                );
                self.started[pid.0] = true;
            }
            Resume::Resumed => {
                assert!(
                    !blocked,
                    "scheduling oracle: {pid:?} woken while blocked on a mailbox"
                );
                assert_eq!(
                    pending,
                    Some(PendingYield::Timer),
                    "scheduling oracle: {pid:?} granted Resumed without a pending timer yield"
                );
            }
            Resume::Message(Some(_)) => {
                assert!(
                    matches!(
                        pending,
                        Some(PendingYield::Recv | PendingYield::RecvDeadline)
                    ),
                    "scheduling oracle: {pid:?} granted a message without a pending receive \
                     (pending: {pending:?})"
                );
            }
            Resume::Message(None) => {
                assert_eq!(
                    pending,
                    Some(PendingYield::RecvDeadline),
                    "scheduling oracle: {pid:?} granted a deadline timeout without a pending \
                     timed receive"
                );
            }
        }
    }

    /// Record the blocking yield a process just suspended on.
    fn on_block(&mut self, pid: ProcessId, y: PendingYield) {
        if !self.enabled {
            return;
        }
        self.ensure(pid.0 + 1);
        assert_eq!(
            self.pending[pid.0], None,
            "scheduling oracle: {pid:?} yielded {y:?} while a previous yield was unanswered"
        );
        self.pending[pid.0] = Some(y);
    }
}

/// A discrete-event simulation under construction (and, during
/// [`run`](Simulation::run), in flight).
///
/// # Example
///
/// ```
/// use desim::{Simulation, SimDuration};
///
/// let mut sim = Simulation::new();
/// let mbox = sim.create_mailbox();
/// sim.spawn_async("producer", move |h| async move {
///     h.advance(SimDuration::from_millis(5)).await;
///     h.send(mbox, SimDuration::from_millis(2), 42u32).await;
/// });
/// let got = sim.spawn_async("consumer", move |h| async move {
///     h.recv_as::<u32>(mbox).await
/// });
/// let report = sim.run().unwrap();
/// assert_eq!(got.take(), Some(42));
/// assert_eq!(report.end_time.as_nanos(), 7_000_000);
/// ```
pub struct Simulation {
    procs: Vec<ProcInfo>,
    mailboxes: Vec<Mailbox>,
    queue: EventQueue,
    now: SimTime,
    trace: TraceLog,
    tracing_enabled: Arc<AtomicBool>,
    recorder: Option<Box<dyn Recorder>>,
    checks: SchedChecks,
    error: Option<SimError>,
    messages_sent: u64,
    messages_delivered: u64,
    events_processed: u64,
    timers_fired: u64,
}

/// How often (in dispatched events) the kernel samples its event-heap size
/// into an attached [`Recorder`]. Sampling every event would dominate small
/// traces; every 256th keeps the series cheap but still shows the shape.
const HEAP_SAMPLE_INTERVAL: u64 = 256;

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// An empty simulation with tracing disabled.
    pub fn new() -> Self {
        Simulation {
            procs: Vec::new(),
            mailboxes: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            trace: TraceLog::disabled(),
            tracing_enabled: Arc::new(AtomicBool::new(false)),
            recorder: None,
            checks: SchedChecks::default(),
            error: None,
            messages_sent: 0,
            messages_delivered: 0,
            events_processed: 0,
            timers_fired: 0,
        }
    }

    /// Enable recording of trace annotations into the final [`SimReport`].
    pub fn enable_tracing(&mut self) {
        self.trace = TraceLog::enabled();
        self.tracing_enabled.store(true, Ordering::Relaxed);
    }

    /// Arm the scheduling-invariant oracle: every grant and blocking yield
    /// is validated (no process resumed while blocked, every yield answered
    /// exactly once by a grant of the matching kind, virtual time monotone
    /// per process). A violation panics with a diagnostic naming the
    /// process and the mismatched state. Used by the speccheck property
    /// suite; cheap enough to leave on in tests, off by default.
    pub fn enable_scheduling_checks(&mut self) {
        self.checks.enabled = true;
    }

    /// Set how events scheduled at the same virtual time are ordered
    /// (default: [`TieBreak::Fifo`](crate::event::TieBreak), insertion
    /// order). Must be called before [`run`](Self::run); used by
    /// conformance tests to prove a result does not depend on same-time
    /// delivery tie-breaks.
    pub fn set_tie_break(&mut self, tie_break: crate::event::TieBreak) {
        self.queue.set_tie_break(tie_break);
    }

    /// Attach a structured [`Recorder`]. The kernel samples its event-heap
    /// size into it (as [`Gauge::EventHeapSize`] under
    /// [`obs::Event::KERNEL_RANK`]) every `HEAP_SAMPLE_INTERVAL` (256)
    /// dispatched events.
    /// Callers who need the data back should attach an
    /// [`obs::SharedRecorder`] clone.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.recorder = Some(recorder);
    }

    /// Allocate a mailbox before the simulation starts, so its id can be
    /// shared with several processes.
    pub fn create_mailbox(&mut self) -> MailboxId {
        let id = MailboxId(self.mailboxes.len());
        self.mailboxes.push(Mailbox::new());
        id
    }

    /// Spawn a simulated process from an explicit [`Process`] state
    /// machine. No OS thread is created: the state machine lives in the
    /// kernel and is resumed on the kernel's own thread whenever the event
    /// it yielded on fires.
    pub fn spawn_process(
        &mut self,
        name: impl Into<String>,
        body: impl Process + 'static,
    ) -> ProcessId {
        let pid = ProcessId(self.procs.len());
        self.procs.push(ProcInfo {
            name: name.into(),
            body: Some(Box::new(body)),
            started: false,
            finished: false,
            blocked_on: None,
            finish_time: None,
            timer_gen: 0,
            armed_timer: None,
        });
        pid
    }

    /// Spawn a stackless simulated process written as an `async fn`. The
    /// compiler generates the state machine; each `await` on the provided
    /// [`AsyncHandle`] is a kernel suspension point. Semantically identical
    /// to [`spawn`](Self::spawn) — same operations, same dispatch, same
    /// event sequence numbers — but with no OS thread per rank.
    ///
    /// The closure runs immediately (to build the future); the body itself
    /// first executes when the kernel grants time zero.
    pub fn spawn_async<R, F, Fut>(&mut self, name: impl Into<String>, f: F) -> ProcessResult<R>
    where
        R: 'static,
        F: FnOnce(AsyncHandle) -> Fut,
        Fut: std::future::Future<Output = R> + 'static,
    {
        let pid = ProcessId(self.procs.len());
        let slot: Arc<Mutex<Option<R>>> = Arc::new(Mutex::new(None));
        let bridge = std::rc::Rc::new(std::cell::RefCell::new(Bridge::new()));
        let handle = AsyncHandle::new(
            pid,
            std::rc::Rc::clone(&bridge),
            Arc::clone(&self.tracing_enabled),
        );
        let fut = f(handle);
        let slot_for_proc = Arc::clone(&slot);
        let wrapped = async move {
            let r = fut.await;
            *slot_for_proc.lock().expect("result mutex poisoned") = Some(r);
        };
        self.spawn_process(name, FutureProcess::new(Box::pin(wrapped), bridge));
        ProcessResult { slot, pid }
    }

    /// Spawn a simulated process whose body is a blocking closure on its
    /// own OS thread. The closure executes only when the kernel grants it
    /// virtual time; the kernel drives it through a thread-backed
    /// [`Process`], so it shares the one dispatch loop with every other
    /// process. Its return value is retrievable from the returned
    /// [`ProcessResult`] after [`run`](Self::run) completes.
    ///
    /// Each such process costs an OS thread and two context switches per
    /// kernel operation; prefer [`spawn_async`](Self::spawn_async) or
    /// [`spawn_process`](Self::spawn_process) beyond a few dozen ranks.
    pub fn spawn<R, F>(&mut self, name: impl Into<String>, f: F) -> ProcessResult<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut ProcessHandle) -> R + Send + 'static,
    {
        let name = name.into();
        let pid = ProcessId(self.procs.len());
        let (body, result) = ThreadProcess::spawn(pid, &name, Arc::clone(&self.tracing_enabled), f);
        self.spawn_process(name, body);
        result
    }

    /// Run the simulation to completion.
    ///
    /// Returns the report once every process has finished, or an error if a
    /// process panicked or the system deadlocked (every remaining process
    /// blocked on a receive that can never be satisfied).
    pub fn run(mut self) -> Result<SimReport, SimError> {
        for pid in 0..self.procs.len() {
            self.queue
                .push(SimTime::ZERO, EventKind::Wake(ProcessId(pid)));
        }

        while let Some(ev) = self.queue.pop() {
            self.events_processed += 1;
            // A cancelled (stale-generation) timer is a no-op: crucially it
            // must not advance `now`, or a deadline armed and then beaten by
            // a delivery would still stretch the run's end time.
            if let EventKind::Timer { pid, generation } = ev.kind {
                if self.procs[pid.0].armed_timer != Some(generation) || self.procs[pid.0].finished {
                    continue;
                }
            }
            self.now = ev.key.time;
            if self.events_processed.is_multiple_of(HEAP_SAMPLE_INTERVAL) {
                if let Some(rec) = self.recorder.as_mut() {
                    rec.gauge(
                        obs::Event::KERNEL_RANK,
                        self.now.as_nanos(),
                        Gauge::EventHeapSize,
                        self.queue.len() as u64,
                    );
                }
            }
            match ev.kind {
                EventKind::Wake(pid) => {
                    if !self.procs[pid.0].finished {
                        let grant = if self.procs[pid.0].started {
                            Resume::Resumed
                        } else {
                            self.procs[pid.0].started = true;
                            Resume::Start
                        };
                        self.dispatch(pid, grant);
                    }
                }
                EventKind::Deliver { mbox, msg } => {
                    self.messages_delivered += 1;
                    self.mailboxes[mbox.0].deliver(msg);
                    if let Some(pid) = self.mailboxes[mbox.0].take_waiter() {
                        let msg = self.mailboxes[mbox.0]
                            .pop()
                            .expect("waiter woken on empty mailbox");
                        self.procs[pid.0].blocked_on = None;
                        // A timed waiter's deadline is now moot: bump the
                        // generation so the heaped timer pops as a stale
                        // no-op.
                        if self.procs[pid.0].armed_timer.take().is_some() {
                            self.procs[pid.0].timer_gen += 1;
                        }
                        self.dispatch(pid, Resume::Message(Some(msg)));
                    }
                }
                EventKind::Timer { pid, generation } => {
                    // Stale timers were filtered above; this one is live.
                    debug_assert_eq!(self.procs[pid.0].armed_timer, Some(generation));
                    let p = &mut self.procs[pid.0];
                    p.armed_timer = None;
                    p.timer_gen += 1;
                    let mbox = p
                        .blocked_on
                        .take()
                        .expect("timed waiter has no blocking mailbox");
                    self.mailboxes[mbox.0].remove_waiter(pid);
                    self.timers_fired += 1;
                    self.dispatch(pid, Resume::Message(None));
                }
            }
            if self.error.is_some() {
                break;
            }
        }

        if self.error.is_none() {
            let blocked: Vec<(String, MailboxId)> = self
                .procs
                .iter()
                .filter(|p| !p.finished)
                .map(|p| {
                    (
                        p.name.clone(),
                        p.blocked_on
                            .expect("unfinished process not blocked after queue drain"),
                    )
                })
                .collect();
            if !blocked.is_empty() {
                self.error = Some(SimError::Deadlock {
                    blocked,
                    at: self.now,
                });
            }
        }

        let report = SimReport {
            end_time: self.now,
            events_processed: self.events_processed,
            messages_sent: self.messages_sent,
            messages_delivered: self.messages_delivered,
            timers_fired: self.timers_fired,
            finish_times: self
                .procs
                .iter()
                .map(|p| (p.name.clone(), p.finish_time.unwrap_or(self.now)))
                .collect(),
            trace: self.trace.take(),
        };
        let error = self.error.take();
        // Dropping the kernel drops every unfinished process; a thread-backed
        // one unwinds and joins its thread, so no rank outlives `run`.
        drop(self);
        match error {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// Give `pid` virtual time with `grant` as the answer to whatever it
    /// was suspended on, and handle its yields until it blocks again.
    /// Non-blocking yields (`Send`, a `Recv` with a message already
    /// delivered, an expired `RecvDeadline`) are answered inline without
    /// returning to the event loop.
    fn dispatch(&mut self, pid: ProcessId, grant: Resume) {
        self.checks.on_grant(
            pid,
            &grant,
            self.now,
            self.procs[pid.0].blocked_on.is_some(),
        );
        let mut body = self.procs[pid.0]
            .body
            .take()
            .expect("process resumed while already running");
        let mut resume = grant;
        // Whether the state machine survives to the next suspension point
        // (false once finished or panicked: its state is dropped early).
        let mut live = false;
        loop {
            let step = {
                let mut ctx = ProcCtx {
                    pid,
                    now: self.now,
                    resume: Some(resume),
                    mailboxes: &mut self.mailboxes,
                    queue: &mut self.queue,
                    trace: &mut self.trace,
                    tracing_enabled: self.tracing_enabled.load(Ordering::Relaxed),
                    messages_sent: &mut self.messages_sent,
                };
                catch_unwind(AssertUnwindSafe(|| body.resume(&mut ctx)))
            };
            match step {
                Err(payload) => {
                    self.procs[pid.0].finished = true;
                    self.error = Some(SimError::ProcessPanicked {
                        name: self.procs[pid.0].name.clone(),
                        message: panic_message(&*payload),
                    });
                    break;
                }
                Ok(Yield::Send { mbox, delay, msg }) => {
                    self.messages_sent += 1;
                    self.queue
                        .push(self.now + delay, EventKind::Deliver { mbox, msg });
                    resume = Resume::Resumed;
                }
                Ok(Yield::Timer(d)) => {
                    self.checks.on_block(pid, PendingYield::Timer);
                    self.queue.push(self.now + d, EventKind::Wake(pid));
                    live = true;
                    break;
                }
                Ok(Yield::Recv { mbox }) => {
                    if let Some(msg) = self.mailboxes[mbox.0].pop() {
                        resume = Resume::Message(Some(msg));
                    } else {
                        self.checks.on_block(pid, PendingYield::Recv);
                        self.mailboxes[mbox.0].add_waiter(pid);
                        self.procs[pid.0].blocked_on = Some(mbox);
                        live = true;
                        break;
                    }
                }
                Ok(Yield::RecvDeadline { mbox, deadline }) => {
                    if let Some(msg) = self.mailboxes[mbox.0].pop() {
                        resume = Resume::Message(Some(msg));
                    } else if deadline <= self.now {
                        // Already expired: one immediate poll came up empty.
                        resume = Resume::Message(None);
                    } else {
                        self.checks.on_block(pid, PendingYield::RecvDeadline);
                        self.mailboxes[mbox.0].add_waiter(pid);
                        self.procs[pid.0].blocked_on = Some(mbox);
                        let generation = self.procs[pid.0].timer_gen;
                        self.procs[pid.0].armed_timer = Some(generation);
                        self.queue
                            .push(deadline, EventKind::Timer { pid, generation });
                        live = true;
                        break;
                    }
                }
                Ok(Yield::Done) => {
                    self.procs[pid.0].finished = true;
                    self.procs[pid.0].finish_time = Some(self.now);
                    break;
                }
            }
        }
        if live {
            self.procs[pid.0].body = Some(body);
        }
    }
}

/// Schedule a message delivery directly from outside any process (useful in
/// tests to pre-load mailboxes). The message is delivered at `at`.
pub fn preload_message<T: std::any::Any + Send>(
    sim: &mut Simulation,
    mbox: MailboxId,
    at: SimTime,
    msg: T,
) {
    sim.messages_sent += 1;
    sim.queue.push(
        at,
        EventKind::Deliver {
            mbox,
            msg: Box::new(msg) as Payload,
        },
    );
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
