//! Process identity, results, and thread-backed processes.
//!
//! [`Simulation::spawn`](crate::Simulation::spawn) runs a blocking closure
//! on its own OS thread behind a [`ProcessHandle`]. The kernel never talks
//! to that thread itself: it drives a `ThreadProcess`, an ordinary
//! [`Process`] whose `resume` forwards the grant to the thread and
//! [performs](AsyncOp::perform) each handle call the thread sends back —
//! inline, or as the blocking [`Yield`] that returns the grant. Exactly one
//! thread holds the grant at a time, so the simulation stays sequential and
//! deterministic regardless of OS scheduling, and a thread-backed process
//! produces the same event stream as an `async` one issuing the same
//! operations: both go through the one dispatch loop.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::event::Payload;
use crate::mailbox::MailboxId;
use crate::stackless::{downcast_payload, AsyncOp, AsyncReply, ProcCtx, Process, Yield};
use crate::time::{SimDuration, SimTime};

/// Identifier of a process within one simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcessId(pub usize);

/// What a process thread sends its `ThreadProcess`.
enum FromThread {
    /// The next kernel operation; the thread waits for its reply.
    Op(AsyncOp),
    /// The closure returned normally.
    Done,
    /// The closure panicked with this payload.
    Panicked(Box<dyn Any + Send>),
}

/// The kernel's answer to the thread: the current virtual time and the
/// reply to its last operation (or to its wait for the start grant).
type Answer = (SimTime, AsyncReply);

/// Sentinel panic payload used to unwind process threads quietly when the
/// simulation is torn down early (deadlock or another process panicking).
struct SimShutdown;

/// The [`Process`] that runs a [`Simulation::spawn`](crate::Simulation::spawn)
/// closure on its own OS thread.
pub(crate) struct ThreadProcess {
    /// `None` once dropped: closing it unwinds a parked thread.
    grants: Option<Sender<Answer>>,
    ops: Receiver<FromThread>,
    join: Option<JoinHandle<()>>,
}

impl ThreadProcess {
    /// Start the OS thread for `f`, parked until the first grant.
    pub(crate) fn spawn<R, F>(
        pid: ProcessId,
        name: &str,
        tracing: Arc<AtomicBool>,
        f: F,
    ) -> (Self, ProcessResult<R>)
    where
        R: Send + 'static,
        F: FnOnce(&mut ProcessHandle) -> R + Send + 'static,
    {
        let (grant_tx, grant_rx) = channel();
        let (op_tx, op_rx) = channel();
        let slot: Arc<Mutex<Option<R>>> = Arc::new(Mutex::new(None));
        let slot_for_thread = Arc::clone(&slot);
        let join = std::thread::Builder::new()
            .name(format!("desim-{}-{name}", pid.0))
            .spawn(move || {
                let mut handle = ProcessHandle {
                    pid,
                    ops: op_tx,
                    grants: grant_rx,
                    now: SimTime::ZERO,
                    tracing,
                };
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    handle.wait();
                    f(&mut handle)
                }));
                let end = match outcome {
                    Ok(r) => {
                        *slot_for_thread.lock().expect("result mutex poisoned") = Some(r);
                        FromThread::Done
                    }
                    // The kernel tore the simulation down; exit quietly.
                    Err(payload) if payload.is::<SimShutdown>() => return,
                    Err(payload) => FromThread::Panicked(payload),
                };
                let _ = handle.ops.send(end);
            })
            .expect("failed to spawn simulated process thread");
        let body = ThreadProcess {
            grants: Some(grant_tx),
            ops: op_rx,
            join: Some(join),
        };
        (body, ProcessResult { slot, pid })
    }
}

impl Process for ThreadProcess {
    fn resume(&mut self, ctx: &mut ProcCtx<'_>) -> Yield {
        let mut reply = AsyncReply::from(ctx.take_resume());
        loop {
            let grants = self.grants.as_ref().expect("grant channel open until drop");
            if grants.send((ctx.now(), reply)).is_err() {
                panic!("process thread exited outside the protocol");
            }
            match self.ops.recv() {
                Ok(FromThread::Op(op)) => match op.perform(ctx) {
                    Ok(r) => reply = r,
                    Err(blocking) => return blocking,
                },
                Ok(FromThread::Done) => return Yield::Done,
                // Re-raised on the kernel thread, where the dispatch loop's
                // `catch_unwind` reports it like any other process panic.
                Ok(FromThread::Panicked(payload)) => resume_unwind(payload),
                Err(_) => panic!("process thread exited outside the protocol"),
            }
        }
    }
}

impl Drop for ThreadProcess {
    fn drop(&mut self) {
        // A thread still parked in a handle call sees the closed channel
        // and unwinds via `SimShutdown`, dropping its locals; joining makes
        // that finish before the kernel moves on.
        self.grants = None;
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// The view a thread-backed simulated process has of the simulation
/// kernel.
///
/// Obtained as the argument of the closure passed to
/// [`Simulation::spawn`](crate::Simulation::spawn). Every call blocks the
/// process's thread until the kernel answers; `advance` and the receives
/// suspend it until the matching event fires.
pub struct ProcessHandle {
    pid: ProcessId,
    ops: Sender<FromThread>,
    grants: Receiver<Answer>,
    now: SimTime,
    tracing: Arc<AtomicBool>,
}

impl ProcessHandle {
    /// This process's id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn call(&mut self, op: AsyncOp) -> AsyncReply {
        if self.ops.send(FromThread::Op(op)).is_err() {
            // Kernel is gone: unwind quietly.
            std::panic::panic_any(SimShutdown);
        }
        self.wait()
    }

    /// Block until the kernel grants this process time again.
    fn wait(&mut self) -> AsyncReply {
        match self.grants.recv() {
            Ok((now, reply)) => {
                self.now = now;
                reply
            }
            Err(_) => std::panic::panic_any(SimShutdown),
        }
    }

    /// Spend `d` of virtual time computing. Returns the new current time.
    pub fn advance(&mut self, d: SimDuration) -> SimTime {
        self.call(AsyncOp::Advance(d));
        self.now
    }

    /// Schedule `msg` for delivery into `mbox` after `delay`. Non-blocking:
    /// virtual time does not pass for the sender (model any send-side CPU
    /// cost with [`advance`](Self::advance)).
    pub fn send<T: Any + Send>(&mut self, mbox: MailboxId, delay: SimDuration, msg: T) {
        self.call(AsyncOp::Send {
            mbox,
            delay,
            msg: Box::new(msg),
        });
    }

    /// Block until a message is available in `mbox` and take it. Virtual
    /// time advances to the delivery instant of the message received.
    pub fn recv(&mut self, mbox: MailboxId) -> Payload {
        self.call(AsyncOp::Recv { mbox })
            .into_message()
            .expect("blocking recv resolved without a message")
    }

    /// Block until a message is available in `mbox` or `deadline` passes.
    ///
    /// Purely event-driven: the kernel arms one deadline timer event and
    /// registers this process as a mailbox waiter, so the process wakes at
    /// the exact virtual arrival time of the next delivery — or at exactly
    /// `deadline` with `None`. A message already delivered is returned
    /// without blocking; a deadline at or before the current time degrades
    /// to [`try_recv`](Self::try_recv) (one immediate poll, no waiting).
    pub fn recv_deadline(&mut self, mbox: MailboxId, deadline: SimTime) -> Option<Payload> {
        self.call(AsyncOp::RecvDeadline { mbox, deadline })
            .into_message()
    }

    /// Timed receive with a type downcast.
    pub fn recv_deadline_as<T: Any + Send>(
        &mut self,
        mbox: MailboxId,
        deadline: SimTime,
    ) -> Option<T> {
        let p = self.recv_deadline(mbox, deadline)?;
        Some(downcast_payload(p, mbox))
    }

    /// Take a message from `mbox` if one has already been delivered.
    /// Never blocks and never advances virtual time.
    pub fn try_recv(&mut self, mbox: MailboxId) -> Option<Payload> {
        self.call(AsyncOp::TryRecv { mbox }).into_message()
    }

    /// Blocking receive with a type downcast; panics if the payload is not a
    /// `T` (which indicates a protocol bug in the caller).
    pub fn recv_as<T: Any + Send>(&mut self, mbox: MailboxId) -> T {
        downcast_payload(self.recv(mbox), mbox)
    }

    /// Non-blocking receive with a type downcast.
    pub fn try_recv_as<T: Any + Send>(&mut self, mbox: MailboxId) -> Option<T> {
        let p = self.try_recv(mbox)?;
        Some(downcast_payload(p, mbox))
    }

    /// Allocate a fresh mailbox owned by no one in particular.
    pub fn create_mailbox(&mut self) -> MailboxId {
        self.call(AsyncOp::CreateMailbox).into_mailbox()
    }

    /// Record a trace annotation at the current virtual time. A no-op unless
    /// tracing was enabled on the [`Simulation`](crate::Simulation).
    ///
    /// Prefer [`trace_with`](Self::trace_with) when the label needs
    /// formatting: this method takes the label by value, so the caller has
    /// already paid for it even when tracing is off.
    pub fn trace(&mut self, label: impl Into<String>) {
        self.trace_with(|| label.into());
    }

    /// Record a trace annotation, building the label lazily. When tracing
    /// is disabled this is a single relaxed atomic load: the closure never
    /// runs, nothing allocates, and no kernel round-trip happens.
    pub fn trace_with(&mut self, label: impl FnOnce() -> String) {
        if !self.tracing.load(Ordering::Relaxed) {
            return;
        }
        self.call(AsyncOp::Trace(label()));
    }
}

/// Handle to retrieve a process's return value after the simulation ran.
pub struct ProcessResult<R> {
    pub(crate) slot: Arc<Mutex<Option<R>>>,
    pub(crate) pid: ProcessId,
}

impl<R> ProcessResult<R> {
    /// The process this result belongs to.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Take the return value. Returns `None` if the process never finished
    /// (simulation error) or the value was already taken.
    pub fn take(&self) -> Option<R> {
        self.slot.lock().expect("result mutex poisoned").take()
    }
}
