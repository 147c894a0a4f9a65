//! Simulated processes as resumable state machines scheduled entirely by
//! the event kernel.
//!
//! Every process the kernel runs is a [`Process`]: a state machine whose
//! [`resume`](Process::resume) runs on the *kernel's* thread until the
//! process needs virtual time to pass, at which point it returns a
//! [`Yield`] describing what it is waiting for. The kernel owns every
//! process state, so 10k–1M ranks are just a `Vec` of boxed state machines
//! and one event heap.
//!
//! Three ways to write a process:
//!
//! * implement [`Process`] by hand — an explicit `enum`-state machine with
//!   full control over every suspension point;
//! * write an `async fn` and pass it to
//!   [`Simulation::spawn_async`](crate::Simulation::spawn_async): the
//!   compiler generates the state machine, and an [`AsyncHandle`] maps each
//!   `await` onto the [`Yield`] protocol; or
//! * pass a blocking closure to
//!   [`Simulation::spawn`](crate::Simulation::spawn): the closure runs on
//!   its own OS thread behind a [`ProcessHandle`](crate::ProcessHandle),
//!   and a thread-backed `Process` relays each handle call to the kernel.
//!
//! The last two share one operation vocabulary (`AsyncOp`/`AsyncReply`)
//! and one step that performs an operation against the [`ProcCtx`]:
//! non-blocking operations ([`ProcCtx::send`], [`ProcCtx::try_recv`],
//! [`ProcCtx::create_mailbox`], [`ProcCtx::trace`]) execute inline without
//! returning to the event loop; only `Timer`, an empty-mailbox
//! `Recv`/`RecvDeadline`, and `Done` give the grant back. Event sequence
//! numbers — and therefore Fifo/Lifo/Seeded tie-breaks, `SimReport`
//! counters and every fingerprint downstream — depend only on the
//! sequence of operations a process issues, never on how it is written.

use std::any::Any;
use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use crate::event::{EventKind, EventQueue, Payload};
use crate::mailbox::{Mailbox, MailboxId};
use crate::process::ProcessId;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceLog;

/// What a [`Process`] is waiting for when it gives the time grant back to
/// the kernel.
pub enum Yield {
    /// Schedule `msg` for delivery into `mbox` after `delay`, then resume
    /// immediately (virtual time does not pass for the sender). Answered
    /// with [`Resume::Resumed`] in the same dispatch — provided for
    /// hand-written state machines; [`ProcCtx::send`] is the inline
    /// equivalent.
    Send {
        /// Destination mailbox.
        mbox: MailboxId,
        /// Modelled network delay before delivery.
        delay: SimDuration,
        /// The message payload.
        msg: Payload,
    },
    /// Block until a message is available in `mbox`. Answered with
    /// [`Resume::Message`]`(Some(_))` at the delivery instant.
    Recv {
        /// Mailbox to wait on.
        mbox: MailboxId,
    },
    /// Block until a message is available in `mbox` or `deadline` passes,
    /// whichever comes first. Answered with [`Resume::Message`] — `None`
    /// means the deadline fired.
    RecvDeadline {
        /// Mailbox to wait on.
        mbox: MailboxId,
        /// Absolute virtual-time deadline.
        deadline: SimTime,
    },
    /// Let `d` of virtual time pass (modelling computation), then resume
    /// with [`Resume::Resumed`].
    Timer(SimDuration),
    /// The process is finished; it will never be resumed again.
    Done,
}

/// The kernel's answer to the previous [`Yield`], readable via
/// [`ProcCtx::take_resume`] at the top of [`Process::resume`].
#[derive(Debug)]
pub enum Resume {
    /// First resume ever, at virtual time zero. Nothing was yielded yet.
    Start,
    /// A [`Yield::Timer`] elapsed or a [`Yield::Send`] was accepted.
    Resumed,
    /// Answer to [`Yield::Recv`] / [`Yield::RecvDeadline`]: the delivered
    /// payload, or `None` if the deadline expired first.
    Message(Option<Payload>),
}

/// A stackless simulated process: a resumable state machine.
///
/// The kernel calls [`resume`](Self::resume) whenever the event the process
/// was waiting for fires. The implementation runs — on the kernel's own
/// thread — until it next needs virtual time to pass, and describes that
/// suspension point in the returned [`Yield`]. State that must survive the
/// suspension lives in `self`.
///
/// There is no `Send` bound: process state never leaves the kernel thread.
pub trait Process {
    /// Run until the next suspension point. `ctx` carries the answer to the
    /// previous yield ([`ProcCtx::take_resume`]) and the kernel's inline
    /// (non-blocking) operations.
    fn resume(&mut self, ctx: &mut ProcCtx<'_>) -> Yield;
}

/// The kernel-side view a [`Process`] has while it holds the time grant.
///
/// Everything here executes inline, without returning to the event loop,
/// moving virtual time, or giving the grant back.
pub struct ProcCtx<'k> {
    pub(crate) pid: ProcessId,
    pub(crate) now: SimTime,
    pub(crate) resume: Option<Resume>,
    pub(crate) mailboxes: &'k mut Vec<Mailbox>,
    pub(crate) queue: &'k mut EventQueue,
    pub(crate) trace: &'k mut TraceLog,
    pub(crate) tracing_enabled: bool,
    pub(crate) messages_sent: &'k mut u64,
}

impl ProcCtx<'_> {
    /// This process's id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The kernel's answer to the previous [`Yield`]. Yields exactly one
    /// meaningful answer per resume; subsequent calls in the same resume
    /// return [`Resume::Resumed`].
    pub fn take_resume(&mut self) -> Resume {
        self.resume.take().unwrap_or(Resume::Resumed)
    }

    /// Schedule `msg` for delivery into `mbox` after `delay`. Non-blocking:
    /// virtual time does not pass for the sender (model any send-side CPU
    /// cost with [`Yield::Timer`]).
    pub fn send<T: Any + Send>(&mut self, mbox: MailboxId, delay: SimDuration, msg: T) {
        self.send_payload(mbox, delay, Box::new(msg));
    }

    /// [`send`](Self::send) for an already-boxed payload.
    pub fn send_payload(&mut self, mbox: MailboxId, delay: SimDuration, msg: Payload) {
        *self.messages_sent += 1;
        self.queue
            .push(self.now + delay, EventKind::Deliver { mbox, msg });
    }

    /// Take a message from `mbox` if one has already been delivered.
    /// Never blocks and never advances virtual time.
    pub fn try_recv(&mut self, mbox: MailboxId) -> Option<Payload> {
        self.mailboxes[mbox.0].pop()
    }

    /// Allocate a fresh mailbox.
    pub fn create_mailbox(&mut self) -> MailboxId {
        let id = MailboxId(self.mailboxes.len());
        self.mailboxes.push(Mailbox::new());
        id
    }

    /// True if tracing was enabled on the simulation.
    pub fn tracing_enabled(&self) -> bool {
        self.tracing_enabled
    }

    /// Record a trace annotation at the current virtual time. A no-op unless
    /// tracing was enabled; prefer [`trace_with`](Self::trace_with) when the
    /// label needs formatting.
    pub fn trace(&mut self, label: impl Into<String>) {
        self.trace_with(|| label.into());
    }

    /// Record a trace annotation, building the label lazily. When tracing
    /// is disabled the closure never runs and nothing allocates.
    pub fn trace_with(&mut self, label: impl FnOnce() -> String) {
        if !self.tracing_enabled {
            return;
        }
        self.trace.record(self.now, self.pid, label);
    }
}

// ---------------------------------------------------------------------------
// The operation vocabulary shared by async and thread-backed processes
// ---------------------------------------------------------------------------

/// A kernel operation issued through an [`AsyncHandle`] or a
/// [`ProcessHandle`](crate::ProcessHandle), waiting to be performed by the
/// process adapter that holds the time grant.
pub(crate) enum AsyncOp {
    Advance(SimDuration),
    Send {
        mbox: MailboxId,
        delay: SimDuration,
        msg: Payload,
    },
    Recv {
        mbox: MailboxId,
    },
    RecvDeadline {
        mbox: MailboxId,
        deadline: SimTime,
    },
    TryRecv {
        mbox: MailboxId,
    },
    CreateMailbox,
    Trace(String),
}

impl AsyncOp {
    /// Perform this operation for the process holding the grant: a
    /// non-blocking one executes inline against `ctx` and yields its reply;
    /// a blocking one comes back as the [`Yield`] that hands the grant to
    /// the kernel.
    pub(crate) fn perform(self, ctx: &mut ProcCtx<'_>) -> Result<AsyncReply, Yield> {
        match self {
            AsyncOp::Advance(d) => Err(Yield::Timer(d)),
            AsyncOp::Recv { mbox } => Err(Yield::Recv { mbox }),
            AsyncOp::RecvDeadline { mbox, deadline } => Err(Yield::RecvDeadline { mbox, deadline }),
            AsyncOp::Send { mbox, delay, msg } => {
                ctx.send_payload(mbox, delay, msg);
                Ok(AsyncReply::Resumed)
            }
            AsyncOp::TryRecv { mbox } => Ok(AsyncReply::Message(ctx.try_recv(mbox))),
            AsyncOp::CreateMailbox => Ok(AsyncReply::Mailbox(ctx.create_mailbox())),
            AsyncOp::Trace(label) => {
                ctx.trace(label);
                Ok(AsyncReply::Resumed)
            }
        }
    }
}

/// The answer to an [`AsyncOp`].
pub(crate) enum AsyncReply {
    Resumed,
    Message(Option<Payload>),
    Mailbox(MailboxId),
}

impl AsyncReply {
    /// The answer to a receive: the payload, or `None` on deadline.
    pub(crate) fn into_message(self) -> Option<Payload> {
        match self {
            AsyncReply::Message(msg) => msg,
            _ => unreachable!("receive answered with a non-message reply"),
        }
    }

    /// The answer to `CreateMailbox`.
    pub(crate) fn into_mailbox(self) -> MailboxId {
        match self {
            AsyncReply::Mailbox(id) => id,
            _ => unreachable!("CreateMailbox answered with a non-mailbox reply"),
        }
    }
}

impl From<Resume> for AsyncReply {
    /// A kernel grant as the reply to the blocking operation it answers
    /// (the start grant answers the wait for the first grant).
    fn from(resume: Resume) -> Self {
        match resume {
            Resume::Start | Resume::Resumed => AsyncReply::Resumed,
            Resume::Message(msg) => AsyncReply::Message(msg),
        }
    }
}

/// Unbox a received payload as a `T`; a mismatch is a protocol bug in the
/// caller.
pub(crate) fn downcast_payload<T: Any>(p: Payload, mbox: MailboxId) -> T {
    *p.downcast::<T>()
        .unwrap_or_else(|_| panic!("message in {mbox:?} had unexpected type"))
}

// ---------------------------------------------------------------------------
// async bridge: `async fn` processes over the same Yield protocol
// ---------------------------------------------------------------------------

/// One-slot op/reply cell shared between an [`AsyncHandle`] (inside the
/// future) and the [`FutureProcess`] driving it. At most one operation is in
/// flight at a time — the future is suspended on it.
pub(crate) struct Bridge {
    pub(crate) op: Option<AsyncOp>,
    pub(crate) reply: Option<AsyncReply>,
    pub(crate) now: SimTime,
}

impl Bridge {
    pub(crate) fn new() -> Self {
        Bridge {
            op: None,
            reply: None,
            now: SimTime::ZERO,
        }
    }
}

/// The view an `async` simulated process has of the simulation kernel.
///
/// Obtained as the argument of the closure passed to
/// [`Simulation::spawn_async`](crate::Simulation::spawn_async). Every method
/// is `async`; awaiting one suspends the process until the kernel answers —
/// non-blocking operations resolve within the same time grant, blocking ones
/// (`advance`, `recv`, `recv_deadline`) suspend until the matching event
/// fires. Exactly one operation may be in flight at a time: `await` each
/// call to completion (no `join!`-style concurrency within one process).
///
/// Awaiting any *foreign* future (one not produced by this handle) inside a
/// simulated process panics: the kernel has no way to complete it.
#[derive(Clone)]
pub struct AsyncHandle {
    pid: ProcessId,
    bridge: Rc<RefCell<Bridge>>,
    tracing: Arc<AtomicBool>,
}

impl AsyncHandle {
    pub(crate) fn new(
        pid: ProcessId,
        bridge: Rc<RefCell<Bridge>>,
        tracing: Arc<AtomicBool>,
    ) -> Self {
        AsyncHandle {
            pid,
            bridge,
            tracing,
        }
    }

    /// This process's id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.bridge.borrow().now
    }

    fn op(&self, op: AsyncOp) -> OpFuture {
        OpFuture {
            bridge: Rc::clone(&self.bridge),
            op: Some(op),
        }
    }

    /// Spend `d` of virtual time computing. Returns the new current time.
    pub async fn advance(&self, d: SimDuration) -> SimTime {
        self.op(AsyncOp::Advance(d)).await;
        self.now()
    }

    /// Schedule `msg` for delivery into `mbox` after `delay`. Non-blocking:
    /// virtual time does not pass for the sender.
    pub async fn send<T: Any + Send>(&self, mbox: MailboxId, delay: SimDuration, msg: T) {
        self.op(AsyncOp::Send {
            mbox,
            delay,
            msg: Box::new(msg),
        })
        .await;
    }

    /// Block until a message is available in `mbox` and take it. Virtual
    /// time advances to the delivery instant of the message received.
    pub async fn recv(&self, mbox: MailboxId) -> Payload {
        self.op(AsyncOp::Recv { mbox })
            .await
            .into_message()
            .expect("blocking recv resolved without a message")
    }

    /// Blocking receive with a type downcast; panics if the payload is not
    /// a `T` (which indicates a protocol bug in the caller).
    pub async fn recv_as<T: Any + Send>(&self, mbox: MailboxId) -> T {
        downcast_payload(self.recv(mbox).await, mbox)
    }

    /// Block until a message is available in `mbox` or `deadline` passes.
    /// Wakes at the exact arrival or deadline instant; a deadline at or
    /// before the current time degrades to [`try_recv`](Self::try_recv).
    pub async fn recv_deadline(&self, mbox: MailboxId, deadline: SimTime) -> Option<Payload> {
        self.op(AsyncOp::RecvDeadline { mbox, deadline })
            .await
            .into_message()
    }

    /// Timed receive with a type downcast.
    pub async fn recv_deadline_as<T: Any + Send>(
        &self,
        mbox: MailboxId,
        deadline: SimTime,
    ) -> Option<T> {
        let p = self.recv_deadline(mbox, deadline).await?;
        Some(downcast_payload(p, mbox))
    }

    /// Take a message from `mbox` if one has already been delivered.
    /// Never blocks and never advances virtual time.
    pub async fn try_recv(&self, mbox: MailboxId) -> Option<Payload> {
        self.op(AsyncOp::TryRecv { mbox }).await.into_message()
    }

    /// Non-blocking receive with a type downcast.
    pub async fn try_recv_as<T: Any + Send>(&self, mbox: MailboxId) -> Option<T> {
        let p = self.try_recv(mbox).await?;
        Some(downcast_payload(p, mbox))
    }

    /// Allocate a fresh mailbox owned by no one in particular.
    pub async fn create_mailbox(&self) -> MailboxId {
        self.op(AsyncOp::CreateMailbox).await.into_mailbox()
    }

    /// Record a trace annotation at the current virtual time. A no-op unless
    /// tracing was enabled on the [`Simulation`](crate::Simulation).
    pub async fn trace(&self, label: impl Into<String>) {
        let label = label.into();
        self.trace_with(|| label).await;
    }

    /// Record a trace annotation, building the label lazily. When tracing
    /// is disabled this is a single relaxed atomic load: the closure never
    /// runs, nothing allocates, and the future resolves without suspending.
    pub async fn trace_with(&self, label: impl FnOnce() -> String) {
        if !self.tracing.load(Ordering::Relaxed) {
            return;
        }
        self.op(AsyncOp::Trace(label())).await;
    }
}

/// Future for one kernel operation: parks the op in the bridge on first
/// poll, resolves once the kernel's reply lands there.
struct OpFuture {
    bridge: Rc<RefCell<Bridge>>,
    op: Option<AsyncOp>,
}

impl Future for OpFuture {
    type Output = AsyncReply;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<AsyncReply> {
        let this = &mut *self;
        let mut b = this.bridge.borrow_mut();
        if let Some(op) = this.op.take() {
            debug_assert!(
                b.op.is_none() && b.reply.is_none(),
                "two kernel operations in flight on one AsyncHandle: await each call to completion"
            );
            b.op = Some(op);
            return Poll::Pending;
        }
        match b.reply.take() {
            Some(r) => Poll::Ready(r),
            None => Poll::Pending,
        }
    }
}

/// [`Process`] adapter that drives an `async` body: polls the future with a
/// no-op waker and [performs](AsyncOp::perform) each parked [`AsyncOp`],
/// either inline (answered within the same resume) or as a blocking
/// [`Yield`] handed back to the kernel.
pub(crate) struct FutureProcess {
    fut: Pin<Box<dyn Future<Output = ()>>>,
    bridge: Rc<RefCell<Bridge>>,
}

impl FutureProcess {
    pub(crate) fn new(fut: Pin<Box<dyn Future<Output = ()>>>, bridge: Rc<RefCell<Bridge>>) -> Self {
        FutureProcess { fut, bridge }
    }
}

impl Process for FutureProcess {
    fn resume(&mut self, ctx: &mut ProcCtx<'_>) -> Yield {
        {
            let mut b = self.bridge.borrow_mut();
            b.now = ctx.now();
            match ctx.take_resume() {
                // The body has not run yet: nothing awaits a reply.
                Resume::Start => {}
                resume => b.reply = Some(resume.into()),
            }
        }
        loop {
            let mut cx = Context::from_waker(Waker::noop());
            if self.fut.as_mut().poll(&mut cx).is_ready() {
                return Yield::Done;
            }
            let op = self.bridge.borrow_mut().op.take().unwrap_or_else(|| {
                panic!(
                    "async process suspended on a foreign future: only AsyncHandle \
                     operations can be awaited inside a simulated process"
                )
            });
            match op.perform(ctx) {
                Ok(reply) => self.bridge.borrow_mut().reply = Some(reply),
                Err(blocking) => return blocking,
            }
        }
    }
}
