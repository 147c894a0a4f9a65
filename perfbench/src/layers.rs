//! Host-time attribution for the traced run.
//!
//! The benchmark never edits the program: it wraps the public traits the
//! layers are reached through (`mpk::Transport`, `speccore::SpeculativeApp`,
//! `netsim::{NetworkModel, LoadModel, FaultModel}`, `obs::Recorder`) and
//! hands the wrappers to the same entry points the untraced run uses.
//! Every wrapped call opens and closes a span on a [`Clock`]; the clock
//! charges the host time between two consecutive span boundaries to the
//! layer that was running in between, so a layer's total is its *self*
//! time (nested calls are charged to the nested layer).
//!
//! What runs between a rank leaving one wrapped call and entering the next
//! is driver code (`speccore`). Self time inside transport calls is the
//! backend: on the simulator every `SimTransport` call is a round trip into
//! the `desim` kernel, which also runs the other ranks while this one is
//! blocked, so it is charged to `desim`; on the socket backend it is `mpk`
//! (sends split from receive waits).
//!
//! Simulator ranks run one at a time, so all of them share one clock and
//! the charged times add up to wall time. Socket ranks run concurrently on
//! their own threads, so each rank gets its own clock and the books close
//! per rank. Either way, [`LayerTimes::coverage`] is the share of traced
//! host time charged to a named layer; what is left is kernel or thread start-up
//! and teardown outside any rank.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use desim::{SimDuration, SimTime};
use mpk::{Envelope, FaultCounters, Rank, Tag, Transport};
use netsim::{Fate, FaultModel, LoadModel, MsgCtx, NetworkModel};
use obs::{Event, Recorder};
use speccore::{CheckOutcome, History, SpeculativeApp};

/// A layer host time is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Driver bookkeeping between wrapped calls.
    Driver = 0,
    /// Application kernels: iteration, correction, checkpoint.
    App,
    /// Application speculation and checking.
    AppSpec,
    /// Network, load and fault models.
    Net,
    /// Transport calls that return without waiting for a peer.
    Send,
    /// Transport calls that may wait: receives, compute, sleep.
    Wait,
    /// Telemetry sink.
    Obs,
}

const LAYERS: usize = 7;

/// Which layer a backend's transport self time belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `desim` kernel: ranks take turns on one clock.
    Sim,
    /// Real TCP: ranks run concurrently, one clock each.
    Socket,
}

/// One timeline of span boundaries.
#[derive(Debug)]
struct Timeline {
    last: Option<Instant>,
    current: Option<Layer>,
    /// Open spans per rank (index = rank).
    stacks: Vec<Vec<Layer>>,
    self_time: [Duration; LAYERS],
    calls: [u64; LAYERS],
}

impl Timeline {
    fn new(ranks: usize) -> Self {
        Timeline {
            last: None,
            current: None,
            stacks: vec![Vec::new(); ranks],
            self_time: [Duration::ZERO; LAYERS],
            calls: [0; LAYERS],
        }
    }

    fn tick(&mut self) {
        let now = Instant::now();
        if let (Some(last), Some(layer)) = (self.last, self.current) {
            self.self_time[layer as usize] += now - last;
        }
        self.last = Some(now);
    }
}

/// A shared clock; cloning shares the timeline.
#[derive(Clone, Debug)]
pub struct Clock(Arc<Mutex<Timeline>>);

impl Clock {
    fn new(ranks: usize) -> Self {
        Clock(Arc::new(Mutex::new(Timeline::new(ranks))))
    }

    fn lock(&self) -> MutexGuard<'_, Timeline> {
        self.0.lock().expect("trace clock poisoned")
    }

    /// A rank starts running (its closure was entered).
    pub fn open(&self, rank: usize) {
        let mut t = self.lock();
        t.tick();
        t.current = Some(Layer::Driver);
        t.stacks[rank].clear();
    }

    /// A rank finished; until the next boundary the backend runs.
    pub fn close(&self, rank: usize, backend: Backend) {
        let mut t = self.lock();
        t.tick();
        t.current = match backend {
            Backend::Sim => Some(Layer::Wait),
            Backend::Socket => None,
        };
        t.stacks[rank].clear();
    }

    fn enter(&self, rank: usize, layer: Layer) {
        let mut t = self.lock();
        t.tick();
        t.calls[layer as usize] += 1;
        t.stacks[rank].push(layer);
        t.current = Some(layer);
    }

    fn leave(&self, rank: usize) {
        let mut t = self.lock();
        t.tick();
        t.stacks[rank].pop();
        t.current = Some(t.stacks[rank].last().copied().unwrap_or(Layer::Driver));
    }

    /// Run `f` inside a span of `layer` on `rank`.
    pub fn span<R>(&self, rank: usize, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.enter(rank, layer);
        let out = f();
        self.leave(rank);
        out
    }
}

/// The clocks of one traced run plus its wall time.
#[derive(Debug)]
pub struct Ledger {
    backend: Backend,
    clocks: Vec<Clock>,
    /// Host time the traced entry points took, summed over runs.
    wall: Duration,
    /// Host time the ranks existed for, summed over ranks and runs: from a
    /// rank's closure being entered to the cluster call returning.
    rank_wall: Duration,
    /// Host time spent in `perfmodel`, timed around direct calls.
    pub perfmodel: Duration,
}

/// Totals of a [`Ledger`], summed over its clocks.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    secs: [f64; LAYERS],
    calls: [u64; LAYERS],
    /// Host time the layers could be charged with, seconds: the traced
    /// entry points' wall time (plus `perfmodel`) on the simulator, the
    /// ranks' summed lifetimes on sockets, whose ranks run concurrently.
    traced: f64,
    /// Host time in `perfmodel`, seconds.
    pub perfmodel: f64,
}

impl LayerTimes {
    /// Self time of `layer`, seconds.
    pub fn secs(&self, layer: Layer) -> f64 {
        self.secs[layer as usize]
    }

    /// Calls into `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Share of traced host time charged to a named layer.
    pub fn coverage(&self) -> f64 {
        (self.secs.iter().sum::<f64>() + self.perfmodel) / self.traced
    }
}

impl Ledger {
    /// An empty ledger for `backend`.
    pub fn new(backend: Backend) -> Self {
        Ledger {
            backend,
            clocks: Vec::new(),
            wall: Duration::ZERO,
            rank_wall: Duration::ZERO,
            perfmodel: Duration::ZERO,
        }
    }

    /// The clocks for one cluster run of `ranks` ranks: one shared clock
    /// on the simulator, one per rank on the socket backend.
    pub fn clocks_for(&mut self, ranks: usize) -> Vec<Clock> {
        let clocks: Vec<Clock> = match self.backend {
            Backend::Sim => vec![Clock::new(ranks); ranks],
            Backend::Socket => (0..ranks).map(|_| Clock::new(ranks)).collect(),
        };
        match self.backend {
            Backend::Sim => self.clocks.push(clocks[0].clone()),
            Backend::Socket => self.clocks.extend(clocks.iter().cloned()),
        }
        clocks
    }

    /// Time one traced entry-point call.
    pub fn timed<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.wall += t0.elapsed();
        out
    }

    /// Add the time one rank existed for (socket backend).
    pub fn add_rank_wall(&mut self, d: Duration) {
        self.rank_wall += d;
    }

    /// Totals over every clock.
    pub fn totals(&self) -> LayerTimes {
        let traced = match self.backend {
            Backend::Sim => self.wall + self.perfmodel,
            Backend::Socket => self.rank_wall,
        };
        let mut out = LayerTimes {
            traced: traced.as_secs_f64(),
            perfmodel: self.perfmodel.as_secs_f64(),
            ..LayerTimes::default()
        };
        for c in &self.clocks {
            let t = c.lock();
            for i in 0..LAYERS {
                out.secs[i] += t.self_time[i].as_secs_f64();
                out.calls[i] += t.calls[i];
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Wrappers
// ---------------------------------------------------------------------------

/// `mpk::Transport` with every call timed. Each method forwards to the
/// wrapped transport's own implementation, defaults included, so backend
/// overrides are honoured and the run is the same program.
pub struct TimedTransport<'a, T> {
    inner: &'a mut T,
    rank: usize,
    clock: Clock,
}

impl<'a, T: Transport> TimedTransport<'a, T> {
    /// Wrap `inner` on `clock`.
    pub fn new(inner: &'a mut T, clock: Clock) -> Self {
        let rank = inner.rank().0;
        TimedTransport { inner, rank, clock }
    }
}

impl<T: Transport> Transport for TimedTransport<'_, T> {
    type Msg = T::Msg;

    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&mut self, to: Rank, tag: Tag, msg: Self::Msg) {
        self.clock
            .span(self.rank, Layer::Send, || self.inner.send(to, tag, msg));
    }

    fn try_recv(&mut self) -> Option<Envelope<Self::Msg>> {
        self.clock
            .span(self.rank, Layer::Send, || self.inner.try_recv())
    }

    fn recv(&mut self) -> Envelope<Self::Msg> {
        self.clock
            .span(self.rank, Layer::Wait, || self.inner.recv())
    }

    fn recv_timeout(&mut self, timeout: SimDuration) -> Option<Envelope<Self::Msg>> {
        self.clock
            .span(self.rank, Layer::Wait, || self.inner.recv_timeout(timeout))
    }

    fn sleep(&mut self, d: SimDuration) {
        self.clock
            .span(self.rank, Layer::Wait, || self.inner.sleep(d));
    }

    fn fault_counters(&self) -> FaultCounters {
        self.inner.fault_counters()
    }

    fn compute(&mut self, ops: u64) {
        self.clock
            .span(self.rank, Layer::Wait, || self.inner.compute(ops));
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn note_progress(&mut self, iter: u64) {
        self.clock
            .span(self.rank, Layer::Send, || self.inner.note_progress(iter));
    }

    fn recorder(&mut self) -> Option<&mut (dyn Recorder + 'static)> {
        self.inner.recorder()
    }

    fn broadcast(&mut self, tag: Tag, msg: Self::Msg)
    where
        Self::Msg: Clone,
    {
        self.clock
            .span(self.rank, Layer::Send, || self.inner.broadcast(tag, msg));
    }
}

/// Operation counts the application reported back to the driver.
#[derive(Clone, Debug, Default)]
pub struct AppOps(Arc<AtomicU64>);

impl AppOps {
    // A statistic read after the run's threads are joined: Relaxed suffices.
    fn add(&self, ops: u64) {
        self.0.fetch_add(ops, Ordering::Relaxed);
    }

    /// Total operations reported so far.
    pub fn total(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// `speccore::SpeculativeApp` with every hook timed and its operation
/// counts summed.
pub struct TimedApp<A> {
    inner: A,
    rank: usize,
    clock: Clock,
    ops: AppOps,
}

impl<A> TimedApp<A> {
    /// Wrap rank `rank`'s application.
    pub fn new(inner: A, rank: usize, clock: Clock, ops: AppOps) -> Self {
        TimedApp {
            inner,
            rank,
            clock,
            ops,
        }
    }

    /// The wrapped application.
    pub fn into_inner(self) -> A {
        self.inner
    }

    fn app<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.clock.span(self.rank, layer, f)
    }

    fn counted(&self, ops: u64) -> u64 {
        self.ops.add(ops);
        ops
    }
}

impl<A: SpeculativeApp> SpeculativeApp for TimedApp<A> {
    type Shared = A::Shared;
    type Checkpoint = A::Checkpoint;

    fn shared(&self) -> Self::Shared {
        self.app(Layer::App, || self.inner.shared())
    }

    fn begin_iteration(&mut self) -> u64 {
        let ops = self
            .clock
            .span(self.rank, Layer::App, || self.inner.begin_iteration());
        self.counted(ops)
    }

    fn absorb(&mut self, from: Rank, x: &Self::Shared) -> u64 {
        let ops = self
            .clock
            .span(self.rank, Layer::App, || self.inner.absorb(from, x));
        self.counted(ops)
    }

    fn finish_iteration(&mut self) -> u64 {
        let ops = self
            .clock
            .span(self.rank, Layer::App, || self.inner.finish_iteration());
        self.counted(ops)
    }

    fn speculate(
        &self,
        from: Rank,
        hist: &History<Self::Shared>,
        ahead: u32,
    ) -> Option<(Self::Shared, u64)> {
        let out = self.app(Layer::AppSpec, || self.inner.speculate(from, hist, ahead));
        if let Some((_, ops)) = &out {
            self.counted(*ops);
        }
        out
    }

    fn check(&self, from: Rank, actual: &Self::Shared, speculated: &Self::Shared) -> CheckOutcome {
        let out = self.app(Layer::AppSpec, || {
            self.inner.check(from, actual, speculated)
        });
        self.counted(out.ops);
        out
    }

    fn correct(&mut self, from: Rank, speculated: &Self::Shared, actual: &Self::Shared) -> u64 {
        let ops = self.clock.span(self.rank, Layer::App, || {
            self.inner.correct(from, speculated, actual)
        });
        self.counted(ops)
    }

    fn correct_deep(
        &mut self,
        from: Rank,
        speculated: &Self::Shared,
        actual: &Self::Shared,
        depth: u64,
    ) -> Option<u64> {
        let ops = self.clock.span(self.rank, Layer::App, || {
            self.inner.correct_deep(from, speculated, actual, depth)
        });
        ops.map(|ops| self.counted(ops))
    }

    fn delta_extract(&self, shared: &Self::Shared, out: &mut Vec<f64>) -> bool {
        self.app(Layer::App, || self.inner.delta_extract(shared, out))
    }

    fn delta_patch(&self, base: &Self::Shared, entries: &[(u32, f64)]) -> Option<Self::Shared> {
        self.app(Layer::App, || self.inner.delta_patch(base, entries))
    }

    fn set_speculation_threshold(&mut self, theta: f64) {
        self.clock.span(self.rank, Layer::App, || {
            self.inner.set_speculation_threshold(theta)
        });
    }

    fn checkpoint(&self) -> Self::Checkpoint {
        self.app(Layer::App, || self.inner.checkpoint())
    }

    fn checkpoint_into(&self, slot: &mut Option<Self::Checkpoint>) {
        self.app(Layer::App, || self.inner.checkpoint_into(slot));
    }

    fn restore(&mut self, c: &Self::Checkpoint) {
        self.clock
            .span(self.rank, Layer::App, || self.inner.restore(c));
    }
}

/// A `netsim` model with every call timed. The model is consulted from
/// inside the sending (or computing) rank's transport call, so its time
/// nests under that rank's span.
pub struct TimedModel<M> {
    inner: M,
    clock: Clock,
}

impl<M> TimedModel<M> {
    /// Wrap `inner` on the simulator's shared clock.
    pub fn new(inner: M, clock: Clock) -> Self {
        TimedModel { inner, clock }
    }
}

impl<M: NetworkModel> NetworkModel for TimedModel<M> {
    fn delay(&mut self, ctx: &MsgCtx) -> SimDuration {
        self.clock
            .span(ctx.src, Layer::Net, || self.inner.delay(ctx))
    }
}

impl<M: LoadModel> LoadModel for TimedModel<M> {
    fn factor(&mut self, rank: usize, now: SimTime) -> f64 {
        self.clock
            .span(rank, Layer::Net, || self.inner.factor(rank, now))
    }
}

impl<M: FaultModel> FaultModel for TimedModel<M> {
    fn fate(&mut self, ctx: &MsgCtx) -> Fate {
        self.clock
            .span(ctx.src, Layer::Net, || self.inner.fate(ctx))
    }
}

/// `obs::Recorder` with every event timed and counted, attached to one
/// rank's transport.
pub struct TimedRecorder<R> {
    inner: R,
    rank: usize,
    clock: Clock,
}

impl<R> TimedRecorder<R> {
    /// Wrap rank `rank`'s sink `inner` on `clock`.
    pub fn new(inner: R, rank: usize, clock: Clock) -> Self {
        TimedRecorder { inner, rank, clock }
    }
}

impl<R: Recorder> Recorder for TimedRecorder<R> {
    fn record(&mut self, event: Event) {
        self.clock
            .span(self.rank, Layer::Obs, || self.inner.record(event));
    }
}
