//! Virtual-time transport backend: ranks are `desim` processes on a
//! `netsim` cluster. This is the backend all paper experiments run on —
//! deterministic, seedable, and fast (no real waiting).
//!
//! Two front-ends share one model of the simulated wire. [`SimTransport`]
//! is the blocking [`Transport`] of a thread-backed rank
//! ([`run_sim_cluster`]); [`SimIo`] is the
//! [`AsyncTransport`](crate::AsyncTransport) of an `async` rank
//! ([`run_sim_proc_cluster`]). Every modelled effect — fate before network,
//! crash-window drops, fault counters, corruption, duplicate copies, load
//! scaling, telemetry marks — lives once, in a private per-rank core that
//! makes no kernel call; each front-end only issues the handle calls that
//! core asks for, blocking or `.await`ing. Both kinds of rank run through
//! the same `desim` dispatch loop, so the two backends produce the same
//! schedule by construction.

use std::marker::PhantomData;
use std::sync::Arc;

use desim::{
    AsyncHandle, MailboxId, ProcessHandle, ProcessResult, SimDuration, SimError, SimReport,
    SimTime, Simulation, TieBreak,
};
use netsim::{
    ClusterSpec, CrashPlan, FaultModel, LoadModel, MachineSpec, MsgCtx, NetworkModel, NoFaults,
};
use obs::{Mark, Recorder};
use parking_lot::Mutex;

// `AsyncTransport` is deliberately referenced by path, not imported: with
// both traits in scope, every method call on a concrete `Transport` type
// (which the blanket impl also makes an `AsyncTransport`) would be
// ambiguous.
use crate::transport::Transport;
use crate::types::{Envelope, FaultCounters, Rank, Tag, WireSize, HEADER_BYTES};

/// How a corruption amplitude maps onto a concrete payload: called as
/// `(msg, amp, salt)`, where `salt` is a deterministic per-hit counter so
/// the perturbation can draw reproducible noise without global state.
pub type Corruptor<M> = Box<dyn FnMut(&mut M, f64, u64) + Send>;

/// Fault-injection configuration of a simulated cluster run: the
/// per-message fate model, the scripted machine outages, and (optionally)
/// how corruption fates apply to this payload type.
pub struct FaultSpec<M> {
    /// Per-message fate model (loss, duplication, corruption, partitions).
    pub model: Box<dyn FaultModel>,
    /// Scripted machine outages. The transport drops sends addressed to a
    /// down rank, like datagrams to a rebooting host; the driver side
    /// (speccore) interprets the same plan to crash and recover ranks.
    pub crashes: CrashPlan,
    /// Applies a [`netsim::Fate::corrupt_amp`] to the payload. `None`
    /// turns corruption fates into no-ops.
    pub corruptor: Option<Corruptor<M>>,
}

impl<M> FaultSpec<M> {
    /// No faults: the configuration [`run_sim_cluster`] uses.
    pub fn none() -> Self {
        FaultSpec {
            model: Box::new(NoFaults),
            crashes: CrashPlan::none(),
            corruptor: None,
        }
    }

    /// Faults from a fate model alone.
    pub fn new(model: impl FaultModel + 'static) -> Self {
        FaultSpec {
            model: Box::new(model),
            ..FaultSpec::none()
        }
    }

    /// Add scripted machine outages.
    pub fn with_crashes(mut self, crashes: CrashPlan) -> Self {
        self.crashes = crashes;
        self
    }

    /// Add a payload corruptor.
    pub fn with_corruptor(mut self, f: impl FnMut(&mut M, f64, u64) + Send + 'static) -> Self {
        self.corruptor = Some(Box::new(f));
        self
    }
}

struct SharedNet<M> {
    net: Box<dyn NetworkModel>,
    load: Box<dyn LoadModel>,
    faults: FaultSpec<M>,
    counters: Vec<FaultCounters>,
    corrupt_salt: u64,
}

/// One rank's end of the simulated wire: the fault, network, load and
/// telemetry models, shared by both front-ends. It makes no kernel call:
/// each method says what the front-end must send or wait for, or records
/// what the front-end saw.
struct Wire<M> {
    rank: Rank,
    size: usize,
    machine: MachineSpec,
    mailboxes: Arc<Vec<MailboxId>>,
    shared: Arc<Mutex<SharedNet<M>>>,
    rec: Option<Box<dyn Recorder>>,
}

impl<M: WireSize + Clone> Wire<M> {
    /// This rank's own mailbox.
    fn inbox(&self) -> MailboxId {
        self.mailboxes[self.rank.0]
    }

    /// Route one send at virtual time `now` through the fault layer and
    /// the network. Returns the kernel sends to issue, in order: a dropped
    /// message yields none.
    fn send(&mut self, to: Rank, tag: Tag, msg: M, now: SimTime) -> Deliveries<'_, M> {
        assert!(to.0 < self.size, "send to out-of-range rank {to}");
        assert_ne!(to, self.rank, "self-sends are not modelled");
        let bytes = msg.wire_size() + HEADER_BYTES;
        let ctx = MsgCtx {
            src: self.rank.0,
            dst: to.0,
            bytes,
            now,
        };
        let mut msg = msg;
        let mut sh = self.shared.lock();
        // Fate first, then the network: a dropped message never touches
        // the medium, so fault-free runs see the identical delay stream.
        let fate = sh.faults.model.fate(&ctx);
        let down = !sh.faults.crashes.is_empty() && sh.faults.crashes.is_down(to.0, now);
        let delay = if fate.deliver && !down {
            let counters = &mut sh.counters[self.rank.0];
            counters.delivered += 1;
            counters.duplicated += u64::from(fate.extra_copies);
            let delay = sh.net.delay(&ctx);
            if fate.corrupt_amp > 0.0 {
                sh.corrupt_salt = sh.corrupt_salt.wrapping_add(1);
                let salt = sh.corrupt_salt;
                if let Some(c) = sh.faults.corruptor.as_mut() {
                    c(&mut msg, fate.corrupt_amp, salt);
                }
            }
            Some(delay)
        } else {
            sh.counters[self.rank.0].dropped += 1;
            None
        };
        drop(sh);
        let delivered = delay.is_some();
        if let Some(r) = self.rec.as_deref_mut() {
            let (rank, t_ns) = (self.rank.0 as u32, now.as_nanos());
            let (to, bytes) = (to.0 as u32, bytes as u64);
            r.mark(rank, t_ns, Mark::MsgSent { to, bytes });
            if !delivered {
                r.mark(rank, t_ns, Mark::MessageDropped { to, bytes });
            } else if fate.extra_copies > 0 {
                let copies = fate.extra_copies;
                r.mark(rank, t_ns, Mark::MessageDuplicated { to, copies });
            }
        }
        Deliveries {
            shared: &self.shared,
            ctx,
            mbox: self.mailboxes[to.0],
            copies: if delivered { fate.extra_copies } else { 0 },
            original: delay.map(|d| {
                let src = self.rank;
                (d, Envelope { src, tag, msg })
            }),
        }
    }

    /// Record a message taken from the inbox at `now`.
    fn received(&mut self, env: &Envelope<M>, now: SimTime) {
        if let Some(r) = self.rec.as_deref_mut() {
            let bytes = (env.msg.wire_size() + HEADER_BYTES) as u64;
            let from = env.src.0 as u32;
            r.mark(
                self.rank.0 as u32,
                now.as_nanos(),
                Mark::MsgRecv { from, bytes },
            );
        }
    }

    /// Record how a timed receive armed at `armed_at` ended at `now`: with
    /// a message, or with its deadline timer.
    fn woke(&mut self, env: Option<&Envelope<M>>, armed_at: SimTime, now: SimTime) {
        if let Some(r) = self.rec.as_deref_mut() {
            let waited_ns = (now - armed_at).as_nanos();
            let mark = match env {
                Some(env) => Mark::RecvWakeup {
                    from: env.src.0 as u32,
                    waited_ns,
                },
                None => Mark::TimerFired { waited_ns },
            };
            r.mark(self.rank.0 as u32, now.as_nanos(), mark);
        }
        if let Some(env) = env {
            self.received(env, now);
        }
    }

    /// Virtual time `ops` operations take on this machine at `now`, scaled
    /// by the background-load model; `None` for no work.
    fn compute_time(&self, ops: u64, now: SimTime) -> Option<SimDuration> {
        if ops == 0 {
            return None;
        }
        let factor = self.shared.lock().load.factor(self.rank.0, now);
        Some(self.machine.ops_duration(ops).mul_f64(factor))
    }

    fn fault_counters(&self) -> FaultCounters {
        self.shared.lock().counters[self.rank.0]
    }
}

/// The kernel sends one routed message turns into: each duplicate copy,
/// then the original.
struct Deliveries<'w, M> {
    shared: &'w Mutex<SharedNet<M>>,
    ctx: MsgCtx,
    mbox: MailboxId,
    copies: u32,
    original: Option<(SimDuration, Envelope<M>)>,
}

impl<M: Clone> Iterator for Deliveries<'_, M> {
    type Item = (MailboxId, SimDuration, Envelope<M>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.copies == 0 {
            let (delay, env) = self.original.take()?;
            return Some((self.mbox, delay, env));
        }
        self.copies -= 1;
        let copy = self.original.as_ref()?.1.clone();
        // Each extra copy re-consults the network: duplicates occupy the
        // medium like any other message.
        let delay = self.shared.lock().net.delay(&self.ctx);
        Some((self.mbox, delay, copy))
    }
}

/// A rank's endpoint on a simulated cluster.
///
/// Created by [`run_sim_cluster`]; lives only inside the per-rank closure,
/// whose blocking calls suspend the rank's thread-backed `desim` process.
pub struct SimTransport<'a, 'h, M> {
    h: &'a mut ProcessHandle,
    wire: Wire<M>,
    _lifetime: PhantomData<&'h ()>,
}

impl<M: Send + 'static> SimTransport<'_, '_, M> {
    /// Record a trace annotation (visible in the [`SimReport`] if tracing
    /// was enabled).
    pub fn trace(&mut self, label: impl Into<String>) {
        self.h.trace(label);
    }

    /// Lazily-built trace annotation; free when tracing is disabled.
    pub fn trace_with(&mut self, label: impl FnOnce() -> String) {
        self.h.trace_with(label);
    }

    /// The capacity of the machine this rank runs on.
    pub fn machine(&self) -> MachineSpec {
        self.wire.machine
    }

    /// Attach a structured telemetry sink for this rank. Typically an
    /// [`obs::SharedRecorder`] clone, so the events can be drained after
    /// [`run_sim_cluster`] returns. Message sends/receives are marked by
    /// the transport itself; spans and counters come from the algorithm
    /// via [`Transport::recorder`].
    pub fn set_recorder(&mut self, rec: Box<dyn Recorder>) {
        self.wire.rec = Some(rec);
    }
}

impl<M: WireSize + Clone + Send + 'static> Transport for SimTransport<'_, '_, M> {
    type Msg = M;

    fn rank(&self) -> Rank {
        self.wire.rank
    }

    fn size(&self) -> usize {
        self.wire.size
    }

    fn send(&mut self, to: Rank, tag: Tag, msg: M) {
        for (mbox, delay, env) in self.wire.send(to, tag, msg, self.h.now()) {
            self.h.send(mbox, delay, env);
        }
    }

    fn try_recv(&mut self) -> Option<Envelope<M>> {
        let env = self.h.try_recv_as::<Envelope<M>>(self.wire.inbox())?;
        self.wire.received(&env, self.h.now());
        Some(env)
    }

    fn recv(&mut self) -> Envelope<M> {
        let env = self.h.recv_as::<Envelope<M>>(self.wire.inbox());
        self.wire.received(&env, self.h.now());
        env
    }

    fn compute(&mut self, ops: u64) {
        if let Some(d) = self.wire.compute_time(ops, self.h.now()) {
            self.h.advance(d);
        }
    }

    fn now(&self) -> SimTime {
        self.h.now()
    }

    fn recv_timeout(&mut self, timeout: SimDuration) -> Option<Envelope<M>> {
        if let Some(env) = Transport::try_recv(self) {
            return Some(env);
        }
        if timeout == SimDuration::ZERO {
            return None;
        }
        // Event-driven timed receive: the kernel arms one deadline timer
        // and wakes this process either at the exact arrival time of the
        // next message or exactly at the deadline — never in between.
        let armed_at = self.h.now();
        let env = self
            .h
            .recv_deadline_as::<Envelope<M>>(self.wire.inbox(), armed_at + timeout);
        self.wire.woke(env.as_ref(), armed_at, self.h.now());
        env
    }

    fn sleep(&mut self, d: SimDuration) {
        if d > SimDuration::ZERO {
            self.h.advance(d);
        }
    }

    fn fault_counters(&self) -> FaultCounters {
        self.wire.fault_counters()
    }

    fn recorder(&mut self) -> Option<&mut (dyn Recorder + 'static)> {
        self.wire.rec.as_deref_mut()
    }
}

/// A rank's endpoint on a simulated cluster, for `async` ranks.
///
/// The async twin of [`SimTransport`]: created by [`run_sim_proc_cluster`]
/// and moved into the per-rank `async` body. It drives an [`AsyncHandle`]
/// — each `.await` suspends the rank's state machine into the `desim` event
/// kernel, so thousands of ranks share one OS thread — over the same wire
/// model as `SimTransport`.
pub struct SimIo<M> {
    h: AsyncHandle,
    wire: Wire<M>,
}

impl<M: Send + 'static> SimIo<M> {
    /// Record a trace annotation (visible in the [`SimReport`] if tracing
    /// was enabled).
    pub async fn trace(&mut self, label: impl Into<String>) {
        self.h.trace(label).await;
    }

    /// Lazily-built trace annotation; free when tracing is disabled.
    pub async fn trace_with(&mut self, label: impl FnOnce() -> String) {
        self.h.trace_with(label).await;
    }

    /// The capacity of the machine this rank runs on.
    pub fn machine(&self) -> MachineSpec {
        self.wire.machine
    }

    /// Attach a structured telemetry sink for this rank (see
    /// [`SimTransport::set_recorder`]).
    pub fn set_recorder(&mut self, rec: Box<dyn Recorder>) {
        self.wire.rec = Some(rec);
    }
}

impl<M: WireSize + Clone + Send + 'static> crate::transport::AsyncTransport for SimIo<M> {
    type Msg = M;

    fn rank(&self) -> Rank {
        self.wire.rank
    }

    fn size(&self) -> usize {
        self.wire.size
    }

    async fn send(&mut self, to: Rank, tag: Tag, msg: M) {
        for (mbox, delay, env) in self.wire.send(to, tag, msg, self.h.now()) {
            self.h.send(mbox, delay, env).await;
        }
    }

    async fn try_recv(&mut self) -> Option<Envelope<M>> {
        let env = self.h.try_recv_as::<Envelope<M>>(self.wire.inbox()).await?;
        self.wire.received(&env, self.h.now());
        Some(env)
    }

    async fn recv(&mut self) -> Envelope<M> {
        let env = self.h.recv_as::<Envelope<M>>(self.wire.inbox()).await;
        self.wire.received(&env, self.h.now());
        env
    }

    async fn compute(&mut self, ops: u64) {
        if let Some(d) = self.wire.compute_time(ops, self.h.now()) {
            self.h.advance(d).await;
        }
    }

    fn now(&self) -> SimTime {
        self.h.now()
    }

    async fn recv_timeout(&mut self, timeout: SimDuration) -> Option<Envelope<M>> {
        if let Some(env) = crate::transport::AsyncTransport::try_recv(self).await {
            return Some(env);
        }
        if timeout == SimDuration::ZERO {
            return None;
        }
        // Same event-driven timed receive as `SimTransport::recv_timeout`.
        let armed_at = self.h.now();
        let env = self
            .h
            .recv_deadline_as::<Envelope<M>>(self.wire.inbox(), armed_at + timeout)
            .await;
        self.wire.woke(env.as_ref(), armed_at, self.h.now());
        env
    }

    async fn sleep(&mut self, d: SimDuration) {
        if d > SimDuration::ZERO {
            self.h.advance(d).await;
        }
    }

    fn fault_counters(&self) -> FaultCounters {
        self.wire.fault_counters()
    }

    fn recorder(&mut self) -> Option<&mut (dyn Recorder + 'static)> {
        self.wire.rec.as_deref_mut()
    }
}

/// Run one closure per machine of `cluster` in deterministic virtual time.
///
/// Every rank executes `f`, distinguishing itself via
/// [`Transport::rank`]. Returns each rank's result (rank order) plus the
/// kernel's [`SimReport`].
///
/// # Example
///
/// ```
/// use mpk::{run_sim_cluster, Transport, Tag, Rank};
/// use netsim::{ClusterSpec, ConstantLatency, Unloaded};
/// use desim::SimDuration;
///
/// let cluster = ClusterSpec::homogeneous(3, 50.0);
/// let (sums, report) = run_sim_cluster::<u64, _, _>(
///     &cluster,
///     ConstantLatency(SimDuration::from_millis(1)),
///     Unloaded,
///     false,
///     |t| {
///         t.broadcast(Tag(0), t.rank().0 as u64);
///         (0..t.size() - 1).map(|_| t.recv().msg).sum::<u64>()
///     },
/// )
/// .unwrap();
/// assert_eq!(sums, vec![3, 2, 1]); // each rank sums the others' ids
/// assert!(report.end_time.as_nanos() > 0);
/// ```
pub fn run_sim_cluster<M, R, F>(
    cluster: &ClusterSpec,
    net: impl NetworkModel + 'static,
    load: impl LoadModel + 'static,
    trace: bool,
    f: F,
) -> Result<(Vec<R>, SimReport), SimError>
where
    M: WireSize + Clone + Send + 'static,
    R: Send + 'static,
    F: for<'a, 'h> Fn(&mut SimTransport<'a, 'h, M>) -> R + Send + Sync + 'static,
{
    run_sim_cluster_with_faults(cluster, net, load, FaultSpec::none(), trace, f)
}

/// [`run_sim_cluster`] with a fault layer: every send is routed through
/// `faults.model` (and the crash plan) before it may touch the network
/// model. With [`FaultSpec::none`] this is exactly `run_sim_cluster` —
/// same delay stream, same schedule, bit for bit.
pub fn run_sim_cluster_with_faults<M, R, F>(
    cluster: &ClusterSpec,
    net: impl NetworkModel + 'static,
    load: impl LoadModel + 'static,
    faults: FaultSpec<M>,
    trace: bool,
    f: F,
) -> Result<(Vec<R>, SimReport), SimError>
where
    M: WireSize + Clone + Send + 'static,
    R: Send + 'static,
    F: for<'a, 'h> Fn(&mut SimTransport<'a, 'h, M>) -> R + Send + Sync + 'static,
{
    run_sim_cluster_with_options(
        cluster,
        net,
        load,
        faults,
        SimClusterOptions {
            trace,
            ..SimClusterOptions::default()
        },
        f,
    )
}

/// Kernel-level options of a simulated cluster run, beyond the
/// network/load/fault models. `Default` reproduces
/// [`run_sim_cluster_with_faults`] exactly.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimClusterOptions {
    /// Record per-process trace annotations into the [`SimReport`].
    pub trace: bool,
    /// How simultaneous events are ordered ([`TieBreak::Fifo`] is the
    /// historical insertion order). Conformance tests re-run a scenario
    /// under [`TieBreak::Lifo`]/[`TieBreak::Seeded`] to prove its result
    /// does not hinge on same-virtual-time delivery tie-breaks.
    pub tie_break: TieBreak,
    /// Arm the kernel's scheduling-invariant oracle
    /// ([`Simulation::enable_scheduling_checks`]): every grant and blocking
    /// yield is validated, and a violation panics with a diagnostic. Used
    /// by the property suites; off by default.
    pub check_scheduling: bool,
}

/// [`run_sim_cluster_with_faults`] with explicit [`SimClusterOptions`]
/// (trace collection and same-time event ordering).
pub fn run_sim_cluster_with_options<M, R, F>(
    cluster: &ClusterSpec,
    net: impl NetworkModel + 'static,
    load: impl LoadModel + 'static,
    faults: FaultSpec<M>,
    options: SimClusterOptions,
    f: F,
) -> Result<(Vec<R>, SimReport), SimError>
where
    M: WireSize + Clone + Send + 'static,
    R: Send + 'static,
    F: for<'a, 'h> Fn(&mut SimTransport<'a, 'h, M>) -> R + Send + Sync + 'static,
{
    let (mut sim, wires) = build_cluster(cluster, Box::new(net), Box::new(load), faults, options);
    let f = Arc::new(f);
    let results: Vec<_> = wires
        .enumerate()
        .map(|(r, wire)| {
            let f = Arc::clone(&f);
            sim.spawn(format!("rank{r}"), move |h| {
                f(&mut SimTransport {
                    h,
                    wire,
                    _lifetime: PhantomData,
                })
            })
        })
        .collect();
    collect_results(sim, &results)
}

/// [`run_sim_cluster`] on the stackless kernel: every rank is an `async`
/// body suspended into the event heap instead of a parked OS thread, so the
/// cluster scales to tens of thousands of ranks on one thread.
///
/// `f` is called once per rank (at spawn time, on the calling thread) to
/// build that rank's future; the body itself first executes when the kernel
/// grants time zero. With the same models and workload this produces the
/// same schedule — bit for bit — as [`run_sim_cluster`].
///
/// # Example
///
/// ```
/// use mpk::{run_sim_proc_cluster, AsyncTransport, Tag, Rank};
/// use netsim::{ClusterSpec, ConstantLatency, Unloaded};
/// use desim::SimDuration;
///
/// let cluster = ClusterSpec::homogeneous(3, 50.0);
/// let (sums, report) = run_sim_proc_cluster::<u64, _, _, _>(
///     &cluster,
///     ConstantLatency(SimDuration::from_millis(1)),
///     Unloaded,
///     false,
///     |mut t| async move {
///         t.broadcast(Tag(0), t.rank().0 as u64).await;
///         let mut sum = 0;
///         for _ in 0..t.size() - 1 {
///             sum += t.recv().await.msg;
///         }
///         sum
///     },
/// )
/// .unwrap();
/// assert_eq!(sums, vec![3, 2, 1]); // each rank sums the others' ids
/// assert!(report.end_time.as_nanos() > 0);
/// ```
pub fn run_sim_proc_cluster<M, R, F, Fut>(
    cluster: &ClusterSpec,
    net: impl NetworkModel + 'static,
    load: impl LoadModel + 'static,
    trace: bool,
    f: F,
) -> Result<(Vec<R>, SimReport), SimError>
where
    M: WireSize + Clone + Send + 'static,
    R: 'static,
    F: Fn(SimIo<M>) -> Fut,
    Fut: std::future::Future<Output = R> + 'static,
{
    run_sim_proc_cluster_with_faults(cluster, net, load, FaultSpec::none(), trace, f)
}

/// [`run_sim_proc_cluster`] with a fault layer (see
/// [`run_sim_cluster_with_faults`] — identical semantics, stackless ranks).
pub fn run_sim_proc_cluster_with_faults<M, R, F, Fut>(
    cluster: &ClusterSpec,
    net: impl NetworkModel + 'static,
    load: impl LoadModel + 'static,
    faults: FaultSpec<M>,
    trace: bool,
    f: F,
) -> Result<(Vec<R>, SimReport), SimError>
where
    M: WireSize + Clone + Send + 'static,
    R: 'static,
    F: Fn(SimIo<M>) -> Fut,
    Fut: std::future::Future<Output = R> + 'static,
{
    run_sim_proc_cluster_with_options(
        cluster,
        net,
        load,
        faults,
        SimClusterOptions {
            trace,
            ..SimClusterOptions::default()
        },
        f,
    )
}

/// [`run_sim_proc_cluster_with_faults`] with explicit [`SimClusterOptions`].
pub fn run_sim_proc_cluster_with_options<M, R, F, Fut>(
    cluster: &ClusterSpec,
    net: impl NetworkModel + 'static,
    load: impl LoadModel + 'static,
    faults: FaultSpec<M>,
    options: SimClusterOptions,
    f: F,
) -> Result<(Vec<R>, SimReport), SimError>
where
    M: WireSize + Clone + Send + 'static,
    R: 'static,
    F: Fn(SimIo<M>) -> Fut,
    Fut: std::future::Future<Output = R> + 'static,
{
    let (mut sim, wires) = build_cluster(cluster, Box::new(net), Box::new(load), faults, options);
    let results: Vec<_> = wires
        .enumerate()
        .map(|(r, wire)| sim.spawn_async(format!("rank{r}"), |h| f(SimIo { h, wire })))
        .collect();
    collect_results(sim, &results)
}

/// The kernel and the per-rank wires both cluster runners start from.
/// Mailboxes are created in rank order, so `MailboxId(r) == r`; they and
/// the models are shared by `Arc`, since at 100k ranks per-rank copies
/// would be O(p²) memory traffic.
fn build_cluster<'c, M>(
    cluster: &'c ClusterSpec,
    net: Box<dyn NetworkModel>,
    load: Box<dyn LoadModel>,
    faults: FaultSpec<M>,
    options: SimClusterOptions,
) -> (Simulation, impl Iterator<Item = Wire<M>> + 'c)
where
    M: 'c,
{
    let mut sim = Simulation::new();
    if options.trace {
        sim.enable_tracing();
    }
    if options.check_scheduling {
        sim.enable_scheduling_checks();
    }
    sim.set_tie_break(options.tie_break);
    let p = cluster.len();
    let mailboxes: Arc<Vec<MailboxId>> = Arc::new((0..p).map(|_| sim.create_mailbox()).collect());
    let shared = Arc::new(Mutex::new(SharedNet {
        net,
        load,
        faults,
        counters: vec![FaultCounters::default(); p],
        corrupt_salt: 0,
    }));
    let wires = cluster
        .machines()
        .iter()
        .enumerate()
        .map(move |(r, &machine)| Wire {
            rank: Rank(r),
            size: p,
            machine,
            mailboxes: Arc::clone(&mailboxes),
            shared: Arc::clone(&shared),
            rec: None,
        });
    (sim, wires)
}

/// Run the kernel and collect every rank's result, in rank order.
fn collect_results<R>(
    sim: Simulation,
    results: &[ProcessResult<R>],
) -> Result<(Vec<R>, SimReport), SimError> {
    let report = sim.run()?;
    let outs = results
        .iter()
        .map(|pr| pr.take().expect("rank finished without a result"))
        .collect();
    Ok((outs, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimDuration;
    use netsim::{ConstantLatency, SharedMedium, Unloaded};

    #[test]
    fn all_ranks_see_consistent_identity() {
        let cluster = ClusterSpec::homogeneous(4, 10.0);
        let (ids, _) = run_sim_cluster::<(), _, _>(
            &cluster,
            ConstantLatency(SimDuration::ZERO),
            Unloaded,
            false,
            |t| (t.rank().0, t.size()),
        )
        .unwrap();
        assert_eq!(ids, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn compute_time_reflects_machine_speed() {
        // Two machines, 100 and 10 MIPS; both do 1M ops.
        let cluster = ClusterSpec::new(vec![MachineSpec::new(100.0), MachineSpec::new(10.0)]);
        let (times, report) = run_sim_cluster::<(), _, _>(
            &cluster,
            ConstantLatency(SimDuration::ZERO),
            Unloaded,
            false,
            |t| {
                t.compute(1_000_000);
                t.now().as_nanos()
            },
        )
        .unwrap();
        assert_eq!(times[0], 10_000_000); // 10 ms on the fast machine
        assert_eq!(times[1], 100_000_000); // 100 ms on the slow machine
        assert_eq!(report.end_time.as_nanos(), 100_000_000);
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let cluster = ClusterSpec::homogeneous(5, 10.0);
        let (got, _) = run_sim_cluster::<u64, _, _>(
            &cluster,
            ConstantLatency(SimDuration::from_millis(1)),
            Unloaded,
            false,
            |t| {
                t.broadcast(Tag(7), 100 + t.rank().0 as u64);
                let mut from: Vec<(usize, u64, u32)> = (0..t.size() - 1)
                    .map(|_| {
                        let e = t.recv();
                        (e.src.0, e.msg, e.tag.0)
                    })
                    .collect();
                from.sort();
                from
            },
        )
        .unwrap();
        for (me, msgs) in got.iter().enumerate() {
            let expected: Vec<(usize, u64, u32)> = (0..5)
                .filter(|k| *k != me)
                .map(|k| (k, 100 + k as u64, 7))
                .collect();
            assert_eq!(msgs, &expected);
        }
    }

    #[test]
    fn shared_medium_contention_affects_end_time() {
        // All four ranks blast a 10 KB message at rank 0 at t=0; the bus
        // serializes them. 1 MB/s → each takes ~10 ms of bus time.
        let cluster = ClusterSpec::homogeneous(5, 10.0);
        let run = |bw: f64| {
            let (_, report) = run_sim_cluster::<Vec<u8>, _, _>(
                &cluster,
                SharedMedium::new(SimDuration::ZERO, bw),
                Unloaded,
                false,
                |t| {
                    if t.rank().0 == 0 {
                        for _ in 0..4 {
                            let _ = t.recv();
                        }
                    } else {
                        t.send(Rank(0), Tag(0), vec![0u8; 10_000]);
                    }
                },
            )
            .unwrap();
            report.end_time.as_secs_f64()
        };
        let slow = run(1e6);
        let fast = run(1e8);
        assert!(slow > 4.0 * 9e-3, "bus must serialize: {slow}");
        assert!(fast < slow / 10.0, "faster bus must shrink the run");
    }

    #[test]
    fn determinism_of_full_cluster_run() {
        let run = || {
            let cluster = ClusterSpec::paper_model_example();
            let (outs, report) = run_sim_cluster::<(u64, f64), _, _>(
                &cluster,
                SharedMedium::new(SimDuration::from_micros(200), 1.25e6),
                Unloaded,
                false,
                |t| {
                    let mut acc = 0.0f64;
                    for round in 0..5u64 {
                        t.broadcast(Tag(0), (round, t.rank().0 as f64));
                        for _ in 0..t.size() - 1 {
                            acc += t.recv().msg.1;
                        }
                        t.compute(10_000);
                    }
                    (t.now().as_nanos(), acc)
                },
            )
            .unwrap();
            (outs, report.end_time)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn total_loss_drops_every_send_and_counts_them() {
        use netsim::Loss;
        let cluster = ClusterSpec::homogeneous(2, 10.0);
        let (got, _) = run_sim_cluster_with_faults::<u64, _, _>(
            &cluster,
            ConstantLatency(SimDuration::from_millis(1)),
            Unloaded,
            FaultSpec::new(Loss::new(1.0, 1)),
            false,
            |t| {
                if t.rank().0 == 0 {
                    for i in 0..10 {
                        t.send(Rank(1), Tag(0), i);
                    }
                    t.fault_counters().dropped
                } else {
                    // Every send was swallowed: the wait must time out.
                    match t.recv_timeout(SimDuration::from_millis(50)) {
                        Some(_) => 99,
                        None => 0,
                    }
                }
            },
        )
        .unwrap();
        assert_eq!(got, vec![10, 0]);
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        use netsim::Duplicate;
        let cluster = ClusterSpec::homogeneous(2, 10.0);
        let (got, _) = run_sim_cluster_with_faults::<u64, _, _>(
            &cluster,
            ConstantLatency(SimDuration::from_millis(1)),
            Unloaded,
            FaultSpec::new(Duplicate::new(1.0, 3)),
            false,
            |t| {
                if t.rank().0 == 0 {
                    t.send(Rank(1), Tag(0), 7);
                    t.fault_counters().duplicated
                } else {
                    let a = t.recv().msg;
                    let b = t
                        .recv_timeout(SimDuration::from_millis(20))
                        .map(|e| e.msg)
                        .unwrap_or(0);
                    let none_after = t.recv_timeout(SimDuration::from_millis(20)).is_none();
                    assert!(none_after, "exactly two copies expected");
                    a + b
                }
            },
        )
        .unwrap();
        assert_eq!(got, vec![1, 14]);
    }

    #[test]
    fn sends_to_a_crashed_destination_are_lost() {
        use netsim::MachineCrash;
        let cluster = ClusterSpec::homogeneous(2, 10.0);
        let crashes = CrashPlan::new(vec![MachineCrash {
            rank: 1,
            at: SimTime::ZERO,
            restart_after: SimDuration::from_millis(10),
        }]);
        let (got, _) = run_sim_cluster_with_faults::<u64, _, _>(
            &cluster,
            ConstantLatency(SimDuration::from_millis(1)),
            Unloaded,
            FaultSpec::<u64>::none().with_crashes(crashes),
            false,
            |t| {
                if t.rank().0 == 0 {
                    t.send(Rank(1), Tag(0), 1); // rank 1 is down: lost
                    t.sleep(SimDuration::from_millis(20));
                    t.send(Rank(1), Tag(0), 2); // back up: delivered
                    t.fault_counters().dropped
                } else {
                    t.recv().msg
                }
            },
        )
        .unwrap();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn recv_timeout_expires_exactly_at_the_deadline() {
        let cluster = ClusterSpec::homogeneous(2, 10.0);
        let (got, _) = run_sim_cluster::<u64, _, _>(
            &cluster,
            ConstantLatency(SimDuration::from_millis(1)),
            Unloaded,
            false,
            |t| {
                if t.rank().0 == 0 {
                    let start = t.now();
                    let out = t.recv_timeout(SimDuration::from_millis(7));
                    assert!(out.is_none());
                    (t.now() - start).as_nanos()
                } else {
                    0
                }
            },
        )
        .unwrap();
        assert_eq!(got[0], 7_000_000);
    }

    #[test]
    fn recv_timeout_wakes_at_the_exact_arrival_time() {
        // Event-driven wait: the receiver must observe the message at its
        // delivery instant (1 ms), not rounded up to a polling quantum of
        // the 50 ms timeout.
        let cluster = ClusterSpec::homogeneous(2, 10.0);
        let (got, _) = run_sim_cluster::<u64, _, _>(
            &cluster,
            ConstantLatency(SimDuration::from_millis(1)),
            Unloaded,
            false,
            |t| {
                if t.rank().0 == 0 {
                    t.send(Rank(1), Tag(0), 42);
                    0
                } else {
                    let start = t.now();
                    let env = t
                        .recv_timeout(SimDuration::from_millis(50))
                        .expect("message should arrive before the timeout");
                    assert_eq!(env.msg, 42);
                    (t.now() - start).as_nanos()
                }
            },
        )
        .unwrap();
        assert_eq!(got[1], 1_000_000);
    }

    #[test]
    fn recv_timeout_handles_sub_quantum_timeouts_exactly() {
        // 10 ns is far below what any polling quantum could resolve; the
        // single-timer wait must still expire at exactly 10 ns.
        let cluster = ClusterSpec::homogeneous(1, 10.0);
        let (got, _) = run_sim_cluster::<u64, _, _>(
            &cluster,
            ConstantLatency(SimDuration::from_millis(1)),
            Unloaded,
            false,
            |t| {
                let start = t.now();
                assert!(t.recv_timeout(SimDuration::from_nanos(10)).is_none());
                (t.now() - start).as_nanos()
            },
        )
        .unwrap();
        assert_eq!(got[0], 10);
    }

    #[test]
    fn recv_timeout_zero_degrades_to_try_recv() {
        let cluster = ClusterSpec::homogeneous(2, 10.0);
        let (got, _) = run_sim_cluster::<u64, _, _>(
            &cluster,
            ConstantLatency(SimDuration::from_millis(1)),
            Unloaded,
            false,
            |t| {
                if t.rank().0 == 0 {
                    t.send(Rank(1), Tag(0), 9);
                    true
                } else {
                    t.sleep(SimDuration::from_millis(5)); // message is now waiting
                    let first = t.recv_timeout(SimDuration::ZERO).map(|e| e.msg);
                    assert_eq!(first, Some(9));
                    let before = t.now();
                    let second = t.recv_timeout(SimDuration::ZERO);
                    // Empty mailbox + zero timeout: no wait, no time passes.
                    second.is_none() && t.now() == before
                }
            },
        )
        .unwrap();
        assert!(got[1]);
    }

    #[test]
    fn no_faults_run_matches_plain_run_bit_for_bit() {
        let run = |with_faults: bool| {
            let cluster = ClusterSpec::paper_model_example();
            let body = |t: &mut SimTransport<'_, '_, (u64, f64)>| {
                let mut acc = 0.0f64;
                for round in 0..5u64 {
                    t.broadcast(Tag(0), (round, t.rank().0 as f64));
                    for _ in 0..t.size() - 1 {
                        acc += t.recv().msg.1;
                    }
                    t.compute(10_000);
                }
                (t.now().as_nanos(), acc)
            };
            let net = SharedMedium::new(SimDuration::from_micros(200), 1.25e6);
            let (outs, report) = if with_faults {
                run_sim_cluster_with_faults::<(u64, f64), _, _>(
                    &cluster,
                    net,
                    Unloaded,
                    FaultSpec::none(),
                    false,
                    body,
                )
                .unwrap()
            } else {
                run_sim_cluster::<(u64, f64), _, _>(&cluster, net, Unloaded, false, body).unwrap()
            };
            (outs, report.end_time)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn default_options_match_plain_faulted_run_bit_for_bit() {
        let body = |t: &mut SimTransport<'_, '_, (u64, f64)>| {
            let mut acc = 0.0f64;
            for round in 0..4u64 {
                t.broadcast(Tag(0), (round, t.rank().0 as f64));
                for _ in 0..t.size() - 1 {
                    acc += t.recv().msg.1;
                }
                t.compute(5_000);
            }
            (t.now().as_nanos(), acc)
        };
        let run = |with_options: bool| {
            let cluster = ClusterSpec::homogeneous(4, 10.0);
            let net = SharedMedium::new(SimDuration::from_micros(100), 2e6);
            let (outs, report) = if with_options {
                run_sim_cluster_with_options::<(u64, f64), _, _>(
                    &cluster,
                    net,
                    Unloaded,
                    FaultSpec::none(),
                    SimClusterOptions::default(),
                    body,
                )
                .unwrap()
            } else {
                run_sim_cluster_with_faults::<(u64, f64), _, _>(
                    &cluster,
                    net,
                    Unloaded,
                    FaultSpec::none(),
                    false,
                    body,
                )
                .unwrap()
            };
            (outs, report.end_time)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn seeded_tiebreak_runs_are_reproducible() {
        let run = |salt: u64| {
            let cluster = ClusterSpec::homogeneous(4, 10.0);
            let (outs, report) = run_sim_cluster_with_options::<u64, _, _>(
                &cluster,
                ConstantLatency(SimDuration::from_millis(1)),
                Unloaded,
                FaultSpec::none(),
                SimClusterOptions {
                    tie_break: TieBreak::Seeded(salt),
                    ..SimClusterOptions::default()
                },
                |t| {
                    // Every rank broadcasts at t=0: all deliveries are
                    // simultaneous, so the tie-break decides their order.
                    t.broadcast(Tag(0), t.rank().0 as u64);
                    (0..t.size() - 1).map(|_| t.recv().msg).sum::<u64>()
                },
            )
            .unwrap();
            (outs, report.end_time)
        };
        assert_eq!(run(3), run(3), "same salt must reproduce exactly");
        // Sums are order-independent, so even reordered deliveries agree.
        assert_eq!(run(3).0, run(4).0);
    }

    #[test]
    fn stackless_cluster_matches_threaded_bit_for_bit() {
        // The same workload — broadcasts, contended medium, compute, timed
        // receives — on thread-backed and async ranks must produce
        // identical results, end times, and kernel counters.
        let cluster = ClusterSpec::paper_model_example();
        let net = || SharedMedium::new(SimDuration::from_micros(200), 1.25e6);
        let threaded = run_sim_cluster::<(u64, f64), _, _>(
            &cluster,
            net(),
            Unloaded,
            false,
            |t: &mut SimTransport<'_, '_, (u64, f64)>| {
                let mut acc = 0.0f64;
                for round in 0..5u64 {
                    t.broadcast(Tag(0), (round, t.rank().0 as f64));
                    for _ in 0..t.size() - 1 {
                        acc += t.recv().msg.1;
                    }
                    t.compute(10_000);
                }
                // All messages are consumed: this exercises the timer path
                // and must expire at exactly +50 us on both front-ends.
                assert!(t.recv_timeout(SimDuration::from_micros(50)).is_none());
                (t.now().as_nanos(), acc)
            },
        )
        .unwrap();
        let stackless = run_sim_proc_cluster::<(u64, f64), _, _, _>(
            &cluster,
            net(),
            Unloaded,
            false,
            |mut t| async move {
                use crate::transport::AsyncTransport;
                let mut acc = 0.0f64;
                for round in 0..5u64 {
                    t.broadcast(Tag(0), (round, t.rank().0 as f64)).await;
                    for _ in 0..t.size() - 1 {
                        acc += t.recv().await.msg.1;
                    }
                    t.compute(10_000).await;
                }
                assert!(t.recv_timeout(SimDuration::from_micros(50)).await.is_none());
                (t.now().as_nanos(), acc)
            },
        )
        .unwrap();
        assert_eq!(threaded.0, stackless.0);
        assert_eq!(threaded.1, stackless.1);
    }

    #[test]
    fn stackless_cluster_supports_faults_and_scheduling_checks() {
        use netsim::Loss;
        let cluster = ClusterSpec::homogeneous(2, 10.0);
        let (got, _) = run_sim_proc_cluster_with_options::<u64, _, _, _>(
            &cluster,
            ConstantLatency(SimDuration::from_millis(1)),
            Unloaded,
            FaultSpec::new(Loss::new(1.0, 1)),
            SimClusterOptions {
                check_scheduling: true,
                ..SimClusterOptions::default()
            },
            |mut t| async move {
                use crate::transport::AsyncTransport;
                if t.rank().0 == 0 {
                    for i in 0..10 {
                        t.send(Rank(1), Tag(0), i).await;
                    }
                    t.fault_counters().dropped
                } else {
                    match t.recv_timeout(SimDuration::from_millis(50)).await {
                        Some(_) => 99,
                        None => 0,
                    }
                }
            },
        )
        .unwrap();
        assert_eq!(got, vec![10, 0]);
    }

    #[test]
    fn rank_closure_error_propagates() {
        let cluster = ClusterSpec::homogeneous(2, 10.0);
        let res = run_sim_cluster::<(), _, _>(
            &cluster,
            ConstantLatency(SimDuration::ZERO),
            Unloaded,
            false,
            |t| {
                if t.rank().0 == 1 {
                    panic!("rank 1 exploded");
                }
                t.recv(); // rank 0 waits forever
            },
        );
        match res {
            Err(SimError::ProcessPanicked { name, message }) => {
                assert_eq!(name, "rank1");
                assert!(message.contains("exploded"));
            }
            other => panic!("expected panic, got {:?}", other.map(|(r, _)| r)),
        }
    }
}
