//! The synchronous-iterative execution drivers.
//!
//! [`run_baseline`] implements the paper's Figure 1: broadcast the
//! partition, block for every peer's values, compute. [`run_speculative`]
//! implements Figure 3 generalized to any forward window: missing inputs are
//! speculated from history, computation proceeds immediately, and arriving
//! actuals either validate the speculation (error ≤ θ), trigger an
//! incremental correction, or — when deeper speculation consumed the
//! corrupted state — roll execution back to the last confirmed checkpoint.
//!
//! ## Send-on-confirm semantics
//!
//! A rank broadcasts `X_j(t)` only once iteration `t-1` is *confirmed*
//! (every input it used was actual or validated). This matches Figure 3,
//! where the values sent at the top of an iteration were already corrected,
//! and keeps the protocol sound for FW ≥ 2: nothing tentative ever crosses
//! the network, so a misspeculation never cascades to other ranks. Forward
//! speculation still masks delays because by the time a late message
//! arrives and validates, the next iterations are already computed and
//! their broadcasts leave back-to-back (the paper's Figure 4c behaviour).

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use desim::{SimDuration, SimTime};
use mpk::{DeltaFrame, Envelope, Rank, Tag, Transport, WireCodec, WireSize, HEADER_BYTES};
use netsim::MachineCrash;
use obs::{Gauge, Mark, Phase};

use crate::app::SpeculativeApp;
use crate::config::{CorrectionMode, DeltaExchange, FaultTolerance, SpecConfig, SupervisionConfig};
use crate::control::ControllerState;
use crate::history::History;
use crate::stats::{IterationLog, PhaseBreakdown, RunStats};

/// Wire discriminant for delta frames: the top bit of the iteration stamp.
/// Iteration counts never approach 2^63, so full frames — whose encoding
/// must stay byte-identical to the pre-delta protocol — always have it
/// clear.
const DELTA_BIT: u64 = 1 << 63;

/// The message every rank broadcasts each iteration: either its full
/// partition snapshot or a sparse [`DeltaFrame`] against the receiver's
/// shadow, stamped with the iteration it belongs to.
#[derive(Clone, Debug, PartialEq)]
pub struct IterMsg<S> {
    /// Which iteration's `X_j` this is.
    pub iter: u64,
    /// Full snapshot or sparse delta.
    pub body: MsgBody<S>,
}

/// Payload of an [`IterMsg`].
#[derive(Clone, Debug, PartialEq)]
pub enum MsgBody<S> {
    /// The complete partition snapshot (the only body before delta
    /// exchange; still used for keyframes, retransmissions and recovery).
    Full(S),
    /// Scalar lanes that moved past the quantization floor since the
    /// previous frame to the same peer. Applies only on top of the
    /// immediately preceding iteration's reconstruction.
    Delta(DeltaFrame),
}

impl<S> IterMsg<S> {
    /// A full-snapshot message.
    pub fn full(iter: u64, data: S) -> Self {
        debug_assert!(iter & DELTA_BIT == 0, "iteration stamp overflows wire tag");
        IterMsg {
            iter,
            body: MsgBody::Full(data),
        }
    }

    /// A delta-frame message.
    pub fn delta(iter: u64, frame: DeltaFrame) -> Self {
        debug_assert!(iter & DELTA_BIT == 0, "iteration stamp overflows wire tag");
        IterMsg {
            iter,
            body: MsgBody::Delta(frame),
        }
    }
}

impl<S: WireSize> WireSize for IterMsg<S> {
    fn wire_size(&self) -> usize {
        8 + match &self.body {
            MsgBody::Full(data) => data.wire_size(),
            MsgBody::Delta(frame) => frame.wire_size(),
        }
    }
}

/// The real encoding matches the [`WireSize`] model above byte-for-byte,
/// so socket runs put exactly the modelled payload on the wire. Full
/// frames encode exactly as the pre-delta `IterMsg` did (iteration stamp,
/// then payload); delta frames set [`DELTA_BIT`] in the stamp.
impl<S: WireCodec> WireCodec for IterMsg<S> {
    fn encode(&self, out: &mut Vec<u8>) {
        match &self.body {
            MsgBody::Full(data) => {
                self.iter.encode(out);
                data.encode(out);
            }
            MsgBody::Delta(frame) => {
                (self.iter | DELTA_BIT).encode(out);
                frame.encode(out);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let stamp = u64::decode(buf)?;
        if stamp & DELTA_BIT == 0 {
            Some(IterMsg::full(stamp, S::decode(buf)?))
        } else {
            Some(IterMsg::delta(stamp & !DELTA_BIT, DeltaFrame::decode(buf)?))
        }
    }
}

/// Tag used for iteration data messages.
pub const DATA_TAG: Tag = Tag(1);

/// Tag used for retransmit requests. The request's payload is the
/// *requester's* latest broadcast (so even the request refreshes the
/// receiver's view of the requester); the reply is an ordinary
/// [`DATA_TAG`] re-send of the receiver's latest broadcast, which doubles
/// as the acknowledgement.
pub const RETRANS_REQ_TAG: Tag = Tag(2);

enum InputSlot<S> {
    /// Received actual value was used.
    Actual,
    /// Speculated, later validated or corrected.
    Validated,
    /// Speculated with this value; awaiting the actual.
    Speculated(S),
}

struct ExecRecord<S, C> {
    iter: u64,
    /// App state snapshot taken before executing this iteration.
    pre: C,
    /// `X_j(iter + 1)`, extracted right after execution (kept up to date
    /// through incremental corrections).
    produced: S,
    /// Input provenance per rank (own rank marked `Validated`).
    inputs: Vec<InputSlot<S>>,
}

/// Loss-detection state for one peer's missing input to the queue-head
/// iteration. Promotion of a speculated value to a committed one is
/// evidence-based: a peer that demonstrably broadcast *past* the front
/// (links deliver in order on calm networks, so the front's message
/// cannot still be in flight) is promoted at its first deadline; a peer
/// that has merely gone quiet is asked to retransmit first, and only a
/// second full timeout of silence — which itself consumed a lost request
/// or reply — promotes. This keeps merely-late broadcasts from being
/// promoted and ties every promotion to at least one genuinely dropped
/// message.
#[derive(Clone, Copy)]
enum PeerWait {
    /// Waiting for the peer's broadcast to arrive on its own.
    Armed {
        /// When this wait (re-)started.
        since: SimTime,
    },
    /// A retransmit request is in flight; waiting for any sign of life.
    Grace {
        /// When the request was sent.
        asked_at: SimTime,
    },
}

impl PeerWait {
    /// The instant this wait started counting toward its deadline.
    fn started(self) -> SimTime {
        match self {
            PeerWait::Armed { since } => since,
            PeerWait::Grace { asked_at } => asked_at,
        }
    }
}

/// Per-peer health in the supervision lifecycle.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PeerHealth {
    /// Contributing normally.
    Healthy,
    /// Too many consecutive promotions; may be dead.
    Suspected,
    /// Given up on: its partition is carried by speculation alone, with no
    /// loss timeout spent on it, until it is heard from again.
    Quarantined,
}

/// Driver-side supervision: per-peer health derived from the
/// consecutive-promotion staleness counters, plus the degraded-mode
/// population count. Exists only when the config sets both a
/// fault-tolerance policy and a supervision policy.
struct SupervisionState {
    cfg: SupervisionConfig,
    health: Vec<PeerHealth>,
    quarantined: usize,
}

impl SupervisionState {
    fn new(cfg: SupervisionConfig, p: usize) -> Self {
        SupervisionState {
            cfg,
            health: vec![PeerHealth::Healthy; p],
            quarantined: 0,
        }
    }

    fn is_quarantined(&self, k: usize) -> bool {
        self.health[k] == PeerHealth::Quarantined
    }

    /// Re-derive peer `k`'s health from its consecutive-promotion count.
    /// One step per call (the sweep runs every loop pass, so a count past
    /// both thresholds quarantines on the next pass). Returns
    /// (newly suspected, newly quarantined, entered degraded mode).
    fn observe(&mut self, k: usize, staleness: u32) -> (bool, bool, bool) {
        match self.health[k] {
            PeerHealth::Healthy if staleness >= self.cfg.suspect_after => {
                self.health[k] = PeerHealth::Suspected;
                (true, false, false)
            }
            PeerHealth::Suspected if staleness >= self.cfg.quarantine_after => {
                self.health[k] = PeerHealth::Quarantined;
                self.quarantined += 1;
                (false, true, self.quarantined == 1)
            }
            _ => (false, false, false),
        }
    }

    /// The peer spoke. Returns (readmitted from quarantine, left degraded
    /// mode).
    fn on_heard(&mut self, k: usize) -> (bool, bool) {
        let was_quarantined = self.health[k] == PeerHealth::Quarantined;
        self.health[k] = PeerHealth::Healthy;
        if was_quarantined {
            self.quarantined -= 1;
            (true, self.quarantined == 0)
        } else {
            (false, false)
        }
    }
}

/// All fault-tolerance state: loss detection, staleness, crash schedule,
/// the retransmit payload, and supervision. Exists only when the config
/// sets a [`FaultTolerance`] policy.
struct FaultState<S> {
    loss_timeout: SimDuration,
    staleness_budget: u32,
    /// Peer supervision rides on the loss-promotion counters, so it lives
    /// here and only exists when fault tolerance is on too.
    sup: Option<SupervisionState>,
    /// Latest state this rank put on the wire, re-sent on retransmit
    /// requests and after crash recovery.
    last_broadcast: (u64, S),
    /// Consecutive speculate-through-loss promotions per peer since its
    /// last heard-from message.
    staleness: Vec<u32>,
    /// The queue-head iteration whose missing inputs are being tracked;
    /// `peer_wait` is meaningful only while this matches the front.
    front_tracked: Option<u64>,
    /// Per-peer loss-detection state for the tracked front iteration.
    peer_wait: Vec<Option<PeerWait>>,
    /// Virtual time each peer last delivered anything (any tag).
    last_heard: Vec<SimTime>,
    /// (peer, iteration) pairs whose loss promotion was already counted.
    promoted: HashSet<(usize, u64)>,
    /// When the rank first found itself with nothing in flight and nothing
    /// executable (starved — e.g. iteration 0 under loss, before any
    /// history exists to extrapolate from).
    starved_since: Option<SimTime>,
    /// This rank's own scripted outages, in schedule order.
    crashes: Vec<MachineCrash>,
    next_crash: usize,
}

impl<S: Clone> FaultState<S> {
    fn new(ft: &FaultTolerance, sup: Option<SupervisionConfig>, me: Rank, p: usize, s: S) -> Self {
        let mut crashes: Vec<_> = ft
            .crashes
            .iter()
            .filter(|c| c.rank == me.0)
            .copied()
            .collect();
        crashes.sort_by_key(|c| c.at);
        FaultState {
            loss_timeout: ft.loss_timeout,
            staleness_budget: ft.staleness_budget,
            sup: sup.map(|s| SupervisionState::new(s, p)),
            last_broadcast: (0, s),
            staleness: vec![0; p],
            front_tracked: None,
            peer_wait: vec![None; p],
            last_heard: vec![SimTime::ZERO; p],
            promoted: HashSet::new(),
            starved_since: None,
            crashes,
            next_crash: 0,
        }
    }

    /// Peer `k`'s loss deadline: the controller's adaptive delay quantile
    /// × headroom (clamped to never exceed the static timeout), or the
    /// static timeout while the controller lacks samples or is off.
    fn loss_deadline(&self, k: usize, ctl: Option<&ControlLoop>) -> SimDuration {
        ctl.and_then(|c| c.state.deadline_for(k))
            .unwrap_or(self.loss_timeout)
    }

    /// The earliest instant something is due: a missing peer's loss
    /// deadline (armed or in grace), the starvation timeout, or this
    /// rank's next scripted crash.
    fn next_deadline(&self, ctl: Option<&ControlLoop>) -> Option<SimTime> {
        let waits = self
            .peer_wait
            .iter()
            .enumerate()
            .filter_map(|(k, w)| Some(w.as_ref()?.started() + self.loss_deadline(k, ctl)));
        let starved = self.starved_since.map(|s| s + self.loss_timeout);
        let crash = self.crashes.get(self.next_crash).map(|c| c.at);
        waits.chain(starved).chain(crash).min()
    }

    /// Flip peer `k`'s speculated input to the front record into a
    /// committed one. Counted in the stats only the first time this (peer,
    /// iteration) pair promotes — a rollback can make the same slot
    /// speculative again, and re-flipping it is not a second loss. Returns
    /// whether this promotion was freshly counted.
    fn promote<C>(
        &mut self,
        k: usize,
        rec: &mut ExecRecord<S, C>,
        history: &mut History<S>,
        stats: &mut RunStats,
    ) -> bool {
        self.peer_wait[k] = None;
        let sv = match std::mem::replace(&mut rec.inputs[k], InputSlot::Validated) {
            InputSlot::Speculated(s) => s,
            _ => unreachable!("promotion of a non-speculated slot"),
        };
        // Recording the promoted value keeps the backward window anchored
        // (a late actual for the same iteration is ignored by the
        // history's freshness guard, so the promotion is final); on a
        // re-promotion after rollback the same guard makes this a no-op.
        history.record(rec.iter, sv);
        self.count_loss(k, rec.iter, stats)
    }

    /// Count peer `k`'s input to `iter` as lost, once per (peer,
    /// iteration) pair. Returns whether it was freshly counted.
    fn count_loss(&mut self, k: usize, iter: u64, stats: &mut RunStats) -> bool {
        let fresh = self.promoted.insert((k, iter));
        if fresh {
            stats.speculate_through_loss_commits += 1;
            self.staleness[k] += 1;
        }
        fresh
    }
}

/// The adaptive controller plus the cumulative counters it reads deltas
/// from at each confirmation. Exists only when the config attaches a
/// controller.
struct ControlLoop {
    state: ControllerState,
    /// Busy-time (compute + speculate + check + correct) high-water mark
    /// at the previous confirmation, so each confirm feeds the controller
    /// only the interval's own busy time.
    busy_at_confirm: SimDuration,
    missed_at_confirm: u64,
    checked_at_confirm: u64,
    waited_since_confirm: SimDuration,
}

/// All per-run delta-exchange state. Exists only when the config asked
/// for deltas *and* the app exposes scalar lanes; otherwise every frame
/// is a full snapshot.
struct DeltaState<S> {
    policy: DeltaExchange,
    /// Per-peer sender shadow: the scalar lanes that peer has
    /// reconstructed from our stream (diff baseline). `None` until the
    /// first full frame to that peer.
    tx_shadow: Vec<Option<Vec<f64>>>,
    /// Per-sender receiver shadow: `(iter, reconstruction)` of the
    /// newest frame applied from that sender.
    rx_shadow: Vec<Option<(u64, S)>>,
    /// Highest iteration stamp seen on *any* frame from each peer —
    /// including delta frames dropped over a gap, which prove the peer
    /// advanced even though no value could be recorded. Feeds the
    /// loss-promotion evidence check alongside the history.
    seen_past: Vec<Option<u64>>,
    /// Scratch: current partition flattened to scalar lanes.
    cur: Vec<f64>,
    /// Scratch: the frame being diffed for the peer in progress.
    frame: DeltaFrame,
}

impl<S: Clone> DeltaState<S> {
    fn new(policy: DeltaExchange, p: usize) -> Self {
        DeltaState {
            policy,
            tx_shadow: (0..p).map(|_| None).collect(),
            rx_shadow: (0..p).map(|_| None).collect(),
            seen_past: vec![None; p],
            cur: Vec::new(),
            frame: DeltaFrame::new(),
        }
    }

    /// Forget everything volatile (crash recovery): shadows on both sides
    /// and the advancement evidence. The next frame to every peer will be
    /// a full keyframe, and peers' next full frames re-seed our receiver
    /// shadows.
    fn reset(&mut self) {
        self.tx_shadow.iter_mut().for_each(|s| *s = None);
        self.rx_shadow.iter_mut().for_each(|s| *s = None);
        self.seen_past.iter_mut().for_each(|s| *s = None);
    }

    /// Reset peer `to`'s sender shadow to `data`, which is about to go out
    /// as a full frame, so that peer's stream restarts from a known
    /// baseline.
    fn rebase<A: SpeculativeApp<Shared = S>>(&mut self, app: &A, to: usize, data: &S) {
        let capable = app.delta_extract(data, &mut self.cur);
        debug_assert!(capable, "delta policy active on a non-capable app");
        let shadow = self.tx_shadow[to].get_or_insert_with(Vec::new);
        shadow.clear();
        shadow.extend_from_slice(&self.cur);
    }

    /// Reconstruct one received frame's value. Full frames re-seed the
    /// receiver shadow; a delta frame patches it, but only when it extends
    /// it by exactly one iteration — duplicates and gap frames yield
    /// `None` and leave the shadow untouched.
    fn receive<A: SpeculativeApp<Shared = S>>(
        &mut self,
        app: &A,
        src: usize,
        iter: u64,
        body: MsgBody<S>,
    ) -> Option<S> {
        match &mut self.seen_past[src] {
            Some(sp) => *sp = (*sp).max(iter),
            sp => *sp = Some(iter),
        }
        match body {
            MsgBody::Full(data) => {
                // Never regress the shadow: a stale (reordered or
                // duplicated) full frame must not break the chain the
                // newer deltas continue from.
                match &self.rx_shadow[src] {
                    Some((si, _)) if *si > iter => {}
                    _ => self.rx_shadow[src] = Some((iter, data.clone())),
                }
                Some(data)
            }
            MsgBody::Delta(frame) => match self.rx_shadow[src].take() {
                Some((si, base)) if si + 1 == iter => {
                    let next = app
                        .delta_patch(&base, &frame.entries)
                        .expect("delta frame for a non-delta-capable app");
                    self.rx_shadow[src] = Some((iter, next.clone()));
                    Some(next)
                }
                other => {
                    self.rx_shadow[src] = other;
                    None
                }
            },
        }
    }
}

/// The transport plus this rank's telemetry identity. Every message the
/// driver sends and every span, mark and gauge it records goes through
/// here.
struct Io<'r, T> {
    transport: &'r mut T,
    rank: u32,
}

impl<T: mpk::AsyncTransport> Io<'_, T> {
    fn now(&self) -> SimTime {
        self.transport.now()
    }

    fn mark(&mut self, at: SimTime, mark: Mark) {
        if let Some(r) = self.transport.recorder() {
            r.mark(self.rank, at.as_nanos(), mark);
        }
    }

    fn gauge(&mut self, at: SimTime, gauge: Gauge, value: u64) {
        if let Some(r) = self.transport.recorder() {
            r.gauge(self.rank, at.as_nanos(), gauge, value);
        }
    }

    fn span(
        &mut self,
        t0: SimTime,
        t1: SimTime,
        phase: Phase,
        iter: Option<u64>,
        depth: Option<u64>,
    ) {
        if let Some(r) = self.transport.recorder() {
            r.span_begin(self.rank, t0.as_nanos(), phase, iter, depth);
            r.span_end(self.rank, t1.as_nanos(), phase);
        }
    }

    /// Send one message, keeping the modelled byte/message tallies.
    async fn send<S: WireSize>(&mut self, stats: &mut RunStats, to: Rank, tag: Tag, msg: IterMsg<S>)
    where
        T: mpk::AsyncTransport<Msg = IterMsg<S>>,
    {
        stats.bytes_sent += (HEADER_BYTES + msg.wire_size()) as u64;
        stats.messages_sent += 1;
        self.transport.send(to, tag, msg).await;
    }
}

/// The virtual-time accumulator of `phase` in `phases`.
fn phase_time(phases: &mut PhaseBreakdown, phase: Phase) -> &mut SimDuration {
    match phase {
        Phase::Compute => &mut phases.compute,
        Phase::CommWait => &mut phases.comm_wait,
        Phase::Speculate => &mut phases.speculate,
        Phase::Check => &mut phases.check,
        Phase::Correct => &mut phases.correct,
    }
}

/// What a scripted crash did to this pass of the protocol loop.
enum Crash {
    /// No crash was due.
    None,
    /// The rank went down, slept through its outage, and restarted from
    /// its confirmed checkpoint.
    Restarted,
    /// The rank went down for good.
    Permanent,
}

/// Run the non-speculative baseline (the paper's Figure 1) for
/// `total_iters` iterations.
pub fn run_baseline<T, A>(transport: &mut T, app: &mut A, total_iters: u64) -> RunStats
where
    A: SpeculativeApp,
    A::Shared: WireSize,
    T: Transport<Msg = IterMsg<A::Shared>>,
{
    run_speculative(transport, app, total_iters, SpecConfig::baseline())
}

/// The `async` twin of [`run_baseline`]: the non-speculative Figure 1
/// protocol on any [`mpk::AsyncTransport`].
pub async fn run_baseline_aio<T, A>(transport: &mut T, app: &mut A, total_iters: u64) -> RunStats
where
    A: SpeculativeApp,
    A::Shared: WireSize,
    T: mpk::AsyncTransport<Msg = IterMsg<A::Shared>>,
{
    run_speculative_aio(transport, app, total_iters, SpecConfig::baseline()).await
}

/// Drive to completion a future that never suspends.
///
/// The blanket `AsyncTransport` impl for blocking transports performs every
/// operation inline, so `run_speculative_aio`'s future over such a
/// transport resolves on its first poll — this is the entire "executor"
/// the sync entry points need. `Pending` here would mean the future
/// awaited something other than a blocking transport operation, which is a
/// driver bug, not a caller error.
fn poll_ready<F: std::future::Future>(fut: F) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    let mut cx = std::task::Context::from_waker(std::task::Waker::noop());
    match fut.as_mut().poll(&mut cx) {
        std::task::Poll::Ready(v) => v,
        std::task::Poll::Pending => unreachable!("blocking transport returned Pending"),
    }
}

/// Run the speculative driver (the paper's Figure 3, generalized over
/// forward windows) for `total_iters` iterations.
///
/// The body is [`run_speculative_aio`]; on a blocking [`Transport`] the
/// async form completes in one poll, so this wrapper is zero-cost and
/// bit-identical to the historical synchronous driver.
pub fn run_speculative<T, A>(
    transport: &mut T,
    app: &mut A,
    total_iters: u64,
    config: SpecConfig,
) -> RunStats
where
    A: SpeculativeApp,
    A::Shared: WireSize,
    T: Transport<Msg = IterMsg<A::Shared>>,
{
    poll_ready(run_speculative_aio(transport, app, total_iters, config))
}

/// The `async` speculative driver: [`run_speculative`]'s actual body,
/// written once against [`mpk::AsyncTransport`].
///
/// On a blocking transport (every [`Transport`], via the blanket impl)
/// the returned future completes on its first poll — which is exactly how
/// the sync entry points drive it, no executor involved. On
/// [`mpk::SimIo`] each `.await` suspends the rank's state machine into
/// the `desim` event kernel, so thousands of ranks run the identical
/// driver code on one OS thread.
///
/// The loop is the paper's Figure 3 plus the named extensions; each step
/// is one method of the rank's private `RankState`.
pub async fn run_speculative_aio<T, A>(
    transport: &mut T,
    app: &mut A,
    total_iters: u64,
    config: SpecConfig,
) -> RunStats
where
    A: SpeculativeApp,
    A::Shared: WireSize,
    T: mpk::AsyncTransport<Msg = IterMsg<A::Shared>>,
{
    config
        .validate()
        .expect("invalid SpecConfig reached the driver");
    let mut rank = RankState::new(transport, app, total_iters, &config);
    if total_iters == 0 {
        rank.stats.total_time = rank.io.now() - rank.start;
        return rank.stats;
    }
    let initial = rank.app.shared();
    rank.broadcast(0, initial).await;
    while rank.t_conf < total_iters {
        // Fold in everything that has arrived.
        while let Some(env) = rank.io.transport.try_recv().await {
            rank.fold_arrival(env).await;
        }
        // Fault tolerance: scripted crashes, then speculate-through-loss
        // promotion of the stuck queue head and the supervision sweep.
        match rank.recover_crash().await {
            Crash::None => {}
            Crash::Restarted => continue,
            Crash::Permanent => break,
        }
        rank.detect_loss().await;
        rank.supervise();
        rank.sample_inbox_depth();
        // Check, correct or roll back, and commit the oldest unconfirmed
        // iteration.
        if rank.confirm_front().await {
            continue;
        }
        // Execute the next iteration if the forward window allows it.
        if rank.execute_next().await {
            continue;
        }
        // Nothing to compute: block for the next message or deadline.
        if let Some(env) = rank.wait().await {
            rank.fold_arrival(env).await;
        }
    }
    rank.stats.messages_lost = rank.io.transport.fault_counters().dropped;
    rank.stats.total_time = rank.io.now() - rank.start;
    rank.stats
}

/// One rank's driver state. The protocol steps of
/// [`run_speculative_aio`] are its methods; each opt-in subsystem's state
/// is an `Option` that is `None` exactly when the subsystem is off, so an
/// unconfigured subsystem has no state to consult.
struct RankState<'r, T, A: SpeculativeApp> {
    io: Io<'r, T>,
    app: &'r mut A,
    total_iters: u64,
    me: Rank,
    p: usize,
    start: SimTime,
    stats: RunStats,
    /// The forward window in force (the controller retunes it).
    window: u32,
    backward_window: usize,
    correction: CorrectionMode,
    /// Actual values received, keyed by iteration then sender.
    inbox: BTreeMap<u64, HashMap<usize, A::Shared>>,
    /// Per-peer history of actuals (the backward window).
    history: Vec<History<A::Shared>>,
    /// Executed-but-unconfirmed iterations, oldest first.
    exec_q: VecDeque<ExecRecord<A::Shared, A::Checkpoint>>,
    /// Recycled checkpoint buffers: confirmed (or rolled-back) records
    /// donate their `pre` snapshots back, so apps that override
    /// `checkpoint_into` keep the steady-state path allocation-free. Depth
    /// is bounded by the forward window, so the pool never grows past it.
    checkpoint_pool: Vec<A::Checkpoint>,
    /// Next iteration to confirm.
    t_conf: u64,
    /// Next iteration to execute.
    t_exec: u64,
    // Gauge change-detection (gauges are sampled only when their value
    // moves, to keep traces compact).
    last_inbox_depth: Option<u64>,
    last_window: Option<u64>,
    fault: Option<FaultState<A::Shared>>,
    ctl: Option<ControlLoop>,
    dx: Option<DeltaState<A::Shared>>,
    /// Per-iteration timing records awaiting confirmation, when the
    /// iteration log is on.
    log_pending: Option<HashMap<u64, IterationLog>>,
}

impl<'r, T, A> RankState<'r, T, A>
where
    A: SpeculativeApp,
    A::Shared: WireSize,
    T: mpk::AsyncTransport<Msg = IterMsg<A::Shared>>,
{
    fn new(transport: &'r mut T, app: &'r mut A, total_iters: u64, config: &SpecConfig) -> Self {
        let me = transport.rank();
        let p = transport.size();
        let start = transport.now();
        let bw = config.backward_window.max(1);
        let fault = config
            .fault
            .as_ref()
            .map(|ft| FaultState::new(ft, config.supervision, me, p, app.shared()));
        let ctl = config.controller.clone().map(|cc| ControlLoop {
            state: ControllerState::new(cc, p, config.forward_window),
            busy_at_confirm: SimDuration::ZERO,
            missed_at_confirm: 0,
            checked_at_confirm: 0,
            waited_since_confirm: SimDuration::ZERO,
        });
        let dx = config.delta.and_then(|pol| {
            let mut dx = DeltaState::new(pol, p);
            let probe = app.shared();
            app.delta_extract(&probe, &mut dx.cur).then_some(dx)
        });
        RankState {
            io: Io {
                transport,
                rank: me.0 as u32,
            },
            app,
            total_iters,
            me,
            p,
            start,
            stats: RunStats::new(me),
            window: config.forward_window,
            backward_window: bw,
            correction: config.correction,
            inbox: BTreeMap::new(),
            history: (0..p).map(|_| History::new(bw)).collect(),
            exec_q: VecDeque::new(),
            checkpoint_pool: Vec::new(),
            t_conf: 0,
            t_exec: 0,
            last_inbox_depth: None,
            last_window: None,
            fault,
            ctl,
            dx,
            log_pending: config.collect_log.then(HashMap::new),
        }
    }

    /// Fold one arrival into the rank's view: controller arrival
    /// statistics, the peer's liveness (staleness reset, readmission from
    /// quarantine, retransmit replies), then the inbox and history.
    async fn fold_arrival(&mut self, env: Envelope<IterMsg<A::Shared>>) {
        let now = self.io.now();
        let src = env.src;
        if let Some(c) = &mut self.ctl {
            c.state.on_receive(src.0, now);
        }
        if let Some(f) = &mut self.fault {
            f.staleness[src.0] = 0;
            f.last_heard[src.0] = now;
            let (rejoined, degraded_exit) = match &mut f.sup {
                Some(sv) => sv.on_heard(src.0),
                None => (false, false),
            };
            if rejoined {
                // Readmission: forget the receive-side delta view of the
                // peer (its stream must restart from a keyframe) and ship
                // it our full state so its backward window re-seeds at
                // once. The keyframe doubles as the retransmit reply.
                self.stats.peer_rejoins += 1;
                if let Some(dx) = &mut self.dx {
                    dx.rx_shadow[src.0] = None;
                    dx.seen_past[src.0] = None;
                }
                self.io.mark(now, Mark::PeerRejoined { peer: src.0 as u32 });
                if degraded_exit {
                    self.io.mark(now, Mark::DegradedExit);
                }
                self.send_full_state(src, DATA_TAG).await;
            } else if env.tag == RETRANS_REQ_TAG {
                // Re-send our latest broadcast; re-delivery is the ack.
                self.send_full_state(src, DATA_TAG).await;
            }
        }
        stash(
            &*self.app,
            self.dx.as_mut(),
            env,
            self.t_conf,
            &mut self.inbox,
            &mut self.history,
            &mut self.stats,
        );
    }

    /// Act on this rank's next scripted crash if it is due. A restart
    /// loses all volatile state and resumes from the last confirmed
    /// checkpoint (the confirmed prefix `[0, t_conf)` is durable — it was
    /// validated and broadcast before the crash).
    async fn recover_crash(&mut self) -> Crash {
        let Some(f) = &mut self.fault else {
            return Crash::None;
        };
        let now = self.io.now();
        let Some(&c) = f.crashes.get(f.next_crash).filter(|c| now >= c.at) else {
            return Crash::None;
        };
        f.next_crash += 1;
        if c.is_permanent() {
            // The machine never comes back. The confirmed prefix stands;
            // peers quarantine this rank and finish in degraded mode,
            // carrying its partition by speculation.
            self.io.mark(c.at, Mark::PeerCrashed { peer: self.io.rank });
            return Crash::Permanent;
        }
        self.stats.peer_restarts += 1;
        f.staleness.fill(0);
        f.front_tracked = None;
        f.peer_wait.fill(None);
        f.starved_since = None;
        self.rewind();
        self.inbox.clear();
        for h in &mut self.history {
            *h = History::new(self.backward_window);
        }
        if let Some(dx) = &mut self.dx {
            dx.reset();
        }
        self.io.mark(c.at, Mark::PeerCrashed { peer: self.io.rank });
        self.io.gauge(c.at, Gauge::ExecQueueDepth, 0);
        let wake = c.at + c.restart_after;
        if wake > now {
            let outage = wake.duration_since(now);
            self.io.transport.sleep(outage).await;
            self.stats.downtime += outage;
        }
        // Mail delivered while the machine was down is lost.
        while self.io.transport.try_recv().await.is_some() {}
        let t_up = self.io.now();
        self.io
            .mark(t_up, Mark::PeerRecovered { peer: self.io.rank });
        // Ask every peer for its latest state to rebuild the backward
        // windows; the requests carry our own state.
        let me = self.me.0;
        for k in (0..self.p).filter(|&k| k != me) {
            self.request_retransmit(k).await;
        }
        Crash::Restarted
    }

    /// Speculate-through-loss: track each peer whose input to the queue
    /// head is still speculative and promote it once the loss is proven
    /// (see [`PeerWait`]); quarantined peers promote at once.
    async fn detect_loss(&mut self) {
        let Some(f) = &mut self.fault else {
            return;
        };
        let now = self.io.now();
        // Re-anchor the per-peer waits whenever the queue head changes
        // (confirmation, rollback, drain): `since` stamps from a previous
        // front must never promote inputs of the new one.
        let front_now = self.exec_q.front().map(|rec| rec.iter);
        if front_now != f.front_tracked {
            f.front_tracked = front_now;
            f.peer_wait.fill(None);
        }
        let Some(front_iter) = f.front_tracked else {
            return;
        };
        let mut ask_retransmit: Vec<usize> = Vec::new();
        for k in (0..self.p).filter(|&k| k != self.me.0) {
            // A peer whose slot is no longer speculative — or whose actual
            // already sits in the inbox awaiting its check — needs no loss
            // tracking.
            let have_actual = self
                .inbox
                .get(&front_iter)
                .is_some_and(|m| m.contains_key(&k));
            let rec = &mut self.exec_q[0];
            if have_actual || !matches!(rec.inputs[k], InputSlot::Speculated(_)) {
                f.peer_wait[k] = None;
                continue;
            }
            let history = &mut self.history[k];
            // Degraded mode: a quarantined peer gets no loss timeout at
            // all — its speculated input is promoted the moment it blocks
            // the front, so the cluster's pace no longer depends on the
            // dead rank.
            if f.sup.as_ref().is_some_and(|sv| sv.is_quarantined(k)) {
                if f.promote(k, rec, history, &mut self.stats) {
                    self.stats.degraded_commits += 1;
                }
                continue;
            }
            // Evidence of a genuine loss: the peer already broadcast an
            // iteration past the front, so (links delivering in order) the
            // front's message is not merely late. A delta frame dropped
            // over a gap proves advancement just as a recorded value does
            // — without it, a delta stream whose frames all miss their
            // baseline would never build evidence through the history
            // alone.
            let evidence = history.latest_iter().is_some_and(|li| li > front_iter)
                || self
                    .dx
                    .as_ref()
                    .is_some_and(|dx| dx.seen_past[k].is_some_and(|si| si > front_iter));
            let deadline = f.loss_deadline(k, self.ctl.as_ref());
            match f.peer_wait[k] {
                None => f.peer_wait[k] = Some(PeerWait::Armed { since: now }),
                Some(PeerWait::Armed { since }) if now.duration_since(since) >= deadline => {
                    if evidence {
                        f.promote(k, rec, history, &mut self.stats);
                    } else {
                        // No proof the message was lost rather than the
                        // peer slow: ask once before giving up on it.
                        ask_retransmit.push(k);
                        f.peer_wait[k] = Some(PeerWait::Grace { asked_at: now });
                    }
                }
                Some(PeerWait::Armed { .. }) => {}
                Some(PeerWait::Grace { asked_at }) => {
                    if evidence {
                        // The reply (or a late broadcast) proved the peer
                        // is past the front: the front's message is gone
                        // for good.
                        f.promote(k, rec, history, &mut self.stats);
                    } else if f.last_heard[k] > asked_at {
                        // The peer answered but is behind the front: merely
                        // late, not lost. Wait afresh from its last sign of
                        // life.
                        f.peer_wait[k] = Some(PeerWait::Armed {
                            since: f.last_heard[k],
                        });
                    } else if now.duration_since(asked_at) >= deadline {
                        // Total silence through the grace period: the
                        // request or its reply was lost too.
                        f.promote(k, rec, history, &mut self.stats);
                    }
                }
            }
        }
        for k in ask_retransmit {
            self.request_retransmit(k).await;
        }
    }

    /// Supervision sweep: re-derive per-peer health from the
    /// consecutive-promotion counters and mark the transitions. One step
    /// per pass, so thresholds crossed together still resolve.
    fn supervise(&mut self) {
        let Some(FaultState {
            sup: Some(sv),
            staleness,
            ..
        }) = &mut self.fault
        else {
            return;
        };
        let now = self.io.now();
        for (k, &stale) in staleness.iter().enumerate() {
            if k == self.me.0 {
                continue;
            }
            let (suspected, quarantined, degraded_enter) = sv.observe(k, stale);
            let peer = k as u32;
            if suspected {
                self.stats.peers_suspected += 1;
                self.io.mark(now, Mark::PeerSuspected { peer });
            }
            if quarantined {
                self.stats.peers_quarantined += 1;
                self.io.mark(now, Mark::PeerQuarantined { peer });
                if degraded_enter {
                    self.io.mark(now, Mark::DegradedEnter);
                }
            }
        }
    }

    fn sample_inbox_depth(&mut self) {
        let depth = self.inbox.len() as u64;
        if self.last_inbox_depth != Some(depth) {
            self.last_inbox_depth = Some(depth);
            let now = self.io.now();
            self.io.gauge(now, Gauge::InboxDepth, depth);
        }
    }

    /// Validate the oldest unconfirmed iteration against whatever actuals
    /// have arrived, correcting or rolling back on a miss, and commit it
    /// once every input is actual or validated. Returns whether the queue
    /// changed (rollback or commit), which restarts the protocol loop.
    async fn confirm_front(&mut self) -> bool {
        if self.exec_q.is_empty() {
            return false;
        }
        if !self.check_front().await {
            self.roll_back();
            return true;
        }
        let resolved = self.exec_q[0]
            .inputs
            .iter()
            .all(|s| matches!(s, InputSlot::Actual | InputSlot::Validated));
        if resolved {
            self.commit_front().await;
        }
        resolved
    }

    /// Check every speculated input of the front record whose actual has
    /// arrived. Returns `false` when a miss needs a rollback: recompute
    /// mode, or a deep correction the app cannot propagate.
    async fn check_front(&mut self) -> bool {
        let front_iter = self.exec_q[0].iter;
        for k in 0..self.p {
            let spec = match &self.exec_q[0].inputs[k] {
                InputSlot::Speculated(s) => s.clone(),
                _ => continue,
            };
            let Some(actual) = self.inbox.get(&front_iter).and_then(|m| m.get(&k)).cloned() else {
                continue;
            };
            let t0 = self.io.now();
            let outcome = self.app.check(Rank(k), &actual, &spec);
            if let Some(c) = &mut self.ctl {
                c.state.observe_error(outcome.max_error);
            }
            let t1 = self
                .charge(t0, outcome.ops, Phase::Check, Some(front_iter), None)
                .await;
            self.stats.checked_partitions += 1;
            self.stats.checked_units += outcome.checked_units;
            self.stats.bad_units += outcome.bad_units;
            self.stats.max_accepted_error = self
                .stats
                .max_accepted_error
                .max(outcome.max_accepted_error);
            if outcome.accept {
                self.stats.accepted_partitions += 1;
                self.exec_q[0].inputs[k] = InputSlot::Validated;
                continue;
            }
            self.stats.misspeculated_partitions += 1;
            self.io.mark(
                t1,
                Mark::Misspeculation {
                    peer: k as u32,
                    iter: front_iter,
                },
            );
            // Exact recomputation requested: roll back to the pre-state of
            // the oldest record and re-execute with the actuals now in the
            // inbox.
            if self.correction == CorrectionMode::Recompute
                || !self.correct_front(k, &spec, &actual).await
            {
                return false;
            }
        }
        true
    }

    /// Incrementally correct peer `k`'s misspeculated input to the front
    /// record. Returns `false` when the app cannot propagate the
    /// correction through the iterations already computed on top.
    async fn correct_front(&mut self, k: usize, spec: &A::Shared, actual: &A::Shared) -> bool {
        let front_iter = self.exec_q[0].iter;
        let depth = self.exec_q.len() as u64 - 1;
        let t0 = self.io.now();
        let ops = if depth == 0 {
            // Fix the single in-flight iteration in place: the paper's
            // `correct(X_j(t+1))`.
            let ops = self.app.correct(Rank(k), spec, actual);
            self.exec_q[0].produced = self.app.shared();
            ops
        } else {
            // Iterations were already computed on top; let the app
            // propagate the correction forward if it can (first-order,
            // bounded residual).
            match self.app.correct_deep(Rank(k), spec, actual, depth) {
                Some(ops) => ops,
                None => return false,
            }
        };
        let t1 = self
            .charge(t0, ops, Phase::Correct, Some(front_iter), Some(depth))
            .await;
        self.stats.corrections += 1;
        self.io.mark(
            t1,
            Mark::Correction {
                peer: k as u32,
                depth,
            },
        );
        self.exec_q[0].inputs[k] = InputSlot::Validated;
        if depth > 0 {
            // The live state changed; refresh the newest pending
            // broadcast. (Interim records keep a bounded θ-order residual
            // — the paper's accepted-error philosophy.)
            let last = self.exec_q.len() - 1;
            self.exec_q[last].produced = self.app.shared();
        }
        true
    }

    /// Discard every unconfirmed iteration: restore the front record's
    /// pre-state and return every checkpoint to the pool.
    fn rewind(&mut self) {
        debug_assert!(self.exec_q.front().is_none_or(|r| r.iter == self.t_conf));
        if let Some(front) = self.exec_q.front() {
            self.app.restore(&front.pre);
        }
        self.t_exec = self.t_conf;
        for rec in self.exec_q.drain(..) {
            self.checkpoint_pool.push(rec.pre);
        }
    }

    fn roll_back(&mut self) {
        self.rewind();
        self.stats.rollbacks += 1;
        let now = self.io.now();
        self.io.mark(
            now,
            Mark::Rollback {
                to_iter: self.t_conf,
            },
        );
        self.io.gauge(now, Gauge::ExecQueueDepth, 0);
    }

    /// Confirm the fully resolved front record: log it, feed the
    /// controller, and broadcast the values it produced (send-on-confirm).
    async fn commit_front(&mut self) {
        let rec = self.exec_q.pop_front().expect("non-empty queue");
        self.checkpoint_pool.push(rec.pre);
        self.t_conf = rec.iter + 1;
        self.stats.iterations += 1;
        // Feed the resume handshake: a transport with supervision reports
        // this high-water mark to peers that reconnect.
        self.io.transport.note_progress(rec.iter);
        let now = self.io.now();
        self.io.mark(now, Mark::Commit { iter: rec.iter });
        self.io
            .gauge(now, Gauge::ExecQueueDepth, self.exec_q.len() as u64);
        if let Some(mut entry) = self.log_pending.as_mut().and_then(|l| l.remove(&rec.iter)) {
            entry.confirmed_at = now;
            self.stats.iteration_log.push(entry);
        }
        self.retune(now);
        if self.t_conf < self.total_iters {
            if let Some(f) = &mut self.fault {
                f.last_broadcast = (self.t_conf, rec.produced.clone());
            }
            self.broadcast(self.t_conf, rec.produced).await;
        }
        // Everything below t_conf is fully consumed.
        self.inbox = self.inbox.split_off(&self.t_conf);
    }

    /// Feed one confirmation to the controller and apply a retune if one
    /// is due. The controller owns the forward window and θ.
    fn retune(&mut self, now: SimTime) {
        let Some(c) = &mut self.ctl else {
            return;
        };
        let phases = &self.stats.phases;
        let busy_total = phases.compute + phases.speculate + phases.check + phases.correct;
        c.state.on_confirm(
            self.stats.misspeculated_partitions - c.missed_at_confirm,
            self.stats.checked_partitions - c.checked_at_confirm,
            c.waited_since_confirm,
            busy_total - c.busy_at_confirm,
        );
        c.busy_at_confirm = busy_total;
        c.missed_at_confirm = self.stats.misspeculated_partitions;
        c.checked_at_confirm = self.stats.checked_partitions;
        c.waited_since_confirm = SimDuration::ZERO;
        let Some(d) = c
            .state
            .maybe_retune(self.fault.as_ref().map(|f| f.loss_timeout))
        else {
            return;
        };
        self.stats.controller_retunes += 1;
        self.stats.controller_fw = u64::from(d.fw);
        self.stats.controller_theta = d.theta.unwrap_or(0.0);
        self.window = d.fw;
        if let Some(th) = d.theta {
            self.app.set_speculation_threshold(th);
        }
        self.io.mark(
            now,
            Mark::ControllerRetune {
                fw: d.fw,
                theta_ppb: d.theta.map(|t| (t * 1e9) as u64).unwrap_or(u64::MAX),
                deadline_ns: d.tightest_deadline_ns,
            },
        );
    }

    /// Execute iteration `t_exec` if the forward window allows it and
    /// every missing input can be speculated (or fault tolerance forces
    /// the step). Returns whether an iteration was executed.
    async fn execute_next(&mut self) -> bool {
        let window = self.window;
        if self.last_window != Some(u64::from(window)) {
            self.last_window = Some(u64::from(window));
            let now = self.io.now();
            self.io.gauge(now, Gauge::WindowSize, u64::from(window));
        }
        let depth = self.t_exec - self.t_conf;
        // Starvation breaker: with fault tolerance on, a rank that has had
        // nothing in flight and nothing executable for a full loss timeout
        // executes anyway, skipping inputs it cannot even extrapolate
        // (e.g. iteration 0 under total loss, where no history exists).
        let now = self.io.now();
        let force = self.exec_q.is_empty()
            && self.fault.as_ref().is_some_and(|f| {
                f.starved_since
                    .is_some_and(|s| now.duration_since(s) >= f.loss_timeout)
            });
        if self.t_exec >= self.total_iters || depth >= u64::from(window.max(1)) {
            return false;
        }
        let empty = HashMap::new();
        let avail = self.inbox.get(&self.t_exec).unwrap_or(&empty);
        let missing: Vec<usize> = (0..self.p)
            .filter(|k| *k != self.me.0 && !avail.contains_key(k))
            .collect();
        // Pre-compute speculations (read-only on the app) so the attempt
        // can be abandoned without side effects if any peer is
        // unpredictable (e.g. empty history at iteration 0).
        let mut speculations: Vec<(usize, A::Shared, u64, u32)> = Vec::new();
        let mut speculable = window >= 1;
        if speculable {
            for &k in &missing {
                let history = &self.history[k];
                let ahead = history
                    .latest_iter()
                    .map(|li| self.t_exec.saturating_sub(li).max(1) as u32);
                match ahead.and_then(|a| self.app.speculate(Rank(k), history, a).map(|s| (s, a))) {
                    Some(((sv, ops), a)) => speculations.push((k, sv, ops, a)),
                    None => {
                        speculable = false;
                        // Under fault tolerance, keep collecting what *can*
                        // be speculated: a forced execution uses every
                        // extrapolation it has.
                        if self.fault.is_none() {
                            break;
                        }
                    }
                }
            }
        }
        if !(missing.is_empty() || speculable || force) {
            return false;
        }
        self.execute(depth, speculations, force).await;
        true
    }

    /// Execute iteration `t_exec` from the inbox's actuals and the given
    /// speculations, checkpointing first so it can be rolled back.
    async fn execute(
        &mut self,
        depth: u64,
        speculations: Vec<(usize, A::Shared, u64, u32)>,
        force: bool,
    ) {
        let iter = self.t_exec;
        self.stats.executions += 1;
        self.stats.max_depth_used = self.stats.max_depth_used.max(depth + 1);
        let exec_start = self.io.now();
        let mut pre_slot = self.checkpoint_pool.pop();
        self.app.checkpoint_into(&mut pre_slot);
        let pre = pre_slot.expect("checkpoint_into must fill the slot");
        let mut inputs: Vec<InputSlot<A::Shared>> =
            (0..self.p).map(|_| InputSlot::Validated).collect();
        let mut comp_ops = self.app.begin_iteration();
        let mut spec_ops = 0u64;
        // Peers whose staleness budget ran out during a forced execution
        // (empty unless fault tolerance forced the skip path below, so the
        // fault-free hot path never allocates).
        let mut ask_retransmit: Vec<usize> = Vec::new();
        let empty = HashMap::new();
        let avail = self.inbox.get(&iter).unwrap_or(&empty);
        for (k, slot) in inputs.iter_mut().enumerate() {
            if k == self.me.0 {
                continue;
            }
            if let Some(actual) = avail.get(&k) {
                comp_ops += self.app.absorb(Rank(k), actual);
                *slot = InputSlot::Actual;
            } else if let Some((_, sv, ops, ahead)) = speculations.iter().find(|s| s.0 == k) {
                spec_ops += ops;
                comp_ops += self.app.absorb(Rank(k), sv);
                self.stats.speculated_partitions += 1;
                self.io.mark(
                    exec_start,
                    Mark::Speculation {
                        peer: k as u32,
                        ahead: *ahead,
                    },
                );
                *slot = InputSlot::Speculated(sv.clone());
            } else {
                // Forced execution with no history to extrapolate from:
                // proceed without this peer's contribution. Only reachable
                // with fault tolerance on.
                debug_assert!(force);
                let f = self
                    .fault
                    .as_mut()
                    .expect("forced execution without fault tolerance");
                f.count_loss(k, iter, &mut self.stats);
                let budget = f.staleness_budget;
                if f.staleness[k] >= budget && f.staleness[k].is_multiple_of(budget) {
                    ask_retransmit.push(k);
                }
            }
        }
        comp_ops += self.app.finish_iteration();
        for k in ask_retransmit {
            self.request_retransmit(k).await;
        }
        let depth = Some(depth);
        if spec_ops > 0 {
            let t0 = self.io.now();
            self.charge(t0, spec_ops, Phase::Speculate, Some(iter), depth)
                .await;
        }
        let t0 = self.io.now();
        let exec_end = self
            .charge(t0, comp_ops, Phase::Compute, Some(iter), depth)
            .await;
        if let Some(log) = &mut self.log_pending {
            let rerun = log.contains_key(&iter);
            let entry = log.entry(iter).or_insert(IterationLog {
                iter,
                exec_start,
                exec_end: exec_start,
                confirmed_at: exec_start,
                speculated_inputs: 0,
                re_executions: 0,
            });
            if rerun {
                entry.re_executions += 1;
            }
            entry.exec_start = exec_start;
            entry.exec_end = exec_end;
            entry.speculated_inputs = inputs
                .iter()
                .filter(|s| matches!(s, InputSlot::Speculated(_)))
                .count() as u32;
        }
        self.exec_q.push_back(ExecRecord {
            iter,
            pre,
            produced: self.app.shared(),
            inputs,
        });
        let now = self.io.now();
        self.io
            .gauge(now, Gauge::ExecQueueDepth, self.exec_q.len() as u64);
        self.t_exec += 1;
        if let Some(f) = &mut self.fault {
            f.starved_since = None;
        }
    }

    /// Block for the next message. With fault tolerance on, the wait is
    /// bounded by the earliest due deadline (see
    /// [`FaultState::next_deadline`]); the transport wakes exactly at the
    /// arrival or the deadline, so θ-acceptance decisions do not depend on
    /// any poll interval.
    async fn wait(&mut self) -> Option<Envelope<IterMsg<A::Shared>>> {
        let t0 = self.io.now();
        let env = match &mut self.fault {
            None => Some(self.io.transport.recv().await),
            Some(f) => {
                if self.exec_q.is_empty() && f.starved_since.is_none() {
                    f.starved_since = Some(t0);
                }
                match f.next_deadline(self.ctl.as_ref()) {
                    Some(d) if d > t0 => self.io.transport.recv_timeout(d.duration_since(t0)).await,
                    // A deadline is already due: act on it at the loop top.
                    Some(_) => None,
                    // Unreachable with fault tolerance on (one of the waits
                    // is always armed), kept for safety.
                    None => Some(self.io.transport.recv().await),
                }
            }
        };
        let t1 = self.io.now();
        let waited = t1 - t0;
        self.stats.phases.comm_wait += waited;
        if let Some(c) = &mut self.ctl {
            c.waited_since_confirm += waited;
        }
        if waited > SimDuration::ZERO || self.fault.is_none() {
            self.io
                .span(t0, t1, Phase::CommWait, Some(self.t_conf), None);
        }
        env
    }

    /// Spend `ops` of virtual compute in `phase`, which started at `t0`:
    /// charge the interval to the phase totals and record its span.
    /// Returns the end of the interval.
    async fn charge(
        &mut self,
        t0: SimTime,
        ops: u64,
        phase: Phase,
        iter: Option<u64>,
        depth: Option<u64>,
    ) -> SimTime {
        self.io.transport.compute(ops).await;
        let t1 = self.io.now();
        *phase_time(&mut self.stats.phases, phase) += t1 - t0;
        self.io.span(t0, t1, phase, iter, depth);
        t1
    }

    /// Broadcast this iteration's partition to every peer. Without a delta
    /// policy every peer gets the full snapshot. With one, each peer gets
    /// either a keyframe (on the keyframe cadence, or when its shadow is
    /// missing) or the sparse diff against its sender shadow; the shadow
    /// is then advanced by *what was sent* — not by the true state — so
    /// quantization error never compounds across iterations.
    async fn broadcast(&mut self, iter: u64, data: A::Shared) {
        let peers = (0..self.p).filter(|&k| k != self.me.0).map(Rank);
        let Some(dx) = &mut self.dx else {
            for to in peers {
                let msg = IterMsg::full(iter, data.clone());
                self.io.send(&mut self.stats, to, DATA_TAG, msg).await;
            }
            return;
        };
        let capable = self.app.delta_extract(&data, &mut dx.cur);
        debug_assert!(capable, "delta policy active on a non-capable app");
        let pol = dx.policy;
        let full_bytes = (HEADER_BYTES + 8 + data.wire_size()) as u64;
        let keyframe_due = iter.is_multiple_of(pol.keyframe_interval);
        for to in peers {
            let msg = match &mut dx.tx_shadow[to.0] {
                Some(shadow) if !keyframe_due => {
                    dx.frame.diff_into(&dx.cur, shadow, pol.floor);
                    dx.frame.apply(shadow);
                    let msg = IterMsg::delta(iter, dx.frame.clone());
                    let suppressed =
                        full_bytes.saturating_sub((HEADER_BYTES + msg.wire_size()) as u64);
                    self.stats.delta_suppressed_bytes += suppressed;
                    let now = self.io.now();
                    self.io.mark(
                        now,
                        Mark::DeltaSuppressed {
                            to: to.0 as u32,
                            bytes: suppressed,
                        },
                    );
                    msg
                }
                shadow => {
                    let shadow = shadow.get_or_insert_with(Vec::new);
                    shadow.clear();
                    shadow.extend_from_slice(&dx.cur);
                    IterMsg::full(iter, data.clone())
                }
            };
            self.io.send(&mut self.stats, to, DATA_TAG, msg).await;
        }
    }

    /// Send this rank's latest broadcast as a full snapshot to one peer
    /// (retransmit request/reply, readmission, crash recovery), resetting
    /// the sender-side delta shadow so the peer's stream restarts from a
    /// known baseline.
    async fn send_full_state(&mut self, to: Rank, tag: Tag) {
        let f = self
            .fault
            .as_ref()
            .expect("full-state sends need fault tolerance");
        let (iter, data) = &f.last_broadcast;
        if let Some(dx) = &mut self.dx {
            dx.rebase(&*self.app, to.0, data);
        }
        let msg = IterMsg::full(*iter, data.clone());
        self.io.send(&mut self.stats, to, tag, msg).await;
    }

    /// Ask peer `k` to retransmit; the request carries our own latest
    /// state.
    async fn request_retransmit(&mut self, k: usize) {
        self.send_full_state(Rank(k), RETRANS_REQ_TAG).await;
        self.stats.retransmit_requests += 1;
    }
}

/// Fold one received frame into the inbox and history. Full frames are
/// recorded as they are; with delta exchange on, a delta frame is
/// reconstructed against the receiver shadow (see
/// [`DeltaState::receive`]) and dropped — without touching the history
/// or inbox, so it can never fabricate promotion evidence or corrupt a
/// reconstruction — when it does not extend the shadow by exactly one
/// iteration. Gaps heal when the next keyframe, retransmit reply, or
/// recovery request (all full frames) re-seeds the shadow.
fn stash<A: SpeculativeApp>(
    app: &A,
    dx: Option<&mut DeltaState<A::Shared>>,
    env: Envelope<IterMsg<A::Shared>>,
    t_conf: u64,
    inbox: &mut BTreeMap<u64, HashMap<usize, A::Shared>>,
    history: &mut [History<A::Shared>],
    stats: &mut RunStats,
) where
    A::Shared: WireSize,
{
    stats.messages_received += 1;
    stats.bytes_received += (HEADER_BYTES + env.msg.wire_size()) as u64;
    let src = env.src.0;
    let IterMsg { iter, body } = env.msg;
    let data = match (dx, body) {
        (Some(dx), body) => dx.receive(app, src, iter, body),
        (None, MsgBody::Full(data)) => Some(data),
        (None, MsgBody::Delta(_)) => None,
    };
    let Some(data) = data else {
        stats.delta_frames_dropped += 1;
        return;
    };
    history[src].record(iter, data.clone());
    if iter >= t_conf {
        inbox.entry(iter).or_default().insert(src, data);
    }
}

// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::CheckOutcome;
    use desim::SimDuration;
    use mpk::run_sim_cluster;
    use netsim::{ClusterSpec, ConstantLatency, ScriptedDelays, Unloaded};

    /// A linear toy app: each rank owns one scalar; every iteration
    /// `x_j ← a·x_j + b·Σ_{k≠j} x_k`. Linearity makes incremental
    /// correction exact, and smooth trajectories make linear extrapolation
    /// a good speculator.
    #[derive(Clone)]
    struct Toy {
        #[allow(dead_code)] // identifies the rank in debug dumps
        me: usize,
        x: f64,
        pending: f64,
        theta: f64,
        a: f64,
        b: f64,
    }

    impl Toy {
        fn new(me: usize, p: usize, theta: f64) -> Self {
            Toy {
                me,
                x: 1.0 + me as f64,
                pending: 0.0,
                theta,
                a: 0.6,
                b: 0.3 / p as f64,
            }
        }
    }

    impl SpeculativeApp for Toy {
        type Shared = f64;
        type Checkpoint = f64;

        fn shared(&self) -> f64 {
            self.x
        }
        fn begin_iteration(&mut self) -> u64 {
            self.pending = self.a * self.x;
            1
        }
        fn absorb(&mut self, _from: Rank, x: &f64) -> u64 {
            self.pending += self.b * x;
            100
        }
        fn finish_iteration(&mut self) -> u64 {
            self.x = self.pending;
            1
        }
        fn speculate(&self, _from: Rank, hist: &History<f64>, ahead: u32) -> Option<(f64, u64)> {
            let (i1, &v1) = hist.nth_back(0)?;
            match hist.nth_back(1) {
                Some((i0, &v0)) => {
                    let slope = (v1 - v0) / (i1 - i0) as f64;
                    Some((v1 + slope * ahead as f64, 2))
                }
                None => Some((v1, 1)),
            }
        }
        fn check(&self, _from: Rank, actual: &f64, speculated: &f64) -> CheckOutcome {
            let err = (actual - speculated).abs() / actual.abs().max(1e-12);
            let accept = err <= self.theta;
            CheckOutcome {
                accept,
                max_error: err,
                max_accepted_error: if accept { err } else { 0.0 },
                checked_units: 1,
                bad_units: u64::from(!accept),
                ops: 2,
            }
        }
        fn correct(&mut self, _from: Rank, speculated: &f64, actual: &f64) -> u64 {
            // Exact for a linear absorb.
            self.x += self.b * (actual - speculated);
            100
        }
        fn set_speculation_threshold(&mut self, theta: f64) {
            self.theta = theta;
        }
        fn delta_extract(&self, shared: &f64, out: &mut Vec<f64>) -> bool {
            out.clear();
            out.push(*shared);
            true
        }
        fn delta_patch(&self, base: &f64, entries: &[(u32, f64)]) -> Option<f64> {
            let mut v = *base;
            for &(lane, value) in entries {
                debug_assert_eq!(lane, 0, "toy app has a single lane");
                v = value;
            }
            Some(v)
        }
        fn checkpoint(&self) -> f64 {
            self.x
        }
        fn restore(&mut self, c: &f64) {
            self.x = *c;
        }
    }

    /// Sequential reference for the toy recurrence.
    fn toy_reference(p: usize, iters: u64) -> Vec<f64> {
        let a = 0.6;
        let b = 0.3 / p as f64;
        let mut x: Vec<f64> = (0..p).map(|m| 1.0 + m as f64).collect();
        for _ in 0..iters {
            // Accumulate in exactly the driver's order (begin, then absorb
            // k = 0..p ascending) so results are bit-comparable.
            let next: Vec<f64> = (0..p)
                .map(|j| {
                    let mut pending = a * x[j];
                    for (k, v) in x.iter().enumerate() {
                        if k != j {
                            pending += b * v;
                        }
                    }
                    pending
                })
                .collect();
            x = next;
        }
        x
    }

    /// Run the toy app on a homogeneous simulated cluster; returns each
    /// rank's final value and stats, plus the virtual end time.
    pub(super) fn run_toy(
        p: usize,
        iters: u64,
        theta: f64,
        config: SpecConfig,
        latency_ms: u64,
    ) -> (Vec<(f64, RunStats)>, SimDuration) {
        run_toy_with_faults(p, iters, theta, config, latency_ms, FaultSpec::none())
    }

    #[test]
    fn baseline_matches_sequential_reference() {
        let p = 4;
        let iters = 10;
        let (out, _) = run_toy(p, iters, 0.0, SpecConfig::baseline(), 1);
        let reference = toy_reference(p, iters);
        for (j, (x, stats)) in out.iter().enumerate() {
            assert_eq!(*x, reference[j], "rank {j} diverged from reference");
            assert_eq!(stats.iterations, iters);
            assert_eq!(stats.speculated_partitions, 0);
            assert_eq!(stats.rollbacks, 0);
            assert_eq!(stats.messages_sent, (p as u64 - 1) * iters);
        }
    }

    #[test]
    fn theta_zero_recompute_is_bit_exact_with_baseline() {
        let p = 5;
        let iters = 12;
        let cfg = SpecConfig::speculative(1).with_correction(CorrectionMode::Recompute);
        let (out, _) = run_toy(p, iters, 0.0, cfg, 3);
        let reference = toy_reference(p, iters);
        for (j, (x, stats)) in out.iter().enumerate() {
            assert_eq!(*x, reference[j], "rank {j}: θ=0 + recompute must be exact");
            assert_eq!(stats.iterations, iters);
        }
    }

    #[test]
    fn theta_zero_fw2_recompute_is_bit_exact_with_baseline() {
        let p = 3;
        let iters = 15;
        let cfg = SpecConfig::speculative(2).with_correction(CorrectionMode::Recompute);
        let (out, _) = run_toy(p, iters, 0.0, cfg, 5);
        let reference = toy_reference(p, iters);
        for (j, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, reference[j], "rank {j}: FW=2 θ=0 must be exact");
        }
    }

    #[test]
    fn incremental_correction_with_theta_zero_is_close_to_reference() {
        // Incremental correction is algebraically exact for the linear toy
        // but floating-point non-associative; expect tiny drift only.
        let p = 4;
        let iters = 10;
        let cfg = SpecConfig::speculative(1); // Incremental
        let (out, _) = run_toy(p, iters, 0.0, cfg, 3);
        let reference = toy_reference(p, iters);
        for (j, (x, _)) in out.iter().enumerate() {
            assert!((x - reference[j]).abs() < 1e-9, "rank {j} drifted: {x}");
        }
    }

    #[test]
    fn loose_threshold_accepts_speculations() {
        let (out, _) = run_toy(4, 10, 1e9, SpecConfig::speculative(1), 3);
        for (_, stats) in &out {
            assert!(stats.speculated_partitions > 0, "must have speculated");
            assert_eq!(stats.misspeculated_partitions, 0);
            assert_eq!(stats.corrections, 0);
            assert_eq!(stats.rollbacks, 0);
            assert_eq!(stats.checked_partitions, stats.accepted_partitions);
        }
    }

    #[test]
    fn speculation_masks_latency() {
        // With latency comparable to compute time, FW=1 must beat FW=0.
        let iters = 20;
        let (_, t_base) = run_toy(4, iters, 0.05, SpecConfig::baseline(), 2);
        let (out, t_spec) = run_toy(4, iters, 0.05, SpecConfig::speculative(1), 2);
        assert!(
            t_spec < t_base,
            "speculation should mask latency: spec {t_spec} vs base {t_base}"
        );
        assert!(out.iter().any(|(_, s)| s.speculated_partitions > 0));
    }

    #[test]
    fn forward_window_two_masks_transient_delay() {
        // Scripted: the 3rd message from rank 0 to rank 1 is hugely delayed
        // (the paper's Figure 4 scenario). FW=2 should absorb it better
        // than FW=1. The machines are slow enough that one iteration's
        // compute (~20 ms) is comparable to the transient delay (40 ms) —
        // the regime where a deeper window pays off (Fig. 4c).
        let iters = 12;
        let run = |fw: u32| {
            let cluster = ClusterSpec::homogeneous(3, 0.01);
            let net = ScriptedDelays::new(
                ConstantLatency(SimDuration::from_millis(1)),
                vec![(0, 1, 3, SimDuration::from_millis(40))],
            );
            let cfg = SpecConfig::speculative(fw);
            let (_, report) =
                run_sim_cluster::<IterMsg<f64>, _, _>(&cluster, net, Unloaded, false, move |t| {
                    let mut app = Toy::new(t.rank().0, t.size(), 0.5);
                    run_speculative(t, &mut app, iters, cfg.clone());
                })
                .unwrap();
            report.end_time
        };
        let t1 = run(1);
        let t2 = run(2);
        assert!(
            t2 < t1,
            "FW=2 ({t2}) should beat FW=1 ({t1}) under a transient delay"
        );
    }

    #[test]
    fn tight_threshold_triggers_corrections() {
        // θ tiny but nonzero: speculations get rejected, corrections happen,
        // and the run still completes with near-reference results.
        let p = 4;
        let iters = 10;
        let (out, _) = run_toy(p, iters, 1e-12, SpecConfig::speculative(1), 3);
        let total_misses: u64 = out.iter().map(|(_, s)| s.misspeculated_partitions).sum();
        let total_corrections: u64 = out.iter().map(|(_, s)| s.corrections).sum();
        assert!(total_misses > 0, "tiny θ must reject some speculations");
        assert_eq!(
            total_misses, total_corrections,
            "FW=1 misses must be corrected in place"
        );
        let reference = toy_reference(p, iters);
        for (j, (x, _)) in out.iter().enumerate() {
            assert!((x - reference[j]).abs() < 1e-9);
        }
    }

    #[test]
    fn recompute_mode_rolls_back_instead_of_correcting() {
        let p = 4;
        let iters = 10;
        let cfg = SpecConfig::speculative(1).with_correction(CorrectionMode::Recompute);
        let (out, _) = run_toy(p, iters, 1e-12, cfg, 3);
        let total_rollbacks: u64 = out.iter().map(|(_, s)| s.rollbacks).sum();
        let total_corrections: u64 = out.iter().map(|(_, s)| s.corrections).sum();
        assert!(total_rollbacks > 0);
        assert_eq!(total_corrections, 0);
    }

    #[test]
    fn single_rank_needs_no_messages() {
        let (out, _) = run_toy(1, 7, 0.01, SpecConfig::speculative(2), 1);
        let (x, stats) = &out[0];
        assert_eq!(stats.iterations, 7);
        assert_eq!(stats.messages_sent, 0);
        assert_eq!(stats.speculated_partitions, 0);
        assert_eq!(*x, toy_reference(1, 7)[0]);
    }

    #[test]
    fn zero_iterations_is_a_no_op() {
        let (out, end) = run_toy(3, 0, 0.01, SpecConfig::speculative(1), 1);
        for (x, stats) in &out {
            assert_eq!(stats.iterations, 0);
            assert_eq!(stats.messages_sent, 0);
            assert_eq!(
                *x,
                toy_reference(3, 0)[out.iter().position(|(y, _)| y == x).unwrap()]
            );
        }
        assert_eq!(end, SimDuration::ZERO);
    }

    #[test]
    fn controller_completes_and_deepens_under_latency() {
        // An iteration computes in ~3 ms against 10 ms of latency: FW = 1
        // leaves most of the delay visible, and deeper windows mask it.
        use crate::control::ControllerConfig;
        let cluster = ClusterSpec::homogeneous(4, 0.1);
        let cfg = SpecConfig::speculative(1).with_adaptive(ControllerConfig::default());
        let iters = 40;
        let (out, _) = run_sim_cluster::<IterMsg<f64>, _, _>(
            &cluster,
            ConstantLatency(SimDuration::from_millis(10)),
            Unloaded,
            false,
            move |t| {
                let mut app = Toy::new(t.rank().0, t.size(), 0.5);
                run_speculative(t, &mut app, iters, cfg.clone())
            },
        )
        .unwrap();
        for stats in &out {
            assert_eq!(stats.iterations, iters);
            assert!(
                stats.max_depth_used >= 2,
                "the controller should deepen the window under heavy latency, got {}",
                stats.max_depth_used
            );
        }
    }

    #[test]
    fn controller_retunes_and_theta_zero_grid_stays_exact() {
        // A θ grid pinned to {0.0} with recompute correction is exact for
        // ANY forward-window schedule, so the controller may retune freely
        // without perturbing the result. Asserts the integration actually
        // fires (decisions recorded in stats) and stays bit-exact.
        use crate::control::ControllerConfig;
        let p = 4;
        let iters = 24;
        let cfg = SpecConfig::speculative(1)
            .with_correction(CorrectionMode::Recompute)
            .with_adaptive(
                ControllerConfig::new()
                    .with_theta_grid(vec![0.0])
                    .with_cadence(2, 2)
                    .with_fw_max(3),
            );
        let (out, _) = run_toy(p, iters, 0.0, cfg, 3);
        let reference = toy_reference(p, iters);
        for (j, (x, stats)) in out.iter().enumerate() {
            assert_eq!(*x, reference[j], "rank {j}: θ=0 grid must stay exact");
            assert_eq!(stats.iterations, iters);
            assert!(
                stats.controller_retunes > 0,
                "controller must have evaluated retunes"
            );
            assert_eq!(stats.controller_theta, 0.0);
            assert!(stats.controller_fw >= 1 && stats.controller_fw <= 3);
        }
    }

    #[test]
    fn controller_off_leaves_new_stats_fields_zero() {
        let (out, _) = run_toy(3, 8, 0.05, SpecConfig::speculative(1), 2);
        for (_, stats) in &out {
            assert_eq!(stats.controller_retunes, 0);
            assert_eq!(stats.controller_fw, 0);
            assert_eq!(stats.controller_theta, 0.0);
        }
    }

    #[test]
    fn phase_times_account_for_total() {
        // compute + wait + speculate + check + correct should equal the
        // rank's total time (the driver does no unaccounted virtual work).
        let (out, _) = run_toy(4, 10, 0.05, SpecConfig::speculative(1), 2);
        for (_, stats) in &out {
            let sum = stats.phases.total();
            assert_eq!(sum, stats.total_time, "phases must partition total time");
        }
    }

    #[test]
    fn stats_message_counts() {
        let p = 5;
        let iters = 8;
        let (out, _) = run_toy(p, iters, 0.05, SpecConfig::speculative(1), 2);
        for (_, stats) in &out {
            assert_eq!(stats.messages_sent, (p as u64 - 1) * iters);
            assert!(stats.messages_received <= (p as u64 - 1) * iters);
        }
    }

    #[test]
    fn iteration_log_records_every_iteration_in_order() {
        let iters = 9;
        let cfg = SpecConfig::speculative(1).with_iteration_log();
        let (out, _) = run_toy(3, iters, 0.5, cfg, 2);
        for (_, stats) in &out {
            assert_eq!(stats.iteration_log.len() as u64, iters);
            for (i, l) in stats.iteration_log.iter().enumerate() {
                assert_eq!(l.iter, i as u64, "log must be in confirmation order");
                assert!(l.exec_start <= l.exec_end);
                assert!(l.exec_end <= l.confirmed_at);
            }
            // Iteration 0 cannot be speculated (no history); later ones
            // should be under this latency.
            assert_eq!(stats.iteration_log[0].speculated_inputs, 0);
            assert!(stats
                .iteration_log
                .iter()
                .skip(1)
                .any(|l| l.speculated_inputs > 0));
        }
    }

    #[test]
    fn iteration_log_absent_by_default() {
        let (out, _) = run_toy(3, 5, 0.5, SpecConfig::speculative(1), 2);
        for (_, stats) in &out {
            assert!(stats.iteration_log.is_empty());
        }
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let (out, end) = run_toy(4, 15, 0.01, SpecConfig::speculative(2), 3);
            let xs: Vec<f64> = out.iter().map(|(x, _)| *x).collect();
            let specs: Vec<u64> = out.iter().map(|(_, s)| s.speculated_partitions).collect();
            (xs, specs, end)
        };
        assert_eq!(run(), run());
    }

    // ---- fault tolerance ------------------------------------------------

    use crate::config::FaultTolerance;
    use mpk::{run_sim_cluster_with_faults, FaultSpec};
    use netsim::{Loss, MachineCrash};

    fn run_toy_with_faults(
        p: usize,
        iters: u64,
        theta: f64,
        config: SpecConfig,
        latency_ms: u64,
        faults: FaultSpec<IterMsg<f64>>,
    ) -> (Vec<(f64, RunStats)>, SimDuration) {
        let cluster = ClusterSpec::homogeneous(p, 100.0);
        let (out, report) = run_sim_cluster_with_faults::<IterMsg<f64>, _, _>(
            &cluster,
            ConstantLatency(SimDuration::from_millis(latency_ms)),
            Unloaded,
            faults,
            false,
            move |t| {
                let mut app = Toy::new(t.rank().0, t.size(), theta);
                let stats = run_speculative(t, &mut app, iters, config.clone());
                (app.x, stats)
            },
        )
        .unwrap();
        (out, report.end_time.duration_since(desim::SimTime::ZERO))
    }

    #[test]
    fn total_loss_with_fault_tolerance_still_terminates() {
        // Loss(1.0): no message ever crosses the network. The staleness
        // machinery must still drive every rank through all iterations.
        let iters = 6;
        let ft = FaultTolerance::new(SimDuration::from_millis(5)).with_staleness_budget(2);
        let cfg = SpecConfig::speculative(1).with_fault_tolerance(ft);
        let out = run_toy_with_faults(3, iters, 1e9, cfg, 1, FaultSpec::new(Loss::new(1.0, 11))).0;
        for (x, stats) in &out {
            assert!(x.is_finite());
            assert_eq!(stats.iterations, iters, "rank must not deadlock");
            assert!(stats.messages_lost > 0, "every send should be dropped");
            assert!(
                stats.speculate_through_loss_commits > 0,
                "progress must come from promoted speculations"
            );
            assert!(
                stats.retransmit_requests > 0,
                "staleness budget should trigger retransmit requests"
            );
        }
    }

    #[test]
    fn total_loss_without_speculation_window_still_terminates() {
        // The hardest liveness case: FW=0 (baseline) plus total loss means
        // no speculation machinery at all — only the starvation breaker
        // can make progress.
        let iters = 4;
        let ft = FaultTolerance::new(SimDuration::from_millis(5));
        let cfg = SpecConfig::baseline().with_fault_tolerance(ft);
        let out = run_toy_with_faults(2, iters, 1e9, cfg, 1, FaultSpec::new(Loss::new(1.0, 3))).0;
        for (x, stats) in &out {
            assert!(x.is_finite());
            assert_eq!(stats.iterations, iters);
        }
    }

    #[test]
    fn moderate_loss_stays_close_to_fault_free_run() {
        // With a checked θ, every *delivered* speculation is validated or
        // corrected, so both runs track the true trajectory; only promoted
        // (lost) inputs carry unchecked extrapolation error. The drift must
        // stay a small multiple of what θ already tolerates per input.
        let p = 4;
        let iters = 30;
        let theta = 0.01;
        let ft = FaultTolerance::new(SimDuration::from_millis(10));
        let cfg = SpecConfig::speculative(2).with_fault_tolerance(ft);
        let golden = run_toy(p, iters, theta, SpecConfig::speculative(2), 2).0;
        let lossy =
            run_toy_with_faults(p, iters, theta, cfg, 2, FaultSpec::new(Loss::new(0.05, 42))).0;
        let mut promoted = 0;
        for (j, (x, stats)) in lossy.iter().enumerate() {
            assert_eq!(stats.iterations, iters);
            promoted += stats.speculate_through_loss_commits;
            let rel = (x - golden[j].0).abs() / golden[j].0.abs().max(1e-12);
            assert!(
                rel < 0.15,
                "rank {j}: 5% loss drifted {rel:.2e} from fault-free"
            );
        }
        assert!(promoted > 0, "5% loss must force some promotions");
    }

    #[test]
    fn scripted_crash_recovers_from_checkpoint_and_completes() {
        let p = 3;
        let iters = 20;
        let crash = MachineCrash {
            rank: 1,
            at: desim::SimTime::from_nanos(40_000_000),
            restart_after: SimDuration::from_millis(15),
        };
        let ft = FaultTolerance::new(SimDuration::from_millis(8)).with_crashes(vec![crash]);
        let cfg = SpecConfig::speculative(1).with_fault_tolerance(ft);
        let out = run_toy_with_faults(p, iters, 1e9, cfg, 2, FaultSpec::none()).0;
        for (j, (x, stats)) in out.iter().enumerate() {
            assert!(x.is_finite());
            assert_eq!(stats.iterations, iters, "rank {j} must finish");
        }
        let crashed = &out[1].1;
        assert_eq!(crashed.peer_restarts, 1);
        assert!(crashed.downtime >= SimDuration::from_millis(10));
        assert_eq!(
            crashed.phases.total() + crashed.downtime,
            crashed.total_time,
            "downtime must account for the outage exactly"
        );
        assert_eq!(out[0].1.peer_restarts, 0);
        assert!(
            crashed.retransmit_requests >= (p as u64 - 1),
            "restart must ask every peer for its state"
        );
    }

    #[test]
    fn quarantine_bypasses_the_loss_timeout() {
        // A rank dead from t = 0 never rejoins. Without supervision every
        // front pays the full Armed→Grace loss timeout on its slot; with
        // supervision the peer is quarantined after its first promotion
        // and subsequent fronts promote instantly — so the supervised run
        // must finish in a fraction of the unsupervised virtual time.
        let p = 3;
        let iters = 12;
        let crash = MachineCrash::permanent(1, desim::SimTime::ZERO);
        let ft = || FaultTolerance::new(SimDuration::from_millis(10)).with_crashes(vec![crash]);
        let slow_cfg = SpecConfig::speculative(1).with_fault_tolerance(ft());
        let fast_cfg = slow_cfg
            .clone()
            .with_supervision(SupervisionConfig::new(1, 1));
        let faults = || FaultSpec::none().with_crashes(netsim::CrashPlan::new(vec![crash]));
        let slow = run_toy_with_faults(p, iters, 1e9, slow_cfg, 2, faults());
        let fast = run_toy_with_faults(p, iters, 1e9, fast_cfg, 2, faults());
        for j in [0, 2] {
            let s = &fast.0[j].1;
            assert_eq!(s.iterations, iters, "survivor {j} must finish");
            assert!(
                s.peers_suspected >= 1,
                "survivor {j} never suspected rank 1"
            );
            assert!(
                s.peers_quarantined >= 1,
                "survivor {j} never quarantined rank 1"
            );
            assert!(s.degraded_commits >= 1, "survivor {j} never ran degraded");
            assert!(
                s.degraded_commits <= s.speculate_through_loss_commits,
                "degraded commits must be a subset of loss promotions"
            );
            assert_eq!(s.peer_rejoins, 0, "a dead rank must never rejoin");
        }
        assert_eq!(
            fast.0[1].1.iterations, 0,
            "the dead rank exits at its crash"
        );
        assert!(
            fast.1 * 2 < slow.1,
            "degraded mode must outpace per-front timeouts: {:?} vs {:?}",
            fast.1,
            slow.1
        );
    }

    #[test]
    fn heard_again_after_quarantine_counts_a_rejoin() {
        // Down long enough (50 ms ≫ 2 × 8 ms timeout at thresholds (1,1))
        // that survivors quarantine the rank before its restart; its
        // retransmit requests then readmit it on both survivors.
        let p = 3;
        let iters = 30;
        let crash = MachineCrash {
            rank: 1,
            at: desim::SimTime::ZERO,
            restart_after: SimDuration::from_millis(50),
        };
        let ft = FaultTolerance::new(SimDuration::from_millis(8)).with_crashes(vec![crash]);
        let cfg = SpecConfig::speculative(1)
            .with_fault_tolerance(ft)
            .with_supervision(SupervisionConfig::new(1, 1));
        let out = run_toy_with_faults(
            p,
            iters,
            1e9,
            cfg,
            2,
            FaultSpec::none().with_crashes(netsim::CrashPlan::new(vec![crash])),
        )
        .0;
        for (j, (x, stats)) in out.iter().enumerate() {
            assert!(x.is_finite());
            assert_eq!(stats.iterations, iters, "rank {j} must finish");
        }
        assert_eq!(out[1].1.peer_restarts, 1);
        for j in [0, 2] {
            let s = &out[j].1;
            assert!(
                s.peers_quarantined >= 1,
                "survivor {j} never quarantined rank 1"
            );
            assert!(s.peer_rejoins >= 1, "survivor {j} never readmitted rank 1");
        }
    }

    #[test]
    fn supervision_without_fault_tolerance_is_inert() {
        // Supervision rides on the loss-promotion staleness counters; with
        // no fault-tolerance policy there is nothing to drive it, and the
        // run must be bit-identical to the plain config.
        let p = 3;
        let iters = 10;
        let plain = run_toy(p, iters, 0.05, SpecConfig::speculative(1), 2).0;
        let sup_cfg = SpecConfig::speculative(1).with_supervision(SupervisionConfig::default());
        let sup = run_toy(p, iters, 0.05, sup_cfg, 2).0;
        for (j, (x, stats)) in sup.iter().enumerate() {
            assert_eq!(*x, plain[j].0, "rank {j} values must match exactly");
            assert_eq!(stats.peers_suspected, 0);
            assert_eq!(stats.peers_quarantined, 0);
            assert_eq!(stats.degraded_commits, 0);
        }
    }

    #[test]
    fn fault_tolerant_config_on_reliable_net_matches_fault_free_values() {
        // Same network, same app; the only difference is the bounded waits.
        // Those waits are event-driven (the transport wakes exactly at the
        // arrival or the deadline), so not just the committed values and
        // message counts but the per-rank timings must match exactly, and
        // nothing may be promoted.
        let p = 4;
        let iters = 12;
        let plain = run_toy(p, iters, 0.05, SpecConfig::speculative(1), 2).0;
        let ft = FaultTolerance::new(SimDuration::from_millis(50));
        let cfg = SpecConfig::speculative(1).with_fault_tolerance(ft);
        let tolerant = run_toy_with_faults(p, iters, 0.05, cfg, 2, FaultSpec::none()).0;
        for (j, (x, stats)) in tolerant.iter().enumerate() {
            assert_eq!(*x, plain[j].0, "rank {j} values must match exactly");
            assert_eq!(
                stats.total_time, plain[j].1.total_time,
                "rank {j} timing must match exactly"
            );
            assert_eq!(stats.iterations, iters);
            assert_eq!(stats.speculate_through_loss_commits, 0);
            assert_eq!(stats.peer_restarts, 0);
            assert_eq!(stats.messages_lost, 0);
        }
    }

    #[test]
    fn fault_runs_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let ft = FaultTolerance::new(SimDuration::from_millis(6));
            let cfg = SpecConfig::speculative(2).with_fault_tolerance(ft);
            let out =
                run_toy_with_faults(3, 15, 1e9, cfg, 2, FaultSpec::new(Loss::new(0.2, seed))).0;
            out.iter()
                .map(|(x, s)| {
                    (
                        x.to_bits(),
                        s.messages_lost,
                        s.speculate_through_loss_commits,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9), "same seed must reproduce bit-exactly");
        assert_ne!(run(9), run(10), "different seeds should differ");
    }

    #[test]
    fn lossless_delta_is_bit_identical_to_full_broadcast() {
        let p = 4;
        let iters = 16;
        let theta = 0.05;
        let full_cfg = SpecConfig::speculative(2);
        let delta_cfg = full_cfg
            .clone()
            .with_delta_exchange(DeltaExchange::lossless());
        let (full, t_full) = run_toy(p, iters, theta, full_cfg, 3);
        let (delta, t_delta) = run_toy(p, iters, theta, delta_cfg, 3);
        assert_eq!(t_full, t_delta, "floor=0 must not change the schedule");
        for (j, ((xf, sf), (xd, sd))) in full.iter().zip(&delta).enumerate() {
            assert_eq!(
                xf.to_bits(),
                xd.to_bits(),
                "rank {j}: floor=0 delta must be bit-identical"
            );
            assert_eq!(sf.messages_sent, sd.messages_sent);
            assert_eq!(sd.delta_frames_dropped, 0, "reliable net drops nothing");
            assert_eq!(sf.total_time, sd.total_time);
        }
    }

    #[test]
    fn delta_mode_preserves_send_count_and_meters_bytes() {
        let p = 4;
        let iters = 12;
        let cfg = SpecConfig::speculative(1).with_delta_exchange(DeltaExchange::new(1e-3, 4));
        let (out, _) = run_toy(p, iters, 1e9, cfg, 2);
        for (_, stats) in &out {
            assert_eq!(stats.messages_sent, (p as u64 - 1) * iters);
            assert!(stats.bytes_sent > 0, "sends must be metered");
            assert!(stats.bytes_received > 0, "receives must be metered");
            assert_eq!(stats.iterations, iters);
        }
    }

    #[test]
    fn keyframe_every_iteration_degenerates_to_full_broadcast() {
        let p = 3;
        let iters = 10;
        let full_cfg = SpecConfig::speculative(1);
        let kf_cfg = full_cfg
            .clone()
            .with_delta_exchange(DeltaExchange::new(0.5, 1));
        let (full, _) = run_toy(p, iters, 0.05, full_cfg, 2);
        let (kf, _) = run_toy(p, iters, 0.05, kf_cfg, 2);
        for (j, ((xf, sf), (xk, sk))) in full.iter().zip(&kf).enumerate() {
            assert_eq!(xf.to_bits(), xk.to_bits(), "rank {j}: K=1 is full frames");
            assert_eq!(sf.bytes_sent, sk.bytes_sent, "rank {j}: same wire bytes");
            assert_eq!(sk.delta_suppressed_bytes, 0);
        }
    }

    #[test]
    fn quantized_delta_error_stays_bounded() {
        // The toy map is a contraction (|a| + (p-1)|b| < 1), so a per-value
        // quantization error of `floor` perturbs the fixed point by
        // O(floor / (1 - ρ)) — far below this generous bound.
        let p = 4;
        let iters = 30;
        let floor = 1e-3;
        let cfg = SpecConfig::speculative(1).with_delta_exchange(DeltaExchange::new(floor, 8));
        let (out, _) = run_toy(p, iters, 1e9, cfg, 2);
        let reference = toy_reference(p, iters);
        for (j, (x, stats)) in out.iter().enumerate() {
            assert!(
                (x - reference[j]).abs() < 0.05,
                "rank {j} drifted past the quantization bound: {x} vs {}",
                reference[j]
            );
            assert_eq!(stats.iterations, iters);
        }
    }

    #[test]
    fn stash_drops_gap_and_duplicate_delta_frames() {
        let app = Toy::new(0, 2, 0.0);
        let mut dx: DeltaState<f64> = DeltaState::new(DeltaExchange::lossless(), 2);
        let mut inbox: BTreeMap<u64, HashMap<usize, f64>> = BTreeMap::new();
        let mut history = vec![History::new(4), History::new(4)];
        let mut stats = RunStats::new(Rank(0));
        // Deliver one frame from rank 1; report (receiver shadow, newest
        // history iteration, frames dropped so far).
        let mut recv = |iter: u64, body: MsgBody<f64>| {
            let msg = IterMsg { iter, body };
            let env = Envelope {
                src: Rank(1),
                tag: DATA_TAG,
                msg,
            };
            stash(
                &app,
                Some(&mut dx),
                env,
                0,
                &mut inbox,
                &mut history,
                &mut stats,
            );
            (
                dx.rx_shadow[1],
                history[1].latest_iter(),
                stats.delta_frames_dropped,
            )
        };
        let delta = |v: f64| {
            MsgBody::Delta(DeltaFrame {
                entries: vec![(0, v)],
            })
        };

        // A full frame seeds the shadow.
        assert_eq!(recv(5, MsgBody::Full(2.0)), (Some((5, 2.0)), Some(5), 0));
        // A gap delta (iter 7 against shadow 5) is dropped untouched: the
        // gap must not move the shadow or the history.
        assert_eq!(recv(7, delta(9.0)), (Some((5, 2.0)), Some(5), 1));
        // The in-order delta applies and advances the shadow.
        assert_eq!(recv(6, delta(3.0)), (Some((6, 3.0)), Some(6), 1));
        // A duplicate of that delta is inert.
        assert_eq!(recv(6, delta(3.0)), (Some((6, 3.0)), Some(6), 2));
        // A stale full frame never regresses the shadow.
        assert_eq!(recv(4, MsgBody::Full(1.0)), (Some((6, 3.0)), Some(6), 2));

        assert_eq!(inbox.get(&6).and_then(|m| m.get(&1)), Some(&3.0));
        // `seen_past` remembers the gap frame's iteration as promotion
        // evidence even though its payload was dropped.
        assert_eq!(dx.seen_past[1], Some(7));
        assert_eq!(stats.messages_received, 5);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::run_toy;
    use crate::config::{CorrectionMode, SpecConfig};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// For arbitrary small configurations, every rank completes all
        /// iterations, phase times partition total time, message counts
        /// match the protocol, and counters are internally consistent.
        #[test]
        fn driver_invariants_hold(
            p in 1usize..6,
            iters in 0u64..12,
            fw in 0u32..4,
            theta in prop_oneof![Just(0.0), Just(1e-6), Just(0.05), Just(1e9)],
            latency_ms in 0u64..8,
            recompute in any::<bool>(),
        ) {
            let mode = if recompute {
                CorrectionMode::Recompute
            } else {
                CorrectionMode::Incremental
            };
            let cfg = if fw == 0 {
                SpecConfig::baseline().with_correction(mode)
            } else {
                SpecConfig::speculative(fw).with_correction(mode)
            };
            let (out, _) = run_toy(p, iters, theta, cfg, latency_ms);
            for (x, stats) in &out {
                prop_assert!(x.is_finite());
                prop_assert_eq!(stats.iterations, iters);
                prop_assert_eq!(stats.phases.total(), stats.total_time);
                prop_assert_eq!(stats.messages_sent, (p as u64 - 1) * iters);
                prop_assert!(stats.messages_received <= (p as u64 - 1) * iters);
                prop_assert!(stats.accepted_partitions + stats.misspeculated_partitions
                    == stats.checked_partitions);
                prop_assert!(stats.checked_partitions <= stats.speculated_partitions);
                prop_assert!(stats.bad_units <= stats.checked_units);
                prop_assert!(stats.max_depth_used <= u64::from(fw.max(1)));
                prop_assert!(stats.executions >= stats.iterations);
            }
        }

        /// θ = +∞ accepts everything: no misspeculations, corrections, or
        /// rollbacks, ever.
        #[test]
        fn infinite_theta_never_corrects(
            p in 2usize..5,
            iters in 1u64..10,
            fw in 1u32..4,
            latency_ms in 1u64..6,
        ) {
            let (out, _) =
                run_toy(p, iters, 1e18, SpecConfig::speculative(fw), latency_ms);
            for (_, stats) in &out {
                prop_assert_eq!(stats.misspeculated_partitions, 0);
                prop_assert_eq!(stats.corrections, 0);
                prop_assert_eq!(stats.rollbacks, 0);
            }
        }
    }
}
