//! Real TCP transport backend: ranks are processes (or threads, in
//! loopback mode) exchanging length-prefixed frames over a full mesh of
//! `std::net` sockets.
//!
//! This is the step the paper's PVM setting takes out of the process:
//! delay, batching, and disconnects come from a real network stack
//! instead of an injected model. The backend keeps the exact receive
//! discipline of [`ThreadTransport`](crate::ThreadTransport) — one
//! per-peer reader thread feeds the same condvar mailbox, so `recv`,
//! `try_recv`, and the event-driven `recv_timeout` behave identically —
//! which is what makes three-way agreement (sim ≡ thread ≡ socket) under
//! exact semantics provable rather than hoped-for.
//!
//! # Wire format
//!
//! Every frame is `[len: u32][version: u8][kind: u8][src: u32][tag: u32]
//! [payload…]`, all little-endian; `len` counts everything after itself
//! and is capped by [`SocketClusterOptions::max_frame_bytes`] — a hostile
//! or corrupt length prefix is a decode failure, never an allocation.
//! `kind` is [`KIND_HELLO`] during the handshake and [`KIND_DATA`] after;
//! supervised meshes additionally exchange [`KIND_HEARTBEAT`] liveness
//! probes, [`KIND_GOODBYE`] clean-shutdown notices, and [`KIND_RESUME`]
//! rejoin handshakes. Payloads are encoded with [`WireCodec`]. A frame
//! that fails to decode is *dropped*, not surfaced: on a real wire, a
//! corrupt frame is a lost message (the fault-tolerant drivers already
//! treat it exactly like loss).
//!
//! # Handshake
//!
//! Connection establishment is deterministic and rank-ordered: rank `r`
//! dials every lower rank (retrying on a jittered exponential backoff
//! while peers are still starting) and then accepts one connection from
//! every higher rank, identifying each accepted peer by the `HELLO`
//! frame it must send first. Rank 0 dials no one, so it reaches its
//! accept loop immediately; by induction every dial finds a listening
//! accept loop and the mesh cannot deadlock.
//!
//! # Supervision, reconnect, and rejoin
//!
//! With [`SocketClusterOptions::supervision`] set, every rank keeps its
//! listener alive and runs two more threads:
//!
//! * a **supervisor** that writes a heartbeat frame to every live peer
//!   each interval, raises a suspicion event when a peer has been silent
//!   past the miss deadline (catching *silent* peers, not just EOF/RST),
//!   and re-dials dead peers it originally dialed (`peer < rank`) on a
//!   jittered exponential backoff up to a retry budget;
//! * an **acceptor** that accepts post-handshake connections and admits
//!   a peer back into the mesh via the `RESUME` handshake (peer rank +
//!   last-seen iteration, mirrored in the reply).
//!
//! Because reconnect duty follows the original dial direction (higher
//! rank dials lower), a restarted process calling
//! [`rejoin_socket_cluster`] re-dials exactly its original dialees and
//! is re-dialed by its original dialers — the same induction that makes
//! cold start deadlock-free covers rejoin.
//!
//! A transport that is *dropped* (orderly exit) first writes a `GOODBYE`
//! frame on every connection, so peers record a clean departure instead
//! of a crash; only a connection that dies without one (RST, EOF, or
//! heartbeat silence) feeds the crash path.
//!
//! # Faults and disconnects
//!
//! [`run_socket_cluster_with_faults`] applies a [`FaultSpec`] at the
//! frame layer of the *sender*: dropped fates are never written,
//! duplicate fates re-write the encoded frame, and corruption either
//! runs the spec's payload corruptor (sim-compatible semantics) or, when
//! none is given, flips a byte of the encoded payload before the write.
//! A peer that disconnects without a goodbye is surfaced as a
//! [`Mark::PeerCrashed`] event and the transport keeps working — the
//! reader thread never panics, and bounded waits keep expiring — which
//! feeds the same crash/recovery path the fault-tolerant driver already
//! handles.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use desim::{SimDuration, SimTime};
use netsim::{FaultModel, MsgCtx};
use obs::{Mark, Recorder};
use parking_lot::Mutex;

use crate::backoff::Backoff;
use crate::codec::WireCodec;
use crate::sim::FaultSpec;
use crate::threads::ThreadMailbox;
use crate::transport::Transport;
use crate::types::{Envelope, FaultCounters, Rank, Tag, WireSize, HEADER_BYTES};

/// Wire protocol version carried in every frame header.
pub const WIRE_VERSION: u8 = 1;
/// Handshake frame: `tag` is unused, payload is the sender's cluster size.
pub const KIND_HELLO: u8 = 0;
/// Data frame: `src`/`tag` are the envelope fields, payload a [`WireCodec`]
/// encoding of the message.
pub const KIND_DATA: u8 = 1;
/// Supervisor liveness probe: empty payload, never delivered to the
/// application — it only refreshes the receiver's last-heard clock.
pub const KIND_HEARTBEAT: u8 = 2;
/// Clean-shutdown notice written by [`SocketTransport`]'s `Drop` so an
/// orderly exit is not mistaken for a crash.
pub const KIND_GOODBYE: u8 = 3;
/// Rejoin handshake: payload is the sender's cluster size (`u32`) and
/// last-seen iteration (`u64`); the accepting side replies in kind.
pub const KIND_RESUME: u8 = 4;
/// Bytes of header inside the length-counted region (version + kind +
/// src + tag).
const FRAME_HEADER: usize = 10;
/// Total framing overhead per message on the wire (length prefix plus
/// header).
pub const FRAME_OVERHEAD: usize = 4 + FRAME_HEADER;
/// Default upper bound on a frame's length prefix; anything larger is
/// treated as a corrupt stream, not an allocation request.
pub const DEFAULT_MAX_FRAME: usize = 256 << 20;

/// How long a freshly-accepted or freshly-dialed connection may stall
/// mid-handshake before it is dropped. Bounds every blocking handshake
/// read so a silent dialer cannot wedge establish, the acceptor, or a
/// supervisor redial.
const HANDSHAKE_READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Supervision knobs: heartbeat cadence, silence deadline, and the
/// jittered-backoff reconnect schedule.
#[derive(Clone, Debug)]
pub struct SupervisorOptions {
    /// Interval between heartbeat probes to every live peer.
    pub heartbeat_interval: Duration,
    /// A peer silent (no data, no heartbeat) for longer than this is
    /// reported suspected. Should be several heartbeat intervals.
    pub miss_deadline: Duration,
    /// First reconnect backoff delay (doubles per attempt).
    pub backoff_base: Duration,
    /// Upper bound on a single reconnect backoff delay.
    pub backoff_cap: Duration,
    /// Reconnect attempts per outage before the supervisor gives up on
    /// a peer (the driver's quarantine path takes it from there).
    pub retry_budget: u32,
    /// Seed for the backoff jitter stream (mixed with both ranks so
    /// simultaneous reconnectors de-synchronize deterministically).
    pub seed: u64,
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        SupervisorOptions {
            heartbeat_interval: Duration::from_millis(25),
            miss_deadline: Duration::from_millis(150),
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            retry_budget: 40,
            seed: 0,
        }
    }
}

/// Configuration of a socket-backed cluster.
#[derive(Clone, Debug)]
pub struct SocketClusterOptions {
    /// Nominal speed for [`Transport::compute`], in million ops per
    /// second (matches
    /// [`ThreadClusterOptions::mips`](crate::ThreadClusterOptions::mips)).
    pub mips: f64,
    /// How long a dialing rank retries a peer that is not yet listening
    /// before giving up. Loopback clusters connect instantly; the slack
    /// exists for multi-process starts from separate terminals.
    pub connect_timeout: Duration,
    /// Set `TCP_NODELAY` on every connection. On by default: the
    /// workloads exchange small latency-sensitive frames, exactly the
    /// case Nagle batching hurts.
    pub nodelay: bool,
    /// Upper bound accepted for a frame's declared length. A prefix
    /// above this is a decode failure (stream treated as corrupt), so a
    /// hostile peer cannot make the reader allocate unboundedly.
    pub max_frame_bytes: usize,
    /// Peer supervision (heartbeats, silence detection, reconnect,
    /// rejoin acceptance). `None` — the default — reproduces the
    /// unsupervised PR 6/7 behavior bit for bit.
    pub supervision: Option<SupervisorOptions>,
}

impl Default for SocketClusterOptions {
    fn default() -> Self {
        SocketClusterOptions {
            mips: 1000.0,
            connect_timeout: Duration::from_secs(30),
            nodelay: true,
            max_frame_bytes: DEFAULT_MAX_FRAME,
            supervision: None,
        }
    }
}

/// Aggregate supervision activity of one rank's transport.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisionCounters {
    /// Heartbeat frames written to peers.
    pub heartbeats_sent: u64,
    /// Heartbeat frames received from peers.
    pub heartbeats_received: u64,
    /// Reconnect dials attempted by the supervisor.
    pub reconnect_attempts: u64,
    /// Connections re-established (dialed or accepted) after a loss.
    pub reconnects: u64,
}

/// What a reader/supervisor/acceptor thread delivers into the mailbox:
/// a decoded message or a membership event about the sending peer.
enum SocketEvent<M> {
    Data(M),
    /// Connection died without a goodbye: crash semantics.
    PeerGone,
    /// Goodbye frame received: clean shutdown, not a crash.
    PeerDeparted,
    /// Supervisor: peer silent past the miss deadline.
    PeerSuspected,
    /// A connection to this peer was (re)established.
    PeerBack,
}

/// Shared fault state of a socket cluster (loopback mode shares one
/// across ranks, matching the thread backend; multi-process mode gives
/// each process its own).
struct SocketFaults<M> {
    spec: Mutex<FaultSpec<M>>,
    counters: Mutex<Vec<FaultCounters>>,
    /// Deterministic per-hit counter handed to corruptors.
    salt: AtomicU64,
}

impl<M> SocketFaults<M> {
    fn new(spec: FaultSpec<M>, p: usize) -> Self {
        SocketFaults {
            spec: Mutex::new(spec),
            counters: Mutex::new(vec![FaultCounters::default(); p]),
            salt: AtomicU64::new(0),
        }
    }
}

/// State shared between the transport, its per-peer reader threads, and
/// (under supervision) the supervisor and acceptor threads.
struct Shared<M> {
    rank: usize,
    size: usize,
    max_frame: usize,
    epoch: Instant,
    mailbox: Arc<ThreadMailbox<SocketEvent<M>>>,
    /// Write halves of the mesh, by peer rank (`None` for self and for
    /// peers whose connection is down).
    writers: Vec<Mutex<Option<TcpStream>>>,
    /// Bumped on every (re)install; a reader whose generation is stale
    /// suppresses its exit event so a replaced connection's death cannot
    /// shadow the live one.
    conn_gen: Vec<AtomicU64>,
    /// Per-peer nanoseconds-since-epoch of the last frame of any kind.
    last_heard: Vec<AtomicU64>,
    /// Peers that said goodbye (clean shutdown observed).
    departed: Vec<AtomicBool>,
    bytes_received: AtomicU64,
    decode_failures: AtomicU64,
    /// Inbound connections dropped because their handshake was invalid,
    /// truncated, or stalled (cold-start HELLO phase and acceptor RESUME
    /// path). Peer-controlled input: counted, never fatal.
    handshake_rejects: AtomicU64,
    heartbeats_sent: AtomicU64,
    heartbeats_received: AtomicU64,
    reconnect_attempts: AtomicU64,
    reconnects: AtomicU64,
    /// Last-seen iteration each peer reported in a RESUME handshake.
    peer_progress: Vec<AtomicU64>,
    /// Our own progress, reported in RESUME replies.
    progress: AtomicU64,
    shutdown: AtomicBool,
}

impl<M> Shared<M> {
    fn new(rank: usize, size: usize, max_frame: usize, epoch: Instant) -> Self {
        Shared {
            rank,
            size,
            max_frame,
            epoch,
            mailbox: Arc::new(ThreadMailbox::new()),
            writers: (0..size).map(|_| Mutex::new(None)).collect(),
            conn_gen: (0..size).map(|_| AtomicU64::new(0)).collect(),
            last_heard: (0..size).map(|_| AtomicU64::new(0)).collect(),
            departed: (0..size).map(|_| AtomicBool::new(false)).collect(),
            bytes_received: AtomicU64::new(0),
            decode_failures: AtomicU64::new(0),
            handshake_rejects: AtomicU64::new(0),
            heartbeats_sent: AtomicU64::new(0),
            heartbeats_received: AtomicU64::new(0),
            reconnect_attempts: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            peer_progress: (0..size).map(|_| AtomicU64::new(0)).collect(),
            progress: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    fn t_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push_event(&self, peer: usize, ev: SocketEvent<M>) {
        self.mailbox.push(
            Instant::now(),
            Envelope {
                src: Rank(peer),
                tag: Tag(0),
                msg: ev,
            },
        );
    }
}

/// One decoded frame: `(kind, src, tag, payload)`.
type Frame = (u8, u32, u32, Vec<u8>);

/// Read one frame. `Ok(None)` on a clean EOF at a frame boundary; any
/// malformed header — including a declared length above `max_frame` —
/// is an error (the stream cannot be resynchronized).
fn read_frame(stream: &mut TcpStream, max_frame: usize) -> std::io::Result<Option<Frame>> {
    let mut len_raw = [0u8; 4];
    match stream.read_exact(&mut len_raw) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_raw) as usize;
    if !(FRAME_HEADER..=max_frame).contains(&len) {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("frame length {len} out of bounds (cap {max_frame})"),
        ));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    if body[0] != WIRE_VERSION {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("wire version {} (expected {WIRE_VERSION})", body[0]),
        ));
    }
    let kind = body[1];
    let src = u32::from_le_bytes(body[2..6].try_into().unwrap());
    let tag = u32::from_le_bytes(body[6..10].try_into().unwrap());
    let payload = body.split_off(FRAME_HEADER);
    Ok(Some((kind, src, tag, payload)))
}

/// Encode a frame into `out` (cleared first).
fn encode_frame(out: &mut Vec<u8>, kind: u8, src: u32, tag: u32, payload: &dyn Fn(&mut Vec<u8>)) {
    out.clear();
    out.extend_from_slice(&[0; 4]); // length, patched below
    out.push(WIRE_VERSION);
    out.push(kind);
    out.extend_from_slice(&src.to_le_bytes());
    out.extend_from_slice(&tag.to_le_bytes());
    payload(out);
    let len = (out.len() - 4) as u32;
    out[0..4].copy_from_slice(&len.to_le_bytes());
}

fn write_hello(stream: &mut TcpStream, rank: usize, size: usize) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(FRAME_OVERHEAD + 4);
    encode_frame(&mut frame, KIND_HELLO, rank as u32, 0, &|out| {
        out.extend_from_slice(&(size as u32).to_le_bytes());
    });
    stream.write_all(&frame)
}

/// Write a RESUME handshake frame carrying cluster size and our
/// last-seen iteration.
fn write_resume(
    stream: &mut TcpStream,
    rank: usize,
    size: usize,
    last_iter: u64,
) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(FRAME_OVERHEAD + 12);
    encode_frame(&mut frame, KIND_RESUME, rank as u32, 0, &|out| {
        out.extend_from_slice(&(size as u32).to_le_bytes());
        out.extend_from_slice(&last_iter.to_le_bytes());
    });
    stream.write_all(&frame)
}

fn bad_data(msg: String) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, msg)
}

/// Validate a handshake frame's cluster size and rank range.
fn check_identity(src: u32, peer_size: usize, size: usize) -> std::io::Result<usize> {
    if peer_size != size {
        return Err(bad_data(format!(
            "peer believes cluster size is {peer_size}, ours is {size}"
        )));
    }
    let peer = src as usize;
    if peer >= size {
        return Err(bad_data(format!(
            "peer rank {peer} out of range for size {size}"
        )));
    }
    Ok(peer)
}

/// Read and validate a `HELLO`, returning the peer's rank.
fn read_hello(stream: &mut TcpStream, size: usize, max_frame: usize) -> std::io::Result<usize> {
    let (kind, src, _tag, payload) = read_frame(stream, max_frame)?.ok_or_else(|| {
        std::io::Error::new(ErrorKind::UnexpectedEof, "peer closed during handshake")
    })?;
    if kind != KIND_HELLO {
        return Err(bad_data(format!("expected HELLO, got frame kind {kind}")));
    }
    let peer_size = payload
        .get(0..4)
        .map(|b| u32::from_le_bytes(b.try_into().unwrap()) as usize)
        .ok_or_else(|| bad_data("HELLO payload truncated".into()))?;
    check_identity(src, peer_size, size)
}

/// Read either a `RESUME` or (for symmetry with cold start) a `HELLO`,
/// returning the peer's rank and its reported last-seen iteration.
fn read_resume(
    stream: &mut TcpStream,
    size: usize,
    max_frame: usize,
) -> std::io::Result<(usize, u64)> {
    let (kind, src, _tag, payload) = read_frame(stream, max_frame)?.ok_or_else(|| {
        std::io::Error::new(ErrorKind::UnexpectedEof, "peer closed during resume")
    })?;
    if kind != KIND_RESUME && kind != KIND_HELLO {
        return Err(bad_data(format!(
            "expected RESUME or HELLO, got frame kind {kind}"
        )));
    }
    let peer_size = payload
        .get(0..4)
        .map(|b| u32::from_le_bytes(b.try_into().unwrap()) as usize)
        .ok_or_else(|| bad_data("handshake payload truncated".into()))?;
    let last_iter = payload
        .get(4..12)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        .unwrap_or(0);
    let peer = check_identity(src, peer_size, size)?;
    Ok((peer, last_iter))
}

/// Dial `addr` on a jittered exponential backoff, bounded by a total
/// deadline rather than an attempt count.
fn connect_with_retry(
    addr: SocketAddr,
    timeout: Duration,
    seed: u64,
) -> std::io::Result<TcpStream> {
    let deadline = Instant::now() + timeout;
    let mut backoff = Backoff::new(
        Duration::from_millis(2),
        Duration::from_millis(250),
        seed ^ 0x5bd1_e995,
    );
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                let now = Instant::now();
                if now >= deadline {
                    return Err(std::io::Error::new(
                        ErrorKind::TimedOut,
                        format!(
                            "connecting to peer {addr} timed out after {} attempts: {e}",
                            backoff.attempts() + 1
                        ),
                    ));
                }
                let delay = backoff.next_delay().min(deadline - now);
                std::thread::sleep(delay);
            }
        }
    }
}

/// Install a live connection to `peer`: bump the generation, swap in the
/// write half, refresh liveness, and spawn a reader on the read half.
fn install_connection<M: WireCodec + Send + 'static>(
    shared: &Arc<Shared<M>>,
    peer: usize,
    stream: TcpStream,
) -> std::io::Result<()> {
    let reader = stream.try_clone()?;
    let gen = shared.conn_gen[peer].fetch_add(1, AtomicOrdering::SeqCst) + 1;
    shared.departed[peer].store(false, AtomicOrdering::Relaxed);
    shared.last_heard[peer].store(shared.t_ns(), AtomicOrdering::Relaxed);
    *shared.writers[peer].lock() = Some(stream);
    spawn_reader(reader, peer, gen, Arc::clone(shared));
    Ok(())
}

/// One reader thread per peer connection: read frames, decode, deliver
/// into the shared mailbox. The thread must never panic — every failure
/// mode (EOF, reset, garbage) reduces to either "frame dropped",
/// "peer departed" (goodbye), or "peer gone" (crash).
fn spawn_reader<M: WireCodec + Send + 'static>(
    mut stream: TcpStream,
    peer: usize,
    gen: u64,
    shared: Arc<Shared<M>>,
) {
    std::thread::spawn(move || {
        let current = |shared: &Shared<M>| {
            shared.conn_gen[peer].load(AtomicOrdering::SeqCst) == gen
                && !shared.shutdown.load(AtomicOrdering::Relaxed)
        };
        loop {
            match read_frame(&mut stream, shared.max_frame) {
                Ok(Some((kind, src, tag, payload))) => {
                    if src as usize != peer {
                        // A frame claiming another origin on a
                        // point-to-point connection is corruption.
                        shared.decode_failures.fetch_add(1, AtomicOrdering::Relaxed);
                        continue;
                    }
                    shared.last_heard[peer].store(shared.t_ns(), AtomicOrdering::Relaxed);
                    match kind {
                        KIND_HEARTBEAT => {
                            shared
                                .heartbeats_received
                                .fetch_add(1, AtomicOrdering::Relaxed);
                        }
                        KIND_GOODBYE => {
                            if current(&shared) {
                                shared.push_event(peer, SocketEvent::PeerDeparted);
                            }
                            return;
                        }
                        KIND_DATA => {
                            shared.bytes_received.fetch_add(
                                (FRAME_OVERHEAD + payload.len()) as u64,
                                AtomicOrdering::Relaxed,
                            );
                            match crate::codec::decode_exact::<M>(&payload) {
                                Some(msg) => shared.mailbox.push(
                                    Instant::now(),
                                    Envelope {
                                        src: Rank(peer),
                                        tag: Tag(tag),
                                        msg: SocketEvent::Data(msg),
                                    },
                                ),
                                // Corrupt payload: the frame is lost,
                                // exactly like a datagram failing its
                                // checksum.
                                None => {
                                    shared.decode_failures.fetch_add(1, AtomicOrdering::Relaxed);
                                }
                            }
                        }
                        _ => {
                            shared.decode_failures.fetch_add(1, AtomicOrdering::Relaxed);
                        }
                    }
                }
                // EOF or connection error without a goodbye: the peer is
                // gone. Deliver the event (unless this connection was
                // already replaced) and exit; pending bounded waits keep
                // expiring and the driver's crash path takes over.
                Ok(None) | Err(_) => {
                    if current(&shared) {
                        shared.push_event(peer, SocketEvent::PeerGone);
                    }
                    return;
                }
            }
        }
    });
}

/// Dial `addr` once and run the RESUME handshake as `shared.rank`.
/// Returns the established stream after recording the peer's progress.
fn resume_dial<M>(
    shared: &Shared<M>,
    peer: usize,
    addr: SocketAddr,
    nodelay: bool,
) -> std::io::Result<TcpStream> {
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(nodelay)?;
    s.set_read_timeout(Some(HANDSHAKE_READ_TIMEOUT))?;
    write_resume(
        &mut s,
        shared.rank,
        shared.size,
        shared.progress.load(AtomicOrdering::Relaxed),
    )?;
    let (replied, their_iter) = read_resume(&mut s, shared.size, shared.max_frame)?;
    if replied != peer {
        return Err(bad_data(format!(
            "dialed rank {peer} for resume but rank {replied} answered"
        )));
    }
    shared.peer_progress[peer].store(their_iter, AtomicOrdering::Relaxed);
    s.set_read_timeout(None)?;
    Ok(s)
}

/// The supervisor thread: heartbeats to live peers, silence detection,
/// and backoff-bounded reconnects toward peers this rank originally
/// dialed (`peer < rank`).
fn spawn_supervisor<M: WireCodec + Send + 'static>(
    shared: Arc<Shared<M>>,
    sup: SupervisorOptions,
    addrs: Vec<SocketAddr>,
    nodelay: bool,
) {
    std::thread::spawn(move || {
        let me = shared.rank;
        let size = shared.size;
        // Per-peer suspicion latch and reconnect schedule
        // (backoff, next-attempt time, attempts so far this outage).
        let mut suspected = vec![false; size];
        let mut redial: Vec<Option<(Backoff, Instant, u32)>> = (0..size).map(|_| None).collect();
        let mut hb = Vec::with_capacity(FRAME_OVERHEAD);
        encode_frame(&mut hb, KIND_HEARTBEAT, me as u32, 0, &|_| {});
        let miss_ns = sup.miss_deadline.as_nanos() as u64;
        loop {
            std::thread::sleep(sup.heartbeat_interval);
            if shared.shutdown.load(AtomicOrdering::Relaxed) {
                return;
            }
            for peer in 0..size {
                if peer == me || shared.departed[peer].load(AtomicOrdering::Relaxed) {
                    continue;
                }
                let alive = {
                    let mut w = shared.writers[peer].lock();
                    match w.as_mut() {
                        Some(s) => {
                            if s.write_all(&hb).is_ok() {
                                shared.heartbeats_sent.fetch_add(1, AtomicOrdering::Relaxed);
                                true
                            } else {
                                // Dead write half: drop it; the reader
                                // reports the crash on its own.
                                *w = None;
                                false
                            }
                        }
                        None => false,
                    }
                };
                if alive {
                    redial[peer] = None;
                    let silent_ns = shared
                        .t_ns()
                        .saturating_sub(shared.last_heard[peer].load(AtomicOrdering::Relaxed));
                    if silent_ns > miss_ns {
                        if !suspected[peer] {
                            suspected[peer] = true;
                            shared.push_event(peer, SocketEvent::PeerSuspected);
                        }
                    } else {
                        suspected[peer] = false;
                    }
                } else if peer < me {
                    // Reconnect duty follows the original dial
                    // direction, so a restarted peer is re-dialed by
                    // exactly the ranks that dialed it at cold start.
                    let seed = sup.seed ^ ((me as u64) << 32) ^ peer as u64;
                    let (bo, next_at, attempts) = redial[peer].get_or_insert_with(|| {
                        (
                            Backoff::new(sup.backoff_base, sup.backoff_cap, seed),
                            Instant::now(),
                            0,
                        )
                    });
                    if *attempts >= sup.retry_budget || Instant::now() < *next_at {
                        continue;
                    }
                    *attempts += 1;
                    shared
                        .reconnect_attempts
                        .fetch_add(1, AtomicOrdering::Relaxed);
                    match resume_dial(&shared, peer, addrs[peer], nodelay) {
                        Ok(stream) => {
                            if install_connection(&shared, peer, stream).is_ok() {
                                shared.reconnects.fetch_add(1, AtomicOrdering::Relaxed);
                                suspected[peer] = false;
                                redial[peer] = None;
                                shared.push_event(peer, SocketEvent::PeerBack);
                            }
                        }
                        Err(_) => {
                            *next_at = Instant::now() + bo.next_delay();
                        }
                    }
                }
            }
        }
    });
}

/// The acceptor thread: admits post-handshake connections (RESUME from a
/// restarted peer, or a supervisor redial) back into the mesh.
fn spawn_acceptor<M: WireCodec + Send + 'static>(
    shared: Arc<Shared<M>>,
    listener: TcpListener,
    poll: Duration,
    nodelay: bool,
) {
    std::thread::spawn(move || {
        if listener.set_nonblocking(true).is_err() {
            return;
        }
        loop {
            if shared.shutdown.load(AtomicOrdering::Relaxed) {
                return;
            }
            match listener.accept() {
                Ok((mut s, _)) => {
                    let admitted = (|| -> std::io::Result<()> {
                        s.set_nonblocking(false)?;
                        s.set_nodelay(nodelay)?;
                        s.set_read_timeout(Some(HANDSHAKE_READ_TIMEOUT))?;
                        let (peer, their_iter) =
                            read_resume(&mut s, shared.size, shared.max_frame)?;
                        if peer == shared.rank {
                            return Err(bad_data("peer claims our own rank".into()));
                        }
                        write_resume(
                            &mut s,
                            shared.rank,
                            shared.size,
                            shared.progress.load(AtomicOrdering::Relaxed),
                        )?;
                        s.set_read_timeout(None)?;
                        shared.peer_progress[peer].store(their_iter, AtomicOrdering::Relaxed);
                        install_connection(&shared, peer, s)?;
                        shared.reconnects.fetch_add(1, AtomicOrdering::Relaxed);
                        shared.push_event(peer, SocketEvent::PeerBack);
                        Ok(())
                    })();
                    // A bogus dialer is dropped and counted; the mesh
                    // state is untouched.
                    if admitted.is_err() {
                        shared
                            .handshake_rejects
                            .fetch_add(1, AtomicOrdering::Relaxed);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(poll),
                Err(_) => std::thread::sleep(poll),
            }
        }
    });
}

/// A rank's endpoint on a socket-backed cluster.
pub struct SocketTransport<M> {
    rank: Rank,
    size: usize,
    opts: SocketClusterOptions,
    shared: Arc<Shared<M>>,
    epoch: Instant,
    rec: Option<Box<dyn Recorder>>,
    faults: Option<Arc<SocketFaults<M>>>,
    /// Frame bytes actually written to the wire by this rank.
    bytes_sent: u64,
    /// Peers whose connection has been observed down (membership events
    /// already emitted).
    peer_down: Vec<bool>,
    /// Peers that departed cleanly (subset of `peer_down`).
    peer_departed: Vec<bool>,
    /// Peers currently marked suspected by the supervisor.
    peer_suspected: Vec<bool>,
    scratch: Vec<u8>,
}

impl<M: WireCodec + Send + 'static> SocketTransport<M> {
    /// Build a transport from an already-bound listener and the full
    /// address list. `addrs[rank]` must be this process's own listener
    /// address; the call blocks until the full mesh is up.
    fn establish(
        rank: usize,
        listener: TcpListener,
        addrs: &[SocketAddr],
        opts: SocketClusterOptions,
        faults: Option<Arc<SocketFaults<M>>>,
        epoch: Instant,
    ) -> std::io::Result<Self> {
        let size = addrs.len();
        assert!(rank < size, "rank {rank} out of range for {size} addrs");
        let mut conns: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();

        let shared = Arc::new(Shared::new(rank, size, opts.max_frame_bytes, epoch));

        // Phase 1: dial every lower rank, in rank order. Failures here
        // are fatal: these are *our* configured peers, so a broken dial
        // means the cluster spec is wrong or the peer is down, and the
        // handshake read timeout bounds how long a stalled accept side
        // can hold us.
        for peer in 0..rank {
            let mut s = connect_with_retry(
                addrs[peer],
                opts.connect_timeout,
                (rank as u64) << 16 | peer as u64,
            )?;
            s.set_nodelay(opts.nodelay)?;
            s.set_read_timeout(Some(HANDSHAKE_READ_TIMEOUT))?;
            write_hello(&mut s, rank, size)?;
            let replied = read_hello(&mut s, size, opts.max_frame_bytes)?;
            if replied != peer {
                return Err(bad_data(format!(
                    "dialed rank {peer} but rank {replied} answered"
                )));
            }
            s.set_read_timeout(None)?;
            conns[peer] = Some(s);
        }

        // Phase 2: accept connections until every higher rank has
        // identified itself with a valid HELLO. Unlike phase 1, each
        // inbound connection is peer-controlled input: one that stalls,
        // closes mid-handshake, claims a bogus rank, or duplicates an
        // already-admitted peer is dropped and counted — it must not
        // tear down this rank's whole establish (which would cascade
        // into the cluster harness as a panic).
        let mut missing = size - rank - 1;
        while missing > 0 {
            let (mut s, _) = listener.accept()?;
            let admitted = (|| -> std::io::Result<usize> {
                s.set_nodelay(opts.nodelay)?;
                s.set_read_timeout(Some(HANDSHAKE_READ_TIMEOUT))?;
                let peer = read_hello(&mut s, size, opts.max_frame_bytes)?;
                if peer <= rank || conns[peer].is_some() {
                    return Err(bad_data(format!("unexpected HELLO from rank {peer}")));
                }
                write_hello(&mut s, rank, size)?;
                s.set_read_timeout(None)?;
                Ok(peer)
            })();
            match admitted {
                Ok(peer) => {
                    conns[peer] = Some(s);
                    missing -= 1;
                }
                Err(_) => {
                    shared
                        .handshake_rejects
                        .fetch_add(1, AtomicOrdering::Relaxed);
                }
            }
        }

        for (peer, conn) in conns.into_iter().enumerate() {
            if let Some(conn) = conn {
                install_connection(&shared, peer, conn)?;
            }
        }
        if let Some(sup) = opts.supervision.clone() {
            let poll = sup.heartbeat_interval;
            spawn_acceptor(Arc::clone(&shared), listener, poll, opts.nodelay);
            spawn_supervisor(Arc::clone(&shared), sup, addrs.to_vec(), opts.nodelay);
        }
        // Without supervision the listener drops here, exactly as before.

        Ok(SocketTransport {
            rank: Rank(rank),
            size,
            opts,
            shared,
            epoch,
            rec: None,
            faults,
            bytes_sent: 0,
            peer_down: vec![false; size],
            peer_departed: vec![false; size],
            peer_suspected: vec![false; size],
            scratch: Vec::new(),
        })
    }
}

impl<M> SocketTransport<M> {
    /// Attach a structured telemetry sink for this rank (same contract
    /// as
    /// [`ThreadTransport::set_recorder`](crate::ThreadTransport::set_recorder)).
    pub fn set_recorder(&mut self, rec: Box<dyn Recorder>) {
        self.rec = Some(rec);
    }

    /// How many times this rank's timed receives have blocked on the
    /// mailbox condvar (the zero-spin property carries over from the
    /// thread backend — frames arriving over TCP notify the same
    /// condvar).
    pub fn timed_waits(&self) -> u64 {
        self.shared
            .mailbox
            .timed_waits
            .load(AtomicOrdering::Relaxed)
    }

    /// Actual frame bytes this rank has written to and read from the
    /// wire for data frames, including framing overhead:
    /// `(sent, received)`. Control frames (heartbeats, handshakes,
    /// goodbyes) are not counted.
    pub fn bytes_on_wire(&self) -> (u64, u64) {
        (
            self.bytes_sent,
            self.shared.bytes_received.load(AtomicOrdering::Relaxed),
        )
    }

    /// Frames discarded because their payload failed to decode.
    pub fn decode_failures(&self) -> u64 {
        self.shared.decode_failures.load(AtomicOrdering::Relaxed)
    }

    /// Inbound connections dropped because their handshake was invalid,
    /// truncated, or stalled — across both the cold-start HELLO phase
    /// and the supervised acceptor's RESUME path.
    pub fn handshake_rejects(&self) -> u64 {
        self.shared.handshake_rejects.load(AtomicOrdering::Relaxed)
    }

    /// Peers whose TCP connection has been observed down so far (both
    /// crashes and clean departures).
    pub fn disconnected_peers(&self) -> Vec<Rank> {
        self.peer_down
            .iter()
            .enumerate()
            .filter_map(|(r, down)| down.then_some(Rank(r)))
            .collect()
    }

    /// Peers that announced a clean shutdown with a goodbye frame.
    pub fn departed_peers(&self) -> Vec<Rank> {
        self.peer_departed
            .iter()
            .enumerate()
            .filter_map(|(r, d)| d.then_some(Rank(r)))
            .collect()
    }

    /// Peers currently suspected by the supervisor (silent past the
    /// miss deadline but not yet observed disconnected).
    pub fn suspected_peers(&self) -> Vec<Rank> {
        self.peer_suspected
            .iter()
            .enumerate()
            .filter_map(|(r, s)| s.then_some(Rank(r)))
            .collect()
    }

    /// The last-seen iteration `peer` reported in a RESUME handshake
    /// (0 if it never resumed against us).
    pub fn peer_progress(&self, peer: Rank) -> u64 {
        self.shared.peer_progress[peer.0].load(AtomicOrdering::Relaxed)
    }

    /// The highest iteration any peer reported via RESUME — a restarted
    /// rank's estimate of how far the mesh has advanced without it.
    pub fn mesh_progress(&self) -> u64 {
        self.shared
            .peer_progress
            .iter()
            .map(|p| p.load(AtomicOrdering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Aggregate supervision activity so far.
    pub fn supervision_counters(&self) -> SupervisionCounters {
        SupervisionCounters {
            heartbeats_sent: self.shared.heartbeats_sent.load(AtomicOrdering::Relaxed),
            heartbeats_received: self
                .shared
                .heartbeats_received
                .load(AtomicOrdering::Relaxed),
            reconnect_attempts: self.shared.reconnect_attempts.load(AtomicOrdering::Relaxed),
            reconnects: self.shared.reconnects.load(AtomicOrdering::Relaxed),
        }
    }

    /// Tear down every connection abruptly — no goodbye frames — so
    /// peers observe crash semantics. Test-only stand-in for SIGKILL.
    #[doc(hidden)]
    pub fn simulate_crash(&mut self) {
        for w in &self.shared.writers {
            if let Some(s) = w.lock().take() {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }

    fn t_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn mark(&mut self, t_ns: u64, m: Mark) {
        let rank = self.rank.0 as u32;
        if let Some(r) = self.rec.as_deref_mut() {
            r.mark(rank, t_ns, m);
        }
    }

    /// Record a peer's disconnect exactly once. A peer that said
    /// goodbye departed cleanly; anything else is the crash-model event
    /// the recovery path consumes.
    fn note_peer_gone(&mut self, peer: Rank) {
        if self.peer_down[peer.0] {
            return;
        }
        self.peer_down[peer.0] = true;
        self.peer_suspected[peer.0] = false;
        let t_ns = self.t_ns();
        if self.peer_departed[peer.0] {
            return; // goodbye already marked the departure
        }
        self.mark(
            t_ns,
            Mark::PeerCrashed {
                peer: peer.0 as u32,
            },
        );
    }

    fn note_peer_departed(&mut self, peer: Rank) {
        if self.peer_departed[peer.0] {
            return;
        }
        self.peer_departed[peer.0] = true;
        self.peer_down[peer.0] = true;
        self.peer_suspected[peer.0] = false;
        let t_ns = self.t_ns();
        self.mark(
            t_ns,
            Mark::PeerDeparted {
                peer: peer.0 as u32,
            },
        );
    }

    fn note_peer_back(&mut self, peer: Rank) {
        let was_down = self.peer_down[peer.0];
        self.peer_down[peer.0] = false;
        self.peer_departed[peer.0] = false;
        self.peer_suspected[peer.0] = false;
        if was_down {
            let t_ns = self.t_ns();
            self.mark(
                t_ns,
                Mark::PeerRecovered {
                    peer: peer.0 as u32,
                },
            );
        }
    }

    /// Turn a mailbox event into a deliverable envelope, or consume it
    /// as a membership notification.
    fn service(&mut self, env: Envelope<SocketEvent<M>>) -> Option<Envelope<M>> {
        match env.msg {
            SocketEvent::Data(msg) => {
                self.peer_suspected[env.src.0] = false;
                Some(Envelope {
                    src: env.src,
                    tag: env.tag,
                    msg,
                })
            }
            SocketEvent::PeerGone => {
                self.note_peer_gone(env.src);
                None
            }
            SocketEvent::PeerDeparted => {
                self.note_peer_departed(env.src);
                None
            }
            SocketEvent::PeerSuspected => {
                if !self.peer_down[env.src.0] && !self.peer_suspected[env.src.0] {
                    self.peer_suspected[env.src.0] = true;
                    let t_ns = self.t_ns();
                    self.mark(
                        t_ns,
                        Mark::PeerSuspected {
                            peer: env.src.0 as u32,
                        },
                    );
                }
                None
            }
            SocketEvent::PeerBack => {
                self.note_peer_back(env.src);
                None
            }
        }
    }
}

impl<M: WireCodec + WireSize + Clone + Send + 'static> SocketTransport<M> {
    fn mark_recv(&mut self, env: &Envelope<M>) {
        if self.rec.is_some() {
            let bytes = (env.msg.wire_size() + FRAME_OVERHEAD) as u64;
            let t_ns = self.epoch.elapsed().as_nanos() as u64;
            self.mark(
                t_ns,
                Mark::MsgRecv {
                    from: env.src.0 as u32,
                    bytes,
                },
            );
        }
    }
}

impl<M: WireCodec + WireSize + Clone + Send + 'static> Transport for SocketTransport<M> {
    type Msg = M;

    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&mut self, to: Rank, tag: Tag, msg: M) {
        assert!(to.0 < self.size, "send to out-of-range rank {to}");
        assert_ne!(to, self.rank, "self-sends are not modelled");
        // The fault layer reasons in modelled bytes (payload + modelled
        // header), like the other backends; wire marks below use real
        // frame bytes.
        let model_bytes = msg.wire_size() + HEADER_BYTES;
        let t_now = SimTime::from_nanos(self.t_ns());
        let mut extra_copies = 0u32;
        let mut msg = msg;
        let mut flip_salt = None;
        if let Some(fs) = &self.faults {
            let ctx = MsgCtx {
                src: self.rank.0,
                dst: to.0,
                bytes: model_bytes,
                now: t_now,
            };
            let fs = Arc::clone(fs);
            let mut spec = fs.spec.lock();
            let mut fate = spec.model.fate(&ctx);
            if spec.crashes.is_down(to.0, t_now) {
                fate.deliver = false;
            }
            if !fate.deliver {
                fs.counters.lock()[self.rank.0].dropped += 1;
                let t_ns = self.t_ns();
                self.mark(
                    t_ns,
                    Mark::MsgSent {
                        to: to.0 as u32,
                        bytes: model_bytes as u64,
                    },
                );
                self.mark(
                    t_ns,
                    Mark::MessageDropped {
                        to: to.0 as u32,
                        bytes: model_bytes as u64,
                    },
                );
                return;
            }
            {
                let mut counters = fs.counters.lock();
                counters[self.rank.0].delivered += 1;
                counters[self.rank.0].duplicated += u64::from(fate.extra_copies);
            }
            extra_copies = fate.extra_copies;
            if fate.corrupt_amp > 0.0 {
                let salt = fs.salt.fetch_add(1, AtomicOrdering::Relaxed);
                match spec.corruptor.as_mut() {
                    // Payload-aware corruption, identical to the sim
                    // backend's semantics.
                    Some(c) => c(&mut msg, fate.corrupt_amp, salt),
                    // No corruptor: flip one byte of the encoded payload
                    // before the write — frame-layer corruption. The
                    // receiver either decodes a perturbed value or drops
                    // the frame as undecodable.
                    None => flip_salt = Some(salt),
                }
            }
        }

        let mut scratch = std::mem::take(&mut self.scratch);
        encode_frame(&mut scratch, KIND_DATA, self.rank.0 as u32, tag.0, &|out| {
            msg.encode(out)
        });
        if let Some(salt) = flip_salt {
            if scratch.len() > FRAME_OVERHEAD {
                let span = scratch.len() - FRAME_OVERHEAD;
                let idx = FRAME_OVERHEAD + (salt as usize) % span;
                scratch[idx] ^= 0xA5;
            }
        }

        let frame_bytes = scratch.len() as u64;
        let mut wrote = false;
        {
            let mut w = self.shared.writers[to.0].lock();
            if let Some(stream) = w.as_mut() {
                let mut ok = true;
                for _ in 0..=extra_copies {
                    if stream.write_all(&scratch).is_err() {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    wrote = true;
                } else {
                    *w = None;
                }
            }
        }
        if wrote {
            self.bytes_sent += frame_bytes * u64::from(extra_copies + 1);
        }
        self.scratch = scratch;

        let t_ns = self.t_ns();
        if !wrote {
            // The connection is gone (or already marked down): the frame
            // is lost on the floor, like a datagram to a dead host.
            self.note_peer_gone(to);
            self.mark(
                t_ns,
                Mark::MessageDropped {
                    to: to.0 as u32,
                    bytes: frame_bytes,
                },
            );
            return;
        }
        self.mark(
            t_ns,
            Mark::MsgSent {
                to: to.0 as u32,
                bytes: frame_bytes,
            },
        );
        if extra_copies > 0 {
            self.mark(
                t_ns,
                Mark::MessageDuplicated {
                    to: to.0 as u32,
                    copies: extra_copies,
                },
            );
        }
    }

    fn try_recv(&mut self) -> Option<Envelope<M>> {
        loop {
            let event = self.shared.mailbox.try_pop()?;
            if let Some(env) = self.service(event) {
                self.mark_recv(&env);
                return Some(env);
            }
        }
    }

    fn recv(&mut self) -> Envelope<M> {
        loop {
            let event = self.shared.mailbox.pop_blocking();
            if let Some(env) = self.service(event) {
                self.mark_recv(&env);
                return env;
            }
        }
    }

    fn recv_timeout(&mut self, timeout: SimDuration) -> Option<Envelope<M>> {
        // Same discipline as the thread backend: one immediate poll, a
        // zero timeout degrades to that poll, then bounded waits to one
        // absolute deadline. Membership events consume none of the
        // budget's precision — the wait resumes to the same deadline.
        if let Some(env) = self.try_recv() {
            return Some(env);
        }
        if timeout == SimDuration::ZERO {
            return None;
        }
        let armed = Instant::now();
        let deadline = armed + Duration::from_nanos(timeout.as_nanos());
        loop {
            match self.shared.mailbox.pop_deadline(deadline) {
                None => {
                    let waited_ns = armed.elapsed().as_nanos() as u64;
                    let t_ns = self.t_ns();
                    self.mark(t_ns, Mark::TimerFired { waited_ns });
                    return None;
                }
                Some(event) => {
                    if let Some(env) = self.service(event) {
                        let waited_ns = armed.elapsed().as_nanos() as u64;
                        let t_ns = self.t_ns();
                        self.mark(
                            t_ns,
                            Mark::RecvWakeup {
                                from: env.src.0 as u32,
                                waited_ns,
                            },
                        );
                        self.mark_recv(&env);
                        return Some(env);
                    }
                }
            }
        }
    }

    fn sleep(&mut self, d: SimDuration) {
        if d > SimDuration::ZERO {
            std::thread::sleep(Duration::from_nanos(d.as_nanos()));
        }
    }

    fn fault_counters(&self) -> FaultCounters {
        self.faults
            .as_ref()
            .map(|fs| fs.counters.lock()[self.rank.0])
            .unwrap_or_default()
    }

    fn compute(&mut self, ops: u64) {
        if ops == 0 {
            return;
        }
        let secs = ops as f64 / (self.opts.mips * 1e6);
        std::thread::sleep(Duration::from_secs_f64(secs));
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn note_progress(&mut self, iter: u64) {
        self.shared.progress.store(iter, AtomicOrdering::Relaxed);
    }

    fn recorder(&mut self) -> Option<&mut (dyn Recorder + 'static)> {
        self.rec.as_deref_mut()
    }
}

impl<M> Drop for SocketTransport<M> {
    fn drop(&mut self) {
        // Stop the supervisor/acceptor first so a half-torn-down mesh
        // isn't "repaired" mid-exit.
        self.shared.shutdown.store(true, AtomicOrdering::Relaxed);
        // Announce a clean exit, then half-close every write side so
        // peer readers see goodbye + EOF promptly (in-flight data is
        // still delivered first); our own reader threads exit when
        // peers do the same.
        let mut goodbye = Vec::with_capacity(FRAME_OVERHEAD);
        encode_frame(&mut goodbye, KIND_GOODBYE, self.rank.0 as u32, 0, &|_| {});
        for w in &self.shared.writers {
            if let Some(s) = w.lock().as_mut() {
                let _ = s.write_all(&goodbye);
                let _ = s.shutdown(Shutdown::Write);
            }
        }
    }
}

/// Bind `p` loopback listeners on ephemeral ports.
fn bind_loopback(p: usize) -> std::io::Result<(Vec<TcpListener>, Vec<SocketAddr>)> {
    let mut listeners = Vec::with_capacity(p);
    let mut addrs = Vec::with_capacity(p);
    for _ in 0..p {
        let l = TcpListener::bind(("127.0.0.1", 0))?;
        addrs.push(l.local_addr()?);
        listeners.push(l);
    }
    Ok((listeners, addrs))
}

/// Run one closure per rank on `p` OS threads connected by a full mesh
/// of real loopback TCP sockets.
///
/// Mirrors [`run_thread_cluster`](crate::run_thread_cluster): same
/// closure signature, results in rank order, panics propagate. The
/// difference is that every message crosses the kernel's TCP stack.
pub fn run_socket_cluster<M, R, F>(p: usize, opts: SocketClusterOptions, f: F) -> Vec<R>
where
    M: WireCodec + WireSize + Clone + Send + 'static,
    R: Send,
    F: Fn(&mut SocketTransport<M>) -> R + Send + Sync,
{
    run_socket_cluster_inner(p, opts, None, f)
}

/// [`run_socket_cluster`] with a frame-layer fault spec shared by all
/// ranks.
///
/// Like the thread backend, fates depend on the real interleaving of
/// sends, so runs are not reproducible event-for-event; deterministic
/// *aggregates* (e.g. everything dropped under total loss) still are.
pub fn run_socket_cluster_with_faults<M, R, F>(
    p: usize,
    opts: SocketClusterOptions,
    faults: FaultSpec<M>,
    f: F,
) -> Vec<R>
where
    M: WireCodec + WireSize + Clone + Send + 'static,
    R: Send,
    F: Fn(&mut SocketTransport<M>) -> R + Send + Sync,
{
    run_socket_cluster_inner(p, opts, Some(Arc::new(SocketFaults::new(faults, p))), f)
}

fn run_socket_cluster_inner<M, R, F>(
    p: usize,
    opts: SocketClusterOptions,
    faults: Option<Arc<SocketFaults<M>>>,
    f: F,
) -> Vec<R>
where
    M: WireCodec + WireSize + Clone + Send + 'static,
    R: Send,
    F: Fn(&mut SocketTransport<M>) -> R + Send + Sync,
{
    assert!(p >= 1, "need at least one rank");
    let (listeners, addrs) = bind_loopback(p).expect("binding loopback listeners failed");
    let epoch = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(r, listener)| {
                let addrs = addrs.clone();
                let opts = opts.clone();
                let faults = faults.clone();
                let f = &f;
                s.spawn(move || {
                    let mut t =
                        SocketTransport::establish(r, listener, &addrs, opts, faults, epoch)
                            .expect("socket mesh handshake failed");
                    f(&mut t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

/// Join a multi-process socket cluster as `rank`, binding `addrs[rank]`
/// locally and meshing with the other processes (which must run the same
/// call with their own rank).
///
/// This is the entrypoint `examples/socket_cluster.rs --rank N --peers …`
/// uses to run one rank per terminal; the returned transport is the same
/// type the loopback runner hands its closures.
pub fn connect_socket_cluster<M>(
    rank: usize,
    addrs: &[SocketAddr],
    opts: SocketClusterOptions,
) -> std::io::Result<SocketTransport<M>>
where
    M: WireCodec + Send + 'static,
{
    assert!(
        rank < addrs.len(),
        "rank {rank} out of range for {} peers",
        addrs.len()
    );
    let listener = TcpListener::bind(addrs[rank])?;
    SocketTransport::establish(rank, listener, addrs, opts, None, Instant::now())
}

/// [`connect_socket_cluster`] with a process-local fault spec (each
/// process draws its own fates for the frames it sends).
pub fn connect_socket_cluster_with_faults<M>(
    rank: usize,
    addrs: &[SocketAddr],
    opts: SocketClusterOptions,
    faults: FaultSpec<M>,
) -> std::io::Result<SocketTransport<M>>
where
    M: WireCodec + Send + 'static,
{
    assert!(
        rank < addrs.len(),
        "rank {rank} out of range for {} peers",
        addrs.len()
    );
    let p = addrs.len();
    let listener = TcpListener::bind(addrs[rank])?;
    SocketTransport::establish(
        rank,
        listener,
        addrs,
        opts,
        Some(Arc::new(SocketFaults::new(faults, p))),
        Instant::now(),
    )
}

/// Re-enter an already-running mesh as a restarted `rank`.
///
/// Binds `addrs[rank]`, re-dials every *lower* rank with a RESUME
/// handshake carrying `last_iter` (the furthest iteration this process
/// had confirmed before it died, 0 for a cold restart), and waits up to
/// `opts.connect_timeout` for every *higher* rank's supervisor to
/// re-dial us — the same rank-ordered induction as cold start, so rejoin
/// cannot deadlock against it. Requires the surviving peers to be
/// running with supervision enabled (their acceptors admit us); our own
/// supervisor/acceptor are spawned with `opts.supervision`
/// (or defaults if unset, since a rejoining rank must accept redials).
///
/// Returns once the mesh is fully re-established, or with however many
/// connections came up when the timeout expires — the fault-tolerant
/// driver handles a partial mesh the same way it handles crashed peers.
pub fn rejoin_socket_cluster<M>(
    rank: usize,
    addrs: &[SocketAddr],
    opts: SocketClusterOptions,
    last_iter: u64,
) -> std::io::Result<SocketTransport<M>>
where
    M: WireCodec + Send + 'static,
{
    assert!(
        rank < addrs.len(),
        "rank {rank} out of range for {} peers",
        addrs.len()
    );
    let size = addrs.len();
    let listener = TcpListener::bind(addrs[rank])?;
    let epoch = Instant::now();
    let shared = Arc::new(Shared::<M>::new(rank, size, opts.max_frame_bytes, epoch));
    shared.progress.store(last_iter, AtomicOrdering::Relaxed);

    // Re-dial our original dialees (every lower rank). They are alive
    // and listening, so retry within the connect timeout covers slow
    // accept loops, not cold starts.
    let deadline = Instant::now() + opts.connect_timeout;
    for (peer, &addr) in addrs.iter().enumerate().take(rank) {
        let mut bo = Backoff::new(
            Duration::from_millis(5),
            Duration::from_millis(250),
            (rank as u64) << 16 | peer as u64,
        );
        loop {
            match resume_dial(&shared, peer, addr, opts.nodelay) {
                Ok(s) => {
                    install_connection(&shared, peer, s)?;
                    shared.reconnects.fetch_add(1, AtomicOrdering::Relaxed);
                    break;
                }
                Err(e) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(std::io::Error::new(
                            ErrorKind::TimedOut,
                            format!("resume dial to rank {peer} timed out: {e}"),
                        ));
                    }
                    std::thread::sleep(bo.next_delay().min(deadline - now));
                }
            }
        }
    }

    let sup = opts.supervision.clone().unwrap_or_default();
    let poll = sup.heartbeat_interval;
    spawn_acceptor(Arc::clone(&shared), listener, poll, opts.nodelay);
    spawn_supervisor(Arc::clone(&shared), sup, addrs.to_vec(), opts.nodelay);

    // Higher ranks re-dial us via their supervisors; wait (bounded) for
    // the mesh to fill in before handing the transport to the driver.
    while Instant::now() < deadline {
        let missing = (rank + 1..size).any(|p| shared.writers[p].lock().is_none());
        if !missing {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    let mut t = SocketTransport {
        rank: Rank(rank),
        size,
        opts,
        shared,
        epoch,
        rec: None,
        faults: None,
        bytes_sent: 0,
        peer_down: vec![false; size],
        peer_departed: vec![false; size],
        peer_suspected: vec![false; size],
        scratch: Vec::new(),
    };
    // Peers whose connection is still absent start in the down state so
    // sends are dropped quietly and recovery marks fire on arrival.
    for p in 0..size {
        if p != rank && t.shared.writers[p].lock().is_none() {
            t.peer_down[p] = true;
            t.peer_departed[p] = true; // suppress a spurious crash mark
        }
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{Loss, NoFaults};

    /// Dial `addr` as a raw client, retrying while nothing listens there
    /// yet: a test that releases a port and hands it to a rank spawned on
    /// another thread must not race that rank's `bind`.
    fn dial_when_bound(addr: SocketAddr) -> TcpStream {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match TcpStream::connect(addr) {
                Ok(s) => return s,
                Err(e) if e.kind() == ErrorKind::ConnectionRefused && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => panic!("dial {addr}: {e}"),
            }
        }
    }

    fn supervised(interval_ms: u64, miss_ms: u64) -> SocketClusterOptions {
        SocketClusterOptions {
            supervision: Some(SupervisorOptions {
                heartbeat_interval: Duration::from_millis(interval_ms),
                miss_deadline: Duration::from_millis(miss_ms),
                ..SupervisorOptions::default()
            }),
            ..SocketClusterOptions::default()
        }
    }

    #[test]
    fn ranks_and_size_are_correct() {
        let ids = run_socket_cluster::<u64, _, _>(3, SocketClusterOptions::default(), |t| {
            (t.rank().0, t.size())
        });
        assert_eq!(ids, vec![(0, 3), (1, 3), (2, 3)]);
    }

    #[test]
    fn messages_arrive_with_content_intact() {
        let sums = run_socket_cluster::<u64, _, _>(4, SocketClusterOptions::default(), |t| {
            t.broadcast(Tag(0), 10 + t.rank().0 as u64);
            (0..t.size() - 1).map(|_| t.recv().msg).sum::<u64>()
        });
        let total: u64 = 10 + 11 + 12 + 13;
        for (me, s) in sums.iter().enumerate() {
            assert_eq!(*s, total - (10 + me as u64));
        }
    }

    #[test]
    fn vec_payloads_round_trip_through_the_wire() {
        let got = run_socket_cluster::<Vec<f64>, _, _>(2, SocketClusterOptions::default(), |t| {
            if t.rank().0 == 0 {
                t.send(Rank(1), Tag(7), vec![1.5, -2.25, f64::MAX]);
                Vec::new()
            } else {
                let env = t.recv();
                assert_eq!(env.src, Rank(0));
                assert_eq!(env.tag, Tag(7));
                env.msg
            }
        });
        assert_eq!(got[1], vec![1.5, -2.25, f64::MAX]);
    }

    #[test]
    fn per_pair_fifo_order_is_preserved() {
        let got = run_socket_cluster::<u64, _, _>(2, SocketClusterOptions::default(), |t| {
            if t.rank().0 == 0 {
                for i in 0..100 {
                    t.send(Rank(1), Tag(0), i);
                }
                Vec::new()
            } else {
                (0..100).map(|_| t.recv().msg).collect::<Vec<_>>()
            }
        });
        assert_eq!(got[1], (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn bytes_on_wire_match_between_sender_and_receiver() {
        let counts =
            run_socket_cluster::<Vec<f64>, _, _>(2, SocketClusterOptions::default(), |t| {
                if t.rank().0 == 0 {
                    for _ in 0..5 {
                        t.send(Rank(1), Tag(0), vec![0.5; 16]);
                    }
                    // Wait for the ack so the byte counters are settled.
                    let _ = t.recv();
                    t.bytes_on_wire()
                } else {
                    for _ in 0..5 {
                        let _ = t.recv();
                    }
                    t.send(Rank(0), Tag(1), vec![]);
                    t.bytes_on_wire()
                }
            });
        let (sent0, _) = counts[0];
        let (_, recv1) = counts[1];
        // 5 frames of (8-byte length prefix for the vec + 16 f64s) plus
        // framing overhead.
        let expected = 5 * (FRAME_OVERHEAD as u64 + 8 + 16 * 8);
        assert_eq!(sent0, expected);
        assert_eq!(recv1, expected);
    }

    #[test]
    fn socket_recv_timeout_expires_on_silence() {
        let results = run_socket_cluster::<u8, _, _>(2, SocketClusterOptions::default(), |t| {
            if t.rank().0 == 0 {
                // Keep the cluster alive while rank 1's timer runs.
                let got = t.recv_timeout(SimDuration::from_millis(500));
                got.is_some()
            } else {
                let before = t.timed_waits();
                let got = t.recv_timeout(SimDuration::from_millis(20));
                assert!(got.is_none(), "nothing was sent");
                assert!(t.timed_waits() > before, "wait did not block on condvar");
                t.send(Rank(0), Tag(0), 1);
                true
            }
        });
        assert!(results[0] && results[1]);
    }

    #[test]
    fn socket_recv_timeout_delivers_when_a_message_is_in_flight() {
        let results = run_socket_cluster::<u64, _, _>(2, SocketClusterOptions::default(), |t| {
            if t.rank().0 == 0 {
                t.send(Rank(1), Tag(0), 42);
                0
            } else {
                t.recv_timeout(SimDuration::from_millis(5_000))
                    .expect("message should arrive before the timeout")
                    .msg
            }
        });
        assert_eq!(results[1], 42);
    }

    #[test]
    fn total_loss_drops_every_frame() {
        let results = run_socket_cluster_with_faults::<u64, _, _>(
            2,
            SocketClusterOptions::default(),
            FaultSpec::new(Loss::new(1.0, 7)),
            |t| {
                if t.rank().0 == 0 {
                    for i in 0..5 {
                        t.send(Rank(1), Tag(0), i);
                    }
                    t.fault_counters().dropped
                } else {
                    let got = t.recv_timeout(SimDuration::from_millis(20));
                    assert!(got.is_none(), "total loss delivered a message");
                    0
                }
            },
        );
        assert_eq!(results[0], 5);
    }

    #[test]
    fn frame_corruption_without_corruptor_drops_or_perturbs() {
        use netsim::Corrupt;
        // Corrupt every frame; bool payloads make every flipped byte a
        // decode failure, so all frames must be dropped at the receiver.
        let results = run_socket_cluster_with_faults::<bool, _, _>(
            2,
            SocketClusterOptions::default(),
            FaultSpec::new(Corrupt::new(1.0, 1.0, 3)),
            |t| {
                if t.rank().0 == 0 {
                    for _ in 0..4 {
                        t.send(Rank(1), Tag(0), true);
                    }
                    // Give frames time to arrive and be rejected.
                    let got = t.recv_timeout(SimDuration::from_millis(200));
                    got.is_none() as u64
                } else {
                    let got = t.recv_timeout(SimDuration::from_millis(100));
                    assert!(got.is_none(), "corrupt bool frame decoded");
                    t.decode_failures()
                }
            },
        );
        assert_eq!(results[1], 4, "every corrupted frame must be rejected");
    }

    #[test]
    fn peer_disconnect_surfaces_as_crash_event_not_panic() {
        // Rank 0 tears its sockets down without a goodbye (a simulated
        // SIGKILL). Rank 1 must observe the disconnect as a crash-model
        // event: bounded waits keep expiring, nothing panics, and the
        // peer shows up in disconnected_peers() but not departed_peers().
        let results = run_socket_cluster::<u8, _, _>(2, SocketClusterOptions::default(), |t| {
            if t.rank().0 == 0 {
                t.simulate_crash();
                0
            } else {
                // Survive an arbitrary number of bounded waits across the
                // peer's death.
                let mut waits = 0u64;
                for _ in 0..50 {
                    if t.recv_timeout(SimDuration::from_millis(10)).is_some() {
                        panic!("no message was ever sent");
                    }
                    waits += 1;
                    if !t.disconnected_peers().is_empty() {
                        break;
                    }
                }
                assert_eq!(t.disconnected_peers(), vec![Rank(0)]);
                assert!(t.departed_peers().is_empty(), "no goodbye was sent");
                // Sending into the void must not panic either.
                t.send(Rank(0), Tag(0), 9);
                waits
            }
        });
        assert!(results[1] >= 1);
    }

    #[test]
    fn clean_shutdown_departs_without_crash_semantics() {
        // Rank 0 exits normally; its Drop writes a goodbye frame, so
        // rank 1 records a departure, not a crash.
        let results = run_socket_cluster::<u8, _, _>(2, SocketClusterOptions::default(), |t| {
            if t.rank().0 == 0 {
                true
            } else {
                for _ in 0..200 {
                    let _ = t.recv_timeout(SimDuration::from_millis(10));
                    if !t.departed_peers().is_empty() {
                        break;
                    }
                }
                assert_eq!(t.departed_peers(), vec![Rank(0)]);
                assert_eq!(t.disconnected_peers(), vec![Rank(0)]);
                true
            }
        });
        assert!(results[0] && results[1]);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_not_allocated() {
        // A hostile 3.9 GiB length prefix must surface as InvalidData
        // from read_frame, never reach the allocator.
        let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = l.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&0xEFFF_FFFFu32.to_le_bytes()).unwrap();
            s.write_all(&[0u8; 32]).unwrap();
            s
        });
        let (mut conn, _) = l.accept().unwrap();
        let err = read_frame(&mut conn, DEFAULT_MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        // A tight per-cluster cap rejects even modest frames.
        let l2 = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr2 = l2.local_addr().unwrap();
        let w2 = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr2).unwrap();
            let mut frame = Vec::new();
            encode_frame(&mut frame, KIND_DATA, 0, 0, &|out| {
                out.extend_from_slice(&[7u8; 1024]);
            });
            s.write_all(&frame).unwrap();
            s
        });
        let (mut conn2, _) = l2.accept().unwrap();
        let err2 = read_frame(&mut conn2, 128).unwrap_err();
        assert_eq!(err2.kind(), ErrorKind::InvalidData);
        drop(writer.join().unwrap());
        drop(w2.join().unwrap());
    }

    #[test]
    fn connect_with_retry_gives_up_within_the_deadline() {
        // Grab an ephemeral port, then free it so nothing is listening.
        let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = l.local_addr().unwrap();
        drop(l);
        let timeout = Duration::from_millis(150);
        let started = Instant::now();
        let err = connect_with_retry(addr, timeout, 9).unwrap_err();
        let elapsed = started.elapsed();
        assert_eq!(err.kind(), ErrorKind::TimedOut);
        // Bounded: one backoff sleep past the deadline at most, plus
        // scheduler slack.
        assert!(
            elapsed < timeout + Duration::from_millis(400),
            "gave up after {elapsed:?}, deadline was {timeout:?}"
        );
    }

    #[test]
    fn heartbeats_flow_and_keep_idle_peers_unsuspected() {
        let counters = run_socket_cluster::<u8, _, _>(2, supervised(5, 60), |t| {
            // Both ranks stay silent at the data layer; heartbeats alone
            // must keep the mesh unsuspicious.
            let deadline = Instant::now() + Duration::from_millis(250);
            while Instant::now() < deadline {
                let _ = t.recv_timeout(SimDuration::from_millis(20));
            }
            assert!(t.suspected_peers().is_empty(), "heartbeats were missed");
            // The peer may already have finished its loop and departed
            // cleanly (goodbye); only a crash-style disconnect is a failure.
            let departed = t.departed_peers();
            assert!(
                t.disconnected_peers().iter().all(|r| departed.contains(r)),
                "peer dropped without a goodbye"
            );
            t.supervision_counters()
        });
        for c in &counters {
            assert!(c.heartbeats_sent > 0, "supervisor sent no heartbeats");
            assert!(c.heartbeats_received > 0, "no heartbeats arrived");
        }
    }

    #[test]
    fn silent_peer_is_suspected_before_any_disconnect() {
        // Rank 0 supervises; rank 1 runs *without* supervision so it
        // sends no heartbeats and no data — silence on a live socket,
        // the case EOF-based detection can never catch.
        let l0 = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let l1 = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addrs = [l0.local_addr().unwrap(), l1.local_addr().unwrap()];
        drop((l0, l1));
        let h0 = std::thread::spawn(move || {
            let mut t = connect_socket_cluster::<u8>(0, &addrs, supervised(5, 40)).unwrap();
            let deadline = Instant::now() + Duration::from_secs(2);
            while Instant::now() < deadline && t.suspected_peers().is_empty() {
                let _ = t.recv_timeout(SimDuration::from_millis(10));
            }
            let suspected = t.suspected_peers();
            t.send(Rank(1), Tag(0), 1); // release rank 1
            suspected
        });
        let h1 = std::thread::spawn(move || {
            let mut t =
                connect_socket_cluster::<u8>(1, &addrs, SocketClusterOptions::default()).unwrap();
            t.recv().msg
        });
        assert_eq!(h0.join().unwrap(), vec![Rank(1)]);
        assert_eq!(h1.join().unwrap(), 1);
    }

    #[test]
    fn garbage_dialers_during_cold_start_are_rejected_not_fatal() {
        // Peer-controlled input at the worst moment: establish's accept
        // phase. Each junk connection must be dropped and counted, and
        // the mesh must still come up once the real peer dials.
        let l0 = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let l1 = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addrs = [l0.local_addr().unwrap(), l1.local_addr().unwrap()];
        drop((l0, l1));
        let h0 = std::thread::spawn(move || {
            let mut t =
                connect_socket_cluster::<u64>(0, &addrs, SocketClusterOptions::default()).unwrap();
            let env = t.recv();
            (env.msg, t.handshake_rejects())
        });
        // Junk flavour 1: connect and EOF before sending any HELLO.
        let s = dial_when_bound(addrs[0]);
        s.shutdown(Shutdown::Both).unwrap();
        drop(s);
        // Junk flavour 2: a well-formed HELLO claiming an impossible
        // rank (rank 0 itself), then linger so the reject is observed
        // before the real peer's HELLO enters the queue.
        let mut s = dial_when_bound(addrs[0]);
        write_hello(&mut s, 0, 2).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        drop(s);
        // The real rank 1 arrives last and must still be admitted.
        let h1 = std::thread::spawn(move || {
            let mut t =
                connect_socket_cluster::<u64>(1, &addrs, SocketClusterOptions::default()).unwrap();
            t.send(Rank(0), Tag(0), 77);
            // Linger so the frame flushes before drop.
            let _ = t.recv_timeout(SimDuration::from_millis(100));
        });
        let (msg, rejects) = h0.join().unwrap();
        h1.join().unwrap();
        assert_eq!(msg, 77, "real peer was not admitted after junk dialers");
        assert!(
            rejects >= 1,
            "junk handshakes were not counted (got {rejects})"
        );
    }

    #[test]
    fn peer_dying_mid_frame_does_not_panic_the_survivor() {
        // A peer that completes the handshake, starts a data frame, and
        // dies mid-frame: the survivor's reader must surface a crash
        // (PeerGone → disconnected_peers), never a panic, and the
        // truncated frame must never reach the decoder.
        let l0 = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let l1 = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addrs = [l0.local_addr().unwrap(), l1.local_addr().unwrap()];
        drop((l0, l1));
        let h0 = std::thread::spawn(move || {
            let mut t = connect_socket_cluster::<u64>(0, &addrs, supervised(5, 40)).unwrap();
            let deadline = Instant::now() + Duration::from_secs(5);
            while Instant::now() < deadline && !t.disconnected_peers().contains(&Rank(1)) {
                let got = t.recv_timeout(SimDuration::from_millis(10));
                assert!(got.is_none(), "a truncated frame must not deliver");
            }
            (t.disconnected_peers(), t.decode_failures())
        });
        // Fake rank 1: real HELLO handshake, then a frame whose length
        // prefix promises 64 bytes but whose body stops after the
        // version byte, then an abrupt close.
        let mut s = dial_when_bound(addrs[0]);
        write_hello(&mut s, 1, 2).unwrap();
        assert_eq!(read_hello(&mut s, 2, DEFAULT_MAX_FRAME).unwrap(), 0);
        s.write_all(&64u32.to_le_bytes()).unwrap();
        s.write_all(&[WIRE_VERSION]).unwrap();
        s.shutdown(Shutdown::Both).unwrap();
        drop(s);
        let (down, decode_failures) = h0.join().unwrap();
        assert_eq!(down, vec![Rank(1)], "mid-frame death was not surfaced");
        assert_eq!(
            decode_failures, 0,
            "truncated frame must die in read_frame, not the decoder"
        );
    }

    #[test]
    fn restarted_rank_rejoins_the_mesh_with_resume_handshake() {
        let mut ls: Vec<TcpListener> = (0..3)
            .map(|_| TcpListener::bind(("127.0.0.1", 0)).unwrap())
            .collect();
        let addrs: Vec<SocketAddr> = ls.iter().map(|l| l.local_addr().unwrap()).collect();
        ls.clear();
        let a0 = addrs.clone();
        let a1 = addrs.clone();
        let a2 = addrs.clone();

        // Rank 0: survive, observe the crash, then receive post-rejoin
        // data and the peer's resumed progress.
        let h0 = std::thread::spawn(move || {
            let mut t = connect_socket_cluster::<u64>(0, &a0, supervised(5, 80)).unwrap();
            // Wait for rank 2's crash...
            let deadline = Instant::now() + Duration::from_secs(5);
            while Instant::now() < deadline && !t.disconnected_peers().contains(&Rank(2)) {
                let _ = t.recv_timeout(SimDuration::from_millis(10));
            }
            assert!(t.disconnected_peers().contains(&Rank(2)), "crash unseen");
            // ...then for its rejoin (RESUME dial lands on our acceptor)
            // and the post-rejoin message.
            let mut got = None;
            let deadline = Instant::now() + Duration::from_secs(5);
            while Instant::now() < deadline {
                if let Some(env) = t.recv_timeout(SimDuration::from_millis(10)) {
                    if env.src == Rank(2) {
                        got = Some(env.msg);
                        break;
                    }
                }
            }
            (got, t.peer_progress(Rank(2)), t.disconnected_peers())
        });
        // Rank 1: just keep the mesh alive.
        let h1 = std::thread::spawn(move || {
            let mut t = connect_socket_cluster::<u64>(1, &a1, supervised(5, 80)).unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut heard_back = false;
            while Instant::now() < deadline {
                if let Some(env) = t.recv_timeout(SimDuration::from_millis(10)) {
                    if env.src == Rank(2) && env.msg == 99 {
                        heard_back = true;
                        break;
                    }
                }
            }
            heard_back
        });
        // Rank 2: join, crash without goodbye, rejoin with progress 7,
        // then broadcast.
        let h2 = std::thread::spawn(move || {
            let mut t = connect_socket_cluster::<u64>(2, &a2, supervised(5, 80)).unwrap();
            t.simulate_crash();
            drop(t);
            std::thread::sleep(Duration::from_millis(100));
            let mut t = rejoin_socket_cluster::<u64>(2, &a2, supervised(5, 80), 7).unwrap();
            t.send(Rank(0), Tag(0), 99);
            t.send(Rank(1), Tag(0), 99);
            // Linger so the frames flush before drop.
            let _ = t.recv_timeout(SimDuration::from_millis(100));
            t.supervision_counters().reconnects
        });
        let (got, progress, down) = h0.join().unwrap();
        assert_eq!(got, Some(99), "post-rejoin data did not arrive");
        assert_eq!(progress, 7, "RESUME did not carry the peer's progress");
        assert!(!down.contains(&Rank(2)), "rejoin did not clear down state");
        assert!(h1.join().unwrap(), "rank 1 never heard the rejoined peer");
        assert!(h2.join().unwrap() >= 1, "rejoin made no connections");
    }

    #[test]
    fn multi_process_entrypoint_meshes_two_ranks() {
        // Exercise connect_socket_cluster the way two separate processes
        // would, using two plain threads with pre-agreed ports.
        let l0 = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let l1 = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addrs = [l0.local_addr().unwrap(), l1.local_addr().unwrap()];
        drop((l0, l1)); // free the ports for connect_socket_cluster to rebind
        let h0 = std::thread::spawn(move || {
            let mut t =
                connect_socket_cluster::<u64>(0, &addrs, SocketClusterOptions::default()).unwrap();
            t.send(Rank(1), Tag(0), 11);
            t.recv().msg
        });
        let h1 = std::thread::spawn(move || {
            let mut t =
                connect_socket_cluster::<u64>(1, &addrs, SocketClusterOptions::default()).unwrap();
            let got = t.recv().msg;
            t.send(Rank(0), Tag(0), got + 1);
            got
        });
        assert_eq!(h1.join().unwrap(), 11);
        assert_eq!(h0.join().unwrap(), 12);
    }

    #[test]
    fn no_faults_spec_behaves_like_fault_free() {
        let got = run_socket_cluster_with_faults::<u64, _, _>(
            2,
            SocketClusterOptions::default(),
            FaultSpec::new(NoFaults),
            |t| {
                if t.rank().0 == 0 {
                    t.send(Rank(1), Tag(0), 5);
                    t.fault_counters().delivered
                } else {
                    t.recv().msg
                }
            },
        );
        assert_eq!(got, vec![1, 5]);
    }
}
