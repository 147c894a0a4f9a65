//! The repository benchmark: end-to-end and per-layer host time of the
//! speculative-computation workspace, plus the virtual-time results the
//! runs produce. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! perfbench --workload <paper_repro|lossy_p16|socket_p2> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with no
//! wrapper in the way; with `--trace 1` they are the per-layer ones from a
//! separate traced run on the same inputs.

mod layers;
mod lossy;
mod paper;
mod sim;
mod socket;

use std::hint::black_box;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use layers::{Backend, Layer, LayerTimes};
use speccore::RunStats;

/// How much worse than its parent `host_rel` may get (`BENCHMARK.json`);
/// the traced run must also stay within this share of the untraced one.
pub const HOST_BOUND: f64 = 0.25;

/// Minimum timed repetitions per invocation, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = get("--workload").ok_or("missing --workload")?.to_string();
    let seed = get("--seed")
        .unwrap_or("42")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
pub struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

/// What one invocation reports.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    /// Count one attempted run; it failed if `problems` is not empty.
    pub fn tally(&mut self, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("check failed: {p}");
            }
        }
    }

    /// Record problems found after the runs (the traced run's
    /// self-checks): they fail one attempted run.
    pub fn flag(&mut self, problems: &[String]) {
        for p in problems {
            eprintln!("check failed: {p}");
        }
        if !problems.is_empty() && self.failed < self.attempted {
            self.failed += 1;
        }
    }

    /// Add a metric.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        let correct = self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite());
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run `rep` until `seconds` have passed, and at least [`MIN_REPS`] times.
/// Each repetition's host time, checks included, goes to standard error.
pub fn for_seconds(seconds: f64, mut rep: impl FnMut()) {
    let t0 = Instant::now();
    let mut n = 0;
    while n < MIN_REPS || t0.elapsed().as_secs_f64() < seconds {
        let (_, secs) = timed(&mut rep);
        eprintln!("rep {n}: {secs:.4} s");
        n += 1;
    }
}

/// Time one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median host seconds of one `build()`: builds run in batches of at least
/// 20 ms, and the median over fifteen batches is reported.
pub fn setup_secs<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut batch = 1u32;
    let mut last = build();
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            last = black_box(build());
        }
        if t0.elapsed() >= Duration::from_millis(20) {
            break;
        }
        batch *= 2;
    }
    let mut per = Vec::new();
    for _ in 0..15 {
        let t0 = Instant::now();
        for _ in 0..batch {
            last = black_box(build());
        }
        per.push(t0.elapsed().as_secs_f64() / f64::from(batch));
    }
    (last, median(&per))
}

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().strip_suffix("kB"))
                .and_then(|kb| kb.trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Mean time between consecutive confirmations of one run, milliseconds,
/// every rank pooled. `confirmed_at` is on the program's clock: virtual on
/// the simulator, host time on the socket backend.
pub fn mean_gap_ms(stats: &[RunStats]) -> f64 {
    let gaps: Vec<f64> = stats
        .iter()
        .flat_map(|s| {
            s.iteration_log
                .windows(2)
                .map(|w| (w[1].confirmed_at.as_nanos() - w[0].confirmed_at.as_nanos()) as f64 / 1e6)
        })
        .collect();
    gaps.iter().sum::<f64>() / gaps.len() as f64
}

/// Channel round trips in one calibration job.
const CALIBRATION_ROUND_TRIPS: u64 = 10_000;

/// Host seconds of the calibration job: two threads of this process pass a
/// counter back and forth over `std::sync::mpsc` channels
/// [`CALIBRATION_ROUND_TRIPS`] times, on the cores the run is pinned to.
///
/// A thread handoff is the machine primitive the threaded simulator kernel
/// (one parked thread per rank, spoken to over the same channels) and the
/// socket backend (one thread per rank, woken by the peer) spend their host
/// time on. Its cost on a shared host drifts by ±15 % over minutes, and
/// every run's host time moves with it; a run's host time divided by the
/// calibration measured just before it moves far less (`README.md`,
/// "Calibration").
pub fn calibration_s() -> f64 {
    let (to_peer, from_main) = channel::<u64>();
    let (to_main, from_peer) = channel::<u64>();
    let t0 = Instant::now();
    let peer = std::thread::spawn(move || {
        while let Ok(v) = from_main.recv() {
            if to_main.send(v + 1).is_err() {
                break;
            }
        }
    });
    let mut v = 0;
    for _ in 0..CALIBRATION_ROUND_TRIPS {
        to_peer.send(v).expect("calibration peer hung up");
        v = from_peer.recv().expect("calibration peer hung up");
    }
    drop(to_peer);
    peer.join().expect("calibration peer panicked");
    assert_eq!(v, CALIBRATION_ROUND_TRIPS, "calibration lost a round trip");
    t0.elapsed().as_secs_f64()
}

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order; `host_rel` holds one value per timed run: its host time ÷ the
/// calibration measured just before it.
pub fn end_to_end(report: &mut Report, setup_s: f64, host_rel: &[f64], speedup: f64) {
    report.metric("setup_s", "s", setup_s);
    report.metric("host_rel", "x", median(host_rel));
    report.metric("peak_rss_mb", "MB", peak_rss_mb());
    report.metric("speedup", "x", speedup);
}

/// Largest distance between corresponding final positions.
pub fn max_drift(a: &[nbody::Particle], b: &[nbody::Particle]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.pos.distance(y.pos))
        .fold(0.0, f64::max)
}

/// Bit-exact fingerprint of final positions and velocities.
pub fn fingerprint(particles: &[nbody::Particle]) -> u64 {
    let mut fp = obs::Fingerprint::new();
    for p in particles {
        for v in [p.pos, p.vel] {
            fp.write_f64(v.x);
            fp.write_f64(v.y);
            fp.write_f64(v.z);
        }
    }
    fp.finish()
}

/// Deterministic counters of the traced runs, summed.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Kernel events dispatched.
    pub events: u64,
    /// Messages sent by the driver.
    pub msgs_sent: u64,
    /// Payload bytes sent by the driver.
    pub bytes_sent: u64,
    /// Messages the fault layer dropped.
    pub msgs_lost: u64,
    /// Iteration executions (first runs and re-executions).
    pub executions: u64,
    /// Rollbacks to a checkpoint.
    pub rollbacks: u64,
    /// Partitions checked against a speculation.
    pub checked: u64,
    /// Checked partitions accepted.
    pub accepted: u64,
    /// Units checked.
    pub checked_units: u64,
    /// Units recomputed.
    pub bad_units: u64,
    /// Virtual (or host, on sockets) time waiting for peers.
    pub comm_wait_ns: u64,
    /// Total rank time.
    pub total_ns: u64,
    /// Speculate-through-loss commits.
    pub loss_commits: u64,
    /// Retransmission requests.
    pub retransmits: u64,
    /// Controller retunes.
    pub retunes: u64,
    /// Operations the application reported.
    pub ops: u64,
}

impl Counts {
    /// Add one run's per-rank statistics.
    pub fn add_stats(&mut self, stats: &[RunStats]) {
        for s in stats {
            self.msgs_sent += s.messages_sent;
            self.bytes_sent += s.bytes_sent;
            self.msgs_lost += s.messages_lost;
            self.executions += s.executions;
            self.rollbacks += s.rollbacks;
            self.checked += s.checked_partitions;
            self.accepted += s.accepted_partitions;
            self.checked_units += s.checked_units;
            self.bad_units += s.bad_units;
            self.comm_wait_ns += s.phases.comm_wait.as_nanos();
            self.total_ns += s.total_time.as_nanos();
            self.loss_commits += s.speculate_through_loss_commits;
            self.retransmits += s.retransmit_requests;
            self.retunes += s.controller_retunes;
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Measurements a traced invocation adds to its layer times and counts.
pub struct TraceExtras {
    /// Codec cost on the socket backend (0 where no bytes are encoded).
    pub codec_ns_per_byte: f64,
    /// Fig. 9 worst-case model error (0 where the model is not run).
    pub model_err_pct: f64,
    /// Median host time with telemetry on ÷ off.
    pub trace_overhead: f64,
    /// Median host time of the traced run ÷ the untraced run.
    pub host_ratio: f64,
    /// Largest distance of a final position from the reference run.
    pub drift_max: f64,
    /// Mean time between confirmations on the program's clock, ms.
    pub iter_ms_mean: f64,
    /// Median host time of the untraced run, s.
    pub wall_s: f64,
    /// Median host time of the calibration job, s.
    pub calib_s: f64,
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn layer_metrics(
    report: &mut Report,
    backend: Backend,
    t: &LayerTimes,
    c: &Counts,
    x: &TraceExtras,
) {
    let transport = t.secs(Layer::Send) + t.secs(Layer::Wait);
    let (dispatch_s, send_s, recv_wait_s) = match backend {
        Backend::Sim => (transport, 0.0, 0.0),
        Backend::Socket => (0.0, t.secs(Layer::Send), t.secs(Layer::Wait)),
    };
    let app_s = t.secs(Layer::App) + t.secs(Layer::AppSpec);
    report.metric("desim.events", "count", c.events as f64);
    report.metric("desim.dispatch_s", "s", dispatch_s);
    report.metric(
        "desim.ns_per_event",
        "ns",
        ratio(dispatch_s * 1e9, c.events as f64),
    );
    report.metric("netsim.calls", "count", t.calls(Layer::Net) as f64);
    report.metric("netsim.model_s", "s", t.secs(Layer::Net));
    report.metric("netsim.msgs_lost", "count", c.msgs_lost as f64);
    report.metric("mpk.msgs_sent", "count", c.msgs_sent as f64);
    report.metric("mpk.bytes_sent", "B", c.bytes_sent as f64);
    report.metric("mpk.send_s", "s", send_s);
    report.metric("mpk.recv_wait_s", "s", recv_wait_s);
    report.metric("mpk.codec_ns_per_byte", "ns/B", x.codec_ns_per_byte);
    report.metric("speccore.driver_s", "s", t.secs(Layer::Driver));
    report.metric("speccore.executions", "count", c.executions as f64);
    report.metric("speccore.rollbacks", "count", c.rollbacks as f64);
    report.metric(
        "speccore.accept_ratio",
        "ratio",
        ratio(c.accepted as f64, c.checked as f64),
    );
    report.metric(
        "speccore.recompute_frac",
        "ratio",
        ratio(c.bad_units as f64, c.checked_units as f64),
    );
    report.metric(
        "speccore.comm_wait_frac",
        "ratio",
        ratio(c.comm_wait_ns as f64, c.total_ns as f64),
    );
    report.metric("speccore.loss_commits", "count", c.loss_commits as f64);
    report.metric("speccore.retransmits", "count", c.retransmits as f64);
    report.metric("speccore.control_retunes", "count", c.retunes as f64);
    report.metric("speccore.drift_max", "length", x.drift_max);
    report.metric("speccore.iter_ms_mean", "ms", x.iter_ms_mean);
    report.metric("nbody.ops", "count", c.ops as f64);
    report.metric("nbody.compute_s", "s", t.secs(Layer::App));
    report.metric("nbody.spec_check_s", "s", t.secs(Layer::AppSpec));
    report.metric("nbody.ns_per_op", "ns", ratio(app_s * 1e9, c.ops as f64));
    report.metric("perfmodel.model_s", "s", t.perfmodel);
    report.metric("perfmodel.model_err_pct", "%", x.model_err_pct);
    report.metric("obs.events", "count", t.calls(Layer::Obs) as f64);
    report.metric("obs.record_s", "s", t.secs(Layer::Obs));
    report.metric("obs.trace_overhead", "ratio", x.trace_overhead);
    report.metric("trace.coverage", "ratio", t.coverage());
    report.metric("trace.host_ratio", "ratio", x.host_ratio);
    report.metric("run.wall_s", "s", x.wall_s);
    report.metric("run.calib_s", "s", x.calib_s);
}

/// The self-checks every traced invocation ends with: the books close and
/// tracing did not turn the run into a different program.
pub fn trace_self_checks(t: &LayerTimes, host_ratio: f64) -> Vec<String> {
    let mut problems = Vec::new();
    let coverage = t.coverage();
    if coverage.is_nan() || coverage < 0.95 {
        problems.push(format!("trace coverage {coverage:.4} < 0.95"));
    }
    if host_ratio.is_nan() || host_ratio > 1.0 + HOST_BOUND {
        problems.push(format!(
            "traced/untraced host time {host_ratio:.3} exceeds 1 + {HOST_BOUND}"
        ));
    }
    problems
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "paper_repro" => paper::run(&args),
        "lossy_p16" => lossy::run(&args),
        "socket_p2" => socket::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    println!("{}", report.to_json());
}
