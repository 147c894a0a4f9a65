//! `socket_p2`: a 256-particle `NBodyApp` on 2 ranks over loopback TCP,
//! through `mpk::run_socket_cluster` and `speccore::run_speculative`, with
//! FW = 1 and θ = 0.01. `mips = ∞` makes `compute()` free, so host time is
//! real work: force kernels, `WireCodec` and the kernel's TCP stack. The
//! simulator (`desim`, `netsim`) is not on this path.

use std::hint::black_box;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use desim::rng::derive_seed;
use mpk::{decode_exact, encode_to_vec, run_socket_cluster, SocketClusterOptions, Transport};
use nbody::{
    partition_proportional, uniform_cloud, NBodyApp, NBodyConfig, Particle, SpeculationOrder,
};
use obs::SharedRecorder;
use speccore::{run_speculative, IterMsg, RunStats, SpecConfig, SpeculativeApp};

use crate::layers::{AppOps, Backend, Layer, Ledger, TimedApp, TimedRecorder, TimedTransport};
use crate::sim::Msg;
use crate::{
    calibration_s, end_to_end, for_seconds, layer_metrics, max_drift, mean_gap_ms, median,
    setup_secs, timed, trace_self_checks, Args, Counts, Report, TraceExtras,
};

/// Particles.
const N: usize = 256;
/// Ranks.
const RANKS: usize = 2;
/// Timesteps per run.
const STEPS: u64 = 1000;
/// Largest final-position distance from the sequential run
/// (`tests/chaos.rs`).
const DRIFT_BOUND: f64 = 1e-2;

/// Everything a run is built from, derived from the seed.
struct Input {
    particles: Arc<Vec<Particle>>,
    ranges: Vec<Range<usize>>,
    nbody: NBodyConfig,
    spec: SpecConfig,
}

impl Input {
    fn new(seed: u64) -> Self {
        Input {
            particles: Arc::new(uniform_cloud(N, derive_seed(seed, 1))),
            ranges: partition_proportional(N, &[1.0; RANKS]),
            nbody: NBodyConfig::default().with_theta(0.01),
            spec: SpecConfig::speculative(1).with_iteration_log(),
        }
    }

    fn app(&self, rank: usize) -> NBodyApp {
        NBodyApp::new(
            &self.particles,
            self.ranges.clone(),
            rank,
            self.nbody,
            SpeculationOrder::Linear,
        )
    }

    /// The same application kernels on one rank, no transport: the
    /// sequential reference and its host time.
    fn sequential(&self) -> (Vec<Particle>, f64) {
        let (app, secs) = timed(|| {
            let mut app = NBodyApp::new(
                &self.particles,
                partition_proportional(N, &[1.0]),
                0,
                self.nbody,
                SpeculationOrder::Linear,
            );
            for _ in 0..STEPS {
                black_box(app.begin_iteration());
                black_box(app.finish_iteration());
            }
            app
        });
        (app.particles(), secs)
    }
}

fn options() -> SocketClusterOptions {
    SocketClusterOptions {
        mips: f64::INFINITY,
        ..SocketClusterOptions::default()
    }
}

/// One socket run's results.
struct SocketRun {
    particles: Vec<Particle>,
    stats: Vec<RunStats>,
    /// Host time until every rank had entered its closure (mesh handshake).
    handshake_s: f64,
    /// Host time of the whole call.
    host_s: f64,
}

fn assemble(t0: Instant, outs: Vec<(Duration, Vec<Particle>, RunStats)>) -> SocketRun {
    let host_s = t0.elapsed().as_secs_f64();
    let mut run = SocketRun {
        particles: Vec::with_capacity(N),
        stats: Vec::with_capacity(RANKS),
        handshake_s: 0.0,
        host_s,
    };
    for (entered, particles, stats) in outs {
        run.handshake_s = run.handshake_s.max(entered.as_secs_f64());
        run.particles.extend(particles);
        run.stats.push(stats);
    }
    run
}

/// The untraced run; `recorder` switches telemetry on.
fn plain(input: &Input, recorder: Option<SharedRecorder>) -> SocketRun {
    let t0 = Instant::now();
    let outs = run_socket_cluster::<Msg, _, _>(RANKS, options(), |t| {
        let entered = t0.elapsed();
        if let Some(rec) = &recorder {
            t.set_recorder(Box::new(rec.clone()));
        }
        let mut app = input.app(t.rank().0);
        let stats = run_speculative(t, &mut app, STEPS, input.spec.clone());
        (entered, app.particles(), stats)
    });
    assemble(t0, outs)
}

/// The same run with every layer timed into `ledger`.
fn traced(input: &Input, ledger: &mut Ledger, counts: &mut Counts) -> SocketRun {
    let clocks = ledger.clocks_for(RANKS);
    let recorder = SharedRecorder::new();
    let ops = AppOps::default();
    let t0 = Instant::now();
    let outs = ledger.timed(|| {
        run_socket_cluster::<Msg, _, _>(RANKS, options(), |t| {
            let entered = t0.elapsed();
            let rank = t.rank().0;
            let clock = &clocks[rank];
            clock.open(rank);
            t.set_recorder(Box::new(TimedRecorder::new(
                recorder.clone(),
                rank,
                clock.clone(),
            )));
            let app = clock.span(rank, Layer::App, || input.app(rank));
            let mut app = TimedApp::new(app, rank, clock.clone(), ops.clone());
            let stats = {
                let mut t = TimedTransport::new(t, clock.clone());
                run_speculative(&mut t, &mut app, STEPS, input.spec.clone())
            };
            let particles = app.into_inner().particles();
            clock.close(rank, Backend::Socket);
            (entered, particles, stats)
        })
    });
    let ranks_entered: Vec<Duration> = outs.iter().map(|o| o.0).collect();
    let run = assemble(t0, outs);
    let end = Duration::from_secs_f64(run.host_s);
    for entered in ranks_entered {
        ledger.add_rank_wall(end.saturating_sub(entered));
    }
    counts.add_stats(&run.stats);
    counts.ops += ops.total();
    run
}

fn check(run: &SocketRun, reference: &[Particle]) -> (Vec<String>, f64) {
    let mut problems = Vec::new();
    if run.stats.len() != RANKS {
        problems.push(format!("{} ranks finished", run.stats.len()));
    }
    for s in &run.stats {
        if s.iterations != STEPS {
            problems.push(format!(
                "rank {} confirmed {} of {STEPS} steps",
                s.rank.0, s.iterations
            ));
        }
    }
    let drift = max_drift(&run.particles, reference);
    if drift.is_nan() || drift >= DRIFT_BOUND {
        problems.push(format!("drift {drift:e} from the sequential run"));
    }
    (problems, drift)
}

/// Host ns per byte to encode and decode rank 0's broadcast.
fn codec_ns_per_byte(input: &Input) -> f64 {
    let msg: Msg = IterMsg::full(1, input.app(0).shared());
    let bytes = encode_to_vec(&msg).len() as f64;
    let mut reps = 0u64;
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(20) {
        let wire = encode_to_vec(black_box(&msg));
        let back: Option<Msg> = decode_exact(&wire);
        assert!(back.as_ref() == Some(&msg), "codec must round-trip");
        reps += 1;
    }
    t0.elapsed().as_secs_f64() * 1e9 / (reps as f64 * bytes)
}

/// Run the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let (input, input_s) = setup_secs(|| Input::new(args.seed));
    let (reference, _) = input.sequential();

    if !args.trace {
        let (mut host_rel, mut handshake, mut speedup) = (Vec::new(), Vec::new(), Vec::new());
        for_seconds(args.seconds, || {
            // The sequential run is timed next to every socket run, so a
            // change in the host's speed moves both sides of the ratio.
            let (_, seq_s) = input.sequential();
            let calib_s = calibration_s();
            let r = plain(&input, None);
            let (problems, _) = check(&r, &reference);
            host_rel.push(r.host_s / calib_s);
            handshake.push(r.handshake_s);
            speedup.push(seq_s / (r.host_s - r.handshake_s));
            report.tally(&problems);
        });
        end_to_end(
            &mut report,
            input_s + median(&handshake),
            &host_rel,
            median(&speedup),
        );
        return report;
    }

    let mut ledger = Ledger::new(Backend::Socket);
    let mut counts = Counts::default();
    let (mut ratios, mut overheads, mut drift) = (Vec::new(), Vec::new(), 0.0);
    let (mut walls, mut calibs, mut iter_ms) = (Vec::new(), Vec::new(), Vec::new());
    for_seconds(args.seconds, || {
        calibs.push(calibration_s());
        let off = plain(&input, None);
        walls.push(off.host_s);
        iter_ms.push(mean_gap_ms(&off.stats));
        let observed = plain(&input, Some(SharedRecorder::new()));
        ledger = Ledger::new(Backend::Socket);
        counts = Counts::default();
        let tr = traced(&input, &mut ledger, &mut counts);
        // Socket runs speculate on whatever has not arrived yet, so their
        // results depend on real timing: each run is checked against the
        // sequential reference instead of against the others.
        let mut problems = Vec::new();
        for r in [&off, &observed, &tr] {
            let (p, d) = check(r, &reference);
            problems.extend(p);
            drift = d;
        }
        ratios.push(tr.host_s / off.host_s);
        overheads.push(observed.host_s / off.host_s);
        report.tally(&problems);
    });
    let times = ledger.totals();
    let host_ratio = median(&ratios);
    report.flag(&trace_self_checks(&times, host_ratio));
    layer_metrics(
        &mut report,
        Backend::Socket,
        &times,
        &counts,
        &TraceExtras {
            codec_ns_per_byte: codec_ns_per_byte(&input),
            model_err_pct: 0.0,
            trace_overhead: median(&overheads),
            host_ratio,
            drift_max: drift,
            iter_ms_mean: median(&iter_ms),
            wall_s: median(&walls),
            calib_s: median(&calibs),
        },
    );
    report
}
