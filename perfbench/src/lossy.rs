//! `lossy_p16`: `nbody::run_parallel_with_faults` on the paper's 16-rank
//! testbed with 64 particles, 2 ms ± 30 % jittered latency, 5 % seeded
//! loss, FW = 2, fault tolerance with a 40 ms loss timeout and the default
//! adaptive controller. With four particles per rank the application is
//! negligible: host time is kernel dispatch, fault and network sampling,
//! and the driver's fault-tolerance and controller bookkeeping.

use desim::rng::derive_seed;
use desim::SimDuration;
use mpk::FaultSpec;
use nbody::{
    run_parallel_with_faults, uniform_cloud, ParallelRunConfig, ParallelRunResult, Particle,
};
use netsim::{ClusterSpec, ConstantLatency, Jitter, Loss, Unloaded};
use speccore::{ControllerConfig, FaultTolerance};

use crate::layers::{Backend, Ledger};
use crate::sim::traced_run;
use crate::{
    calibration_s, end_to_end, fingerprint, for_seconds, layer_metrics, max_drift, mean_gap_ms,
    median, setup_secs, timed, trace_self_checks, Args, Counts, Report, TraceExtras,
};

/// Timesteps per run.
const STEPS: u64 = 100;
/// Loss probability per message.
const LOSS: f64 = 0.05;
/// Largest final-position distance from the fault-free run
/// (`tests/chaos.rs`).
const DRIFT_BOUND: f64 = 1e-2;

/// Everything a run is built from, derived from the seed.
struct Input {
    particles: Vec<Particle>,
    cluster: ClusterSpec,
    jitter_seed: u64,
    loss_seed: u64,
    cfg: ParallelRunConfig,
}

impl Input {
    fn new(seed: u64) -> Self {
        let mut cfg = ParallelRunConfig::new(STEPS, 2);
        cfg.spec = cfg
            .spec
            .with_fault_tolerance(FaultTolerance::new(SimDuration::from_millis(40)))
            .with_adaptive(ControllerConfig::default())
            .with_iteration_log();
        Input {
            particles: uniform_cloud(64, derive_seed(seed, 1)),
            cluster: ClusterSpec::paper_testbed(),
            jitter_seed: derive_seed(seed, 2),
            loss_seed: derive_seed(seed, 3),
            cfg,
        }
    }

    fn net(&self) -> Jitter<ConstantLatency> {
        Jitter::new(
            ConstantLatency(SimDuration::from_millis(2)),
            0.3,
            self.jitter_seed,
        )
    }

    fn run(
        &self,
        cluster: &ClusterSpec,
        faults: FaultSpec<crate::sim::Msg>,
        cfg: ParallelRunConfig,
    ) -> ParallelRunResult {
        run_parallel_with_faults(&self.particles, cluster, self.net(), Unloaded, faults, cfg)
            .expect("lossy run failed")
    }

    fn lossy(&self, cfg: ParallelRunConfig) -> ParallelRunResult {
        self.run(
            &self.cluster,
            FaultSpec::new(Loss::new(LOSS, self.loss_seed)),
            cfg,
        )
    }
}

/// The fault-free run on the same inputs, and the fastest machine alone.
struct Reference {
    particles: Vec<Particle>,
    t1: f64,
}

fn check(input: &Input, reference: &Reference, r: &ParallelRunResult) -> (Vec<String>, f64) {
    let mut problems = Vec::new();
    for s in &r.stats.per_rank {
        if s.iterations != STEPS {
            problems.push(format!(
                "rank {} confirmed {} of {STEPS} steps",
                s.rank.0, s.iterations
            ));
        }
    }
    if r.stats.per_rank.len() != input.cluster.len() {
        problems.push(format!("{} ranks reported", r.stats.per_rank.len()));
    }
    let drift = max_drift(&r.particles, &reference.particles);
    if drift.is_nan() || drift >= DRIFT_BOUND {
        problems.push(format!("drift {drift:e} from the fault-free run"));
    }
    if r.stats.total_messages_lost() == 0 {
        problems.push("no message was lost".into());
    }
    (problems, drift)
}

/// Run the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let (input, setup_s) = setup_secs(|| Input::new(args.seed));
    let reference = Reference {
        particles: input
            .run(&input.cluster, FaultSpec::none(), input.cfg.clone())
            .particles,
        t1: input
            .run(
                &input.cluster.fastest(1),
                FaultSpec::none(),
                ParallelRunConfig::new(STEPS, 0),
            )
            .elapsed_secs(),
    };
    let mut first: Option<(u64, f64)> = None;
    let mut same_as_first = |r: &ParallelRunResult, problems: &mut Vec<String>| {
        let key = (fingerprint(&r.particles), r.elapsed_secs());
        if *first.get_or_insert(key) != key {
            problems.push("a run differs from the first run on the same inputs".into());
        }
    };

    if !args.trace {
        let (mut host_rel, mut makespan) = (Vec::new(), 0.0);
        for_seconds(args.seconds, || {
            let calib_s = calibration_s();
            let (r, secs) = timed(|| input.lossy(input.cfg.clone()));
            host_rel.push(secs / calib_s);
            let (mut problems, _) = check(&input, &reference, &r);
            same_as_first(&r, &mut problems);
            makespan = r.elapsed_secs();
            report.tally(&problems);
        });
        end_to_end(&mut report, setup_s, &host_rel, reference.t1 / makespan);
        return report;
    }

    let mut ledger = Ledger::new(Backend::Sim);
    let mut counts = Counts::default();
    let (mut ratios, mut overheads, mut drift) = (Vec::new(), Vec::new(), 0.0);
    let (mut walls, mut calibs, mut iter_ms) = (Vec::new(), Vec::new(), 0.0);
    for_seconds(args.seconds, || {
        calibs.push(calibration_s());
        let (plain, off_s) = timed(|| input.lossy(input.cfg.clone()));
        walls.push(off_s);
        iter_ms = mean_gap_ms(&plain.stats.per_rank);
        let (observed, observed_s) = timed(|| input.lossy(input.cfg.clone().with_trace()));
        ledger = Ledger::new(Backend::Sim);
        counts = Counts::default();
        let (traced, traced_s) = timed(|| {
            traced_run(
                &input.particles,
                &input.cluster,
                input.net(),
                Loss::new(LOSS, input.loss_seed),
                &input.cfg,
                &mut ledger,
                &mut counts,
            )
        });
        let (mut problems, d) = check(&input, &reference, &plain);
        drift = d;
        same_as_first(&plain, &mut problems);
        same_as_first(&observed, &mut problems);
        let fps = [
            fingerprint(&plain.particles),
            fingerprint(&observed.particles),
            fingerprint(&traced.particles),
        ];
        let ends = [
            plain.elapsed_secs(),
            observed.elapsed_secs(),
            traced.report.end_time.as_secs_f64(),
        ];
        if fps[0] != fps[1] || fps[0] != fps[2] || ends[0] != ends[1] || ends[0] != ends[2] {
            problems.push(format!(
                "traced/telemetry runs differ: fingerprints {fps:x?}, ends {ends:?}"
            ));
        }
        ratios.push(traced_s / off_s);
        overheads.push(observed_s / off_s);
        report.tally(&problems);
    });
    let times = ledger.totals();
    let host_ratio = median(&ratios);
    report.flag(&trace_self_checks(&times, host_ratio));
    layer_metrics(
        &mut report,
        Backend::Sim,
        &times,
        &counts,
        &TraceExtras {
            codec_ns_per_byte: 0.0,
            model_err_pct: 0.0,
            trace_overhead: median(&overheads),
            host_ratio,
            drift_max: drift,
            iter_ms_mean: iter_ms,
            wall_s: median(&walls),
            calib_s: median(&calibs),
        },
    );
    report
}
