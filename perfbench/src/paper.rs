//! `paper_repro`: regenerate everything `experiments all` computes at
//! `Scale::paper()` (Figs. 5, 6, 8, 9 and Tables 2, 3) through the public
//! `spec_bench::experiments` functions, in one process.
//!
//! The artifacts are the published ones, so they are computed at the
//! paper's own seed and read the same on every run. The correctness checks
//! and the per-step virtual time run on a held-out input drawn from
//! `--seed`: the paper's p = 16, N = 1000, 10-step configuration with
//! particles and network streams derived from the seed, at FW ∈ {0, 1, 2}.

use std::hint::black_box;

use desim::rng::derive_seed;
use nbody::integrate::step_partition_order;
use nbody::{
    centered_cloud, partition_proportional, run_parallel, ParallelRunConfig, ParallelRunResult,
    Particle,
};
use netsim::{ClusterSpec, NoFaults, Unloaded};
use spec_bench::experiments::{self, experiment_nbody_config, testbed_network, Fig8Data, Fig8Run};
use spec_bench::Scale;
use speccore::CorrectionMode;

use crate::layers::{Backend, Ledger};
use crate::sim::traced_run;
use crate::{
    calibration_s, end_to_end, fingerprint, for_seconds, layer_metrics, max_drift, mean_gap_ms,
    median, setup_secs, timed, trace_self_checks, Args, Counts, Report, TraceExtras,
};

/// The numbers the artifacts are made of, in a fixed order, for bit-exact
/// comparison between runs.
#[derive(Clone, Debug, PartialEq)]
struct Artifacts {
    speedup_p16: f64,
    model_err_pct: f64,
    virt: Vec<f64>,
}

/// Fig. 9's worst-case model error, as `render::fig9` prints it.
fn worst_model_error(rows: &[experiments::Fig9Row]) -> f64 {
    rows.iter()
        .flat_map(|r| {
            [
                100.0 * (r.model_nospec - r.measured_nospec).abs() / r.measured_nospec,
                100.0 * (r.model_spec - r.measured_spec).abs() / r.measured_spec,
            ]
        })
        .fold(0.0, f64::max)
}

fn collect(
    scale: &Scale,
    data: &Fig8Data,
    rows9: &[experiments::Fig9Row],
    t2: &[experiments::Table2Row],
    t3: &[experiments::Table3Row],
) -> Artifacts {
    let p = *scale.p_values.iter().max().expect("non-empty sweep");
    let mut virt = vec![data.t1];
    virt.extend(data.runs.iter().flat_map(|r| [r.elapsed, r.k]));
    virt.extend(t2.iter().map(|r| r.total));
    virt.extend(
        t3.iter()
            .flat_map(|r| [r.incorrect_pct, r.max_force_error_pct]),
    );
    Artifacts {
        speedup_p16: data.speedup(p, 1).max(data.speedup(p, 2)),
        model_err_pct: worst_model_error(rows9),
        virt,
    }
}

/// `experiments all`: the untraced, timed job.
fn artifacts(scale: &Scale) -> Artifacts {
    black_box(experiments::fig5());
    black_box(experiments::fig6());
    let data = experiments::fig8_data(scale);
    black_box(experiments::fig8_rows(&data, scale));
    let rows9 = experiments::fig9_rows(scale, &data);
    let t2 = experiments::table2(scale);
    let t3 = experiments::table3(scale);
    collect(scale, &data, &rows9, &t2, &t3)
}

/// One measured case, configured as `experiments::run_case` does.
fn case_config(scale: &Scale, fw: u32, theta: Option<f64>) -> ParallelRunConfig {
    let mut cfg = ParallelRunConfig::new(scale.iterations, fw);
    cfg.nbody = experiment_nbody_config();
    if let Some(theta) = theta {
        cfg.nbody = cfg.nbody.with_theta(theta);
    }
    cfg.spec = cfg.spec.with_correction(CorrectionMode::Incremental);
    cfg
}

/// The same job as [`artifacts`], every run through the traced closure.
fn traced_artifacts(
    scale: &Scale,
    ledger: &mut Ledger,
    counts: &mut Counts,
) -> (Artifacts, Vec<Particle>) {
    let cluster = ClusterSpec::paper_testbed();
    let particles = centered_cloud(scale.n_particles, scale.seed);
    let n = particles.len();
    let p_max = *scale.p_values.iter().max().expect("non-empty sweep");
    let mut case = |sub: &ClusterSpec, fw: u32, theta: Option<f64>, stream: u64| {
        traced_run(
            &particles,
            sub,
            testbed_network(derive_seed(scale.seed, stream), n),
            NoFaults,
            &case_config(scale, fw, theta),
            ledger,
            counts,
        )
    };

    let t1 = case(&cluster.fastest(1), 0, None, 1)
        .report
        .end_time
        .as_secs_f64();
    let mut runs = Vec::new();
    let mut flagship = Vec::new();
    for &p in scale.p_values.iter().filter(|&&p| p >= 2) {
        for fw in 0..=2u32 {
            let r = case(&cluster.fastest(p), fw, None, p as u64);
            let stats = speccore::ClusterStats::new(r.stats);
            let phases = stats.mean_per_iteration();
            runs.push(Fig8Run {
                p,
                fw,
                elapsed: r.report.end_time.as_secs_f64(),
                comm_wait_per_iter: phases.comm_wait.as_secs_f64(),
                compute_per_iter: phases.compute.as_secs_f64(),
                k: stats.recomputation_fraction(),
                max_accepted_error: stats.max_accepted_error(),
                phases,
            });
            if p == p_max && fw == 1 {
                flagship = r.particles;
            }
        }
    }
    let t2: Vec<experiments::Table2Row> = (0..=2u32)
        .map(|fw| {
            let r = case(&cluster.fastest(p_max), fw, None, 1000 + u64::from(fw));
            let stats = speccore::ClusterStats::new(r.stats);
            let ph = stats.mean_per_iteration();
            experiments::Table2Row {
                fw,
                computation: ph.compute.as_secs_f64() + ph.correct.as_secs_f64(),
                communication: ph.comm_wait.as_secs_f64(),
                speculation: ph.speculate.as_secs_f64(),
                check: ph.check.as_secs_f64(),
                total: r.report.end_time.as_secs_f64() / scale.iterations as f64,
            }
        })
        .collect();
    let t3: Vec<experiments::Table3Row> = [0.1, 0.05, 0.01, 0.005, 0.001]
        .iter()
        .map(|&theta| {
            let r = case(&cluster.fastest(p_max), 1, Some(theta), 2000);
            let stats = speccore::ClusterStats::new(r.stats);
            experiments::Table3Row {
                theta,
                incorrect_pct: 100.0 * stats.recomputation_fraction(),
                max_force_error_pct: 200.0 * stats.max_accepted_error(),
            }
        })
        .collect();
    let data = Fig8Data { t1, runs, cluster };
    let (rows9, model_s) = timed(|| {
        black_box(experiments::fig5());
        black_box(experiments::fig6());
        experiments::fig9_rows(scale, &data)
    });
    ledger.perfmodel += std::time::Duration::from_secs_f64(model_s);
    (collect(scale, &data, &rows9, &t2, &t3), flagship)
}

/// Held-out inputs per seed. One 10-step run's per-step time swings by
/// ±10 % between seeds; the mean over three inputs is steadier.
const HOLDOUTS: u64 = 3;

/// A held-out input the checks run on.
struct Holdout {
    scale: Scale,
    particles: Vec<Particle>,
    cluster: ClusterSpec,
    net_seed: u64,
}

impl Holdout {
    fn new(seed: u64, variant: u64) -> Self {
        let mut scale = Scale::paper();
        scale.seed = derive_seed(seed, 0x9A9E + variant);
        let p = *scale.p_values.iter().max().expect("non-empty sweep");
        Holdout {
            particles: centered_cloud(scale.n_particles, derive_seed(scale.seed, 1)),
            cluster: ClusterSpec::paper_testbed().fastest(p),
            net_seed: derive_seed(scale.seed, 2),
            scale,
        }
    }

    fn run(&self, fw: u32) -> ParallelRunResult {
        let mut cfg = case_config(&self.scale, fw, None);
        cfg.spec = cfg.spec.with_iteration_log();
        run_parallel(
            &self.particles,
            &self.cluster,
            testbed_network(self.net_seed, self.particles.len()),
            Unloaded,
            cfg,
        )
        .expect("held-out run failed")
    }

    /// The sequential partition-order integration FW = 0 must equal bit
    /// for bit.
    fn reference(&self) -> Vec<Particle> {
        let ranges = partition_proportional(self.particles.len(), &self.cluster.capacities());
        let mut reference = self.particles.clone();
        for _ in 0..self.scale.iterations {
            step_partition_order(&mut reference, &ranges, &experiment_nbody_config());
        }
        reference
    }
}

/// What the held-out checks measured.
struct Checked {
    problems: Vec<String>,
    drift: f64,
    iter_ms: f64,
}

/// Check every held-out input at FW = 0, 1, 2 against its reference.
fn check_holdouts(holdouts: &[(Holdout, Vec<Particle>)]) -> Checked {
    let mut checked = Checked {
        problems: Vec::new(),
        drift: 0.0,
        iter_ms: 0.0,
    };
    for (h, reference) in holdouts {
        let one = check_holdout(h, reference);
        checked.problems.extend(one.problems);
        checked.drift = checked.drift.max(one.drift);
        checked.iter_ms += one.iter_ms / holdouts.len() as f64;
    }
    checked
}

fn check_holdout(h: &Holdout, reference: &[Particle]) -> Checked {
    let mut problems = Vec::new();
    let runs: Vec<ParallelRunResult> = (0..=2).map(|fw| h.run(fw)).collect();
    for (fw, r) in runs.iter().enumerate() {
        for s in &r.stats.per_rank {
            if s.iterations != h.scale.iterations {
                problems.push(format!(
                    "held-out seed {:#x}, FW={fw}: rank {} confirmed {} of {} steps",
                    h.scale.seed, s.rank.0, s.iterations, h.scale.iterations
                ));
            }
        }
    }
    let bitwise = runs[0].particles.len() == reference.len()
        && runs[0].particles.iter().zip(reference).all(|(a, b)| {
            a.pos.x.to_bits() == b.pos.x.to_bits()
                && a.pos.y.to_bits() == b.pos.y.to_bits()
                && a.pos.z.to_bits() == b.pos.z.to_bits()
                && a.vel.x.to_bits() == b.vel.x.to_bits()
                && a.vel.y.to_bits() == b.vel.y.to_bits()
                && a.vel.z.to_bits() == b.vel.z.to_bits()
        });
    if !bitwise {
        problems.push(format!(
            "held-out seed {:#x}: FW=0 particles differ from the sequential reference",
            h.scale.seed
        ));
    }
    // Accepted speculations leave θ-bounded error that this dynamically
    // hot cloud amplifies; the drift is reported, not bounded.
    let drift = max_drift(&runs[1].particles, &runs[0].particles)
        .max(max_drift(&runs[2].particles, &runs[0].particles));
    Checked {
        problems,
        drift,
        iter_ms: mean_gap_ms(&runs[1].stats.per_rank),
    }
}

/// Set-up: the paper's scale and the held-out inputs.
fn setup(seed: u64) -> (Scale, Vec<Holdout>) {
    let holdouts = (0..HOLDOUTS).map(|v| Holdout::new(seed, v)).collect();
    (Scale::paper(), holdouts)
}

/// Run the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let ((scale, holdouts), setup_s) = setup_secs(|| setup(args.seed));
    let holdouts: Vec<(Holdout, Vec<Particle>)> = holdouts
        .into_iter()
        .map(|h| {
            let reference = h.reference();
            (h, reference)
        })
        .collect();

    if !args.trace {
        let mut host_rel = Vec::new();
        let mut expected: Option<Artifacts> = None;
        for_seconds(args.seconds, || {
            let calib_s = calibration_s();
            let (got, secs) = timed(|| artifacts(&scale));
            host_rel.push(secs / calib_s);
            let mut problems = check_holdouts(&holdouts).problems;
            if *expected.get_or_insert_with(|| got.clone()) != got {
                problems.push("artifacts differ between runs of the same inputs".into());
            }
            report.tally(&problems);
        });
        let speedup = expected.expect("at least one run").speedup_p16;
        end_to_end(&mut report, setup_s, &host_rel, speedup);
        return report;
    }

    let first_check = check_holdouts(&holdouts);

    let mut ledger = Ledger::new(Backend::Sim);
    let mut counts = Counts::default();
    let (mut ratios, mut overheads) = (Vec::new(), Vec::new());
    let (mut walls, mut calibs) = (Vec::new(), Vec::new());
    let mut model_err = 0.0;
    let flagship_cfg = case_config(&scale, 1, None);
    let flagship_p = *scale.p_values.iter().max().expect("non-empty sweep");
    let flagship = |cfg: ParallelRunConfig| {
        run_parallel(
            &centered_cloud(scale.n_particles, scale.seed),
            &ClusterSpec::paper_testbed().fastest(flagship_p),
            testbed_network(
                derive_seed(scale.seed, flagship_p as u64),
                scale.n_particles,
            ),
            Unloaded,
            cfg,
        )
        .expect("flagship run failed")
    };
    for_seconds(args.seconds, || {
        let mut problems = first_check.problems.clone();
        calibs.push(calibration_s());
        let (untraced, off_s) = timed(|| artifacts(&scale));
        walls.push(off_s);
        // Telemetry on/off, on the Fig. 8 flagship case through the entry
        // point.
        let (plain, plain_s) = timed(|| flagship(flagship_cfg.clone()));
        let (observed, observed_s) = timed(|| flagship(flagship_cfg.clone().with_trace()));
        // One rep's layer split; the ledger keeps only the last rep.
        ledger = Ledger::new(Backend::Sim);
        counts = Counts::default();
        let ((traced, traced_flagship), traced_s) =
            timed(|| traced_artifacts(&scale, &mut ledger, &mut counts));
        if traced != untraced {
            problems.push("traced artifacts differ from the untraced ones".into());
        }
        let fps = [
            fingerprint(&plain.particles),
            fingerprint(&observed.particles),
            fingerprint(&traced_flagship),
        ];
        if fps[0] != fps[1] || fps[0] != fps[2] {
            problems.push(format!("flagship fingerprints differ: {fps:x?}"));
        }
        if plain.elapsed_secs() != observed.elapsed_secs() {
            problems.push("telemetry changed the flagship's virtual end time".into());
        }
        model_err = traced.model_err_pct;
        ratios.push(traced_s / off_s);
        overheads.push(observed_s / plain_s);
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
            model_err_pct: model_err,
            trace_overhead: median(&overheads),
            host_ratio,
            drift_max: first_check.drift,
            iter_ms_mean: first_check.iter_ms,
            wall_s: median(&walls),
            calib_s: median(&calibs),
        },
    );
    report
}
