//! Behavioural golden for the speculative driver.
//!
//! Every row of the matrix below runs one configuration on the threaded
//! simulator with a telemetry recorder attached and reduces the run to
//! four things: each rank's final-state fingerprint, the virtual end
//! time, each rank's full `RunStats` (`Debug`), and an FNV-1a hash of the
//! recorded event stream (every span, mark and gauge, in emission order).
//! The rows cover every opt-in subsystem of the driver — forward windows
//! 0–3 under exact and θ-accepting semantics, loss with fault tolerance,
//! supervision through a scripted crash and rejoin, lossless and
//! quantized delta exchange, the adaptive controller with and without
//! fault tolerance, and the iteration log — plus one N-body row.
//!
//! The golden file pins the driver's observable behaviour byte for byte,
//! so a refactor of the driver that changes nothing observable leaves it
//! untouched.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use desim::{SimDuration, SimTime};
use mpk::{run_sim_cluster_with_faults, FaultSpec, SimTransport, Transport};
use netsim::{
    ClusterSpec, ConstantLatency, CrashPlan, Jitter, Loss, MachineCrash, NetworkModel, Unloaded,
};
use obs::{Fingerprint, SharedRecorder};
use speccheck::{assert_matches_golden, drive_synthetic, DriverMode, SyntheticScenario};
use speccore::{
    ControllerConfig, CorrectionMode, DeltaExchange, FaultTolerance, IterMsg, RunStats, SpecConfig,
    SupervisionConfig,
};

/// One row's observable outcome.
struct Outcome {
    fingerprints: Vec<u64>,
    stats: Vec<RunStats>,
    end_ns: u64,
    events: usize,
    events_fnv: u64,
}

/// Run `body` on every rank of a simulated cluster with a shared recorder
/// attached, and reduce the run to an [`Outcome`].
fn traced<M, F>(
    cluster: &ClusterSpec,
    net: impl NetworkModel + 'static,
    faults: FaultSpec<M>,
    body: F,
) -> Outcome
where
    M: mpk::WireSize + Clone + Send + 'static,
    F: for<'a, 'h> Fn(&mut SimTransport<'a, 'h, M>) -> (u64, RunStats) + Send + Sync + 'static,
{
    let recorder = SharedRecorder::new();
    let rank_recorder = recorder.clone();
    let (outs, report) = run_sim_cluster_with_faults(cluster, net, Unloaded, faults, false, {
        move |t: &mut SimTransport<'_, '_, M>| {
            t.set_recorder(Box::new(rank_recorder.clone()));
            body(t)
        }
    })
    .expect("golden row must complete");
    let events = recorder.drain();
    let mut fnv = Fingerprint::new();
    for e in &events {
        for b in format!("{e:?}").bytes() {
            fnv.write_u64(u64::from(b));
        }
    }
    let (fingerprints, stats) = outs.into_iter().unzip();
    Outcome {
        fingerprints,
        stats,
        end_ns: report.end_time.as_nanos(),
        events: events.len(),
        events_fnv: fnv.finish(),
    }
}

/// The synthetic workload shared by most rows: four ranks on a 2:1
/// machine ramp, jittered latency comparable to an iteration's compute,
/// and occasional value jumps so checks reject and corrections, deep
/// corrections and rollbacks all fire.
fn scenario() -> SyntheticScenario {
    SyntheticScenario {
        p: 4,
        n: 24,
        iters: 30,
        mips: 2.0,
        ramp: 0.5,
        latency_us: 800,
        jitter_frac: 0.4,
        jump_prob: 0.08,
        delta_floor: 0.0,
        delta_keyframe: 4,
        seed: 11,
    }
}

/// Run the synthetic scenario under `cfg` with the given fault layer.
fn synthetic(sc: &SyntheticScenario, theta: f64, cfg: SpecConfig, faults: Faults) -> Outcome {
    let scenario = sc.clone();
    let mode = DriverMode::Speculative(cfg);
    traced(&sc.cluster(), sc.net(), faults, move |t| {
        drive_synthetic(t, &scenario, theta, &mode)
    })
}

fn fw(w: u32) -> SpecConfig {
    if w == 0 {
        SpecConfig::baseline()
    } else {
        SpecConfig::speculative(w)
    }
}

type Faults = FaultSpec<IterMsg<Vec<f64>>>;

fn loss(p: f64, seed: u64) -> Faults {
    FaultSpec::new(Loss::new(p, seed))
}

fn crash(c: MachineCrash) -> CrashPlan {
    CrashPlan::new(vec![c])
}

/// The N-body row: 16 ranks on the paper's testbed ramp, FW = 2.
fn nbody_p16_fw2() -> Outcome {
    let particles = nbody::uniform_cloud(64, 3);
    let cluster = ClusterSpec::paper_testbed();
    let ranges = nbody::partition_proportional(particles.len(), &cluster.capacities());
    let all = Arc::new(particles);
    let net = Jitter::new(ConstantLatency(SimDuration::from_millis(2)), 0.3, 5);
    traced(&cluster, net, FaultSpec::none(), move |t| {
        let mut app = nbody::NBodyApp::new(
            &all,
            ranges.clone(),
            t.rank().0,
            nbody::NBodyConfig::default(),
            nbody::SpeculationOrder::Linear,
        );
        let stats = speccore::run_speculative(t, &mut app, 12, SpecConfig::speculative(2));
        (app.fingerprint(), stats)
    })
}

fn render(name: &str, o: &Outcome, out: &mut String) {
    writeln!(out, "== {name}").unwrap();
    writeln!(out, "end_ns: {}", o.end_ns).unwrap();
    writeln!(out, "events: {} fnv={:#018x}", o.events, o.events_fnv).unwrap();
    for (fp, s) in o.fingerprints.iter().zip(&o.stats) {
        writeln!(out, "fp {fp:#018x} {s:?}").unwrap();
    }
}

#[test]
fn driver_behaviour_matches_golden() {
    let sc = scenario();
    let slow = SyntheticScenario {
        mips: 0.5,
        ..sc.clone()
    };
    let none = FaultSpec::none;
    let ft = |ms| FaultTolerance::new(SimDuration::from_millis(ms)).with_staleness_budget(2);
    let ft2 = fw(2).with_fault_tolerance(ft(12));
    let lossless = DeltaExchange::new(0.0, 4);
    let ctl = ControllerConfig::new()
        .with_theta_grid(vec![0.0, 0.01, 0.05])
        .with_cadence(2, 1)
        .with_fw_max(3);
    // A pessimistic static timeout: the controller's gap-quantile
    // deadlines are tighter and drive loss detection.
    let deadlines = ControllerConfig::new()
        .with_cadence(4, 1)
        .with_fw_max(3)
        .with_deadline(0.5, 4.0);
    // Rank 3 is down from 15 ms to 115 ms: long enough for the survivors
    // to suspect and quarantine it, run degraded, and readmit it.
    let rejoin = MachineCrash {
        rank: 3,
        at: SimTime::from_nanos(15_000_000),
        restart_after: SimDuration::from_millis(100),
    };
    let dead = MachineCrash::permanent(1, SimTime::from_nanos(10_000_000));

    let mut rows: Vec<(String, &SyntheticScenario, f64, SpecConfig, Faults)> =
        vec![("baseline".into(), &sc, 0.0, fw(0), none())];
    for w in 0..=3 {
        let exact = fw(w).with_correction(CorrectionMode::Recompute);
        rows.push((format!("fw{w}-theta0-recompute"), &sc, 0.0, exact, none()));
        rows.push((
            format!("fw{w}-theta0.02-incremental"),
            &sc,
            0.02,
            fw(w),
            none(),
        ));
    }
    let theta_rows = [
        ("loss-ft", &sc, ft2.clone(), loss(0.08, 21)),
        (
            "loss-ft-lossless-delta",
            &sc,
            ft2.clone().with_delta_exchange(lossless),
            loss(0.08, 22),
        ),
        (
            "loss-ft-fw0-starvation",
            &sc,
            fw(0).with_fault_tolerance(ft(12)),
            loss(0.5, 23),
        ),
        // Slow machines, a short timeout and heavy loss: retransmit
        // replies from peers still behind the front re-arm their waits.
        (
            "slow-heavy-loss-ft",
            &slow,
            fw(2).with_fault_tolerance(ft(6)),
            loss(0.25, 31),
        ),
        (
            "loss-ft-supervision-crash-rejoin",
            &sc,
            fw(2)
                .with_fault_tolerance(ft(12).with_crashes(vec![rejoin]))
                .with_supervision(SupervisionConfig::new(1, 2)),
            loss(0.05, 24).with_crashes(crash(rejoin)),
        ),
        (
            "ft-supervision-permanent-crash",
            &sc,
            fw(1)
                .with_fault_tolerance(ft(12).with_crashes(vec![dead]))
                .with_supervision(SupervisionConfig::new(1, 1)),
            none().with_crashes(crash(dead)),
        ),
        (
            "lossless-delta",
            &sc,
            fw(2).with_delta_exchange(lossless),
            none(),
        ),
        (
            "quantized-delta",
            &sc,
            fw(2).with_delta_exchange(DeltaExchange::new(0.02, 5)),
            none(),
        ),
        ("controller", &sc, fw(1).with_adaptive(ctl.clone()), none()),
        (
            "controller-loss-ft",
            &sc,
            ft2.with_adaptive(ctl),
            loss(0.08, 25),
        ),
        (
            "controller-adaptive-deadlines",
            &slow,
            fw(2).with_fault_tolerance(ft(60)).with_adaptive(deadlines),
            loss(0.05, 32),
        ),
        ("iteration-log", &sc, fw(2).with_iteration_log(), none()),
        (
            "iteration-log-recompute",
            &sc,
            fw(3)
                .with_correction(CorrectionMode::Recompute)
                .with_iteration_log(),
            none(),
        ),
    ];
    rows.extend(theta_rows.map(|(name, sc, cfg, faults)| (name.into(), sc, 0.02, cfg, faults)));

    let mut out = String::new();
    for (name, sc, theta, cfg, faults) in rows {
        render(&name, &synthetic(sc, theta, cfg, faults), &mut out);
    }
    render("nbody-p16-fw2", &nbody_p16_fw2(), &mut out);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/driver_golden.txt");
    assert_matches_golden(&path, &out);
}
