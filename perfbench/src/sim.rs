//! The traced twin of `nbody::run_parallel_with_faults`: the same rank
//! closure (`NBodyApp::new` + `speccore::run_speculative`) on the same
//! `mpk` backend function, with every trait object the run touches wrapped
//! by a [`layers`](crate::layers) timer.

use std::sync::Arc;

use desim::SimReport;
use mpk::{run_sim_cluster_with_faults, FaultSpec, Transport};
use nbody::{partition_proportional, NBodyApp, ParallelRunConfig, Particle, PartitionShared};
use netsim::{ClusterSpec, FaultModel, NetworkModel, Unloaded};
use obs::SharedRecorder;
use speccore::{run_speculative, IterMsg, RunStats};

use crate::layers::{
    AppOps, Backend, Layer, Ledger, TimedApp, TimedModel, TimedRecorder, TimedTransport,
};
use crate::Counts;

/// The payload every N-body rank broadcasts.
pub type Msg = IterMsg<Arc<PartitionShared>>;

/// What a traced simulator run produced.
pub struct SimRun {
    /// Final particles, global order.
    pub particles: Vec<Particle>,
    /// Per-rank driver statistics.
    pub stats: Vec<RunStats>,
    /// Kernel report.
    pub report: SimReport,
}

/// Run `cfg` on `cluster` exactly as `run_parallel_with_faults` does (every
/// workload runs unloaded machines), with telemetry attached and every
/// layer timed into `ledger`; counters are added to `counts`.
pub fn traced_run(
    particles: &[Particle],
    cluster: &ClusterSpec,
    net: impl NetworkModel + 'static,
    faults: impl FaultModel + 'static,
    cfg: &ParallelRunConfig,
    ledger: &mut Ledger,
    counts: &mut Counts,
) -> SimRun {
    let clock = ledger.clocks_for(cluster.len()).remove(0);
    let ranges = Arc::new(partition_proportional(
        particles.len(),
        &cluster.capacities(),
    ));
    let all: Arc<Vec<Particle>> = Arc::new(particles.to_vec());
    let recorder = SharedRecorder::new();
    let ops = AppOps::default();
    let run = {
        let (clock, ops, cfg) = (clock.clone(), ops.clone(), cfg.clone());
        move |t: &mut mpk::SimTransport<'_, '_, Msg>| {
            let rank = t.rank().0;
            clock.open(rank);
            t.set_recorder(Box::new(TimedRecorder::new(
                recorder.clone(),
                rank,
                clock.clone(),
            )));
            let app = clock.span(rank, Layer::App, || {
                NBodyApp::new(&all, ranges.as_ref().clone(), rank, cfg.nbody, cfg.order)
            });
            let mut app = TimedApp::new(app, rank, clock.clone(), ops.clone());
            let stats = {
                let mut t = TimedTransport::new(t, clock.clone());
                run_speculative(&mut t, &mut app, cfg.iterations, cfg.spec.clone())
            };
            let out = (app.into_inner().particles(), stats);
            clock.close(rank, Backend::Sim);
            out
        }
    };
    let (outs, report) = ledger.timed(|| {
        run_sim_cluster_with_faults::<Msg, _, _>(
            cluster,
            TimedModel::new(net, clock.clone()),
            TimedModel::new(Unloaded, clock.clone()),
            FaultSpec::new(TimedModel::new(faults, clock.clone())),
            false,
            run,
        )
        .expect("traced simulator run failed")
    });
    let mut final_particles = Vec::with_capacity(particles.len());
    let mut stats = Vec::with_capacity(outs.len());
    for (chunk, s) in outs {
        final_particles.extend(chunk);
        stats.push(s);
    }
    counts.add_stats(&stats);
    counts.events += report.events_processed;
    counts.ops += ops.total();
    SimRun {
        particles: final_particles,
        stats,
        report,
    }
}
