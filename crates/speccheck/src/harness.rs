//! Differential run harness: execute one described scenario under
//! different transports, drivers, fault specs, or event tie-breaks, and
//! reduce each run to per-rank state fingerprints plus driver stats so
//! properties can compare runs bit-for-bit.

use crate::scenario::{SpecParams, SyntheticScenario};
use desim::{SimDuration, SimTime, TieBreak};
use mpk::{
    run_sim_cluster_with_options, run_sim_proc_cluster_with_options, run_socket_cluster,
    run_socket_cluster_with_faults, run_thread_cluster, run_thread_cluster_with_fault_spec,
    Envelope, FaultCounters, FaultSpec, Rank, SimClusterOptions, SocketClusterOptions, Tag,
    ThreadClusterOptions, Transport,
};
use speccore::{
    run_baseline, run_baseline_aio, run_speculative, run_speculative_aio, IterMsg, RunStats,
    SpecConfig,
};

/// What a conformance run reduces to: one state fingerprint and one
/// [`RunStats`] per rank, plus the run's virtual end time (0 for thread
/// runs, whose wall clock is not comparable).
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Per-rank bit-exact fingerprints of the final workload state.
    pub fingerprints: Vec<u64>,
    /// Per-rank driver statistics.
    pub stats: Vec<RunStats>,
    /// Virtual end time in seconds (simulation runs only).
    pub elapsed: f64,
    /// The simulation kernel's own counters (simulation runs only) —
    /// compared bit-for-bit between thread-backed and async ranks by the
    /// differential suite.
    pub kernel: Option<KernelReport>,
}

/// The comparable subset of [`desim::SimReport`]: every kernel counter
/// that must agree between thread-backed and async ranks for a run to
/// count as bit-identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelReport {
    /// Virtual end time in nanoseconds.
    pub end_time_ns: u64,
    /// Events the kernel dispatched.
    pub events_processed: u64,
    /// Messages scheduled for delivery.
    pub messages_sent: u64,
    /// Messages that reached a mailbox.
    pub messages_delivered: u64,
    /// Deadline timers that expired and woke a timed receive.
    pub timers_fired: u64,
}

impl KernelReport {
    fn from_report(report: &desim::SimReport) -> Self {
        KernelReport {
            end_time_ns: report.end_time.as_nanos(),
            events_processed: report.events_processed,
            messages_sent: report.messages_sent,
            messages_delivered: report.messages_delivered,
            timers_fired: report.timers_fired,
        }
    }
}

/// How to drive the app: the plain non-speculative loop or the
/// speculative driver under a given configuration.
// Short-lived test-harness selector, cloned a handful of times per run;
// boxing the config would only move the bytes, not save any.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum DriverMode {
    /// [`run_baseline`]: block on every message (the paper's Figure 1).
    Baseline,
    /// [`run_speculative`] under the given config (Figure 3).
    Speculative(SpecConfig),
}

impl DriverMode {
    /// The speculative mode for a grid point.
    pub fn from_params(params: &SpecParams) -> Self {
        DriverMode::Speculative(params.build())
    }
}

/// A transport adapter reimplementing the pre-event-driven
/// `recv_timeout`: poll `try_recv` in `timeout / 16` quanta, the last
/// step landing exactly on the deadline. The workspace's transports wait
/// event-driven now; this reference implementation survives so
/// conformance properties can prove the two are observationally
/// equivalent where they must be (exact semantics, no faults firing) and
/// so experiments can measure what the polling cost.
pub struct PolledRecv<'t, T>(pub &'t mut T);

impl<T: Transport> Transport for PolledRecv<'_, T> {
    type Msg = T::Msg;

    fn rank(&self) -> Rank {
        self.0.rank()
    }

    fn size(&self) -> usize {
        self.0.size()
    }

    fn send(&mut self, to: Rank, tag: Tag, msg: Self::Msg) {
        self.0.send(to, tag, msg);
    }

    fn try_recv(&mut self) -> Option<Envelope<Self::Msg>> {
        self.0.try_recv()
    }

    fn recv(&mut self) -> Envelope<Self::Msg> {
        self.0.recv()
    }

    fn recv_timeout(&mut self, timeout: SimDuration) -> Option<Envelope<Self::Msg>> {
        if let Some(env) = self.0.try_recv() {
            return Some(env);
        }
        if timeout == SimDuration::ZERO {
            return None;
        }
        let deadline = self.0.now() + timeout;
        let quantum = SimDuration::from_nanos((timeout.as_nanos() / 16).max(1));
        loop {
            let now = self.0.now();
            if now >= deadline {
                return None;
            }
            let step = quantum.min(deadline - now);
            self.0.sleep(step);
            if let Some(env) = self.0.try_recv() {
                return Some(env);
            }
        }
    }

    fn sleep(&mut self, d: SimDuration) {
        self.0.sleep(d);
    }

    fn fault_counters(&self) -> FaultCounters {
        self.0.fault_counters()
    }

    fn compute(&mut self, ops: u64) {
        self.0.compute(ops);
    }

    fn now(&self) -> SimTime {
        self.0.now()
    }
}

/// Run the scenario's synthetic app on any transport and reduce to
/// (fingerprint, stats). This is the *one* definition both the simulated
/// and the threaded differential arms execute — the runs differ only in
/// the transport handed in.
pub fn drive_synthetic<T: Transport<Msg = IterMsg<Vec<f64>>>>(
    t: &mut T,
    sc: &SyntheticScenario,
    theta: f64,
    mode: &DriverMode,
) -> (u64, RunStats) {
    let ranges = sc.ranges();
    let mut app = workloads::SyntheticApp::new(sc.n, &ranges, t.rank().0, sc.app_cfg(theta));
    let stats = match mode {
        DriverMode::Baseline => run_baseline(t, &mut app, sc.iters),
        DriverMode::Speculative(cfg) => run_speculative(t, &mut app, sc.iters, cfg.clone()),
    };
    (app.fingerprint(), stats)
}

/// The `async` twin of [`drive_synthetic`]: the same one definition of the
/// workload run, for stackless (suspending) transports.
pub async fn drive_synthetic_aio<T: mpk::AsyncTransport<Msg = IterMsg<Vec<f64>>>>(
    t: &mut T,
    sc: &SyntheticScenario,
    theta: f64,
    mode: &DriverMode,
) -> (u64, RunStats) {
    let ranges = sc.ranges();
    let mut app = workloads::SyntheticApp::new(sc.n, &ranges, t.rank().0, sc.app_cfg(theta));
    let stats = match mode {
        DriverMode::Baseline => run_baseline_aio(t, &mut app, sc.iters).await,
        DriverMode::Speculative(cfg) => {
            run_speculative_aio(t, &mut app, sc.iters, cfg.clone()).await
        }
    };
    (app.fingerprint(), stats)
}

/// Run the scenario on the virtual-time simulator, fault-free, under the
/// given event tie-break.
pub fn run_sim(sc: &SyntheticScenario, theta: f64, mode: &DriverMode, tie: TieBreak) -> RunOutput {
    run_sim_with_faults(sc, theta, mode, FaultSpec::none(), tie)
}

/// Run the scenario on the virtual-time simulator with an explicit fault
/// spec and event tie-break.
pub fn run_sim_with_faults(
    sc: &SyntheticScenario,
    theta: f64,
    mode: &DriverMode,
    faults: FaultSpec<IterMsg<Vec<f64>>>,
    tie: TieBreak,
) -> RunOutput {
    let scenario = sc.clone();
    let mode = mode.clone();
    let (outs, report) = run_sim_cluster_with_options::<IterMsg<Vec<f64>>, _, _>(
        &sc.cluster(),
        sc.net(),
        netsim::Unloaded,
        faults,
        SimClusterOptions {
            tie_break: tie,
            ..Default::default()
        },
        move |t| drive_synthetic(t, &scenario, theta, &mode),
    )
    .expect("generated scenario must complete");
    let (fingerprints, stats) = outs.into_iter().unzip();
    RunOutput {
        fingerprints,
        stats,
        elapsed: report.end_time.as_secs_f64(),
        kernel: Some(KernelReport::from_report(&report)),
    }
}

/// [`run_sim`] with *async* ranks: every rank is a resumable state
/// machine inside the event kernel (no OS thread per rank), with the
/// kernel's scheduling-invariant oracle armed. Produces bit-identical
/// output to [`run_sim`] — that is the tentpole claim the differential
/// suite checks.
pub fn run_sim_stackless(
    sc: &SyntheticScenario,
    theta: f64,
    mode: &DriverMode,
    tie: TieBreak,
) -> RunOutput {
    run_sim_stackless_with_faults(sc, theta, mode, FaultSpec::none(), tie)
}

/// [`run_sim_stackless`] with an explicit fault spec and event tie-break.
///
/// Scheduling checks are always on in the stackless arms: they are cheap
/// per-grant assertions, and running every differential case under the
/// oracle is free coverage.
pub fn run_sim_stackless_with_faults(
    sc: &SyntheticScenario,
    theta: f64,
    mode: &DriverMode,
    faults: FaultSpec<IterMsg<Vec<f64>>>,
    tie: TieBreak,
) -> RunOutput {
    let (outs, report) = run_sim_proc_cluster_with_options::<IterMsg<Vec<f64>>, _, _, _>(
        &sc.cluster(),
        sc.net(),
        netsim::Unloaded,
        faults,
        SimClusterOptions {
            tie_break: tie,
            check_scheduling: true,
            ..Default::default()
        },
        move |mut t| {
            let scenario = sc.clone();
            let mode = mode.clone();
            async move { drive_synthetic_aio(&mut t, &scenario, theta, &mode).await }
        },
    )
    .expect("generated scenario must complete");
    let (fingerprints, stats) = outs.into_iter().unzip();
    RunOutput {
        fingerprints,
        stats,
        elapsed: report.end_time.as_secs_f64(),
        kernel: Some(KernelReport::from_report(&report)),
    }
}

/// Run the scenario on the simulator and return each rank's final
/// variable values — for properties that bound *numeric* drift (e.g. the
/// quantized delta exchange) rather than compare fingerprints.
pub fn run_sim_values(
    sc: &SyntheticScenario,
    theta: f64,
    mode: &DriverMode,
    tie: TieBreak,
) -> Vec<Vec<f64>> {
    let scenario = sc.clone();
    let mode = mode.clone();
    let (outs, _) = run_sim_cluster_with_options::<IterMsg<Vec<f64>>, _, _>(
        &sc.cluster(),
        sc.net(),
        netsim::Unloaded,
        FaultSpec::none(),
        SimClusterOptions {
            tie_break: tie,
            ..Default::default()
        },
        move |t| {
            let ranges = scenario.ranges();
            let mut app = workloads::SyntheticApp::new(
                scenario.n,
                &ranges,
                t.rank().0,
                scenario.app_cfg(theta),
            );
            match &mode {
                DriverMode::Baseline => {
                    run_baseline(t, &mut app, scenario.iters);
                }
                DriverMode::Speculative(cfg) => {
                    run_speculative(t, &mut app, scenario.iters, cfg.clone());
                }
            }
            app.values().to_vec()
        },
    )
    .expect("generated scenario must complete");
    outs
}

/// [`run_sim_with_faults`] with the reference *polling* receive of
/// [`PolledRecv`] in place of the event-driven one: every bounded wait
/// advances in quanta instead of blocking to an exact deadline.
pub fn run_sim_polled(
    sc: &SyntheticScenario,
    theta: f64,
    mode: &DriverMode,
    faults: FaultSpec<IterMsg<Vec<f64>>>,
    tie: TieBreak,
) -> RunOutput {
    let scenario = sc.clone();
    let mode = mode.clone();
    let (outs, report) = run_sim_cluster_with_options::<IterMsg<Vec<f64>>, _, _>(
        &sc.cluster(),
        sc.net(),
        netsim::Unloaded,
        faults,
        SimClusterOptions {
            tie_break: tie,
            ..Default::default()
        },
        move |t| {
            let mut polled = PolledRecv(t);
            drive_synthetic(&mut polled, &scenario, theta, &mode)
        },
    )
    .expect("generated scenario must complete");
    let (fingerprints, stats) = outs.into_iter().unzip();
    RunOutput {
        fingerprints,
        stats,
        elapsed: report.end_time.as_secs_f64(),
        kernel: Some(KernelReport::from_report(&report)),
    }
}

/// Run the scenario on real OS threads (in-process mailboxes, no
/// injected latency — the values, not the timing, are under test).
pub fn run_thread(sc: &SyntheticScenario, theta: f64, mode: &DriverMode) -> RunOutput {
    let scenario = sc.clone();
    let mode = mode.clone();
    let outs = run_thread_cluster::<IterMsg<Vec<f64>>, _, _>(
        sc.p,
        ThreadClusterOptions::default(),
        move |t| drive_synthetic(t, &scenario, theta, &mode),
    );
    let (fingerprints, stats) = outs.into_iter().unzip();
    RunOutput {
        fingerprints,
        stats,
        elapsed: 0.0,
        kernel: None,
    }
}

/// [`run_thread`] with an explicit fault spec (loss model, crash plan,
/// corruptor): the thread backend's wall-clock fault layer applies the
/// same [`FaultSpec`] semantics the simulator does, so crash→rejoin
/// schedules can be exercised on real OS threads.
pub fn run_thread_with_faults(
    sc: &SyntheticScenario,
    theta: f64,
    mode: &DriverMode,
    faults: FaultSpec<IterMsg<Vec<f64>>>,
) -> RunOutput {
    let scenario = sc.clone();
    let mode = mode.clone();
    let outs = run_thread_cluster_with_fault_spec::<IterMsg<Vec<f64>>, _, _>(
        sc.p,
        ThreadClusterOptions::default(),
        faults,
        move |t| drive_synthetic(t, &scenario, theta, &mode),
    );
    let (fingerprints, stats) = outs.into_iter().unzip();
    RunOutput {
        fingerprints,
        stats,
        elapsed: 0.0,
        kernel: None,
    }
}

/// [`run_socket`] with an explicit fault spec applied at the socket
/// send path — frames are dropped, duplicated, or suppressed (crashed
/// destination) before they reach the kernel, over otherwise-real TCP.
pub fn run_socket_with_faults(
    sc: &SyntheticScenario,
    theta: f64,
    mode: &DriverMode,
    faults: FaultSpec<IterMsg<Vec<f64>>>,
) -> RunOutput {
    let scenario = sc.clone();
    let mode = mode.clone();
    let outs = run_socket_cluster_with_faults::<IterMsg<Vec<f64>>, _, _>(
        sc.p,
        SocketClusterOptions::default(),
        faults,
        move |t| drive_synthetic(t, &scenario, theta, &mode),
    );
    let (fingerprints, stats) = outs.into_iter().unzip();
    RunOutput {
        fingerprints,
        stats,
        elapsed: 0.0,
        kernel: None,
    }
}

/// Run the scenario over real loopback TCP sockets: every message is
/// encoded, framed, crosses the kernel's network stack, and is decoded
/// on the far side. The third differential arm — agreement with
/// [`run_sim`] and [`run_thread`] proves the wire codec and socket
/// delivery path preserve the algorithm's semantics end to end.
pub fn run_socket(sc: &SyntheticScenario, theta: f64, mode: &DriverMode) -> RunOutput {
    let scenario = sc.clone();
    let mode = mode.clone();
    let outs = run_socket_cluster::<IterMsg<Vec<f64>>, _, _>(
        sc.p,
        SocketClusterOptions::default(),
        move |t| drive_synthetic(t, &scenario, theta, &mode),
    );
    let (fingerprints, stats) = outs.into_iter().unzip();
    RunOutput {
        fingerprints,
        stats,
        elapsed: 0.0,
        kernel: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::synthetic_scenario;
    use proptest::{Strategy, TestRng};

    #[test]
    fn sim_run_is_reproducible_bit_for_bit() {
        let sc = synthetic_scenario().sample(&mut TestRng::from_state(7));
        let mode = DriverMode::Speculative(SpecConfig::speculative(2));
        let a = run_sim(&sc, 0.2, &mode, TieBreak::Fifo);
        let b = run_sim(&sc, 0.2, &mode, TieBreak::Fifo);
        assert_eq!(a.fingerprints, b.fingerprints);
        assert_eq!(a.elapsed, b.elapsed);
    }

    #[test]
    fn baseline_mode_never_speculates() {
        let sc = synthetic_scenario().sample(&mut TestRng::from_state(8));
        let out = run_sim(&sc, 0.2, &DriverMode::Baseline, TieBreak::Fifo);
        assert_eq!(out.fingerprints.len(), sc.p);
        for s in &out.stats {
            assert_eq!(s.speculated_partitions, 0);
            assert_eq!(s.iterations, sc.iters);
        }
    }
}
