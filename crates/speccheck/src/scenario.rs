//! Scenario generators: plain-data descriptions of clusters, networks,
//! speculation configs, fault stacks, and small workload instances, plus
//! [`proptest`](mod@proptest) strategies that draw them.
//!
//! Several workspace config objects hold trait objects
//! ([`netsim::BoxedNetworkModel`], [`mpk::FaultSpec`]'s fate model) and
//! cannot be `Clone` — but shrinking and corpus replay need values that
//! are. Every generator therefore produces a small `Clone + Debug +
//! PartialEq` *description* struct with a `build()` (or equivalent)
//! method that instantiates the real object on demand, as many times as a
//! differential test needs.
//!
//! The headline scenario strategies implement
//! [`proptest::Strategy::shrink`] by hand with domain knowledge: a
//! failing case shrinks toward fewer ranks, fewer variables, fewer
//! iterations, a calm network, and a zero seed — the most debuggable
//! counterexample, not merely a numerically smaller tuple.

use desim::SimDuration;
use netsim::{
    BoxedLoadModel, BoxedNetworkModel, ClusterSpec, ConstantLatency, Duplicate, FaultStack, Jitter,
    Loss, MachineSpec, RandomSpikes, SharedMedium, TransientDelays, UniformNoise, Unloaded,
};
use proptest::prelude::*;
use proptest::TestRng;
use speccore::{CorrectionMode, DeltaExchange, FaultTolerance, SpecConfig};
use std::ops::Range;
use workloads::SyntheticConfig;

// ---------------------------------------------------------------------------
// Workload scenario: machine ramp + network + synthetic instance.
// ---------------------------------------------------------------------------

/// A complete, plain-data description of a synthetic-workload run: the
/// machine ramp, the network, and the workload instance. Everything a
/// differential test needs to build the same run twice.
#[derive(Clone, Debug, PartialEq)]
pub struct SyntheticScenario {
    /// Number of ranks (≥ 2).
    pub p: usize,
    /// Total variables across ranks (≥ `p`).
    pub n: usize,
    /// Iterations to run (≥ 2).
    pub iters: u64,
    /// Fastest machine's capacity in MIPS.
    pub mips: f64,
    /// Capacity ramp: machine `i` runs at `mips·(1 − ramp·i/(p−1))`.
    /// `0` is homogeneous; `0.8` is a 5:1 spread like the paper's 10:1
    /// workstation mix, scaled down to keep generated runs quick.
    pub ramp: f64,
    /// Base one-way message latency in microseconds.
    pub latency_us: u64,
    /// Jitter fraction (`0` = deterministic constant latency).
    pub jitter_frac: f64,
    /// Probability per iteration of a discontinuous value jump
    /// (speculation poison; exercises the misspeculation paths).
    pub jump_prob: f64,
    /// Quantization floor for the delta-exchange axis (`0` = lossless
    /// deltas). Only consulted by properties that opt into delta mode.
    pub delta_floor: f64,
    /// Keyframe interval for the delta-exchange axis (≥ 1; `1` = every
    /// frame is a full snapshot).
    pub delta_keyframe: u64,
    /// Seed for the workload's jump process and any jittered network.
    pub seed: u64,
}

impl SyntheticScenario {
    /// The machine ramp as a [`ClusterSpec`], fastest first.
    pub fn cluster(&self) -> ClusterSpec {
        let denom = (self.p - 1).max(1) as f64;
        ClusterSpec::new(
            (0..self.p)
                .map(|i| MachineSpec::new(self.mips * (1.0 - self.ramp * i as f64 / denom)))
                .collect(),
        )
    }

    /// The network model (constant latency, or jittered around it).
    pub fn net(&self) -> BoxedNetworkModel {
        let base = ConstantLatency(SimDuration::from_micros(self.latency_us));
        if self.jitter_frac > 0.0 {
            Box::new(Jitter::new(base, self.jitter_frac, self.seed))
        } else {
            Box::new(base)
        }
    }

    /// Contiguous even partition of the `n` variables over `p` ranks.
    pub fn ranges(&self) -> Vec<Range<usize>> {
        (0..self.p)
            .map(|i| i * self.n / self.p..(i + 1) * self.n / self.p)
            .collect()
    }

    /// The scenario's delta-exchange policy at this floor/keyframe point
    /// (properties override the floor to pin lossless or lossy behavior).
    pub fn delta_policy(&self) -> DeltaExchange {
        DeltaExchange::new(self.delta_floor, self.delta_keyframe)
    }

    /// The workload config at acceptance threshold `theta`.
    pub fn app_cfg(&self, theta: f64) -> SyntheticConfig {
        SyntheticConfig {
            theta,
            jump_prob: self.jump_prob,
            seed: self.seed,
            // Keep generated runs cheap: the default f_comp (70 000 ops
            // per variable) is the paper's N-body scale, far more virtual
            // work than a conformance check needs.
            f_comp: 200,
            ..Default::default()
        }
    }
}

/// Strategy for [`SyntheticScenario`] with domain-aware shrinking.
#[derive(Clone, Copy, Debug)]
pub struct SyntheticScenarioStrategy {
    /// Largest rank count the strategy will draw (inclusive).
    max_p: usize,
}

impl Default for SyntheticScenarioStrategy {
    fn default() -> Self {
        SyntheticScenarioStrategy { max_p: 5 }
    }
}

/// Draw a complete workload scenario: 2–5 ranks, 8–48 variables, 2–8
/// iterations, a 1:1–5:1 machine ramp, 0–5 ms latency with optional
/// jitter, and an occasional value jump.
pub fn synthetic_scenario() -> SyntheticScenarioStrategy {
    SyntheticScenarioStrategy::default()
}

/// [`synthetic_scenario`] with the rank-count axis widened to `max_p`
/// (clamped to at least 2). Above the default ceiling of 5 the rank count
/// is drawn log-uniformly — half the mass stays on small clusters where
/// shrinking is cheap, but every doubling up to `max_p` (e.g. 4096) is hit
/// with equal probability, which is what a scheduling-oracle sweep wants.
/// Shrinking halves `p` toward 2, so a failing 4096-rank case walks down
/// through 2048, 1024, … rather than replaying giant clusters.
pub fn synthetic_scenario_up_to(max_p: usize) -> SyntheticScenarioStrategy {
    SyntheticScenarioStrategy {
        max_p: max_p.max(2),
    }
}

impl Strategy for SyntheticScenarioStrategy {
    type Value = SyntheticScenario;

    fn sample(&self, rng: &mut TestRng) -> SyntheticScenario {
        // Keep the draw sequence for the default ceiling bit-identical to
        // the historical strategy (one `below(4)` call) so checked-in
        // proptest-regressions seeds replay the same scenarios.
        let p = if self.max_p <= 5 {
            2 + rng.below((self.max_p - 1) as u64) as usize
        } else {
            let span = (self.max_p - 1) as u64;
            let bits = 64 - span.leading_zeros() as u64;
            let k = rng.below(bits);
            2 + rng.below((1u64 << (k + 1)).min(span)) as usize
        };
        SyntheticScenario {
            p,
            n: p.max(8) + rng.below(40) as usize,
            iters: 2 + rng.below(7),
            mips: 5.0 + rng.unit_f64() * 45.0,
            ramp: rng.unit_f64() * 0.8,
            latency_us: rng.below(5_000),
            jitter_frac: if rng.below(2) == 0 {
                0.0
            } else {
                0.2 + rng.unit_f64() * 0.7
            },
            jump_prob: rng.unit_f64() * 0.3,
            delta_floor: if rng.below(2) == 0 {
                0.0
            } else {
                rng.unit_f64() * 1e-3
            },
            delta_keyframe: 1 + rng.below(8),
            seed: rng.next_u64(),
        }
    }

    fn shrink(&self, v: &SyntheticScenario) -> Vec<SyntheticScenario> {
        let mut out = Vec::new();
        let mut push = |s: SyntheticScenario| {
            if s != *v {
                out.push(s);
            }
        };
        // Most aggressive first: collapse each axis to its floor, then
        // halve. Every candidate changes exactly one axis so the greedy
        // shrinker can attribute the failure.
        push(SyntheticScenario { p: 2, ..v.clone() });
        push(SyntheticScenario {
            p: (v.p / 2).max(2),
            ..v.clone()
        });
        push(SyntheticScenario {
            n: v.p.max(8),
            ..v.clone()
        });
        push(SyntheticScenario {
            n: (v.n / 2).max(v.p.max(8)),
            ..v.clone()
        });
        push(SyntheticScenario {
            iters: 2,
            ..v.clone()
        });
        push(SyntheticScenario {
            iters: (v.iters - 1).max(2),
            ..v.clone()
        });
        push(SyntheticScenario {
            ramp: 0.0,
            ..v.clone()
        });
        push(SyntheticScenario {
            latency_us: 0,
            ..v.clone()
        });
        push(SyntheticScenario {
            latency_us: v.latency_us / 2,
            ..v.clone()
        });
        push(SyntheticScenario {
            jitter_frac: 0.0,
            ..v.clone()
        });
        push(SyntheticScenario {
            jump_prob: 0.0,
            ..v.clone()
        });
        push(SyntheticScenario {
            delta_floor: 0.0,
            ..v.clone()
        });
        push(SyntheticScenario {
            delta_keyframe: 1,
            ..v.clone()
        });
        push(SyntheticScenario {
            mips: 10.0,
            ..v.clone()
        });
        push(SyntheticScenario {
            seed: 0,
            ..v.clone()
        });
        out
    }
}

// ---------------------------------------------------------------------------
// Speculation-config grid.
// ---------------------------------------------------------------------------

/// A point in the FW/BW/θ/correction grid of [`SpecConfig`] plus the
/// workload-side acceptance threshold θ (which lives in the app config
/// for the synthetic workload, not in [`SpecConfig`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpecParams {
    /// Forward window (0 = baseline: block on every message).
    pub fw: u32,
    /// Backward window (history depth for extrapolation).
    pub bw: usize,
    /// Acceptance threshold θ for the workload's check.
    pub theta: f64,
    /// Use [`CorrectionMode::Recompute`] instead of incremental
    /// correction.
    pub recompute: bool,
}

impl SpecParams {
    /// The driver configuration for this grid point.
    pub fn build(&self) -> SpecConfig {
        let cfg = if self.fw == 0 {
            SpecConfig::baseline()
        } else {
            SpecConfig::speculative(self.fw)
        };
        let cfg = cfg.with_backward_window(self.bw);
        if self.recompute {
            cfg.with_correction(CorrectionMode::Recompute)
        } else {
            cfg
        }
    }

    /// True when this grid point has *exact* semantics: θ = 0 accepts
    /// nothing, and recompute discards every speculative result — so the
    /// run must be bit-identical to the non-speculative baseline and
    /// across transports and tie-breaks.
    pub fn is_exact(&self) -> bool {
        self.theta == 0.0 && (self.recompute || self.fw == 0)
    }
}

/// Strategy over the full grid (θ ∈ [0, 0.5), both correction modes).
#[derive(Clone, Copy, Debug, Default)]
pub struct SpecParamsStrategy {
    exact_only: bool,
}

/// Draw any speculation grid point: FW 0–3, BW 1–3, θ ∈ [0, 0.5),
/// either correction mode.
pub fn spec_params() -> SpecParamsStrategy {
    SpecParamsStrategy { exact_only: false }
}

/// Draw only *exact-semantics* grid points (θ = 0 + recompute, FW 1–3):
/// the configurations for which the paper's scheme is a pure latency
/// optimization and results must be bit-identical to the baseline.
pub fn exact_spec_params() -> SpecParamsStrategy {
    SpecParamsStrategy { exact_only: true }
}

impl Strategy for SpecParamsStrategy {
    type Value = SpecParams;

    fn sample(&self, rng: &mut TestRng) -> SpecParams {
        if self.exact_only {
            SpecParams {
                fw: 1 + rng.below(3) as u32,
                bw: 1 + rng.below(3) as usize,
                theta: 0.0,
                recompute: true,
            }
        } else {
            SpecParams {
                fw: rng.below(4) as u32,
                bw: 1 + rng.below(3) as usize,
                theta: rng.unit_f64() * 0.5,
                recompute: rng.below(2) == 0,
            }
        }
    }

    fn shrink(&self, v: &SpecParams) -> Vec<SpecParams> {
        let fw_floor = if self.exact_only { 1 } else { 0 };
        let mut out = Vec::new();
        let mut push = |s: SpecParams| {
            if s != *v {
                out.push(s);
            }
        };
        push(SpecParams { fw: fw_floor, ..*v });
        if v.fw > fw_floor {
            push(SpecParams { fw: v.fw - 1, ..*v });
        }
        push(SpecParams { bw: 1, ..*v });
        if !self.exact_only {
            push(SpecParams { theta: 0.0, ..*v });
            push(SpecParams {
                theta: v.theta / 2.0,
                ..*v
            });
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Delay / load model menagerie.
// ---------------------------------------------------------------------------

/// Plain-data description of a network delay model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DelayModel {
    /// Fixed one-way latency.
    Constant {
        /// Latency in microseconds.
        us: u64,
    },
    /// Latency plus serialization on a contended shared medium.
    Shared {
        /// Base latency in microseconds.
        us: u64,
        /// Medium bandwidth in bytes per second.
        bytes_per_sec: f64,
    },
    /// Seeded multiplicative jitter around a constant base.
    Jittered {
        /// Base latency in microseconds.
        us: u64,
        /// Jitter fraction in `(0, 1)`.
        frac: f64,
        /// Jitter seed.
        seed: u64,
    },
    /// Occasional large stalls on top of a constant base.
    Transient {
        /// Base latency in microseconds.
        us: u64,
        /// Per-message stall probability.
        prob: f64,
        /// Stall length in milliseconds.
        extra_ms: u64,
        /// Stall seed.
        seed: u64,
    },
}

impl DelayModel {
    /// Instantiate the described [`netsim::NetworkModel`].
    pub fn build(&self) -> BoxedNetworkModel {
        match *self {
            DelayModel::Constant { us } => Box::new(ConstantLatency(SimDuration::from_micros(us))),
            DelayModel::Shared { us, bytes_per_sec } => Box::new(SharedMedium::new(
                SimDuration::from_micros(us),
                bytes_per_sec,
            )),
            DelayModel::Jittered { us, frac, seed } => Box::new(Jitter::new(
                ConstantLatency(SimDuration::from_micros(us)),
                frac,
                seed,
            )),
            DelayModel::Transient {
                us,
                prob,
                extra_ms,
                seed,
            } => Box::new(TransientDelays::new(
                ConstantLatency(SimDuration::from_micros(us)),
                prob,
                SimDuration::from_millis(extra_ms),
                seed,
            )),
        }
    }
}

/// Draw one of the four delay-model families with small parameters.
pub fn delay_model() -> impl Strategy<Value = DelayModel> {
    prop_oneof![
        (0u64..5_000).prop_map(|us| DelayModel::Constant { us }),
        (10u64..2_000, 1e5f64..1e8)
            .prop_map(|(us, bytes_per_sec)| DelayModel::Shared { us, bytes_per_sec }),
        (10u64..2_000, 0.1f64..0.9, 0u64..1_000)
            .prop_map(|(us, frac, seed)| { DelayModel::Jittered { us, frac, seed } }),
        (10u64..1_000, 0.01f64..0.2, 1u64..20, 0u64..1_000).prop_map(
            |(us, prob, extra_ms, seed)| DelayModel::Transient {
                us,
                prob,
                extra_ms,
                seed
            }
        ),
    ]
}

/// Plain-data description of a background-load model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LoadScenario {
    /// No background load.
    Unloaded,
    /// Seeded multiplicative slowdown spikes.
    Spikes {
        /// Per-quantum spike probability.
        prob: f64,
        /// Slowdown factor during a spike.
        slowdown: f64,
        /// Spike seed.
        seed: u64,
    },
    /// Seeded uniform capacity noise.
    Noise {
        /// Noise fraction in `(0, 1)`.
        frac: f64,
        /// Noise seed.
        seed: u64,
    },
}

impl LoadScenario {
    /// Instantiate the described [`netsim::LoadModel`].
    pub fn build(&self) -> BoxedLoadModel {
        match *self {
            LoadScenario::Unloaded => Box::new(Unloaded),
            LoadScenario::Spikes {
                prob,
                slowdown,
                seed,
            } => Box::new(RandomSpikes::new(prob, slowdown, seed)),
            LoadScenario::Noise { frac, seed } => Box::new(UniformNoise::new(frac, seed)),
        }
    }
}

/// Draw a background-load scenario (unloaded, spikes, or noise).
pub fn load_scenario() -> impl Strategy<Value = LoadScenario> {
    prop_oneof![
        Just(LoadScenario::Unloaded),
        (0.05f64..0.4, 1.5f64..5.0, 0u64..1_000).prop_map(|(prob, slowdown, seed)| {
            LoadScenario::Spikes {
                prob,
                slowdown,
                seed,
            }
        }),
        (0.05f64..0.5, 0u64..1_000).prop_map(|(frac, seed)| LoadScenario::Noise { frac, seed }),
    ]
}

// ---------------------------------------------------------------------------
// Fault stacks.
// ---------------------------------------------------------------------------

/// Plain-data description of a message-fault stack plus the driver-side
/// tolerance needed to survive it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultScenario {
    /// Per-message loss probability.
    pub loss_prob: f64,
    /// Per-message duplication probability (`0` for loss-only stacks).
    pub dup_prob: f64,
    /// Fate seed.
    pub seed: u64,
    /// Driver retransmit timeout in milliseconds. Generators keep this
    /// far above any generated latency so the "speculate-through-loss
    /// commits ≤ messages lost" accounting oracle is valid.
    pub timeout_ms: u64,
}

impl FaultScenario {
    /// The message-fate stack ([`mpk::FaultSpec`] wants a model).
    pub fn build<M>(&self) -> mpk::FaultSpec<M> {
        let mut stack = FaultStack::new().with(Loss::new(self.loss_prob, self.seed));
        if self.dup_prob > 0.0 {
            stack = stack.with(Duplicate::new(self.dup_prob, self.seed.wrapping_add(1)));
        }
        mpk::FaultSpec::new(stack)
    }

    /// The driver-side tolerance matching [`FaultScenario::timeout_ms`].
    pub fn tolerance(&self) -> FaultTolerance {
        FaultTolerance::new(SimDuration::from_millis(self.timeout_ms))
    }
}

/// Draw a loss-only fault stack: 2–20% loss, 20–80 ms retransmit
/// timeout. Pair with latencies ≤ 5 ms so every loss is detected and
/// retransmitted well before the next one.
pub fn loss_scenario() -> impl Strategy<Value = FaultScenario> {
    (0.02f64..0.2, 0u64..1_000, 20u64..80).prop_map(|(loss_prob, seed, timeout_ms)| FaultScenario {
        loss_prob,
        dup_prob: 0.0,
        seed,
        timeout_ms,
    })
}

/// Draw a loss + duplication stack (accounting oracles that require
/// loss-only stacks should use [`loss_scenario`] instead).
pub fn fault_stack_scenario() -> impl Strategy<Value = FaultScenario> {
    (0.02f64..0.2, 0.0f64..0.2, 0u64..1_000, 20u64..80).prop_map(
        |(loss_prob, dup_prob, seed, timeout_ms)| FaultScenario {
            loss_prob,
            dup_prob,
            seed,
            timeout_ms,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> TestRng {
        TestRng::from_state(0x5eed_1234_5678_9abc)
    }

    #[test]
    fn scenario_invariants_hold_over_many_samples() {
        let s = synthetic_scenario();
        let mut r = rng();
        for _ in 0..500 {
            let sc = s.sample(&mut r);
            assert!((2..=5).contains(&sc.p));
            assert!(sc.n >= sc.p, "every rank must own at least one variable");
            assert!(sc.iters >= 2);
            assert!(sc.ramp < 0.9, "slowest machine must keep >10% capacity");
            assert!(sc.delta_keyframe >= 1);
            assert!(sc.delta_floor >= 0.0 && sc.delta_floor.is_finite());
            // The builders must accept every generated value.
            let cluster = sc.cluster();
            assert_eq!(cluster.len(), sc.p);
            let ranges = sc.ranges();
            assert_eq!(ranges.last().unwrap().end, sc.n);
            let _ = sc.net();
            let _ = sc.delta_policy();
        }
    }

    #[test]
    fn scenario_shrink_moves_each_axis_toward_its_floor() {
        let s = synthetic_scenario();
        let mut r = rng();
        let sc = s.sample(&mut r);
        for cand in s.shrink(&sc) {
            assert_ne!(cand, sc, "shrink candidates must differ from the value");
            assert!(cand.p <= sc.p);
            assert!(cand.n <= sc.n);
            assert!(cand.iters <= sc.iters);
        }
        // A floor value has nowhere left to go on the collapsed axes.
        let floor = SyntheticScenario {
            p: 2,
            n: 8,
            iters: 2,
            mips: 10.0,
            ramp: 0.0,
            latency_us: 0,
            jitter_frac: 0.0,
            jump_prob: 0.0,
            delta_floor: 0.0,
            delta_keyframe: 1,
            seed: 0,
        };
        assert!(s.shrink(&floor).is_empty());
    }

    #[test]
    fn exact_spec_params_are_exact() {
        let s = exact_spec_params();
        let mut r = rng();
        for _ in 0..200 {
            let p = s.sample(&mut r);
            assert!(p.is_exact());
            assert!(p.fw >= 1, "exact grid still speculates");
        }
        // And shrinking never leaves the exact subgrid.
        let p = s.sample(&mut r);
        for cand in s.shrink(&p) {
            assert!(cand.is_exact());
            assert!(cand.fw >= 1);
        }
    }

    #[test]
    fn builders_construct_real_models() {
        let mut r = rng();
        for _ in 0..100 {
            let _ = delay_model().sample(&mut r).build();
            let _ = load_scenario().sample(&mut r).build();
            let f = loss_scenario().sample(&mut r);
            assert_eq!(f.dup_prob, 0.0);
            let _ = f.build::<u64>();
            assert!(f.timeout_ms >= 20);
        }
    }
}
