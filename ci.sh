#!/usr/bin/env bash
# Repository CI gate: formatting, lints, tests. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test"
cargo test -q

echo "== cargo test --workspace (every crate's unit and integration tests)"
# The root package's tests above cover the facade crate only; this runs
# the unit tests of mpk, speccore, nbody, obs, perfmodel, workloads,
# netsim, bench and the rest of the workspace.
cargo test --workspace -q

echo "== speccheck conformance & property suite (64 cases/property, fixed seeds)"
# Differential conformance (sim vs thread transport, speculative vs
# baseline under exact semantics), schedule-perturbation determinism,
# and the invariant-oracle pack. The proptest shim derives a fixed seed
# per test, so this gate is fully deterministic; the checked-in
# regression corpus (crates/speccheck/proptest-regressions/) replays
# every historical counterexample first.
cargo test -q -p speccheck

echo "== stackless kernel differential suite (threaded vs event-scheduled)"
# The two desim execution models — one OS thread per rank
# (legacy-threads) and resumable state machines inside the event kernel
# (stackless) — must be bit-identical: per-rank fingerprints, RunStats,
# virtual end time, and the kernel's own event/message/timer counters.
# The suite replays the checked-in proptest-regressions witnesses on
# both kernels and runs the failure-injection chaos matrix
# differentially at the mpk level (full SimReport equality).
cargo test -q --test stackless_equivalence

echo "== desim without legacy-threads (stackless-only build)"
# The stackless kernel must build and pass its suite with the threaded
# runner compiled out entirely (the cfg the differential suite exists
# to police).
cargo build -q -p desim --no-default-features
cargo test -q -p desim --no-default-features

echo "== regression corpus replay + full-grid inertness (explicit)"
# Re-run the two properties whose checked-in counterexamples pinned the
# polling-quantum and timeout-cascade bugs, by name, so a corpus entry
# silently skipped by a filter typo can never slip through. The corpus
# states replay before fresh cases; both must hold with the full
# assertions on (fingerprint + end-time equality on the whole θ/FW grid,
# cluster-wide commits ≤ losses).
cargo test -q -p speccheck --test conformance fault_tolerance_is_inert_without_faults
cargo test -q -p speccheck --test oracles loss_commits_bounded_by_losses

echo "== delta-exchange conformance (explicit)"
# The PR 7 equivalences by name: floor=0 delta exchange is
# fingerprint-identical to full broadcast across the θ/FW grid and
# across all three backends, and a nonzero floor's drift stays inside
# the quantization envelope.
cargo test -q -p speccheck --test conformance lossless_delta_equals_full_broadcast_across_grid
cargo test -q -p speccheck --test conformance quantized_delta_drift_is_bounded
cargo test -q -p speccheck --test conformance lossless_delta_agrees_across_all_three_backends

echo "== supervision conformance (explicit)"
# The PR 8 lifecycle properties by name: supervision off is bit-inert;
# a never-returning peer is quarantined and carried to completion in
# degraded mode with commits bounded by losses; crash fingerprints for a
# permanently-dead rank agree bit-for-bit across sim/thread/socket; a
# crash→rejoin schedule completes on all three backends with the sim
# run bit-replayable; and the fixed rejoin schedule pins the full
# quarantine→rejoin→readmission lifecycle deterministically.
cargo test -q -p speccheck --test conformance supervision_is_inert_without_faults
cargo test -q -p speccheck --test conformance degraded_mode_carries_a_dead_peer_to_completion
cargo test -q -p speccheck --test conformance crash_fingerprints_agree_across_all_three_backends
cargo test -q -p speccheck --test conformance crash_rejoin_completes_on_all_three_backends
cargo test -q -p speccheck --test conformance quarantined_peer_rejoins_and_is_readmitted

echo "== adaptive controller conformance (explicit)"
# The PR 10 controller contract by name: an attached-but-dormant
# controller is bit-inert; an active controller whose θ grid holds only
# the exact anchor stays bit-identical to the blocking baseline (and
# agrees across sim/thread backends); controller-driven lossy runs
# replay bit-for-bit; the window decision converges near the offline
# optimum under stationary delay; and gap-quantile deadlines beat a
# pessimistic static loss timeout under real loss.
cargo test -q -p speccheck --test controller dormant_controller_is_bit_inert
cargo test -q -p speccheck --test controller active_exact_anchor_controller_equals_baseline
cargo test -q -p speccheck --test controller sim_and_thread_agree_under_exact_anchor_controller
cargo test -q -p speccheck --test controller controller_converges_near_offline_optimal_window
cargo test -q -p speccheck --test controller adaptive_deadlines_beat_pessimistic_static_timeout_under_loss

echo "== coverage audit (informational)"
# Name-based audit of perfmodel/workloads public APIs against the test
# corpus. Informational here; pass --strict to fail on gaps.
ci/coverage_audit.sh | tail -n 3

echo "== chaos suite (release, fixed seeds)"
# Seed-matrix fault injection: composed loss/duplication/partitions plus
# a scripted crash, asserting liveness, bounded error, and bit-exact
# determinism per seed. Seeds are fixed inside the tests.
cargo test --release --test chaos -q

echo "== socket SIGKILL chaos (release, multi-process, hard timeout)"
# One OS process per rank over loopback TCP; the highest rank is
# SIGKILLed mid-run and restarted via the RESUME handshake. Asserts
# termination, survivor quarantine/readmission, and bounded error vs
# the fault-free reference. The timeout is a hard backstop: the run
# itself finishes in ~10s, and its internal 90s deadline kills stuck
# children with a diagnostic first.
timeout 150 cargo test --release --test chaos_socket \
    socket_rank_survives_sigkill_and_rejoins -- --exact --ignored --nocapture

echo "== kernels bench smoke (release)"
# Emits BENCH_kernels.json: wall-clock pairs/sec for the scalar and SoA
# force kernels at N ∈ {1024, 4096}. SPEC_BENCH_OUT pins the artifact to
# the repo root (cargo bench -p runs with the package dir as cwd).
SPEC_BENCH_OUT="$PWD" cargo bench -q -p spec-bench --bench kernels

echo "== transport bench smoke (release)"
# Emits BENCH_transport.json: messages/sec for broadcast and ping-pong
# traffic over all three Transport backends (sim, thread, socket), plus
# the deterministic full-vs-delta bytes-on-wire rows for the N-body
# exchange phase.
SPEC_BENCH_OUT="$PWD" cargo bench -q -p spec-bench --bench transport_regression

echo "== stackless scale sweep (release)"
# Emits BENCH_scale.json: wall-clock and peak-RSS rows for 1k/10k/100k
# event-scheduled ranks (zero OS threads per rank) in a heterogeneous
# token ring. The 10000-rank row is the PR's acceptance anchor.
SPEC_BENCH_OUT="$PWD" cargo bench -q -p spec-bench --bench scale_sweep

echo "== controller sweep (release, deterministic virtual time)"
# Emits BENCH_controller.json: the fixed (θ, FW) grid vs the adaptive
# controller on the heterogeneous-delay + transient-spike scenario. All
# numbers are exact virtual-time nanoseconds.
SPEC_BENCH_OUT="$PWD" cargo bench -q -p spec-bench --bench controller_sweep

echo "== transport regression gate (throughput floors + byte ceilings)"
# Compare the fresh BENCH_transport.json against the checked-in
# throughput floors (fail on >25% regression below budget), hold the
# exchange byte rows under their ceilings, and require delta mode to
# stay ≥3× cheaper per iteration than full broadcast. Also gates the
# fresh BENCH_scale.json: events/sec floors and RSS-per-rank ceilings
# per rank count, with the 10000-rank row mandatory, and the fresh
# BENCH_controller.json: the adaptive controller's makespan must stay
# within ratio_ceiling of the best fixed (θ, FW) grid point. Refresh
# with BENCH_UPDATE_BUDGETS=1 ci/bench_gate.sh after intentional changes
# or a CI hardware move.
ci/bench_gate.sh

echo "CI green."
