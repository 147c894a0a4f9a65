//! # mpk — a message-passing kernel in the spirit of PVM
//!
//! The paper's experiments run "under the PVM programming environment using
//! the message passing paradigm" on a network of workstations. Rust's MPI
//! story is thin, so this crate provides the message-passing substrate from
//! scratch: a small [`Transport`] trait (identity, async send, blocking and
//! non-blocking receive, charged computation, a clock) with two
//! interchangeable backends:
//!
//! * [`run_sim_cluster`] / [`SimTransport`] — ranks are processes of the
//!   [`desim`] virtual-time kernel on a [`netsim`] cluster: deterministic,
//!   seedable, instantaneous. All quantitative experiments use this. Its
//!   async twin, [`run_sim_proc_cluster`] / [`SimIo`], runs each rank as a
//!   state machine instead of a thread, over the same wire model.
//! * [`run_thread_cluster`] / [`ThreadTransport`] — ranks are real OS
//!   threads exchanging messages through in-process mailboxes with
//!   optionally injected latency: the live "channel-based port".
//! * [`run_socket_cluster`] / [`SocketTransport`] — ranks are processes
//!   (or loopback threads) exchanging length-prefixed frames over a full
//!   mesh of real TCP sockets: delay and disconnects come from the
//!   kernel's network stack, not a model.
//!
//! Algorithms written once against [`Transport`] run on all three.

#![warn(missing_docs)]

mod backoff;
mod codec;
mod delta;
mod sim;
mod socket;
mod threads;
mod transport;
mod types;

pub use backoff::Backoff;
pub use codec::{decode_exact, encode_to_vec, encoded_len_matches_wire_size, WireCodec};
pub use delta::DeltaFrame;
pub use sim::{
    run_sim_cluster, run_sim_cluster_with_faults, run_sim_cluster_with_options,
    run_sim_proc_cluster, run_sim_proc_cluster_with_faults, run_sim_proc_cluster_with_options,
    Corruptor, FaultSpec, SimClusterOptions, SimIo, SimTransport,
};
pub use socket::{
    connect_socket_cluster, connect_socket_cluster_with_faults, rejoin_socket_cluster,
    run_socket_cluster, run_socket_cluster_with_faults, SocketClusterOptions, SocketTransport,
    SupervisionCounters, SupervisorOptions, DEFAULT_MAX_FRAME, FRAME_OVERHEAD, KIND_DATA,
    KIND_GOODBYE, KIND_HEARTBEAT, KIND_HELLO, KIND_RESUME, WIRE_VERSION,
};
pub use threads::{
    run_thread_cluster, run_thread_cluster_with_fault_spec, run_thread_cluster_with_faults,
    ThreadClusterOptions, ThreadTransport,
};
pub use transport::{AsyncTransport, Transport};
pub use types::{Envelope, FaultCounters, Rank, Tag, WireSize, HEADER_BYTES};

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimDuration;
    use netsim::{ClusterSpec, ConstantLatency, Unloaded};

    /// The same all-reduce runs on both backends and produces identical
    /// payload-level results.
    #[test]
    fn backends_agree_on_message_contents() {
        fn allreduce<T: Transport<Msg = u64>>(t: &mut T) -> u64 {
            t.broadcast(Tag(0), t.rank().0 as u64 + 1);
            let mut acc = t.rank().0 as u64 + 1;
            for _ in 0..t.size() - 1 {
                acc += t.recv().msg;
            }
            acc
        }

        let cluster = ClusterSpec::homogeneous(4, 100.0);
        let (sim_out, _) = run_sim_cluster::<u64, _, _>(
            &cluster,
            ConstantLatency(SimDuration::from_micros(10)),
            Unloaded,
            false,
            |t| allreduce(t),
        )
        .unwrap();
        let thread_out =
            run_thread_cluster::<u64, _, _>(4, ThreadClusterOptions::default(), allreduce);

        assert_eq!(sim_out, thread_out);
        assert!(sim_out.iter().all(|&s| s == 1 + 2 + 3 + 4));
    }
}
