//! A hostile length prefix must not make a decoding peer reserve more
//! memory than the frame it received.

use mpk::{decode_exact, encode_to_vec, DeltaFrame, WireCodec};
use speccheck::alloc::{largest_allocation, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn hostile_delta_frame_length_cannot_outgrow_the_frame() {
    // The prefix claims one entry per byte that follows it, which passes
    // the check against the buffer length; but each `(u32, f64)` entry is
    // 12 bytes on the wire and 16 in memory. Reserving the claimed length
    // outright would allocate 16× the frame.
    let body = 1usize << 20;
    let mut frame = Vec::with_capacity(8 + body);
    (body as u64).encode(&mut frame);
    frame.resize(8 + body, 0);
    let (largest, decoded) = largest_allocation(|| DeltaFrame::decode(&mut frame.as_slice()));
    assert!(decoded.is_none(), "the claimed entries overrun the frame");
    // The entries that do decode may grow the vector past its capped
    // reservation, by doubling: at most twice the frame.
    assert!(
        largest <= 2 * frame.len(),
        "decoding a {}-byte frame made a {largest}-byte allocation",
        frame.len()
    );
}

#[test]
fn valid_delta_frames_still_decode_to_equal_values() {
    for n in [0u32, 1, 7, 1000] {
        let frame = DeltaFrame {
            entries: (0..n).map(|i| (i * 3, f64::from(i) * 0.5 - 1.0)).collect(),
        };
        assert_eq!(
            decode_exact::<DeltaFrame>(&encode_to_vec(&frame)),
            Some(frame)
        );
    }
}
