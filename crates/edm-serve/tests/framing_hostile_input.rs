//! `LineFramer` and the request decoder read whatever a client sends, so
//! they must answer any byte stream, cut into any reads, without
//! panicking. The framer must also keep its own bounds: no line longer
//! than the frame bound, no more than one byte past it buffered, and the
//! same frames whatever the read boundaries.

use edm_serve::framing::{Frame, LineFramer};
use edm_serve::protocol::Request;
use proptest::prelude::*;

/// Arbitrary bytes with newlines and carriage returns common enough that
/// lines complete, and some valid-looking request text mixed in.
fn stream() -> impl Strategy<Value = Vec<u8>> {
    let piece = prop_oneof![
        proptest::collection::vec(0u8..=255, 1..8),
        Just(b"\n".to_vec()),
        Just(b"\r\n".to_vec()),
        Just(b"\r".to_vec()),
        Just(br#"{"Poll":{"id":1}}"#.to_vec()),
        Just(br#"{"Submit":{"qasm":"OPENQASM 2.0;","shots":"#.to_vec()),
        Just("\u{fffd}é".as_bytes().to_vec()),
        Just(vec![0xff, 0xfe, 0xc3]),
    ];
    proptest::collection::vec(piece, 0..40).prop_map(|pieces| pieces.concat())
}

/// Feeds `bytes` in reads of the given sizes (cycled) and drains every
/// frame, checking the framer's bounds after each read.
fn frames(bytes: &[u8], max_frame: usize, reads: &[usize]) -> Vec<Frame> {
    let mut framer = LineFramer::new(max_frame);
    let mut out = Vec::new();
    let mut rest = bytes;
    let mut sizes = reads.iter().cycle();
    while !rest.is_empty() {
        let n = (*sizes.next().unwrap_or(&rest.len())).min(rest.len());
        framer.feed(&rest[..n]);
        rest = &rest[n..];
        assert!(
            framer.pending_len() <= max_frame + 1,
            "buffered past the bound"
        );
        out.extend(std::iter::from_fn(|| framer.next_frame()));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn any_stream_in_any_reads_frames_without_panicking(
        bytes in stream(),
        max_frame in 1usize..48,
        reads in proptest::collection::vec(1usize..16, 1..8),
    ) {
        let got = frames(&bytes, max_frame, &reads);
        prop_assert_eq!(&got, &frames(&bytes, max_frame, &[bytes.len().max(1)]));
        for frame in &got {
            if let Frame::Line(line) = frame {
                prop_assert!(line.len() <= max_frame, "line of {} bytes", line.len());
                prop_assert!(!line.contains('\n'));
                // The decoder answers Ok or Err; a panic fails the test.
                let _ = serde_json::from_str::<Request>(line);
            }
        }
    }
}
