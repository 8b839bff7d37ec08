//! Property tests of the frame-level byte codec (`seqnet_runtime::codec`)
//! against the strategy module shared with the socket deployment's wire
//! tests: round-trips over arbitrary frame populations, strict-prefix
//! rejection, trailing-byte detection, and garble hardening — the codec
//! must error, never panic, on any input.

mod codec_strategies;

use codec_strategies::{frame_strategy, peer_strategy};
use proptest::collection::vec;
use proptest::prelude::*;
use seqnet_runtime::codec::{put_frame, put_peer, CodecError, Reader};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any frame sequence round-trips: `put_frame` then repeated
    /// `Reader::frame` recovers every frame and consumes every byte.
    #[test]
    fn frames_roundtrip(frames in vec(frame_strategy(), 1..6)) {
        let mut buf = Vec::new();
        for f in &frames {
            put_frame(&mut buf, f);
        }
        let mut r = Reader::new(&buf);
        for f in &frames {
            let got = r.frame().map_err(|e| e.to_string())?;
            prop_assert_eq!(&got, f);
        }
        prop_assert_eq!(r.done(), Ok(()));
    }

    /// Every strict prefix of an encoded frame is rejected: the decoder
    /// consumes fields in order and a cut always lands mid-frame.
    #[test]
    fn strict_prefixes_are_rejected(frame in frame_strategy(), cut in 0usize..4_096) {
        let mut buf = Vec::new();
        put_frame(&mut buf, &frame);
        let cut = cut % buf.len();
        prop_assert!(Reader::new(&buf[..cut]).frame().is_err());
    }

    /// The frame layout is prefix-delimited: trailing bytes are left
    /// unread for the caller, and `Reader::done` flags them for envelope
    /// layers that require exact consumption.
    #[test]
    fn trailing_bytes_are_left_and_flagged(
        frame in frame_strategy(),
        junk in vec(any::<u8>(), 1..16),
    ) {
        let mut buf = Vec::new();
        put_frame(&mut buf, &frame);
        buf.extend_from_slice(&junk);
        let mut r = Reader::new(&buf);
        let got = r.frame().map_err(|e| e.to_string())?;
        prop_assert_eq!(got, frame);
        prop_assert_eq!(&buf[r.consumed()..], junk.as_slice());
        prop_assert_eq!(r.done(), Err(CodecError::Garbled("trailing bytes")));
    }

    /// Arbitrary garbage never panics the frame decoder — it either
    /// parses (and leaves a suffix) or errors.
    #[test]
    fn garbled_bytes_never_panic(bytes in vec(any::<u8>(), 0..256)) {
        let mut r = Reader::new(&bytes);
        for _ in 0..64 {
            if r.frame().is_err() || r.done().is_ok() {
                break;
            }
        }
    }

    /// Peers round-trip through their tagged encoding.
    #[test]
    fn peers_roundtrip(peer in peer_strategy()) {
        let mut buf = Vec::new();
        put_peer(&mut buf, peer);
        let mut r = Reader::new(&buf);
        prop_assert_eq!(r.peer().map_err(|e| e.to_string())?, peer);
        prop_assert_eq!(r.done(), Ok(()));
    }
}
