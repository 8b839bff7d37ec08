//! Fuzz-ish property tests of the deployment wire codec: arbitrary
//! messages must round-trip under arbitrary chunking, and truncated,
//! garbled, or oversized input must be rejected with a [`CodecError`] —
//! never a panic — so the connection owner can quarantine the stream.
//!
//! The frame population comes from the strategy module shared with the
//! runtime's frame-level codec tests (`crates/runtime/tests`), so the
//! envelope layer here and the byte layout there are fuzzed against the
//! same inputs; the equivalence properties below pin the envelope to
//! embed `seqnet_runtime::codec`'s frame bytes verbatim.

#[path = "../../runtime/tests/codec_strategies.rs"]
mod codec_strategies;

use codec_strategies::{chunk_strategy, frame_strategy, peer_strategy};
use proptest::collection::vec;
use proptest::prelude::*;
use seqnet_deploy::conn::{Conn, ConnError};
use seqnet_deploy::wire::{decode_payload, encode, FrameBuffer, MAX_FRAME_LEN};
use seqnet_deploy::{CodecError, NodeTelemetry, NodeWireStats, WireBody, WireMsg};
use seqnet_core::proto::{Frame, Peer};
use seqnet_core::{Message, MessageId};
use seqnet_membership::{GroupId, NodeId};
use seqnet_overlap::AtomId;

fn body_strategy() -> impl Strategy<Value = WireBody> {
    prop_oneof![
        3 => frame_strategy().prop_map(WireBody::Data),
        2 => vec(frame_strategy(), 0..4).prop_map(WireBody::DataBatch),
        1 => Just(WireBody::Ack),
        1 => Just(WireBody::AckThrough),
        1 => Just(WireBody::Heartbeat),
    ]
}

fn stats_strategy() -> impl Strategy<Value = NodeWireStats> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        vec((0u32..4_096, any::<u64>()), 0..6),
    )
        .prop_map(
            |((fs, rt, dup, hb), (rep, rec, snap, dropped), sizes)| NodeWireStats {
                frames_sent: fs,
                frames_dropped: dropped,
                retransmissions: rt,
                duplicates: dup,
                heartbeat_misses: hb,
                frames_replayed: rep,
                recovery_micros: rec,
                snapshots: snap,
                batch_sizes: sizes.into_iter().map(|(s, c)| (s as usize, c)).collect(),
            },
        )
}

fn msg_strategy() -> impl Strategy<Value = WireMsg> {
    prop_oneof![
        1 => (peer_strategy(), any::<u64>()).prop_map(|(party, incarnation)| WireMsg::Hello {
            party,
            incarnation,
        }),
        4 => (any::<u32>(), any::<u64>(), body_strategy()).prop_map(|(link, seq, body)| {
            WireMsg::Link { link, seq, body }
        }),
        1 => Just(WireMsg::Shutdown),
        1 => stats_strategy().prop_map(WireMsg::Stats),
        1 => Just(WireMsg::TelemetryRequest),
        1 => (
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            stats_strategy(),
        )
            .prop_map(|((incarnation, epoch, staged, processed, dropped), stats)| {
                WireMsg::Telemetry(NodeTelemetry {
                    incarnation,
                    epoch,
                    staged_frames: staged,
                    frames_processed: processed,
                    obs_dropped: dropped,
                    stats,
                })
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any message sequence round-trips through the incremental decoder
    /// no matter how the byte stream is chunked (short reads).
    #[test]
    fn roundtrip_under_arbitrary_chunking(
        msgs in vec(msg_strategy(), 1..8),
        chunks in chunk_strategy(),
    ) {
        let mut bytes = Vec::new();
        for m in &msgs {
            encode(m, &mut bytes);
        }
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        let mut sizes = chunks.into_iter().chain(std::iter::repeat(3));
        let mut at = 0;
        while at < bytes.len() {
            let n = sizes.next().unwrap().min(bytes.len() - at);
            fb.push(&bytes[at..at + n]);
            at += n;
            while let Some(m) = fb.next().map_err(|e| e.to_string())? {
                got.push(m);
            }
        }
        prop_assert_eq!(got, msgs);
        prop_assert_eq!(fb.pending(), 0);
    }

    /// Every strict prefix of a valid payload is rejected: the decoder
    /// consumes each field in order and a cut always lands mid-message.
    #[test]
    fn truncated_payloads_are_rejected(msg in msg_strategy(), cut in 0usize..4_096) {
        let mut bytes = Vec::new();
        encode(&msg, &mut bytes);
        let payload = &bytes[4..];
        let cut = cut % payload.len().max(1);
        if cut < payload.len() {
            prop_assert!(decode_payload(&payload[..cut]).is_err());
        }
    }

    /// Bytes past the end of a message are rejected as trailing garbage
    /// rather than silently ignored.
    #[test]
    fn trailing_junk_is_rejected(msg in msg_strategy(), junk in vec(any::<u8>(), 1..16)) {
        let mut bytes = Vec::new();
        encode(&msg, &mut bytes);
        let mut payload = bytes[4..].to_vec();
        payload.extend_from_slice(&junk);
        prop_assert!(matches!(
            decode_payload(&payload),
            Err(CodecError::Garbled(_))
        ));
    }

    /// Arbitrary garbage never panics the decoder — it either parses,
    /// waits for more bytes, or errors.
    #[test]
    fn garbled_bytes_never_panic(bytes in vec(any::<u8>(), 0..512)) {
        let _ = decode_payload(&bytes);
        let mut fb = FrameBuffer::new();
        fb.push(&bytes);
        for _ in 0..1_024 {
            match fb.next() {
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// Old-vs-new equivalence: a `Data` envelope embeds the shared frame
    /// codec's bytes verbatim after its header (length, kind, link, seq,
    /// body tag), and both decoders agree on the frame.
    #[test]
    fn data_envelope_embeds_shared_frame_codec_bytes(
        frame in frame_strategy(),
        link in any::<u32>(),
        seq in any::<u64>(),
    ) {
        use seqnet_runtime::codec::{put_frame, Reader};
        let msg = WireMsg::Link { link, seq, body: WireBody::Data(frame.clone()) };
        let mut envelope = Vec::new();
        encode(&msg, &mut envelope);
        let frame_bytes = &envelope[4 + 1 + 4 + 8 + 1..];
        let mut standalone = Vec::new();
        put_frame(&mut standalone, &frame);
        prop_assert_eq!(frame_bytes, standalone.as_slice());
        let mut r = Reader::new(frame_bytes);
        prop_assert_eq!(r.frame().map_err(|e| e.to_string())?, frame);
        prop_assert_eq!(r.done(), Ok(()));
        prop_assert_eq!(decode_payload(&envelope[4..]).map_err(|e| e.to_string())?, msg);
    }

    /// Same for coalesced runs: a `DataBatch` envelope is the header, a
    /// count, then the shared codec's frame encodings back to back.
    #[test]
    fn batch_envelope_embeds_shared_frame_codec_bytes(
        frames in vec(frame_strategy(), 0..4),
        link in any::<u32>(),
        seq in any::<u64>(),
    ) {
        use seqnet_runtime::codec::put_frame;
        let msg = WireMsg::Link { link, seq, body: WireBody::DataBatch(frames.clone()) };
        let mut envelope = Vec::new();
        encode(&msg, &mut envelope);
        let mut expect = Vec::new();
        for f in &frames {
            put_frame(&mut expect, f);
        }
        prop_assert_eq!(&envelope[4 + 1 + 4 + 8 + 1 + 4..], expect.as_slice());
        prop_assert_eq!(decode_payload(&envelope[4..]).map_err(|e| e.to_string())?, msg);
    }

    /// Hostile length prefixes (zero or beyond [`MAX_FRAME_LEN`]) are
    /// rejected before any allocation happens.
    #[test]
    fn hostile_length_prefixes_are_rejected(extra in any::<u32>(), flip in any::<bool>()) {
        let len = if flip { 0 } else { MAX_FRAME_LEN as u32 + 1 + (extra % 1_024) };
        let mut fb = FrameBuffer::new();
        fb.push(&len.to_le_bytes());
        fb.push(&[0u8; 8]);
        prop_assert!(matches!(fb.next(), Err(CodecError::BadLength(_))));
    }
}

/// Dribble stress: a message stream forced through a real socket one byte
/// at a time — every read is a short read, every write a short write — must
/// still round-trip intact.
#[test]
fn one_byte_dribble_through_a_real_socket() {
    use std::io::Write;

    let msgs: Vec<WireMsg> = vec![
        WireMsg::Hello {
            party: Peer::Node(3),
            incarnation: 2,
        },
        WireMsg::Link {
            link: 7,
            seq: 40,
            body: WireBody::DataBatch(vec![
                Frame {
                    msg: Message::new(MessageId(1), NodeId(0), GroupId(0), b"abc".to_vec()),
                    target_atom: Some(AtomId(1)),
                },
                Frame {
                    msg: Message::new(MessageId(2), NodeId(1), GroupId(0), vec![]),
                    target_atom: None,
                },
            ]),
        },
        WireMsg::Link {
            link: 7,
            seq: 41,
            body: WireBody::AckThrough,
        },
        WireMsg::Shutdown,
    ];
    let mut bytes = Vec::new();
    for m in &msgs {
        encode(m, &mut bytes);
    }

    // Write side: a raw blocking stream issuing one-byte writes with
    // Nagle off, so the reader sees a maximally fragmented stream.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let raw = std::net::TcpStream::connect(addr).expect("connect");
    let (accepted, _) = listener.accept().expect("accept");
    let mut b = Conn::new(accepted).expect("conn");
    let writer = std::thread::spawn(move || {
        let mut stream = raw;
        let _ = stream.set_nodelay(true);
        for byte in bytes {
            stream.write_all(&[byte]).expect("write byte");
            stream.flush().ok();
        }
    });

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mut got = Vec::new();
    while got.len() < msgs.len() {
        assert!(std::time::Instant::now() < deadline, "dribble stalled");
        match b.poll_read_into(&mut got) {
            Ok(_) => {}
            Err(ConnError::Closed(_)) => break,
            Err(e) => panic!("dribbled stream must stay clean: {e}"),
        }
        std::thread::sleep(std::time::Duration::from_micros(100));
    }
    writer.join().expect("writer thread");
    assert_eq!(got, msgs);
}

/// `WireBody` is the link engine's own body type, re-exported: the bytes of
/// one `WireMsg::Link` per variant must stay exactly what they were when
/// deploy declared the enum itself. Fixtures captured at the commit before
/// the re-export (link 5, seq 42, the frame of the unit tests).
#[test]
fn link_frames_encode_to_the_golden_bytes() {
    fn frame(id: u64) -> Frame {
        let mut msg = Message::new(MessageId(id), NodeId(3), GroupId(1), b"payload".to_vec());
        msg.group_seq = seqnet_core::SeqNo(9);
        msg.epoch = 2;
        msg.stamps.push(seqnet_core::Stamp {
            atom: AtomId(4),
            seq: seqnet_core::SeqNo(17),
        });
        Frame {
            msg,
            target_atom: Some(AtomId(2)),
        }
    }
    const FRAME_TAIL: &str = "00000000000000030000000100000009000000000000000200000000000000\
        01000000040000001100000000000000070000007061796c6f61640102000000";
    let golden = [
        (
            WireBody::Data(frame(1)),
            format!("4e00000001050000002a000000000000000001{FRAME_TAIL}"),
        ),
        (
            WireBody::DataBatch(vec![frame(2), frame(3)]),
            format!("9200000001050000002a00000000000000010200000002{FRAME_TAIL}03{FRAME_TAIL}"),
        ),
        (WireBody::Ack, "0e00000001050000002a0000000000000002".into()),
        (
            WireBody::AckThrough,
            "0e00000001050000002a0000000000000003".into(),
        ),
        (
            WireBody::Heartbeat,
            "0e00000001050000002a0000000000000004".into(),
        ),
    ];
    for (body, want) in golden {
        let msg = WireMsg::Link {
            link: 5,
            seq: 42,
            body,
        };
        let mut bytes = Vec::new();
        encode(&msg, &mut bytes);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, want.replace(char::is_whitespace, ""), "{msg:?}");
        assert_eq!(decode_payload(&bytes[4..]), Ok(msg));
    }
}
