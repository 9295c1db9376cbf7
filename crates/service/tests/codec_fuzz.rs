//! Byte-stream fuzzing of the `retrid` wire codec.
//!
//! `decode_request` and `decode_reply` see bytes straight off a socket,
//! so neither may panic on any input. Whatever they accept must be a
//! value the encoder reproduces: a request re-encodes to exactly the
//! bytes it came from (every field is fixed-width and trailing bytes
//! are rejected), and a reply re-encodes to bytes that decode to the
//! same value again.

use proptest::prelude::*;
use proptest::sample::Index;
use retri_service::proto::{decode_reply, decode_request, encode_reply, encode_request};
use retri_service::{Reply, Request, StrategyKind, StrategyStats};

const REQUEST_OPS: [u8; 5] = [0x01, 0x02, 0x03, 0x04, 0x05];
const REPLY_OPS: [u8; 6] = [0x81, 0x82, 0x83, 0x84, 0x85, 0x86];

fn check_request(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(req) = decode_request(bytes) {
        let mut out = Vec::new();
        encode_request(&req, &mut out);
        prop_assert_eq!(&out[..], bytes, "accepted request is not canonical");
        prop_assert_eq!(decode_request(&out), Ok(req));
    }
    Ok(())
}

fn check_reply(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(reply) = decode_reply(bytes) {
        let mut out = Vec::new();
        encode_reply(&reply, &mut out);
        let again = decode_reply(&out);
        prop_assert!(again.is_ok(), "re-encoded reply rejected: {:?}", again);
        let again = again.expect("checked above");
        // Byte equality of the second encoding compares floats by bit
        // pattern, so a NaN in a STATS record still counts as equal.
        let mut out_again = Vec::new();
        encode_reply(&again, &mut out_again);
        prop_assert_eq!(out_again, out);
        if !matches!(reply, Reply::Stats(_)) {
            prop_assert_eq!(again, reply);
        }
    }
    Ok(())
}

fn strategy_of(code: u8) -> StrategyKind {
    StrategyKind::ALL[usize::from(code) % StrategyKind::ALL.len()]
}

/// A well-formed request built from raw field values.
fn request(op: u8, shard: u16, strategy: u8, count: u32, ids: &[u64]) -> Request {
    let strategy = strategy_of(strategy);
    match op % 5 {
        0 => Request::Alloc {
            shard,
            strategy,
            count,
        },
        1 => Request::Release {
            shard,
            strategy,
            ids: ids
                .iter()
                .map(|&id| u128::from(id) << 64 | u128::from(!id))
                .collect(),
        },
        2 => Request::Stats { shard },
        3 => Request::Ping,
        _ => Request::Wait {
            shard,
            micros: count,
        },
    }
}

/// A well-formed reply built from raw field values.
fn reply(op: u8, words: &[u64], msg: &[u8]) -> Reply {
    match op % 6 {
        0 => Reply::Ids(words.iter().map(|&w| u128::from(w)).collect()),
        1 => Reply::Released {
            acked: words[0] as u32,
            misses: (words[0] >> 32) as u32,
        },
        2 => Reply::Stats(
            words
                .iter()
                .map(|&w| StrategyStats {
                    shard: w as u16,
                    strategy: strategy_of(w as u8),
                    bits: (w >> 8) as u8,
                    live_distinct: w,
                    live_total: w.rotate_left(7),
                    minted: !w,
                    collisions: w >> 3,
                    released: w ^ 0x55,
                    release_misses: w.rotate_right(11),
                    busy: w >> 40,
                    predicted_collisions: f64::from_bits(w),
                    eq4_p_collision: f64::from_bits(w.rotate_left(29)),
                })
                .collect(),
        ),
        3 => Reply::Pong,
        4 => Reply::Busy,
        _ => Reply::Err {
            code: words[0] as u8,
            msg: String::from_utf8_lossy(msg).into_owned(),
        },
    }
}

/// Truncates (1), flips a bit in (2), or extends (3) an encoding;
/// any other `kind` leaves it intact.
fn mutate(mut bytes: Vec<u8>, kind: u8, at: &Index, byte: u8) -> Vec<u8> {
    match kind {
        1 => bytes.truncate(at.index(bytes.len())),
        2 => {
            let i = at.index(bytes.len());
            bytes[i] ^= 1 << (byte % 8);
        }
        3 => bytes.push(byte),
        _ => {}
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, most of them behind a valid request or reply
    /// opcode so the field decoders (not just the opcode switch) see
    /// garbage: no panic, and anything accepted round-trips.
    #[test]
    fn arbitrary_bytes_never_panic_and_accepted_values_round_trip(
        lead in 0usize..12,
        tail in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let mut bytes = Vec::with_capacity(1 + tail.len());
        if let Some(&op) = REQUEST_OPS.iter().chain(&REPLY_OPS).nth(lead) {
            bytes.push(op);
        }
        bytes.extend_from_slice(&tail);
        check_request(&bytes)?;
        check_reply(&bytes)?;
    }

    /// Valid encodings, intact or with one truncation, bit flip or
    /// extra byte: the decoders must accept every intact one and
    /// round-trip whatever else they accept.
    #[test]
    fn mutated_encodings_never_panic_and_accepted_values_round_trip(
        op in any::<u8>(),
        shard in any::<u16>(),
        strategy in any::<u8>(),
        count in 1u32..=64,
        words in proptest::collection::vec(any::<u64>(), 1..4),
        msg in proptest::collection::vec(any::<u8>(), 0..24),
        kind in 0u8..4,
        at in any::<Index>(),
        byte in any::<u8>(),
    ) {
        let mut req_bytes = Vec::new();
        encode_request(&request(op, shard, strategy, count, &words), &mut req_bytes);
        let mut reply_bytes = Vec::new();
        encode_reply(&reply(op, &words, &msg), &mut reply_bytes);
        if kind == 0 {
            prop_assert!(decode_request(&req_bytes).is_ok());
            prop_assert!(decode_reply(&reply_bytes).is_ok());
        }
        for bytes in [
            mutate(req_bytes, kind, &at, byte),
            mutate(reply_bytes, kind, &at, byte),
        ] {
            check_request(&bytes)?;
            check_reply(&bytes)?;
        }
    }
}
