//! Output checks that need no reference implementation.
//!
//! Every payload the benchmark puts on the air is a pure function of
//! `(seed, sender, seq)`, so a receiver can tell a genuine delivery
//! from a corrupted one on its own, and a run can be compared with a
//! second run of the same seed.

use rand::splitmix64;

use crate::report::Digest;

/// AFF packet size (the paper's 80-byte packets).
pub const PACKET_BYTES: usize = 80;

/// Sensor reading size on the mesh.
pub const READING_BYTES: usize = 12;

/// Deterministic filler for the bytes after a payload's header.
fn fill(seed: u64, sender: u32, seq: u32, out: &mut [u8]) {
    let mut state = seed ^ (u64::from(sender) << 32 | u64::from(seq));
    for chunk in out.chunks_mut(8) {
        let word = splitmix64(&mut state).to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
}

/// The AFF packet node `sender` offers as its `seq`-th packet:
/// `sender:u16 seq:u32` then seeded filler.
pub fn packet_bytes(seed: u64, sender: u16, seq: u32) -> Vec<u8> {
    let mut packet = vec![0u8; PACKET_BYTES];
    packet[..2].copy_from_slice(&sender.to_le_bytes());
    packet[2..6].copy_from_slice(&seq.to_le_bytes());
    fill(seed, u32::from(sender), seq, &mut packet[6..]);
    packet
}

/// What a reassembled, checksum-valid packet turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Byte-identical to the packet `(sender, seq)`.
    Genuine { sender: u16, seq: u32 },
    /// Names `(sender, seq)` but its bytes differ: fragments of two
    /// packets that shared an identifier passed the CRC-16 together.
    FalseAccept { sender: u16, seq: u32 },
    /// Cannot be any node's packet: wrong length, unknown sender, or the
    /// receiver's own packet. Always a benchmark failure.
    Bogus,
}

/// Classifies a packet reassembled at node `receiver` of `nodes`.
pub fn classify_packet(seed: u64, receiver: u16, nodes: u16, packet: &[u8]) -> Delivery {
    if packet.len() != PACKET_BYTES {
        return Delivery::Bogus;
    }
    let sender = u16::from_le_bytes([packet[0], packet[1]]);
    let seq = u32::from_le_bytes([packet[2], packet[3], packet[4], packet[5]]);
    if sender >= nodes || sender == receiver {
        return Delivery::Bogus;
    }
    if packet == packet_bytes(seed, sender, seq).as_slice() {
        Delivery::Genuine { sender, seq }
    } else {
        Delivery::FalseAccept { sender, seq }
    }
}

/// Checks that every packet a receiver delivered was offered:
/// `heard_max[s]` is the highest seq it delivered from sender `s`,
/// `offered[s]` how many packets `s` offered (seqs `0..offered[s]`).
pub fn check_offered(
    receiver: usize,
    heard_max: &[Option<u32>],
    offered: &[u32],
) -> Result<(), String> {
    for (sender, (heard, &count)) in heard_max.iter().zip(offered).enumerate() {
        if let Some(seq) = heard {
            if *seq >= count {
                return Err(format!(
                    "node {receiver} delivered packet {seq} of node {sender}, which offered only {count}"
                ));
            }
        }
    }
    Ok(())
}

/// The 12-byte reading node `sender` sends as its `seq`-th frame:
/// `sender:u32 seq:u32` then seeded filler.
pub fn reading_bytes(seed: u64, sender: u32, seq: u32) -> [u8; READING_BYTES] {
    let mut reading = [0u8; READING_BYTES];
    reading[..4].copy_from_slice(&sender.to_le_bytes());
    reading[4..8].copy_from_slice(&seq.to_le_bytes());
    fill(seed, sender, seq, &mut reading[8..]);
    reading
}

/// Whether `payload`, heard from `sender`, is one of its readings.
pub fn reading_is_genuine(seed: u64, sender: u32, payload: &[u8]) -> bool {
    if payload.len() != READING_BYTES {
        return false;
    }
    let seq = u32::from_le_bytes([payload[4], payload[5], payload[6], payload[7]]);
    payload == reading_bytes(seed, sender, seq)
}

/// Fails a simulator run whose receive path never ran.
pub fn check_receive_path(deliveries: u64, aff_delivered: Option<u64>) -> Result<(), String> {
    if deliveries == 0 {
        return Err("no frame was delivered: the receive path never ran".into());
    }
    if aff_delivered == Some(0) {
        return Err("no AFF packet was reassembled: the AFF receive path never ran".into());
    }
    Ok(())
}

/// Fails unless every run of the same seed produced the same digest.
pub fn check_same_digest(what: &str, digests: &[u64]) -> Result<(), String> {
    match digests.split_first() {
        Some((first, rest)) if rest.iter().any(|d| d != first) => Err(format!(
            "{what}: runs of the same seed differ: {digests:016x?}"
        )),
        _ => Ok(()),
    }
}

/// Digest of a list of counters.
pub fn digest_of(words: &[u64]) -> u64 {
    let mut digest = Digest::default();
    for &w in words {
        digest.word(w);
    }
    digest.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genuine_packets_classify_as_genuine() {
        let packet = packet_bytes(9, 3, 17);
        assert_eq!(
            classify_packet(9, 0, 16, &packet),
            Delivery::Genuine { sender: 3, seq: 17 }
        );
    }

    #[test]
    fn a_flipped_byte_is_a_false_accept() {
        let mut packet = packet_bytes(9, 3, 17);
        packet[40] ^= 1;
        assert_eq!(
            classify_packet(9, 0, 16, &packet),
            Delivery::FalseAccept { sender: 3, seq: 17 }
        );
        // The same bytes under another seed are not genuine either.
        assert_eq!(
            classify_packet(10, 0, 16, &packet_bytes(9, 3, 17)),
            Delivery::FalseAccept { sender: 3, seq: 17 }
        );
    }

    #[test]
    fn impossible_packets_are_bogus() {
        assert_eq!(
            classify_packet(9, 3, 16, &packet_bytes(9, 3, 1)),
            Delivery::Bogus,
            "own packet"
        );
        assert_eq!(
            classify_packet(9, 0, 16, &packet_bytes(9, 16, 1)),
            Delivery::Bogus,
            "no such node"
        );
        assert_eq!(
            classify_packet(9, 0, 16, &packet_bytes(9, 3, 1)[..79]),
            Delivery::Bogus,
            "short"
        );
    }

    #[test]
    fn delivering_an_unoffered_packet_fails() {
        let offered = [5, 5];
        assert!(check_offered(2, &[Some(4), None], &offered).is_ok());
        let err = check_offered(2, &[Some(4), Some(5)], &offered).unwrap_err();
        assert!(err.contains("packet 5 of node 1"), "{err}");
    }

    #[test]
    fn readings_check_sender_and_content() {
        let reading = reading_bytes(4, 77, 2);
        assert!(reading_is_genuine(4, 77, &reading));
        assert!(!reading_is_genuine(4, 78, &reading), "wrong sender");
        let mut flipped = reading;
        flipped[11] ^= 0x80;
        assert!(!reading_is_genuine(4, 77, &flipped), "flipped bit");
        assert!(!reading_is_genuine(4, 77, &reading[..11]), "truncated");
    }

    #[test]
    fn zero_delivery_runs_fail() {
        assert!(check_receive_path(10, Some(1)).is_ok());
        assert!(check_receive_path(10, None).is_ok());
        assert!(check_receive_path(0, None).is_err());
        assert!(check_receive_path(10, Some(0)).is_err());
    }

    #[test]
    fn differing_digests_fail() {
        assert!(check_same_digest("x", &[1, 1, 1]).is_ok());
        assert!(check_same_digest("x", &[]).is_ok());
        let wrong = digest_of(&[1, 2, 4]);
        assert!(check_same_digest("x", &[digest_of(&[1, 2, 3]), wrong]).is_err());
    }
}
