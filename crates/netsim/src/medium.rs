//! The shared broadcast medium.
//!
//! The medium tracks every transmission as a time interval. At the end
//! of a transmission, delivery is decided independently per receiver:
//!
//! 1. the receiver must be alive, distinct from the sender, and in
//!    range;
//! 2. a **half-duplex** radio that was itself transmitting during any
//!    part of the interval hears nothing;
//! 3. any *other* transmission audible at the receiver that overlaps the
//!    interval corrupts the frame (an **RF collision** — no capture
//!    effect); hidden terminals produce exactly this case;
//! 4. otherwise the frame survives an independent random-loss draw.
//!
//! Evaluating at transmission end is sound because any overlapping
//! transmission has, by definition, already *started* by then, so the
//! medium has its record.
//!
//! # Indexing and bounded scans
//!
//! Sequence numbers are dense, so records live in a [`VecDeque`] offset
//! by `base_seq`: `Medium::record` and `Medium::end_tx` are O(1)
//! and pruning pops only from the front (records are pushed in start
//! order, so everything older than the horizon is contiguous at the
//! front). Every query walks records **newest-first** and stops early:
//!
//! - `Medium::busy_for` visits only *active* (not yet ended)
//!   transmissions, counted per the `active` total — an interval
//!   containing `now` cannot have ended, because its `TxEnd` event
//!   would already have been dispatched.
//! - The collision scans (`Medium::transmitting_during`,
//!   `Medium::interference_at`) stop once `record.start` is more than
//!   one maximum-observed airtime before the queried interval: starts
//!   are non-decreasing toward the front and no retained record lasts
//!   longer than `max_airtime`, so nothing earlier can overlap.
//!
//! Together with the per-node counts (`transmitting_during` exits
//! immediately when the sender has no retained records at all), each
//! judgment touches only the transmissions that can actually matter —
//! O(concurrent transmissions), not O(retained records).

use std::collections::VecDeque;

use crate::frame::Frame;
use crate::node::NodeId;
use crate::time::SimTime;
use crate::topology::Topology;

/// One transmission on the air (or recently completed).
#[derive(Debug, Clone)]
pub(crate) struct TxRecord {
    /// Unique, monotonically increasing transmission number.
    pub seq: u64,
    /// The transmitting node.
    pub sender: NodeId,
    /// First instant of the transmission.
    pub start: SimTime,
    /// One past the last instant of the transmission.
    pub end: SimTime,
    /// What is being transmitted. Taken (not cloned) by
    /// [`Medium::end_tx`] when the transmission leaves the air.
    frame: Option<Frame>,
    /// Bits on the air (payload + preamble), for receiver energy
    /// accounting.
    pub bits_on_air: u64,
    /// Whether the engine has dispatched this transmission's `TxEnd`.
    ended: bool,
}

impl TxRecord {
    fn overlaps(&self, start: SimTime, end: SimTime) -> bool {
        self.start < end && self.end > start
    }
}

/// Why a receiver did not get a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryFailure {
    /// The receiver's own radio was transmitting (half-duplex).
    HalfDuplex,
    /// Another audible transmission overlapped (RF collision).
    RfCollision,
    /// Independent random frame loss.
    RandomLoss,
}

/// Per-receiver delivery verdict for one transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    Delivered,
    Failed(DeliveryFailure),
}

#[derive(Debug, Default)]
pub(crate) struct Medium {
    /// Retained records in seq (= start-time) order; `records[i]` has
    /// sequence number `base_seq + i`.
    records: VecDeque<TxRecord>,
    /// Sequence number of `records[0]`.
    base_seq: u64,
    next_seq: u64,
    /// Transmissions on the air (begun, `TxEnd` not yet dispatched).
    active_total: u32,
    /// Per-node count of active transmissions, indexed by node.
    active_by_node: Vec<u32>,
    /// Per-node count of *retained* records (active or recent).
    retained_by_node: Vec<u32>,
    /// Longest airtime ever begun, in microseconds. Monotone, so every
    /// retained record's duration is bounded by it — the early-exit
    /// bound for the overlap scans.
    max_airtime_micros: u64,
}

impl Medium {
    pub fn new() -> Self {
        Medium::default()
    }

    /// Registers a transmission starting now; returns its sequence
    /// number.
    pub fn begin_tx(
        &mut self,
        sender: NodeId,
        start: SimTime,
        end: SimTime,
        frame: Frame,
        bits_on_air: u64,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        debug_assert!(
            self.records.back().is_none_or(|last| last.start <= start),
            "transmissions must begin in time order"
        );
        let index = sender.index();
        if index >= self.active_by_node.len() {
            self.active_by_node.resize(index + 1, 0);
            self.retained_by_node.resize(index + 1, 0);
        }
        self.active_by_node[index] += 1;
        self.retained_by_node[index] += 1;
        self.active_total += 1;
        self.max_airtime_micros = self.max_airtime_micros.max(end.since(start).as_micros());
        self.records.push_back(TxRecord {
            seq,
            sender,
            start,
            end,
            frame: Some(frame),
            bits_on_air,
            ended: false,
        });
        seq
    }

    /// Marks transmission `seq` off the air (its `TxEnd` is being
    /// dispatched) and takes its frame out of the record — O(1), no
    /// clone. Returns the frame with the record's bits-on-air, start,
    /// and end.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is unknown, already pruned, or already ended.
    pub fn end_tx(&mut self, seq: u64) -> (Frame, u64, SimTime, SimTime) {
        let index = usize::try_from(seq - self.base_seq).expect("record index fits usize");
        let record = self
            .records
            .get_mut(index)
            .expect("ending unknown transmission");
        assert!(!record.ended, "transmission {seq} ended twice");
        record.ended = true;
        self.active_total -= 1;
        self.active_by_node[record.sender.index()] -= 1;
        let frame = record.frame.take().expect("frame taken exactly once");
        (frame, record.bits_on_air, record.start, record.end)
    }

    /// Whether `listener` hears any ongoing foreign transmission at
    /// `now` (CSMA carrier sense).
    ///
    /// Scans only active transmissions: a record satisfying
    /// `start <= now < end` cannot have ended (its `TxEnd` fires at
    /// `end > now`), so the newest-first walk stops after `active_total`
    /// un-ended records.
    pub fn busy_for(&self, listener: NodeId, now: SimTime, topology: &Topology) -> bool {
        let mut remaining = self.active_total;
        for record in self.records.iter().rev() {
            if remaining == 0 {
                break;
            }
            if record.ended {
                continue;
            }
            if record.sender != listener
                && record.start <= now
                && record.end > now
                && topology.in_range(record.sender, listener)
            {
                return true;
            }
            remaining -= 1;
        }
        false
    }

    /// Whether the newest-first scan can stop at `record`: its start is
    /// more than one maximum airtime before the queried interval, so
    /// neither it nor anything earlier can reach into `[start, …)`.
    fn before_overlap_window(&self, record: &TxRecord, start: SimTime) -> bool {
        record.start.as_micros() < start.as_micros().saturating_sub(self.max_airtime_micros)
    }

    /// Whether `node`'s own radio is transmitting during `[start, end)`.
    fn transmitting_during(
        &self,
        node: NodeId,
        start: SimTime,
        end: SimTime,
        exclude_seq: u64,
    ) -> bool {
        let Some(&retained) = self.retained_by_node.get(node.index()) else {
            return false;
        };
        let mut remaining = retained;
        for record in self.records.iter().rev() {
            if remaining == 0 || self.before_overlap_window(record, start) {
                break;
            }
            if record.sender != node {
                continue;
            }
            if record.seq != exclude_seq && record.overlaps(start, end) {
                return true;
            }
            remaining -= 1;
        }
        false
    }

    /// Whether any foreign transmission audible at `receiver` overlaps
    /// `[start, end)` other than `exclude_seq`.
    ///
    /// Also serves as the DFA sender-side collision feedback: a frame
    /// slot collided iff some other audible transmission overlapped the
    /// sender's airtime.
    pub fn interference_at(
        &self,
        receiver: NodeId,
        start: SimTime,
        end: SimTime,
        exclude_seq: u64,
        topology: &Topology,
    ) -> bool {
        for record in self.records.iter().rev() {
            if self.before_overlap_window(record, start) {
                break;
            }
            if record.seq != exclude_seq
                && record.sender != receiver
                && record.overlaps(start, end)
                && topology.in_range(record.sender, receiver)
            {
                return true;
            }
        }
        false
    }

    /// Looks up a record by sequence number — O(1) via the `base_seq`
    /// offset. `None` if the record was pruned or never existed.
    pub fn record(&self, seq: u64) -> Option<&TxRecord> {
        let index = usize::try_from(seq.checked_sub(self.base_seq)?).ok()?;
        self.records.get(index)
    }

    /// Decides delivery of transmission `seq` to `receiver`.
    ///
    /// `loss_draw` is a pre-drawn uniform `[0,1)` variate (drawn by the
    /// engine so the medium itself stays deterministic and borrow-free).
    pub fn judge(
        &self,
        seq: u64,
        receiver: NodeId,
        loss_draw: f64,
        frame_loss: f64,
        topology: &Topology,
    ) -> Verdict {
        let record = self.record(seq).expect("judging unknown transmission");
        debug_assert!(topology.in_range(record.sender, receiver));
        if self.transmitting_during(receiver, record.start, record.end, seq) {
            Verdict::Failed(DeliveryFailure::HalfDuplex)
        } else if self.interference_at(receiver, record.start, record.end, seq, topology) {
            Verdict::Failed(DeliveryFailure::RfCollision)
        } else if loss_draw < frame_loss {
            Verdict::Failed(DeliveryFailure::RandomLoss)
        } else {
            Verdict::Delivered
        }
    }

    /// Drops records that can no longer overlap any future judgment: a
    /// judgment at time `now` only looks back one frame airtime, so
    /// anything ended before `horizon` is garbage.
    ///
    /// Pops from the front only. Starts are non-decreasing, but a long
    /// transmission can outlast a later short one, so a still-needed
    /// front record may retain a few stale ones behind it — harmless,
    /// since every query is bounded by the overlap window, not the
    /// retained count.
    pub fn prune(&mut self, horizon: SimTime) {
        while let Some(front) = self.records.front() {
            if front.end >= horizon {
                break;
            }
            let record = self.records.pop_front().expect("front exists");
            self.base_seq += 1;
            let index = record.sender.index();
            self.retained_by_node[index] -= 1;
            if !record.ended {
                // Only reachable when pruning past live transmissions
                // (never from the engine, whose horizon trails `now`).
                self.active_total -= 1;
                self.active_by_node[index] -= 1;
            }
        }
    }

    /// Number of retained records (for tests and diagnostics).
    #[cfg(test)]
    pub fn record_count(&self) -> usize {
        self.records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FramePayload;
    use crate::topology::Position;

    fn frame(src: u32) -> Frame {
        // Encode the full u32 little-endian: `src as u8` would alias every
        // node id >= 256 onto the same probe payload.
        Frame::new(
            NodeId(src),
            FramePayload::from_bytes(src.to_le_bytes().to_vec()).unwrap(),
        )
    }

    fn t(micros: u64) -> SimTime {
        SimTime::from_micros(micros)
    }

    /// a --- r --- b with a and b mutually hidden.
    fn hidden_topology() -> (Topology, NodeId, NodeId, NodeId) {
        let (topo, (a, r, b)) = Topology::hidden_terminal(100.0);
        (topo, a, r, b)
    }

    #[test]
    fn clean_delivery() {
        let (topo, a, r, _) = hidden_topology();
        let mut medium = Medium::new();
        let seq = medium.begin_tx(a, t(0), t(100), frame(0), 8);
        assert_eq!(medium.judge(seq, r, 0.9, 0.0, &topo), Verdict::Delivered);
    }

    #[test]
    fn random_loss_applies_after_collision_checks() {
        let (topo, a, r, _) = hidden_topology();
        let mut medium = Medium::new();
        let seq = medium.begin_tx(a, t(0), t(100), frame(0), 8);
        assert_eq!(
            medium.judge(seq, r, 0.05, 0.1, &topo),
            Verdict::Failed(DeliveryFailure::RandomLoss)
        );
        assert_eq!(medium.judge(seq, r, 0.5, 0.1, &topo), Verdict::Delivered);
    }

    #[test]
    fn hidden_terminals_collide_at_receiver() {
        let (topo, a, r, b) = hidden_topology();
        let mut medium = Medium::new();
        let sa = medium.begin_tx(a, t(0), t(100), frame(0), 8);
        let sb = medium.begin_tx(b, t(50), t(150), frame(2), 8);
        // Both frames are corrupted at r.
        assert_eq!(
            medium.judge(sa, r, 0.9, 0.0, &topo),
            Verdict::Failed(DeliveryFailure::RfCollision)
        );
        assert_eq!(
            medium.judge(sb, r, 0.9, 0.0, &topo),
            Verdict::Failed(DeliveryFailure::RfCollision)
        );
    }

    #[test]
    fn non_overlapping_transmissions_do_not_collide() {
        let (topo, a, r, b) = hidden_topology();
        let mut medium = Medium::new();
        let sa = medium.begin_tx(a, t(0), t(100), frame(0), 8);
        let sb = medium.begin_tx(b, t(100), t(200), frame(2), 8);
        assert_eq!(medium.judge(sa, r, 0.9, 0.0, &topo), Verdict::Delivered);
        assert_eq!(medium.judge(sb, r, 0.9, 0.0, &topo), Verdict::Delivered);
    }

    #[test]
    fn out_of_range_interferer_is_harmless() {
        // a transmits to r; b's simultaneous transmission is audible at r?
        // Move b out of r's range entirely: no interference.
        let mut topo = Topology::new(50.0);
        let a = topo.add(Position::new(0.0, 0.0));
        let r = topo.add(Position::new(40.0, 0.0));
        let b = topo.add(Position::new(500.0, 0.0));
        let mut medium = Medium::new();
        let sa = medium.begin_tx(a, t(0), t(100), frame(0), 8);
        let _sb = medium.begin_tx(b, t(0), t(100), frame(2), 8);
        assert_eq!(medium.judge(sa, r, 0.9, 0.0, &topo), Verdict::Delivered);
    }

    #[test]
    fn half_duplex_receiver_misses_frames() {
        let (topo, a, r, _) = hidden_topology();
        let mut medium = Medium::new();
        let sa = medium.begin_tx(a, t(0), t(100), frame(0), 8);
        // r itself transmits during a's frame.
        let _sr = medium.begin_tx(r, t(20), t(60), frame(1), 8);
        assert_eq!(
            medium.judge(sa, r, 0.9, 0.0, &topo),
            Verdict::Failed(DeliveryFailure::HalfDuplex)
        );
    }

    #[test]
    fn carrier_sense_hears_in_range_transmissions_only() {
        let (topo, a, r, b) = hidden_topology();
        let mut medium = Medium::new();
        let _ = medium.begin_tx(a, t(0), t(100), frame(0), 8);
        assert!(medium.busy_for(r, t(50), &topo));
        // b cannot hear a: the channel sounds idle — the hidden-terminal
        // precondition.
        assert!(!medium.busy_for(b, t(50), &topo));
        // After the transmission ends the channel is idle for everyone.
        assert!(!medium.busy_for(r, t(100), &topo));
    }

    #[test]
    fn own_transmission_does_not_trip_carrier_sense() {
        let (topo, a, _, _) = hidden_topology();
        let mut medium = Medium::new();
        let _ = medium.begin_tx(a, t(0), t(100), frame(0), 8);
        assert!(!medium.busy_for(a, t(50), &topo));
    }

    #[test]
    fn touching_intervals_do_not_overlap() {
        let (topo, a, r, b) = hidden_topology();
        let mut medium = Medium::new();
        let sa = medium.begin_tx(a, t(0), t(100), frame(0), 8);
        let _sb = medium.begin_tx(b, t(100), t(200), frame(2), 8);
        // [0,100) and [100,200) share only the boundary instant.
        assert_eq!(medium.judge(sa, r, 0.9, 0.0, &topo), Verdict::Delivered);
    }

    #[test]
    fn prune_discards_stale_records() {
        let (_, a, _, b) = hidden_topology();
        let mut medium = Medium::new();
        medium.begin_tx(a, t(0), t(100), frame(0), 8);
        medium.begin_tx(b, t(500), t(600), frame(2), 8);
        medium.prune(t(300));
        assert_eq!(medium.record_count(), 1);
    }

    #[test]
    fn record_lookup_survives_pruning() {
        let (_, a, _, b) = hidden_topology();
        let mut medium = Medium::new();
        let sa = medium.begin_tx(a, t(0), t(100), frame(0), 8);
        let sb = medium.begin_tx(b, t(500), t(600), frame(2), 8);
        medium.prune(t(300));
        assert!(medium.record(sa).is_none(), "pruned record must be gone");
        let kept = medium.record(sb).expect("recent record retained");
        assert_eq!(kept.seq, sb);
        assert_eq!(kept.sender, b);
    }

    #[test]
    fn end_tx_takes_the_frame_and_clears_carrier_sense() {
        let (topo, a, r, _) = hidden_topology();
        let mut medium = Medium::new();
        let payload = frame(0);
        let seq = medium.begin_tx(a, t(0), t(100), payload.clone(), 8);
        assert!(medium.busy_for(r, t(50), &topo));
        let (taken, bits, start, end) = medium.end_tx(seq);
        assert_eq!(taken.src, payload.src);
        assert_eq!((bits, start, end), (8, t(0), t(100)));
        // Ended records are invisible to carrier sense even before any
        // pruning, whatever the probe time.
        assert!(!medium.busy_for(r, t(50), &topo));
        // ...but still judgeable: a later overlapping frame must still
        // see the collision.
        let other = medium.begin_tx(r, t(90), t(190), frame(1), 8);
        assert_eq!(
            medium.judge(other, a, 0.9, 0.0, &topo),
            Verdict::Failed(DeliveryFailure::HalfDuplex)
        );
    }

    #[test]
    fn probe_payloads_distinguish_wide_node_ids() {
        // Regression: the helper used to truncate the source id to u8,
        // so nodes 255, 256, and 511 all probed with indistinguishable
        // payloads (0xFF, 0x00, 0xFF) and record-attribution bugs for
        // ids >= 256 were invisible to every test in this module.
        let wide = [255u32, 256, 511];
        let frames: Vec<Frame> = wide.iter().map(|&id| frame(id)).collect();
        for (i, &id) in wide.iter().enumerate() {
            assert_eq!(frames[i].src, NodeId(id));
            let bytes = frames[i].payload.bytes();
            assert_eq!(
                u32::from_le_bytes(bytes.try_into().unwrap()),
                id,
                "payload must round-trip the full u32 id"
            );
            for j in (i + 1)..wide.len() {
                assert_ne!(
                    frames[i].payload, frames[j].payload,
                    "ids {} and {} must not alias",
                    wide[i], wide[j]
                );
            }
        }
        // End-to-end: a large topology keeps wide ids attributed to the
        // right sender through the medium.
        let mut topo = Topology::new(50.0);
        let mut ids = Vec::new();
        for i in 0..512u32 {
            ids.push(topo.add(Position::new(f64::from(i) * 1000.0, 0.0)));
        }
        let mut medium = Medium::new();
        let seq = medium.begin_tx(ids[511], t(0), t(100), frame(511), 8);
        assert_eq!(
            medium.record(seq).expect("record retained").sender,
            NodeId(511)
        );
        let (taken, ..) = medium.end_tx(seq);
        assert_eq!(taken.src, NodeId(511));
        assert_eq!(
            u32::from_le_bytes(taken.payload.bytes().try_into().unwrap()),
            511
        );
    }

    #[test]
    fn long_transmission_still_found_behind_later_short_ones() {
        // A long frame keeps interfering while several later short
        // frames come and go — the early-exit bound must not skip it.
        let (topo, a, r, b) = hidden_topology();
        let mut medium = Medium::new();
        let long = medium.begin_tx(a, t(0), t(1000), frame(0), 64);
        for i in 0..5u64 {
            let s = medium.begin_tx(b, t(100 + i * 10), t(105 + i * 10), frame(2), 4);
            let _ = medium.end_tx(s);
        }
        let late = medium.begin_tx(b, t(900), t(950), frame(2), 4);
        assert_eq!(
            medium.judge(late, r, 0.9, 0.0, &topo),
            Verdict::Failed(DeliveryFailure::RfCollision)
        );
        let _ = long;
    }
}
