//! The radio rules both engines share.
//!
//! [`Simulator`](crate::sim::Simulator) and
//! [`ShardedSim`](crate::shard::ShardedSim) differ in how they schedule
//! events, how they lay out their RNG streams, and how they index the
//! air. Everything else a transmission goes through is written once,
//! here:
//!
//! - the receive pipeline, one receiver's fate for one transmission
//!   ([`receive`]): partition, then sleep, then the air verdict
//!   (half-duplex, then RF collision, then random loss, in
//!   [`AirReads::judge`]), then fault-channel erasure, then bit flips —
//!   charging receive energy and counting the outcome into
//!   [`MediumStats`] and the obs counters;
//! - the per-node MAC state ([`MacState`]): queue, half-duplex flag,
//!   duty cycle, energy meter and Dynamic-Frame Aloha framing
//!   (Barletta et al.'s L* = N frame sizing and the sender-side slot
//!   feedback);
//! - transmission-start accounting ([`TxStart`]).
//!
//! Each engine supplies only what differs: the random-loss draw and the
//! stream it comes from, its air model's verdict, the receiver's fault
//! state and fault stream, where trace events go, and the protocol
//! callback.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::Rng;

use crate::energy::EnergyMeter;
use crate::fault::FaultModel;
use crate::frame::{Frame, FramePayload};
use crate::mac::{DfaConfig, DfaStats, FrameSizing, MacConfig};
use crate::node::NodeId;
use crate::obs::NetsimObs;
use crate::radio::{DutyCycle, EnergyModel, RadioConfig};
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use crate::trace::{LossReason, TraceEvent};

/// Medium-level counters for a whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MediumStats {
    /// Frames handed to the air.
    pub frames_sent: u64,
    /// Successful frame deliveries (one per receiver).
    pub deliveries: u64,
    /// Deliveries lost to overlapping transmissions.
    pub rf_collisions: u64,
    /// Deliveries missed because the receiver was itself transmitting.
    pub half_duplex_losses: u64,
    /// Deliveries lost to the independent random-loss draw.
    pub random_losses: u64,
    /// Deliveries missed because the receiver's radio was duty-cycled
    /// off.
    pub sleep_misses: u64,
    /// Deliveries erased outright by the fault channel.
    pub fault_erasures: u64,
    /// Deliveries severed by a fault-model partition window.
    pub partition_losses: u64,
    /// Deliveries that arrived with at least one flipped payload bit
    /// (included in `deliveries`: the frame did reach the protocol).
    pub corrupted_deliveries: u64,
    /// Total payload bits flipped across all corrupted deliveries.
    pub flipped_bits: u64,
}

impl MediumStats {
    /// Adds `other` into `self`. Destructures every field, so a new
    /// counter does not compile until it is summed here too.
    pub(crate) fn merge(&mut self, other: &MediumStats) {
        let MediumStats {
            frames_sent,
            deliveries,
            rf_collisions,
            half_duplex_losses,
            random_losses,
            sleep_misses,
            fault_erasures,
            partition_losses,
            corrupted_deliveries,
            flipped_bits,
        } = *other;
        self.frames_sent += frames_sent;
        self.deliveries += deliveries;
        self.rf_collisions += rf_collisions;
        self.half_duplex_losses += half_duplex_losses;
        self.random_losses += random_losses;
        self.sleep_misses += sleep_misses;
        self.fault_erasures += fault_erasures;
        self.partition_losses += partition_losses;
        self.corrupted_deliveries += corrupted_deliveries;
        self.flipped_bits += flipped_bits;
    }

    /// Counts one receiver's outcome into its bucket.
    fn count(&mut self, reception: &Reception) {
        match *reception {
            Reception::Lost(reason) => match reason {
                LossReason::RfCollision => self.rf_collisions += 1,
                LossReason::HalfDuplex => self.half_duplex_losses += 1,
                LossReason::RandomLoss => self.random_losses += 1,
                LossReason::Asleep => self.sleep_misses += 1,
                LossReason::FaultErasure => self.fault_erasures += 1,
                LossReason::Partitioned => self.partition_losses += 1,
            },
            Reception::Delivered => self.deliveries += 1,
            Reception::Corrupted { flipped, .. } => {
                self.deliveries += 1;
                self.corrupted_deliveries += 1;
                self.flipped_bits += flipped;
            }
        }
    }
}

impl core::fmt::Display for MediumStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} sent, {} delivered, {} RF-collided, {} half-duplex, {} random losses, \
             {} sleep misses, {} fault erasures, {} partition losses, {} corrupted ({} bits)",
            self.frames_sent,
            self.deliveries,
            self.rf_collisions,
            self.half_duplex_losses,
            self.random_losses,
            self.sleep_misses,
            self.fault_erasures,
            self.partition_losses,
            self.corrupted_deliveries,
            self.flipped_bits
        )
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

/// Per-receiver air verdict for one transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    Delivered,
    Failed(DeliveryFailure),
}

/// Read-only queries over some view of the air: the serial engine's
/// `Medium`, and the sharded engine's global `AirView` and per-shard
/// `GhostAir` replicas.
pub(crate) trait AirReads {
    /// Whether `node`'s own radio is transmitting during `[start, end)`,
    /// other than `exclude_seq` (half-duplex check).
    fn transmitting_during(
        &self,
        node: NodeId,
        start: SimTime,
        end: SimTime,
        exclude_seq: u64,
    ) -> bool;

    /// Whether any foreign transmission audible at `receiver` overlaps
    /// `[start, end)` other than `exclude_seq`.
    ///
    /// Also the DFA sender-side collision feedback: a frame slot
    /// collided iff some other audible transmission overlapped the
    /// sender's airtime.
    fn interference_at(
        &self,
        receiver: NodeId,
        start: SimTime,
        end: SimTime,
        exclude_seq: u64,
        topology: &Topology,
    ) -> bool;

    /// The delivery precedence: half-duplex, then RF collision, then
    /// the pre-drawn uniform `loss_draw` against the radio's frame loss.
    fn judge(
        &self,
        tx: &Airing<'_>,
        receiver: NodeId,
        loss_draw: f64,
        topology: &Topology,
    ) -> Verdict {
        if self.transmitting_during(receiver, tx.start, tx.end, tx.seq) {
            Verdict::Failed(DeliveryFailure::HalfDuplex)
        } else if self.interference_at(receiver, tx.start, tx.end, tx.seq, topology) {
            Verdict::Failed(DeliveryFailure::RfCollision)
        } else if loss_draw < tx.radio.frame_loss {
            Verdict::Failed(DeliveryFailure::RandomLoss)
        } else {
            Verdict::Delivered
        }
    }
}

/// CSMA backoff after sensing a busy channel at `now`: a uniform
/// `1..=max_backoff_slots` slots, drawn from `rng` and counted into
/// `obs`. Returns when to try again.
pub(crate) fn backoff(
    mac: &MacConfig,
    now: SimTime,
    rng: &mut StdRng,
    obs: Option<&NetsimObs>,
) -> SimTime {
    let slots = u64::from(rng.gen_range(1..=mac.max_backoff_slots));
    if let Some(o) = obs {
        o.mac_backoffs.inc();
        o.mac_backoff_slots.add(slots);
    }
    now + mac.backoff_slot * slots
}

/// The air-record garbage-collection horizon at `now`: a record that
/// ended more than two max-size airtimes earlier can no longer affect
/// any judgment.
pub(crate) fn prune_horizon(radio: &RadioConfig, now: SimTime) -> SimTime {
    let slack = radio.airtime(radio.max_frame_bytes as u32 * 8) * 2;
    SimTime::from_micros(now.as_micros().saturating_sub(slack.as_micros()))
}

/// The next multiple of `slot` at or after `t` — the absolute slot grid
/// every DFA node aligns its frames to.
fn align_up(t: SimTime, slot: SimDuration) -> SimTime {
    let step = slot.as_micros();
    debug_assert!(step > 0, "validated by MacConfig::validate");
    SimTime::from_micros(t.as_micros().div_ceil(step) * step)
}

/// What a DFA node does when its MAC tries to transmit.
pub(crate) enum DfaStep {
    /// The committed slot has arrived: transmit now.
    Transmit,
    /// An early try; the slot wakeup is already scheduled.
    Wait,
    /// A fresh frame was drawn: schedule a wakeup at its slot.
    WakeAt(SimTime),
}

/// One node's MAC and radio state.
#[derive(Debug, Default)]
pub(crate) struct MacState {
    pub queue: VecDeque<FramePayload>,
    /// Whether the radio is on the air (half-duplex: it hears nothing).
    pub transmitting: bool,
    pub duty_cycle: Option<DutyCycle>,
    pub meter: EnergyMeter,
    /// DFA only: the slot this node committed to transmit in within its
    /// current frame; `None` when no frame is in progress.
    dfa_slot_at: Option<SimTime>,
    /// DFA only: where this node's current frame ends; the next frame
    /// starts at the first slot boundary at or after it.
    dfa_frame_end: SimTime,
}

impl MacState {
    /// Death clears MAC state until revival.
    pub fn reset_on_death(&mut self) {
        self.queue.clear();
        self.transmitting = false;
        self.dfa_slot_at = None;
        self.dfa_frame_end = SimTime::ZERO;
    }

    /// Whether a MAC try has something to send.
    pub fn ready(&self) -> bool {
        !self.transmitting && !self.queue.is_empty()
    }

    /// Frames queued or on the air, as the protocol's context reports.
    pub fn pending_frames(&self) -> usize {
        self.queue.len() + usize::from(self.transmitting)
    }

    /// How long the receiver has been awake after `elapsed` of run time:
    /// all of it, scaled by the duty cycle if one is set.
    pub fn awake_micros(&self, elapsed: SimTime) -> u64 {
        let elapsed = elapsed.as_micros();
        match self.duty_cycle {
            Some(duty) => (elapsed as f64 * duty.on_fraction()) as u64,
            None => elapsed,
        }
    }

    /// Total radio energy after `elapsed` of run time in nanojoules,
    /// including idle listening while awake.
    pub fn energy_nj(&self, model: &EnergyModel, elapsed: SimTime) -> f64 {
        self.meter
            .total_energy_with_idle_nj(model, self.awake_micros(elapsed))
    }

    /// DFA framing at a MAC try at `now`. With no live commitment, the
    /// node commits to one uniformly drawn slot (from `rng`) of its next
    /// frame, L slots long — L = N for known populations, or the
    /// protocol's live `estimate` for [`FrameSizing::Estimated`] — that
    /// starts at the first slot boundary after both `now` and the
    /// previous frame's end.
    pub fn dfa_frame_step(
        &mut self,
        now: SimTime,
        dfa: &DfaConfig,
        estimate: impl FnOnce() -> Option<u64>,
        rng: &mut StdRng,
        stats: &mut DfaStats,
    ) -> DfaStep {
        if let Some(slot_at) = self.dfa_slot_at {
            if now == slot_at {
                self.dfa_slot_at = None;
                return DfaStep::Transmit;
            }
            if now < slot_at {
                return DfaStep::Wait;
            }
            // A stale commitment from before the node's queue drained
            // or the node died; fall through and draw a fresh frame.
        }
        let estimate = match dfa.sizing {
            FrameSizing::Estimated => estimate(),
            _ => None,
        };
        let slots = u64::from(dfa.frame_length(estimate));
        let frame_start = align_up(now.max(self.dfa_frame_end), dfa.slot);
        let slot_at = frame_start + dfa.slot * rng.gen_range(0..slots);
        self.dfa_slot_at = Some(slot_at);
        self.dfa_frame_end = frame_start + dfa.slot * slots;
        stats.frames += 1;
        stats.slots += slots;
        DfaStep::WakeAt(slot_at)
    }

    /// Sender-side DFA slot feedback: a collided frame is requeued (if
    /// the sender still lives) to re-contend in its next frame. Returns
    /// the current frame's end, where the sender re-contends either
    /// way: DFA paces itself by frames, not by an inter-frame space.
    pub fn dfa_feedback(
        &mut self,
        collided: bool,
        alive: bool,
        payload: impl FnOnce() -> FramePayload,
        stats: &mut DfaStats,
    ) -> SimTime {
        if collided {
            stats.collisions += 1;
            if alive {
                self.queue.push_front(payload());
            }
        } else {
            stats.successes += 1;
        }
        self.dfa_frame_end
    }

    /// Takes the head of the queue onto the air: marks the radio busy
    /// and charges transmit energy. Returns the payload, its bits on the
    /// air and its airtime.
    pub fn begin_tx(&mut self, radio: &RadioConfig) -> (FramePayload, u64, SimDuration) {
        let payload = self.queue.pop_front().expect("MAC tried an empty queue");
        let bits_on_air = radio.bits_on_air(payload.bits());
        let airtime = radio.airtime(payload.bits());
        self.transmitting = true;
        self.meter.record_tx(bits_on_air, airtime.as_micros());
        (payload, bits_on_air, airtime)
    }
}

/// A transmission numbered and handed to the air.
pub(crate) struct TxStart {
    pub at: SimTime,
    pub node: NodeId,
    pub seq: u64,
    pub bits_on_air: u64,
    pub airtime_micros: u64,
}

impl TxStart {
    /// Counts the transmission into `stats` and `obs` (opening its
    /// airtime span) and returns its trace event.
    pub fn record(
        &self,
        stats: &mut MediumStats,
        obs: Option<&mut NetsimObs>,
        tx_nj_per_bit: f64,
    ) -> TraceEvent {
        stats.frames_sent += 1;
        if let Some(o) = obs {
            o.frames_sent.inc();
            o.tx_bits.add(self.bits_on_air);
            o.airtime_micros.add(self.airtime_micros);
            o.energy_tx_nj
                .shift(self.bits_on_air as f64 * tx_nj_per_bit);
            o.tx_span_start(self.seq, self.at.as_micros());
        }
        TraceEvent::TxStart {
            at: self.at,
            node: self.node,
            seq: self.seq,
            bits: self.bits_on_air,
        }
    }
}

/// One transmission as its receivers judge it, at its airtime end.
pub(crate) struct Airing<'a> {
    pub seq: u64,
    pub sender: NodeId,
    pub start: SimTime,
    pub end: SimTime,
    pub bits_on_air: u64,
    pub frame: &'a Frame,
    pub radio: &'a RadioConfig,
}

/// The receiving node, as the receive pipeline needs it.
pub(crate) struct Receiver<'a> {
    pub id: NodeId,
    pub mac: &'a mut MacState,
    /// Gilbert–Elliott state of this receiver's channel (`true` = bad).
    pub fault_bad: &'a mut bool,
    /// The stream the fault channel draws from for this receiver.
    pub fault_rng: &'a mut StdRng,
}

/// One receiver's fate for one transmission.
pub(crate) enum Reception {
    /// The frame never reached the protocol.
    Lost(LossReason),
    /// The frame arrived intact.
    Delivered,
    /// The frame arrived with `flipped` payload bits flipped in transit.
    Corrupted { frame: Frame, flipped: u64 },
}

impl Reception {
    /// The frame the receiver's protocol gets, if any.
    pub fn frame<'a>(&'a self, tx: &Airing<'a>) -> Option<&'a Frame> {
        match self {
            Reception::Lost(_) => None,
            Reception::Delivered => Some(tx.frame),
            Reception::Corrupted { frame, .. } => Some(frame),
        }
    }

    /// The trace event recording this outcome for receiver `to`.
    pub fn trace_event(&self, tx: &Airing<'_>, to: NodeId) -> TraceEvent {
        let (at, from, seq) = (tx.end, tx.sender, tx.seq);
        match *self {
            Reception::Lost(reason) => TraceEvent::Lost {
                at,
                from,
                to,
                seq,
                reason,
            },
            Reception::Delivered => TraceEvent::Delivered { at, from, to, seq },
            Reception::Corrupted { flipped, .. } => TraceEvent::Corrupted {
                at,
                from,
                to,
                seq,
                flipped_bits: flipped,
            },
        }
    }
}

/// Decides one receiver's fate for one transmission, in order:
/// partition, then sleep, then the engine's air `verdict`, then the
/// fault channel (erasure, then bit flips on a per-receiver copy, from
/// the receiver's fault stream). Charges receive energy whenever the
/// radio heard the frame out, and counts the outcome into `stats` and
/// `obs`.
#[inline]
pub(crate) fn receive(
    tx: &Airing<'_>,
    rx: Receiver<'_>,
    faults: &FaultModel,
    verdict: impl FnOnce() -> Verdict,
    stats: &mut MediumStats,
    obs: Option<&NetsimObs>,
) -> Reception {
    let reception = if faults.severs(tx.sender, rx.id, tx.end) {
        Reception::Lost(LossReason::Partitioned)
    } else if rx
        .mac
        .duty_cycle
        .is_some_and(|duty| !duty.awake_during(tx.start, tx.end))
    {
        Reception::Lost(LossReason::Asleep)
    } else {
        match verdict() {
            Verdict::Failed(DeliveryFailure::HalfDuplex) => Reception::Lost(LossReason::HalfDuplex),
            heard => {
                rx.mac
                    .meter
                    .record_rx(tx.bits_on_air, tx.end.since(tx.start).as_micros());
                if let Some(o) = obs {
                    o.energy_rx_nj
                        .shift(tx.bits_on_air as f64 * tx.radio.energy.rx_nj_per_bit);
                }
                match heard {
                    Verdict::Failed(failure) => Reception::Lost(failure.into()),
                    Verdict::Delivered => fault_channel(tx, faults, rx.fault_bad, rx.fault_rng),
                }
            }
        }
    };
    stats.count(&reception);
    if let Some(o) = obs {
        match reception {
            Reception::Lost(reason) => o.drop_for(reason),
            Reception::Delivered => o.deliveries.inc(),
            Reception::Corrupted { flipped, .. } => {
                o.deliveries.inc();
                o.corrupted_deliveries.inc();
                o.flipped_bits.add(flipped);
            }
        }
    }
    reception
}

/// The fault channel's judgment of a frame the air delivered.
fn fault_channel(
    tx: &Airing<'_>,
    faults: &FaultModel,
    bad: &mut bool,
    rng: &mut StdRng,
) -> Reception {
    let Some(channel) = faults.channel() else {
        return Reception::Delivered;
    };
    let fault = channel.judge_frame(bad, rng);
    if fault.erased {
        return Reception::Lost(LossReason::FaultErasure);
    }
    if fault.bit_error_rate > 0.0 {
        let mut mangled = tx.frame.clone();
        let mut flipped = 0u64;
        for bit in 0..mangled.payload.bits() {
            if rng.gen_range(0.0..1.0) < fault.bit_error_rate {
                mangled.payload.flip_bit(bit);
                flipped += 1;
            }
        }
        if flipped > 0 {
            return Reception::Corrupted {
                frame: mangled,
                flipped,
            };
        }
    }
    Reception::Delivered
}
