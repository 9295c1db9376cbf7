//! Observability wiring for both simulation engines.
//!
//! [`NetsimObs`] holds pre-resolved [`retri_obs`] handles for every
//! medium-level metric, so the per-event cost when observability is on
//! is one atomic update on a pre-resolved cell, and the cost when it
//! is off is nothing at all: each engine stores `Option<NetsimObs>` and
//! a disabled run never constructs one (see
//! [`Simulator::enable_obs`](crate::sim::Simulator::enable_obs) and
//! [`ShardedSim::enable_obs`](crate::shard::ShardedSim::enable_obs)).
//! Both engines record through the shared radio rules in `rules.rs`.
//!
//! Metrics are pure observations: no recording call touches any RNG
//! stream, so enabling observability can never change simulation
//! output. `sim.rs` checks this for the serial engine with an
//! obs-on-equals-obs-off stats test; the integration test
//! `observation_never_perturbs_results` checks it for the sharded
//! engine, on the AFF testbed that runs there.

use retri_obs::{Counter, Gauge, Obs, SpanTracker};

use crate::trace::LossReason;

/// Bucket bounds (simulated micros) for transmission airtime spans:
/// geometric from 100 µs to ~1.6 s, covering every radio model in the
/// workspace.
const TX_SPAN_BOUNDS: [f64; 8] = [
    100.0,
    400.0,
    1_600.0,
    6_400.0,
    25_600.0,
    102_400.0,
    409_600.0,
    1_638_400.0,
];

/// Pre-resolved metric handles for one simulator.
pub(crate) struct NetsimObs {
    /// `netsim_frames_sent_total`.
    pub frames_sent: Counter,
    /// `netsim_tx_bits_total` — bits on the air (payload + preamble).
    pub tx_bits: Counter,
    /// `netsim_airtime_micros_total` — cumulative transmission time.
    pub airtime_micros: Counter,
    /// `netsim_deliveries_total` (includes corrupted deliveries).
    pub deliveries: Counter,
    /// `netsim_corrupted_deliveries_total`.
    pub corrupted_deliveries: Counter,
    /// `netsim_flipped_bits_total`.
    pub flipped_bits: Counter,
    /// `netsim_drops_total{reason=…}`, indexed by [`LossReason`].
    drops: [Counter; LossReason::ALL.len()],
    /// `netsim_mac_backoffs_total` — CSMA carrier-sense deferrals.
    pub mac_backoffs: Counter,
    /// `netsim_mac_backoff_slots_total` — slots waited across backoffs.
    pub mac_backoff_slots: Counter,
    /// `netsim_energy_tx_nj` — network-wide transmit energy gauge.
    pub energy_tx_nj: Gauge,
    /// `netsim_energy_rx_nj` — network-wide receive energy gauge.
    pub energy_rx_nj: Gauge,
    /// `netsim_tx_airtime_*` span per medium sequence number.
    tx_spans: SpanTracker,
}

impl NetsimObs {
    /// Registers every simulator metric on `obs` (which must be
    /// enabled — callers gate on [`Obs::is_enabled`]).
    pub fn new(obs: &Obs) -> Self {
        let drops = LossReason::ALL
            .map(|reason| obs.counter("netsim_drops_total", &[("reason", reason.label())]));
        let tx_spans = SpanTracker::register(obs, "netsim_tx_airtime", &[], &TX_SPAN_BOUNDS);
        NetsimObs {
            frames_sent: obs.counter("netsim_frames_sent_total", &[]),
            tx_bits: obs.counter("netsim_tx_bits_total", &[]),
            airtime_micros: obs.counter("netsim_airtime_micros_total", &[]),
            deliveries: obs.counter("netsim_deliveries_total", &[]),
            corrupted_deliveries: obs.counter("netsim_corrupted_deliveries_total", &[]),
            flipped_bits: obs.counter("netsim_flipped_bits_total", &[]),
            drops,
            mac_backoffs: obs.counter("netsim_mac_backoffs_total", &[]),
            mac_backoff_slots: obs.counter("netsim_mac_backoff_slots_total", &[]),
            energy_tx_nj: obs.gauge("netsim_energy_tx_nj", &[]),
            energy_rx_nj: obs.gauge("netsim_energy_rx_nj", &[]),
            tx_spans,
        }
    }

    /// Counts one per-receiver drop with its reason.
    #[inline]
    pub fn drop_for(&self, reason: LossReason) {
        self.drops[reason.index()].inc();
    }

    /// Opens the airtime span for medium sequence `seq`.
    pub fn tx_span_start(&mut self, seq: u64, at_micros: u64) {
        self.tx_spans.start(seq, at_micros);
    }

    /// Closes the airtime span for medium sequence `seq`.
    pub fn tx_span_end(&mut self, seq: u64, at_micros: u64) {
        self.tx_spans.end(seq, at_micros);
    }
}
