//! The discrete-event simulation engine.
//!
//! One [`Simulator`] owns the clock, the event queue, the topology, the
//! medium, the per-node MAC state, and every protocol instance. All
//! randomness flows from a single seeded RNG, and simultaneous events
//! are ordered by insertion sequence, so a run is a pure function of
//! `(seed, configuration, schedule of calls)`. The radio rules — the
//! receive pipeline, DFA framing, transmission accounting — are shared
//! with the sharded engine through `crate::rules`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use retri_obs::Obs;

use crate::energy::EnergyMeter;
use crate::fault::{fault_stream_seed, ChurnEvent, FaultModel};
use crate::frame::Frame;
use crate::grid::FxHashSet;
use crate::mac::{DfaStats, MacConfig};
use crate::medium::Medium;
use crate::node::{Command, Context, NodeId, Protocol, Timer, TimerHandle};
use crate::obs::NetsimObs;
use crate::radio::RadioConfig;
use crate::rules::{self, AirReads, Airing, DfaStep, MacState, Receiver, TxStart};
use crate::time::SimTime;
use crate::topology::{Position, Topology};
use crate::trace::{TraceEvent, Tracer};

pub use crate::rules::MediumStats;

#[derive(Debug)]
enum EventKind {
    NodeStart(NodeId),
    Timer { node: NodeId, timer: Timer },
    MacTry(NodeId),
    TxEnd { seq: u64, node: NodeId },
    Move { node: NodeId, to: Position },
    SetAlive { node: NodeId, alive: bool },
}

#[derive(Debug)]
struct Event {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest (then
        // first-inserted) event is popped first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Configures and constructs a [`Simulator`].
///
/// # Examples
///
/// ```
/// use retri_netsim::prelude::*;
///
/// struct Quiet;
/// impl Protocol for Quiet {
///     fn on_start(&mut self, _ctx: &mut Context<'_>) {}
///     fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}
///     fn on_timer(&mut self, _ctx: &mut Context<'_>, _timer: Timer) {}
/// }
///
/// let mut sim = SimBuilder::new(1)
///     .radio(RadioConfig::radiometrix_rpc())
///     .mac(MacConfig::csma())
///     .range(100.0)
///     .build(|_id| Quiet);
/// sim.add_node_at(Position::new(0.0, 0.0));
/// sim.run_until(SimTime::from_secs(1));
/// ```
#[derive(Debug)]
pub struct SimBuilder {
    seed: u64,
    radio: RadioConfig,
    mac: MacConfig,
    range: f64,
    faults: FaultModel,
}

impl SimBuilder {
    /// Starts a builder with the given RNG seed and defaults: the
    /// paper's RPC radio, CSMA, 100 m range.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SimBuilder {
            seed,
            radio: RadioConfig::radiometrix_rpc(),
            mac: MacConfig::csma(),
            range: 100.0,
            faults: FaultModel::none(),
        }
    }

    /// Sets the radio model.
    #[must_use]
    pub fn radio(mut self, radio: RadioConfig) -> Self {
        self.radio = radio;
        self
    }

    /// Sets the MAC configuration.
    #[must_use]
    pub fn mac(mut self, mac: MacConfig) -> Self {
        self.mac = mac;
        self
    }

    /// Sets the radio range in meters.
    #[must_use]
    pub fn range(mut self, range: f64) -> Self {
        self.range = range;
        self
    }

    /// Sets the fault model (default: [`FaultModel::none`]).
    ///
    /// All fault randomness comes from a dedicated RNG stream derived
    /// from the builder seed via
    /// [`crate::fault::fault_stream_seed`], so a
    /// run with `FaultModel::none()` is byte-identical to one that
    /// never called this method: no draw of the main RNG moves.
    /// Scheduled churn events must name nodes that are added before
    /// the event time is reached.
    #[must_use]
    pub fn faults(mut self, faults: FaultModel) -> Self {
        self.faults = faults;
        self
    }

    /// Builds the simulator; `factory` creates the protocol instance for
    /// each node added later.
    pub fn build<P, F>(self, factory: F) -> Simulator<P>
    where
        P: Protocol,
        F: FnMut(NodeId) -> P + 'static,
    {
        self.mac.validate();
        let fault_rng = StdRng::seed_from_u64(fault_stream_seed(self.seed));
        let mut sim = Simulator {
            now: SimTime::ZERO,
            radio: self.radio,
            mac: self.mac,
            topology: Topology::new(self.range),
            medium: Medium::new(),
            rng: StdRng::seed_from_u64(self.seed),
            protocols: Vec::new(),
            macs: Vec::new(),
            factory: Box::new(factory),
            heap: BinaryHeap::new(),
            event_seq: 0,
            next_timer_handle: 0,
            cancelled: FxHashSet::default(),
            stats: MediumStats::default(),
            dfa_stats: DfaStats::default(),
            commands: Vec::new(),
            receiver_scratch: Vec::new(),
            tracer: None,
            obs: None,
            faults: self.faults,
            fault_rng,
            fault_bad: Vec::new(),
        };
        let churn: Vec<ChurnEvent> = sim.faults.churn().to_vec();
        for event in churn {
            sim.schedule_set_alive(event.at, event.node, event.alive);
        }
        sim
    }
}

/// The simulation: clock, event queue, medium, topology, and all nodes.
pub struct Simulator<P> {
    now: SimTime,
    radio: RadioConfig,
    mac: MacConfig,
    topology: Topology,
    medium: Medium,
    rng: StdRng,
    /// Per-node protocol instances, indexed by node.
    protocols: Vec<P>,
    /// Per-node MAC and radio state, indexed by node.
    macs: Vec<MacState>,
    factory: Box<dyn FnMut(NodeId) -> P>,
    heap: BinaryHeap<Event>,
    event_seq: u64,
    next_timer_handle: u64,
    cancelled: FxHashSet<TimerHandle>,
    stats: MediumStats,
    dfa_stats: DfaStats,
    commands: Vec<Command>,
    /// Reused per-transmission receiver list; kept empty between
    /// `tx_end` calls so the steady state allocates nothing.
    receiver_scratch: Vec<NodeId>,
    tracer: Option<Tracer>,
    /// Pre-resolved metric handles; `None` (the default) is the
    /// provably zero-cost path — one branch per would-be recording.
    obs: Option<NetsimObs>,
    faults: FaultModel,
    /// Dedicated fault RNG stream; never consulted when the model has
    /// no channel, so fault-off runs keep the main stream untouched.
    fault_rng: StdRng,
    /// Per-receiver Gilbert–Elliott state (`true` = bad).
    fault_bad: Vec<bool>,
}

impl<P> core::fmt::Debug for Simulator<P> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("nodes", &self.protocols.len())
            .field("pending_events", &self.heap.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<P: Protocol> Simulator<P> {
    /// Adds a node at `position` using the builder's protocol factory;
    /// its `on_start` runs at the current time.
    pub fn add_node_at(&mut self, position: Position) -> NodeId {
        let id = self.topology.add(position);
        let protocol = (self.factory)(id);
        self.push_node(id, protocol)
    }

    /// Adds a node with an explicitly constructed protocol instance.
    pub fn add_node_with(&mut self, position: Position, protocol: P) -> NodeId {
        let id = self.topology.add(position);
        self.push_node(id, protocol)
    }

    fn push_node(&mut self, id: NodeId, protocol: P) -> NodeId {
        self.protocols.push(protocol);
        self.macs.push(MacState::default());
        self.fault_bad.push(false);
        let at = self.now;
        self.schedule(at, EventKind::NodeStart(id));
        id
    }

    /// Sets (or clears) a receiver duty cycle on a node. While the
    /// radio sleeps, frames addressed to it are lost as
    /// [`MediumStats::sleep_misses`] and cost it no receive energy.
    /// Transmission is unaffected — the node wakes to send.
    ///
    /// # Panics
    ///
    /// Panics if `node` was never added.
    pub fn set_duty_cycle(&mut self, node: NodeId, duty_cycle: Option<crate::radio::DutyCycle>) {
        self.macs[node.index()].duty_cycle = duty_cycle;
    }

    /// The current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The radio model in use.
    #[must_use]
    pub fn radio(&self) -> &RadioConfig {
        &self.radio
    }

    /// The topology (positions, liveness, range).
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Medium-level counters.
    #[must_use]
    pub fn stats(&self) -> MediumStats {
        self.stats
    }

    /// Dynamic-Frame Aloha counters (all zero unless the MAC runs DFA).
    #[must_use]
    pub fn dfa_stats(&self) -> DfaStats {
        self.dfa_stats
    }

    /// Number of nodes added so far.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.protocols.len()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.protocols.len() as u32).map(NodeId)
    }

    /// The protocol instance of a node, for post-run inspection.
    ///
    /// # Panics
    ///
    /// Panics if `node` was never added.
    #[must_use]
    pub fn protocol(&self, node: NodeId) -> &P {
        &self.protocols[node.index()]
    }

    /// Mutable access to a node's protocol (e.g. to inject workload
    /// between runs).
    ///
    /// # Panics
    ///
    /// Panics if `node` was never added.
    pub fn protocol_mut(&mut self, node: NodeId) -> &mut P {
        &mut self.protocols[node.index()]
    }

    /// A node's energy meter.
    ///
    /// # Panics
    ///
    /// Panics if `node` was never added.
    #[must_use]
    pub fn meter(&self, node: NodeId) -> &EnergyMeter {
        &self.macs[node.index()].meter
    }

    /// Network-wide energy meter (sum over nodes).
    #[must_use]
    pub fn total_meter(&self) -> EnergyMeter {
        let mut total = EnergyMeter::new();
        for state in &self.macs {
            total.merge(&state.meter);
        }
        total
    }

    /// How long a node's receiver has been awake so far: the full run
    /// time, scaled by its duty cycle if one is set.
    ///
    /// # Panics
    ///
    /// Panics if `node` was never added.
    #[must_use]
    pub fn awake_micros(&self, node: NodeId) -> u64 {
        self.macs[node.index()].awake_micros(self.now)
    }

    /// A node's total radio energy so far in nanojoules, including idle
    /// listening for the time its receiver was awake.
    ///
    /// # Panics
    ///
    /// Panics if `node` was never added.
    #[must_use]
    pub fn energy_nj(&self, node: NodeId) -> f64 {
        self.macs[node.index()].energy_nj(&self.radio.energy, self.now)
    }

    /// Enables event tracing with a bounded ring buffer of `capacity`
    /// events (see [`crate::trace`]). Re-enabling resets the buffer.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.tracer = Some(Tracer::new(capacity));
    }

    /// The tracer, if enabled.
    #[must_use]
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Attaches an observability handle (see [`retri_obs`]). When
    /// `obs` is enabled, the simulator registers its medium-level
    /// metrics (`netsim_*` counters, gauges, and the
    /// `netsim_tx_airtime` span) and records into them; when `obs` is
    /// disabled this is a no-op and the run stays on the zero-cost
    /// path. Recording never consults any RNG stream, so enabling
    /// observability cannot change simulation output.
    pub fn enable_obs(&mut self, obs: &Obs) {
        self.obs = obs.is_enabled().then(|| NetsimObs::new(obs));
    }

    /// Records a trace event only when tracing is enabled. The closure
    /// defers event construction, so untraced runs never build a
    /// [`TraceEvent`] at all.
    fn trace_with(&mut self, event: impl FnOnce() -> TraceEvent) {
        if let Some(tracer) = &mut self.tracer {
            tracer.record(event());
        }
    }

    /// Schedules a node to move at a future time (network dynamics).
    pub fn schedule_move(&mut self, at: SimTime, node: NodeId, to: Position) {
        self.schedule(at, EventKind::Move { node, to });
    }

    /// Schedules a node death (`false`) or rebirth (`true`).
    pub fn schedule_set_alive(&mut self, at: SimTime, node: NodeId, alive: bool) {
        self.schedule(at, EventKind::SetAlive { node, alive });
    }

    /// Runs all events up to and including `deadline`, then advances the
    /// clock to it.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(event) = self.heap.peek() {
            if event.at > deadline {
                break;
            }
            let event = self.heap.pop().expect("peeked above");
            self.dispatch(event);
        }
        self.now = self.now.max(deadline);
    }

    /// Runs a single event, returning its time, or `None` if the queue
    /// is empty.
    pub fn step(&mut self) -> Option<SimTime> {
        let event = self.heap.pop()?;
        let at = event.at;
        self.dispatch(event);
        Some(at)
    }

    fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.event_seq;
        self.event_seq += 1;
        self.heap.push(Event { at, seq, kind });
    }

    fn dispatch(&mut self, event: Event) {
        debug_assert!(event.at >= self.now, "time must not run backwards");
        self.now = event.at;
        match event.kind {
            EventKind::NodeStart(node) => {
                if self.topology.is_alive(node) {
                    self.with_ctx(node, |protocol, ctx| protocol.on_start(ctx));
                }
            }
            EventKind::Timer { node, timer } => {
                // The is_empty guard skips the hash lookup when no
                // cancellation is pending — the common case.
                let cancelled = !self.cancelled.is_empty() && self.cancelled.remove(&timer.handle);
                if !cancelled && self.topology.is_alive(node) {
                    self.with_ctx(node, |protocol, ctx| protocol.on_timer(ctx, timer));
                }
            }
            EventKind::MacTry(node) => self.mac_try(node),
            EventKind::TxEnd { seq, node } => self.tx_end(seq, node),
            EventKind::Move { node, to } => {
                self.topology.set_position(node, to);
                let at = self.now;
                self.trace_with(|| TraceEvent::Moved { at, node, to });
            }
            EventKind::SetAlive { node, alive } => {
                self.topology.set_alive(node, alive);
                let at = self.now;
                self.trace_with(|| TraceEvent::Liveness { at, node, alive });
                if alive {
                    // A reborn node boots afresh.
                    self.schedule(at, EventKind::NodeStart(node));
                } else {
                    self.macs[node.index()].reset_on_death();
                }
            }
        }
        self.apply_commands();
    }

    fn with_ctx(&mut self, node: NodeId, f: impl FnOnce(&mut P, &mut Context<'_>)) {
        let mut ctx = Context {
            now: self.now,
            node,
            rng: &mut self.rng,
            commands: &mut self.commands,
            next_timer_handle: &mut self.next_timer_handle,
            max_frame_bytes: self.radio.max_frame_bytes,
            pending_frames: self.macs[node.index()].pending_frames(),
        };
        f(&mut self.protocols[node.index()], &mut ctx);
    }

    /// Applies the commands the last callback buffered. Applying one
    /// runs no callback, so a single pass drains them all.
    fn apply_commands(&mut self) {
        if self.commands.is_empty() {
            return;
        }
        // Reuse the batch's capacity for future events: the steady
        // state enqueues and drains commands with no allocation.
        let mut batch = std::mem::take(&mut self.commands);
        for command in batch.drain(..) {
            match command {
                Command::Send { node, payload } => {
                    self.macs[node.index()].queue.push_back(payload);
                    let at = self.now;
                    self.schedule(at, EventKind::MacTry(node));
                }
                Command::SetTimer { node, at, timer } => {
                    self.schedule(at, EventKind::Timer { node, timer });
                }
                Command::CancelTimer { handle } => {
                    self.cancelled.insert(handle);
                }
            }
        }
        self.commands = batch;
    }

    fn mac_try(&mut self, node: NodeId) {
        if !self.topology.is_alive(node) || !self.macs[node.index()].ready() {
            return;
        }
        let now = self.now;
        if let Some(dfa) = self.mac.dfa_config() {
            let protocol = &self.protocols[node.index()];
            match self.macs[node.index()].dfa_frame_step(
                now,
                dfa,
                || protocol.population_estimate(now),
                &mut self.rng,
                &mut self.dfa_stats,
            ) {
                DfaStep::Transmit => {}
                DfaStep::Wait => return,
                DfaStep::WakeAt(at) => {
                    self.schedule(at, EventKind::MacTry(node));
                    return;
                }
            }
        } else if self.mac.carrier_sense && self.medium.busy_for(node, now, &self.topology) {
            let at = rules::backoff(&self.mac, now, &mut self.rng, self.obs.as_ref());
            self.schedule(at, EventKind::MacTry(node));
            return;
        }
        let (payload, bits_on_air, airtime) = self.macs[node.index()].begin_tx(&self.radio);
        let end = now + airtime;
        let seq = self
            .medium
            .begin_tx(node, now, end, Frame::new(node, payload), bits_on_air);
        let event = TxStart {
            at: now,
            node,
            seq,
            bits_on_air,
            airtime_micros: airtime.as_micros(),
        }
        .record(
            &mut self.stats,
            self.obs.as_mut(),
            self.radio.energy.tx_nj_per_bit,
        );
        self.trace_with(|| event);
        self.schedule(end, EventKind::TxEnd { seq, node });
    }

    fn tx_end(&mut self, seq: u64, node: NodeId) {
        self.macs[node.index()].transmitting = false;
        // O(1) record lookup; takes the frame out of the record instead
        // of cloning it.
        let (frame, bits_on_air, tx_start, tx_end_at) = self.medium.end_tx(seq);
        if let Some(o) = &mut self.obs {
            o.tx_span_end(seq, tx_end_at.as_micros());
        }
        // A copy, so the receive loop below can still borrow `self`.
        let radio = self.radio;
        let tx = Airing {
            seq,
            sender: node,
            start: tx_start,
            end: tx_end_at,
            bits_on_air,
            frame: &frame,
            radio: &radio,
        };
        // Receivers in deterministic id order, straight off the
        // adjacency cache into a reused scratch buffer.
        let mut receivers = std::mem::take(&mut self.receiver_scratch);
        receivers.extend(self.topology.neighbors(node));
        for &receiver in &receivers {
            // Draw before any filtering so the RNG stream is identical
            // across duty-cycle and fault configurations.
            let draw: f64 = self.rng.gen_range(0.0..1.0);
            let (medium, topology) = (&self.medium, &self.topology);
            let reception = rules::receive(
                &tx,
                Receiver {
                    id: receiver,
                    mac: &mut self.macs[receiver.index()],
                    fault_bad: &mut self.fault_bad[receiver.index()],
                    fault_rng: &mut self.fault_rng,
                },
                &self.faults,
                || medium.judge(&tx, receiver, draw, topology),
                &mut self.stats,
                self.obs.as_ref(),
            );
            self.trace_with(|| reception.trace_event(&tx, receiver));
            if let Some(received) = reception.frame(&tx) {
                self.with_ctx(receiver, |protocol, ctx| protocol.on_frame(ctx, received));
            }
        }
        receivers.clear();
        self.receiver_scratch = receivers;
        let at = if self.mac.dfa_config().is_some() {
            // Sender-side DFA slot feedback, judged before pruning below
            // can drop the evidence.
            let collided =
                self.medium
                    .interference_at(node, tx_start, tx_end_at, seq, &self.topology);
            let frame_end = self.macs[node.index()].dfa_feedback(
                collided,
                self.topology.is_alive(node),
                || frame.payload,
                &mut self.dfa_stats,
            );
            frame_end.max(self.now)
        } else {
            // Next frame, after the inter-frame space.
            self.now + self.mac.ifs
        };
        self.schedule(at, EventKind::MacTry(node));
        // Garbage-collect records that can no longer affect judgments.
        self.medium
            .prune(rules::prune_horizon(&self.radio, self.now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FramePayload;
    use crate::time::SimDuration;

    /// Sends `to_send` frames at start; counts frames heard.
    struct Chatter {
        to_send: u32,
        heard: u32,
        payload_bytes: usize,
    }

    impl Protocol for Chatter {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for _ in 0..self.to_send {
                ctx.send(FramePayload::from_bytes(vec![0xAA; self.payload_bytes]).unwrap())
                    .unwrap();
            }
        }
        fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {
            self.heard += 1;
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_>, _timer: Timer) {}
    }

    fn two_node_sim(seed: u64) -> Simulator<Chatter> {
        let mut sim = SimBuilder::new(seed).build(|id| Chatter {
            to_send: if id == NodeId(0) { 3 } else { 0 },
            heard: 0,
            payload_bytes: 10,
        });
        sim.add_node_at(Position::new(0.0, 0.0));
        sim.add_node_at(Position::new(10.0, 0.0));
        sim
    }

    #[test]
    fn frames_are_delivered_in_range() {
        let mut sim = two_node_sim(1);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.protocol(NodeId(1)).heard, 3);
        assert_eq!(sim.stats().frames_sent, 3);
        assert_eq!(sim.stats().deliveries, 3);
    }

    #[test]
    fn runs_are_reproducible() {
        let mut a = two_node_sim(7);
        let mut b = two_node_sim(7);
        a.run_until(SimTime::from_secs(2));
        b.run_until(SimTime::from_secs(2));
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.meter(NodeId(0)), b.meter(NodeId(0)));
    }

    #[test]
    fn out_of_range_nodes_hear_nothing() {
        let mut sim = SimBuilder::new(2).range(50.0).build(|id| Chatter {
            to_send: if id == NodeId(0) { 2 } else { 0 },
            heard: 0,
            payload_bytes: 5,
        });
        sim.add_node_at(Position::new(0.0, 0.0));
        sim.add_node_at(Position::new(500.0, 0.0));
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.protocol(NodeId(1)).heard, 0);
        assert_eq!(sim.stats().deliveries, 0);
    }

    #[test]
    fn csma_serializes_mutually_audible_senders() {
        // Two senders in range of each other and of a receiver: carrier
        // sense + random backoff should avoid almost all collisions.
        let mut sim = SimBuilder::new(3)
            .mac(MacConfig::csma())
            .build(|id| Chatter {
                to_send: if id != NodeId(2) { 20 } else { 0 },
                heard: 0,
                payload_bytes: 27,
            });
        sim.add_node_at(Position::new(0.0, 0.0));
        sim.add_node_at(Position::new(10.0, 0.0));
        sim.add_node_at(Position::new(5.0, 5.0));
        sim.run_until(SimTime::from_secs(30));
        let heard = sim.protocol(NodeId(2)).heard;
        assert!(heard >= 38, "receiver heard only {heard}/40");
    }

    #[test]
    fn hidden_terminals_collide_despite_csma() {
        let mut sim = SimBuilder::new(4).range(100.0).build(|id| Chatter {
            // Both far senders chatter; the middle node listens.
            to_send: if id != NodeId(1) { 40 } else { 0 },
            heard: 0,
            payload_bytes: 27,
        });
        sim.add_node_at(Position::new(-90.0, 0.0));
        sim.add_node_at(Position::new(0.0, 0.0));
        sim.add_node_at(Position::new(90.0, 0.0));
        sim.run_until(SimTime::from_secs(10));
        assert!(
            sim.stats().rf_collisions > 0,
            "hidden terminals must produce RF collisions: {}",
            sim.stats()
        );
    }

    #[test]
    fn random_loss_drops_frames() {
        let mut sim = SimBuilder::new(5)
            .radio(RadioConfig::radiometrix_rpc().with_frame_loss(1.0))
            .build(|id| Chatter {
                to_send: if id == NodeId(0) { 5 } else { 0 },
                heard: 0,
                payload_bytes: 5,
            });
        sim.add_node_at(Position::new(0.0, 0.0));
        sim.add_node_at(Position::new(10.0, 0.0));
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.protocol(NodeId(1)).heard, 0);
        assert_eq!(sim.stats().random_losses, 5);
    }

    #[test]
    fn energy_meters_account_tx_and_rx() {
        let mut sim = two_node_sim(6);
        sim.run_until(SimTime::from_secs(2));
        let sender = sim.meter(NodeId(0));
        let receiver = sim.meter(NodeId(1));
        let bits_per_frame = sim.radio().bits_on_air(80); // 10-byte payload
        assert_eq!(sender.tx_bits(), 3 * bits_per_frame);
        assert_eq!(receiver.rx_bits(), 3 * bits_per_frame);
        assert_eq!(sim.total_meter().tx_bits(), 3 * bits_per_frame);
    }

    #[test]
    fn dead_node_neither_sends_nor_receives() {
        let mut sim = two_node_sim(7);
        sim.schedule_set_alive(SimTime::ZERO, NodeId(1), false);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.protocol(NodeId(1)).heard, 0);
        assert_eq!(sim.stats().deliveries, 0);
    }

    #[test]
    fn movement_breaks_connectivity_mid_run() {
        let mut sim = SimBuilder::new(8).range(50.0).build(|_| Chatter {
            to_send: 0,
            heard: 0,
            payload_bytes: 5,
        });
        let a = sim.add_node_at(Position::new(0.0, 0.0));
        let b = sim.add_node_at(Position::new(10.0, 0.0));
        // Move b away after 1 s, then have a send.
        sim.schedule_move(SimTime::from_secs(1), b, Position::new(400.0, 0.0));
        sim.run_until(SimTime::from_secs(2));
        sim.protocol_mut(a).to_send = 0;
        // Inject a send at t=2 via a protocol-side path: simplest is a
        // fresh node; instead drive the MAC directly by re-adding
        // payloads through on_start of a new node at a's position.
        let c = sim.add_node_with(
            Position::new(0.0, 0.0),
            Chatter {
                to_send: 2,
                heard: 0,
                payload_bytes: 5,
            },
        );
        sim.run_until(SimTime::from_secs(4));
        let _ = c;
        assert_eq!(sim.protocol(b).heard, 0, "moved node must not hear");
        // a (still at origin) hears the new sender.
        assert_eq!(sim.protocol(a).heard, 2);
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct TimerProto {
            fired: Vec<u64>,
        }
        impl Protocol for TimerProto {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_millis(10), 1);
                let cancel_me = ctx.set_timer(SimDuration::from_millis(20), 2);
                ctx.set_timer(SimDuration::from_millis(30), 3);
                ctx.cancel_timer(cancel_me);
            }
            fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}
            fn on_timer(&mut self, _ctx: &mut Context<'_>, timer: Timer) {
                self.fired.push(timer.token);
            }
        }
        let mut sim = SimBuilder::new(9).build(|_| TimerProto { fired: Vec::new() });
        let n = sim.add_node_at(Position::new(0.0, 0.0));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.protocol(n).fired, vec![1, 3]);
    }

    #[test]
    fn duty_cycled_receiver_misses_frames_while_asleep() {
        use crate::radio::DutyCycle;
        // Sender streams frames; receiver listens 10% of each 100 ms.
        let mut sim = SimBuilder::new(21).build(|id| Chatter {
            to_send: if id == NodeId(0) { 40 } else { 0 },
            heard: 0,
            payload_bytes: 27,
        });
        sim.add_node_at(Position::new(0.0, 0.0));
        let rx = sim.add_node_at(Position::new(10.0, 0.0));
        sim.set_duty_cycle(
            rx,
            Some(DutyCycle::new(
                SimDuration::from_millis(100),
                0.1,
                SimDuration::ZERO,
            )),
        );
        sim.run_until(SimTime::from_secs(10));
        let stats = sim.stats();
        assert!(stats.sleep_misses > 0, "{stats}");
        assert!(
            sim.protocol(rx).heard < 40,
            "a 10% duty cycle cannot hear everything"
        );
        assert_eq!(
            stats.deliveries
                + stats.sleep_misses
                + stats.rf_collisions
                + stats.half_duplex_losses
                + stats.random_losses,
            40,
            "every attempt lands in exactly one bucket: {stats}"
        );
        // Sleeping saves receive energy.
        let bits_per_frame = sim.radio().bits_on_air(27 * 8);
        assert!(sim.meter(rx).rx_bits() < 40 * bits_per_frame);
    }

    #[test]
    fn full_duty_cycle_hears_everything() {
        use crate::radio::DutyCycle;
        let mut sim = two_node_sim(22);
        sim.set_duty_cycle(
            NodeId(1),
            Some(DutyCycle::new(
                SimDuration::from_millis(50),
                1.0,
                SimDuration::ZERO,
            )),
        );
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.protocol(NodeId(1)).heard, 3);
        assert_eq!(sim.stats().sleep_misses, 0);
    }

    #[test]
    fn tracer_records_transmissions_and_outcomes() {
        use crate::trace::TraceEvent;
        let mut sim = two_node_sim(30);
        sim.enable_trace(1024);
        sim.run_until(SimTime::from_secs(2));
        let tracer = sim.tracer().expect("enabled above");
        let tx_starts = tracer
            .events()
            .filter(|e| matches!(e, TraceEvent::TxStart { .. }))
            .count();
        assert_eq!(tx_starts as u64, sim.stats().frames_sent);
        assert_eq!(
            tracer.deliveries_between(NodeId(0), NodeId(1)) as u64,
            sim.stats().deliveries
        );
        assert_eq!(tracer.dropped(), 0);
    }

    #[test]
    fn tracer_records_losses_with_reasons() {
        use crate::trace::{LossReason, TraceEvent};
        let mut sim = SimBuilder::new(31)
            .radio(RadioConfig::radiometrix_rpc().with_frame_loss(1.0))
            .build(|id| Chatter {
                to_send: if id == NodeId(0) { 3 } else { 0 },
                heard: 0,
                payload_bytes: 5,
            });
        sim.add_node_at(Position::new(0.0, 0.0));
        sim.add_node_at(Position::new(10.0, 0.0));
        sim.enable_trace(64);
        sim.run_until(SimTime::from_secs(2));
        let tracer = sim.tracer().expect("enabled above");
        let random_losses = tracer
            .events()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::Lost {
                        reason: LossReason::RandomLoss,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(random_losses, 3);
    }

    #[test]
    fn tracer_records_dynamics() {
        use crate::trace::TraceEvent;
        let mut sim = two_node_sim(32);
        sim.enable_trace(64);
        sim.schedule_set_alive(SimTime::from_millis(100), NodeId(1), false);
        sim.schedule_move(
            SimTime::from_millis(200),
            NodeId(1),
            Position::new(99.0, 0.0),
        );
        sim.run_until(SimTime::from_secs(1));
        let tracer = sim.tracer().expect("enabled above");
        assert!(tracer.events().any(|e| matches!(
            e,
            TraceEvent::Liveness {
                node: NodeId(1),
                alive: false,
                ..
            }
        )));
        assert!(tracer.events().any(|e| matches!(
            e,
            TraceEvent::Moved {
                node: NodeId(1),
                ..
            }
        )));
    }

    #[test]
    fn step_returns_event_times_in_order() {
        let mut sim = two_node_sim(10);
        let mut last = SimTime::ZERO;
        while let Some(at) = sim.step() {
            assert!(at >= last);
            last = at;
        }
        assert!(sim.stats().frames_sent > 0);
    }

    #[test]
    fn fault_off_is_byte_identical_to_no_fault_model() {
        use crate::fault::FaultModel;
        let mut base = two_node_sim(7);
        let mut with_none = SimBuilder::new(7)
            .faults(FaultModel::none())
            .build(|id| Chatter {
                to_send: if id == NodeId(0) { 3 } else { 0 },
                heard: 0,
                payload_bytes: 10,
            });
        with_none.add_node_at(Position::new(0.0, 0.0));
        with_none.add_node_at(Position::new(10.0, 0.0));
        base.run_until(SimTime::from_secs(2));
        with_none.run_until(SimTime::from_secs(2));
        assert_eq!(base.stats(), with_none.stats());
        assert_eq!(base.meter(NodeId(0)), with_none.meter(NodeId(0)));
        assert_eq!(base.meter(NodeId(1)), with_none.meter(NodeId(1)));
        assert_eq!(
            base.protocol(NodeId(1)).heard,
            with_none.protocol(NodeId(1)).heard
        );
    }

    #[test]
    fn fault_erasure_drops_frames_without_touching_the_main_stream() {
        use crate::fault::{ChannelState, FaultModel, GilbertElliott};
        let erase_all = FaultModel::none().with_channel(GilbertElliott::iid(ChannelState {
            bit_error_rate: 0.0,
            frame_erasure: 1.0,
        }));
        let mut base = two_node_sim(13);
        let mut faulty = SimBuilder::new(13).faults(erase_all).build(|id| Chatter {
            to_send: if id == NodeId(0) { 3 } else { 0 },
            heard: 0,
            payload_bytes: 10,
        });
        faulty.add_node_at(Position::new(0.0, 0.0));
        faulty.add_node_at(Position::new(10.0, 0.0));
        base.run_until(SimTime::from_secs(2));
        faulty.run_until(SimTime::from_secs(2));
        assert_eq!(faulty.protocol(NodeId(1)).heard, 0);
        assert_eq!(faulty.stats().fault_erasures, 3);
        assert_eq!(faulty.stats().deliveries, 0);
        // The main RNG stream must be untouched by fault draws: the MAC
        // schedule, and hence the sender's meter, match the clean run.
        assert_eq!(base.stats().frames_sent, faulty.stats().frames_sent);
        assert_eq!(base.meter(NodeId(0)), faulty.meter(NodeId(0)));
    }

    #[test]
    fn bit_errors_corrupt_deliveries_and_are_traced() {
        use crate::fault::{ChannelState, FaultModel, GilbertElliott};
        use crate::trace::TraceEvent;
        // BER 1.0 flips every payload bit: frames still arrive, but
        // every delivery is counted and traced as corrupted.
        let flip_all = FaultModel::none().with_channel(GilbertElliott::iid(ChannelState {
            bit_error_rate: 1.0,
            frame_erasure: 0.0,
        }));
        let mut sim = SimBuilder::new(14).faults(flip_all).build(|id| Chatter {
            to_send: if id == NodeId(0) { 3 } else { 0 },
            heard: 0,
            payload_bytes: 10,
        });
        sim.add_node_at(Position::new(0.0, 0.0));
        sim.add_node_at(Position::new(10.0, 0.0));
        sim.enable_trace(64);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.protocol(NodeId(1)).heard, 3);
        let stats = sim.stats();
        assert_eq!(stats.deliveries, 3);
        assert_eq!(stats.corrupted_deliveries, 3);
        assert_eq!(stats.flipped_bits, 3 * 80);
        let corrupted = sim
            .tracer()
            .expect("enabled above")
            .events()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::Corrupted {
                        flipped_bits: 80,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(corrupted, 3);
    }

    #[test]
    fn partition_window_severs_cross_group_frames() {
        use crate::fault::{FaultModel, PartitionWindow};
        use crate::trace::{LossReason, TraceEvent};
        // The sender bursts 40 back-to-back frames (~7 ms each); the
        // first 100 ms are partitioned, so early frames are severed and
        // later ones delivered.
        let faults = FaultModel::none().with_partition(PartitionWindow::new(
            SimTime::ZERO,
            SimTime::from_millis(100),
            vec![NodeId(0)],
        ));
        let mut sim = SimBuilder::new(15).faults(faults).build(|id| Chatter {
            to_send: if id == NodeId(0) { 40 } else { 0 },
            heard: 0,
            payload_bytes: 27,
        });
        sim.add_node_at(Position::new(0.0, 0.0));
        sim.add_node_at(Position::new(10.0, 0.0));
        sim.enable_trace(128);
        sim.run_until(SimTime::from_secs(10));
        let stats = sim.stats();
        assert!(stats.partition_losses > 0, "{stats}");
        assert!(stats.deliveries > 0, "{stats}");
        assert_eq!(stats.partition_losses + stats.deliveries, 40, "{stats}");
        assert_eq!(
            sim.protocol(NodeId(1)).heard as u64,
            stats.deliveries,
            "partitioned frames never reach the protocol"
        );
        assert!(sim.tracer().expect("enabled above").events().any(|e| {
            matches!(
                e,
                TraceEvent::Lost {
                    reason: LossReason::Partitioned,
                    ..
                }
            )
        }));
    }

    #[test]
    fn fault_model_churn_kills_and_revives_on_schedule() {
        use crate::fault::FaultModel;
        // The receiver dies before any frame lands and revives at
        // 100 ms, partway through the sender's ~300 ms burst.
        let faults = FaultModel::none()
            .with_churn_event(SimTime::from_micros(1), NodeId(1), false)
            .with_churn_event(SimTime::from_millis(100), NodeId(1), true);
        let mut sim = SimBuilder::new(16).faults(faults).build(|id| Chatter {
            to_send: if id == NodeId(0) { 40 } else { 0 },
            heard: 0,
            payload_bytes: 27,
        });
        sim.add_node_at(Position::new(0.0, 0.0));
        sim.add_node_at(Position::new(10.0, 0.0));
        sim.run_until(SimTime::from_secs(10));
        let heard = sim.protocol(NodeId(1)).heard;
        assert!(heard > 0, "revived node must hear again");
        assert!(heard < 40, "dead interval must cost frames: {heard}");
    }

    #[test]
    fn every_attempt_lands_in_exactly_one_bucket_under_faults() {
        use crate::fault::{ChannelState, FaultModel, GilbertElliott, PartitionWindow};
        let faults = FaultModel::none()
            .with_channel(GilbertElliott::bursty(
                ChannelState::clean(),
                ChannelState {
                    bit_error_rate: 0.01,
                    frame_erasure: 0.5,
                },
                0.2,
                0.3,
            ))
            .with_partition(PartitionWindow::new(
                SimTime::from_millis(100),
                SimTime::from_millis(250),
                vec![NodeId(0)],
            ));
        let mut sim = SimBuilder::new(17).faults(faults).build(|id| Chatter {
            to_send: if id == NodeId(0) { 60 } else { 0 },
            heard: 0,
            payload_bytes: 27,
        });
        sim.add_node_at(Position::new(0.0, 0.0));
        sim.add_node_at(Position::new(10.0, 0.0));
        sim.run_until(SimTime::from_secs(20));
        let stats = sim.stats();
        assert!(stats.fault_erasures > 0, "{stats}");
        assert!(stats.partition_losses > 0, "{stats}");
        assert_eq!(
            stats.deliveries
                + stats.sleep_misses
                + stats.rf_collisions
                + stats.half_duplex_losses
                + stats.random_losses
                + stats.fault_erasures
                + stats.partition_losses,
            60,
            "every attempt lands in exactly one bucket: {stats}"
        );
        assert!(
            stats.corrupted_deliveries <= stats.deliveries,
            "corruption is a flavor of delivery, not a loss: {stats}"
        );
    }

    #[test]
    fn obs_counters_match_medium_stats() {
        use crate::fault::{ChannelState, FaultModel, GilbertElliott};
        let faults = FaultModel::none().with_channel(GilbertElliott::iid(ChannelState {
            bit_error_rate: 0.001,
            frame_erasure: 0.3,
        }));
        let obs = Obs::enabled();
        let mut sim = SimBuilder::new(40).faults(faults).build(|id| Chatter {
            to_send: if id == NodeId(0) { 30 } else { 0 },
            heard: 0,
            payload_bytes: 27,
        });
        sim.enable_obs(&obs);
        sim.add_node_at(Position::new(0.0, 0.0));
        sim.add_node_at(Position::new(10.0, 0.0));
        sim.run_until(SimTime::from_secs(20));
        let stats = sim.stats();
        let snap = obs.snapshot().expect("enabled");
        assert_eq!(snap.counter("netsim_frames_sent_total"), stats.frames_sent);
        assert_eq!(snap.counter("netsim_deliveries_total"), stats.deliveries);
        assert_eq!(
            snap.counter_with("netsim_drops_total", &[("reason", "fault_erasure")]),
            Some(stats.fault_erasures)
        );
        assert_eq!(
            snap.counter("netsim_corrupted_deliveries_total"),
            stats.corrupted_deliveries
        );
        assert_eq!(
            snap.counter("netsim_flipped_bits_total"),
            stats.flipped_bits
        );
        // Airtime counter and completed spans agree with frames sent.
        assert_eq!(
            snap.counter("netsim_tx_airtime_completed_total"),
            stats.frames_sent
        );
        let spans = snap
            .histogram_with("netsim_tx_airtime_micros", &[])
            .expect("span histogram registered");
        assert_eq!(spans.count(), stats.frames_sent);
        assert!(
            (spans.sum() - snap.counter("netsim_airtime_micros_total") as f64).abs() < 1e-6,
            "span durations must sum to total airtime"
        );
        // Energy gauges agree with the meters.
        let total = sim.total_meter();
        assert!(
            (snap.gauge("netsim_energy_tx_nj") - total.tx_energy_nj(&sim.radio().energy)).abs()
                < 1e-6
        );
        assert!(
            (snap.gauge("netsim_energy_rx_nj") - total.rx_energy_nj(&sim.radio().energy)).abs()
                < 1e-6
        );
    }

    #[test]
    fn obs_on_run_is_identical_to_obs_off() {
        // Metrics are pure observations: the RNG streams, stats, and
        // meters of an observed run must equal the unobserved run.
        let mut plain = two_node_sim(41);
        let mut observed = two_node_sim(41);
        let obs = Obs::enabled();
        observed.enable_obs(&obs);
        plain.run_until(SimTime::from_secs(2));
        observed.run_until(SimTime::from_secs(2));
        assert_eq!(plain.stats(), observed.stats());
        assert_eq!(plain.meter(NodeId(0)), observed.meter(NodeId(0)));
        assert_eq!(plain.meter(NodeId(1)), observed.meter(NodeId(1)));
        assert_eq!(
            plain.protocol(NodeId(1)).heard,
            observed.protocol(NodeId(1)).heard
        );
        // And attaching a *disabled* handle stays on the None path.
        let mut disabled = two_node_sim(41);
        disabled.enable_obs(&Obs::disabled());
        disabled.run_until(SimTime::from_secs(2));
        assert_eq!(plain.stats(), disabled.stats());
    }

    #[test]
    fn backoff_metrics_count_carrier_sense_deferrals() {
        let obs = Obs::enabled();
        let mut sim = SimBuilder::new(42)
            .mac(MacConfig::csma())
            .build(|id| Chatter {
                to_send: if id != NodeId(2) { 20 } else { 0 },
                heard: 0,
                payload_bytes: 27,
            });
        sim.enable_obs(&obs);
        sim.add_node_at(Position::new(0.0, 0.0));
        sim.add_node_at(Position::new(10.0, 0.0));
        sim.add_node_at(Position::new(5.0, 5.0));
        sim.run_until(SimTime::from_secs(30));
        let snap = obs.snapshot().expect("enabled");
        let backoffs = snap.counter("netsim_mac_backoffs_total");
        let slots = snap.counter("netsim_mac_backoff_slots_total");
        assert!(backoffs > 0, "two saturating senders must defer");
        assert!(slots >= backoffs, "every backoff waits at least one slot");
    }

    #[test]
    fn oversized_send_is_rejected_at_send_time() {
        struct BigSender {
            result: Option<Result<(), crate::frame::FrameError>>,
        }
        impl Protocol for BigSender {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let payload = FramePayload::from_bytes(vec![0; 28]).unwrap();
                self.result = Some(ctx.send(payload));
            }
            fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}
            fn on_timer(&mut self, _ctx: &mut Context<'_>, _timer: Timer) {}
        }
        let mut sim = SimBuilder::new(11).build(|_| BigSender { result: None });
        let n = sim.add_node_at(Position::new(0.0, 0.0));
        sim.run_until(SimTime::from_millis(1));
        assert!(matches!(
            sim.protocol(n).result,
            Some(Err(crate::frame::FrameError::TooLarge { .. }))
        ));
        assert_eq!(sim.stats().frames_sent, 0);
    }
}
