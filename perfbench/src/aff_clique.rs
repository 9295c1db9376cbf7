//! `aff_clique`: the paper's experiment with every layer live.
//!
//! Sixteen fully connected nodes on the paper radio (40 kbit/s, 27-byte
//! frames) under CSMA. Every node is an AFF endpoint: every ~300 ms it
//! offers an 80-byte packet under an 8-bit listening-selected
//! identifier (window 2T = 32) unless its radio queue still holds the
//! previous one, and it reassembles everything it hears. The node
//! protocol makes the same calls into `retri` and `retri_aff` that
//! `AffService` makes, each wrapped in its own span.

use std::time::{Duration, Instant};

use retri::seed::stream_seed;
use retri::select::{IdSelector, ListeningSelector};
use retri::IdentifierSpace;
use retri_aff::reassembly::ReassemblyStats;
use retri_aff::{Fragmenter, Reassembler, WireConfig};
use retri_netsim::prelude::*;

use crate::checks::{
    check_offered, check_receive_path, check_same_digest, classify_packet, packet_bytes, Delivery,
};
use crate::report::{ratio, Metrics};
use crate::setup::{self, SetupTimes};
use crate::sim::{self, run_timed};
use crate::span::{self, elapsed_ns, Span};
use crate::{Outcome, Run};

const NODES: u16 = 16;
const RANGE_M: f64 = 100.0;
const ID_BITS: u8 = 8;
/// 2T for T = 16 concurrent transactions.
const LISTEN_WINDOW: usize = 32;
const REASSEMBLY_TTL_US: u64 = 300_000;
const PERIOD_US: u64 = 300_000;
const JITTER_US: u64 = 50_000;
/// Simulated time run untimed after construction, in every set-up.
const WARMUP: SimTime = SimTime::from_secs(20);
/// Simulated time per timed step (one latency sample).
const SLICE: SimDuration = SimDuration::from_secs(4);

/// Per-node counts and spans of the timed region.
#[derive(Debug, Default, Clone, Copy)]
struct Layers {
    callback: Span,
    select: Span,
    observe: Span,
    fragment: Span,
    decode: Span,
    reassemble: Span,
    offered: u64,
    genuine: u64,
    false_accepts: u64,
    bogus: u64,
    decode_errors: u64,
}

impl Layers {
    fn merge(&mut self, o: &Layers) {
        for (mine, theirs) in [
            (&mut self.callback, o.callback),
            (&mut self.select, o.select),
            (&mut self.observe, o.observe),
            (&mut self.fragment, o.fragment),
            (&mut self.decode, o.decode),
            (&mut self.reassemble, o.reassemble),
        ] {
            mine.merge(theirs);
        }
        self.offered += o.offered;
        self.genuine += o.genuine;
        self.false_accepts += o.false_accepts;
        self.bogus += o.bogus;
        self.decode_errors += o.decode_errors;
    }

    /// Host time inside layer calls (the callback's attributed part).
    fn layer_ns(&self) -> u64 {
        self.select.ns + self.observe.ns + self.fragment.ns + self.decode.ns + self.reassemble.ns
    }
}

struct Node {
    seed: u64,
    me: u16,
    traced: bool,
    wire: WireConfig,
    fragmenter: Fragmenter,
    reassembler: Reassembler,
    selector: ListeningSelector,
    /// Packets offered so far; the next packet's seq.
    next_seq: u32,
    /// Highest seq delivered from each sender.
    heard_max: Vec<Option<u32>>,
    layers: Layers,
    /// Reassembler counters when `layers` was last reset.
    reassembly_base: ReassemblyStats,
}

impl Node {
    fn new(seed: u64, me: NodeId, traced: bool) -> Self {
        let space = IdentifierSpace::new(ID_BITS).expect("8-bit identifiers are valid");
        let wire = WireConfig::aff(space);
        let frame_bytes = RadioConfig::radiometrix_rpc().max_frame_bytes;
        Node {
            seed,
            me: u16::try_from(me.0).expect("clique ids fit u16"),
            traced,
            fragmenter: Fragmenter::new(wire.clone(), frame_bytes)
                .expect("AFF headers fit 27-byte frames"),
            reassembler: Reassembler::new(wire.clone(), REASSEMBLY_TTL_US),
            selector: ListeningSelector::new(space, LISTEN_WINDOW),
            wire,
            next_seq: 0,
            heard_max: vec![None; usize::from(NODES)],
            layers: Layers::default(),
            reassembly_base: ReassemblyStats::default(),
        }
    }

    fn reset_layers(&mut self) {
        self.layers = Layers::default();
        self.reassembly_base = self.reassembler.stats();
    }

    /// `[delivered, checksum failures, identifier conflicts, expired]`
    /// since the last reset.
    fn reassembly_delta(&self) -> [u64; 4] {
        let (now, base) = (self.reassembler.stats(), self.reassembly_base);
        [
            now.delivered - base.delivered,
            now.checksum_failures - base.checksum_failures,
            now.identifier_conflicts() - base.identifier_conflicts(),
            now.expired - base.expired,
        ]
    }

    fn offer(&mut self, ctx: &mut Context<'_>) {
        let traced = self.traced;
        let packet = packet_bytes(self.seed, self.me, self.next_seq);
        let id = self
            .layers
            .select
            .time(traced, || self.selector.select(ctx.rng()));
        let payloads = self
            .layers
            .fragment
            .time(traced, || self.fragmenter.fragment(&packet, id, None))
            .expect("80-byte packets fragment");
        for payload in payloads {
            ctx.send(payload).expect("fragments fit the radio frame");
        }
        self.next_seq += 1;
        self.layers.offered += 1;
    }

    fn receive(&mut self, ctx: &mut Context<'_>, frame: &Frame) {
        let traced = self.traced;
        let now = ctx.now().as_micros();
        let fragment = match self
            .layers
            .decode
            .time(traced, || self.wire.decode(&frame.payload))
        {
            Ok(fragment) => fragment,
            Err(_) => {
                self.layers.decode_errors += 1;
                return;
            }
        };
        self.layers
            .observe
            .time(traced, || self.selector.observe(fragment.key()));
        let Some(packet) = self
            .layers
            .reassemble
            .time(traced, || self.reassembler.accept(&fragment, now))
        else {
            return;
        };
        match classify_packet(self.seed, self.me, NODES, &packet) {
            Delivery::Genuine { sender, seq } => {
                self.layers.genuine += 1;
                self.note_heard(sender, seq);
            }
            Delivery::FalseAccept { sender, seq } => {
                self.layers.false_accepts += 1;
                self.note_heard(sender, seq);
            }
            Delivery::Bogus => self.layers.bogus += 1,
        }
    }

    fn note_heard(&mut self, sender: u16, seq: u32) {
        let slot = &mut self.heard_max[usize::from(sender)];
        *slot = Some(slot.map_or(seq, |max| max.max(seq)));
    }
}

impl Protocol for Node {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let started = span::open(self.traced);
        sim::arm_timer(ctx, 0..PERIOD_US);
        self.layers.callback.close(started);
    }

    fn on_frame(&mut self, ctx: &mut Context<'_>, frame: &Frame) {
        let started = span::open(self.traced);
        self.receive(ctx, frame);
        self.layers.callback.close(started);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: Timer) {
        let started = span::open(self.traced);
        if ctx.pending_frames() == 0 {
            self.offer(ctx);
        }
        sim::arm_timer(ctx, PERIOD_US - JITTER_US..PERIOD_US + JITTER_US);
        self.layers.callback.close(started);
    }
}

fn nodes(sim: &ShardedSim<Node>) -> impl Iterator<Item = &Node> {
    sim.node_ids().map(|id| sim.protocol(id))
}

/// Digest of the engine counters and every node's protocol state.
fn digest(sim: &ShardedSim<Node>) -> u64 {
    let mut words = Vec::new();
    for node in nodes(sim) {
        words.push(u64::from(node.next_seq));
        words.extend(node.heard_max.iter().map(|h| h.map_or(u64::MAX, u64::from)));
        words.extend(node.reassembly_delta());
        words.extend([
            node.layers.genuine,
            node.layers.false_accepts,
            node.layers.decode_errors,
        ]);
    }
    sim::digest(sim, &words)
}

/// Builds the clique and runs the warm-up.
fn set_up(run: &Run) -> (ShardedSim<Node>, u64, SetupTimes) {
    let started = Instant::now();
    let topology = Topology::full_mesh(usize::from(NODES), RANGE_M);
    let topology_ns = elapsed_ns(started);
    let (seed, traced) = (run.seed, run.traced);
    let mut sim = ShardedSimBuilder::new(stream_seed(seed, "perfbench.aff_clique"))
        .radio(RadioConfig::radiometrix_rpc())
        .mac(MacConfig::csma())
        .range(RANGE_M)
        .shards(1)
        .build_with_topology(&topology, move |id| Node::new(seed, id, traced));
    let build_ns = elapsed_ns(started) - topology_ns;
    sim.run_until(WARMUP);
    let times = SetupTimes {
        topology_s: topology_ns as f64 * 1e-9,
        build_s: build_ns as f64 * 1e-9,
        total_s: elapsed_ns(started) as f64 * 1e-9,
    };
    let digest = digest(&sim);
    (sim, digest, times)
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let Ok(setup) = setup::repeat(|| Ok::<_, std::convert::Infallible>(set_up(run)), drop);
    out.check(check_same_digest(
        "aff_clique warm-up digest",
        &setup.digests,
    ));
    out.note(format!(
        "warm-up digest {:016x} ({} s simulated)",
        setup.digests[0],
        WARMUP.as_secs_f64()
    ));
    out.setup_peak_rss_mb = setup.peak_rss_mb;
    let mut sim = setup.kept;

    for id in sim.node_ids().collect::<Vec<_>>() {
        sim.protocol_mut(id).reset_layers();
    }
    let timed = run_timed(
        &mut sim,
        SLICE,
        Duration::from_secs_f64(run.seconds),
        |_, _| {},
    );

    let mut total = Layers::default();
    let mut reassembly = [0u64; 4];
    let offered: Vec<u32> = nodes(&sim).map(|n| n.next_seq).collect();
    for (index, node) in nodes(&sim).enumerate() {
        total.merge(&node.layers);
        for (sum, delta) in reassembly.iter_mut().zip(node.reassembly_delta()) {
            *sum += delta;
        }
        if let Err(problem) = check_offered(index, &node.heard_max, &offered) {
            out.failed += 1;
            out.problems.push(problem);
        }
    }
    if total.bogus > 0 {
        out.failed += total.bogus;
        out.problems.push(format!(
            "{} reassembled packets were no node's packet",
            total.bogus
        ));
    }
    out.check(check_receive_path(timed.deliveries(), Some(total.genuine)));
    out.attempted = timed.frames();
    out.note(format!(
        "run digest {:016x} at {} s simulated: {} frames, {} packets offered, {} delivered, {} false accepts",
        digest(&sim),
        sim.now().as_secs_f64(),
        timed.frames(),
        total.offered,
        total.genuine,
        total.false_accepts
    ));

    let e2e = &mut out.end_to_end;
    timed.blocks.insert_metrics(e2e);
    e2e.insert("setup_s", setup::median_of(&setup.times, |t| t.total_s));

    let layers = &mut out.layers;
    sim::engine_metrics(&timed, total.callback.ns, layers);
    layers.insert(
        "netsim.topology_s",
        setup::median_of(&setup.times, |t| t.topology_s),
    );
    layers.insert(
        "netsim.build_s",
        setup::median_of(&setup.times, |t| t.build_s),
    );
    layers.insert(
        "app.self_s",
        total.callback.ns.saturating_sub(total.layer_ns()) as f64 * 1e-9,
    );
    insert_span(
        layers,
        ["aff.fragment_s", "aff.fragment_calls"],
        total.fragment,
    );
    insert_span(layers, ["aff.decode_s", "aff.decode_calls"], total.decode);
    insert_span(
        layers,
        ["aff.reassemble_s", "aff.reassemble_calls"],
        total.reassemble,
    );
    insert_span(layers, ["core.select_s", "core.select_calls"], total.select);
    insert_span(
        layers,
        ["core.observe_s", "core.observe_calls"],
        total.observe,
    );
    layers.insert("aff.packets_offered", total.offered as f64);
    layers.insert("aff.packets_delivered", total.genuine as f64);
    let receivers = u64::from(NODES - 1);
    layers.insert(
        "aff.delivery_ratio",
        ratio(total.genuine, total.offered * receivers),
    );
    layers.insert("aff.checksum_failures", reassembly[1] as f64);
    layers.insert("aff.false_accepts", total.false_accepts as f64);
    layers.insert("aff.identifier_conflicts", reassembly[2] as f64);
    layers.insert("aff.expired", reassembly[3] as f64);
    layers.insert("aff.decode_errors", total.decode_errors as f64);
    out
}

/// Inserts a span's host time and call count under `[secs, calls]`.
fn insert_span(layers: &mut Metrics, [secs, calls]: [&'static str; 2], span: Span) {
    layers.insert(secs, span.secs());
    layers.insert(calls, span.calls as f64);
}
