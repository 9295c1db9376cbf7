//! `mesh_10k`: per-frame medium judging and receive fan-out.
//!
//! A 100×100 grid, 30 m spacing and 45 m range, so every interior node
//! hears its 8 neighbours, under ALOHA. Each node sends a raw 12-byte
//! reading at a random phase about every 500 ms; `aff` and `core` are
//! bypassed. A seeded 1% of the nodes move each simulated second
//! (jittered around their grid position through `schedule_move`), so
//! topology writes run beside the neighbour reads.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retri::seed::stream_seed;
use retri_netsim::prelude::*;

use crate::checks::{check_receive_path, check_same_digest, reading_bytes, reading_is_genuine};
use crate::setup::{self, SetupTimes};
use crate::sim::{self, run_timed};
use crate::span::{self, elapsed_ns, Span};
use crate::{Outcome, Run};

const COLS: usize = 100;
const ROWS: usize = 100;
const SPACING_M: f64 = 30.0;
const RANGE_M: f64 = 45.0;
const PERIOD_US: u64 = 500_000;
const JITTER_US: u64 = 25_000;
/// Nodes moved per simulated second (1%).
const MOVERS_PER_S: usize = COLS * ROWS / 100;
/// How far a mover may land from its grid position, per axis.
const MOVE_JITTER_M: f64 = 5.0;
const WARMUP: SimTime = SimTime::from_secs(1);
/// Simulated time per timed step (one latency sample).
const SLICE: SimDuration = SimDuration::from_millis(150);

/// Per-node counts and the callback span of the timed region.
#[derive(Debug, Default, Clone, Copy)]
struct Layers {
    callback: Span,
    sent: u64,
    heard: u64,
    bad: u64,
}

struct Node {
    seed: u64,
    me: u32,
    traced: bool,
    next_seq: u32,
    layers: Layers,
}

impl Protocol for Node {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let started = span::open(self.traced);
        sim::arm_timer(ctx, 0..PERIOD_US);
        self.layers.callback.close(started);
    }

    fn on_frame(&mut self, _ctx: &mut Context<'_>, frame: &Frame) {
        let started = span::open(self.traced);
        self.layers.heard += 1;
        if !reading_is_genuine(self.seed, frame.src.0, frame.payload.bytes()) {
            self.layers.bad += 1;
        }
        self.layers.callback.close(started);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: Timer) {
        let started = span::open(self.traced);
        let reading = reading_bytes(self.seed, self.me, self.next_seq);
        let payload = FramePayload::from_bytes(reading.to_vec()).expect("readings are non-empty");
        ctx.send(payload).expect("a reading fits one frame");
        self.next_seq += 1;
        self.layers.sent += 1;
        sim::arm_timer(ctx, PERIOD_US - JITTER_US..PERIOD_US + JITTER_US);
        self.layers.callback.close(started);
    }
}

/// The seeded move schedule, generated one simulated second at a time.
struct Mover {
    rng: StdRng,
    next_second: u64,
    /// Simulated time (µs) of every move scheduled so far.
    times: Vec<u64>,
}

impl Mover {
    fn new(seed: u64) -> Self {
        Mover {
            rng: StdRng::seed_from_u64(stream_seed(seed, "perfbench.mesh_10k.moves")),
            next_second: 0,
            times: Vec::new(),
        }
    }

    /// Schedules the moves of every simulated second that starts
    /// before `end`, so none is scheduled in the past.
    fn schedule_until(&mut self, sim: &mut ShardedSim<Node>, end: SimTime) {
        while SimTime::from_secs(self.next_second) < end {
            let base = SimTime::from_secs(self.next_second).as_micros();
            for _ in 0..MOVERS_PER_S {
                let node = self.rng.gen_range(0..COLS * ROWS);
                let at = base + self.rng.gen_range(0..1_000_000u64);
                let to = Position::new(
                    (node % COLS) as f64 * SPACING_M
                        + self.rng.gen_range(-MOVE_JITTER_M..MOVE_JITTER_M),
                    (node / COLS) as f64 * SPACING_M
                        + self.rng.gen_range(-MOVE_JITTER_M..MOVE_JITTER_M),
                );
                let id = NodeId(u32::try_from(node).expect("mesh ids fit u32"));
                sim.schedule_move(SimTime::from_micros(at), id, to);
                self.times.push(at);
            }
            self.next_second += 1;
        }
    }

    /// Moves that took effect in `[from, to)`.
    fn moves_between(&self, from: SimTime, to: SimTime) -> usize {
        let range = from.as_micros()..to.as_micros();
        self.times.iter().filter(|t| range.contains(t)).count()
    }
}

fn totals(sim: &ShardedSim<Node>) -> Layers {
    let mut total = Layers::default();
    for id in sim.node_ids() {
        let l = &sim.protocol(id).layers;
        total.callback.merge(l.callback);
        total.sent += l.sent;
        total.heard += l.heard;
        total.bad += l.bad;
    }
    total
}

/// Builds the grid and simulator and runs the warm-up.
fn set_up(run: &Run) -> ((ShardedSim<Node>, Mover), u64, SetupTimes) {
    let started = Instant::now();
    let topology = Topology::grid(COLS, ROWS, SPACING_M, RANGE_M);
    let topology_ns = elapsed_ns(started);
    let (seed, traced) = (run.seed, run.traced);
    let mut sim = ShardedSimBuilder::new(stream_seed(seed, "perfbench.mesh_10k"))
        .radio(RadioConfig::radiometrix_rpc())
        .mac(MacConfig::aloha())
        .range(RANGE_M)
        .shards(1)
        .build_with_topology(&topology, move |id| Node {
            seed,
            me: id.0,
            traced,
            next_seq: 0,
            layers: Layers::default(),
        });
    let build_ns = elapsed_ns(started) - topology_ns;
    let mut mover = Mover::new(seed);
    mover.schedule_until(&mut sim, WARMUP);
    sim.run_until(WARMUP);
    let times = SetupTimes {
        topology_s: topology_ns as f64 * 1e-9,
        build_s: build_ns as f64 * 1e-9,
        total_s: elapsed_ns(started) as f64 * 1e-9,
    };
    let digest = digest(&sim);
    ((sim, mover), digest, times)
}

fn digest(sim: &ShardedSim<Node>) -> u64 {
    let t = totals(sim);
    let seqs = sim
        .node_ids()
        .map(|id| u64::from(sim.protocol(id).next_seq));
    let mut words = vec![t.sent, t.heard, t.bad];
    words.extend(seqs);
    sim::digest(sim, &words)
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let Ok(setup) = setup::repeat(|| Ok::<_, std::convert::Infallible>(set_up(run)), drop);
    out.check(check_same_digest("mesh_10k warm-up digest", &setup.digests));
    out.note(format!(
        "warm-up digest {:016x} ({} s simulated)",
        setup.digests[0],
        WARMUP.as_secs_f64()
    ));
    out.setup_peak_rss_mb = setup.peak_rss_mb;
    let (mut sim, mut mover) = setup.kept;

    let before = totals(&sim);
    let start = sim.now();
    let timed = run_timed(
        &mut sim,
        SLICE,
        Duration::from_secs_f64(run.seconds),
        |sim, end| {
            mover.schedule_until(sim, end);
        },
    );
    let after = totals(&sim);
    let bad = after.bad - before.bad;
    if bad > 0 {
        out.failed += bad;
        out.problems.push(format!(
            "{bad} received frames were not their sender's reading"
        ));
    }
    if after.heard - before.heard != timed.deliveries() {
        out.problems.push(format!(
            "protocols heard {} frames but the engine counted {} deliveries",
            after.heard - before.heard,
            timed.deliveries()
        ));
    }
    out.check(check_receive_path(timed.deliveries(), None));
    out.attempted = timed.frames();
    let moves = mover.moves_between(start, sim.now());
    out.note(format!(
        "run digest {:016x} at {} s simulated: {} frames, {} deliveries, {} moves",
        digest(&sim),
        sim.now().as_secs_f64(),
        timed.frames(),
        timed.deliveries(),
        moves
    ));

    timed.blocks.insert_metrics(&mut out.end_to_end);
    out.end_to_end
        .insert("setup_s", setup::median_of(&setup.times, |t| t.total_s));
    let callback_ns = after.callback.ns - before.callback.ns;
    let layers = &mut out.layers;
    sim::engine_metrics(&timed, callback_ns, layers);
    layers.insert(
        "netsim.topology_s",
        setup::median_of(&setup.times, |t| t.topology_s),
    );
    layers.insert(
        "netsim.build_s",
        setup::median_of(&setup.times, |t| t.build_s),
    );
    layers.insert("netsim.moves", moves as f64);
    layers.insert("app.self_s", callback_ns as f64 * 1e-9);
    out
}
