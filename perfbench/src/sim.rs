//! The part both simulator workloads share: the timed slice loop, the
//! engine's per-layer metrics, and the simulated-statistics digest.
//!
//! The engine always runs at one shard. On a 2-core host, K=2 with
//! worker threads ran the 10k mesh 1.7–3.7× slower than K=1, and
//! identical runs spread from 2.5 s to 5.9 s: the scheduler, not the
//! engine, would be measured (see `README.md`).

use std::time::{Duration, Instant};

use rand::Rng;
use retri_netsim::sim::MediumStats;
use retri_netsim::{Context, Protocol, ShardedSim, SimDuration, SimTime};

use crate::checks::digest_of;
use crate::report::{ratio, Blocks, Metrics, BLOCK_NS};
use crate::span::elapsed_ns;

/// Engine counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    pub stats: MediumStats,
    pub windows: u64,
    pub skipped: u64,
}

impl Snapshot {
    pub fn of<P: Protocol>(sim: &ShardedSim<P>) -> Self {
        Snapshot {
            stats: sim.stats(),
            windows: sim.windows_executed(),
            skipped: sim.shard_windows_skipped(),
        }
    }
}

/// What the timed region measured.
#[derive(Debug)]
pub struct Timed {
    /// Simulated frames per host second of `run_until`, per block of
    /// [`BLOCK_NS`]; the median and 99th-percentile host time of one
    /// slice, over every slice of the run.
    pub blocks: Blocks,
    pub run_ns: u64,
    pub before: Snapshot,
    pub after: Snapshot,
}

impl Timed {
    pub fn frames(&self) -> u64 {
        self.after.stats.frames_sent - self.before.stats.frames_sent
    }

    pub fn deliveries(&self) -> u64 {
        self.after.stats.deliveries - self.before.stats.deliveries
    }
}

/// Slice host times a run keeps before its buffer grows: more than a
/// 60-second run takes, so the buffer (and the peak RSS) does not
/// depend on how fast the host ran.
const SLICE_CAPACITY: usize = 1 << 14;

/// Advances `sim` in `slice`-long steps of simulated time until
/// `budget` of host time is spent. `before_slice` runs untimed ahead of
/// each step with the step's end time (the mesh schedules its moves
/// there). A trailing part-block shorter than half a block is left out
/// of the throughput blocks.
pub fn run_timed<P: Protocol + Send>(
    sim: &mut ShardedSim<P>,
    slice: SimDuration,
    budget: Duration,
    mut before_slice: impl FnMut(&mut ShardedSim<P>, SimTime),
) -> Timed {
    let before = Snapshot::of(sim);
    let started = Instant::now();
    let mut blocks = Blocks::default();
    let mut slice_ns = Vec::with_capacity(SLICE_CAPACITY);
    let (mut block_ns, mut block_frames) = (0, 0);
    let mut frames = before.stats.frames_sent;
    while started.elapsed() < budget {
        let end = sim.now() + slice;
        before_slice(sim, end);
        let step = Instant::now();
        sim.run_until(end);
        let ns = elapsed_ns(step);
        let sent = sim.stats().frames_sent;
        slice_ns.push(ns);
        block_ns += ns;
        block_frames += sent - frames;
        frames = sent;
        if block_ns >= BLOCK_NS {
            blocks
                .per_s
                .push(block_frames as f64 / (block_ns as f64 * 1e-9));
            (block_ns, block_frames) = (0, 0);
        }
    }
    if block_ns > 0 && (blocks.per_s.is_empty() || block_ns >= BLOCK_NS / 2) {
        blocks
            .per_s
            .push(block_frames as f64 / (block_ns as f64 * 1e-9));
    }
    let run_ns = slice_ns.iter().sum();
    blocks.push_latencies(&mut slice_ns);
    Timed {
        blocks,
        run_ns,
        before,
        after: Snapshot::of(sim),
    }
}

/// The engine layer's metrics: `callback_ns` is the host time spent in
/// protocol callbacks, which the engine's self time excludes.
pub fn engine_metrics(timed: &Timed, callback_ns: u64, metrics: &mut Metrics) {
    let (b, a) = (&timed.before, &timed.after);
    let run_ns = timed.run_ns;
    let self_ns = run_ns.saturating_sub(callback_ns);
    let windows = a.windows - b.windows;
    let frames = timed.frames();
    let deliveries = timed.deliveries();
    let lost = |s: &MediumStats| {
        s.rf_collisions
            + s.half_duplex_losses
            + s.random_losses
            + s.sleep_misses
            + s.fault_erasures
            + s.partition_losses
    };
    let receptions = deliveries + lost(&a.stats) - lost(&b.stats);
    metrics.insert("netsim.run_s", run_ns as f64 * 1e-9);
    metrics.insert("netsim.self_s", self_ns as f64 * 1e-9);
    metrics.insert("netsim.windows", windows as f64);
    metrics.insert("netsim.windows_skipped", (a.skipped - b.skipped) as f64);
    metrics.insert("netsim.self_ns_per_window", ratio(self_ns, windows));
    metrics.insert("netsim.self_ns_per_frame", ratio(self_ns, frames));
    metrics.insert("netsim.frames", frames as f64);
    metrics.insert("netsim.deliveries", deliveries as f64);
    metrics.insert(
        "netsim.rf_collisions",
        (a.stats.rf_collisions - b.stats.rf_collisions) as f64,
    );
    metrics.insert(
        "netsim.half_duplex_losses",
        (a.stats.half_duplex_losses - b.stats.half_duplex_losses) as f64,
    );
    metrics.insert("netsim.delivery_ratio", ratio(deliveries, receptions));
    metrics.insert("app.callback_s", callback_ns as f64 * 1e-9);
}

/// Arms the node's timer after a delay drawn from `delay_us` with the
/// node's own RNG stream.
pub fn arm_timer(ctx: &mut Context<'_>, delay_us: std::ops::Range<u64>) {
    let delay = ctx.rng().gen_range(delay_us);
    ctx.set_timer(SimDuration::from_micros(delay), 0);
}

/// Digest of everything the engine counts, plus workload counters.
pub fn digest<P: Protocol>(sim: &ShardedSim<P>, workload: &[u64]) -> u64 {
    let s = sim.stats();
    let mut words = vec![
        sim.now().as_micros(),
        sim.windows_executed(),
        sim.shard_windows_skipped(),
        s.frames_sent,
        s.deliveries,
        s.rf_collisions,
        s.half_duplex_losses,
        s.random_losses,
        s.sleep_misses,
        s.fault_erasures,
        s.partition_losses,
        s.corrupted_deliveries,
        s.flipped_bits,
    ];
    words.extend_from_slice(workload);
    digest_of(&words)
}
