//! Shard-count invariance of the parallel engine, end to end.
//!
//! The sharded simulator's contract (`retri_netsim::shard`) is that the
//! merged event stream is **identical for every shard count** — per-node
//! RNG streams and deterministic barrier merges make the partitioning
//! invisible. These tests pin that contract at three levels: the raw
//! trace-event stream, a full AFF testbed trial, and the serialized
//! provenance JSON the experiment binaries emit (which must also still
//! match the committed golden capture when run on four shards).
//!
//! Invariance alone cannot catch a change that shifts every shard count
//! the same way, and the golden capture covers static AFF testbeds only.
//! So two raw-engine scenarios — the churning faulty grid, and an ALOHA
//! grid whose nodes move across grid cells — are also pinned to a fixed
//! digest of their trace stream and counters.
//!
//! The provenance test mutates the process-global default shard count
//! (`retri_aff::set_default_shards`), so everything that touches the
//! global lives in one `#[test]` function; the other tests set the
//! testbed's `shards` field or the builder knob directly.

use retri_aff::{SelectorPolicy, Testbed};
use retri_bench::{ablations, EffortLevel};
use retri_netsim::prelude::*;
use retri_netsim::trace::TraceEvent;

/// Saturating ALOHA sender used for the raw-engine stream comparison.
struct Chatterbox;

impl Protocol for Chatterbox {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let phase = 1 + 997 * u64::from(ctx.node_id().0);
        ctx.set_timer(SimDuration::from_micros(phase), 0);
    }
    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: Timer) {
        let _ = ctx.send(FramePayload::from_bytes(vec![0xEE; 10]).expect("non-empty"));
        ctx.set_timer(SimDuration::from_millis(7), 0);
    }
}

/// Unsaturated ALOHA beacon: one frame every 37 ms at a per-node phase,
/// so receivers hear most frames and some still collide.
struct Beacon;

impl Protocol for Beacon {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let phase = 1 + 613 * u64::from(ctx.node_id().0);
        ctx.set_timer(SimDuration::from_micros(phase), 0);
    }
    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: Timer) {
        let _ = ctx.send(FramePayload::from_bytes(vec![0xB5; 6]).expect("non-empty"));
        ctx.set_timer(SimDuration::from_millis(37), 0);
    }
}

/// The MAC a [`traced_run`] row runs. The ALOHA row is the original
/// scenario; the CSMA and DFA rows add a partition window and a
/// duty-cycled receiver, so carrier sense, slot framing and feedback,
/// partitions and sleep all reach the pinned digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Row {
    Aloha,
    Csma,
    DfaKnown,
}

/// What a [`traced_run`] observes: the trace stream, the medium and DFA
/// counters, and every node's meter.
struct Traced {
    events: Vec<TraceEvent>,
    stats: MediumStats,
    dfa: DfaStats,
    meters: Vec<EnergyMeter>,
}

/// Runs a faulty, churning 5x5 grid on `shards` shards with the MAC of
/// `row` and returns what it observed.
fn traced_run(row: Row, shards: usize) -> Traced {
    let mut faults = FaultModel::none()
        .with_channel(GilbertElliott::bursty(
            ChannelState::clean(),
            ChannelState {
                bit_error_rate: 0.01,
                frame_erasure: 0.05,
            },
            0.05,
            0.25,
        ))
        .with_churn_event(SimTime::from_millis(400), NodeId(7), false)
        .with_churn_event(SimTime::from_millis(900), NodeId(7), true);
    let mac = match row {
        Row::Aloha => MacConfig::aloha(),
        Row::Csma => MacConfig::csma(),
        // 25 slots of 8 ms, each covering a 10-byte frame's airtime.
        Row::DfaKnown => MacConfig::dfa_known(SimDuration::from_millis(8), 25),
    };
    if row != Row::Aloha {
        faults = faults.with_partition(PartitionWindow::new(
            SimTime::from_millis(250),
            SimTime::from_millis(750),
            vec![NodeId(0), NodeId(1), NodeId(5), NodeId(6)],
        ));
    }
    let mut sim = ShardedSimBuilder::new(0xDECAF)
        .mac(mac)
        .range(45.0)
        .faults(faults)
        .shards(shards)
        .build_with_topology(&Topology::grid(5, 5, 30.0, 45.0), |_| Chatterbox);
    if row != Row::Aloha {
        sim.set_duty_cycle(
            NodeId(12),
            Some(retri_netsim::radio::DutyCycle::new(
                SimDuration::from_millis(30),
                0.5,
                SimDuration::ZERO,
            )),
        );
    }
    sim.schedule_move(
        SimTime::from_millis(600),
        NodeId(3),
        Position::new(500.0, 500.0),
    );
    sim.enable_trace(1 << 16);
    sim.run_until(SimTime::from_secs(2));
    let tracer = sim.tracer().expect("trace enabled");
    assert_eq!(tracer.dropped(), 0, "trace ring must not wrap");
    Traced {
        events: tracer.events().copied().collect(),
        stats: sim.stats(),
        dfa: sim.dfa_stats(),
        meters: sim.node_ids().map(|n| *sim.meter(n)).collect(),
    }
}

#[test]
fn trace_stream_is_identical_across_shard_counts() {
    for row in [Row::Aloha, Row::Csma, Row::DfaKnown] {
        let baseline = traced_run(row, 1);
        assert!(
            baseline
                .events
                .iter()
                .any(|e| matches!(e, TraceEvent::Lost { .. })),
            "{row:?} scenario must actually exercise loss paths"
        );
        for shards in [2, 4, 8] {
            let got = traced_run(row, shards);
            assert_eq!(
                got.stats, baseline.stats,
                "{row:?} stats diverged at {shards} shards"
            );
            assert_eq!(
                got.dfa, baseline.dfa,
                "{row:?} DFA stats diverged at {shards} shards"
            );
            assert_eq!(
                got.meters, baseline.meters,
                "{row:?} meters diverged at {shards} shards"
            );
            assert_eq!(
                got.events, baseline.events,
                "{row:?} trace stream diverged at {shards} shards"
            );
        }
    }
}

/// FNV-1a over the debug rendering of a run's trace stream and
/// counters, followed by `tail`: a digest that moves if any event or
/// count does.
fn run_digest(events: &[TraceEvent], stats: &MediumStats, tail: &str) -> u64 {
    let text = format!("{events:?}{stats:?}{tail}");
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Pinned digest of the ALOHA [`traced_run`] row (trace stream and
/// medium counters), equal at every shard count.
const TRACED_RUN_DIGEST: u64 = 0x4acf_0134_aef2_7f7e;
/// Pinned digests of the CSMA and DFA rows, which also cover the DFA
/// counters and every node's meter.
const TRACED_CSMA_DIGEST: u64 = 0xc5e1_184e_e6c4_b917;
const TRACED_DFA_DIGEST: u64 = 0x83a5_372f_6015_00e9;

#[test]
fn traced_run_matches_its_pinned_digest() {
    for shards in [1, 4] {
        for (row, pinned) in [
            (Row::Aloha, TRACED_RUN_DIGEST),
            (Row::Csma, TRACED_CSMA_DIGEST),
            (Row::DfaKnown, TRACED_DFA_DIGEST),
        ] {
            let run = traced_run(row, shards);
            let tail = match row {
                Row::Aloha => String::new(),
                _ => format!("{:?}{:?}", run.dfa, run.meters),
            };
            if row == Row::Csma {
                assert!(
                    run.stats.partition_losses > 0 && run.stats.sleep_misses > 0,
                    "CSMA row must partition and sleep: {:?}",
                    run.stats
                );
            }
            if row == Row::DfaKnown {
                assert!(
                    run.dfa.successes > 0 && run.dfa.collisions > 0,
                    "DFA row must succeed and collide: {:?}",
                    run.dfa
                );
            }
            assert_eq!(
                run_digest(&run.events, &run.stats, &tail),
                pinned,
                "{row:?} traced run drifted from its pinned digest at {shards} shards"
            );
        }
    }
}

/// Runs an 8x8 ALOHA beacon grid (30 m pitch, 45 m range, so grid
/// cells hold a few nodes each) in which nodes jump across grid cells
/// mid-run, some into other shards' territory while frames are in
/// flight. On several shards the moves exercise interest backfill and
/// mover-record routing; the run is split so the later segments also
/// rebalance ownership with deliveries pending.
fn moving_grid_run(shards: usize) -> (Vec<TraceEvent>, MediumStats) {
    let mut sim = ShardedSimBuilder::new(0xC0FFEE)
        .mac(MacConfig::aloha())
        .range(45.0)
        .shards(shards)
        .build_with_topology(&Topology::grid(8, 8, 30.0, 45.0), |_| Beacon);
    for (i, node) in [0_u32, 9, 18, 27, 36, 45, 54, 63].into_iter().enumerate() {
        let i = i as u32;
        let to = Position::new(
            f64::from((7 - i) * 30) + 7.5,
            f64::from((i * 3 % 8) * 30) + 12.5,
        );
        sim.schedule_move(
            SimTime::from_micros(150_000 + 61_037 * u64::from(i)),
            NodeId(node),
            to,
        );
    }
    sim.schedule_move(
        SimTime::from_millis(700),
        NodeId(5),
        Position::new(-50.0, 100.0),
    );
    sim.enable_trace(1 << 17);
    for stop in [300, 650, 1_200] {
        sim.run_until(SimTime::from_millis(stop));
    }
    let tracer = sim.tracer().expect("trace enabled");
    assert_eq!(tracer.dropped(), 0, "trace ring must not wrap");
    (tracer.events().copied().collect(), sim.stats())
}

/// Pinned digest of [`moving_grid_run`], equal at every shard count.
const MOVING_GRID_DIGEST: u64 = 0x3ca3_bae5_0f52_7225;

#[test]
fn moving_grid_matches_its_pinned_digest() {
    for shards in [1, 4] {
        let (events, stats) = moving_grid_run(shards);
        let moves = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Moved { .. }))
            .count();
        assert_eq!(moves, 9, "every scheduled move must execute");
        assert!(
            stats.deliveries > 0 && stats.rf_collisions > 0,
            "scenario must deliver and collide: {stats:?}"
        );
        assert_eq!(
            run_digest(&events, &stats, ""),
            MOVING_GRID_DIGEST,
            "moving grid drifted from its pinned digest at {shards} shards"
        );
    }
}

#[test]
fn testbed_trial_is_identical_across_shard_counts() {
    let mut testbed = Testbed::paper(5, SelectorPolicy::Listening { window: 12 });
    testbed.workload.stop = SimTime::from_secs(5);
    testbed.faults = FaultModel::none().with_channel(GilbertElliott::iid(ChannelState {
        bit_error_rate: 0.003,
        frame_erasure: 0.01,
    }));
    testbed.shards = 1;
    let baseline = testbed.run_with_energy(23);
    for shards in [2, 4, 8] {
        testbed.shards = shards;
        assert_eq!(
            testbed.run_with_energy(23),
            baseline,
            "trial diverged at {shards} shards"
        );
    }
}

#[test]
fn adversarial_trial_is_identical_across_shard_counts() {
    // The eavesdropper is an ordinary protocol node on its own labelled
    // RNG stream, so an attacked trial must be just as shard-invariant
    // as a clean one: observations, predictions, and injected forgeries
    // all ride the same deterministic merged event stream.
    let mut testbed = Testbed::paper(16, SelectorPolicy::Sequential).with_adversary();
    testbed.workload.stop = SimTime::from_secs(5);
    testbed.shards = 1;
    let baseline = testbed.run_with_energy(41);
    let stats = baseline.adversary.expect("adversary stats recorded");
    assert!(
        stats.frames_injected > 0 && stats.predictions_made > 0,
        "scenario must actually exercise the attack: {stats:?}"
    );
    for shards in [2, 4, 8] {
        testbed.shards = shards;
        assert_eq!(
            testbed.run_with_energy(41),
            baseline,
            "adversarial trial diverged at {shards} shards"
        );
    }
}

#[test]
fn provenance_json_bytes_are_identical_across_shard_counts() {
    // The same sweep the golden capture pins, emitted from one and from
    // four shards: the serialized provenance must agree byte for byte,
    // and both must still match the committed golden file — the sharded
    // engine may not perturb the recorded experiment artifacts.
    retri_aff::set_default_shards(1);
    let serial = serde_json::to_string_pretty(&ablations::mixed_lengths(EffortLevel::Quick))
        .expect("serializes");
    retri_aff::set_default_shards(4);
    let sharded = serde_json::to_string_pretty(&ablations::mixed_lengths(EffortLevel::Quick))
        .expect("serializes");
    retri_aff::set_default_shards(1);
    assert_eq!(serial, sharded, "provenance JSON diverged across shards");

    let golden_path = format!(
        "{}/golden/quick-provenance/ablation_lengths.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|err| panic!("cannot read {golden_path}: {err}"));
    assert_eq!(
        sharded, golden,
        "four-shard provenance drifted from the golden capture"
    );
}
