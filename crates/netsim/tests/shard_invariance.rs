//! Property-based shard-count invariance (ISSUE 6, satellite 4).
//!
//! The sharded engine's core contract: output is a pure function of
//! (seed, topology, workload) and never of the shard count or the
//! execution engine. These properties drive randomized small
//! topologies through K ∈ {1, 2, 4, 8} shards — in the gated inline
//! loop *and* on forced worker threads — and require byte-identical
//! traces, stats, energy, and protocol state every time. The fault
//! case layers a Gilbert–Elliott channel, churn, and a partition on
//! top, exercising the per-node fault RNG streams.

use proptest::prelude::*;
use retri_netsim::prelude::*;
use retri_netsim::radio::DutyCycle;
use retri_netsim::trace::TraceEvent;

/// Sends `to_send` staggered frames; counts receptions.
struct Chatter {
    to_send: u32,
    heard: u32,
}

impl Protocol for Chatter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Stagger by node id so CSMA backoff and collisions both occur.
        let phase = SimDuration::from_micros(137 * (u64::from(ctx.node_id().0) + 1));
        ctx.set_timer(phase, 0);
    }
    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {
        self.heard += 1;
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: Timer) {
        if self.to_send > 0 {
            self.to_send -= 1;
            let _ = ctx.send(FramePayload::from_bytes(vec![0xC3; 11]).unwrap());
            ctx.set_timer(SimDuration::from_millis(40), 0);
        }
    }
}

/// Everything the engine promises to keep invariant across K.
#[derive(Debug, PartialEq)]
struct Digest {
    stats: MediumStats,
    dfa: DfaStats,
    heard: Vec<u32>,
    energy: EnergyMeter,
    traces: Vec<TraceEvent>,
}

/// The three MACs the engine ships; all of them must be shard-count
/// invariant (DFA exercises the feedback path through the receive
/// phase and the per-node slot draws).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MacKind {
    Aloha,
    Csma,
    Dfa,
}

fn mac_kind() -> impl Strategy<Value = MacKind> {
    (0u8..3).prop_map(|k| match k {
        0 => MacKind::Aloha,
        1 => MacKind::Csma,
        _ => MacKind::Dfa,
    })
}

fn mac_for(kind: MacKind, nodes: usize) -> MacConfig {
    match kind {
        MacKind::Aloha => MacConfig::aloha(),
        MacKind::Csma => MacConfig::csma(),
        // A slot comfortably covering the 11-byte test payload's
        // airtime on the default radio.
        MacKind::Dfa => MacConfig::dfa_known(SimDuration::from_millis(8), nodes as u32),
    }
}

/// Node positions on a jittered grid: clustered enough to interfere,
/// spread enough that shards own distinct cells.
fn positions(nodes: usize, jitter: u64) -> Vec<Position> {
    (0..nodes)
        .map(|i| {
            let col = (i % 6) as f64;
            let row = (i / 6) as f64;
            // Deterministic per-node jitter, no RNG needed.
            let j = ((i as u64).wrapping_mul(jitter | 1) % 17) as f64;
            Position::new(col * 28.0 + j, row * 28.0 + j * 0.5)
        })
        .collect()
}

fn run_one(
    seed: u64,
    nodes: usize,
    jitter: u64,
    kind: MacKind,
    faulty: bool,
    shards: usize,
    force_threads: bool,
) -> Digest {
    let mac = mac_for(kind, nodes);
    let mut topo = Topology::new(45.0);
    for p in positions(nodes, jitter) {
        topo.add(p);
    }
    let mut builder = ShardedSimBuilder::new(seed).mac(mac).range(45.0);
    if faulty {
        builder = builder.faults(
            FaultModel::none()
                .with_channel(GilbertElliott::bursty(
                    ChannelState {
                        frame_erasure: 0.03,
                        bit_error_rate: 1e-3,
                    },
                    ChannelState {
                        frame_erasure: 0.25,
                        bit_error_rate: 1e-2,
                    },
                    0.08,
                    0.35,
                ))
                .with_churn_event(SimTime::from_millis(120), NodeId(1), false)
                .with_churn_event(SimTime::from_millis(400), NodeId(1), true)
                .with_partition(PartitionWindow::new(
                    SimTime::from_millis(150),
                    SimTime::from_millis(450),
                    vec![NodeId(0), NodeId(2)],
                )),
        );
    }
    let mut sim = builder
        .shards(shards)
        .build_with_topology(&topo, |id| Chatter {
            to_send: 1 + id.0 % 3,
            heard: 0,
        });
    if force_threads {
        sim.set_force_threads(true);
    }
    sim.enable_trace(50_000);
    // A mid-run move forces an ownership rebalance between the two
    // run_until calls below.
    sim.schedule_move(
        SimTime::from_millis(200),
        NodeId((nodes as u32) - 1),
        Position::new(300.0, 300.0),
    );
    if faulty && nodes > 3 {
        sim.set_duty_cycle(
            NodeId(3),
            Some(DutyCycle::new(
                SimDuration::from_millis(30),
                0.5,
                SimDuration::ZERO,
            )),
        );
    }
    sim.run_until(SimTime::from_millis(350));
    sim.run_until(SimTime::from_millis(900));
    Digest {
        stats: sim.stats(),
        dfa: sim.dfa_stats(),
        heard: sim.node_ids().map(|id| sim.protocol(id).heard).collect(),
        energy: sim.total_meter(),
        traces: sim
            .tracer()
            .map(|t| t.events().copied().collect())
            .unwrap_or_default(),
    }
}

/// The randomized dynamics of one [`run_dynamic`] case.
struct Dynamics<'a> {
    /// Cell-crossing moves: `(time step, node selector, column, row)`.
    moves: &'a [(u16, u8, u8, u8)],
    /// Nodes added between the two `run_until` calls: `(column, row)`.
    late: &'a [(u8, u8)],
}

/// Like [`run_one`], but stressing the O(active) machinery (ISSUE 7):
/// randomized mid-run moves — including one that brings a distant node
/// into the cluster, forcing interest-set gains and ghost backfills —
/// and nodes admitted between the two `run_until` calls (placed by the
/// next run's rebalance), followed by a long fully-idle tail the engine
/// must fast-forward through without changing an output byte. Returns
/// the digest plus the number of synchronization windows actually
/// executed.
fn run_dynamic(
    seed: u64,
    nodes: usize,
    jitter: u64,
    kind: MacKind,
    dynamics: &Dynamics<'_>,
    shards: usize,
    force_threads: bool,
) -> (Digest, u64) {
    let mac = mac_for(kind, nodes);
    let mut topo = Topology::new(45.0);
    for p in positions(nodes, jitter) {
        topo.add(p);
    }
    // A distant loner: it transmits unheard until a scheduled move
    // drops it into the cluster, mid-flight frames and all.
    topo.add(Position::new(400.0, 400.0));
    let mut sim = ShardedSimBuilder::new(seed)
        .mac(mac)
        .range(45.0)
        .shards(shards)
        .build_with_topology(&topo, |id| Chatter {
            to_send: 1 + id.0 % 3,
            heard: 0,
        });
    if force_threads {
        sim.set_force_threads(true);
    }
    sim.enable_trace(50_000);
    sim.schedule_move(
        SimTime::from_millis(230),
        NodeId(nodes as u32),
        Position::new(30.0, 30.0),
    );
    // Randomized cell-crossing moves on a 9 m lattice (cell pitch is
    // the 45 m range, so these hop interest cells constantly).
    for &(ms, sel, col, row) in dynamics.moves {
        sim.schedule_move(
            SimTime::from_micros(5_000 + u64::from(ms) * 997),
            NodeId(u32::from(sel) % (nodes as u32 + 1)),
            Position::new(f64::from(col % 20) * 9.0, f64::from(row % 20) * 9.0),
        );
    }
    sim.run_until(SimTime::from_millis(350));
    // Late arrivals on the same lattice, in and around the cluster.
    for &(col, row) in dynamics.late {
        sim.add_node_at(Position::new(
            f64::from(col % 20) * 9.0,
            f64::from(row % 20) * 9.0,
        ));
    }
    // All traffic dies out well before 30 s; the tail is pure idle
    // time that window skipping must cross without executing windows.
    sim.run_until(SimTime::from_secs(30));
    let digest = Digest {
        stats: sim.stats(),
        dfa: sim.dfa_stats(),
        heard: sim.node_ids().map(|id| sim.protocol(id).heard).collect(),
        energy: sim.total_meter(),
        traces: sim
            .tracer()
            .map(|t| t.events().copied().collect())
            .unwrap_or_default(),
    };
    (digest, sim.windows_executed())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Gated (inline-loop) runs: identical output for every K.
    #[test]
    fn shard_count_never_changes_output(
        seed in 1u64..5_000,
        nodes in 6usize..30,
        jitter in 0u64..1_000,
        mac in mac_kind(),
    ) {
        let reference = run_one(seed, nodes, jitter, mac, false, 1, false);
        prop_assert!(reference.stats.frames_sent > 0);
        if mac == MacKind::Dfa {
            // The DFA path actually ran, and no transmission got more
            // than one feedback verdict (frames still in flight at the
            // deadline have none yet).
            prop_assert!(reference.dfa.frames > 0, "no DFA frames drawn");
            prop_assert!(
                reference.dfa.attempts() <= reference.stats.frames_sent,
                "more feedback verdicts than transmissions",
            );
        }
        for shards in [2usize, 4, 8] {
            let got = run_one(seed, nodes, jitter, mac, false, shards, false);
            prop_assert_eq!(&got, &reference, "diverged at {} shards", shards);
        }
    }

    /// The fault pipeline (channel model, churn, partition, duty
    /// cycle) draws from per-node streams, so it must be invariant
    /// too — this is the regression class behind `sim_fault_channel`.
    #[test]
    fn fault_models_are_shard_count_invariant(
        seed in 1u64..5_000,
        nodes in 6usize..24,
        jitter in 0u64..1_000,
        mac in mac_kind(),
    ) {
        let reference = run_one(seed, nodes, jitter, mac, true, 1, false);
        for shards in [2usize, 4, 8] {
            let got = run_one(seed, nodes, jitter, mac, true, shards, false);
            prop_assert_eq!(&got, &reference, "faulty run diverged at {} shards", shards);
        }
    }

    /// Delta-routed ghost maintenance and O(active) window skipping
    /// (ISSUE 7): randomized cell-crossing moves — inbound, outbound,
    /// mid-flight — nodes added between runs, and a ~29 s fully-idle
    /// tail must leave the output byte-identical for every shard count
    /// and both engines, and the idle tail must cost zero executed
    /// windows (the window count is itself invariant, because the
    /// window sequence is a function of the global event set alone).
    #[test]
    fn dynamics_and_window_skipping_never_change_output(
        seed in 1u64..5_000,
        nodes in 6usize..20,
        jitter in 0u64..1_000,
        mac in mac_kind(),
        moves in proptest::collection::vec(
            (0u16..900, any::<u8>(), any::<u8>(), any::<u8>()),
            0..6,
        ),
        late in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..4),
    ) {
        let dynamics = Dynamics { moves: &moves, late: &late };
        let (reference, windows) = run_dynamic(seed, nodes, jitter, mac, &dynamics, 1, false);
        prop_assert!(reference.stats.frames_sent > 0);
        // 30 s of timeline is 60k lookahead windows; activity spans at
        // most ~1.3 s of it (DFA paces itself by N-slot frames and
        // re-contends collided frames, so its active span stretches to
        // a few seconds). The rest must be skipped, not walked.
        let cap = if mac == MacKind::Dfa { 20_000 } else { 4_000 };
        prop_assert!(windows < cap, "idle tail was walked: {} windows", windows);
        for shards in [2usize, 4, 8] {
            let (got, w) = run_dynamic(seed, nodes, jitter, mac, &dynamics, shards, false);
            prop_assert_eq!(&got, &reference, "diverged at {} shards", shards);
            prop_assert_eq!(w, windows, "window count diverged at {} shards", shards);
        }
        let (got, w) = run_dynamic(seed, nodes, jitter, mac, &dynamics, 4, true);
        prop_assert_eq!(&got, &reference, "threaded dynamic run diverged");
        prop_assert_eq!(w, windows, "threaded window count diverged");
    }

    /// The worker-thread engine (ghost air replicas, interest
    /// routing, window barriers) must match the inline loop exactly.
    #[test]
    fn threaded_engine_matches_inline_loop(
        seed in 1u64..5_000,
        nodes in 6usize..24,
        jitter in 0u64..1_000,
        mac in mac_kind(),
        faulty in any::<bool>(),
    ) {
        let reference = run_one(seed, nodes, jitter, mac, faulty, 1, false);
        for shards in [2usize, 4] {
            let got = run_one(seed, nodes, jitter, mac, faulty, shards, true);
            prop_assert_eq!(&got, &reference, "threaded run diverged at {} shards", shards);
        }
    }
}
