//! Property-based tests of simulator invariants.

use proptest::prelude::*;
use retri_netsim::prelude::*;

/// Every node sends `per_node` frames at start and counts receptions.
struct Chatter {
    per_node: u32,
    heard: u32,
}

impl Protocol for Chatter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for _ in 0..self.per_node {
            ctx.send(FramePayload::from_bytes(vec![0x55; 8]).unwrap())
                .unwrap();
        }
    }
    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {
        self.heard += 1;
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _timer: Timer) {}
}

fn build_sim(seed: u64, nodes: usize, per_node: u32, loss: f64, csma: bool) -> Simulator<Chatter> {
    let mac = if csma {
        MacConfig::csma()
    } else {
        MacConfig::aloha()
    };
    let mut sim = SimBuilder::new(seed)
        .radio(RadioConfig::radiometrix_rpc().with_frame_loss(loss))
        .mac(mac)
        .range(100.0)
        .build(move |_| Chatter { per_node, heard: 0 });
    // Full mesh placement.
    let topo = Topology::full_mesh(nodes, 100.0);
    for id in topo.node_ids() {
        sim.add_node_at(topo.position(id));
    }
    sim
}

use retri_netsim::radio::DutyCycle;
use retri_netsim::topology::Topology;
use retri_netsim::trace::TraceEvent;

/// Which engine a property runs on.
#[derive(Debug, Clone, Copy)]
enum Engine {
    /// The serial `Simulator`.
    Serial,
    /// `ShardedSim` with this many shards.
    Sharded(usize),
}

fn engine() -> impl Strategy<Value = Engine> {
    (0u8..3).prop_map(|k| match k {
        0 => Engine::Serial,
        1 => Engine::Sharded(1),
        _ => Engine::Sharded(4),
    })
}

/// The fault models the conservation property covers.
#[derive(Debug, Clone, Copy)]
enum Faults {
    None,
    /// A bursty Gilbert–Elliott channel with erasure and bit errors.
    Channel,
    /// A partition window cutting node 0 off for the first 60 ms.
    Partition,
}

fn faults() -> impl Strategy<Value = Faults> {
    (0u8..3).prop_map(|k| match k {
        0 => Faults::None,
        1 => Faults::Channel,
        _ => Faults::Partition,
    })
}

fn fault_model(faults: Faults) -> FaultModel {
    match faults {
        Faults::None => FaultModel::none(),
        Faults::Channel => FaultModel::none().with_channel(GilbertElliott::bursty(
            ChannelState {
                bit_error_rate: 1e-3,
                frame_erasure: 0.05,
            },
            ChannelState {
                bit_error_rate: 1e-2,
                frame_erasure: 0.4,
            },
            0.1,
            0.3,
        )),
        Faults::Partition => FaultModel::none().with_partition(PartitionWindow::new(
            SimTime::ZERO,
            SimTime::from_millis(60),
            vec![NodeId(0)],
        )),
    }
}

/// Runs the full-mesh [`Chatter`] workload on `engine` for 60 s and
/// returns the medium counters plus the protocol-level receptions.
fn run_mesh(
    engine: Engine,
    seed: u64,
    nodes: usize,
    per_node: u32,
    loss: f64,
    csma: bool,
    faults: Faults,
) -> (MediumStats, u64) {
    let radio = RadioConfig::radiometrix_rpc().with_frame_loss(loss);
    let mac = if csma {
        MacConfig::csma()
    } else {
        MacConfig::aloha()
    };
    let topo = Topology::full_mesh(nodes, 100.0);
    let factory = move |_| Chatter { per_node, heard: 0 };
    let deadline = SimTime::from_secs(60);
    match engine {
        Engine::Serial => {
            let mut sim = SimBuilder::new(seed)
                .radio(radio)
                .mac(mac)
                .range(100.0)
                .faults(fault_model(faults))
                .build(factory);
            for id in topo.node_ids() {
                sim.add_node_at(topo.position(id));
            }
            sim.run_until(deadline);
            let heard = sim
                .node_ids()
                .map(|n| u64::from(sim.protocol(n).heard))
                .sum();
            (sim.stats(), heard)
        }
        Engine::Sharded(shards) => {
            let mut sim = ShardedSimBuilder::new(seed)
                .radio(radio)
                .mac(mac)
                .range(100.0)
                .faults(fault_model(faults))
                .shards(shards)
                .build_with_topology(&topo, factory);
            sim.run_until(deadline);
            let heard = sim
                .node_ids()
                .map(|n| u64::from(sim.protocol(n).heard))
                .sum();
            (sim.stats(), heard)
        }
    }
}

/// Sends one 10-byte frame every `period`, at a per-node phase, and
/// counts receptions.
struct Ticker {
    period: SimDuration,
    heard: u32,
}

impl Protocol for Ticker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let phase = 1 + 997 * u64::from(ctx.node_id().0);
        ctx.set_timer(SimDuration::from_micros(phase), 0);
    }
    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {
        self.heard += 1;
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: Timer) {
        let _ = ctx.send(FramePayload::from_bytes(vec![0xEE; 10]).unwrap());
        ctx.set_timer(self.period, 0);
    }
}

/// FNV-1a over the debug rendering of a serial run's trace stream,
/// counters and every node's meter: a digest that moves if any event,
/// count or energy figure does.
fn serial_digest(sim: &Simulator<Ticker>) -> u64 {
    let tracer = sim.tracer().expect("trace enabled");
    assert_eq!(tracer.dropped(), 0, "trace ring must not wrap");
    let events: Vec<TraceEvent> = tracer.events().copied().collect();
    let meters: Vec<EnergyMeter> = sim.node_ids().map(|n| *sim.meter(n)).collect();
    let text = format!("{events:?}{:?}{:?}{meters:?}", sim.stats(), sim.dfa_stats());
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A 5×5 CSMA grid on the serial engine with every path the engine
/// owns switched on: a bursty Gilbert–Elliott channel (erasure and bit
/// errors), a partition window, a churn kill and revival, a mid-run
/// move, one duty-cycled receiver, and tracing.
fn serial_csma_grid() -> Simulator<Ticker> {
    let faults = FaultModel::none()
        .with_channel(GilbertElliott::bursty(
            ChannelState::clean(),
            ChannelState {
                bit_error_rate: 0.01,
                frame_erasure: 0.2,
            },
            0.05,
            0.25,
        ))
        .with_partition(PartitionWindow::new(
            SimTime::from_millis(300),
            SimTime::from_millis(800),
            vec![NodeId(0), NodeId(1), NodeId(5), NodeId(6)],
        ))
        .with_churn_event(SimTime::from_millis(400), NodeId(12), false)
        .with_churn_event(SimTime::from_millis(900), NodeId(12), true);
    let mut sim = SimBuilder::new(0x5E71A1)
        .mac(MacConfig::csma())
        .range(45.0)
        .faults(faults)
        .build(|_| Ticker {
            period: SimDuration::from_millis(40),
            heard: 0,
        });
    let topo = Topology::grid(5, 5, 30.0, 45.0);
    for id in topo.node_ids() {
        sim.add_node_at(topo.position(id));
    }
    sim.set_duty_cycle(
        NodeId(7),
        Some(DutyCycle::new(
            SimDuration::from_millis(30),
            0.5,
            SimDuration::ZERO,
        )),
    );
    sim.schedule_move(
        SimTime::from_millis(600),
        NodeId(3),
        Position::new(500.0, 500.0),
    );
    sim.enable_trace(1 << 16);
    sim.run_until(SimTime::from_secs(2));
    sim
}

/// A saturated 16-node Dynamic-Frame Aloha clique (known N, 8 ms
/// slots) on the serial engine, traced.
fn serial_dfa_clique() -> Simulator<Ticker> {
    let mut sim = SimBuilder::new(0xDFA)
        .mac(MacConfig::dfa_known(SimDuration::from_millis(8), 16))
        .range(100.0)
        .build(|_| Ticker {
            period: SimDuration::from_millis(60),
            heard: 0,
        });
    let topo = Topology::full_mesh(16, 100.0);
    for id in topo.node_ids() {
        sim.add_node_at(topo.position(id));
    }
    sim.enable_trace(1 << 16);
    sim.run_until(SimTime::from_secs(2));
    sim
}

/// Pinned digests of [`serial_csma_grid`] and [`serial_dfa_clique`].
const SERIAL_CSMA_GRID_DIGEST: u64 = 0xfc4c_9db4_c277_06f6;
const SERIAL_DFA_CLIQUE_DIGEST: u64 = 0x8ec4_9ce3_9477_a43e;

/// The serial engine's output for two scenarios that reach every
/// MAC, DFA, fault, duty-cycle and trace path it has, pinned to a
/// digest. The golden provenance capture runs on the sharded engine,
/// so without this pin a change to `Simulator` could drift unseen.
#[test]
fn serial_run_matches_its_pinned_digest() {
    let grid = serial_csma_grid();
    let stats = grid.stats();
    assert!(
        stats.deliveries > 0
            && stats.rf_collisions > 0
            && stats.fault_erasures > 0
            && stats.corrupted_deliveries > 0
            && stats.partition_losses > 0
            && stats.sleep_misses > 0,
        "scenario must reach every receive path: {stats}"
    );
    let clique = serial_dfa_clique();
    let dfa = clique.dfa_stats();
    assert!(
        dfa.successes > 0 && dfa.collisions > 0,
        "DFA scenario must succeed and collide: {dfa:?}"
    );
    assert_eq!(
        (serial_digest(&grid), serial_digest(&clique)),
        (SERIAL_CSMA_GRID_DIGEST, SERIAL_DFA_CLIQUE_DIGEST),
        "serial runs drifted from their pinned digests"
    );
}

/// A deployment-scale smoke test: hundreds of nodes, sparse periodic
/// traffic, sane wall-clock time. Guards against accidental quadratic
/// blowups in the engine's hot paths.
#[test]
fn large_sparse_network_simulates_quickly() {
    struct Sparse;
    impl Protocol for Sparse {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            // Stagger by node id so the channel stays sparse.
            let delay = SimDuration::from_millis(10 * u64::from(ctx.node_id().0));
            ctx.set_timer(delay, 0);
        }
        fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: Timer) {
            let _ = ctx.send(FramePayload::from_bytes(vec![1; 8]).unwrap());
            ctx.set_timer(SimDuration::from_secs(5), 0);
        }
    }
    let mut sim = SimBuilder::new(77).range(60.0).build(|_| Sparse);
    // A 20x20 grid, 400 nodes, nearest-neighbor connectivity.
    let topo = retri_netsim::topology::Topology::grid(20, 20, 50.0, 60.0);
    for id in topo.node_ids() {
        sim.add_node_at(topo.position(id));
    }
    let started = std::time::Instant::now();
    sim.run_until(SimTime::from_secs(30));
    assert!(sim.stats().frames_sent >= 400 * 6);
    assert!(
        started.elapsed() < std::time::Duration::from_secs(30),
        "400-node simulation took {:?}",
        started.elapsed()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation on both engines and under every fault model: each
    /// delivery attempt ends in exactly one of the seven outcome
    /// buckets, so they sum to frames_sent × (nodes − 1).
    #[test]
    fn delivery_accounting_is_conserved(
        seed in any::<u64>(),
        nodes in 2usize..6,
        per_node in 1u32..6,
        loss in 0.0f64..0.5,
        csma in any::<bool>(),
        engine in engine(),
        faults in faults(),
    ) {
        let (stats, heard) = run_mesh(engine, seed, nodes, per_node, loss, csma, faults);
        prop_assert_eq!(stats.frames_sent, nodes as u64 * per_node as u64);
        let attempts = stats.frames_sent * (nodes as u64 - 1);
        let accounted = stats.deliveries
            + stats.rf_collisions
            + stats.half_duplex_losses
            + stats.random_losses
            + stats.sleep_misses
            + stats.fault_erasures
            + stats.partition_losses;
        prop_assert_eq!(accounted, attempts, "{}", stats);
        // Protocol-level receptions equal medium-level deliveries.
        prop_assert_eq!(heard, stats.deliveries);
    }

    /// Determinism: identical seeds and configs produce identical
    /// outcomes; different seeds are allowed to differ.
    #[test]
    fn same_seed_same_world(
        seed in any::<u64>(),
        nodes in 2usize..5,
        per_node in 1u32..5,
    ) {
        let mut a = build_sim(seed, nodes, per_node, 0.1, true);
        let mut b = build_sim(seed, nodes, per_node, 0.1, true);
        a.run_until(SimTime::from_secs(60));
        b.run_until(SimTime::from_secs(60));
        prop_assert_eq!(a.stats(), b.stats());
        for n in a.node_ids() {
            prop_assert_eq!(a.meter(n), b.meter(n));
            prop_assert_eq!(a.protocol(n).heard, b.protocol(n).heard);
        }
    }

    /// Energy conservation: bits received across the network never
    /// exceed bits transmitted times the possible audience size.
    #[test]
    fn energy_bounded_by_broadcast(
        seed in any::<u64>(),
        nodes in 2usize..6,
        per_node in 1u32..5,
    ) {
        let mut sim = build_sim(seed, nodes, per_node, 0.0, true);
        sim.run_until(SimTime::from_secs(60));
        let total = sim.total_meter();
        prop_assert!(total.rx_bits() <= total.tx_bits() * (nodes as u64 - 1));
        prop_assert_eq!(total.tx_frames(), sim.stats().frames_sent);
    }

    /// A duty cycle's awake_at samples approximate its on fraction over
    /// many periods, for arbitrary period/fraction/phase.
    #[test]
    fn duty_cycle_fraction_is_honored(
        period_ms in 1u64..500,
        on_fraction in 0.05f64..=1.0,
        phase_ms in 0u64..500,
    ) {
        use retri_netsim::radio::DutyCycle;
        let duty = DutyCycle::new(
            SimDuration::from_millis(period_ms),
            on_fraction,
            SimDuration::from_millis(phase_ms),
        );
        let period = period_ms * 1000;
        let samples = 10_000u64;
        let awake = (0..samples)
            .filter(|i| {
                // Sample uniformly across 100 periods.
                let t = i * period * 100 / samples;
                duty.awake_at(SimTime::from_micros(t))
            })
            .count() as f64;
        let measured = awake / samples as f64;
        prop_assert!(
            (measured - on_fraction).abs() < 0.05,
            "measured {measured} vs configured {on_fraction}"
        );
    }

    /// The incrementally maintained adjacency cache agrees with a
    /// brute-force recomputation after every topology mutation: random
    /// `add` / `set_position` / `set_alive` sequences never desync the
    /// cached `neighbors` lists or the `in_range` answers.
    #[test]
    fn adjacency_cache_matches_brute_force(
        seed in any::<u64>(),
        ops in 1usize..60,
    ) {
        use rand::prelude::*;
        use retri_netsim::topology::Position;

        let range = 60.0;
        let mut rng = StdRng::seed_from_u64(seed);
        let random_position = |rng: &mut StdRng| {
            // A ~3-range square, so pairs land both in and out of range.
            Position::new(rng.gen_range(0.0..180.0), rng.gen_range(0.0..180.0))
        };
        let mut topo = Topology::new(range);
        for _ in 0..3 {
            let p = random_position(&mut rng);
            topo.add(p);
        }
        for _ in 0..ops {
            let nodes = topo.node_ids().count() as u32;
            match rng.gen_range(0u32..4) {
                0 => {
                    let p = random_position(&mut rng);
                    topo.add(p);
                }
                1 => {
                    let node = NodeId(rng.gen_range(0..nodes));
                    let p = random_position(&mut rng);
                    topo.set_position(node, p);
                }
                _ => {
                    let node = NodeId(rng.gen_range(0..nodes));
                    let alive = rng.gen_range(0u32..2) == 0;
                    topo.set_alive(node, alive);
                }
            }
            // Ground truth uses the same squared-distance predicate the
            // cache is specified against: live, distinct, d² ≤ range².
            let brute_in_range = |a: NodeId, b: NodeId| {
                a != b
                    && topo.is_alive(a)
                    && topo.is_alive(b)
                    && topo.position(a).distance_sq_to(topo.position(b)) <= range * range
            };
            for a in topo.node_ids() {
                let brute: Vec<NodeId> =
                    topo.node_ids().filter(|&b| brute_in_range(a, b)).collect();
                let cached: Vec<NodeId> = topo.neighbors(a).collect();
                prop_assert_eq!(&cached, &brute, "neighbor cache desync at {:?}", a);
                prop_assert_eq!(topo.degree(a), brute.len());
                for b in topo.node_ids() {
                    prop_assert_eq!(topo.in_range(a, b), brute_in_range(a, b));
                }
            }
        }
    }

    /// Tracing is observation only: a traced run and an untraced run of
    /// the same seed produce identical statistics and energy meters.
    #[test]
    fn tracing_does_not_perturb_the_simulation(
        seed in any::<u64>(),
        nodes in 2usize..6,
        per_node in 1u32..5,
        csma in any::<bool>(),
    ) {
        let mut plain = build_sim(seed, nodes, per_node, 0.2, csma);
        let mut traced = build_sim(seed, nodes, per_node, 0.2, csma);
        traced.enable_trace(4096);
        plain.run_until(SimTime::from_secs(60));
        traced.run_until(SimTime::from_secs(60));
        prop_assert_eq!(plain.stats(), traced.stats());
        for n in plain.node_ids() {
            prop_assert_eq!(plain.meter(n), traced.meter(n));
            prop_assert_eq!(plain.protocol(n).heard, traced.protocol(n).heard);
        }
        // The traced run actually recorded something.
        prop_assert!(traced.tracer().expect("enabled").events().count() > 0);
    }

    /// With a lossless radio and a single sender, every frame reaches
    /// every other node exactly once (no spurious losses in a quiet
    /// network).
    #[test]
    fn quiet_network_is_lossless(seed in any::<u64>(), nodes in 2usize..6) {
        let mut sim = SimBuilder::new(seed)
            .range(100.0)
            .build(|id| Chatter { per_node: if id == NodeId(0) { 7 } else { 0 }, heard: 0 });
        let topo = Topology::full_mesh(nodes, 100.0);
        for id in topo.node_ids() {
            sim.add_node_at(topo.position(id));
        }
        sim.run_until(SimTime::from_secs(60));
        for n in sim.node_ids().skip(1) {
            prop_assert_eq!(sim.protocol(n).heard, 7);
        }
    }
}
