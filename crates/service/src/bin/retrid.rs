//! `retrid` — the long-running RETRI allocator daemon.
//!
//! Usage:
//! `retrid [--addr <host:port>] [--seed <n>] [--shards <k>] [--bits <h>]
//! [--queue-depth <n>] [--listen-window <n>] [--obs]`
//!
//! Binds the TCP transport, prints the bound address on stdout (one
//! line, so scripts can capture an ephemeral port), then serves until
//! stdin reaches EOF or a line reading `quit` — the daemon analogue of
//! SIGTERM that works identically under CI, scripts, and a terminal.
//! On shutdown it drains the shard queues, joins every thread, and
//! prints the number of connections turned away at the connection cap
//! and the final per-strategy statistics (plus a Prometheus metrics
//! dump when `--obs` is set).

use std::io::BufRead;

use retri_obs::Obs;
use retri_service::proto::{Reply, Request, ALL_SHARDS};
use retri_service::{Server, ServiceConfig, TcpClient};

struct Args {
    addr: String,
    config: ServiceConfig,
}

fn parse_args() -> Args {
    let mut addr = "127.0.0.1:4173".to_string();
    let mut config = ServiceConfig::new(0);
    let mut argv = std::env::args().skip(1);
    let value = |argv: &mut dyn Iterator<Item = String>, flag: &str| {
        argv.next()
            .unwrap_or_else(|| panic!("{flag} needs a value"))
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--addr" => addr = value(&mut argv, "--addr"),
            "--seed" => config.seed = value(&mut argv, "--seed").parse().expect("--seed: u64"),
            "--shards" => {
                config.shards = value(&mut argv, "--shards").parse().expect("--shards: u16");
            }
            "--bits" => config.bits = value(&mut argv, "--bits").parse().expect("--bits: u8"),
            "--queue-depth" => {
                config.queue_depth = value(&mut argv, "--queue-depth")
                    .parse()
                    .expect("--queue-depth: usize");
            }
            "--listen-window" => {
                config.listen_window = value(&mut argv, "--listen-window")
                    .parse()
                    .expect("--listen-window: usize");
            }
            "--obs" => config.obs = Obs::enabled(),
            other => panic!("unknown argument {other:?}"),
        }
    }
    Args { addr, config }
}

fn main() {
    let args = parse_args();
    let obs = args.config.obs.clone();
    let server = Server::start(&args.config, args.addr.as_str())
        .unwrap_or_else(|err| panic!("cannot bind {}: {err}", args.addr));
    let addr = server.addr();
    println!("{addr}");
    eprintln!(
        "[retrid] serving on {addr}: seed={} shards={} bits={} queue_depth={}",
        args.config.seed, args.config.shards, args.config.bits, args.config.queue_depth
    );

    // Serve until stdin closes or says quit.
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(line) if line.trim() == "quit" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }

    // Final statistics through the service's own front door.
    let stats = TcpClient::connect(addr)
        .and_then(|mut client| client.request(&Request::Stats { shard: ALL_SHARDS }));
    let rejected = server.rejected_connections();
    server.shutdown();
    eprintln!("[retrid] connections rejected at the connection cap: {rejected}");
    if let Ok(Reply::Stats(entries)) = stats {
        eprintln!(
            "[retrid] {:<12} {:>5} {:>6} {:>12} {:>12} {:>12} {:>14}",
            "strategy", "shard", "bits", "live", "minted", "collisions", "eq4_predicted"
        );
        for e in entries {
            eprintln!(
                "[retrid] {:<12} {:>5} {:>6} {:>12} {:>12} {:>12} {:>14.3}",
                e.strategy.name(),
                e.shard,
                e.bits,
                e.live_total,
                e.minted,
                e.collisions,
                e.predicted_collisions,
            );
        }
    }
    if let Some(snapshot) = obs.snapshot() {
        print!("{}", snapshot.to_prometheus());
    }
}
