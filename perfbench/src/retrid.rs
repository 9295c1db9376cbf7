//! `retrid_tcp`: the allocator service over loopback TCP.
//!
//! `Server::start` with the default `ServiceConfig`, and two
//! closed-loop `TcpClient`s, each pinned to its own shard so that its
//! allocation stream depends only on its own requests. Clients run the
//! transaction lifecycle: `ALLOC` of one identifier, rotating over the
//! five strategies, with about one request in 20 a bulk `ALLOC` of 256;
//! every batch is released in one `RELEASE` a fixed number of requests
//! later, and a `STATS` read goes out every 1,000 requests.
//!
//! After the timed run each client's request sequence is replayed in
//! process through the codec and `build_shards(..)[k].handle`; the
//! replay must reproduce the client's allocation digest. In a traced
//! run every replayed codec and handle call is timed, and the round
//! trip minus those is the transport's share.

use std::collections::VecDeque;
use std::io;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retri::seed::stream_seed;
use retri_service::proto::{decode_reply, decode_request, encode_reply, encode_request};
use retri_service::shard::{build_shards, Shard};
use retri_service::{Reply, Request, Server, ServiceConfig, StrategyKind, TcpClient};

use crate::affinity;
use crate::checks::check_same_digest;
use crate::report::{percentile, ratio, Blocks, Digest, BLOCK_NS};
use crate::setup::{self, SetupTimes};
use crate::span::{elapsed_ns, Span};
use crate::{Outcome, Run};

const CLIENTS: u16 = 2;
const BULK: u32 = 256;
/// About one request in this many is a bulk `ALLOC`.
const BULK_ONE_IN: u32 = 20;
/// Requests between an `ALLOC` and the `RELEASE` of its batch.
const RELEASE_AFTER: u64 = 16;
const STATS_EVERY: u64 = 1_000;
/// Requests each client sends during set-up, before timing starts.
const WARMUP_REQUESTS: u64 = 2_000;

/// One client's request generator and reply checker. The next request
/// depends only on the seed and the replies so far, so a replay that
/// sees the same replies issues the same requests.
pub struct ClientPlan {
    shard: u16,
    rng: StdRng,
    /// Requests generated so far.
    issued: u64,
    allocs: u64,
    /// `(due request index, strategy, ids)` awaiting release.
    pending: VecDeque<(u64, StrategyKind, Vec<u128>)>,
    digest: Digest,
    minted: [u64; 5],
    released: [u64; 5],
}

impl ClientPlan {
    pub fn new(seed: u64, shard: u16) -> Self {
        ClientPlan {
            shard,
            rng: StdRng::seed_from_u64(stream_seed(
                seed,
                &format!("perfbench.retrid.client{shard}"),
            )),
            issued: 0,
            allocs: 0,
            pending: VecDeque::new(),
            digest: Digest::default(),
            minted: [0; 5],
            released: [0; 5],
        }
    }

    pub fn next_request(&mut self) -> Request {
        let index = self.issued;
        self.issued += 1;
        let shard = self.shard;
        if (index + 1).is_multiple_of(STATS_EVERY) {
            return Request::Stats { shard };
        }
        if self
            .pending
            .front()
            .is_some_and(|(due, _, _)| *due <= index)
        {
            let (_, strategy, ids) = self.pending.pop_front().expect("front exists");
            return Request::Release {
                shard,
                strategy,
                ids,
            };
        }
        let strategy = StrategyKind::ALL[(self.allocs % 5) as usize];
        self.allocs += 1;
        let count = if self.rng.gen_range(0..BULK_ONE_IN) == 0 {
            BULK
        } else {
            1
        };
        Request::Alloc {
            shard,
            strategy,
            count,
        }
    }

    /// Checks that `reply` is the right answer type for `req` (the
    /// request generated last) and folds it into the digest.
    pub fn record(&mut self, req: &Request, reply: &Reply) -> Result<(), String> {
        match (req, reply) {
            (
                Request::Alloc {
                    strategy, count, ..
                },
                Reply::Ids(ids),
            ) if ids.len() == *count as usize => {
                for id in ids {
                    self.digest.bytes(&id.to_le_bytes());
                }
                self.minted[usize::from(strategy.code())] += u64::from(*count);
                let due = self.issued - 1 + RELEASE_AFTER;
                self.pending.push_back((due, *strategy, ids.clone()));
                Ok(())
            }
            (Request::Release { strategy, ids, .. }, &Reply::Released { acked, misses })
                if acked as usize == ids.len() && misses == 0 =>
            {
                self.digest.word(u64::from(acked));
                self.released[usize::from(strategy.code())] += u64::from(acked);
                Ok(())
            }
            (Request::Stats { shard }, Reply::Stats(entries)) => {
                if entries.len() != StrategyKind::ALL.len() {
                    return Err(format!(
                        "STATS of shard {shard} returned {} records",
                        entries.len()
                    ));
                }
                for e in entries {
                    let k = usize::from(e.strategy.code());
                    if e.shard != *shard
                        || e.minted != self.minted[k]
                        || e.released != self.released[k]
                    {
                        return Err(format!(
                            "STATS of shard {shard} reports {:?} on shard {} minted {} released {}, \
                             but this client minted {} and released {}",
                            e.strategy, e.shard, e.minted, e.released, self.minted[k], self.released[k]
                        ));
                    }
                }
                Ok(())
            }
            _ => Err(format!(
                "{} got the wrong reply: {}",
                describe_request(req),
                describe_reply(reply)
            )),
        }
    }

    pub fn digest(&self) -> u64 {
        self.digest.value()
    }
}

fn describe_request(req: &Request) -> String {
    match req {
        Request::Release {
            shard,
            strategy,
            ids,
        } => format!("RELEASE of {} {strategy:?} ids on shard {shard}", ids.len()),
        other => format!("{other:?}"),
    }
}

fn describe_reply(reply: &Reply) -> String {
    match reply {
        Reply::Ids(ids) => format!("IDS with {} ids", ids.len()),
        Reply::Stats(entries) => format!("STATS with {} records", entries.len()),
        other => format!("{other:?}"),
    }
}

/// One client's completed requests in one block of host time.
#[derive(Debug)]
struct ClientBlock {
    index: u64,
    count: u64,
    p50_ns: u64,
    p99_ns: u64,
}

/// What one client saw over the wire.
#[derive(Debug, Default)]
struct Tally {
    blocks: Vec<ClientBlock>,
    /// Latencies of the open block, `open_index`.
    open: Vec<u64>,
    open_index: u64,
    roundtrip_ns: u64,
    attempted: u64,
    completed: u64,
    busy: u64,
    err: u64,
    transport_errors: u64,
    problem: Option<String>,
}

impl Tally {
    /// Records a completed request of `latency` ns in block `index`.
    fn complete(&mut self, index: u64, latency: u64) {
        if index != self.open_index {
            self.close_block();
            self.open_index = index;
        }
        self.open.push(latency);
        self.completed += 1;
        self.roundtrip_ns += latency;
    }

    /// Reduces the open block to its count and percentiles.
    fn close_block(&mut self) {
        if self.open.is_empty() {
            return;
        }
        self.open.sort_unstable();
        self.blocks.push(ClientBlock {
            index: self.open_index,
            count: self.open.len() as u64,
            p50_ns: percentile(&self.open, 0.50),
            p99_ns: percentile(&self.open, 0.99),
        });
        self.open.clear();
    }
}

/// Latencies one client's block buffer holds before it grows: more
/// than a client completes in a block, so the buffer (and the peak
/// RSS) does not depend on how fast the host ran.
const BLOCK_CAPACITY: usize = 1 << 17;

/// Sends the plan's requests while `more()` holds, retrying `BUSY`.
/// Completions fall in blocks of [`BLOCK_NS`] counted from `origin`.
fn drive(
    client: &mut TcpClient,
    plan: &mut ClientPlan,
    origin: Instant,
    mut more: impl FnMut(&Tally) -> bool,
) -> Tally {
    let mut tally = Tally {
        open: Vec::with_capacity(BLOCK_CAPACITY),
        ..Tally::default()
    };
    while tally.problem.is_none() && more(&tally) {
        let req = plan.next_request();
        let sent = Instant::now();
        loop {
            tally.attempted += 1;
            match client.request(&req) {
                Ok(Reply::Busy) => tally.busy += 1,
                Ok(Reply::Err { code, msg }) => {
                    tally.err += 1;
                    tally.problem = Some(format!(
                        "{} failed: ERR {code} {msg}",
                        describe_request(&req)
                    ));
                    break;
                }
                Ok(reply) => {
                    let index = elapsed_ns(origin) / BLOCK_NS;
                    tally.complete(index, elapsed_ns(sent));
                    if let Err(problem) = plan.record(&req, &reply) {
                        tally.problem = Some(problem);
                    }
                    break;
                }
                Err(e) => {
                    tally.transport_errors += 1;
                    tally.problem = Some(format!("{} failed: {e}", describe_request(&req)));
                    break;
                }
            }
        }
    }
    tally.close_block();
    tally
}

/// A started server with one warmed-up, shard-pinned client per shard.
struct Session {
    server: Server,
    clients: Vec<(TcpClient, ClientPlan)>,
}

fn config(seed: u64) -> ServiceConfig {
    ServiceConfig::new(stream_seed(seed, "perfbench.retrid"))
}

/// Starts the server, connects the clients and warms them up.
fn set_up(seed: u64) -> io::Result<(Session, u64, SetupTimes)> {
    let started = Instant::now();
    let server = Server::start(&config(seed), "127.0.0.1:0")?;
    let mut clients = Vec::new();
    let mut digests = Vec::new();
    for shard in 0..CLIENTS {
        let mut client = TcpClient::connect(server.addr())?;
        let mut plan = ClientPlan::new(seed, shard);
        let tally = drive(&mut client, &mut plan, started, |t| {
            t.completed < WARMUP_REQUESTS
        });
        if let Some(problem) = tally.problem {
            return Err(io::Error::other(format!("warm-up: {problem}")));
        }
        digests.push(plan.digest());
        clients.push((client, plan));
    }
    let times = SetupTimes {
        total_s: elapsed_ns(started) as f64 * 1e-9,
        ..SetupTimes::default()
    };
    Ok((
        Session { server, clients },
        crate::checks::digest_of(&digests),
        times,
    ))
}

impl Session {
    fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// Codec, handle and size totals of one client's in-process replay.
#[derive(Debug, Default)]
struct Replay {
    digest: u64,
    codec: Span,
    handle: Span,
    request_bytes: u64,
    reply_bytes: u64,
    ids_minted: u64,
    collisions: u64,
}

/// Replays the first `requests` requests of client `shard`'s plan
/// against a fresh in-process shard, through the wire codec. Only the
/// requests after the first `skip` are timed and counted.
fn replay(seed: u64, shard: u16, requests: u64, skip: u64, traced: bool) -> Result<Replay, String> {
    let mut shards: Vec<Shard> = build_shards(&config(seed));
    let target = &mut shards[usize::from(shard)];
    let mut plan = ClientPlan::new(seed, shard);
    let mut out = Replay::default();
    let collisions = |s: &Shard| s.stats().iter().map(|e| e.collisions).sum::<u64>();
    let mut collisions_at_skip = 0;
    let (mut wire, mut reply_wire) = (Vec::new(), Vec::new());
    for index in 0..requests {
        if index == skip {
            collisions_at_skip = collisions(target);
        }
        let counted = index >= skip;
        let timed = traced && counted;
        let req = plan.next_request();
        wire.clear();
        reply_wire.clear();
        let mut codec = Span::default();
        codec.time(timed, || encode_request(&req, &mut wire));
        let decoded = codec
            .time(timed, || decode_request(&wire))
            .map_err(|e| format!("request codec: {e}"))?;
        if decoded != req {
            return Err(format!("request codec changed {}", describe_request(&req)));
        }
        let mut handle = Span::default();
        let reply = handle.time(timed, || target.handle(&decoded));
        codec.time(timed, || encode_reply(&reply, &mut reply_wire));
        let reply = codec
            .time(timed, || decode_reply(&reply_wire))
            .map_err(|e| format!("reply codec: {e}"))?;
        plan.record(&req, &reply)?;
        if counted {
            out.codec.merge(codec);
            out.handle.merge(handle);
            out.request_bytes += wire.len() as u64;
            out.reply_bytes += reply_wire.len() as u64;
            if let Reply::Ids(ids) = &reply {
                out.ids_minted += ids.len() as u64;
            }
        }
    }
    out.collisions = collisions(target) - collisions_at_skip;
    out.digest = plan.digest();
    Ok(out)
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = measure(run, &mut out) {
        out.problems.push(format!("retrid_tcp: {e}"));
    }
    out
}

fn measure(run: &Run, out: &mut Outcome) -> io::Result<()> {
    // Every server and client thread inherits this thread's CPU.
    match affinity::pin_to_one_cpu() {
        Some(cpu) => out.note(format!("all threads pinned to cpu {cpu}")),
        None => out.note("could not pin to one cpu; threads left to the scheduler".into()),
    }
    let setup = setup::repeat(|| set_up(run.seed), Session::shutdown)?;
    out.check(check_same_digest(
        "retrid_tcp warm-up digest",
        &setup.digests,
    ));
    out.setup_peak_rss_mb = setup.peak_rss_mb;
    let setup_s = setup::median_of(&setup.times, |t| t.total_s);
    let mut session = setup.kept;

    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(run.seconds);
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = session
            .clients
            .iter_mut()
            .map(|(client, plan)| {
                scope.spawn(move || drive(client, plan, started, |_| Instant::now() < deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_s = elapsed_ns(started) as f64 * 1e-9;
    let plans: Vec<(u64, u64)> = session
        .clients
        .iter()
        .zip(&tallies)
        .map(|((_, plan), t)| (plan.digest(), WARMUP_REQUESTS + t.completed))
        .collect();
    session.shutdown();

    let requests: u64 = tallies.iter().map(|t| t.completed).sum();
    let roundtrip_ns: u64 = tallies.iter().map(|t| t.roundtrip_ns).sum();
    let attempted: u64 = tallies.iter().map(|t| t.attempted).sum();
    let busy: u64 = tallies.iter().map(|t| t.busy).sum();
    let err: u64 = tallies.iter().map(|t| t.err).sum();
    let transport: u64 = tallies.iter().map(|t| t.transport_errors).sum();
    out.attempted = attempted;
    out.failed = busy + err + transport;
    out.problems
        .extend(tallies.iter().filter_map(|t| t.problem.clone()));
    if requests == 0 {
        out.problems.push("no request completed".into());
    }

    let mut total = Replay::default();
    for (shard, &(digest, completed)) in (0..CLIENTS).zip(&plans) {
        match replay(run.seed, shard, completed, WARMUP_REQUESTS, run.traced) {
            Ok(r) if r.digest == digest => {
                total.codec.merge(r.codec);
                total.handle.merge(r.handle);
                total.request_bytes += r.request_bytes;
                total.reply_bytes += r.reply_bytes;
                total.ids_minted += r.ids_minted;
                total.collisions += r.collisions;
            }
            Ok(r) => out.problems.push(format!(
                "client {shard}: TCP digest {digest:016x} but in-process replay {:016x}",
                r.digest
            )),
            Err(problem) => out
                .problems
                .push(format!("client {shard} replay: {problem}")),
        }
    }
    out.note(format!(
        "{requests} requests in {elapsed_s:.3} s, {} ids minted, allocation digests {:016x?}",
        total.ids_minted,
        plans.iter().map(|p| p.0).collect::<Vec<_>>()
    ));

    out.end_to_end.insert("setup_s", setup_s);
    blocks(tallies, run.seconds, elapsed_s).insert_metrics(&mut out.end_to_end);

    let layers = &mut out.layers;
    layers.insert("service.roundtrip_s", roundtrip_ns as f64 * 1e-9);
    layers.insert("service.requests", requests as f64);
    layers.insert("service.codec_s", total.codec.secs());
    layers.insert("service.handle_s", total.handle.secs());
    let transport_ns = roundtrip_ns.saturating_sub(total.codec.ns + total.handle.ns);
    layers.insert("service.transport_wait_s", transport_ns as f64 * 1e-9);
    layers.insert("service.ids_minted", total.ids_minted as f64);
    layers.insert("service.collisions", total.collisions as f64);
    layers.insert("service.busy", busy as f64);
    layers.insert("service.err", err as f64);
    layers.insert(
        "service.fail_share",
        ratio(busy + err + transport, attempted),
    );
    layers.insert("service.request_bytes", total.request_bytes as f64);
    layers.insert("service.reply_bytes", total.reply_bytes as f64);
    Ok(())
}

/// Whole blocks of the timed region: per block, requests per second
/// over both clients, and each client's latency percentiles. A run
/// shorter than one block is one block of its own length.
fn blocks(tallies: Vec<Tally>, seconds: f64, elapsed_s: f64) -> Blocks {
    let whole = (seconds * 1e9 / BLOCK_NS as f64) as u64;
    let (count, block_s) = if whole == 0 {
        (1, elapsed_s)
    } else {
        (whole, BLOCK_NS as f64 * 1e-9)
    };
    let mut out = Blocks::default();
    let mut completed = vec![0u64; count as usize];
    for block in tallies.into_iter().flat_map(|t| t.blocks) {
        let index = if whole == 0 { 0 } else { block.index };
        if index >= count {
            continue;
        }
        completed[index as usize] += block.count;
        out.p50_ns.push(block.p50_ns as f64);
        out.p99_ns.push(block.p99_ns as f64);
    }
    out.per_s = completed.iter().map(|&c| c as f64 / block_s).collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use retri_service::ServiceHandle;

    /// Runs `n` requests of a plan against an in-process service.
    fn serve(seed: u64, n: u64) -> (ClientPlan, ServiceHandle) {
        let mut handle = ServiceHandle::new(&config(seed));
        let mut plan = ClientPlan::new(seed, 1);
        for _ in 0..n {
            let req = plan.next_request();
            let reply = handle.request(&req);
            plan.record(&req, &reply).unwrap();
        }
        (plan, handle)
    }

    #[test]
    fn plans_mix_bulk_allocs_releases_and_stats() {
        let mut plan = ClientPlan::new(3, 0);
        let mut handle = ServiceHandle::new(&config(3));
        let (mut bulk, mut single, mut releases, mut stats) = (0, 0, 0, 0);
        for _ in 0..2_000 {
            let req = plan.next_request();
            match &req {
                Request::Alloc { count: 1, .. } => single += 1,
                Request::Alloc { count: BULK, .. } => bulk += 1,
                Request::Release { .. } => releases += 1,
                Request::Stats { .. } => stats += 1,
                other => panic!("unexpected {other:?}"),
            }
            let reply = handle.request(&req);
            plan.record(&req, &reply).unwrap();
        }
        assert_eq!(stats, 2);
        assert!(bulk > 20 && bulk < 90, "{bulk} bulk allocs");
        assert!(releases + 16 >= single + bulk, "every batch is released");
    }

    #[test]
    fn same_seed_same_digest_and_replay_matches() {
        let (a, _) = serve(5, 3_000);
        let (b, _) = serve(5, 3_000);
        assert_eq!(a.digest(), b.digest());
        let replayed = replay(5, 1, 3_000, 0, true).unwrap();
        assert_eq!(replayed.digest, a.digest());
        assert!(replayed.codec.ns > 0 && replayed.handle.calls == 3_000);
        assert_ne!(serve(6, 3_000).0.digest(), a.digest());
    }

    #[test]
    fn a_flipped_id_changes_the_digest() {
        let mut plan = ClientPlan::new(5, 1);
        let mut handle = ServiceHandle::new(&config(5));
        let mut clean = ClientPlan::new(5, 1);
        let req = plan.next_request();
        let _ = clean.next_request();
        let reply = handle.request(&req);
        clean.record(&req, &reply).unwrap();
        let Reply::Ids(mut ids) = reply else {
            panic!("expected IDS")
        };
        ids[0] ^= 1;
        plan.record(&req, &Reply::Ids(ids)).unwrap();
        assert!(check_same_digest("client", &[clean.digest(), plan.digest()]).is_err());
    }

    #[test]
    fn wrong_reply_types_are_rejected() {
        let mut plan = ClientPlan::new(5, 0);
        let req = plan.next_request();
        assert!(plan.record(&req, &Reply::Pong).is_err());
        assert!(plan.record(&req, &Reply::Busy).is_err());
        assert!(
            plan.record(&req, &Reply::Ids(Vec::new())).is_err(),
            "wrong id count"
        );
        let release = Request::Release {
            shard: 0,
            strategy: StrategyKind::Uniform,
            ids: vec![1, 2],
        };
        assert!(plan
            .record(
                &release,
                &Reply::Released {
                    acked: 1,
                    misses: 1
                }
            )
            .is_err());
        let stats = Request::Stats { shard: 0 };
        assert!(plan.record(&stats, &Reply::Stats(Vec::new())).is_err());
    }

    #[test]
    fn stats_that_disagree_with_the_client_are_rejected() {
        let (mut plan, mut handle) = serve(7, 999);
        let req = plan.next_request();
        assert_eq!(req, Request::Stats { shard: 1 });
        let Reply::Stats(mut entries) = handle.request(&req) else {
            panic!("expected STATS")
        };
        entries[2].minted += 1;
        assert!(plan.record(&req, &Reply::Stats(entries)).is_err());
    }
}
