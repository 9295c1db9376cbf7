//! The TCP transport: `retrid`'s length-prefixed binary protocol over
//! `std::net::TcpListener`, with a thread-per-shard event loop.
//!
//! Topology: one accept thread, one thread per connection, one thread
//! per shard. A connection thread decodes frames and forwards each
//! request to its target shard through a **bounded** queue
//! (`std::sync::mpsc::sync_channel` of [`ServiceConfig::queue_depth`]);
//! when the queue is full the request is shed immediately with a
//! [`Reply::Busy`] instead of stalling the connection — explicit
//! backpressure, counted per shard and visible in `STATS`.
//!
//! Robustness contract (pinned by the transport-robustness tests): a
//! malformed payload gets an `ERR` reply and the connection keeps
//! serving; a truncated frame or mid-request disconnect closes only
//! that connection; the listener and shard loops outlive every client.
//! Connections are polled with a short read timeout so an idle or
//! half-dead peer is dropped after [`IDLE_TIMEOUT`] and shutdown is
//! never blocked on a silent socket. The accept loop survives its own
//! failures: a connection whose thread cannot be spawned is closed and
//! the loop keeps accepting, and a failing `accept` (e.g. out of file
//! descriptors) is retried after `ACCEPT_BACKOFF` instead of in a
//! busy loop. Each accept also reaps the threads of connections that
//! have ended, so the registry stays as large as the set of live
//! connections, not the daemon's lifetime connection count. At most
//! `MAX_CONNECTIONS` connections are served at once: one more is
//! answered with a single `BUSY` frame and closed, and counted in
//! [`Server::rejected_connections`].

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::handle::{bad_shard, route};
use crate::proto::{decode_request, encode_reply, ErrCode, Reply, Request, MAX_FRAME_BYTES};
use crate::shard::{build_shards, ServiceConfig};

/// How long a connection may sit without completing a frame before the
/// server drops it.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Poll granularity for connection reads; bounds both shutdown latency
/// and idle-timeout resolution.
const POLL_TIMEOUT: Duration = Duration::from_millis(100);

/// Pause before retrying a failed `accept`. A persistent error such
/// as `EMFILE` would otherwise spin the accept thread at full CPU.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Most connections served at once, each on its own thread. The
/// accept loop rejects any beyond it with `BUSY` instead of spawning
/// without bound.
const MAX_CONNECTIONS: usize = 256;

/// One queued request: the decoded frame plus the reply path back to
/// the connection thread that forwarded it.
struct Job {
    req: Request,
    reply_tx: mpsc::Sender<Reply>,
}

/// A running `retrid` TCP server.
///
/// Dropping the server performs a graceful shutdown (see
/// [`Server::shutdown`]).
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    shard_threads: Vec<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    rejected: Arc<AtomicU64>,
    shard_txs: Vec<SyncSender<Job>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the shard event loops and the accept loop.
    ///
    /// # Errors
    ///
    /// Returns the bind error, if any.
    ///
    /// # Panics
    ///
    /// Panics on an invalid allocator config (see
    /// [`crate::shard::build_shards`]).
    pub fn start(config: &ServiceConfig, addr: impl ToSocketAddrs) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let rejected = Arc::new(AtomicU64::new(0));

        let shards = build_shards(config);
        let busy: Vec<Arc<AtomicU64>> = shards.iter().map(|s| s.busy_counter()).collect();
        let mut shard_txs = Vec::with_capacity(shards.len());
        let mut shard_threads = Vec::with_capacity(shards.len());
        for (index, mut shard) in shards.into_iter().enumerate() {
            let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_depth.max(1));
            shard_txs.push(tx);
            shard_threads.push(
                std::thread::Builder::new()
                    .name(format!("retrid-shard-{index}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            let reply = shard.handle(&job.req);
                            // A connection that vanished mid-request just
                            // loses its reply; the shard keeps serving.
                            let _ = job.reply_tx.send(reply);
                        }
                    })
                    .expect("spawn shard thread"),
            );
        }

        let accept_thread = {
            let stop = Arc::clone(&stop);
            let conn_threads = Arc::clone(&conn_threads);
            let rejected = Arc::clone(&rejected);
            let shard_txs = shard_txs.clone();
            let busy = busy.clone();
            std::thread::Builder::new()
                .name("retrid-accept".to_string())
                .spawn(move || loop {
                    match listener.accept() {
                        Ok((mut stream, _peer)) => {
                            if stop.load(Ordering::SeqCst) {
                                return;
                            }
                            let mut conns =
                                conn_threads.lock().expect("connection registry poisoned");
                            for finished in conns.extract_if(.., |handle| handle.is_finished()) {
                                let _ = finished.join();
                            }
                            if conns.len() >= MAX_CONNECTIONS {
                                drop(conns);
                                rejected.fetch_add(1, Ordering::Relaxed);
                                // A fresh socket's send buffer takes the
                                // 5-byte frame without blocking; the
                                // timeout only guards a broken peer.
                                let _ = stream.set_write_timeout(Some(POLL_TIMEOUT));
                                let _ = write_reply(&mut stream, &Reply::Busy);
                                continue;
                            }
                            let stop = Arc::clone(&stop);
                            let shard_txs = shard_txs.clone();
                            let busy = busy.clone();
                            let spawned = std::thread::Builder::new()
                                .name("retrid-conn".to_string())
                                .spawn(move || serve_connection(stream, &shard_txs, &busy, &stop));
                            // Out of threads: the failed spawn dropped its
                            // closure, which closes only this connection.
                            if let Ok(handle) = spawned {
                                conns.push(handle);
                            }
                        }
                        Err(_) if stop.load(Ordering::SeqCst) => return,
                        Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
                    }
                })
                .expect("spawn accept thread")
        };

        Ok(Server {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            shard_threads,
            conn_threads,
            rejected,
            shard_txs,
        })
    }

    /// The bound address (useful with an ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connection threads the server tracks: every open connection,
    /// plus any that closed since the last accept reaped the registry.
    ///
    /// # Panics
    ///
    /// Panics if the accept thread panicked while holding the registry.
    #[must_use]
    pub fn live_connections(&self) -> usize {
        self.conn_threads
            .lock()
            .expect("connection registry poisoned")
            .len()
    }

    /// Connections turned away with `BUSY` because `MAX_CONNECTIONS`
    /// were already being served.
    #[must_use]
    pub fn rejected_connections(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stop accepting, let every connection thread
    /// notice within one poll interval, drain the shard queues, and
    /// join every thread.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        let conns = std::mem::take(
            &mut *self
                .conn_threads
                .lock()
                .expect("connection registry poisoned"),
        );
        for handle in conns {
            let _ = handle.join();
        }
        // With every producer gone the shard loops drain and exit.
        self.shard_txs.clear();
        for handle in self.shard_threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Reads exactly `buf.len()` bytes, tolerating read-timeout polls.
///
/// Returns `Ok(true)` on a full read, `Ok(false)` on a clean EOF
/// *before the first byte* (frame boundary); EOF mid-buffer — a
/// truncated frame — and idle/stop expiries are errors.
fn read_exact_polling(
    stream: &mut TcpStream,
    buf: &mut [u8],
    stop: &AtomicBool,
) -> io::Result<bool> {
    let mut filled = 0;
    let started = Instant::now();
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "frame truncated by disconnect",
                ));
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        "server stopping",
                    ));
                }
                if started.elapsed() >= IDLE_TIMEOUT {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "connection idle past limit",
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

fn write_reply(stream: &mut TcpStream, reply: &Reply) -> io::Result<()> {
    let mut payload = Vec::new();
    encode_reply(reply, &mut payload);
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    stream.write_all(&frame)
}

/// Serves one connection until EOF, error, idle timeout, or shutdown.
fn serve_connection(
    mut stream: TcpStream,
    shard_txs: &[SyncSender<Job>],
    busy: &[Arc<AtomicU64>],
    stop: &AtomicBool,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL_TIMEOUT)).is_err() {
        return;
    }
    let mut len_buf = [0u8; 4];
    loop {
        match read_exact_polling(&mut stream, &mut len_buf, stop) {
            Ok(true) => {}
            Ok(false) | Err(_) => return,
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        if len == 0 || len > MAX_FRAME_BYTES {
            let _ = write_reply(
                &mut stream,
                &Reply::Err {
                    code: ErrCode::Malformed as u8,
                    msg: format!("frame length {len} outside 1..={MAX_FRAME_BYTES}"),
                },
            );
            return;
        }
        let mut payload = vec![0u8; len];
        match read_exact_polling(&mut stream, &mut payload, stop) {
            Ok(true) => {}
            Ok(false) | Err(_) => return,
        }
        let reply = match decode_request(&payload) {
            Ok(req) => serve_request(&req, shard_txs, busy),
            // Malformed payload: answer ERR and keep the connection —
            // one bad frame must not cost the client its session.
            Err(err) => Some(Reply::Err {
                code: ErrCode::Malformed as u8,
                msg: err.to_string(),
            }),
        };
        match reply {
            Some(reply) => {
                if write_reply(&mut stream, &reply).is_err() {
                    return;
                }
            }
            // The service is shutting down under us.
            None => return,
        }
    }
}

/// Routes one decoded request; `None` only when the shard loops are
/// gone (shutdown).
fn serve_request(
    req: &Request,
    shard_txs: &[SyncSender<Job>],
    busy: &[Arc<AtomicU64>],
) -> Option<Reply> {
    match route(req) {
        Some(shard) => {
            let Some(tx) = shard_txs.get(shard as usize) else {
                return Some(bad_shard(shard, shard_txs.len() as u16));
            };
            let (reply_tx, reply_rx) = mpsc::channel();
            match tx.try_send(Job {
                req: req.clone(),
                reply_tx,
            }) {
                Ok(()) => reply_rx.recv().ok(),
                Err(TrySendError::Full(_)) => {
                    busy[shard as usize].fetch_add(1, Ordering::Relaxed);
                    Some(Reply::Busy)
                }
                Err(TrySendError::Disconnected(_)) => None,
            }
        }
        None => match req {
            Request::Ping => Some(Reply::Pong),
            // All-shard STATS: fan out in shard order (matching the
            // in-process handle) with *blocking* sends — a stats query
            // waits out congestion instead of being shed.
            _ => {
                let mut entries = Vec::new();
                for tx in shard_txs {
                    let (reply_tx, reply_rx) = mpsc::channel();
                    tx.send(Job {
                        req: Request::Stats { shard: 0 },
                        reply_tx,
                    })
                    .ok()?;
                    match reply_rx.recv().ok()? {
                        Reply::Stats(shard_entries) => entries.extend(shard_entries),
                        other => return Some(other),
                    }
                }
                Some(Reply::Stats(entries))
            }
        },
    }
}

/// A blocking client for the `retrid` wire protocol.
pub struct TcpClient {
    stream: TcpStream,
}

impl TcpClient {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Returns the connect error, if any.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(TcpClient { stream })
    }

    /// Sends one request and blocks for its reply.
    ///
    /// # Errors
    ///
    /// Returns transport errors; a reply that fails to decode surfaces
    /// as [`io::ErrorKind::InvalidData`].
    pub fn request(&mut self, req: &Request) -> io::Result<Reply> {
        let mut payload = Vec::new();
        crate::proto::encode_request(req, &mut payload);
        let mut frame = Vec::with_capacity(4 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.stream.write_all(&frame)?;
        let payload = self.read_frame()?;
        crate::proto::decode_reply(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    fn read_frame(&mut self) -> io::Result<Vec<u8>> {
        let mut len_buf = [0u8; 4];
        self.stream.read_exact(&mut len_buf)?;
        let len = u32::from_le_bytes(len_buf) as usize;
        if len == 0 || len > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply frame length {len} outside 1..={MAX_FRAME_BYTES}"),
            ));
        }
        let mut payload = vec![0u8; len];
        self.stream.read_exact(&mut payload)?;
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connections_past_the_cap_get_busy_then_eof() {
        let mut config = ServiceConfig::new(3);
        config.shards = 1;
        let server = Server::start(&config, "127.0.0.1:0").expect("bind");
        // Each PONG shows the connection is served; the accept loop
        // registers a connection before it accepts the next one.
        let mut held: Vec<TcpClient> = (0..MAX_CONNECTIONS)
            .map(|_| {
                let mut client = TcpClient::connect(server.addr()).expect("connect");
                assert_eq!(client.request(&Request::Ping).expect("ping"), Reply::Pong);
                client
            })
            .collect();
        for _ in 0..3 {
            let mut extra = TcpClient::connect(server.addr()).expect("connect");
            // Without the cap this would be a served connection that
            // never speaks first: fail instead of hanging.
            extra
                .stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("read timeout");
            let frame = extra.read_frame().expect("BUSY frame");
            assert_eq!(
                crate::proto::decode_reply(&frame).expect("decodes"),
                Reply::Busy
            );
            let mut byte = [0u8; 1];
            assert_eq!(extra.stream.read(&mut byte).expect("clean close"), 0);
        }
        assert_eq!(server.rejected_connections(), 3);
        assert!(server.live_connections() <= MAX_CONNECTIONS);
        for client in &mut held {
            assert_eq!(client.request(&Request::Ping).expect("ping"), Reply::Pong);
        }
        // Once a held connection closes, its slot serves a newcomer (as
        // soon as its thread has noticed the hang-up and finished).
        drop(held.pop());
        let served = (0..100).any(|_| {
            let mut next = TcpClient::connect(server.addr()).expect("connect");
            let pong = matches!(next.request(&Request::Ping), Ok(Reply::Pong));
            if !pong {
                std::thread::sleep(Duration::from_millis(20));
            }
            pong
        });
        assert!(served, "a freed slot must serve a new connection");
        assert!(server.live_connections() <= MAX_CONNECTIONS);
        drop(held);
        server.shutdown();
    }
}
