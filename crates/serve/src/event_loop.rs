//! The readiness event loop both TCP front ends run: one thread, one
//! `epoll` instance and the sans-io [`ProtocolMachine`] — the shape that
//! holds thousands of mostly-idle connections in one process. Its core
//! ([`run_loop`]) owns accept, the client connections, the answers to
//! `shutdown` and bad lines, and drain-to-close; a [`Role`] does the
//! rest. [`EpollServer`] scores inline; the fan-out router
//! (`flint-router`) forwards rows to shards over [`Socket`]s, the write
//! buffer and read loop its clients run on.
//!
//! The server scores run to completion: each iteration (a *tick*)
//! batches what has already arrived and never waits for more — the
//! dataplane design of IX (Belay et al., OSDI 2014). At the fills light
//! traffic produces (one to three rows), a row scores in a few
//! microseconds, so a hop to a scoring thread and a linger wait would
//! cost far more than the scoring they batch.
//!
//! How a request flows through one tick:
//!
//! 1. `epoll_wait` reports connections readable; raw bytes go through
//!    each connection's [`ProtocolMachine`], which emits one
//!    [`WireEvent`] per complete line regardless of how the kernel
//!    chunked them;
//! 2. the role answers `stats` and `health` on the spot; a predict or
//!    `votes:` request passes admission control and **reserves an
//!    ordered response slot** on its connection;
//! 3. after the readiness pass [`Role::tick`] runs: the server scores
//!    the tick's rows in chunks of at most `max_batch` — one
//!    [`score`](Predictor::score) call per chunk into a vote block,
//!    class and `votes:` rows alike — and fills every reserved slot. A
//!    chunk whose engine panics answers each of its rows with `error`;
//!    the loop keeps serving. The stdin front end
//!    ([`serve_lines`](crate::serve_lines)) scores through the same
//!    chunk scorer;
//! 4. the core writes out the *ready prefix* of each connection that
//!    changed this tick (of all of them while stopping) — responses
//!    leave in request order per connection.
//!
//! Admission control sheds load explicitly instead of queueing it
//! invisibly ([`EventLoopConfig`]): a full accept table turns new
//! connections away with a `busy` line, a full tick or per-connection
//! pending window answers `busy` without scoring, and a connection
//! whose peer stops reading has its **read interest withdrawn** once
//! its write buffer passes the cap — backpressure lands on the slow
//! client alone, never on the loop.
//!
//! Everything here is safe code; the `unsafe` lives behind the vendored
//! [`epoll`] shim's minimal API. On non-Linux targets [`run_loop`] fails
//! with `Unsupported`; only the stdin front end serves there.

use crate::batcher::{BatchPolicy, Prediction, ServeError};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::protocol::{
    render_busy, render_error, render_prediction, render_votes, ProtocolMachine, Request, WireEvent,
};
use crate::server::{handle_request, Handled};
use epoll::{Event, Events, Interest, Poller};
use flint_data::FeatureMatrix;
use flint_exec::{Predictor, Sink};
use flint_forest::metrics::majority_vote;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Poll token of the accept listener.
const LISTENER: u64 = 0;
/// First token handed to a client connection or a role's socket
/// (monotonic, never reused, so a stale readiness report can never
/// reach a newer peer).
const FIRST_TOKEN: u64 = 1;

/// Upper bound on one `epoll_wait` sleep: the loop's shutdown/overload
/// bookkeeping and the role's tick run at least this often even with
/// no I/O.
const POLL_TICK: Duration = Duration::from_millis(100);
/// Bytes per `read` call.
const READ_CHUNK: usize = 4096;
/// Reads taken from one socket per readiness report before the loop
/// moves on; level-triggered epoll re-reports leftovers, so a firehose
/// peer cannot starve its neighbours.
const READ_BURSTS: usize = 16;
/// Drained-prefix size past which a socket's write buffer is
/// compacted. Below this the `memmove` costs more than the bytes it
/// reclaims; above it, a long-lived connection would otherwise retain
/// its drained prefix until the buffer happened to empty completely.
const COMPACT_WRITE_BUFFER: usize = 4096;
/// Floor applied to [`EventLoopConfig::max_write_buffer`] when
/// computing backpressure thresholds. A cap smaller than one response
/// line would pause on every answer and — with the resume threshold
/// `cap / 2` rounding to 0 — resume only on a completely drained
/// buffer, flapping poll interest at the boundary. Degenerate configs
/// clamp here instead.
const MIN_WRITE_BUFFER: usize = 4096;

/// The `(pause above, resume at)` byte thresholds of the write-buffer
/// backpressure hysteresis, clamped so that the resume threshold is
/// always strictly below the pause threshold with a non-empty band
/// between them — any configured `max_write_buffer` (including the
/// degenerate 0 and 1) yields a stable two-state machine.
fn backpressure_thresholds(max_write_buffer: usize) -> (usize, usize) {
    let pause_above = max_write_buffer.max(MIN_WRITE_BUFFER);
    (pause_above, pause_above / 2)
}

/// Admission-control and buffering limits of the event loop. Every cap
/// sheds with an explicit `busy` response (counted in
/// [`MetricsSnapshot::shed`]) rather than queueing invisibly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventLoopConfig {
    /// Most connections held open at once; further accepts are answered
    /// `busy` and closed.
    pub max_conns: usize,
    /// Most requests admitted and not yet answered across all
    /// connections. In [`EpollServer`] these are the rows one loop
    /// iteration has admitted and not yet scored — every iteration
    /// scores all it admitted before it writes, so the cap bounds one
    /// iteration's scoring work. In the fan-out router they are the
    /// requests fanned out to the shards and not yet merged.
    pub max_inflight: usize,
    /// Most unanswered predictions per connection (a single pipelining
    /// client's window).
    pub max_pending_per_conn: usize,
    /// Write-buffer size past which a connection's *read* interest is
    /// withdrawn until the peer drains half of it — per-slow-client
    /// backpressure.
    pub max_write_buffer: usize,
}

impl Default for EventLoopConfig {
    /// 16384 connections, 1024 in flight, 128 pending per connection,
    /// 256 KiB write buffer.
    fn default() -> Self {
        Self {
            max_conns: 16384,
            max_inflight: 1024,
            max_pending_per_conn: 128,
            max_write_buffer: 256 * 1024,
        }
    }
}

impl EventLoopConfig {
    /// Sets the connection cap.
    #[must_use]
    pub fn max_conns(mut self, n: usize) -> Self {
        self.max_conns = n;
        self
    }

    /// Sets the loop-wide in-flight request cap.
    #[must_use]
    pub fn max_inflight(mut self, n: usize) -> Self {
        self.max_inflight = n;
        self
    }

    /// Sets the per-connection unanswered-prediction cap.
    #[must_use]
    pub fn max_pending_per_conn(mut self, n: usize) -> Self {
        self.max_pending_per_conn = n;
        self
    }

    /// Sets the write-buffer backpressure threshold in bytes.
    #[must_use]
    pub fn max_write_buffer(mut self, bytes: usize) -> Self {
        self.max_write_buffer = bytes;
        self
    }
}

/// The answers every front end gives the same way, the stdin one too:
/// `Err` holds the line answering `shutdown` (with `true`: the server
/// stops) or a malformed or oversized line. Any other request is `Ok`,
/// for the role.
pub(crate) fn triage(event: WireEvent) -> Result<Request, (String, bool)> {
    let error = |message: String| Err((render_error(&message), false));
    match event {
        WireEvent::Request(Request::Shutdown) => {
            Err(("{\"ok\":\"shutting down\"}".to_owned(), true))
        }
        WireEvent::Request(request) => Ok(request),
        WireEvent::Invalid(e) => error(e.to_string()),
        WireEvent::Oversized { limit } => error(format!("request line exceeds {limit} bytes")),
    }
}

/// What a front end does on the loop [`run_loop`] drives: answer or
/// admit the requests the core hands it, drive the sockets it
/// registered, and finish each tick's work.
pub trait Role {
    /// Names the front end in the `busy` line a connection arriving
    /// during shutdown gets: `"<NAME> shutting down"`.
    const NAME: &'static str;

    /// Answers or admits one request from client `token`, parsed at
    /// `parsed`; `shutdown` never arrives here (the core answers it).
    fn request(&mut self, core: &mut Core<'_>, token: u64, request: Request, parsed: Instant);

    /// A readiness report for a socket the role registered with
    /// [`Core::register`].
    fn ready(&mut self, _core: &mut Core<'_>, _event: Event) {}

    /// Runs before the first wait and after every readiness pass,
    /// before the core writes answers out.
    fn tick(&mut self, core: &mut Core<'_>);
}

/// The loop state a [`Role`] works through: the client connections and
/// their response slots, the poller, the metrics and the limits.
#[derive(Debug)]
pub struct Core<'m> {
    listener: TcpListener,
    poller: Poller,
    metrics: &'m ServeMetrics,
    config: EventLoopConfig,
    clients: HashMap<u64, Conn>,
    /// Clients to pump this tick: those with readiness or new answers.
    dirty: Vec<u64>,
    next_token: u64,
    stopping: bool,
}

/// Runs the loop over `listener` with `role` until a client sends
/// `shutdown`, then answers every admitted request, flushes and closes
/// every connection and returns the final metrics snapshot.
///
/// # Errors
///
/// Any [`std::io::Error`] from the poller or listener (including
/// `Unsupported` on non-Linux targets); per-connection I/O errors only
/// end that connection.
pub fn run_loop<R: Role>(
    listener: TcpListener,
    config: EventLoopConfig,
    role: &mut R,
) -> std::io::Result<MetricsSnapshot> {
    let metrics = ServeMetrics::default();
    let poller = Poller::new()?;
    listener.set_nonblocking(true)?;
    poller.add(listener.as_raw_fd(), LISTENER, Interest::READ)?;
    let mut core = Core {
        listener,
        poller,
        metrics: &metrics,
        config,
        clients: HashMap::new(),
        dirty: Vec::new(),
        next_token: FIRST_TOKEN,
        stopping: false,
    };
    let mut events = Events::with_capacity(1024);
    loop {
        role.tick(&mut core);
        core.pump();
        if core.stopping && core.clients.is_empty() {
            break;
        }
        core.poller.wait(&mut events, Some(POLL_TICK))?;
        for event in events.iter() {
            if event.token == LISTENER {
                core.accept(R::NAME)?;
            } else if core.clients.contains_key(&event.token) {
                if event.readable || event.closed {
                    core.read(event.token, role);
                }
                core.dirty.push(event.token);
            } else {
                role.ready(&mut core, event);
            }
        }
    }
    Ok(metrics.snapshot())
}

impl<'m> Core<'m> {
    /// The loop's metrics (`stats` snapshots them).
    pub fn metrics(&self) -> &'m ServeMetrics {
        self.metrics
    }

    /// The poller, for the role's own sockets.
    pub fn poller(&self) -> &Poller {
        &self.poller
    }

    /// True once a client has sent `shutdown`.
    pub fn stopping(&self) -> bool {
        self.stopping
    }

    /// The address the loop listens on.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Registers a socket of the role, nonblocking and with
    /// `TCP_NODELAY`; its readiness reports go to [`Role::ready`].
    ///
    /// # Errors
    ///
    /// Any error from the stream's options or from the poller.
    pub fn register(&mut self, stream: TcpStream, interest: Interest) -> std::io::Result<Socket> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        self.poller.add(stream.as_raw_fd(), token, interest)?;
        Ok(Socket::new(stream, token, interest))
    }

    /// Answers client `token` now, behind the answers it still owes.
    pub fn respond(&mut self, token: u64, line: String) {
        if let Some(conn) = self.clients.get_mut(&token) {
            conn.slots.push_back(Some(line));
            self.dirty.push(token);
        }
    }

    /// Admits a request from client `token`, reserving the response
    /// slot whose number it returns for [`Core::fill_slot`] — unless the
    /// connection's pending window or the in-flight cap (`inflight`
    /// loop-wide) is full (shed `busy`) or `refuse` gives an answer.
    pub fn admit(
        &mut self,
        token: u64,
        inflight: usize,
        refuse: impl FnOnce() -> Option<String>,
    ) -> Option<u64> {
        let (cfg, conn) = (self.config, self.clients.get_mut(&token)?);
        let busy = if conn.pending >= cfg.max_pending_per_conn {
            format!(
                "connection pending cap {} reached",
                cfg.max_pending_per_conn
            )
        } else if inflight >= cfg.max_inflight {
            format!("max-inflight {} reached", cfg.max_inflight)
        } else if let Some(line) = refuse() {
            self.respond(token, line);
            return None;
        } else {
            self.metrics.record_request();
            conn.slots.push_back(None);
            conn.pending += 1;
            return Some(conn.base_seq + conn.slots.len() as u64 - 1);
        };
        self.metrics.record_shed();
        self.respond(token, render_busy(&busy));
        None
    }

    /// Delivers the answer to slot `seq` of client `token` (nothing, if
    /// the client is gone); the client is written to this tick.
    pub fn fill_slot(&mut self, token: u64, seq: u64, line: String) {
        if let Some(conn) = self.clients.get_mut(&token) {
            let idx = seq.wrapping_sub(conn.base_seq) as usize;
            if let Some(slot @ None) = conn.slots.get_mut(idx) {
                *slot = Some(line);
                conn.pending -= 1;
                self.dirty.push(token);
            }
        }
    }

    /// Drains the accept queue: new connections are registered
    /// read-only, or turned away with one `busy` line when over the cap
    /// (or during shutdown).
    fn accept(&mut self, name: &str) -> std::io::Result<()> {
        loop {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    if self.stopping || self.clients.len() >= self.config.max_conns {
                        self.metrics.record_shed();
                        let reason = if self.stopping {
                            format!("{name} shutting down")
                        } else {
                            format!("connection limit {} reached", self.config.max_conns)
                        };
                        // Best effort: a just-accepted socket has an empty
                        // send buffer, so this short line will not block.
                        let mut line = render_busy(&reason);
                        line.push('\n');
                        let _ = stream.set_nodelay(true);
                        let _ = stream.write_all(line.as_bytes());
                        continue; // drop closes it
                    }
                    let socket = self.register(stream, Interest::READ)?;
                    self.metrics.record_connect();
                    self.clients.insert(socket.token, Conn::new(socket));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Transient per-connection accept failures (ECONNABORTED
                // and friends): skip, the listener itself is fine.
                Err(_) => return Ok(()),
            }
        }
    }

    /// Reads one burst from client `token` and handles every completed
    /// line: the core answers `shutdown` and bad lines, the role the
    /// rest.
    fn read(&mut self, token: u64, role: &mut impl Role) {
        let conn = self.clients.get_mut(&token).expect("a readable client");
        let metrics = self.metrics;
        let machine = &mut conn.machine;
        let mut events: Vec<WireEvent> = Vec::new();
        match conn.socket.read_burst(|bytes| {
            machine.receive(bytes, |event| events.push(event));
            metrics.record_read_buffer(machine.buffered());
        }) {
            Ok(true) => {}
            Ok(false) => {
                conn.eof = true;
                // A final unterminated line is still a request
                // (`BufRead::lines` semantics).
                events.extend(conn.machine.finish());
            }
            Err(_) => {
                // Transport failure voids the connection: nothing
                // already framed is worth answering.
                conn.dead = true;
                events.clear();
            }
        }
        let parsed = Instant::now();
        for event in events {
            match triage(event) {
                Ok(request) => role.request(self, token, request, parsed),
                Err((line, stop)) => {
                    self.respond(token, line);
                    if stop && !self.stopping {
                        self.stopping = true;
                        let _ = self.poller.delete(self.listener.as_raw_fd());
                    }
                }
            }
        }
    }

    /// Writes out every client that changed this tick — every client
    /// while stopping, so idle ones drain and close too — and closes the
    /// finished and the dead.
    fn pump(&mut self) {
        if self.stopping {
            self.dirty.extend(self.clients.keys().copied());
        }
        self.dirty.sort_unstable();
        self.dirty.dedup();
        for token in self.dirty.drain(..) {
            let Some(conn) = self.clients.get_mut(&token) else {
                continue;
            };
            if conn.pump(&self.poller, self.metrics, &self.config, self.stopping) {
                let conn = self.clients.remove(&token).expect("live connection");
                conn.socket.close(&self.poller);
                self.metrics.record_disconnect();
            }
        }
    }
}

/// One client connection: its socket, framing machine, and the ordered
/// response slots that keep per-connection request/response order under
/// out-of-order completion.
#[derive(Debug)]
struct Conn {
    socket: Socket,
    /// Sans-io request framing for this connection's byte stream.
    machine: ProtocolMachine,
    /// One slot per not-yet-flushed request, in arrival order: `None`
    /// while its answer is in flight, `Some(line)` once answered. Only
    /// the answered *prefix* may be written out.
    slots: VecDeque<Option<String>>,
    /// Sequence number of `slots.front()`.
    base_seq: u64,
    /// Slots still `None` (this connection's in-flight window).
    pending: usize,
    /// Peer half-closed its write side; drain then close.
    eof: bool,
    /// Transport failed; close without draining.
    dead: bool,
    /// Read interest withdrawn while the write buffer is over the cap.
    paused: bool,
}

impl Conn {
    fn new(socket: Socket) -> Self {
        Self {
            socket,
            machine: ProtocolMachine::new(),
            slots: VecDeque::new(),
            base_seq: 0,
            pending: 0,
            eof: false,
            dead: false,
            paused: false,
        }
    }

    /// Moves the answered slot prefix into the write buffer, flushes as
    /// much as the socket takes, updates backpressure state and poll
    /// interest. Returns true when the connection should be closed
    /// (dead, or drained after EOF / during shutdown).
    fn pump(
        &mut self,
        poller: &Poller,
        metrics: &ServeMetrics,
        cfg: &EventLoopConfig,
        stopping: bool,
    ) -> bool {
        if self.dead {
            return true;
        }
        while let Some(Some(line)) = self.slots.front() {
            self.socket.queue(line.as_bytes());
            self.socket.queue(b"\n");
            self.slots.pop_front();
            self.base_seq += 1;
        }
        metrics.record_write_buffer(self.socket.buffered());
        if !self.socket.flush() {
            return true;
        }
        let buffered = self.socket.buffered();
        if buffered == 0 && self.slots.is_empty() && (self.eof || stopping) {
            return true;
        }
        let (pause_above, resume_at) = backpressure_thresholds(cfg.max_write_buffer);
        if !self.paused && buffered > pause_above {
            self.paused = true;
        } else if self.paused && buffered <= resume_at {
            self.paused = false;
        }
        self.socket.watch(poller, !self.eof && !self.paused);
        false
    }
}

/// A nonblocking TCP socket registered with the loop's poller, with the
/// write buffer and the read loop that client connections and the
/// router's shard links both run on.
#[derive(Debug)]
pub struct Socket {
    stream: TcpStream,
    token: u64,
    /// Bytes waiting for the socket; `out_pos..` is still unsent.
    out: Vec<u8>,
    out_pos: usize,
    /// The interest the descriptor is registered with.
    interest: Interest,
}

impl Socket {
    fn new(stream: TcpStream, token: u64, interest: Interest) -> Self {
        Self {
            stream,
            token,
            out: Vec::new(),
            out_pos: 0,
            interest,
        }
    }

    /// The stream, for socket options and connect status.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// The token this socket's readiness reports carry.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Bytes queued that the kernel has not taken yet.
    fn buffered(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Queues `bytes` behind what is already buffered; the next
    /// [`Socket::flush`] sends them.
    pub fn queue(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    /// Reads a bounded burst (level-triggered epoll reports the rest),
    /// handing each chunk to `receive`; `Ok(false)` once the peer closed.
    ///
    /// # Errors
    ///
    /// The read error that failed the transport.
    pub fn read_burst(&mut self, mut receive: impl FnMut(&[u8])) -> std::io::Result<bool> {
        let mut buf = [0u8; READ_CHUNK];
        for _ in 0..READ_BURSTS {
            match self.stream.read(&mut buf) {
                Ok(0) => return Ok(false),
                Ok(n) => receive(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Writes as much of the buffer as the socket takes and compacts
    /// the drained prefix. Returns false when the transport failed.
    pub fn flush(&mut self) -> bool {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return false,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos >= COMPACT_WRITE_BUFFER {
            // Reclaim the drained prefix: without this a socket that is
            // never fully flushed at once (a slow reader under
            // pipelined load) keeps every byte it ever sent, and the
            // buffer tracks lifetime traffic instead of the bytes still
            // owed to the socket.
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        true
    }

    /// Asks the poller to report the socket readable when `readable`,
    /// and writable while bytes wait; re-registers only on a change.
    pub fn watch(&mut self, poller: &Poller, readable: bool) {
        let interest = Interest {
            readable,
            writable: self.out_pos < self.out.len(),
        };
        if interest != self.interest {
            self.interest = interest;
            let _ = poller.modify(self.stream.as_raw_fd(), self.token, interest);
        }
    }

    /// Deregisters the socket and closes it.
    pub fn close(self, poller: &Poller) {
        let _ = poller.delete(self.stream.as_raw_fd());
    }
}

/// The epoll-driven TCP inference server (Linux): one thread accepts,
/// reads, scores and writes. Protocol, metrics and the chunk scorer are
/// shared with the stdin front end ([`serve_lines`](crate::serve_lines)).
///
/// ```no_run
/// use flint_serve::{BatchPolicy, EpollServer};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let engine: Box<dyn flint_exec::Predictor> = unimplemented!();
/// let server = EpollServer::bind("127.0.0.1:7878", engine, BatchPolicy::default())?;
/// println!("listening on {}", server.local_addr());
/// let final_stats = server.run()?; // until a client sends `shutdown`
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EpollServer {
    listener: TcpListener,
    local_addr: SocketAddr,
    engine: Box<dyn Predictor>,
    max_batch: usize,
    config: EventLoopConfig,
}

impl EpollServer {
    /// Binds `addr` with the default [`EventLoopConfig`] to serve
    /// `engine`.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from binding the listener.
    pub fn bind(
        addr: &str,
        engine: Box<dyn Predictor>,
        policy: BatchPolicy,
    ) -> std::io::Result<Self> {
        Self::bind_with_config(addr, engine, policy, EventLoopConfig::default())
    }

    /// Binds `addr` with explicit admission-control limits. Of
    /// `policy` only [`BatchPolicy::max_batch`] applies — the most rows
    /// one engine call scores; the loop never lingers, queues or hands
    /// rows to worker threads, so `linger`, `queue_depth` and `workers`
    /// configure only the [`Batcher`](crate::Batcher).
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from binding the listener.
    pub fn bind_with_config(
        addr: &str,
        engine: Box<dyn Predictor>,
        policy: BatchPolicy,
        config: EventLoopConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Self {
            listener,
            local_addr,
            engine,
            max_batch: policy.max_batch,
            config,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The registry name of the engine answering requests.
    pub fn engine_name(&self) -> &'static str {
        self.engine.name()
    }

    /// The admission-control limits in force.
    pub fn config(&self) -> EventLoopConfig {
        self.config
    }

    /// Runs the event loop until a client sends `shutdown`, then
    /// answers every admitted request, flushes and closes every
    /// connection and returns the final metrics snapshot.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from the poller or listener (including
    /// `Unsupported` on non-Linux targets); per-connection I/O errors
    /// only end that connection.
    pub fn run(self) -> std::io::Result<MetricsSnapshot> {
        let mut tick = TickBatch::new(&*self.engine, self.max_batch);
        run_loop(self.listener, self.config, &mut tick)
    }
}

/// The rows one loop iteration admitted, in admission order, each with
/// the connection slot its answer goes to — scored together once the
/// readiness pass is over. The stdin front end scores through it too.
pub(crate) struct TickBatch<'e> {
    engine: &'e dyn Predictor,
    max_batch: usize,
    /// Row-major features of every admitted row.
    rows: Vec<f32>,
    /// Per row: a `votes:` request rather than a predict.
    wants_votes: Vec<bool>,
    /// Per row: connection token and reserved slot sequence number.
    slots: Vec<(u64, u64)>,
    /// Per row: when its line was parsed (stats latency runs from
    /// here to scored).
    parsed: Vec<Instant>,
}

impl<'e> TickBatch<'e> {
    pub(crate) fn new(engine: &'e dyn Predictor, max_batch: usize) -> Self {
        Self {
            engine,
            max_batch: max_batch.max(1),
            rows: Vec::new(),
            wants_votes: Vec::new(),
            slots: Vec::new(),
            parsed: Vec::new(),
        }
    }

    /// Rows admitted and not yet answered.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The error line for a row the engine cannot score (wrong
    /// feature arity), counted as rejected; `None` when it fits.
    pub(crate) fn reject(&self, row: &[f32], metrics: &ServeMetrics) -> Option<String> {
        let expected = self.engine.n_features();
        (row.len() != expected).then(|| {
            metrics.record_rejected();
            render_error(
                &ServeError::WrongArity {
                    expected,
                    got: row.len(),
                }
                .to_string(),
            )
        })
    }

    /// Adds one admitted row, answered into slot `seq` of connection
    /// `token`.
    pub(crate) fn push(&mut self, token: u64, seq: u64, row: &[f32], votes: bool, parsed: Instant) {
        self.rows.extend_from_slice(row);
        self.wants_votes.push(votes);
        self.slots.push((token, seq));
        self.parsed.push(parsed);
    }

    /// Scores every admitted row in chunks of at most `max_batch`,
    /// hands each rendered answer to `answer(token, seq, line)`, and
    /// empties the batch.
    pub(crate) fn score(
        &mut self,
        metrics: &ServeMetrics,
        mut answer: impl FnMut(u64, u64, String),
    ) {
        let n_features = self.engine.n_features();
        let mut start = 0;
        while start < self.len() {
            let end = (start + self.max_batch).min(self.len());
            let rows = &self.rows[start * n_features..end * n_features];
            let wants_votes = &self.wants_votes[start..end];
            // An engine panic costs its chunk, never the loop: those
            // rows answer `error` and their slots still fill in order.
            let lines = catch_unwind(AssertUnwindSafe(|| {
                render_chunk(self.engine, rows, wants_votes)
            }))
            .unwrap_or_else(|_| {
                vec![render_error("engine panicked scoring this batch"); end - start]
            });
            metrics.record_batch(end - start);
            let scored = Instant::now();
            for ((&(token, seq), parsed), line) in self.slots[start..end]
                .iter()
                .zip(&self.parsed[start..end])
                .zip(lines)
            {
                metrics.record_latency(scored.saturating_duration_since(*parsed));
                answer(token, seq, line);
            }
            start = end;
        }
        self.rows.clear();
        self.wants_votes.clear();
        self.slots.clear();
        self.parsed.clear();
    }
}

/// The server's role: rows are admitted into the tick's batch, scored
/// after the readiness pass, and answered into their slots.
impl Role for TickBatch<'_> {
    const NAME: &'static str = "server";

    fn request(&mut self, core: &mut Core<'_>, token: u64, request: Request, parsed: Instant) {
        let (row, votes) = match handle_request(request, core.metrics()) {
            Handled::Score { row, votes } => (row, votes),
            Handled::Answered(line) => return core.respond(token, line),
        };
        let metrics = core.metrics();
        if let Some(seq) = core.admit(token, self.len(), || self.reject(&row, metrics)) {
            self.push(token, seq, &row, votes, parsed);
        }
    }

    /// Every row this tick admitted is answered before anything is
    /// written.
    fn tick(&mut self, core: &mut Core<'_>) {
        let metrics = core.metrics();
        self.score(metrics, |token, seq, line| core.fill_slot(token, seq, line));
    }
}

/// Scores one chunk through one [`Predictor::score`] call into a vote
/// block and renders every row's response line: a `votes:` row its
/// histogram, a class row the histogram's majority vote. `rows` is
/// row-major, `wants_votes[i]` marks row `i` as a `votes:` request, and
/// the reported batch fill is the chunk's row count.
fn render_chunk(engine: &dyn Predictor, rows: &[f32], wants_votes: &[bool]) -> Vec<String> {
    let (n_features, n_classes) = (engine.n_features(), engine.n_classes());
    let fill = wants_votes.len();
    let matrix = FeatureMatrix::from_row_major(fill, n_features, rows);
    let mut votes = vec![0u32; fill * n_classes];
    engine.score(&matrix, &engine.options(), Sink::Votes(&mut votes));
    wants_votes
        .iter()
        .zip(votes.chunks_exact(n_classes))
        .map(|(&is_votes, votes)| {
            if is_votes {
                render_votes(votes, engine.name(), fill)
            } else {
                let prediction = Prediction {
                    class: majority_vote(votes),
                    batch_fill: fill,
                };
                render_prediction(&prediction, engine.name())
            }
        })
        .collect()
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use flint_data::synth::SynthSpec;
    use flint_exec::{EngineBuilder, EngineKind};
    use flint_forest::{ForestConfig, RandomForest};
    use std::io::{BufRead, BufReader};

    fn engine_and_data() -> (Box<dyn Predictor>, RandomForest, flint_data::Dataset) {
        let data = SynthSpec::new(90, 4, 3).seed(5).generate();
        let forest = RandomForest::fit(&data, &ForestConfig::grid(4, 6)).expect("trainable");
        let engine = EngineBuilder::new(&forest)
            .build(EngineKind::parse("flint-blocked").expect("registered"))
            .expect("builds");
        (engine, forest, data)
    }

    #[test]
    fn epoll_server_round_trips_the_protocol() {
        let (engine, forest, data) = engine_and_data();
        let server = EpollServer::bind("127.0.0.1:0", engine, BatchPolicy::default())
            .expect("binds loopback");
        let addr = server.local_addr();
        let runner = std::thread::spawn(move || server.run().expect("serves"));

        let stream = TcpStream::connect(addr).expect("connects");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(stream.try_clone().expect("clones"));
        let mut writer = stream;
        let mut line = String::new();
        for i in 0..6 {
            let row: Vec<String> = data.sample(i).iter().map(f32::to_string).collect();
            writeln!(writer, "{}", row.join(",")).expect("writes");
            line.clear();
            reader.read_line(&mut line).expect("reads");
            let expected = forest.predict_majority(data.sample(i));
            assert!(
                line.starts_with(&format!("{{\"class\":{expected},")),
                "sample {i}: {line}"
            );
            assert!(line.contains("\"engine\":\"flint-blocked\""), "{line}");
        }
        writeln!(writer, "1.0,2.0").expect("writes"); // wrong arity
        line.clear();
        reader.read_line(&mut line).expect("reads");
        assert!(line.contains("expected 4 features, got 2"), "{line}");
        writeln!(writer, "stats").expect("writes");
        line.clear();
        reader.read_line(&mut line).expect("reads");
        assert!(line.contains("\"requests\":6"), "{line}");
        assert!(line.contains("\"connections\":1"), "{line}");
        writeln!(writer, "shutdown").expect("writes");
        line.clear();
        reader.read_line(&mut line).expect("reads");
        assert!(line.contains("shutting down"), "{line}");
        let stats = runner.join().expect("server thread");
        assert_eq!(stats.requests, 6);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.connections, 0, "all connections closed");
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let (engine, forest, data) = engine_and_data();
        let server = EpollServer::bind("127.0.0.1:0", engine, BatchPolicy::default())
            .expect("binds loopback");
        let addr = server.local_addr();
        let runner = std::thread::spawn(move || server.run().expect("serves"));

        // Fire a burst of requests without reading a single response:
        // replies must come back in request order even though batches
        // complete out of lockstep.
        let stream = TcpStream::connect(addr).expect("connects");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(stream.try_clone().expect("clones"));
        let mut writer = stream;
        let mut burst = String::new();
        for i in 0..32 {
            let row: Vec<String> = data.sample(i % 90).iter().map(f32::to_string).collect();
            burst.push_str(&row.join(","));
            burst.push('\n');
        }
        writer.write_all(burst.as_bytes()).expect("writes");
        let mut line = String::new();
        for i in 0..32 {
            line.clear();
            reader.read_line(&mut line).expect("reads");
            let expected = forest.predict_majority(data.sample(i % 90));
            assert!(
                line.starts_with(&format!("{{\"class\":{expected},")),
                "response {i} out of order: {line}"
            );
        }
        writeln!(writer, "shutdown").expect("writes");
        runner.join().expect("server thread");
    }

    #[test]
    fn inflight_cap_sheds_with_busy_responses() {
        let (engine, _, data) = engine_and_data();
        // A zero in-flight window: every predict sheds, but stats and
        // shutdown still answer.
        let server = EpollServer::bind_with_config(
            "127.0.0.1:0",
            engine,
            BatchPolicy::default(),
            EventLoopConfig::default().max_inflight(0),
        )
        .expect("binds loopback");
        let addr = server.local_addr();
        let runner = std::thread::spawn(move || server.run().expect("serves"));

        let stream = TcpStream::connect(addr).expect("connects");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(stream.try_clone().expect("clones"));
        let mut writer = stream;
        let row: Vec<String> = data.sample(0).iter().map(f32::to_string).collect();
        let mut line = String::new();
        for _ in 0..3 {
            writeln!(writer, "{}", row.join(",")).expect("writes");
            line.clear();
            reader.read_line(&mut line).expect("reads");
            assert!(line.contains("\"busy\":true"), "{line}");
            assert!(line.contains("max-inflight 0"), "{line}");
        }
        writeln!(writer, "stats").expect("writes");
        line.clear();
        reader.read_line(&mut line).expect("reads");
        assert!(line.contains("\"shed\":3"), "{line}");
        assert!(line.contains("\"requests\":0"), "{line}");
        writeln!(writer, "shutdown").expect("writes");
        line.clear();
        reader.read_line(&mut line).expect("reads");
        assert!(line.contains("shutting down"), "{line}");
        let stats = runner.join().expect("server thread");
        assert_eq!(stats.shed, 3);
    }

    #[test]
    fn connection_cap_turns_extra_clients_away() {
        let (engine, _, data) = engine_and_data();
        let server = EpollServer::bind_with_config(
            "127.0.0.1:0",
            engine,
            BatchPolicy::default(),
            EventLoopConfig::default().max_conns(1),
        )
        .expect("binds loopback");
        let addr = server.local_addr();
        let runner = std::thread::spawn(move || server.run().expect("serves"));

        let keeper = TcpStream::connect(addr).expect("connects");
        keeper.set_nodelay(true).expect("nodelay");
        let mut keeper_reader = BufReader::new(keeper.try_clone().expect("clones"));
        let mut keeper_writer = keeper;
        // Prove the first connection is in before the second dials.
        let row: Vec<String> = data.sample(0).iter().map(f32::to_string).collect();
        writeln!(keeper_writer, "{}", row.join(",")).expect("writes");
        let mut line = String::new();
        keeper_reader.read_line(&mut line).expect("reads");
        assert!(line.contains("\"class\":"), "{line}");

        let turned_away = TcpStream::connect(addr).expect("connects");
        let mut reader = BufReader::new(turned_away);
        line.clear();
        reader.read_line(&mut line).expect("reads busy line");
        assert!(line.contains("\"busy\":true"), "{line}");
        assert!(line.contains("connection limit 1"), "{line}");
        line.clear();
        // ...and the socket is closed right after.
        assert_eq!(reader.read_line(&mut line).expect("eof"), 0);

        writeln!(keeper_writer, "shutdown").expect("writes");
        runner.join().expect("server thread");
    }

    #[test]
    fn idle_connections_survive_and_close_on_shutdown() {
        let (engine, _, _) = engine_and_data();
        let server = EpollServer::bind("127.0.0.1:0", engine, BatchPolicy::default())
            .expect("binds loopback");
        let addr = server.local_addr();
        let runner = std::thread::spawn(move || server.run().expect("serves"));

        let idle: Vec<TcpStream> = (0..64)
            .map(|_| TcpStream::connect(addr).expect("connects"))
            .collect();
        let admin = TcpStream::connect(addr).expect("connects");
        admin.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(admin.try_clone().expect("clones"));
        let mut writer = admin;
        // Wait until every idle connection has been accepted into the
        // loop (accept is asynchronous from connect returning).
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut line = String::new();
        loop {
            writeln!(writer, "stats").expect("writes");
            line.clear();
            reader.read_line(&mut line).expect("reads");
            if line.contains("\"connections\":65") {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "idle connections never registered: {line}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        writeln!(writer, "shutdown").expect("writes");
        line.clear();
        reader.read_line(&mut line).expect("reads");
        assert!(line.contains("shutting down"), "{line}");
        let stats = runner.join().expect("server thread");
        assert_eq!(stats.accepted, 65);
        assert_eq!(stats.connections, 0, "idle connections all closed");
        drop(idle);
    }

    #[test]
    fn votes_requests_round_trip_with_reference_histograms() {
        let (engine, forest, data) = engine_and_data();
        let server = EpollServer::bind("127.0.0.1:0", engine, BatchPolicy::default())
            .expect("binds loopback");
        let addr = server.local_addr();
        let runner = std::thread::spawn(move || server.run().expect("serves"));

        let stream = TcpStream::connect(addr).expect("connects");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(stream.try_clone().expect("clones"));
        let mut writer = stream;
        let mut line = String::new();
        for i in 0..6 {
            let row: Vec<String> = data.sample(i).iter().map(f32::to_string).collect();
            writeln!(writer, "votes:{}", row.join(",")).expect("writes");
            line.clear();
            reader.read_line(&mut line).expect("reads");
            let expected = flint_forest::votes::render_votes(&forest.predict_votes(data.sample(i)));
            assert!(
                line.starts_with(&format!(
                    "{{\"votes\":{expected},\"engine\":\"flint-blocked\""
                )),
                "sample {i}: {line}"
            );
        }
        // Class and votes requests pipelined on one connection answer
        // in request order even though they render differently.
        let row: Vec<String> = data.sample(7).iter().map(f32::to_string).collect();
        writeln!(writer, "{}\nvotes:{}", row.join(","), row.join(",")).expect("writes");
        line.clear();
        reader.read_line(&mut line).expect("reads");
        let class = forest.predict_majority(data.sample(7));
        assert!(line.starts_with(&format!("{{\"class\":{class},")), "{line}");
        line.clear();
        reader.read_line(&mut line).expect("reads");
        assert!(line.starts_with("{\"votes\":"), "{line}");
        writeln!(writer, "shutdown").expect("writes");
        runner.join().expect("server thread");
    }

    /// One feature, one class; panics on a NaN feature.
    #[derive(Debug)]
    struct PanicsOnNan;

    impl Predictor for PanicsOnNan {
        fn kind(&self) -> EngineKind {
            EngineKind::parse("flint").expect("registered")
        }
        fn n_features(&self) -> usize {
            1
        }
        fn n_classes(&self) -> usize {
            1
        }
        fn options(&self) -> flint_exec::BatchOptions {
            flint_exec::BatchOptions::default()
        }
        fn score(
            &self,
            matrix: &flint_data::FeatureMatrix,
            _: &flint_exec::BatchOptions,
            sink: Sink<'_>,
        ) {
            let marked = (0..matrix.n_samples()).any(|i| matrix.get(i, 0).is_nan());
            assert!(!marked, "marked row");
            match sink {
                Sink::Classes(out) => out.fill(0),
                Sink::Votes(out) => out.fill(1),
            }
        }
    }

    #[test]
    fn a_panicking_chunk_answers_error_for_exactly_its_rows() {
        // Three rows of one tick, row 1 marked, row 2 a `votes:`
        // request: whichever chunk holds row 1 fails whole, every other
        // chunk scores, and every row is answered once, in order.
        for (max_batch, failed) in [
            (64, [true, true, true]),
            (2, [true, true, false]),
            (1, [false, true, false]),
        ] {
            let mut tick = TickBatch::new(&PanicsOnNan, max_batch);
            for (seq, x) in [1.0, f32::NAN, 2.0].into_iter().enumerate() {
                tick.push(FIRST_TOKEN, seq as u64, &[x], seq == 2, Instant::now());
            }
            let metrics = ServeMetrics::default();
            let mut answers = Vec::new();
            tick.score(&metrics, |token, seq, line| {
                answers.push((token, seq, line))
            });
            assert_eq!(tick.len(), 0, "max_batch {max_batch}: tick emptied");
            for (i, (token, seq, line)) in answers.iter().enumerate() {
                assert_eq!(
                    (*token, *seq),
                    (FIRST_TOKEN, i as u64),
                    "max_batch {max_batch}"
                );
                if failed[i] {
                    assert!(
                        line.contains("engine panicked"),
                        "max_batch {max_batch}: {line}"
                    );
                } else {
                    assert!(!line.contains("error"), "max_batch {max_batch}: {line}");
                }
            }
            assert_eq!(answers.len(), 3, "max_batch {max_batch}");
            assert_eq!(
                metrics.snapshot().batches,
                3usize.div_ceil(max_batch) as u64
            );
        }
    }

    #[test]
    fn backpressure_thresholds_never_degenerate() {
        for cap in [0, 1, 2, 7, 4095, 4096, 1 << 20] {
            let (pause_above, resume_at) = backpressure_thresholds(cap);
            assert!(pause_above >= cap, "cap {cap}: clamp only raises the cap");
            assert!(
                resume_at < pause_above,
                "cap {cap}: hysteresis band must be non-empty"
            );
            // The original bug: resume_at = cap / 2 rounds to 0 for
            // cap <= 1, so a paused connection could only resume on a
            // completely drained buffer.
            assert!(
                resume_at >= 1,
                "cap {cap}: paused connections must resume before a full drain"
            );
        }
    }

    #[test]
    fn degenerate_write_buffer_config_still_delivers_every_response() {
        let (engine, forest, data) = engine_and_data();
        // max_write_buffer(0) is the degenerate corner: unclamped it
        // would pause on the first buffered byte and resume only at
        // zero. The clamped thresholds must keep a pipelined burst
        // flowing to completion, in order.
        let server = EpollServer::bind_with_config(
            "127.0.0.1:0",
            engine,
            BatchPolicy::default(),
            EventLoopConfig::default()
                .max_write_buffer(0)
                .max_pending_per_conn(512),
        )
        .expect("binds loopback");
        let addr = server.local_addr();
        let runner = std::thread::spawn(move || server.run().expect("serves"));

        let stream = TcpStream::connect(addr).expect("connects");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(stream.try_clone().expect("clones"));
        let mut writer = stream;
        let mut burst = String::new();
        for i in 0..256 {
            let row: Vec<String> = data.sample(i % 90).iter().map(f32::to_string).collect();
            burst.push_str(&row.join(","));
            burst.push('\n');
        }
        writer.write_all(burst.as_bytes()).expect("writes");
        let mut line = String::new();
        for i in 0..256 {
            line.clear();
            reader.read_line(&mut line).expect("reads");
            let expected = forest.predict_majority(data.sample(i % 90));
            assert!(
                line.starts_with(&format!("{{\"class\":{expected},")),
                "response {i}: {line}"
            );
        }
        writeln!(writer, "shutdown").expect("writes");
        runner.join().expect("server thread");
    }

    #[test]
    fn write_buffer_compacts_and_hwm_tracks_live_bytes() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connects");
        let (server_side, _) = listener.accept().expect("accepts");
        server_side.set_nonblocking(true).expect("nonblocking");

        let poller = Poller::new().expect("poller");
        poller
            .add(server_side.as_raw_fd(), FIRST_TOKEN, Interest::READ)
            .expect("registers");
        let metrics = ServeMetrics::default();
        let cfg = EventLoopConfig::default().max_write_buffer(1);
        let mut conn = Conn::new(Socket::new(server_side, FIRST_TOKEN, Interest::READ));

        // Stage far more than the kernel socket buffers will take while
        // the peer reads nothing, so the flush stalls mid-buffer.
        const LINE: usize = 1 << 20;
        const LINES: usize = 32;
        for _ in 0..LINES {
            conn.slots.push_back(Some("x".repeat(LINE)));
        }
        let staged = LINES * (LINE + 1); // one newline per line
        assert!(!conn.pump(&poller, &metrics, &cfg, false));
        assert!(
            conn.socket.out.len() - conn.socket.out_pos > 0,
            "kernel swallowed {staged} bytes with an unread peer"
        );
        assert!(conn.paused, "a buffer this deep must pause reads");
        // The gauge records live staged bytes, not buffer capacity.
        assert_eq!(metrics.snapshot().write_hwm, staged as u64);

        // Drain from the client side while pumping: the drained prefix
        // must keep being reclaimed (out_pos never lingers past the
        // compaction threshold) and the live buffer must shrink long
        // before the final byte — without compaction `out` retains
        // every byte ever sent until a lucky full drain.
        let mut sink = vec![0u8; 1 << 16];
        let mut total_read = 0;
        let mut saw_shrunk_live_buffer = false;
        while total_read < staged {
            let n = client.read(&mut sink).expect("reads");
            assert!(n > 0, "peer hung up early at {total_read}/{staged}");
            total_read += n;
            assert!(!conn.pump(&poller, &metrics, &cfg, false));
            assert!(
                conn.socket.out_pos < COMPACT_WRITE_BUFFER,
                "drained prefix of {} bytes was never compacted",
                conn.socket.out_pos
            );
            if !conn.socket.out.is_empty() && conn.socket.out.len() < staged / 2 {
                saw_shrunk_live_buffer = true;
            }
        }
        assert!(
            saw_shrunk_live_buffer,
            "write buffer never compacted mid-drain"
        );
        assert!(
            conn.socket.out.is_empty(),
            "fully acked buffer should be clear"
        );
        assert!(!conn.paused, "drained connection must resume reads");
        assert_eq!(metrics.snapshot().write_hwm, staged as u64);
    }
}
