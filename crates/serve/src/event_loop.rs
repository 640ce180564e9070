//! The readiness event-loop TCP front end: one thread, one `epoll`
//! instance, the sans-io [`ProtocolMachine`] and the engine itself —
//! the shape that holds thousands of mostly-idle connections in one
//! process, where a thread per connection would pay a stack and a
//! scheduler entry apiece.
//!
//! The loop scores on its own thread, run to completion: each
//! iteration (a *tick*) batches what has already arrived and never
//! waits for more — the dataplane design of IX (Belay et al., OSDI
//! 2014). At the fills light traffic produces (one to three rows), a
//! row scores in a few microseconds, so a hop to a scoring thread and
//! a linger wait would cost far more than the scoring they batch.
//!
//! How a request flows through one tick:
//!
//! 1. `epoll_wait` reports connections readable; raw bytes go through
//!    each connection's [`ProtocolMachine`], which emits one
//!    [`WireEvent`] per complete line regardless of how the kernel
//!    chunked them;
//! 2. a predict or `votes:` request passes admission control,
//!    **reserves an ordered response slot** on its connection and
//!    joins the tick's batch; control verbs (`stats`, `health`,
//!    `shutdown`) and bad lines answer on the spot;
//! 3. after the readiness pass the loop scores the tick's batch in
//!    chunks of at most `max_batch` rows — one
//!    [`predict_matrix`](Predictor::predict_matrix) over a chunk's
//!    class rows, one [`predict_votes`](Predictor::predict_votes) per
//!    `votes:` row — and fills every reserved slot. A chunk whose
//!    engine panics answers each of its rows with `error`; the loop
//!    keeps serving. The stdin front end
//!    ([`serve_lines`](crate::serve_lines)) scores through the same
//!    chunk scorer;
//! 4. the loop writes out each connection's *ready prefix* — responses
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
//! [`epoll`] shim's minimal API. On non-Linux targets
//! [`EpollServer::run`] fails with `Unsupported`; only the stdin front
//! end serves there.

use crate::batcher::{BatchPolicy, Prediction, ServeError};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::protocol::{
    render_busy, render_error, render_prediction, render_votes, ProtocolMachine, WireEvent,
};
use crate::server::{handle_event, Action, Handled};
use epoll::{Events, Interest, Poller};
use flint_data::FeatureMatrix;
use flint_exec::Predictor;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Poll token of the accept listener.
const LISTENER: u64 = 0;
/// First token handed to an accepted connection (monotonic, never
/// reused).
const FIRST_CONN: u64 = 1;

/// Upper bound on one `epoll_wait` sleep: the loop's shutdown/overload
/// bookkeeping runs at least this often even with no I/O.
const POLL_TICK: Duration = Duration::from_millis(100);
/// Bytes per `read` call.
const READ_CHUNK: usize = 4096;
/// Reads taken from one connection per readiness report before the loop
/// moves on; level-triggered epoll re-reports leftovers, so a firehose
/// client cannot starve its neighbours.
const READ_BURSTS: usize = 16;
/// Drained-prefix size past which a connection's write buffer is
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
        let EpollServer {
            listener,
            local_addr: _,
            engine,
            max_batch,
            config: cfg,
        } = self;
        let poller = Poller::new()?;
        listener.set_nonblocking(true)?;
        poller.add(listener.as_raw_fd(), LISTENER, Interest::READ)?;

        let metrics = ServeMetrics::default();
        let mut tick = TickBatch::new(&*engine, max_batch);
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut events = Events::with_capacity(1024);
        let mut next_token = FIRST_CONN;
        let mut stopping = false;
        let mut accepting = true;
        let mut dirty: Vec<u64> = Vec::new();

        loop {
            poller.wait(&mut events, Some(POLL_TICK))?;
            dirty.clear();
            for event in events.iter() {
                if event.token == LISTENER {
                    accept_ready(
                        &listener,
                        &poller,
                        &mut conns,
                        &mut next_token,
                        &metrics,
                        &cfg,
                        stopping,
                    )?;
                } else if let Some(conn) = conns.get_mut(&event.token) {
                    if event.readable || event.closed {
                        read_ready(conn, event.token, &mut tick, &metrics, &cfg, &mut stopping);
                    }
                    dirty.push(event.token);
                }
            }

            // Every row this tick admitted is answered before anything
            // is written; its connection is already on the dirty list.
            tick.score(&metrics, |token, seq, line| {
                if let Some(conn) = conns.get_mut(&token) {
                    conn.fill_slot(seq, line);
                }
            });

            if stopping && accepting {
                accepting = false;
                let _ = poller.delete(listener.as_raw_fd());
            }
            if stopping {
                // Idle connections drain and close too, not just the
                // ones with activity this tick.
                dirty.extend(conns.keys().copied());
            }
            dirty.sort_unstable();
            dirty.dedup();
            for token in dirty.drain(..) {
                let Some(conn) = conns.get_mut(&token) else {
                    continue;
                };
                if conn.pump(&poller, token, &metrics, &cfg, stopping) {
                    let conn = conns.remove(&token).expect("live connection");
                    let _ = poller.delete(conn.stream.as_raw_fd());
                    metrics.record_disconnect();
                }
            }

            if stopping && conns.is_empty() {
                break;
            }
        }
        Ok(metrics.snapshot())
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

/// Scores the class rows of a chunk, and only those, through one
/// [`Predictor::predict_matrix`]: `rows` is row-major, `wants_votes[i]`
/// marks row `i` as a `votes:` request, and the result holds one class
/// per class row in row order. A chunk of only `votes:` rows (a router
/// shard's steady state) skips the matrix pass.
fn score_class_rows(engine: &dyn Predictor, rows: &[f32], wants_votes: &[bool]) -> Vec<u32> {
    let n_features = engine.n_features();
    let n_class = wants_votes.iter().filter(|&&votes| !votes).count();
    if n_class == 0 {
        return Vec::new();
    }
    let matrix = if n_class == wants_votes.len() {
        FeatureMatrix::from_row_major(n_class, n_features, rows)
    } else {
        let class_rows: Vec<f32> = (0..wants_votes.len())
            .filter(|&i| !wants_votes[i])
            .flat_map(|i| &rows[i * n_features..(i + 1) * n_features])
            .copied()
            .collect();
        FeatureMatrix::from_row_major(n_class, n_features, &class_rows)
    };
    engine.predict_matrix(&matrix)
}

/// Scores one chunk and renders every row's response line; the
/// reported batch fill is the chunk's row count.
fn render_chunk(engine: &dyn Predictor, rows: &[f32], wants_votes: &[bool]) -> Vec<String> {
    let n_features = engine.n_features();
    let fill = wants_votes.len();
    let mut classes = score_class_rows(engine, rows, wants_votes).into_iter();
    wants_votes
        .iter()
        .enumerate()
        .map(|(i, &votes)| {
            if votes {
                let row = &rows[i * n_features..(i + 1) * n_features];
                render_votes(&engine.predict_votes(row), engine.name(), fill)
            } else {
                let prediction = Prediction {
                    class: classes.next().expect("one class per class row"),
                    batch_fill: fill,
                };
                render_prediction(&prediction, engine.name())
            }
        })
        .collect()
}

/// One live client connection: its nonblocking stream, framing
/// machine, write buffer, and the ordered response slots that keep
/// per-connection request/response order under out-of-order
/// completion. Public so other event-loop front ends (the fan-out
/// router) drive the exact same connection layer — framing, slot
/// ordering, backpressure and buffer hygiene cannot diverge between
/// a shard and the router in front of it.
#[derive(Debug)]
pub struct Conn {
    /// The nonblocking socket.
    pub stream: TcpStream,
    /// Sans-io request framing for this connection's byte stream.
    pub machine: ProtocolMachine,
    /// Bytes waiting for the socket; `out_pos..` is still unsent.
    out: Vec<u8>,
    out_pos: usize,
    /// One slot per not-yet-flushed request, in arrival order: `None`
    /// while its prediction is in flight, `Some(line)` once answered.
    /// Only the answered *prefix* may be written out.
    slots: VecDeque<Option<String>>,
    /// Sequence number of `slots.front()`.
    base_seq: u64,
    /// Slots still `None` (this connection's in-flight window).
    pending: usize,
    /// Peer half-closed its write side; drain then close.
    pub eof: bool,
    /// Transport failed; close without draining.
    pub dead: bool,
    /// Read interest withdrawn while the write buffer is over the cap.
    paused: bool,
    want_read: bool,
    want_write: bool,
}

impl Conn {
    /// Wraps an accepted, already-nonblocking stream.
    pub fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            machine: ProtocolMachine::new(),
            out: Vec::new(),
            out_pos: 0,
            slots: VecDeque::new(),
            base_seq: 0,
            pending: 0,
            eof: false,
            dead: false,
            paused: false,
            want_read: true,
            want_write: false,
        }
    }

    /// Appends an already-answered slot (stats, errors, busy lines).
    pub fn push_response(&mut self, line: String) {
        self.slots.push_back(Some(line));
    }

    /// Requests awaiting answers on this connection (the per-connection
    /// in-flight window admission control checks).
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Reads whatever the socket has ready (bounded per readiness
    /// report; level-triggered epoll re-reports leftovers) through the
    /// framing machine and returns the completed wire events. Marks
    /// the connection `eof` / `dead` as the socket dictates.
    pub fn read_wire_events(&mut self, metrics: &ServeMetrics) -> Vec<WireEvent> {
        let mut buf = [0u8; READ_CHUNK];
        let mut wire: Vec<WireEvent> = Vec::new();
        for _ in 0..READ_BURSTS {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.eof = true;
                    // A final unterminated line is still a request
                    // (`BufRead::lines` semantics, same as the
                    // threaded front end).
                    wire.extend(self.machine.finish());
                    break;
                }
                Ok(n) => {
                    self.machine.receive(&buf[..n], |event| wire.push(event));
                    metrics.record_read_buffer(self.machine.buffered());
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Transport failure voids the connection: nothing
                    // already framed is worth answering.
                    self.dead = true;
                    return Vec::new();
                }
            }
        }
        wire
    }

    /// Reserves the next slot for an in-flight request and returns
    /// its sequence number.
    pub fn reserve_slot(&mut self) -> u64 {
        let seq = self.base_seq + self.slots.len() as u64;
        self.slots.push_back(None);
        self.pending += 1;
        seq
    }

    /// Delivers a response into its reserved slot.
    pub fn fill_slot(&mut self, seq: u64, line: String) {
        let idx = seq.wrapping_sub(self.base_seq) as usize;
        if let Some(slot @ None) = self.slots.get_mut(idx) {
            *slot = Some(line);
            self.pending -= 1;
        }
    }

    /// Moves the answered slot prefix into the write buffer, flushes as
    /// much as the socket takes, updates backpressure state and poll
    /// interest. Returns true when the connection should be closed
    /// (dead, or drained after EOF / during shutdown).
    pub fn pump(
        &mut self,
        poller: &Poller,
        token: u64,
        metrics: &ServeMetrics,
        cfg: &EventLoopConfig,
        stopping: bool,
    ) -> bool {
        if self.dead {
            return true;
        }
        while matches!(self.slots.front(), Some(Some(_))) {
            let line = self
                .slots
                .pop_front()
                .flatten()
                .expect("answered slot prefix");
            self.base_seq += 1;
            self.out.extend_from_slice(line.as_bytes());
            self.out.push(b'\n');
        }
        metrics.record_write_buffer(self.out.len() - self.out_pos);
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    return true;
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return true;
                }
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos >= COMPACT_WRITE_BUFFER {
            // Reclaim the drained prefix: without this a connection
            // that is never fully flushed in one pump (a slow reader
            // under pipelined load) keeps every byte it ever sent,
            // and the buffer tracks lifetime traffic instead of the
            // bytes still owed to the socket.
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        if self.out.is_empty() && self.slots.is_empty() && (self.eof || stopping) {
            return true;
        }
        let buffered = self.out.len() - self.out_pos;
        let (pause_above, resume_at) = backpressure_thresholds(cfg.max_write_buffer);
        if !self.paused && buffered > pause_above {
            self.paused = true;
        } else if self.paused && buffered <= resume_at {
            self.paused = false;
        }
        let want_read = !self.eof && !self.paused;
        let want_write = self.out_pos < self.out.len();
        if (want_read, want_write) != (self.want_read, self.want_write) {
            self.want_read = want_read;
            self.want_write = want_write;
            let _ = poller.modify(
                self.stream.as_raw_fd(),
                token,
                Interest {
                    readable: want_read,
                    writable: want_write,
                },
            );
        }
        false
    }
}

/// Drains the accept queue: new connections are registered read-only,
/// or turned away with one `busy` line when over the cap (or during
/// shutdown).
fn accept_ready(
    listener: &TcpListener,
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    metrics: &ServeMetrics,
    cfg: &EventLoopConfig,
    stopping: bool,
) -> std::io::Result<()> {
    loop {
        match listener.accept() {
            Ok((mut stream, _)) => {
                if stopping || conns.len() >= cfg.max_conns {
                    metrics.record_shed();
                    let reason = if stopping {
                        "server shutting down".to_owned()
                    } else {
                        format!("connection limit {} reached", cfg.max_conns)
                    };
                    // Best effort: a just-accepted socket has an empty
                    // send buffer, so this short line will not block.
                    let mut line = render_busy(&reason);
                    line.push('\n');
                    let _ = stream.set_nodelay(true);
                    let _ = stream.write_all(line.as_bytes());
                    continue; // drop closes it
                }
                stream.set_nonblocking(true)?;
                let _ = stream.set_nodelay(true);
                let token = *next_token;
                *next_token += 1;
                poller.add(stream.as_raw_fd(), token, Interest::READ)?;
                metrics.record_connect();
                conns.insert(token, Conn::new(stream));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            // Transient per-connection accept failures (ECONNABORTED
            // and friends): skip, the listener itself is fine.
            Err(_) => return Ok(()),
        }
    }
}

/// Reads whatever the socket has (bounded per readiness report) and
/// handles every completed line: control verbs answer at once, scoring
/// requests pass admission control into the tick's batch.
fn read_ready(
    conn: &mut Conn,
    token: u64,
    tick: &mut TickBatch<'_>,
    metrics: &ServeMetrics,
    cfg: &EventLoopConfig,
    stopping: &mut bool,
) {
    let events = conn.read_wire_events(metrics);
    let parsed = Instant::now();
    for event in events {
        match handle_event(event, metrics) {
            Handled::Answered(line, action) => {
                conn.push_response(line);
                if action == Action::Shutdown {
                    *stopping = true;
                }
            }
            Handled::Score { row, votes } => {
                if conn.pending >= cfg.max_pending_per_conn {
                    metrics.record_shed();
                    conn.push_response(render_busy(&format!(
                        "connection pending cap {} reached",
                        cfg.max_pending_per_conn
                    )));
                } else if tick.len() >= cfg.max_inflight {
                    metrics.record_shed();
                    conn.push_response(render_busy(&format!(
                        "max-inflight {} reached",
                        cfg.max_inflight
                    )));
                } else if let Some(error) = tick.reject(&row, metrics) {
                    conn.push_response(error);
                } else {
                    metrics.record_request();
                    tick.push(token, conn.reserve_slot(), &row, votes, parsed);
                }
            }
        }
    }
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
        fn predict_one(&self, features: &[f32]) -> u32 {
            assert!(!features[0].is_nan(), "marked row");
            0
        }
        fn predict_votes(&self, features: &[f32]) -> Vec<u32> {
            vec![self.predict_one(features)]
        }
        fn predict_batch(
            &self,
            matrix: &flint_data::FeatureMatrix,
            _opts: &flint_exec::BatchOptions,
        ) -> Vec<u32> {
            (0..matrix.n_samples())
                .map(|i| self.predict_one(&[matrix.get(i, 0)]))
                .collect()
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
                tick.push(FIRST_CONN, seq as u64, &[x], seq == 2, Instant::now());
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
                    (FIRST_CONN, i as u64),
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
            .add(server_side.as_raw_fd(), FIRST_CONN, Interest::READ)
            .expect("registers");
        let metrics = ServeMetrics::default();
        let cfg = EventLoopConfig::default().max_write_buffer(1);
        let mut conn = Conn::new(server_side);

        // Stage far more than the kernel socket buffers will take while
        // the peer reads nothing, so the flush stalls mid-buffer.
        const LINE: usize = 1 << 20;
        const LINES: usize = 32;
        for _ in 0..LINES {
            conn.push_response("x".repeat(LINE));
        }
        let staged = LINES * (LINE + 1); // one newline per line
        assert!(!conn.pump(&poller, FIRST_CONN, &metrics, &cfg, false));
        assert!(
            conn.out.len() - conn.out_pos > 0,
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
            assert!(!conn.pump(&poller, FIRST_CONN, &metrics, &cfg, false));
            assert!(
                conn.out_pos < COMPACT_WRITE_BUFFER,
                "drained prefix of {} bytes was never compacted",
                conn.out_pos
            );
            if !conn.out.is_empty() && conn.out.len() < staged / 2 {
                saw_shrunk_live_buffer = true;
            }
        }
        assert!(
            saw_shrunk_live_buffer,
            "write buffer never compacted mid-drain"
        );
        assert!(conn.out.is_empty(), "fully acked buffer should be clear");
        assert!(!conn.paused, "drained connection must resume reads");
        assert_eq!(metrics.snapshot().write_hwm, staged as u64);
    }
}
