//! The fan-out/merge event loop: one epoll thread fronting N forest
//! shards.
//!
//! Clients are driven by [`flint_serve::Conn`] — the same framing,
//! ordered response slots and write-backpressure machinery as a shard's
//! own event loop. Shard links are thinner: a nonblocking stream, a
//! bare [`LineMachine`] framing *responses*, and a FIFO of request ids,
//! because the shard protocol answers strictly in request order per
//! connection (the ordered-slot invariant the serve loop enforces).
//! That FIFO discipline is what lets the router match replies to
//! requests without an id field on the wire.
//!
//! A data request is admitted only when **every** shard link is up;
//! each shard receives the row as a `votes:` line, and the reply
//! histograms are summed with [`merge_votes`] before the one canonical
//! [`majority_vote`] tie-break. Any shard shedding, disagreeing on
//! arity, or dying mid-request fails that request *visibly* (`busy` /
//! `error` naming the shard) — a partial quorum is never merged,
//! because a majority over half the forest is a wrong answer that
//! looks like a right one.

use epoll::{Events, Interest, Poller};
use flint_forest::metrics::majority_vote;
use flint_forest::votes::{merge_votes, parse_votes};
use flint_serve::{
    render_busy, render_error, render_votes, write_row, Conn, EventLoopConfig, FramedLine,
    LineMachine, MetricsSnapshot, Request, ServeMetrics, WireEvent,
};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Poll token of the accept listener.
const LISTENER: u64 = 0;
/// First token handed to a connection or shard link (monotonic, never
/// reused, so a stale readiness report can never reach a newer peer).
const FIRST_TOKEN: u64 = 2;
/// Upper bound on one `epoll_wait` sleep: reconnect and shutdown
/// bookkeeping runs at least this often even with no I/O.
const POLL_TICK: Duration = Duration::from_millis(100);
/// Bytes per `read` call on a shard link.
const READ_CHUNK: usize = 4096;
/// Reads taken from one shard link per readiness report; level-
/// triggered epoll re-reports leftovers.
const READ_BURSTS: usize = 16;
/// Drained-prefix size past which a shard link's write buffer is
/// compacted (same hygiene as the serve loop's client buffers).
const COMPACT_WRITE_BUFFER: usize = 4096;
/// How long a failed shard link stays down before the next blocking
/// connect attempt.
const RECONNECT_INTERVAL: Duration = Duration::from_millis(500);

/// Default listen address of `flint route` (one above the serve
/// default, so a router and a shard co-habit a dev box).
pub const DEFAULT_ROUTER_ADDR: &str = "127.0.0.1:7979";

/// The sharded fan-out/merge inference tier: accepts clients on the
/// standard line protocol and answers each predict/votes request by
/// merging per-shard vote histograms from N upstream `flint serve`
/// shards.
///
/// ```no_run
/// use flint_router::RouterServer;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let shards = vec!["127.0.0.1:7878".parse()?, "127.0.0.1:7879".parse()?];
/// let router = RouterServer::bind("127.0.0.1:7979", shards)?;
/// println!("routing on {}", router.local_addr());
/// let final_stats = router.run()?; // until a client sends `shutdown`
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RouterServer {
    listener: TcpListener,
    local_addr: SocketAddr,
    shard_addrs: Vec<SocketAddr>,
    config: EventLoopConfig,
}

impl RouterServer {
    /// Binds `addr` in front of `shards` with the default
    /// [`EventLoopConfig`].
    ///
    /// # Errors
    ///
    /// `InvalidInput` on an empty shard list; any [`std::io::Error`]
    /// from binding the listener.
    pub fn bind(addr: &str, shards: Vec<SocketAddr>) -> std::io::Result<Self> {
        Self::bind_with_config(addr, shards, EventLoopConfig::default())
    }

    /// Binds `addr` with explicit admission-control limits.
    /// `max_inflight` caps requests fanned out and unanswered across
    /// all clients; `max_pending_per_conn` and `max_write_buffer` mean
    /// exactly what they mean on a shard.
    ///
    /// # Errors
    ///
    /// `InvalidInput` on an empty shard list; any [`std::io::Error`]
    /// from binding the listener.
    pub fn bind_with_config(
        addr: &str,
        shards: Vec<SocketAddr>,
        config: EventLoopConfig,
    ) -> std::io::Result<Self> {
        if shards.is_empty() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "router needs at least one shard address",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Self {
            listener,
            local_addr,
            shard_addrs: shards,
            config,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The admission-control limits in force.
    pub fn config(&self) -> EventLoopConfig {
        self.config
    }

    /// Runs the router until a client sends `shutdown`, then drains
    /// every in-flight fan-out, flushes and closes every client, and
    /// returns the final metrics snapshot.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from the poller or listener (including
    /// `Unsupported` on non-Linux targets); per-connection and
    /// per-shard I/O errors only end that peer.
    pub fn run(self) -> std::io::Result<MetricsSnapshot> {
        let RouterServer {
            listener,
            local_addr: _,
            shard_addrs,
            config,
        } = self;
        let poller = Poller::new()?;
        listener.set_nonblocking(true)?;
        poller.add(listener.as_raw_fd(), LISTENER, Interest::READ)?;
        let now = Instant::now();
        let mut state = RouterLoop {
            listener,
            poller,
            metrics: ServeMetrics::default(),
            cfg: config,
            clients: HashMap::new(),
            shards: shard_addrs
                .into_iter()
                .map(|addr| Shard {
                    addr,
                    link: None,
                    next_attempt: now,
                })
                .collect(),
            shard_tokens: HashMap::new(),
            pending: HashMap::new(),
            next_token: FIRST_TOKEN,
            next_req: 0,
            stopping: false,
            draining: false,
        };
        state.connect_down_shards();

        let mut events = Events::with_capacity(1024);
        let mut accepting = true;
        let mut client_events: Vec<(u64, WireEvent)> = Vec::new();
        let mut ready_shards: Vec<usize> = Vec::new();
        loop {
            state.poller.wait(&mut events, Some(POLL_TICK))?;
            // Copy the reports out so `events` is free for the next
            // wait and the borrow checker is free for the state.
            let ready: Vec<epoll::Event> = events.iter().collect();
            client_events.clear();
            ready_shards.clear();
            for event in ready {
                match event.token {
                    LISTENER => state.accept_clients()?,
                    token => {
                        if let Some(&idx) = state.shard_tokens.get(&token) {
                            if event.readable || event.closed {
                                ready_shards.push(idx);
                            }
                            // Writability is handled by the flush pass.
                        } else if let Some(conn) = state.clients.get_mut(&token) {
                            if event.readable || event.closed {
                                for ev in conn.read_wire_events(&state.metrics) {
                                    client_events.push((token, ev));
                                }
                            }
                        }
                    }
                }
            }
            // Client requests fan out first (appending to shard write
            // buffers), then shard replies land, then the flush pass
            // pushes the fresh fan-outs — one tick, no extra wakeups.
            for (token, ev) in client_events.drain(..) {
                state.handle_client_event(token, ev);
            }
            for idx in ready_shards.drain(..) {
                state.shard_readable(idx);
            }
            state.connect_down_shards();
            state.flush_shards();

            if state.stopping && accepting {
                accepting = false;
                let _ = state.poller.delete(state.listener.as_raw_fd());
            }
            state.pump_clients();
            if state.stopping && state.clients.is_empty() {
                break;
            }
        }
        Ok(state.metrics.snapshot())
    }
}

/// One configured upstream shard: its address and, when up, the live
/// link. `next_attempt` rate-limits reconnects after a failure.
#[derive(Debug)]
struct Shard {
    addr: SocketAddr,
    link: Option<ShardLink>,
    next_attempt: Instant,
}

/// One live upstream connection. Replies arrive strictly in request
/// order (the shard's ordered-slot guarantee), so `fifo` — request ids
/// in send order — is the whole reply-matching story.
#[derive(Debug)]
struct ShardLink {
    stream: TcpStream,
    token: u64,
    /// Frames shard *response* lines; no request parsing on this side.
    lines: LineMachine,
    /// Bytes waiting for the shard socket; `out_pos..` is unsent.
    out: Vec<u8>,
    out_pos: usize,
    /// Request ids of fanned-out rows this shard has not answered yet.
    fifo: VecDeque<u64>,
    want_write: bool,
}

impl ShardLink {
    /// Flushes as much of the out buffer as the socket takes, compacts
    /// the drained prefix and updates write interest. Returns true when
    /// the link died.
    fn flush(&mut self, poller: &Poller) -> bool {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return true,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos >= COMPACT_WRITE_BUFFER {
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        let want_write = self.out_pos < self.out.len();
        if want_write != self.want_write {
            self.want_write = want_write;
            let _ = poller.modify(
                self.stream.as_raw_fd(),
                self.token,
                Interest {
                    readable: true,
                    writable: want_write,
                },
            );
        }
        false
    }
}

/// One fanned-out request waiting for its shard histograms.
#[derive(Debug)]
struct Pending {
    /// Token of the client connection that owns the reserved slot.
    client: u64,
    /// The reserved response-slot sequence number on that connection.
    seq: u64,
    /// `votes:` requests get the merged histogram back; plain requests
    /// get the majority class of the merged histogram.
    wants_votes: bool,
    /// Running histogram sum; empty until the first shard answers.
    votes: Vec<u32>,
    /// Shards that have not answered yet.
    awaiting: usize,
    enqueued: Instant,
}

/// One parsed shard response line.
enum ShardReply {
    /// A vote histogram partial.
    Votes(Vec<u32>),
    /// The shard shed the request (`"busy":true`); reason without the
    /// `busy: ` prefix.
    Shed(String),
    /// Any other error line.
    Failed(String),
}

/// The mutable state of one running router. Methods take `&mut self`
/// and rely on field-disjoint borrows (clients vs. shards vs. poller).
#[derive(Debug)]
struct RouterLoop {
    listener: TcpListener,
    poller: Poller,
    metrics: ServeMetrics,
    cfg: EventLoopConfig,
    clients: HashMap<u64, Conn>,
    shards: Vec<Shard>,
    /// Poll token → index into `shards` for live links.
    shard_tokens: HashMap<u64, usize>,
    /// Request id → fan-out bookkeeping. A request failed early (shard
    /// death, shed) is removed here; its straggler replies are
    /// recognised by their absence and skipped.
    pending: HashMap<u64, Pending>,
    next_token: u64,
    next_req: u64,
    stopping: bool,
    draining: bool,
}

impl RouterLoop {
    /// Drains the accept queue; same admission shape as a shard's own
    /// accept path (over-cap and shutting-down connections get one
    /// `busy` line and are closed).
    fn accept_clients(&mut self) -> std::io::Result<()> {
        loop {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    if self.stopping || self.clients.len() >= self.cfg.max_conns {
                        self.metrics.record_shed();
                        let reason = if self.stopping {
                            "router shutting down".to_owned()
                        } else {
                            format!("connection limit {} reached", self.cfg.max_conns)
                        };
                        let mut line = render_busy(&reason);
                        line.push('\n');
                        let _ = stream.set_nodelay(true);
                        let _ = stream.write_all(line.as_bytes());
                        continue; // drop closes it
                    }
                    stream.set_nonblocking(true)?;
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    self.poller.add(stream.as_raw_fd(), token, Interest::READ)?;
                    self.metrics.record_connect();
                    self.clients.insert(token, Conn::new(stream));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Ok(()),
            }
        }
    }

    /// Appends an immediately-answered response line to a client.
    fn respond(&mut self, token: u64, line: String) {
        if let Some(conn) = self.clients.get_mut(&token) {
            conn.push_response(line);
        }
    }

    /// Dispatches one parsed client line: control verbs answer from
    /// router state, data requests fan out to every shard.
    fn handle_client_event(&mut self, token: u64, event: WireEvent) {
        match event {
            WireEvent::Request(Request::Predict(row)) => self.handle_request(token, row, false),
            WireEvent::Request(Request::Votes(row)) => self.handle_request(token, row, true),
            WireEvent::Request(Request::Stats) => {
                let line = self
                    .metrics
                    .snapshot()
                    .to_json_with_shards(&self.shard_map_json());
                self.respond(token, line);
            }
            WireEvent::Request(Request::Health) => {
                let up = self.shards.iter().filter(|s| s.link.is_some()).count();
                let ok = up == self.shards.len();
                let line = format!(
                    "{{\"ok\":{ok},\"role\":\"router\",\"shards_up\":{up},\"shards\":{},\"draining\":{}}}",
                    self.shards.len(),
                    self.draining
                );
                self.respond(token, line);
            }
            WireEvent::Request(Request::ShardMap) => {
                let line = format!("{{\"shards\":{}}}", self.shard_map_json());
                self.respond(token, line);
            }
            WireEvent::Request(Request::ShardMapSet(addrs)) => {
                self.replace_shard_map(token, addrs);
            }
            WireEvent::Request(Request::Drain) => {
                self.draining = true;
                self.respond(token, "{\"ok\":\"draining\"}".to_owned());
            }
            WireEvent::Request(Request::Undrain) => {
                self.draining = false;
                self.respond(token, "{\"ok\":\"accepting\"}".to_owned());
            }
            WireEvent::Request(Request::Shutdown) => {
                self.stopping = true;
                self.respond(token, "{\"ok\":\"shutting down\"}".to_owned());
            }
            WireEvent::Invalid(e) => self.respond(token, render_error(&e.to_string())),
            WireEvent::Oversized { limit } => {
                self.respond(
                    token,
                    render_error(&format!("request line exceeds {limit} bytes")),
                );
            }
        }
    }

    /// Admits one data request and fans it out, or sheds it with a
    /// visible `busy`. The all-shards-up check runs *before* any bytes
    /// are queued: a request is either fanned to every shard or to
    /// none.
    fn handle_request(&mut self, token: u64, row: Vec<f32>, wants_votes: bool) {
        let Some(pending_on_conn) = self.clients.get(&token).map(Conn::pending) else {
            return;
        };
        if self.draining || self.stopping {
            self.metrics.record_shed();
            self.respond(token, render_busy("router draining"));
            return;
        }
        if pending_on_conn >= self.cfg.max_pending_per_conn {
            self.metrics.record_shed();
            self.respond(
                token,
                render_busy(&format!(
                    "connection pending cap {} reached",
                    self.cfg.max_pending_per_conn
                )),
            );
            return;
        }
        if self.pending.len() >= self.cfg.max_inflight {
            self.metrics.record_shed();
            self.respond(
                token,
                render_busy(&format!("max-inflight {} reached", self.cfg.max_inflight)),
            );
            return;
        }
        if let Some(down) = self.shards.iter().find(|s| s.link.is_none()) {
            self.metrics.record_shed();
            self.respond(token, render_busy(&format!("shard {} down", down.addr)));
            return;
        }
        self.metrics.record_request();
        let seq = self
            .clients
            .get_mut(&token)
            .expect("admitted client exists")
            .reserve_slot();
        let req_id = self.next_req;
        self.next_req += 1;
        self.pending.insert(
            req_id,
            Pending {
                client: token,
                seq,
                wants_votes,
                votes: Vec::new(),
                awaiting: self.shards.len(),
                enqueued: Instant::now(),
            },
        );
        // The shard parses back the identical bits the client sent.
        let mut line = String::from("votes:");
        write_row(&mut line, &row);
        line.push('\n');
        for shard in &mut self.shards {
            let link = shard.link.as_mut().expect("all shards checked up");
            link.out.extend_from_slice(line.as_bytes());
            link.fifo.push_back(req_id);
        }
    }

    /// Reads one ready shard link, frames complete response lines and
    /// applies each to the request at the front of the link's FIFO.
    /// Any framing or ordering violation kills the link (and fails its
    /// in-flight requests visibly) rather than risking a misattributed
    /// reply.
    fn shard_readable(&mut self, idx: usize) {
        let Some(link) = self.shards[idx].link.as_mut() else {
            return;
        };
        let mut buf = [0u8; READ_CHUNK];
        let mut frames: Vec<Option<Vec<u8>>> = Vec::new();
        let mut dead = false;
        for _ in 0..READ_BURSTS {
            match link.stream.read(&mut buf) {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => link.lines.receive(&buf[..n], |frame| {
                    frames.push(match frame {
                        FramedLine::Line(line) => Some(line.to_vec()),
                        FramedLine::Oversized { .. } => None,
                    })
                }),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        let addr = self.shards[idx].addr;
        for frame in frames {
            let Some(line) = frame else {
                // An oversized response line: the link is not speaking
                // our protocol.
                dead = true;
                break;
            };
            let Some(req_id) = self.shards[idx]
                .link
                .as_mut()
                .and_then(|l| l.fifo.pop_front())
            else {
                // A reply with no outstanding request is a protocol
                // violation; FIFO matching is no longer trustworthy.
                dead = true;
                break;
            };
            let reply = parse_shard_reply(&String::from_utf8_lossy(&line));
            self.apply_shard_reply(req_id, addr, reply);
        }
        if dead {
            self.fail_shard(idx);
        }
    }

    /// Folds one shard's reply into its pending fan-out. The first
    /// failure (shed, error, arity mismatch) finalizes the request
    /// immediately; straggler replies from other shards find no
    /// pending entry and are skipped — their FIFO positions were
    /// already consumed, so matching stays aligned.
    fn apply_shard_reply(&mut self, req_id: u64, addr: SocketAddr, reply: ShardReply) {
        let Some(mut p) = self.pending.remove(&req_id) else {
            return;
        };
        match reply {
            ShardReply::Votes(votes) => {
                if votes.is_empty() {
                    self.finalize(
                        p,
                        render_error(&format!("shard {addr} returned an empty histogram")),
                    );
                    return;
                }
                if p.votes.is_empty() {
                    p.votes = votes;
                } else if p.votes.len() == votes.len() {
                    merge_votes(&mut p.votes, &votes);
                } else {
                    self.finalize(
                        p,
                        render_error(&format!("shard {addr} histogram arity disagrees")),
                    );
                    return;
                }
                p.awaiting -= 1;
                if p.awaiting > 0 {
                    self.pending.insert(req_id, p);
                    return;
                }
                let n_shards = self.shards.len();
                let line = if p.wants_votes {
                    render_votes(&p.votes, "router", n_shards)
                } else {
                    format!(
                        "{{\"class\":{},\"engine\":\"router\",\"batch\":{n_shards}}}",
                        majority_vote(&p.votes)
                    )
                };
                self.finalize(p, line);
            }
            ShardReply::Shed(reason) => {
                self.metrics.record_shed();
                self.finalize(p, render_busy(&format!("shard {addr}: {reason}")));
            }
            ShardReply::Failed(reason) => {
                self.finalize(p, render_error(&format!("shard {addr}: {reason}")));
            }
        }
    }

    /// Delivers the final response line into the client's reserved
    /// slot (the client may already be gone; the latency still
    /// happened).
    fn finalize(&mut self, p: Pending, line: String) {
        self.metrics.record_latency(p.enqueued.elapsed());
        if let Some(conn) = self.clients.get_mut(&p.client) {
            conn.fill_slot(p.seq, line);
        }
    }

    /// Tears down one shard link: every request still in its FIFO that
    /// is still pending fails with a visible `busy` naming the shard —
    /// never a silent drop, never a partial-quorum merge.
    fn fail_shard(&mut self, idx: usize) {
        let addr = self.shards[idx].addr;
        if let Some(link) = self.shards[idx].link.take() {
            self.shard_tokens.remove(&link.token);
            let _ = self.poller.delete(link.stream.as_raw_fd());
            for req_id in link.fifo {
                if let Some(p) = self.pending.remove(&req_id) {
                    self.metrics.record_shed();
                    self.finalize(p, render_busy(&format!("shard {addr} died mid-request")));
                }
            }
        }
        self.shards[idx].next_attempt = Instant::now() + RECONNECT_INTERVAL;
    }

    /// Dials every down shard whose backoff has elapsed. Connects are
    /// blocking (loopback/LAN peers fail fast with ECONNREFUSED); a
    /// failure just pushes the next attempt out.
    fn connect_down_shards(&mut self) {
        let now = Instant::now();
        for idx in 0..self.shards.len() {
            if self.shards[idx].link.is_some() || now < self.shards[idx].next_attempt {
                continue;
            }
            self.connect_shard(idx);
        }
    }

    /// One connect attempt for one shard.
    fn connect_shard(&mut self, idx: usize) {
        let addr = self.shards[idx].addr;
        let backoff = Instant::now() + RECONNECT_INTERVAL;
        let Ok(stream) = TcpStream::connect(addr) else {
            self.shards[idx].next_attempt = backoff;
            return;
        };
        if stream.set_nonblocking(true).is_err() {
            self.shards[idx].next_attempt = backoff;
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .add(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            self.shards[idx].next_attempt = backoff;
            return;
        }
        self.shard_tokens.insert(token, idx);
        self.shards[idx].link = Some(ShardLink {
            stream,
            token,
            lines: LineMachine::new(),
            out: Vec::new(),
            out_pos: 0,
            fifo: VecDeque::new(),
            want_write: false,
        });
    }

    /// Flushes every live shard link; a dead one fails over.
    fn flush_shards(&mut self) {
        for idx in 0..self.shards.len() {
            let dead = match self.shards[idx].link.as_mut() {
                Some(link) => link.flush(&self.poller),
                None => false,
            };
            if dead {
                self.fail_shard(idx);
            }
        }
    }

    /// Pumps every client: answered slot prefixes flush out, finished
    /// or dead connections close. Runs every tick so idle and stopping
    /// connections drain without a readiness report.
    fn pump_clients(&mut self) {
        let tokens: Vec<u64> = self.clients.keys().copied().collect();
        for token in tokens {
            let Some(conn) = self.clients.get_mut(&token) else {
                continue;
            };
            if conn.pump(&self.poller, token, &self.metrics, &self.cfg, self.stopping) {
                let conn = self.clients.remove(&token).expect("live connection");
                let _ = self.poller.delete(conn.stream.as_raw_fd());
                self.metrics.record_disconnect();
            }
        }
    }

    /// The shard map as a JSON array (spliced into `stats`, returned
    /// by `shardmap`).
    fn shard_map_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let inflight = s.link.as_ref().map_or(0, |l| l.fifo.len());
            out.push_str(&format!(
                "{{\"addr\":\"{}\",\"up\":{},\"inflight\":{inflight}}}",
                s.addr,
                s.link.is_some()
            ));
        }
        out.push(']');
        out
    }

    /// `shardmap set a,b`: validates the new addresses, fails every
    /// in-flight request visibly (the span layout is changing under
    /// it), drops all links and dials the new map.
    fn replace_shard_map(&mut self, token: u64, addrs: Vec<String>) {
        let mut parsed: Vec<SocketAddr> = Vec::with_capacity(addrs.len());
        for a in &addrs {
            match a.parse() {
                Ok(sa) => parsed.push(sa),
                Err(_) => {
                    self.respond(
                        token,
                        render_error(&format!("shardmap set: invalid shard address `{a}`")),
                    );
                    return;
                }
            }
        }
        let inflight: Vec<u64> = self.pending.keys().copied().collect();
        for req_id in inflight {
            if let Some(p) = self.pending.remove(&req_id) {
                self.metrics.record_shed();
                self.finalize(p, render_busy("shard map replaced mid-request"));
            }
        }
        for shard in &mut self.shards {
            if let Some(link) = shard.link.take() {
                self.shard_tokens.remove(&link.token);
                let _ = self.poller.delete(link.stream.as_raw_fd());
            }
        }
        let now = Instant::now();
        self.shards = parsed
            .into_iter()
            .map(|addr| Shard {
                addr,
                link: None,
                next_attempt: now,
            })
            .collect();
        self.connect_down_shards();
        let line = format!("{{\"shards\":{}}}", self.shard_map_json());
        self.respond(token, line);
    }
}

/// Extracts the message of an `{"error":"..."}` line (unescaping is
/// skipped: the router re-escapes when it re-renders).
fn extract_error(line: &str) -> String {
    let Some(start) = line.find("\"error\":\"") else {
        return line.trim().to_owned();
    };
    let rest = &line[start + "\"error\":\"".len()..];
    let mut out = String::new();
    let mut escaped = false;
    for c in rest.chars() {
        match c {
            _ if escaped => {
                out.push(c);
                escaped = false;
            }
            '\\' => escaped = true,
            '"' => return out,
            c => out.push(c),
        }
    }
    out
}

/// Classifies one shard response line.
fn parse_shard_reply(line: &str) -> ShardReply {
    if line.contains("\"busy\":true") {
        let reason = extract_error(line);
        let reason = reason.strip_prefix("busy: ").unwrap_or(&reason).to_owned();
        return ShardReply::Shed(reason);
    }
    if let Some(start) = line.find("\"votes\":[") {
        let array = &line[start + "\"votes\":".len()..];
        // Vote histograms are flat integer arrays: the first `]`
        // closes it.
        if let Some(end) = array.find(']') {
            return match parse_votes(&array[..=end]) {
                Ok(votes) => ShardReply::Votes(votes),
                Err(e) => ShardReply::Failed(format!("unparseable votes reply: {e}")),
            };
        }
    }
    ShardReply::Failed(extract_error(line))
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use flint_data::synth::SynthSpec;
    use flint_exec::{EngineBuilder, EngineKind};
    use flint_forest::{ForestConfig, RandomForest};
    use flint_serve::{BatchPolicy, EpollServer};
    use std::io::{BufRead, BufReader};
    use std::thread::JoinHandle;

    fn forest_and_data() -> (RandomForest, flint_data::Dataset) {
        let data = SynthSpec::new(90, 4, 3).seed(5).generate();
        let forest = RandomForest::fit(&data, &ForestConfig::grid(4, 6)).expect("trainable");
        (forest, data)
    }

    /// Spawns one `flint serve`-equivalent epoll shard over a tree
    /// span, returning its address and runner thread.
    fn spawn_shard(
        forest: &RandomForest,
        span: (usize, usize),
    ) -> (SocketAddr, JoinHandle<MetricsSnapshot>) {
        let part = forest.tree_span(span.0, span.1);
        let engine = EngineBuilder::new(&part)
            .build(EngineKind::parse("flint-blocked").expect("registered"))
            .expect("builds");
        let server = EpollServer::bind("127.0.0.1:0", engine, BatchPolicy::default().workers(1))
            .expect("binds loopback");
        let addr = server.local_addr();
        let runner = std::thread::spawn(move || server.run().expect("shard serves"));
        (addr, runner)
    }

    fn shutdown_peer(addr: SocketAddr) {
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = s.write_all(b"shutdown\n");
            let _ = s.read(&mut [0u8; 256]);
        }
    }

    struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
        line: String,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Self {
            let stream = TcpStream::connect(addr).expect("connects");
            stream.set_nodelay(true).expect("nodelay");
            Self {
                reader: BufReader::new(stream.try_clone().expect("clones")),
                writer: stream,
                line: String::new(),
            }
        }

        fn roundtrip(&mut self, request: &str) -> &str {
            writeln!(self.writer, "{request}").expect("writes");
            self.line.clear();
            self.reader.read_line(&mut self.line).expect("reads");
            self.line.trim_end()
        }
    }

    #[test]
    fn router_merges_shard_histograms_bit_identically() {
        let (forest, data) = forest_and_data();
        let spans = forest.plan_spans(2);
        let shards: Vec<_> = spans.iter().map(|&s| spawn_shard(&forest, s)).collect();
        let shard_addrs: Vec<SocketAddr> = shards.iter().map(|(a, _)| *a).collect();
        let router = RouterServer::bind("127.0.0.1:0", shard_addrs.clone()).expect("router binds");
        let addr = router.local_addr();
        let runner = std::thread::spawn(move || router.run().expect("routes"));

        let mut client = Client::connect(addr);
        for i in 0..12 {
            let row: Vec<String> = data.sample(i).iter().map(f32::to_string).collect();
            let expected_class = forest.predict_majority(data.sample(i));
            let got = client.roundtrip(&row.join(","));
            assert!(
                got.starts_with(&format!(
                    "{{\"class\":{expected_class},\"engine\":\"router\""
                )),
                "sample {i}: {got}"
            );
            let expected_votes =
                flint_forest::votes::render_votes(&forest.predict_votes(data.sample(i)));
            let got = client.roundtrip(&format!("votes:{}", row.join(",")));
            assert!(
                got.starts_with(&format!(
                    "{{\"votes\":{expected_votes},\"engine\":\"router\""
                )),
                "sample {i}: {got}"
            );
        }
        // Control plane sanity on the same connection.
        let health = client.roundtrip("health").to_owned();
        assert!(
            health.contains("\"ok\":true") && health.contains("\"shards_up\":2"),
            "{health}"
        );
        let map = client.roundtrip("shardmap").to_owned();
        assert!(
            map.contains(&format!("\"addr\":\"{}\"", shard_addrs[0])),
            "{map}"
        );
        let stats = client.roundtrip("stats").to_owned();
        assert!(stats.contains("\"requests\":24"), "{stats}");
        assert!(stats.contains("\"shards\":["), "{stats}");

        assert!(client.roundtrip("shutdown").contains("shutting down"));
        let snapshot = runner.join().expect("router thread");
        assert_eq!(snapshot.requests, 24);
        assert_eq!(snapshot.connections, 0);
        for (addr, runner) in shards {
            shutdown_peer(addr);
            runner.join().expect("shard thread");
        }
    }

    #[test]
    fn router_with_a_down_shard_answers_busy_not_wrong() {
        let (forest, data) = forest_and_data();
        let (up_addr, up_runner) = spawn_shard(&forest, (0, 2));
        // A bound-then-dropped listener: guaranteed-refused port.
        let down_addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("binds");
            l.local_addr().expect("addr")
        };
        let router =
            RouterServer::bind("127.0.0.1:0", vec![up_addr, down_addr]).expect("router binds");
        let addr = router.local_addr();
        let runner = std::thread::spawn(move || router.run().expect("routes"));

        let mut client = Client::connect(addr);
        let row: Vec<String> = data.sample(0).iter().map(f32::to_string).collect();
        let got = client.roundtrip(&row.join(",")).to_owned();
        assert!(got.contains("\"busy\":true"), "{got}");
        assert!(got.contains(&format!("shard {down_addr} down")), "{got}");
        let health = client.roundtrip("health").to_owned();
        assert!(health.contains("\"ok\":false"), "{health}");
        assert!(health.contains("\"shards_up\":1"), "{health}");

        assert!(client.roundtrip("shutdown").contains("shutting down"));
        runner.join().expect("router thread");
        shutdown_peer(up_addr);
        up_runner.join().expect("shard thread");
    }

    #[test]
    fn drain_sheds_data_but_keeps_answering_control() {
        let (forest, data) = forest_and_data();
        let (shard_addr, shard_runner) = spawn_shard(&forest, (0, 4));
        let router = RouterServer::bind("127.0.0.1:0", vec![shard_addr]).expect("router binds");
        let addr = router.local_addr();
        let runner = std::thread::spawn(move || router.run().expect("routes"));

        let mut client = Client::connect(addr);
        let row: Vec<String> = data.sample(3).iter().map(f32::to_string).collect();
        assert!(client.roundtrip("drain").contains("\"ok\":\"draining\""));
        let got = client.roundtrip(&row.join(",")).to_owned();
        assert!(
            got.contains("\"busy\":true") && got.contains("router draining"),
            "{got}"
        );
        let health = client.roundtrip("health").to_owned();
        assert!(health.contains("\"draining\":true"), "{health}");
        assert!(client.roundtrip("undrain").contains("\"ok\":\"accepting\""));
        let got = client.roundtrip(&row.join(",")).to_owned();
        let expected = forest.predict_majority(data.sample(3));
        assert!(
            got.starts_with(&format!("{{\"class\":{expected},")),
            "{got}"
        );

        assert!(client.roundtrip("shutdown").contains("shutting down"));
        runner.join().expect("router thread");
        shutdown_peer(shard_addr);
        shard_runner.join().expect("shard thread");
    }

    #[test]
    fn shardmap_set_replaces_the_upstreams_live() {
        let (forest, data) = forest_and_data();
        let spans = forest.plan_spans(2);
        let (a0, r0) = spawn_shard(&forest, spans[0]);
        let (a1, r1) = spawn_shard(&forest, spans[1]);
        // Start the router on just the first shard: its answers are a
        // partial forest's — then swap in the full two-shard map.
        let router = RouterServer::bind("127.0.0.1:0", vec![a0]).expect("router binds");
        let addr = router.local_addr();
        let runner = std::thread::spawn(move || router.run().expect("routes"));

        let mut client = Client::connect(addr);
        let map = client
            .roundtrip(&format!("shardmap set {a0},{a1}"))
            .to_owned();
        assert!(map.contains(&format!("\"addr\":\"{a1}\"")), "{map}");
        // The new links may still be dialing on the next tick; poll
        // health until both are up (bounded).
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let health = client.roundtrip("health").to_owned();
            if health.contains("\"shards_up\":2") {
                break;
            }
            assert!(Instant::now() < deadline, "shards never came up: {health}");
            std::thread::sleep(Duration::from_millis(10));
        }
        for i in 0..6 {
            let row: Vec<String> = data.sample(i).iter().map(f32::to_string).collect();
            let expected = forest.predict_majority(data.sample(i));
            let got = client.roundtrip(&row.join(",")).to_owned();
            assert!(
                got.starts_with(&format!("{{\"class\":{expected},")),
                "{got}"
            );
        }
        let bad = client.roundtrip("shardmap set not-an-addr").to_owned();
        assert!(bad.contains("invalid shard address"), "{bad}");

        assert!(client.roundtrip("shutdown").contains("shutting down"));
        runner.join().expect("router thread");
        for (addr, runner) in [(a0, r0), (a1, r1)] {
            shutdown_peer(addr);
            runner.join().expect("shard thread");
        }
    }

    #[test]
    fn shard_death_mid_stream_fails_visibly_and_recovers() {
        let (forest, data) = forest_and_data();
        let spans = forest.plan_spans(2);
        let (a0, r0) = spawn_shard(&forest, spans[0]);
        let (a1, r1) = spawn_shard(&forest, spans[1]);
        let router = RouterServer::bind("127.0.0.1:0", vec![a0, a1]).expect("router binds");
        let addr = router.local_addr();
        let runner = std::thread::spawn(move || router.run().expect("routes"));

        let mut client = Client::connect(addr);
        let row: Vec<String> = data.sample(1).iter().map(f32::to_string).collect();
        let expected = forest.predict_majority(data.sample(1));
        let got = client.roundtrip(&row.join(",")).to_owned();
        assert!(
            got.starts_with(&format!("{{\"class\":{expected},")),
            "{got}"
        );

        // Kill the second shard; the router must degrade to visible
        // busy answers (mid-request death or down-at-admission), never
        // a silently-partial class.
        shutdown_peer(a1);
        r1.join().expect("shard thread");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let got = client.roundtrip(&row.join(",")).to_owned();
            assert!(
                !got.starts_with("{\"class\":"),
                "partial-quorum merge leaked a class: {got}"
            );
            if got.contains("\"busy\":true") && got.contains("down") {
                break; // the link is torn down and admission now refuses
            }
            assert!(
                Instant::now() < deadline,
                "never saw the shard marked down: {got}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }

        // Restart a shard on a fresh port and swap the map: service
        // recovers with exact answers.
        let (a2, r2) = spawn_shard(&forest, spans[1]);
        client.roundtrip(&format!("shardmap set {a0},{a2}"));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let got = client.roundtrip(&row.join(",")).to_owned();
            if got.starts_with(&format!("{{\"class\":{expected},")) {
                break;
            }
            assert!(
                got.contains("\"busy\":true"),
                "wrong answer during recovery: {got}"
            );
            assert!(Instant::now() < deadline, "service never recovered: {got}");
            std::thread::sleep(Duration::from_millis(10));
        }

        assert!(client.roundtrip("shutdown").contains("shutting down"));
        runner.join().expect("router thread");
        for (addr, runner) in [(a0, r0), (a2, r2)] {
            shutdown_peer(addr);
            runner.join().expect("shard thread");
        }
    }

    #[test]
    fn malformed_and_oversized_lines_answer_without_fanning_out() {
        let (forest, _) = forest_and_data();
        let (shard_addr, shard_runner) = spawn_shard(&forest, (0, 4));
        let router = RouterServer::bind("127.0.0.1:0", vec![shard_addr]).expect("router binds");
        let addr = router.local_addr();
        let runner = std::thread::spawn(move || router.run().expect("routes"));

        let mut client = Client::connect(addr);
        let got = client.roundtrip("not,a,row,x").to_owned();
        assert!(got.contains("\"error\""), "{got}");
        let oversized = "1,".repeat(flint_serve::MAX_LINE_BYTES);
        let got = client.roundtrip(&oversized).to_owned();
        assert!(got.contains("exceeds"), "{got}");
        // The connection survived both and no request touched a shard.
        let stats = client.roundtrip("stats").to_owned();
        assert!(stats.contains("\"requests\":0"), "{stats}");

        assert!(client.roundtrip("shutdown").contains("shutting down"));
        runner.join().expect("router thread");
        shutdown_peer(shard_addr);
        shard_runner.join().expect("shard thread");
    }

    #[test]
    fn parse_shard_reply_classifies_the_three_shapes() {
        match parse_shard_reply("{\"votes\":[3,0,2],\"engine\":\"flint\",\"batch\":1}") {
            ShardReply::Votes(v) => assert_eq!(v, vec![3, 0, 2]),
            _ => panic!("votes line misclassified"),
        }
        match parse_shard_reply("{\"error\":\"busy: request queue full\",\"busy\":true}") {
            ShardReply::Shed(reason) => assert_eq!(reason, "request queue full"),
            _ => panic!("busy line misclassified"),
        }
        match parse_shard_reply("{\"error\":\"expected 4 features, got 2\"}") {
            ShardReply::Failed(reason) => assert_eq!(reason, "expected 4 features, got 2"),
            _ => panic!("error line misclassified"),
        }
    }
}
