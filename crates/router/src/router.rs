//! The fan-out/merge event loop: one epoll thread fronting N forest
//! shards, the role the router plays on `flint-serve`'s loop core
//! ([`flint_serve::run_loop`]), which owns the clients. Shard links run
//! on the core's [`Socket`], with a bare [`LineMachine`] framing
//! *responses* and a FIFO of request ids, because the shard protocol
//! answers strictly in request order per connection (the ordered-slot
//! invariant the serve loop enforces). That FIFO discipline is what
//! lets the router match replies to requests without an id field.
//!
//! Links connect without blocking the loop. A data request is admitted
//! only when **every** shard has a link that is connected, or
//! connecting on its first dial (its rows then wait in the link's write
//! buffer); a link re-dialing after a failed connect sheds at once.
//! Each shard receives the row as a `votes:` line, and the reply
//! histograms are summed with [`merge_votes`] before the one canonical
//! [`majority_vote`] tie-break. Any shard shedding, disagreeing on
//! arity, failing to connect or dying mid-request fails that request
//! *visibly* (`busy` / `error` naming the shard) — a partial quorum is
//! never merged, because a majority over half the forest is a wrong
//! answer that looks like a right one.

use epoll::{connect_nonblocking, Event, Interest};
use flint_forest::metrics::majority_vote;
use flint_forest::votes::{merge_votes, parse_votes};
use flint_serve::{
    render_busy, render_error, render_votes, run_loop, write_row, Core, EventLoopConfig,
    FramedLine, LineMachine, MetricsSnapshot, Request, Role, Socket,
};
use std::collections::{HashMap, VecDeque};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

/// How long a shard link may take to connect before it fails, and how
/// long a failed link stays down before the next connect attempt.
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
        let mut router = Router {
            shards: Shard::map(self.shard_addrs),
            ..Router::default()
        };
        run_loop(self.listener, self.config, &mut router)
    }
}

/// One configured upstream shard: its address and, when dialed, the
/// link. `next_attempt` rate-limits connects after a failure.
#[derive(Debug)]
struct Shard {
    addr: SocketAddr,
    link: Option<ShardLink>,
    next_attempt: Instant,
    /// The last connect failed: while the link re-dials, rows are shed
    /// at once instead of waiting out the connect deadline.
    connect_failed: bool,
}

impl Shard {
    /// The shards of a new map: none linked, each dialed at the next
    /// tick.
    fn map(addrs: Vec<SocketAddr>) -> Vec<Self> {
        let now = Instant::now();
        addrs
            .into_iter()
            .map(|addr| Shard {
                addr,
                link: None,
                next_attempt: now,
                connect_failed: false,
            })
            .collect()
    }

    /// Connected (a link still connecting is not up).
    fn is_up(&self) -> bool {
        self.link.as_ref().is_some_and(|l| l.connect_by.is_none())
    }

    /// Takes rows: connected, or on a map's first dial (rows wait in
    /// the link's write buffer), which a client may race at start-up.
    fn admits(&self) -> bool {
        self.link.is_some() && (self.is_up() || !self.connect_failed)
    }
}

/// One upstream connection. Replies arrive strictly in request order
/// (the shard's ordered-slot guarantee), so `fifo` — request ids in
/// send order — is the whole reply-matching story.
#[derive(Debug)]
struct ShardLink {
    socket: Socket,
    /// Frames shard *response* lines; no request parsing on this side.
    lines: LineMachine,
    /// Request ids of fanned-out rows this shard has not answered yet.
    fifo: VecDeque<u64>,
    /// While the connect is in progress: when it fails if still not
    /// connected. Rows queued meanwhile wait in the write buffer.
    connect_by: Option<Instant>,
}

impl ShardLink {
    /// The outcome of the connect: `Some(true)` connected, `Some(false)`
    /// failed, `None` still in progress.
    fn connected(&self) -> Option<bool> {
        let stream = self.socket.stream();
        match stream.take_error() {
            Ok(None) => stream.peer_addr().is_ok().then_some(true),
            _ => Some(false),
        }
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

/// The router's role on the event loop core: the shard map and links,
/// the fan-outs awaiting merge, and the router-only verbs.
#[derive(Debug, Default)]
struct Router {
    shards: Vec<Shard>,
    /// Poll token → index into `shards` for live links.
    shard_tokens: HashMap<u64, usize>,
    /// Request id → fan-out bookkeeping. A request failed early (shard
    /// death, shed) is removed here; its straggler replies are
    /// recognised by their absence and skipped.
    pending: HashMap<u64, Pending>,
    next_req: u64,
    draining: bool,
}

impl Role for Router {
    const NAME: &'static str = "router";

    /// Control verbs answer from router state; data requests fan out to
    /// every shard.
    fn request(&mut self, core: &mut Core<'_>, token: u64, request: Request, parsed: Instant) {
        let line = match request {
            Request::Predict(row) => return self.fan_out(core, token, &row, false, parsed),
            Request::Votes(row) => return self.fan_out(core, token, &row, true, parsed),
            Request::Stats => core
                .metrics()
                .snapshot()
                .to_json_with_shards(&self.shard_map_json()),
            Request::Health => {
                let up = self.shards.iter().filter(|s| s.is_up()).count();
                let ok = up == self.shards.len();
                format!(
                    "{{\"ok\":{ok},\"role\":\"router\",\"shards_up\":{up},\"shards\":{},\"draining\":{}}}",
                    self.shards.len(),
                    self.draining
                )
            }
            Request::ShardMap => format!("{{\"shards\":{}}}", self.shard_map_json()),
            Request::ShardMapSet(addrs) => self.replace_shard_map(core, &addrs),
            Request::Drain => {
                self.draining = true;
                "{\"ok\":\"draining\"}".to_owned()
            }
            Request::Undrain => {
                self.draining = false;
                "{\"ok\":\"accepting\"}".to_owned()
            }
            Request::Shutdown => unreachable!("the core answers shutdown"),
        };
        core.respond(token, line);
    }

    /// A shard link has replies, or hung up (a refused connect too).
    fn ready(&mut self, core: &mut Core<'_>, event: Event) {
        if let Some(&idx) = self.shard_tokens.get(&event.token) {
            if event.readable || event.closed {
                self.shard_readable(core, idx);
            }
        }
    }

    /// Dials every down shard whose backoff has elapsed, settles the
    /// connects in progress, and flushes every connected link: the
    /// fan-outs of this tick leave in this tick.
    fn tick(&mut self, core: &mut Core<'_>) {
        let now = Instant::now();
        for idx in 0..self.shards.len() {
            let shard = &mut self.shards[idx];
            let Some(link) = shard.link.as_mut() else {
                if now >= shard.next_attempt {
                    self.connect_shard(core, idx);
                }
                continue;
            };
            if let Some(deadline) = link.connect_by {
                // Asked of the socket after the readiness pass: a connect
                // that completed while the loop thread was off the CPU is
                // not failed for lateness.
                match link.connected() {
                    Some(true) => {
                        link.connect_by = None;
                        shard.connect_failed = false;
                    }
                    None if now < deadline => continue,
                    _ => {
                        self.fail_shard(core, idx);
                        continue;
                    }
                }
            }
            if link.socket.flush() {
                link.socket.watch(core.poller(), true);
            } else {
                self.fail_shard(core, idx);
            }
        }
    }
}

impl Router {
    /// Admits one data request and fans it out, or sheds it with a
    /// visible `busy`. Every check runs *before* any bytes are queued:
    /// a request is either fanned to every shard or to none.
    fn fan_out(
        &mut self,
        core: &mut Core<'_>,
        token: u64,
        row: &[f32],
        wants_votes: bool,
        parsed: Instant,
    ) {
        let metrics = core.metrics();
        if self.draining || core.stopping() {
            metrics.record_shed();
            return core.respond(token, render_busy("router draining"));
        }
        let shards = &self.shards;
        let Some(seq) = core.admit(token, self.pending.len(), || {
            let down = shards.iter().find(|s| !s.admits())?;
            metrics.record_shed();
            Some(render_busy(&format!("shard {} down", down.addr)))
        }) else {
            return;
        };
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
                enqueued: parsed,
            },
        );
        // The shard parses back the identical bits the client sent.
        let mut line = String::from("votes:");
        write_row(&mut line, row);
        line.push('\n');
        for shard in &mut self.shards {
            let link = shard.link.as_mut().expect("every shard has a link");
            link.socket.queue(line.as_bytes());
            link.fifo.push_back(req_id);
        }
    }

    /// Reads one ready shard link, frames complete response lines and
    /// applies each to the request at the front of the link's FIFO.
    /// Any framing or ordering violation kills the link (and fails its
    /// in-flight requests visibly) rather than risking a misattributed
    /// reply.
    fn shard_readable(&mut self, core: &mut Core<'_>, idx: usize) {
        let Some(link) = self.shards[idx].link.as_mut() else {
            return;
        };
        let mut frames: Vec<Option<Vec<u8>>> = Vec::new();
        let lines = &mut link.lines;
        let open = link.socket.read_burst(|bytes| {
            lines.receive(bytes, |frame| {
                frames.push(match frame {
                    FramedLine::Line(line) => Some(line.to_vec()),
                    FramedLine::Oversized { .. } => None,
                })
            })
        });
        let mut dead = !matches!(open, Ok(true));
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
            self.apply_shard_reply(core, req_id, addr, reply);
        }
        if dead {
            self.fail_shard(core, idx);
        }
    }

    /// Folds one shard's reply into its pending fan-out. The first
    /// failure (shed, error, arity mismatch) finalizes the request
    /// immediately; straggler replies from other shards find no
    /// pending entry and are skipped — their FIFO positions were
    /// already consumed, so matching stays aligned.
    fn apply_shard_reply(
        &mut self,
        core: &mut Core<'_>,
        req_id: u64,
        addr: SocketAddr,
        reply: ShardReply,
    ) {
        let Some(mut p) = self.pending.remove(&req_id) else {
            return;
        };
        let line = match reply {
            ShardReply::Votes(votes) if votes.is_empty() => {
                render_error(&format!("shard {addr} returned an empty histogram"))
            }
            ShardReply::Votes(votes) => {
                if p.votes.is_empty() {
                    p.votes = votes;
                } else if p.votes.len() == votes.len() {
                    merge_votes(&mut p.votes, &votes);
                } else {
                    let line = render_error(&format!("shard {addr} histogram arity disagrees"));
                    return finalize(core, p, line);
                }
                p.awaiting -= 1;
                if p.awaiting > 0 {
                    self.pending.insert(req_id, p);
                    return;
                }
                let n_shards = self.shards.len();
                if p.wants_votes {
                    render_votes(&p.votes, "router", n_shards)
                } else {
                    format!(
                        "{{\"class\":{},\"engine\":\"router\",\"batch\":{n_shards}}}",
                        majority_vote(&p.votes)
                    )
                }
            }
            ShardReply::Shed(reason) => {
                core.metrics().record_shed();
                render_busy(&format!("shard {addr}: {reason}"))
            }
            ShardReply::Failed(reason) => render_error(&format!("shard {addr}: {reason}")),
        };
        finalize(core, p, line);
    }

    /// Tears down one shard link: every request still in its FIFO that
    /// is still pending fails with a visible `busy` naming the shard —
    /// `down` if the link never connected, `died mid-request` if it did
    /// — never a silent drop, never a partial-quorum merge.
    fn fail_shard(&mut self, core: &mut Core<'_>, idx: usize) {
        let addr = self.shards[idx].addr;
        if let Some(link) = self.shards[idx].link.take() {
            self.shard_tokens.remove(&link.socket.token());
            self.shards[idx].connect_failed = link.connect_by.is_some();
            let reason = if link.connect_by.is_some() {
                format!("shard {addr} down")
            } else {
                format!("shard {addr} died mid-request")
            };
            link.socket.close(core.poller());
            for req_id in link.fifo {
                if let Some(p) = self.pending.remove(&req_id) {
                    core.metrics().record_shed();
                    finalize(core, p, render_busy(&reason));
                }
            }
        }
        self.shards[idx].next_attempt = Instant::now() + RECONNECT_INTERVAL;
    }

    /// Starts one nonblocking connect; a connect that fails at once
    /// leaves the shard down until its next attempt. A shard at the
    /// router's own address stays down (it would loop every row back).
    fn connect_shard(&mut self, core: &mut Core<'_>, idx: usize) {
        let (now, addr) = (Instant::now(), self.shards[idx].addr);
        self.shards[idx].next_attempt = now + RECONNECT_INTERVAL;
        if core.local_addr().ok() == Some(addr) {
            return;
        }
        // Writability reports the connect's outcome.
        let dialed = connect_nonblocking(addr)
            .and_then(|stream| core.register(stream, Interest::READ_WRITE));
        let Ok(socket) = dialed else {
            self.shards[idx].connect_failed = true;
            return;
        };
        self.shard_tokens.insert(socket.token(), idx);
        self.shards[idx].link = Some(ShardLink {
            socket,
            lines: LineMachine::new(),
            fifo: VecDeque::new(),
            connect_by: Some(now + RECONNECT_INTERVAL),
        });
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
                s.is_up()
            ));
        }
        out.push(']');
        out
    }

    /// `shardmap set a,b`: validates the new addresses, fails every
    /// in-flight request visibly (the span layout is changing under
    /// it), drops all links and dials the new map at this tick's end.
    /// Returns the answer line.
    fn replace_shard_map(&mut self, core: &mut Core<'_>, addrs: &[String]) -> String {
        let parsed: Result<Vec<SocketAddr>, _> =
            addrs.iter().map(|a| a.parse().map_err(|_| a)).collect();
        let parsed = match parsed {
            Ok(parsed) => parsed,
            Err(a) => return render_error(&format!("shardmap set: invalid shard address `{a}`")),
        };
        for (_, p) in self.pending.drain() {
            core.metrics().record_shed();
            finalize(core, p, render_busy("shard map replaced mid-request"));
        }
        for link in self.shards.drain(..).filter_map(|s| s.link) {
            link.socket.close(core.poller());
        }
        self.shard_tokens.clear();
        self.shards = Shard::map(parsed);
        format!("{{\"shards\":{}}}", self.shard_map_json())
    }
}

/// Delivers the final response line into the client's reserved slot
/// (the client may already be gone; the latency still happened).
fn finalize(core: &mut Core<'_>, p: Pending, line: String) {
    core.metrics().record_latency(p.enqueued.elapsed());
    core.fill_slot(p.client, p.seq, line);
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
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
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
        // Held for the whole test, so no other server can take the
        // port; its full accept queue leaves the link down.
        let (hole, _queued) = black_hole();
        let down_addr = hole.local_addr().expect("addr");
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

    /// A loopback listener nobody accepts from, with its accept queue
    /// full (std listens with backlog 128, which holds 129): the kernel
    /// drops further SYNs, so a connect to it never completes. Returns
    /// the listener and the connections that fill its queue.
    fn black_hole() -> (TcpListener, Vec<TcpStream>) {
        let hole = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = hole.local_addr().expect("addr");
        let queued = (0..129)
            .map_while(|_| TcpStream::connect_timeout(&addr, Duration::from_millis(100)).ok())
            .collect();
        (hole, queued)
    }

    #[test]
    fn a_black_holed_shard_never_freezes_the_router() {
        let (forest, data) = forest_and_data();
        let (live, live_runner) = spawn_shard(&forest, (0, 4));
        let (hole, _queued) = black_hole();
        let hole_addr = hole.local_addr().expect("addr");
        let router =
            RouterServer::bind("127.0.0.1:0", vec![live, hole_addr]).expect("router binds");
        let addr = router.local_addr();
        let runner = std::thread::spawn(move || router.run().expect("routes"));

        let mut client = Client::connect(addr);
        client
            .writer
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("read timeout");
        let timed = |client: &mut Client, request: &str, bound: Duration| {
            let asked = Instant::now();
            let got = client.roundtrip(request).to_owned();
            assert!(
                asked.elapsed() < bound,
                "{request} took {:?}",
                asked.elapsed()
            );
            got
        };
        let quick = Duration::from_millis(250);
        // The live link may still be connecting on the first ask.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let health = timed(&mut client, "health", quick);
            if health.contains("\"shards_up\":1") {
                break;
            }
            assert!(Instant::now() < deadline, "live shard never up: {health}");
        }
        let stats = timed(&mut client, "stats", quick);
        assert!(
            stats.contains(&format!("\"addr\":\"{hole_addr}\",\"up\":false")),
            "{stats}"
        );
        let row: Vec<String> = data.sample(0).iter().map(f32::to_string).collect();
        let got = timed(&mut client, &row.join(","), Duration::from_secs(1));
        assert!(got.contains("\"busy\":true"), "{got}");
        assert!(got.contains(&format!("shard {hole_addr} down")), "{got}");

        client.roundtrip(&format!("shardmap set {live}"));
        for i in 0..6 {
            let row: Vec<String> = data.sample(i).iter().map(f32::to_string).collect();
            let expected = forest.predict_majority(data.sample(i));
            let got = client.roundtrip(&row.join(",")).to_owned();
            assert!(
                got.starts_with(&format!("{{\"class\":{expected},")),
                "{got}"
            );
        }

        assert!(client.roundtrip("shutdown").contains("shutting down"));
        runner.join().expect("router thread");
        shutdown_peer(live);
        live_runner.join().expect("shard thread");
    }

    #[test]
    fn a_request_waits_for_a_connecting_link_and_fails_as_down() {
        let (_, data) = forest_and_data();
        let (hole, _queued) = black_hole();
        let hole_addr = hole.local_addr().expect("addr");
        let router = RouterServer::bind("127.0.0.1:0", vec![hole_addr]).expect("router binds");
        let addr = router.local_addr();
        // Sent before the router runs, so both lines arrive while its
        // first connect is in progress.
        let mut client = Client::connect(addr);
        client
            .writer
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let row: Vec<String> = data.sample(0).iter().map(f32::to_string).collect();
        writeln!(client.writer, "{}\nstats", row.join(",")).expect("writes");
        let runner = std::thread::spawn(move || router.run().expect("routes"));

        client.line.clear();
        client.reader.read_line(&mut client.line).expect("reads");
        let got = client.line.clone();
        assert!(got.contains("\"busy\":true"), "{got}");
        assert!(got.contains(&format!("shard {hole_addr} down")), "{got}");
        // `stats` was answered when it was read, right behind the row:
        // the row was admitted and queued on the link, not shed.
        client.line.clear();
        client.reader.read_line(&mut client.line).expect("reads");
        let stats = client.line.clone();
        assert!(stats.contains("\"requests\":1"), "{stats}");
        assert!(stats.contains("\"shed\":0"), "{stats}");
        assert!(stats.contains("\"inflight\":1"), "{stats}");

        assert!(client.roundtrip("shutdown").contains("shutting down"));
        let snapshot = runner.join().expect("router thread");
        assert_eq!((snapshot.requests, snapshot.shed), (1, 1));
    }

    /// After a failed connect the link stays down for
    /// `RECONNECT_INTERVAL`, then re-dials: a row that arrives during
    /// the re-dial is shed at once, not held for the connect deadline.
    #[test]
    fn a_row_during_a_redial_sheds_at_once() {
        let (_, data) = forest_and_data();
        let (hole, _queued) = black_hole();
        let hole_addr = hole.local_addr().expect("addr");
        let router = RouterServer::bind("127.0.0.1:0", vec![hole_addr]).expect("router binds");
        let addr = router.local_addr();
        let row: Vec<String> = data.sample(0).iter().map(f32::to_string).collect();
        let row = row.join(",");
        // Sent before the router runs: the first dial admits the row,
        // which fails as down at the connect deadline.
        let mut client = Client::connect(addr);
        client
            .writer
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        writeln!(client.writer, "{row}").expect("writes");
        let runner = std::thread::spawn(move || router.run().expect("routes"));
        client.line.clear();
        client.reader.read_line(&mut client.line).expect("reads");
        let down = format!("shard {hole_addr} down");
        assert!(client.line.contains(&down), "{}", client.line);

        // Past the down window, into the re-dial.
        std::thread::sleep(RECONNECT_INTERVAL * 3 / 2);
        let asked = Instant::now();
        let got = client.roundtrip(&row).to_owned();
        assert!(
            asked.elapsed() < Duration::from_millis(100),
            "took {:?}",
            asked.elapsed()
        );
        assert!(
            got.contains("\"busy\":true") && got.contains(&down),
            "{got}"
        );

        assert!(client.roundtrip("shutdown").contains("shutting down"));
        let snapshot = runner.join().expect("router thread");
        assert_eq!((snapshot.requests, snapshot.shed), (1, 2));
    }

    #[test]
    fn idle_connections_survive_and_close_on_shutdown() {
        let (forest, _) = forest_and_data();
        let (shard_addr, shard_runner) = spawn_shard(&forest, (0, 4));
        let router = RouterServer::bind("127.0.0.1:0", vec![shard_addr]).expect("router binds");
        let addr = router.local_addr();
        let (done_tx, done) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let _ = done_tx.send(router.run().expect("routes"));
        });

        let idle: Vec<TcpStream> = (0..64)
            .map(|_| TcpStream::connect(addr).expect("connects"))
            .collect();
        let mut admin = Client::connect(addr);
        // Accept is asynchronous from connect returning.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let stats = admin.roundtrip("stats").to_owned();
            if stats.contains("\"connections\":65") {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "idle connections never registered: {stats}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(admin.roundtrip("shutdown").contains("shutting down"));
        let stats = done
            .recv_timeout(Duration::from_secs(10))
            .expect("router closed every idle connection and returned");
        assert_eq!(stats.accepted, 65);
        assert_eq!(stats.connections, 0, "idle connections all closed");
        runner.join().expect("router thread");
        drop(idle);
        shutdown_peer(shard_addr);
        shard_runner.join().expect("shard thread");
    }

    #[test]
    fn a_shard_at_the_routers_own_address_stays_down() {
        // A router that dialed itself would take each forwarded row as
        // a new request and forward it again, until a cap shed one
        // behind answers that wait on it: every request would hang.
        let (forest, data) = forest_and_data();
        let (live, live_runner) = spawn_shard(&forest, (0, 4));
        let router = RouterServer::bind("127.0.0.1:0", vec![live]).expect("router binds");
        let addr = router.local_addr();
        let runner = std::thread::spawn(move || router.run().expect("routes"));

        let mut client = Client::connect(addr);
        client
            .writer
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        client.roundtrip(&format!("shardmap set {live},{addr}"));
        let row: Vec<String> = data.sample(0).iter().map(f32::to_string).collect();
        let got = client.roundtrip(&row.join(",")).to_owned();
        assert!(got.contains("\"busy\":true"), "{got}");
        assert!(got.contains(&format!("shard {addr} down")), "{got}");
        let stats = client.roundtrip("stats").to_owned();
        assert!(stats.contains("\"connections\":1,"), "{stats}");

        assert!(client.roundtrip("shutdown").contains("shutting down"));
        runner.join().expect("router thread");
        shutdown_peer(live);
        live_runner.join().expect("shard thread");
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
