//! The blocking serving front ends: a thread-per-connection TCP line
//! server and a stdin/stdout loop, both speaking the
//! [`protocol`](crate::protocol) over a shared [`Batcher`].
//!
//! Built on `std::net` and `std::thread` only: one thread per
//! connection, each blocking in [`BatchHandle::predict`] while the
//! micro-batcher coalesces rows from every live connection into shared
//! blocks. A `shutdown` request from any connection stops the accept
//! loop, drains the batcher and joins every thread. Line framing is
//! the same sans-io [`ProtocolMachine`] the epoll front end drives, and
//! control verbs answer through the same `handle_event`, so the two
//! front ends cannot diverge at the protocol layer — this one stays
//! available behind `--front-end threads` as the A/B baseline for the
//! [`event_loop`](crate::event_loop) front end, which is the right
//! shape for large fleets of mostly-idle connections.

use crate::batcher::{BatchHandle, BatchPolicy, Batcher};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::protocol::{
    render_error, render_prediction, render_votes, ProtocolMachine, Request, WireEvent,
};
use flint_exec::Predictor;
use std::io::{BufRead, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How often an idle session re-checks the server-wide stop flag (the
/// read timeout on every connection).
const SESSION_POLL: Duration = Duration::from_millis(50);

/// Which TCP front end answers connections: the readiness event loop
/// (the default — one process, thousands of mostly-idle connections)
/// or the thread-per-connection baseline it is benchmarked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrontEnd {
    /// Readiness event loop over the vendored epoll shim
    /// ([`EpollServer`](crate::EpollServer)); Linux only.
    #[default]
    Epoll,
    /// One blocking thread per connection ([`Server`]); every platform.
    Threads,
}

impl FrontEnd {
    /// Every selectable front end.
    pub const ALL: [FrontEnd; 2] = [FrontEnd::Epoll, FrontEnd::Threads];

    /// The flag spelling (`epoll`, `threads`).
    pub fn name(self) -> &'static str {
        match self {
            Self::Epoll => "epoll",
            Self::Threads => "threads",
        }
    }
}

impl core::fmt::Display for FrontEnd {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a front-end name did not parse; the message lists every valid
/// spelling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFrontEndError(pub String);

impl core::fmt::Display for ParseFrontEndError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseFrontEndError {}

impl std::str::FromStr for FrontEnd {
    type Err = ParseFrontEndError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let text = s.trim();
        FrontEnd::ALL
            .into_iter()
            .find(|fe| text.eq_ignore_ascii_case(fe.name()))
            .ok_or_else(|| {
                let valid: Vec<&str> = FrontEnd::ALL.iter().map(|fe| fe.name()).collect();
                ParseFrontEndError(format!(
                    "unknown front end {text:?} (valid: {})",
                    valid.join(", ")
                ))
            })
    }
}

/// What a handled request asks the session to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    /// Keep the session open.
    Continue,
    /// Stop the whole server.
    Shutdown,
}

/// One framing event as a front end must treat it.
#[derive(Debug)]
pub(crate) enum Handled {
    /// A predict request (`votes` false) or a `votes:` request: the
    /// front end scores `row` its own way.
    Score {
        /// The parsed feature row, arity not yet checked.
        row: Vec<f32>,
        /// Answer with the vote histogram instead of the class.
        votes: bool,
    },
    /// Answered without scoring: the response line, and what the
    /// server does next.
    Answered(String, Action),
}

/// Answers every framing event that needs no scoring — `stats`,
/// `health`, `shutdown`, the router-only verbs, malformed and
/// oversized lines — and hands scoring requests back. Every front end
/// renders control responses here, so their wire format cannot
/// diverge.
pub(crate) fn handle_event(event: WireEvent, metrics: &ServeMetrics) -> Handled {
    let answer = |line: String| Handled::Answered(line, Action::Continue);
    match event {
        WireEvent::Request(Request::Predict(row)) => Handled::Score { row, votes: false },
        WireEvent::Request(Request::Votes(row)) => Handled::Score { row, votes: true },
        WireEvent::Request(Request::Stats) => answer(metrics.snapshot().to_json()),
        WireEvent::Request(Request::Health) => {
            answer("{\"ok\":true,\"role\":\"server\"}".to_owned())
        }
        WireEvent::Request(
            Request::ShardMap | Request::ShardMapSet(_) | Request::Drain | Request::Undrain,
        ) => answer(render_error(
            "router control verb; this is a single-node server",
        )),
        WireEvent::Request(Request::Shutdown) => {
            Handled::Answered("{\"ok\":\"shutting down\"}".to_owned(), Action::Shutdown)
        }
        WireEvent::Invalid(e) => answer(render_error(&e.to_string())),
        WireEvent::Oversized { limit } => {
            answer(render_error(&format!("request line exceeds {limit} bytes")))
        }
    }
}

/// Answers one framing event **with blocking scoring** through the
/// batcher: the response line to write back, plus whether the server
/// should keep running. The thread-per-connection TCP front end and
/// the stdin loop share it.
fn respond_event(event: WireEvent, handle: &BatchHandle) -> (String, Action) {
    let line = match handle_event(event, handle.shared_metrics()) {
        Handled::Answered(line, action) => return (line, action),
        Handled::Score { row, votes: false } => match handle.predict(&row) {
            Ok(prediction) => render_prediction(&prediction, handle.engine_name()),
            Err(e) => render_error(&e.to_string()),
        },
        Handled::Score { row, votes: true } => match handle.predict_votes(&row) {
            Ok(reply) => render_votes(&reply.votes, handle.engine_name(), reply.batch_fill),
            Err(e) => render_error(&e.to_string()),
        },
    };
    (line, Action::Continue)
}

/// A running TCP inference server bound to a local address.
///
/// ```no_run
/// use flint_serve::{BatchPolicy, Server};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let engine: Box<dyn flint_exec::Predictor> = unimplemented!();
/// let server = Server::bind("127.0.0.1:7878", engine, BatchPolicy::default())?;
/// println!("listening on {}", server.local_addr());
/// let final_stats = server.run()?; // until a client sends `shutdown`
/// println!("{}", final_stats.to_json());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    batcher: Batcher,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts the micro-batcher over `engine`.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from binding the listener.
    pub fn bind(
        addr: &str,
        engine: Box<dyn Predictor>,
        policy: BatchPolicy,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Self {
            listener,
            local_addr,
            batcher: Batcher::start(engine, policy),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The registry name of the engine answering requests.
    pub fn engine_name(&self) -> &'static str {
        self.batcher.engine_name()
    }

    /// Accepts connections until a client sends `shutdown`, then drains
    /// the batcher, joins every connection thread and returns the final
    /// metrics snapshot.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from the accept loop (per-connection I/O
    /// errors only end that connection).
    pub fn run(self) -> std::io::Result<MetricsSnapshot> {
        let stop = Arc::new(AtomicBool::new(false));
        let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let wake = wake_addr(self.local_addr);
        let metrics = self.batcher.metrics_shared();
        for stream in self.listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            // Keep the session list proportional to *live* connections,
            // not to every connection ever accepted.
            sessions.retain(|session| !session.is_finished());
            let stream = match stream {
                Ok(stream) => stream,
                Err(_) => continue,
            };
            let handle = self.batcher.handle();
            let stop = Arc::clone(&stop);
            let metrics = Arc::clone(&metrics);
            metrics.record_connect();
            sessions.push(std::thread::spawn(move || {
                let _ = serve_connection(stream, &handle, &stop, wake, &metrics);
                metrics.record_disconnect();
            }));
        }
        // Sessions poll the stop flag between reads, so even an idle
        // client that never disconnects cannot block this join.
        for session in sessions {
            let _ = session.join();
        }
        Ok(self.batcher.shutdown())
    }
}

/// The address a throwaway shutdown-wake connection dials: the bound
/// port on loopback when the listener is on a wildcard address
/// (connecting to `0.0.0.0` is not portable).
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

/// One connection session: feed raw reads through the sans-io framing
/// machine, answer each request event in order.
fn serve_connection(
    mut stream: TcpStream,
    handle: &BatchHandle,
    stop: &AtomicBool,
    wake: SocketAddr,
    metrics: &ServeMetrics,
) -> std::io::Result<()> {
    // Request/response is strictly ping-pong per connection; without
    // NODELAY, Nagle holds every response back for the peer's delayed
    // ACK (~40 ms per round trip on loopback).
    stream.set_nodelay(true)?;
    // The read timeout doubles as the stop-flag poll interval, so an
    // idle client that never disconnects cannot pin the session thread
    // (and with it the server's shutdown join) forever.
    stream.set_read_timeout(Some(SESSION_POLL))?;
    let mut machine = ProtocolMachine::new();
    let mut buf = [0u8; 4096];
    let mut events: Vec<WireEvent> = Vec::new();
    loop {
        let eof = match stream.read(&mut buf) {
            Ok(0) => {
                // Client hung up; a final unterminated line is still a
                // request (`BufRead::lines` semantics).
                events.extend(machine.finish());
                true
            }
            Ok(n) => {
                machine.receive(&buf[..n], |event| events.push(event));
                metrics.record_read_buffer(machine.buffered());
                false
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                // The machine keeps any partial line; the next read
                // continues it.
                continue;
            }
            Err(e) => return Err(e),
        };
        for event in events.drain(..) {
            let (mut response, action) = respond_event(event, handle);
            response.push('\n');
            stream.write_all(response.as_bytes())?;
            stream.flush()?;
            if action == Action::Shutdown {
                stop.store(true, Ordering::SeqCst);
                // The accept loop is blocked in `accept`; a throwaway
                // loopback connection wakes it so it can observe the
                // flag.
                let _ = TcpStream::connect(wake);
                return Ok(());
            }
        }
        if eof {
            break;
        }
    }
    Ok(())
}

/// Serves the same line protocol over an arbitrary reader/writer pair —
/// in production, locked stdin/stdout (`flint serve --stdin`); in
/// tests, in-memory buffers. Returns on `shutdown` or end of input,
/// leaving the batcher running (callers own its lifecycle).
///
/// # Errors
///
/// Any [`std::io::Error`] from reading requests or writing responses.
pub fn serve_lines<R: BufRead, W: Write>(
    batcher: &Batcher,
    mut input: R,
    mut out: W,
) -> std::io::Result<()> {
    let handle = batcher.handle();
    let mut machine = ProtocolMachine::new();
    let mut events: Vec<WireEvent> = Vec::new();
    loop {
        let consumed = {
            let chunk = input.fill_buf()?;
            machine.receive(chunk, |event| events.push(event));
            chunk.len()
        };
        if consumed == 0 {
            // End of input: a final unterminated line still answers.
            events.extend(machine.finish());
        } else {
            input.consume(consumed);
        }
        for event in events.drain(..) {
            let (response, action) = respond_event(event, &handle);
            out.write_all(response.as_bytes())?;
            out.write_all(b"\n")?;
            out.flush()?;
            if action == Action::Shutdown {
                return Ok(());
            }
        }
        if consumed == 0 {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flint_data::synth::SynthSpec;
    use flint_exec::{EngineBuilder, EngineKind};
    use flint_forest::{ForestConfig, RandomForest};
    use std::io::BufReader;

    fn batcher() -> (Batcher, RandomForest, flint_data::Dataset) {
        let data = SynthSpec::new(90, 4, 3).seed(5).generate();
        let forest = RandomForest::fit(&data, &ForestConfig::grid(4, 6)).expect("trainable");
        let engine = EngineBuilder::new(&forest)
            .build(EngineKind::parse("flint-blocked").expect("registered"))
            .expect("builds");
        (
            Batcher::start(engine, BatchPolicy::default().workers(2)),
            forest,
            data,
        )
    }

    #[test]
    fn serve_lines_round_trips_the_protocol() {
        let (batcher, forest, data) = batcher();
        let mut input = String::new();
        for i in 0..8 {
            let row: Vec<String> = data.sample(i).iter().map(f32::to_string).collect();
            input.push_str(&row.join(","));
            input.push('\n');
        }
        input.push_str("1.0,2.0\n"); // wrong arity: answered, not fatal
        input.push_str("not,a,row,either\n");
        input.push_str("stats\n");
        input.push_str("shutdown\n");
        input.push_str("0,0,0,0\n"); // after shutdown: never read

        let mut out = Vec::new();
        serve_lines(&batcher, input.as_bytes(), &mut out).expect("serves");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 12, "{text}");
        for (i, line) in lines[..8].iter().enumerate() {
            let expected = forest.predict_majority(data.sample(i));
            assert!(
                line.starts_with(&format!("{{\"class\":{expected},")),
                "line {i}: {line}"
            );
            assert!(line.contains("\"engine\":\"flint-blocked\""), "{line}");
        }
        assert!(lines[8].contains("expected 4 features, got 2"), "{text}");
        assert!(lines[9].contains("error"), "{text}");
        assert!(lines[10].contains("\"requests\":8"), "{text}");
        assert!(lines[11].contains("shutting down"), "{text}");
        let stats = batcher.shutdown();
        assert_eq!(stats.requests, 8);
        assert_eq!(stats.rejected, 1);
    }

    #[test]
    fn tcp_server_scores_stats_and_shuts_down() {
        let (_, forest, data) = batcher();
        let engine = EngineBuilder::new(&forest)
            .build(EngineKind::parse("quickscorer").expect("registered"))
            .expect("builds");
        let server = Server::bind("127.0.0.1:0", engine, BatchPolicy::default().workers(2))
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
            writer
                .write_all(format!("{{\"features\":[{}]}}\n", row.join(",")).as_bytes())
                .expect("writes");
            line.clear();
            reader.read_line(&mut line).expect("reads");
            let expected = forest.predict_majority(data.sample(i));
            assert!(
                line.starts_with(&format!("{{\"class\":{expected},")),
                "sample {i}: {line}"
            );
        }
        writeln!(writer, "stats").expect("writes");
        line.clear();
        reader.read_line(&mut line).expect("reads");
        assert!(line.contains("\"requests\":6"), "{line}");
        writeln!(writer, "shutdown").expect("writes");
        line.clear();
        reader.read_line(&mut line).expect("reads");
        assert!(line.contains("shutting down"), "{line}");
        let stats = runner.join().expect("server thread");
        assert_eq!(stats.requests, 6);
    }

    #[test]
    fn idle_connections_do_not_block_shutdown() {
        let (batcher, forest, _) = batcher();
        drop(batcher);
        let engine = EngineBuilder::new(&forest)
            .build(EngineKind::parse("flint").expect("registered"))
            .expect("builds");
        let server =
            Server::bind("127.0.0.1:0", engine, BatchPolicy::default()).expect("binds loopback");
        let addr = server.local_addr();
        let runner = std::thread::spawn(move || server.run().expect("serves"));

        // An idle client that connects, sends nothing and never hangs
        // up: its session thread must still exit once shutdown is
        // requested from another connection.
        let idle = TcpStream::connect(addr).expect("connects");
        let admin = TcpStream::connect(addr).expect("connects");
        admin.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(admin.try_clone().expect("clones"));
        let mut writer = admin;
        writer.write_all(b"shutdown\n").expect("writes");
        let mut line = String::new();
        reader.read_line(&mut line).expect("reads");
        assert!(line.contains("shutting down"), "{line}");

        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !runner.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "server did not shut down with an idle client attached"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        runner.join().expect("server thread");
        drop(idle);
    }
}
