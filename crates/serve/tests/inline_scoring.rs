//! Inline scoring, over TCP and over stdin: rows are scored on the
//! serving thread as soon as a readiness pass (or a stdin read) has
//! admitted them, in chunks of at most `max_batch`, never waiting out a
//! linger; a mixed chunk of class and `votes:` rows is one kernel call
//! that scores each row once; and a panicking engine costs only its
//! chunk's rows, which answer `error`, while the loop keeps serving and
//! still shuts down.

use flint_data::synth::SynthSpec;
use flint_data::{Dataset, FeatureMatrix};
use flint_exec::{BatchOptions, EngineBuilder, EngineKind, Predictor, Sink};
use flint_forest::{ForestConfig, RandomForest};
use flint_serve::{serve_lines, BatchPolicy, EpollServer, MetricsSnapshot};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a client waits for any one response line before the test
/// fails instead of hanging.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

fn model() -> (Dataset, RandomForest) {
    let data = SynthSpec::new(90, 4, 3).seed(5).generate();
    let forest = RandomForest::fit(&data, &ForestConfig::grid(4, 6)).expect("trainable");
    (data, forest)
}

fn flint_blocked(forest: &RandomForest) -> Box<dyn Predictor> {
    EngineBuilder::new(forest)
        .build(EngineKind::parse("flint-blocked").expect("registered"))
        .expect("builds")
}

fn spawn(
    engine: Box<dyn Predictor>,
    policy: BatchPolicy,
) -> (SocketAddr, JoinHandle<MetricsSnapshot>) {
    let server = EpollServer::bind("127.0.0.1:0", engine, policy).expect("binds loopback");
    let addr = server.local_addr();
    (
        addr,
        std::thread::spawn(move || server.run().expect("serves")),
    )
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connects");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .expect("read timeout");
        Self {
            reader: BufReader::new(stream.try_clone().expect("clones")),
            writer: stream,
        }
    }

    fn send(&mut self, text: &str) {
        self.writer.write_all(text.as_bytes()).expect("writes");
    }

    fn line(&mut self) -> String {
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .expect("a response line within the read timeout");
        line
    }

    fn shutdown(mut self, runner: JoinHandle<MetricsSnapshot>) -> MetricsSnapshot {
        self.send("shutdown\n");
        let bye = self.line();
        assert!(bye.contains("shutting down"), "{bye}");
        let deadline = Instant::now() + READ_TIMEOUT;
        while !runner.is_finished() {
            assert!(Instant::now() < deadline, "server did not shut down");
            std::thread::sleep(Duration::from_millis(5));
        }
        runner.join().expect("server thread")
    }
}

fn csv(row: &[f32]) -> String {
    let cells: Vec<String> = row.iter().map(f32::to_string).collect();
    cells.join(",")
}

/// The `"batch"` field of a response line.
fn batch_field(line: &str) -> usize {
    line.split_once("\"batch\":")
        .and_then(|(_, rest)| rest.trim_end().trim_end_matches('}').parse().ok())
        .unwrap_or_else(|| panic!("no batch field in {line}"))
}

#[test]
fn a_lone_request_answers_without_waiting_out_the_linger() {
    let (data, forest) = model();
    let policy = BatchPolicy::default()
        .max_batch(64)
        .linger(Duration::from_secs(30));
    let (addr, runner) = spawn(flint_blocked(&forest), policy);
    let mut client = Client::connect(addr);
    let start = Instant::now();
    client.send(&(csv(data.sample(0)) + "\n"));
    let line = client.line();
    let took = start.elapsed();
    let expected = forest.predict_majority(data.sample(0));
    assert!(
        line.starts_with(&format!("{{\"class\":{expected},")),
        "{line}"
    );
    assert_eq!(batch_field(&line), 1, "{line}");
    assert!(
        took < Duration::from_secs(1),
        "a lone request waited {took:?}: the loop must not linger for a fuller batch"
    );
    let stats = client.shutdown(runner);
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.batches, 1);
}

#[test]
fn a_pipelined_burst_answers_in_order_in_chunks_of_max_batch() {
    let (data, forest) = model();
    let policy = BatchPolicy::default()
        .max_batch(7)
        .linger(Duration::from_secs(30));
    let (addr, runner) = spawn(flint_blocked(&forest), policy);
    let mut client = Client::connect(addr);
    let burst: String = (0..32).map(|i| csv(data.sample(i)) + "\n").collect();
    client.send(&burst);
    for i in 0..32 {
        let line = client.line();
        let expected = forest.predict_majority(data.sample(i));
        assert!(
            line.starts_with(&format!("{{\"class\":{expected},")),
            "response {i} out of order: {line}"
        );
        let fill = batch_field(&line);
        assert!((1..=7).contains(&fill), "response {i}: batch {fill} > 7");
    }
    let stats = client.shutdown(runner);
    assert_eq!(stats.requests, 32);
    assert!(stats.batches >= 5, "32 rows need at least 5 chunks of 7");
}

/// A two-feature stand-in engine: class 1 when feature 0 is positive,
/// votes `[3, 0]` / `[0, 3]`. It counts its kernel calls and every row
/// handed to them, and panics on any row whose feature 0 is [`MARKED`].
#[derive(Debug)]
struct Stub {
    calls: Arc<AtomicUsize>,
    rows: Arc<AtomicUsize>,
}

const MARKED: f32 = 666.0;

impl Stub {
    fn class(row: &[f32]) -> u32 {
        assert!(row[0] != MARKED, "stub engine hit the marked row");
        u32::from(row[0] > 0.0)
    }
}

impl Predictor for Stub {
    fn kind(&self) -> EngineKind {
        EngineKind::parse("flint").expect("registered")
    }

    fn n_features(&self) -> usize {
        2
    }

    fn n_classes(&self) -> usize {
        2
    }

    fn options(&self) -> BatchOptions {
        BatchOptions::default()
    }

    fn score(&self, matrix: &FeatureMatrix, _opts: &BatchOptions, sink: Sink<'_>) {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.rows.fetch_add(matrix.n_samples(), Ordering::SeqCst);
        let classes =
            (0..matrix.n_samples()).map(|i| Self::class(&[matrix.get(i, 0), matrix.get(i, 1)]));
        match sink {
            Sink::Classes(out) => out.iter_mut().zip(classes).for_each(|(slot, c)| *slot = c),
            Sink::Votes(out) => {
                for (votes, class) in out.chunks_exact_mut(2).zip(classes) {
                    votes.fill(0);
                    votes[class as usize] = 3;
                }
            }
        }
    }
}

/// The stub and its call and row counters.
fn stub() -> (Box<dyn Predictor>, Arc<AtomicUsize>, Arc<AtomicUsize>) {
    let (calls, rows) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let engine = Box::new(Stub {
        calls: Arc::clone(&calls),
        rows: Arc::clone(&rows),
    });
    (engine, calls, rows)
}

/// Runs `input` through the stdin loop on its own thread and returns
/// the response lines and final stats, failing instead of hanging if
/// the loop never returns.
fn serve_stdin(
    engine: Box<dyn Predictor>,
    max_batch: usize,
    input: String,
) -> (Vec<String>, MetricsSnapshot) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut out = Vec::new();
        let stats = serve_lines(&*engine, max_batch, input.as_bytes(), &mut out).expect("serves");
        let _ = tx.send((String::from_utf8(out).expect("utf8"), stats));
    });
    let (text, stats) = rx
        .recv_timeout(READ_TIMEOUT)
        .expect("the stdin loop answered every line and returned");
    (text.lines().map(str::to_owned).collect(), stats)
}

#[test]
fn a_mixed_stdin_chunk_scores_every_row_in_one_kernel_call() {
    let (engine, calls, rows) = stub();
    let (lines, stats) = serve_stdin(engine, 4, "1,0\nvotes:-1,0\n2,0\nvotes:-2,0\n".into());
    assert_eq!(
        lines,
        [
            "{\"class\":1,\"engine\":\"flint\",\"batch\":4}",
            "{\"votes\":[3,0],\"engine\":\"flint\",\"batch\":4}",
            "{\"class\":1,\"engine\":\"flint\",\"batch\":4}",
            "{\"votes\":[3,0],\"engine\":\"flint\",\"batch\":4}"
        ]
    );
    assert_eq!(stats.batches, 1);
    assert_eq!(calls.load(Ordering::SeqCst), 1, "one kernel call per chunk");
    assert_eq!(rows.load(Ordering::SeqCst), 4, "each row scored once");
}

#[test]
fn rows_from_one_piped_read_score_in_batches_larger_than_one() {
    let (data, forest) = model();
    let input: String = (0..32).map(|i| csv(data.sample(i)) + "\n").collect();
    for (max_batch, fills) in [(64, vec![32]), (7, vec![7, 7, 7, 7, 4])] {
        let (lines, stats) = serve_stdin(flint_blocked(&forest), max_batch, input.clone());
        assert_eq!(lines.len(), 32);
        let mut want = Vec::new();
        for fill in fills {
            want.extend(std::iter::repeat_n(fill, fill));
        }
        for (i, line) in lines.iter().enumerate() {
            let expected = forest.predict_majority(data.sample(i));
            assert!(
                line.starts_with(&format!("{{\"class\":{expected},")),
                "max_batch {max_batch} response {i}: {line}"
            );
            assert_eq!(batch_field(line), want[i], "max_batch {max_batch}: {line}");
        }
        assert!(stats.mean_fill > 1.0, "max_batch {max_batch}: {stats:?}");
    }
}

#[test]
fn an_engine_panic_on_stdin_answers_error_for_its_chunk_and_later_lines_still_answer() {
    let (engine, _, _) = stub();
    // Chunks of two: a marked row takes its chunk-mate down with it and
    // nothing else. `health` closes the pending chunk early, so `-1,0`
    // scores alone instead of beside the marked `votes:` row after it.
    let (lines, stats) = serve_stdin(
        engine,
        2,
        format!("1,0\n{MARKED},0\n-1,0\nhealth\nvotes:{MARKED},0\n2,0\n3,0\n"),
    );
    assert_eq!(lines.len(), 7, "{lines:?}");
    for i in [0, 1, 4, 5] {
        assert!(lines[i].contains("engine panicked"), "line {i}: {lines:?}");
    }
    assert_eq!(lines[2], "{\"class\":0,\"engine\":\"flint\",\"batch\":1}");
    assert!(lines[3].contains("\"ok\":true"), "{lines:?}");
    assert_eq!(lines[6], "{\"class\":1,\"engine\":\"flint\",\"batch\":1}");
    assert_eq!(stats.requests, 6);
    assert_eq!(stats.batches, 4);
}

#[test]
fn a_mixed_tick_scores_every_row_in_one_kernel_call() {
    let (engine, calls, rows) = stub();
    let (addr, runner) = spawn(engine, BatchPolicy::default().max_batch(64));
    let mut client = Client::connect(addr);
    client.send("1,0\nvotes:-1,0\n-2,0\nvotes:2,0\n");
    assert!(client.line().starts_with("{\"class\":1,"));
    assert!(client.line().starts_with("{\"votes\":[3,0],"));
    assert!(client.line().starts_with("{\"class\":0,"));
    assert!(client.line().starts_with("{\"votes\":[0,3],"));
    let stats = client.shutdown(runner);
    assert_eq!(
        calls.load(Ordering::SeqCst) as u64,
        stats.batches,
        "one kernel call per chunk"
    );
    assert_eq!(rows.load(Ordering::SeqCst), 4, "each row scored once");
}

#[test]
fn an_engine_panic_answers_error_for_its_chunk_and_the_loop_keeps_serving() {
    let (engine, _, _) = stub();
    // One row per chunk: the panicking rows take only themselves down.
    let (addr, runner) = spawn(engine, BatchPolicy::default().max_batch(1));
    let mut client = Client::connect(addr);
    client.send(&format!(
        "1,0\n{MARKED},0\nvotes:{MARKED},0\n-1,0\nvotes:1,0\nhealth\n"
    ));
    let lines: Vec<String> = (0..6).map(|_| client.line()).collect();
    assert!(lines[0].starts_with("{\"class\":1,"), "{lines:?}");
    assert!(lines[1].contains("\"error\""), "{lines:?}");
    assert!(lines[1].contains("engine panicked"), "{lines:?}");
    assert!(lines[2].contains("engine panicked"), "{lines:?}");
    assert!(lines[3].starts_with("{\"class\":0,"), "{lines:?}");
    assert!(lines[4].starts_with("{\"votes\":[0,3],"), "{lines:?}");
    assert!(lines[5].contains("\"ok\":true"), "{lines:?}");

    // A second connection is served as if nothing happened.
    let mut second = Client::connect(addr);
    second.send("-3,0\n");
    assert!(second.line().starts_with("{\"class\":0,"));
    drop(second);
    let stats = client.shutdown(runner);
    assert_eq!(stats.requests, 6);
}
