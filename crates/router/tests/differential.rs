//! The router differential suite: for **every** engine in the registry
//! and shard counts {1, 2, 5} (ragged spans included — 5 trees split
//! 3/2 and 1/1/1/1/1), the sharded fan-out answer must be
//! bit-identical to the engine family's reference and to the
//! single-node answer. This is the tentpole guarantee: a router in
//! front of N shards is indistinguishable from one server over the
//! whole forest — except when a shard fails, in which case the answer
//! is a *visible* busy/error, never a partial-quorum class.

#![cfg(target_os = "linux")]

use flint_data::synth::SynthSpec;
use flint_exec::{EngineBuilder, EngineKind, HalfForest, Predictor};
use flint_forest::metrics::majority_vote;
use flint_forest::{plan_spans, ForestConfig, RandomForest};
use flint_router::RouterServer;
use flint_serve::{BatchPolicy, EpollServer, EventLoopConfig, MetricsSnapshot};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;

/// The registry this suite believes it is covering. A new engine that
/// lands without being added here fails the guard below — sharded
/// inference correctness is part of an engine's definition of done.
const REQUIRED: [&str; 21] = [
    "naive",
    "cags",
    "flint",
    "cags-flint",
    "softfloat",
    "naive-blocked",
    "cags-blocked",
    "flint-blocked",
    "cags-flint-blocked",
    "softfloat-blocked",
    "quickscorer",
    "quickscorer-float",
    "vm-flint",
    "vm-float",
    "vm-softfloat",
    "simd",
    "simd-float",
    "jit",
    "jit-float",
    "simd-f16",
    "simd-f16-float",
];

fn fixture() -> (flint_data::Dataset, RandomForest) {
    let data = SynthSpec::new(48, 4, 3)
        .cluster_std(1.0)
        .negative_fraction(0.5)
        .seed(33)
        .generate();
    let forest = RandomForest::fit(&data, &ForestConfig::grid(5, 6)).expect("trainable");
    (data, forest)
}

fn build_engine(
    forest: &RandomForest,
    data: &flint_data::Dataset,
    kind: EngineKind,
) -> Box<dyn Predictor> {
    EngineBuilder::new(forest)
        .profile_data(data)
        .build(kind)
        .expect("every registry engine builds on the fixture forest")
}

/// One shard: an epoll server over a tree span, running the engine
/// under test. `max_batch` 1 keeps batch fills deterministic.
fn spawn_shard(
    forest: &RandomForest,
    data: &flint_data::Dataset,
    kind: EngineKind,
    span: (usize, usize),
    config: EventLoopConfig,
) -> (SocketAddr, JoinHandle<MetricsSnapshot>) {
    let part = forest.tree_span(span.0, span.1);
    let engine = build_engine(&part, data, kind);
    let server = EpollServer::bind_with_config(
        "127.0.0.1:0",
        engine,
        BatchPolicy::default().max_batch(1).workers(1),
        config,
    )
    .expect("shard binds loopback");
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
fn registry_is_fully_enumerated() {
    let names: Vec<&str> = EngineKind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(
        names.len(),
        REQUIRED.len(),
        "engine registry changed; extend the router differential suite: {names:?}"
    );
    for name in REQUIRED {
        assert!(
            names.contains(&name),
            "required engine {name} missing from registry {names:?}"
        );
    }
}

/// Rows with NaN features, as a client writes them. NaN lies outside
/// FLInt's theorem: order keys send `-nan` and `nan` opposite ways,
/// float compares send both one way. So these rows have no family
/// reference, and the router must answer what the same engine answers
/// on one node, the sign of each NaN included.
const NAN_ROWS: [&str; 3] = [
    "-nan,-nan,-nan,-nan",
    "nan,nan,nan,nan",
    "-nan,0.5,nan,-1.25",
];

/// Sends `text` to the router as a class row and as a `votes:` row,
/// and checks both answers against the histogram `votes`.
fn assert_routes_to(client: &mut Client, text: &str, votes: &[u32], what: &str) {
    let class = majority_vote(votes);
    let got = client.roundtrip(text).to_owned();
    assert!(
        got.starts_with(&format!("{{\"class\":{class},\"engine\":\"router\"")),
        "{what}: {got}"
    );
    let expected_votes = flint_forest::votes::render_votes(votes);
    let got = client.roundtrip(&format!("votes:{text}")).to_owned();
    assert!(
        got.starts_with(&format!(
            "{{\"votes\":{expected_votes},\"engine\":\"router\""
        )),
        "{what}: {got}"
    );
}

/// The flagship matrix: every engine × shard counts {1, 2, 5}. The
/// router's class and votes answers must equal the engine family's
/// reference histogram (`RandomForest::predict_votes` for exact
/// engines, `HalfForest::predict_votes` for the f16 engines) and the
/// same engine's single-node answer on every row — bit-identical
/// histograms, not just agreeing classes. The family reference catches
/// a fault the shards and the single-node engine share. The
/// [`NAN_ROWS`] answers must equal the single-node engine's.
#[test]
fn every_engine_shards_identically_at_1_2_and_5_shards() {
    let (data, forest) = fixture();
    for kind in EngineKind::ALL {
        // Single-node reference: the full forest under this engine.
        let reference = build_engine(&forest, &data, kind);
        let half = match kind {
            EngineKind::SimdF16(compare) => {
                Some(HalfForest::compile(&forest, compare).expect("compiles"))
            }
            _ => None,
        };
        for n_shards in [1usize, 2, 5] {
            let spans = plan_spans(forest.n_trees(), n_shards);
            let shards: Vec<_> = spans
                .iter()
                .map(|&s| spawn_shard(&forest, &data, kind, s, EventLoopConfig::default()))
                .collect();
            let shard_addrs: Vec<SocketAddr> = shards.iter().map(|(a, _)| *a).collect();
            let router = RouterServer::bind("127.0.0.1:0", shard_addrs).expect("router binds");
            let addr = router.local_addr();
            let runner = std::thread::spawn(move || router.run().expect("routes"));

            let mut client = Client::connect(addr);
            for i in (0..48).step_by(6) {
                let row = data.sample(i);
                let text: Vec<String> = row.iter().map(f32::to_string).collect();
                let votes = match &half {
                    Some(half) => half.predict_votes(row),
                    None => forest.predict_votes(row),
                };
                let what = format!("{} x{n_shards} row {i}", kind.name());
                assert_routes_to(&mut client, &text.join(","), &votes, &what);
                assert_eq!(reference.predict_votes(row), votes, "{what} single node");
            }
            for text in NAN_ROWS {
                let row: Vec<f32> = text
                    .split(',')
                    .map(|f| f.parse().expect("a float"))
                    .collect();
                let what = format!("{} x{n_shards} row {text}", kind.name());
                assert_routes_to(&mut client, text, &reference.predict_votes(&row), &what);
            }
            assert!(client.roundtrip("shutdown").contains("shutting down"));
            runner.join().expect("router thread");
            for (addr, runner) in shards {
                shutdown_peer(addr);
                runner.join().expect("shard thread");
            }
        }
    }
}

/// A shard that sheds (zero in-flight window) surfaces as a visible
/// `busy` naming the shard at the router — the fan-out never merges a
/// quorum missing that shard's histogram.
#[test]
fn shard_shed_propagates_as_visible_busy() {
    let (data, forest) = fixture();
    let kind = EngineKind::parse("flint-blocked").expect("registered");
    let spans = plan_spans(forest.n_trees(), 2);
    let (a0, r0) = spawn_shard(&forest, &data, kind, spans[0], EventLoopConfig::default());
    // The second shard admits connections but sheds every prediction.
    let (a1, r1) = spawn_shard(
        &forest,
        &data,
        kind,
        spans[1],
        EventLoopConfig::default().max_inflight(0),
    );
    let router = RouterServer::bind("127.0.0.1:0", vec![a0, a1]).expect("router binds");
    let addr = router.local_addr();
    let runner = std::thread::spawn(move || router.run().expect("routes"));

    let mut client = Client::connect(addr);
    let text: Vec<String> = data.sample(0).iter().map(f32::to_string).collect();
    let got = client.roundtrip(&text.join(",")).to_owned();
    assert!(got.contains("\"busy\":true"), "{got}");
    assert!(got.contains(&format!("shard {a1}")), "{got}");
    assert!(got.contains("max-inflight 0"), "{got}");
    let stats = client.roundtrip("stats").to_owned();
    assert!(stats.contains("\"shed\":1"), "{stats}");

    assert!(client.roundtrip("shutdown").contains("shutting down"));
    runner.join().expect("router thread");
    for (addr, runner) in [(a0, r0), (a1, r1)] {
        shutdown_peer(addr);
        runner.join().expect("shard thread");
    }
}

/// Malformed and oversized client lines answer locally (the shards
/// never see them), and a pipelined mix of good and bad lines comes
/// back in request order.
#[test]
fn malformed_oversized_and_good_lines_interleave_in_order() {
    let (data, forest) = fixture();
    let kind = EngineKind::parse("flint").expect("registered");
    let spans = plan_spans(forest.n_trees(), 2);
    let shards: Vec<_> = spans
        .iter()
        .map(|&s| spawn_shard(&forest, &data, kind, s, EventLoopConfig::default()))
        .collect();
    let shard_addrs: Vec<SocketAddr> = shards.iter().map(|(a, _)| *a).collect();
    let router = RouterServer::bind("127.0.0.1:0", shard_addrs).expect("router binds");
    let addr = router.local_addr();
    let runner = std::thread::spawn(move || router.run().expect("routes"));

    let reference = build_engine(&forest, &data, kind);
    let row = data.sample(7);
    let text: Vec<String> = row.iter().map(f32::to_string).collect();
    let class = majority_vote(&reference.predict_votes(row));

    // One write, five lines: good, malformed, good, oversized, good.
    let stream = TcpStream::connect(addr).expect("connects");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clones"));
    let mut writer = stream;
    let good = text.join(",");
    let oversized = "9,".repeat(flint_serve::MAX_LINE_BYTES);
    let burst = format!("{good}\nwhat,even,is,this\n{good}\n{oversized}\n{good}\n");
    writer.write_all(burst.as_bytes()).expect("writes");
    let mut line = String::new();
    let expectations: [&dyn Fn(&str) -> bool; 5] = [
        &|l: &str| l.starts_with(&format!("{{\"class\":{class},")),
        &|l: &str| l.contains("\"error\"") && l.contains("cannot parse feature"),
        &|l: &str| l.starts_with(&format!("{{\"class\":{class},")),
        &|l: &str| l.contains("exceeds"),
        &|l: &str| l.starts_with(&format!("{{\"class\":{class},")),
    ];
    for (i, check) in expectations.iter().enumerate() {
        line.clear();
        reader.read_line(&mut line).expect("reads");
        assert!(check(line.trim_end()), "response {i} wrong: {line}");
    }

    writeln!(writer, "shutdown").expect("writes");
    line.clear();
    reader.read_line(&mut line).expect("reads");
    assert!(line.contains("shutting down"), "{line}");
    runner.join().expect("router thread");
    for (addr, runner) in shards {
        shutdown_peer(addr);
        runner.join().expect("shard thread");
    }
}

/// Killing a shard mid-stream under pipelined load: every outstanding
/// request resolves (busy or the exact class), never a wrong class,
/// and the client connection survives.
#[test]
fn mid_stream_shard_death_never_yields_a_wrong_class() {
    let (data, forest) = fixture();
    let kind = EngineKind::parse("flint-blocked").expect("registered");
    let spans = plan_spans(forest.n_trees(), 2);
    let (a0, r0) = spawn_shard(&forest, &data, kind, spans[0], EventLoopConfig::default());
    let (a1, r1) = spawn_shard(&forest, &data, kind, spans[1], EventLoopConfig::default());
    let router = RouterServer::bind("127.0.0.1:0", vec![a0, a1]).expect("router binds");
    let addr = router.local_addr();
    let runner = std::thread::spawn(move || router.run().expect("routes"));

    let reference = build_engine(&forest, &data, kind);
    let mut client = Client::connect(addr);
    let row = data.sample(3);
    let text: Vec<String> = row.iter().map(f32::to_string).collect();
    let class = majority_vote(&reference.predict_votes(row));
    // Prime the path, then kill shard 1 and hammer: every response is
    // either the exact class (sent before the death landed) or a
    // visible busy — and once the router notices, it stays busy.
    let got = client.roundtrip(&text.join(",")).to_owned();
    assert!(got.starts_with(&format!("{{\"class\":{class},")), "{got}");
    shutdown_peer(a1);
    r1.join().expect("shard thread");
    let mut saw_busy = false;
    for i in 0..200 {
        let got = client.roundtrip(&text.join(",")).to_owned();
        let exact = got.starts_with(&format!("{{\"class\":{class},"));
        let busy = got.contains("\"busy\":true");
        assert!(
            exact || busy,
            "iteration {i}: wrong or silent answer: {got}"
        );
        if busy {
            saw_busy = true;
        }
        if saw_busy {
            assert!(busy, "iteration {i}: merged after the shard died: {got}");
        }
        if saw_busy && i > 20 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert!(saw_busy, "shard death never became visible");

    assert!(client.roundtrip("shutdown").contains("shutting down"));
    runner.join().expect("router thread");
    shutdown_peer(a0);
    r0.join().expect("shard thread");
}
