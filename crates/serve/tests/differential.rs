//! Differential serving suite: for **every** engine of the registry,
//! responses returned by `flint serve` are bit-identical to direct
//! `RandomForest::predict_majority` on the same rows, across batch-size
//! caps {1, 7, 64} — the serving-layer extension of the
//! engine-equivalence suite. It runs through **both** front ends: the
//! `epoll` TCP event loop with concurrent client connections, and the
//! stdin loop ([`serve_lines`]) over in-memory buffers. A dedicated
//! cross-front-end pass proves the two return **byte-identical**
//! response lines — predictions, parse errors and oversized-line
//! verdicts alike — for the same request stream.
//!
//! The engine list is taken from `EngineKind::ALL` at run time, so a
//! new registry variant (the SIMD lane engines arrived this way) is
//! served and diffed with zero changes here;
//! [`differential_suite_covers_every_known_registry_name`] is the
//! regression guard that fails loudly if a name ever *leaves* the
//! registry and silently shrinks this suite's coverage.

use flint_data::synth::SynthSpec;
use flint_data::Dataset;
use flint_exec::{EngineBuilder, EngineKind, HalfForest};
use flint_forest::{ForestConfig, RandomForest};
use flint_serve::{serve_lines, BatchPolicy, EpollServer, MetricsSnapshot};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;

fn model() -> (Dataset, RandomForest) {
    let data = SynthSpec::new(48, 4, 3)
        .cluster_std(1.0)
        .negative_fraction(0.5)
        .seed(33)
        .generate();
    let forest = RandomForest::fit(&data, &ForestConfig::grid(5, 6)).expect("trainable");
    (data, forest)
}

/// Pulls the `"class"` value out of a response line, failing loudly on
/// error responses.
fn response_class(line: &str) -> u32 {
    let rest = line
        .split_once("\"class\":")
        .unwrap_or_else(|| panic!("not a prediction: {line}"))
        .1;
    rest.split(&[',', '}'][..])
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("malformed class in {line}"))
}

/// The floor of names the suite above must cover. `EngineKind::ALL`
/// growing past this list is fine (new engines are covered
/// automatically); any name *disappearing* means the differential
/// suite quietly stopped proving that engine and must fail here.
#[test]
fn differential_suite_covers_every_known_registry_name() {
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
    let names: std::collections::BTreeSet<&str> =
        EngineKind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(
        names.len(),
        EngineKind::ALL.len(),
        "duplicate names in EngineKind::ALL"
    );
    for required in REQUIRED {
        assert!(
            names.contains(required),
            "engine {required:?} left the registry — the serving differential \
             suite no longer proves it bit-identical"
        );
    }
}

/// Binds and runs one epoll server, returning the address and the
/// thread that joins to the final stats snapshot.
fn spawn_epoll(
    engine: Box<dyn flint_exec::Predictor>,
    max_batch: usize,
) -> (SocketAddr, JoinHandle<MetricsSnapshot>) {
    let policy = BatchPolicy::default().max_batch(max_batch);
    let server = EpollServer::bind("127.0.0.1:0", engine, policy).expect("binds an ephemeral port");
    let addr = server.local_addr();
    (
        addr,
        std::thread::spawn(move || server.run().expect("serves")),
    )
}

/// Each engine's comparison-family reference for every model row: the
/// f32 majority vote for exact engines, the binary16 forest's scalar
/// walk for the f16 engines.
fn reference(kind: EngineKind, data: &Dataset, forest: &RandomForest) -> Vec<u32> {
    match kind {
        EngineKind::SimdF16(compare) => {
            let half = HalfForest::compile(forest, compare).expect("compiles");
            (0..data.n_samples())
                .map(|i| half.predict(data.sample(i)))
                .collect()
        }
        _ => (0..data.n_samples())
            .map(|i| forest.predict_majority(data.sample(i)))
            .collect(),
    }
}

fn csv_line(row: &[f32]) -> String {
    let cells: Vec<String> = row.iter().map(f32::to_string).collect();
    cells.join(",") + "\n"
}

#[cfg(target_os = "linux")]
#[test]
fn every_engine_is_bit_identical_through_the_epoll_front_end() {
    let (data, forest) = model();
    let builder = EngineBuilder::new(&forest).profile_data(&data);
    const CLIENTS: usize = 4;

    for kind in EngineKind::ALL {
        let reference = &reference(kind, &data, &forest);
        for max_batch in [1usize, 7, 64] {
            let engine = builder.build(kind).expect("registered engines build");
            let (addr, runner) = spawn_epoll(engine, max_batch);

            // Concurrent closed-loop clients, each owning a strided
            // slice of the rows, so batches really do mix rows from
            // different connections.
            std::thread::scope(|scope| {
                for client in 0..CLIENTS {
                    let data = &data;
                    scope.spawn(move || {
                        let stream = TcpStream::connect(addr).expect("connects");
                        stream.set_nodelay(true).expect("nodelay");
                        let mut reader = BufReader::new(stream.try_clone().expect("clones"));
                        let mut writer = stream;
                        let mut line = String::new();
                        for i in (client..data.n_samples()).step_by(CLIENTS) {
                            writer
                                .write_all(csv_line(data.sample(i)).as_bytes())
                                .expect("writes");
                            line.clear();
                            reader.read_line(&mut line).expect("reads");
                            assert_eq!(
                                response_class(&line),
                                reference[i],
                                "{kind} max_batch {max_batch} sample {i}: {line}"
                            );
                        }
                    });
                }
            });

            let stream = TcpStream::connect(addr).expect("connects");
            let mut reader = BufReader::new(stream.try_clone().expect("clones"));
            let mut writer = stream;
            writeln!(writer, "shutdown").expect("writes");
            let mut line = String::new();
            reader.read_line(&mut line).expect("reads");
            let stats = runner.join().expect("server thread");
            assert_eq!(
                stats.requests,
                data.n_samples() as u64,
                "{kind} max_batch {max_batch}"
            );
            assert!(
                stats.mean_fill <= max_batch as f64,
                "{kind} max_batch {max_batch}: fill {}",
                stats.mean_fill
            );
        }
    }
}

/// Every model row piped through the stdin loop in one read: answers
/// come back in order, bit-identical to the reference, and the read is
/// scored in full chunks of `max_batch` rows.
#[test]
fn every_engine_is_bit_identical_through_stdin() {
    let (data, forest) = model();
    let builder = EngineBuilder::new(&forest).profile_data(&data);
    let input: String = (0..data.n_samples())
        .map(|i| csv_line(data.sample(i)))
        .collect();

    for kind in EngineKind::ALL {
        let reference = reference(kind, &data, &forest);
        for max_batch in [1usize, 7, 64] {
            let engine = builder.build(kind).expect("registered engines build");
            let mut out = Vec::new();
            let stats =
                serve_lines(&*engine, max_batch, input.as_bytes(), &mut out).expect("serves");
            let text = String::from_utf8(out).expect("utf8");
            let classes: Vec<u32> = text.lines().map(response_class).collect();
            assert_eq!(classes, reference, "{kind} max_batch {max_batch}");
            assert_eq!(
                (stats.requests, stats.batches),
                (
                    data.n_samples() as u64,
                    data.n_samples().div_ceil(max_batch) as u64
                ),
                "{kind} max_batch {max_batch}"
            );
        }
    }
}

/// Replays one fixed request stream — every model row, a malformed
/// line, an oversized line and the shutdown command — through the
/// epoll front end and the stdin loop and asserts the response
/// transcripts are **byte identical**, for every engine. `max_batch` 1
/// pins the reported batch fill so prediction lines are fully
/// deterministic; the error and oversized verdicts must agree because
/// both front ends share the sans-io `ProtocolMachine`, the control
/// verbs and the chunk scorer.
#[cfg(target_os = "linux")]
#[test]
fn front_ends_return_byte_identical_response_streams() {
    let (data, forest) = model();
    let builder = EngineBuilder::new(&forest).profile_data(&data);
    let mut request_stream: String = (0..data.n_samples())
        .map(|i| csv_line(data.sample(i)))
        .collect();
    request_stream.push_str("not,a,number\n");
    request_stream.push_str(&"9".repeat(70 * 1024));
    request_stream.push('\n');
    request_stream.push_str("shutdown\n");
    let expected_lines = data.n_samples() + 3;

    for kind in EngineKind::ALL {
        let (addr, runner) = spawn_epoll(builder.build(kind).expect("builds"), 1);
        let stream = TcpStream::connect(addr).expect("connects");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(stream.try_clone().expect("clones"));
        let mut writer = stream;
        writer
            .write_all(request_stream.as_bytes())
            .expect("writes the pipelined stream");
        let mut epoll = Vec::with_capacity(expected_lines);
        let mut line = String::new();
        for _ in 0..expected_lines {
            line.clear();
            reader.read_line(&mut line).expect("reads");
            epoll.push(line.clone());
        }
        runner.join().expect("server thread");

        let engine = builder.build(kind).expect("builds");
        let mut out = Vec::new();
        serve_lines(&*engine, 1, request_stream.as_bytes(), &mut out).expect("serves");
        let text = String::from_utf8(out).expect("utf8");
        let stdin: Vec<String> = text.split_inclusive('\n').map(str::to_owned).collect();
        assert_eq!(epoll, stdin, "{kind}: front ends disagreed byte-for-byte");
    }
}
