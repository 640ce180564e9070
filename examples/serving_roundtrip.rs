//! Client/server round trip through the `flint-serve` TCP front end:
//! train a forest, serve it on a loopback port through the `epoll`
//! event loop, score rows over the wire from concurrent client
//! connections, check every response against the forest's direct
//! majority vote, read the `stats` snapshot, and shut the server down
//! cleanly. TCP serving needs Linux; elsewhere the example says so and
//! exits (the stdin front end, `flint_serve::serve_lines`, serves on
//! every platform).
//!
//! ```text
//! cargo run --release --example serving_roundtrip
//! ```

use flint_suite::data::synth::SynthSpec;
use flint_suite::exec::{EngineBuilder, EngineKind};
use flint_suite::forest::{ForestConfig, RandomForest};
use flint_suite::serve::{BatchPolicy, EpollServer};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if !cfg!(target_os = "linux") {
        println!("serving_roundtrip: TCP serving needs Linux (epoll); skipped");
        return Ok(());
    }
    let data = SynthSpec::new(240, 6, 3).seed(17).generate();
    let forest = RandomForest::fit(&data, &ForestConfig::grid(12, 10))?;
    let engine = EngineBuilder::new(&forest)
        .build(EngineKind::parse("flint-blocked").expect("registered"))?;

    // Port 0 = ephemeral: the OS picks a free loopback port.
    let server = EpollServer::bind("127.0.0.1:0", engine, BatchPolicy::default().max_batch(16))?;
    let addr = server.local_addr();
    let engine_name = server.engine_name();
    let runner = std::thread::spawn(move || server.run());
    println!(
        "serving {} trees on {addr} (engine {engine_name})",
        forest.n_trees()
    );

    // Four concurrent clients, each scoring a strided quarter of the
    // rows — requests that arrive in the same loop iteration share one
    // engine call server-side.
    const CLIENTS: usize = 4;
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let data = &data;
            let forest = &forest;
            scope.spawn(move || {
                let stream = TcpStream::connect(addr).expect("connects");
                stream.set_nodelay(true).expect("nodelay");
                let mut reader = BufReader::new(stream.try_clone().expect("clones"));
                let mut writer = stream;
                let mut line = String::new();
                for i in (client..data.n_samples()).step_by(CLIENTS) {
                    let row: Vec<String> = data.sample(i).iter().map(f32::to_string).collect();
                    // Even-numbered clients speak bare CSV, odd ones the
                    // JSON-ish form; the server accepts both.
                    let request = if client % 2 == 0 {
                        row.join(",") + "\n"
                    } else {
                        format!("{{\"features\":[{}]}}\n", row.join(","))
                    };
                    writer.write_all(request.as_bytes()).expect("writes");
                    line.clear();
                    reader.read_line(&mut line).expect("reads");
                    let expected = forest.predict_majority(data.sample(i));
                    assert!(
                        line.starts_with(&format!("{{\"class\":{expected},")),
                        "row {i}: served {line:?}, expected class {expected}"
                    );
                }
            });
        }
    });
    println!(
        "{} rows served, every response bit-identical to predict_majority",
        data.n_samples()
    );

    // One more connection for the admin commands.
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = String::new();
    writer.write_all(b"stats\n")?;
    reader.read_line(&mut line)?;
    println!("stats: {}", line.trim());
    writer.write_all(b"shutdown\n")?;
    line.clear();
    reader.read_line(&mut line)?;
    println!("shutdown: {}", line.trim());

    let final_stats = runner.join().expect("server thread")?;
    assert_eq!(final_stats.requests, data.n_samples() as u64);
    println!("final:  {}", final_stats.to_json());
    Ok(())
}
