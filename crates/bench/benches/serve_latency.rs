//! Open-loop serving latency over real TCP — the data behind the
//! "Open-loop serving" section of EXPERIMENTS.md and the committed
//! `BENCH_serve.json`. The same fixed offered rate drives the `epoll`
//! front end directly and the fan-out router over two tree-span epoll
//! shards: requests depart on a virtual-time schedule and every latency
//! is charged from its **intended** send time, so a backed-up server
//! shows up in the tail instead of hiding in a stretched schedule.
//! Linux only, like the epoll front end.
//!
//! Plain `main` (no criterion): the quantity of interest is the latency
//! *distribution* of concurrent requests, not the mean runtime of a hot
//! loop.
//!
//! ```text
//! cargo bench -p flint-bench --bench serve_latency
//! cargo bench -p flint-bench --bench serve_latency -- \
//!     --rate 2000 --requests 8000 --conns 8 --json BENCH_serve.json
//! ```

use flint_bench::loadgen::{open_loop, OpenLoopReport, OpenLoopSpec};
use flint_data::train_test_split;
use flint_data::uci::{Scale, UciDataset};
use flint_exec::{BatchOptions, EngineBuilder, EngineKind, KernelCaps};
use flint_forest::{ForestConfig, RandomForest};
use flint_serve::{BatchPolicy, EpollServer};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};

struct Args {
    rate_rps: f64,
    requests: usize,
    conns: usize,
    json_path: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        rate_rps: 2000.0,
        requests: 6000,
        conns: 8,
        json_path: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match flag.as_str() {
            "--rate" => args.rate_rps = value("--rate").parse().expect("numeric --rate"),
            "--requests" => {
                args.requests = value("--requests").parse().expect("numeric --requests")
            }
            "--conns" => args.conns = value("--conns").parse().expect("numeric --conns"),
            "--json" => args.json_path = Some(value("--json")),
            "--bench" => {} // cargo bench passes this through
            other => panic!("unknown flag {other} (valid: --rate --requests --conns --json)"),
        }
    }
    args
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|rev| rev.trim().to_owned())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Binds an epoll server for `forest` on a loopback port and runs it
/// on its own thread until a client sends `shutdown`.
fn spawn_epoll(
    forest: &RandomForest,
    kind: EngineKind,
    max_batch: usize,
) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let engine = EngineBuilder::new(forest)
        .options(BatchOptions::default().block_samples(max_batch))
        .build(kind)
        .expect("builds");
    let policy = BatchPolicy::default().max_batch(max_batch);
    let server = EpollServer::bind("127.0.0.1:0", engine, policy).expect("binds loopback");
    let addr = server.local_addr();
    let runner = std::thread::spawn(move || {
        server.run().expect("serves");
    });
    (addr, runner)
}

fn shutdown(addr: SocketAddr, runner: std::thread::JoinHandle<()>) {
    let mut admin = TcpStream::connect(addr).expect("connects for shutdown");
    admin.write_all(b"shutdown\n").expect("requests shutdown");
    runner.join().expect("server thread");
}

/// One open-loop run against a single epoll server.
fn open_loop_against_epoll(
    forest: &RandomForest,
    kind: EngineKind,
    max_batch: usize,
    rows: &[Vec<f32>],
    spec: OpenLoopSpec,
) -> OpenLoopReport {
    let (addr, runner) = spawn_epoll(forest, kind, max_batch);
    let report = open_loop(addr, rows, spec).expect("open loop runs");
    shutdown(addr, runner);
    report
}

/// One open-loop run through the fan-out/merge router over two epoll
/// shards (the forest split into contiguous tree spans).
fn open_loop_against_router(
    forest: &RandomForest,
    kind: EngineKind,
    max_batch: usize,
    rows: &[Vec<f32>],
    spec: OpenLoopSpec,
) -> OpenLoopReport {
    let shards: Vec<_> = forest
        .plan_spans(2)
        .into_iter()
        .map(|(start, end)| spawn_epoll(&forest.tree_span(start, end), kind, max_batch))
        .collect();
    let shard_addrs: Vec<SocketAddr> = shards.iter().map(|(a, _)| *a).collect();
    let router =
        flint_router::RouterServer::bind("127.0.0.1:0", shard_addrs).expect("router binds");
    let addr = router.local_addr();
    let runner = std::thread::spawn(move || {
        router.run().expect("routes");
    });
    let report = open_loop(addr, rows, spec).expect("open loop runs");
    shutdown(addr, runner);
    for (addr, runner) in shards {
        shutdown(addr, runner);
    }
    report
}

fn main() {
    let args = parse_args();
    if !cfg!(target_os = "linux") {
        println!("serve_latency: skipped, the epoll front end needs Linux");
        return;
    }
    let max_batch_serving = 64;
    let data = UciDataset::Magic.generate(Scale::Small);
    let split = train_test_split(&data, 0.25, 42);
    let forest = RandomForest::fit(&split.train, &ForestConfig::grid(24, 16)).expect("trainable");
    let rows: Vec<Vec<f32>> = (0..split.test.n_samples())
        .map(|i| split.test.sample(i).to_vec())
        .collect();
    let kind = EngineKind::parse("flint-blocked").expect("registered");

    let spec = OpenLoopSpec {
        rate_rps: args.rate_rps,
        total_requests: args.requests,
        connections: args.conns,
        catch_up_factor: 2.0,
    };
    println!(
        "open loop over TCP: {} requests offered at {:.0} req/s across {} connections, \
         max_batch {max_batch_serving} (latency from intended send time — \
         coordinated-omission-safe)",
        spec.total_requests, spec.rate_rps, spec.connections
    );
    println!(
        "{:>9} {:>11} {:>11} {:>9} {:>9} {:>9} {:>9} {:>7}",
        "front_end", "offered r/s", "achieved", "p50 us", "p99 us", "p999 us", "max us", "errors"
    );
    // The sharded tier takes the same offered load through the fan-out
    // router over two tree-span shards — the p50/p99 delta vs `epoll`
    // is the price of one extra hop plus the histogram merge.
    let measured = [
        (
            "epoll",
            open_loop_against_epoll(&forest, kind, max_batch_serving, &rows, spec),
        ),
        (
            "router",
            open_loop_against_router(&forest, kind, max_batch_serving, &rows, spec),
        ),
    ];
    for (front_end, report) in &measured {
        println!(
            "{:>9} {:>11.0} {:>11.0} {:>9} {:>9} {:>9} {:>9} {:>7}",
            front_end,
            report.offered_rps,
            report.achieved_rps,
            report.latency.p50_us,
            report.latency.p99_us,
            report.latency.p999_us,
            report.latency.max_us,
            report.errors
        );
    }
    println!("(achieved < offered means the server could not absorb the schedule)");

    if let Some(path) = args.json_path {
        let rows_json: Vec<String> = measured
            .iter()
            .map(|(front_end, r)| {
                format!(
                    "{{\"front_end\":\"{}\",\"offered_rps\":{:.0},\"achieved_rps\":{:.0},\
                     \"responses\":{},\"errors\":{},\"p50_us\":{},\"p99_us\":{},\
                     \"p999_us\":{},\"max_us\":{}}}",
                    front_end,
                    r.offered_rps,
                    r.achieved_rps,
                    r.responses,
                    r.errors,
                    r.latency.p50_us,
                    r.latency.p99_us,
                    r.latency.p999_us,
                    r.latency.max_us
                )
            })
            .collect();
        let json = format!(
            "{{\"schema\":\"flint-bench/2\",\"kernel_caps\":\"{}\",\"git_rev\":\"{}\",\
             \"shape\":\"serve-open-loop\",\
             \"workload\":{{\"requests\":{},\"rate_rps\":{:.0},\"connections\":{},\
             \"features\":{},\"trees\":{},\"max_batch\":{}}},\
             \"front_ends\":[{}]}}\n",
            KernelCaps::get().summary(),
            git_rev(),
            spec.total_requests,
            spec.rate_rps,
            spec.connections,
            split.test.n_features(),
            forest.n_trees(),
            max_batch_serving,
            rows_json.join(",")
        );
        std::fs::write(&path, json).expect("writes the JSON snapshot");
        println!("wrote {path}");
    }
}
