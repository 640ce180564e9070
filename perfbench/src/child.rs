//! The system under test, run in child processes of the benchmark (the
//! benchmark binary re-executed with `child <role> ...`), so that peak
//! memory, set-up time and CPU time belong to the system alone and not
//! to the load generator or the training that made its model.
//!
//! Roles:
//! * `score <dir> <rows_ms> <request_ms>` — loads `dir/model.txt`,
//!   builds the four scored engines and answers the first row (set-up
//!   ends there); then checks every row and times batch scoring for
//!   `rows_ms`, and request-at-a-time scoring for `request_ms` per fill
//!   (zero skips either);
//! * `serve <model> <engine> <first_tree> <end_tree>` — one
//!   `EpollServer` with `flint serve` defaults over the whole forest
//!   (`end_tree` 0) or a tree span;
//! * `route <shard,shard,...>` — one `RouterServer` over the shards.
//!
//! Every role prints lines of `key value...` on stdout; servers print
//! `ready <port> <ns since model read began> <kernel path>` once bound.

use crate::stats::median;
use crate::sys;
use flint_data::FeatureMatrix;
use flint_exec::{BatchOptions, EngineBuilder, EngineKind, Predictor};
use flint_router::RouterServer;
use flint_serve::{BatchPolicy, EpollServer, EventLoopConfig};
use std::collections::BTreeMap;
use std::fs::File;
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The engines `score-magic` gates: the paper's float baseline, its
/// FLInt configuration (also the `flint serve` default), and the two
/// lane engines.
pub const SCORED_ENGINES: [&str; 4] = ["naive-blocked", "flint-blocked", "simd", "simd-f16"];

/// Batch fills of `serve-magic`'s phases (light is linger-bound at
/// about one row per batch; heavy fills about three), which the
/// in-process request scoring of `score-magic` reproduces.
pub const LIGHT_FILL: usize = 1;
/// See [`LIGHT_FILL`].
pub const HEAVY_FILL: usize = 3;

/// One pass of request scoring: about a thousand requests, short
/// enough to fit in the moments a shared host runs at full speed.
const PASS: Duration = Duration::from_millis(10);

/// The batch options `flint serve` builds its engine with: one worker
/// scores a whole batch inline.
pub fn serve_options() -> BatchOptions {
    BatchOptions::default().block_samples(64).threads(1)
}

/// `flint serve`'s batching defaults: 64-row batches, 200 µs linger, a
/// 1024-deep queue, two scoring workers.
pub fn serve_policy() -> BatchPolicy {
    BatchPolicy::default()
        .max_batch(64)
        .linger(Duration::from_micros(200))
        .queue_depth(1024)
        .workers(2)
}

/// Admission caps of every server the load reaches. The per-connection
/// cap is raised to the loop-wide in-flight cap: two multiplexed load
/// connections (or a router's single link) must not shed on a host
/// stall that the in-flight window absorbs.
pub fn event_loop_config() -> EventLoopConfig {
    EventLoopConfig::default()
        .max_inflight(1024)
        .max_pending_per_conn(1024)
}

/// Writes rows as `u32 n_rows, u32 n_features`, then row-major `f32`s,
/// all little-endian.
pub fn write_rows(path: &Path, rows: &[f32], n_features: usize) -> io::Result<()> {
    let mut bytes = Vec::with_capacity(8 + rows.len() * 4);
    bytes.extend_from_slice(&((rows.len() / n_features) as u32).to_le_bytes());
    bytes.extend_from_slice(&(n_features as u32).to_le_bytes());
    for v in rows {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    std::fs::write(path, bytes)
}

fn read_rows(path: &Path) -> io::Result<(Vec<f32>, usize)> {
    let words = read_words(path)?;
    let (n_rows, n_features) = (words[0] as usize, words[1] as usize);
    let rows: Vec<f32> = words[2..].iter().map(|&w| f32::from_bits(w)).collect();
    if rows.len() != n_rows * n_features {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "short row file"));
    }
    Ok((rows, n_features))
}

/// Writes `u32` words little-endian.
pub fn write_words(path: &Path, words: &[u32]) -> io::Result<()> {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    std::fs::write(path, bytes)
}

fn read_words(path: &Path) -> io::Result<Vec<u32>> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

/// The kernel path an engine reports in its `describe()` suffix, or
/// `-` for engines without kernel dispatch.
pub fn kernel_of(engine: &dyn Predictor) -> String {
    engine
        .describe()
        .rsplit_once("[kernel ")
        .and_then(|(_, rest)| rest.strip_suffix(']'))
        .unwrap_or("-")
        .to_owned()
}

/// Runs a child role; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let result = match args.first().map(String::as_str) {
        Some("score") if args.len() == 4 => score(Path::new(&args[1]), &args[2], &args[3]),
        Some("serve") if args.len() == 5 => serve(&args[1..]),
        Some("route") if args.len() == 2 => route(&args[1]),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("bad child arguments {args:?}"),
        )),
    };
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench child: {e}");
            2
        }
    }
}

fn load_model(path: &Path) -> io::Result<flint_forest::RandomForest> {
    flint_forest::io::read_forest(BufReader::new(File::open(path)?))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Builds registry engine `name` over `forest`.
pub fn build(
    forest: &flint_forest::RandomForest,
    name: &str,
    opts: BatchOptions,
) -> io::Result<Box<dyn Predictor>> {
    let kind = EngineKind::parse(name)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, format!("engine {name}")))?;
    EngineBuilder::new(forest)
        .options(opts)
        .build(kind)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

fn score(dir: &Path, rows_ms: &str, request_ms: &str) -> io::Result<()> {
    let ms = |s: &str| Duration::from_millis(s.parse().unwrap_or(0));
    let (rows_time, request_time) = (ms(rows_ms), ms(request_ms));
    let (rows, nf) = read_rows(&dir.join("rows.bin"))?;
    let refs = read_words(&dir.join("refs.bin"))?;
    let n_rows = rows.len() / nf;
    let reference = |engine: &str| {
        if engine == "simd-f16" {
            &refs[n_rows..]
        } else {
            &refs[..n_rows]
        }
    };
    let mut out = io::stdout().lock();

    // Set-up: model text to the first correct answer of every engine.
    let t0 = Instant::now();
    let forest = load_model(&dir.join("model.txt"))?;
    let mut engines = Vec::new();
    for name in SCORED_ENGINES {
        let engine = build(&forest, name, BatchOptions::default())?;
        let first = engine.predict_matrix(&FeatureMatrix::from_row_major(1, nf, &rows[..nf]));
        if first[0] != reference(name)[0] {
            writeln!(out, "mismatch {name} 1")?;
        }
        engines.push(engine);
    }
    writeln!(out, "setup_ns {}", t0.elapsed().as_nanos())?;
    for e in &engines {
        writeln!(out, "kernel {} {}", e.name(), kernel_of(e.as_ref()))?;
        writeln!(out, "describe {} {}", e.name(), e.describe())?;
    }

    if !rows_time.is_zero() {
        let matrix = FeatureMatrix::from_row_major(n_rows, nf, &rows);
        for e in &engines {
            let got = e.predict_matrix(&matrix);
            let wrong = got
                .iter()
                .zip(reference(e.name()))
                .filter(|(a, b)| a != b)
                .count();
            writeln!(out, "checked {} {n_rows} {wrong}", e.name())?;
        }
        // Passes interleave across engines so that each engine sees the
        // same host. An engine's figure is its best pass: on a shared
        // host, neighbours slow some passes by up to 2x, and only the
        // fastest passes repeat from run to run.
        let mut best = vec![0.0f64; engines.len()];
        let mut passes = 0;
        let until = Instant::now() + rows_time;
        while Instant::now() < until || passes < 3 {
            for (k, e) in engines.iter().enumerate() {
                let t = Instant::now();
                black_box(e.predict_matrix(black_box(&matrix)));
                best[k] = best[k].max(n_rows as f64 / t.elapsed().as_secs_f64());
            }
            passes += 1;
        }
        for (e, rate) in engines.iter().zip(&best) {
            writeln!(out, "rows_per_s {} {rate} {passes}", e.name())?;
        }
    }
    if !request_time.is_zero() {
        // Request-at-a-time scoring with the serve default engine at
        // the serving phases' batch fills: what exec alone costs a
        // served request, with no serving layer in the way.
        let serve_engine = build(&forest, "flint-blocked", serve_options())?;
        for (phase, fill) in [("light", LIGHT_FILL), ("heavy", HEAVY_FILL)] {
            let (p50_ns, cpu_ns_per_row, wrong) = request_scoring(
                serve_engine.as_ref(),
                &rows,
                nf,
                reference("flint-blocked"),
                fill,
                request_time,
            )?;
            writeln!(out, "request {phase} {p50_ns} {cpu_ns_per_row} {wrong}")?;
        }
    }
    writeln!(out, "peak_kib {}", sys::peak_rss_kib(std::process::id())?)?;
    out.flush()
}

/// Scores `fill`-row requests one after another for `length`, each the
/// way the batcher scores a batch (transpose, then `predict_matrix`).
/// Returns the best [`PASS`]'s median wall time per request and CPU per
/// row (the best pass is the figure, as for batch scoring), and the
/// number of wrong answers.
fn request_scoring(
    engine: &dyn Predictor,
    rows: &[f32],
    nf: usize,
    reference: &[u32],
    fill: usize,
    length: Duration,
) -> io::Result<(f64, f64, usize)> {
    let n_rows = rows.len() / nf;
    let mut walls = Vec::new();
    let (mut best_p50, mut best_cpu) = (f64::INFINITY, f64::INFINITY);
    let mut pass_end = Instant::now() + PASS;
    let mut pass_cpu0 = sys::thread_cpu_ns()?;
    let mut pass_rows = 0u64;
    let mut wrong = 0;
    let mut next = 0;
    let until = Instant::now() + length;
    while Instant::now() < until {
        if next + fill > n_rows {
            next = 0;
        }
        let t = Instant::now();
        let matrix = FeatureMatrix::from_row_major(fill, nf, &rows[next * nf..(next + fill) * nf]);
        let got = engine.predict_matrix(&matrix);
        walls.push(t.elapsed().as_nanos() as f64);
        wrong += got
            .iter()
            .zip(&reference[next..next + fill])
            .filter(|(a, b)| a != b)
            .count();
        next += fill;
        pass_rows += fill as u64;
        if Instant::now() >= pass_end {
            let cpu = sys::thread_cpu_ns()?;
            best_p50 = best_p50.min(median(&walls).unwrap_or(f64::INFINITY));
            best_cpu = best_cpu.min((cpu - pass_cpu0) as f64 / pass_rows as f64);
            walls.clear();
            pass_rows = 0;
            pass_cpu0 = cpu;
            pass_end = Instant::now() + PASS;
        }
    }
    Ok((best_p50, best_cpu, wrong))
}

fn serve(args: &[String]) -> io::Result<()> {
    let t0 = Instant::now();
    let mut forest = load_model(Path::new(&args[0]))?;
    let span: (usize, usize) = (args[2].parse().unwrap_or(0), args[3].parse().unwrap_or(0));
    if span.1 > 0 {
        forest = forest.tree_span(span.0, span.1);
    }
    let engine = build(&forest, &args[1], serve_options())?;
    drop(forest);
    let kernel = kernel_of(engine.as_ref());
    let server =
        EpollServer::bind_with_config("127.0.0.1:0", engine, serve_policy(), event_loop_config())?;
    let mut out = io::stdout().lock();
    writeln!(
        out,
        "ready {} {} {kernel}",
        server.local_addr().port(),
        t0.elapsed().as_nanos()
    )?;
    out.flush()?;
    drop(out);
    server.run().map(drop)
}

fn route(shards: &str) -> io::Result<()> {
    let t0 = Instant::now();
    let addrs = shards
        .split(',')
        .map(|s| {
            s.parse::<SocketAddr>()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))
        })
        .collect::<io::Result<Vec<_>>>()?;
    let router = RouterServer::bind_with_config("127.0.0.1:0", addrs, event_loop_config())?;
    let mut out = io::stdout().lock();
    writeln!(
        out,
        "ready {} {} -",
        router.local_addr().port(),
        t0.elapsed().as_nanos()
    )?;
    out.flush()?;
    drop(out);
    router.run().map(drop)
}

/// A running child process. Dropping it kills and reaps the child, so
/// an error anywhere in the benchmark leaves no process behind.
#[derive(Debug)]
pub struct Proc {
    child: Child,
    out: BufReader<ChildStdout>,
}

impl Proc {
    /// Starts `<this binary> child <args>`.
    pub fn spawn(args: &[String]) -> io::Result<Self> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("child")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let out = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Self { child, out })
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The next stdout line, without its newline.
    pub fn line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.out.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "child exited early",
            ));
        }
        Ok(line.trim_end().to_owned())
    }

    /// Reads stdout to the end, waits for a clean exit, and returns the
    /// `key value...` lines grouped by key.
    pub fn finish(mut self) -> io::Result<BTreeMap<String, Vec<String>>> {
        let mut text = String::new();
        self.out.read_to_string(&mut text)?;
        let status = self.child.wait()?;
        if !status.success() {
            return Err(io::Error::other(format!("child failed: {status}")));
        }
        let mut lines: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            lines
                .entry(key.to_owned())
                .or_default()
                .push(rest.to_owned());
        }
        Ok(lines)
    }

    /// Waits up to `grace` for the child to exit by itself.
    fn wait_exit(&mut self, grace: Duration) -> io::Result<()> {
        let until = Instant::now() + grace;
        while Instant::now() < until {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "child did not exit after shutdown",
        ))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A serving child that has announced its address.
#[derive(Debug)]
pub struct Server {
    proc: Proc,
    /// Where it listens.
    pub addr: SocketAddr,
    /// Child-measured time from the start of the model read to bound.
    pub ready_ns: u64,
    /// When the parent read the ready line.
    pub ready_at: Instant,
    /// Kernel path of the serving engine (`-` for none).
    pub kernel: String,
}

impl Server {
    /// Starts a `serve` child; pair with [`Server::ready`].
    pub fn launch_serve(model: &Path, engine: &str, span: (usize, usize)) -> io::Result<Proc> {
        Proc::spawn(&[
            "serve".into(),
            model.display().to_string(),
            engine.into(),
            span.0.to_string(),
            span.1.to_string(),
        ])
    }

    /// Starts a `route` child in front of `shards`; pair with
    /// [`Server::ready`].
    pub fn launch_route(shards: &[SocketAddr]) -> io::Result<Proc> {
        let list: Vec<String> = shards.iter().map(ToString::to_string).collect();
        Proc::spawn(&["route".into(), list.join(",")])
    }

    /// Waits for a launched child's ready line.
    pub fn ready(mut proc: Proc) -> io::Result<Self> {
        let line = proc.line()?;
        let ready_at = Instant::now();
        let bad = || {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad ready line {line:?}"),
            )
        };
        let mut parts = line.split(' ');
        if parts.next() != Some("ready") {
            return Err(bad());
        }
        let port: u16 = parts.next().and_then(|p| p.parse().ok()).ok_or_else(bad)?;
        let ready_ns: u64 = parts.next().and_then(|p| p.parse().ok()).ok_or_else(bad)?;
        let kernel = parts.next().ok_or_else(bad)?.to_owned();
        Ok(Self {
            proc,
            addr: SocketAddr::from(([127, 0, 0, 1], port)),
            ready_ns,
            ready_at,
            kernel,
        })
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.proc.pid()
    }

    /// Sends `shutdown` and waits for the child to drain and exit.
    pub fn stop(mut self) -> io::Result<()> {
        ask(self.addr, "shutdown")?;
        self.proc.wait_exit(Duration::from_secs(10))
    }
}

/// One blocking request/response exchange on a fresh connection.
pub fn ask(addr: SocketAddr, line: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply)?;
    Ok(reply.trim_end().to_owned())
}
