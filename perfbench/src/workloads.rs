//! The three workloads: what each sends, to which system, and how its
//! end-to-end metrics are taken.

use crate::child::{self, Proc, Server, HEAVY_FILL, LIGHT_FILL, SCORED_ENGINES};
use crate::forests::Bench;
use crate::loadgen::{self, Expect, Link, PhaseReport};
use crate::report::Report;
use crate::stats::{beyond, median, percentile};
use crate::sys;
use flint_exec::{f16_policy, lane_policy, HalfCompare, HalfForest, KernelCaps};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Rounds per run: set-ups, offline scoring and serving phases are cut
/// into rounds that alternate through the whole run, so every figure
/// samples the same mix of the host's quiet and noisy seconds.
const ROUNDS: u32 = 4;
/// Fresh-process set-ups per round; the median of all of them is
/// `setup_s`.
const SETUPS_PER_ROUND: usize = 5;
/// Unmeasured load at the phase's rate before each measured phase.
const WARMUP: Duration = Duration::from_millis(300);
/// Length of the host-stall probe run before each phase.
const STALL_PROBE: Duration = Duration::from_millis(50);

/// Offered rates of the serving phases, in requests per second.
pub const SERVE_RATES: [(&str, u64); 2] = [("light", 2_000), ("heavy", 10_000)];
/// See [`SERVE_RATES`]; route's heavy phase is lower because every
/// request costs three processes.
pub const ROUTE_RATES: [(&str, u64); 2] = [("light", 2_000), ("heavy", 5_000)];

/// A forest written out for the children: model text, request rows and
/// reference answers, plus the same rows as request lines.
#[derive(Debug)]
pub struct Staged {
    /// Directory holding `model.txt`, `rows.bin` and `refs.bin`.
    pub dir: PathBuf,
    /// `dir/model.txt`.
    pub model: PathBuf,
    /// Size of the model text.
    pub model_bytes: usize,
    /// One request line per row (`f1,f2,...\n`).
    pub lines: Vec<Vec<u8>>,
    /// Exact-engine class of every row.
    pub exact: Vec<u32>,
    /// `simd-f16` class of every row.
    pub f16: Vec<u32>,
}

/// Writes `bench`'s model, rows and references under `dir`.
pub fn stage(bench: &Bench, dir: &Path) -> io::Result<Staged> {
    std::fs::create_dir_all(dir)?;
    let model = dir.join("model.txt");
    let text = bench.model_text();
    std::fs::write(&model, &text)?;
    child::write_rows(&dir.join("rows.bin"), &bench.rows, bench.n_features)?;
    let exact = bench.exact_refs();
    let f16 = bench.f16_refs();
    let mut refs = exact.clone();
    refs.extend_from_slice(&f16);
    child::write_words(&dir.join("refs.bin"), &refs)?;
    let lines = (0..bench.n_rows())
        .map(|i| {
            let mut line = bench
                .row(i)
                .iter()
                .map(f32::to_string)
                .collect::<Vec<_>>()
                .join(",");
            line.push('\n');
            line.into_bytes()
        })
        .collect();
    Ok(Staged {
        dir: dir.to_owned(),
        model,
        model_bytes: text.len(),
        lines,
        exact,
        f16,
    })
}

/// The kernel path this host should give `engine`: the engine family's
/// own dispatch policy with no `FLINT_KERNEL` override.
pub fn expected_kernel(engine: &str) -> &'static str {
    let caps = KernelCaps::get();
    match engine {
        "simd" => lane_policy().select_with(caps, None).name(),
        "simd-f16" => f16_policy(HalfCompare::Flint)
            .select_with(caps, None)
            .name(),
        _ => "-",
    }
}

/// Checks a served engine's kernel path against [`expected_kernel`].
pub fn check_kernel(report: &mut Report, engine: &str, got: &str) {
    let want = expected_kernel(engine);
    if got != want {
        report.fail(format!(
            "{engine} runs kernel {got}, expected {want}: a fallback path is not a regression"
        ));
    }
}

/// Runs one score child (durations as its `rows_ms` and `request_ms`;
/// zero skips), counts its answers, checks its kernel paths, and returns
/// everything it printed.
pub fn score_child(
    staged: &Staged,
    rows_time: Duration,
    request_time: Duration,
    report: &mut Report,
) -> io::Result<BTreeMap<String, Vec<String>>> {
    let out = Proc::spawn(&[
        "score".into(),
        staged.dir.display().to_string(),
        rows_time.as_millis().to_string(),
        request_time.as_millis().to_string(),
    ])?
    .finish()?;
    let lines = |key: &str| out.get(key).cloned().unwrap_or_default();
    report.attempt(SCORED_ENGINES.len() as u64, 0, String::new);
    for engine in lines("mismatch") {
        report.attempt(0, 1, || format!("first answer of {engine} is wrong"));
    }
    for line in lines("kernel") {
        let (engine, path) = line.split_once(' ').unwrap_or((&line, ""));
        check_kernel(report, engine, path);
    }
    for line in lines("checked") {
        let f: Vec<&str> = line.split(' ').collect();
        let (rows, wrong): (u64, u64) = (f[1].parse().unwrap_or(0), f[2].parse().unwrap_or(1));
        report.attempt(rows, wrong, || {
            format!("{} answered {wrong} of {rows} rows wrong", f[0])
        });
    }
    for line in lines("request") {
        let f: Vec<&str> = line.split(' ').collect();
        let wrong: u64 = f[3].parse().unwrap_or(1);
        report.attempt(1, wrong, || {
            format!("request scoring {} answered wrong", f[0])
        });
    }
    Ok(out)
}

fn first_number(out: &BTreeMap<String, Vec<String>>, key: &str) -> f64 {
    out.get(key)
        .and_then(|v| v.first())
        .and_then(|s| s.split(' ').next())
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0)
}

/// The best figures over several score children spread through a run:
/// host contention comes and goes over seconds, and a run's best moments
/// are what repeats.
#[derive(Debug, Default)]
pub struct BestScoring {
    rows_per_s: BTreeMap<String, f64>,
    request: BTreeMap<String, (f64, f64)>,
    peak_kib: f64,
    describe: Vec<String>,
}

impl BestScoring {
    /// Folds in one score child's output.
    pub fn absorb(&mut self, out: &BTreeMap<String, Vec<String>>) {
        for line in out.get("rows_per_s").into_iter().flatten() {
            let f: Vec<&str> = line.split(' ').collect();
            let rate: f64 = f[1].parse().unwrap_or(0.0);
            let best = self.rows_per_s.entry(f[0].to_owned()).or_insert(0.0);
            *best = best.max(rate);
        }
        for line in out.get("request").into_iter().flatten() {
            let f: Vec<&str> = line.split(' ').collect();
            let ns = |s: &str| s.parse::<f64>().unwrap_or(f64::INFINITY);
            let best = self
                .request
                .entry(f[0].to_owned())
                .or_insert((f64::INFINITY, f64::INFINITY));
            *best = (best.0.min(ns(f[1])), best.1.min(ns(f[2])));
        }
        self.peak_kib = self.peak_kib.max(first_number(out, "peak_kib"));
        if self.describe.is_empty() {
            self.describe = out.get("describe").cloned().unwrap_or_default();
        }
    }

    /// Records the figures as metrics.
    pub fn record(&self, report: &mut Report) {
        for line in &self.describe {
            report.note(format!("describe {line}"));
        }
        for (engine, rate) in &self.rows_per_s {
            report.metric(&format!("rows_per_s.{engine}"), *rate, "rows/s");
        }
        for (phase, (p50_ns, cpu_ns)) in &self.request {
            report.metric(&format!("p50_us.{phase}"), p50_ns / 1e3, "us");
            report.metric(&format!("cpu_us_per_req.{phase}"), cpu_ns / 1e3, "us");
        }
    }
}

/// `score-magic`: offline batch scoring of the held-out magic rows by
/// the four gated engines, plus request-at-a-time scoring at the
/// serving phases' batch fills (1 row for light, 3 for heavy).
pub fn score_magic(staged: &Staged, seconds: u64, report: &mut Report) -> io::Result<()> {
    report.note(format!(
        "request scoring fills: light {LIGHT_FILL}, heavy {HEAVY_FILL}"
    ));
    let round = Duration::from_secs(seconds) / ROUNDS;
    let mut setups = Vec::new();
    let mut best = BestScoring::default();
    for _ in 0..ROUNDS {
        for _ in 0..SETUPS_PER_ROUND {
            let out = score_child(staged, Duration::ZERO, Duration::ZERO, report)?;
            setups.push(first_number(&out, "setup_ns") / 1e9);
        }
        best.absorb(&score_child(staged, round * 3 / 5, round / 5, report)?);
    }
    report.metric("setup_s", median(&setups).unwrap_or(0.0), "s");
    best.record(report);
    report.metric("mem_mb", best.peak_kib / 1024.0, "MiB");
    Ok(())
}

/// A running serving system: one server, or shards behind a router.
#[derive(Debug)]
pub struct Tier {
    /// The process the load connects to.
    pub front: Server,
    /// Shards behind a router (empty for a single server).
    pub shards: Vec<Server>,
}

impl Tier {
    /// Every process of the system.
    pub fn pids(&self) -> Vec<u32> {
        std::iter::once(self.front.pid())
            .chain(self.shards.iter().map(Server::pid))
            .collect()
    }

    /// Total CPU time of the system's processes, ns.
    pub fn cpu_ns(&self) -> io::Result<u64> {
        self.pids().into_iter().map(sys::process_cpu_ns).sum()
    }

    /// Sum of the processes' peak RSS, KiB.
    pub fn peak_kib(&self) -> io::Result<u64> {
        self.pids().into_iter().map(sys::peak_rss_kib).sum()
    }

    /// Shuts every process down, front first.
    pub fn stop(self) -> io::Result<()> {
        self.front.stop()?;
        self.shards.into_iter().try_for_each(Server::stop)
    }
}

/// How the system of a serving workload is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// One `EpollServer` running `flint-blocked`.
    Serve,
    /// A router over two `simd-f16` tree-span shards.
    Route,
    /// One `simd-f16` shard alone, sent `votes:` requests.
    Shard,
}

/// Starts `system` over `staged`'s model (`spans` are the shards' tree
/// spans) and returns once every process has announced it is ready.
pub fn start(system: System, staged: &Staged, spans: &[(usize, usize)]) -> io::Result<Tier> {
    match system {
        System::Serve => Ok(Tier {
            front: Server::ready(Server::launch_serve(
                &staged.model,
                "flint-blocked",
                (0, 0),
            )?)?,
            shards: Vec::new(),
        }),
        System::Shard => Ok(Tier {
            front: Server::ready(Server::launch_serve(&staged.model, "simd-f16", spans[0])?)?,
            shards: Vec::new(),
        }),
        System::Route => {
            // Shards first, all at once: a router whose first link
            // fails waits out a 500 ms reconnect backoff.
            let launched = spans
                .iter()
                .map(|&span| Server::launch_serve(&staged.model, "simd-f16", span))
                .collect::<io::Result<Vec<_>>>()?;
            let shards = launched
                .into_iter()
                .map(Server::ready)
                .collect::<io::Result<Vec<_>>>()?;
            let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr).collect();
            let front = Server::ready(Server::launch_route(&addrs)?)?;
            Ok(Tier { front, shards })
        }
    }
}

/// The request lines and answers a system is sent: plain rows answered
/// with the exact class (serve) or the whole-forest `simd-f16` class
/// (route), or `votes:` rows answered with the shard's histogram.
pub fn traffic(
    system: System,
    staged: &Staged,
    bench: &Bench,
    spans: &[(usize, usize)],
) -> (Vec<Vec<u8>>, Vec<Expect>) {
    match system {
        System::Serve => (
            staged.lines.clone(),
            staged.exact.iter().map(|&c| Expect::Class(c)).collect(),
        ),
        System::Route => (
            staged.lines.clone(),
            staged.f16.iter().map(|&c| Expect::Class(c)).collect(),
        ),
        System::Shard => {
            let (a, b) = spans[0];
            let half = HalfForest::compile(&bench.forest.tree_span(a, b), HalfCompare::Flint)
                .expect("f16 compile");
            let lines = staged
                .lines
                .iter()
                .map(|l| [b"votes:".as_slice(), l].concat())
                .collect();
            let expect = (0..bench.n_rows())
                .map(|i| Expect::Votes(half.predict_votes(bench.row(i))))
                .collect();
            (lines, expect)
        }
    }
}

/// Starts [`SETUPS_PER_ROUND`] fresh systems one after another and
/// returns, for each, the seconds from the start of its model read to
/// its first correct answer.
pub fn setup_times(
    system: System,
    staged: &Staged,
    spans: &[(usize, usize)],
    first: &Expect,
    report: &mut Report,
) -> io::Result<Vec<f64>> {
    let mut times = Vec::new();
    for _ in 0..SETUPS_PER_ROUND {
        let tier = start(system, staged, spans)?;
        let answer = child::ask(
            tier.front.addr,
            std::str::from_utf8(&staged.lines[0])
                .expect("ascii")
                .trim_end(),
        )?;
        let shard_ns = tier.shards.iter().map(|s| s.ready_ns).max().unwrap_or(0);
        let ns = shard_ns + tier.front.ready_ns + tier.front.ready_at.elapsed().as_nanos() as u64;
        let ok = matches!(
            loadgen::judge(answer.as_bytes(), first),
            loadgen::Verdict::Ok { .. }
        );
        report.attempt(1, u64::from(!ok), || {
            format!("first answer {answer:?} is wrong")
        });
        check_kernel(
            report,
            if system == System::Serve {
                "flint-blocked"
            } else {
                "simd-f16"
            },
            tier.shards.first().unwrap_or(&tier.front).kernel.as_str(),
        );
        tier.stop()?;
        times.push(ns as f64 / 1e9);
    }
    Ok(times)
}

/// One measured phase against a fresh system.
#[derive(Debug)]
pub struct Phase {
    /// The generator's view.
    pub load: PhaseReport,
    /// Warm-up requests sent, and how many of them failed.
    pub warmup_sent: u64,
    /// See [`Phase::warmup_sent`].
    pub warmup_failed: u64,
    /// Sum of the system processes' peak RSS, KiB.
    pub peak_kib: u64,
    /// `stats` of the front process, then of each shard.
    pub stats: Vec<String>,
    /// What the host-stall probe saw just before.
    pub stalls: sys::Stalls,
}

impl Phase {
    /// Folds a later sub-phase at the same rate into this one.
    pub fn merge(mut self, other: Phase) -> Phase {
        self.load.merge(other.load);
        self.warmup_sent += other.warmup_sent;
        self.warmup_failed += other.warmup_failed;
        self.peak_kib = self.peak_kib.max(other.peak_kib);
        self.stats = other.stats;
        self.stalls = sys::Stalls {
            max_gap_ns: self.stalls.max_gap_ns.max(other.stalls.max_gap_ns),
            share: self.stalls.share.max(other.stalls.share),
        };
        self
    }
}

/// Starts a fresh `system`, warms it at `rate`, then measures `length`
/// of open-loop load at `rate` over two connections.
pub fn phase(
    system: System,
    staged: &Staged,
    spans: &[(usize, usize)],
    traffic: &(Vec<Vec<u8>>, Vec<Expect>),
    rate: u64,
    length: Duration,
) -> io::Result<Phase> {
    let stalls = sys::stall_probe(STALL_PROBE);
    let tier = start(system, staged, spans)?;
    let mut links = (0..2)
        .map(|_| Link::new(TcpStream::connect(tier.front.addr)?))
        .collect::<io::Result<Vec<_>>>()?;
    let (lines, expect) = traffic;
    let warm = (rate as f64 * WARMUP.as_secs_f64()) as u64;
    let mut system_cpu = || tier.cpu_ns();
    let warmup = loadgen::run_phase(&mut links, lines, expect, (0, rate, warm), &mut system_cpu)?;
    let total = (rate as f64 * length.as_secs_f64()) as u64;
    let load = loadgen::run_phase(
        &mut links,
        lines,
        expect,
        (warm, rate, total),
        &mut system_cpu,
    )?;
    drop(links);
    let mut stats = vec![child::ask(tier.front.addr, "stats")?];
    for shard in &tier.shards {
        stats.push(child::ask(shard.addr, "stats")?);
    }
    let peak_kib = tier.peak_kib()?;
    tier.stop()?;
    Ok(Phase {
        warmup_sent: warmup.sent,
        warmup_failed: warmup.failed(),
        load,
        peak_kib,
        stats,
        stalls,
    })
}

/// System CPU per correct answer of a phase, µs.
fn cpu_us_per_answer(phase: &Phase) -> f64 {
    phase.load.system_cpu_ns as f64 / phase.load.ok.max(1) as f64 / 1e3
}

/// Client-side p50 of a phase, µs.
pub fn p50_us(phase: &Phase) -> f64 {
    let mut sorted = phase.load.latencies_ns.clone();
    sorted.sort_unstable();
    percentile(&sorted, 50.0).unwrap_or(0) as f64 / 1e3
}

/// Counts a phase's requests and failures, and notes its counts and
/// tails.
pub fn note_phase(report: &mut Report, name: &str, phase: &Phase) {
    let l = &phase.load;
    report.attempt(l.sent, l.failed(), || {
        format!(
            "{name}: {} busy, {} error, {} mismatched of {} sent; first: {}",
            l.busy,
            l.error,
            l.mismatched,
            l.sent,
            l.first_failure.as_deref().unwrap_or("unanswered")
        )
    });
    report.attempt(phase.warmup_sent, phase.warmup_failed, || {
        format!(
            "{name}: {} of {} warm-up requests failed",
            phase.warmup_failed, phase.warmup_sent
        )
    });
    let mut sorted = l.latencies_ns.clone();
    sorted.sort_unstable();
    let pct = |p| percentile(&sorted, p).unwrap_or(0) as f64 / 1e3;
    report.note(format!(
        "{name}: sent={} ok={} busy={} error={} mismatched={} late={} late_share={:.5} \
         achieved_rps={:.1} p50_us={:.1} p90_us={:.1} p99_us={:.1} (n>{}) p999_us={:.1} (n>{}) \
         loadgen_cpu_share={:.4} stall_max_ms={:.3} stall_share={:.5} stats={}",
        l.sent,
        l.ok,
        l.busy,
        l.error,
        l.mismatched,
        l.late,
        l.late as f64 / l.sent.max(1) as f64,
        l.ok as f64 / (l.wall_ns as f64 / 1e9),
        pct(50.0),
        pct(90.0),
        pct(99.0),
        beyond(&sorted, 99.0),
        pct(99.9),
        beyond(&sorted, 99.9),
        l.gen_cpu_ns as f64 / l.wall_ns as f64,
        phase.stalls.max_gap_ns as f64 / 1e6,
        phase.stalls.share,
        phase.stats.join(" | "),
    ));
}

/// `serve-magic` and `route-ranking`: set-ups, offline scoring of the
/// workload's rows, and the light and heavy phases, in rounds.
pub fn serving(
    system: System,
    bench: &Bench,
    staged: &Staged,
    seconds: u64,
    report: &mut Report,
) -> io::Result<()> {
    let spans = bench.forest.plan_spans(2);
    let traffic = traffic(system, staged, bench, &spans);
    // Each round: set-ups, then a fifth of the round's time scoring the
    // workload's rows offline, then each phase.
    let budget = Duration::from_secs(seconds);
    let rows_round = budget / 5 / ROUNDS;
    let rates = if system == System::Route {
        ROUTE_RATES
    } else {
        SERVE_RATES
    };
    let sub_phase = budget * 4 / 5 / (ROUNDS * rates.len() as u32);
    let mut setups = Vec::new();
    let mut best = BestScoring::default();
    let mut subs: Vec<Vec<Phase>> = rates.iter().map(|_| Vec::new()).collect();
    for _ in 0..ROUNDS {
        setups.extend(setup_times(system, staged, &spans, &traffic.1[0], report)?);
        best.absorb(&score_child(staged, rows_round, Duration::ZERO, report)?);
        for (runs, (_, rate)) in subs.iter_mut().zip(rates) {
            runs.push(phase(system, staged, &spans, &traffic, rate, sub_phase)?);
        }
    }
    report.metric("setup_s", median(&setups).unwrap_or(0.0), "s");
    best.record(report);
    let mut peak = 0;
    for ((name, _), runs) in rates.iter().zip(subs) {
        // The median over the rounds: a neighbour's burst that lands on
        // one round moves one value, not the figure.
        let p50s: Vec<f64> = runs.iter().map(p50_us).collect();
        let cpus: Vec<f64> = runs.iter().map(cpu_us_per_answer).collect();
        report.metric(
            &format!("p50_us.{name}"),
            median(&p50s).unwrap_or(0.0),
            "us",
        );
        report.metric(
            &format!("cpu_us_per_req.{name}"),
            median(&cpus).unwrap_or(0.0),
            "us",
        );
        let merged = runs
            .into_iter()
            .reduce(Phase::merge)
            .expect("one phase per round");
        note_phase(report, name, &merged);
        peak = peak.max(merged.peak_kib);
    }
    report.metric("mem_mb", peak as f64 / 1024.0, "MiB");
    Ok(())
}
