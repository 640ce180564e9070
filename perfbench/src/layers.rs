//! The traced run: one profile of every layer, each measured on the
//! workload the layer map in `perfbench/README.md` assigns it, plus the
//! tracing overhead of the named workload's in-process replay.
//!
//! Live phases here are shorter than in untraced runs and feed only
//! per-layer figures; end-to-end metrics come from untraced runs alone.
//! The in-process replays record a span around every call the
//! benchmark makes into a layer (`ProtocolMachine::receive`,
//! `BatchHandle::try_submit` until its callback, `render_*`, the
//! router's merge, `predict_matrix`); spans stay in memory and are
//! written to `perfbench/out/trace-<workload>-<seed>.jsonl` at the end.

use crate::child::{self, SCORED_ENGINES};
use crate::forests::{self, Bench};
use crate::report::Report;
use crate::stats::{beyond, median, percentile};
use crate::trace::Tracer;
use crate::workloads::{self, Phase, Staged, System, ROUTE_RATES, SERVE_RATES};
use flint_data::FeatureMatrix;
use flint_exec::{EngineBuilder, EngineKind, HalfCompare, HalfForest};
use flint_forest::metrics::majority_vote;
use flint_forest::votes::{merge_votes, parse_votes};
use flint_serve::{
    render_prediction, render_votes, Batcher, ProtocolMachine, Request, ServeMetrics, WireEvent,
};
use std::hint::black_box;
use std::io::{self, BufWriter};
use std::path::Path;
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The layers' own metrics, each with the end-to-end metric and
/// workload it should move; [`per_layer`] adds the registry-wide and
/// per-phase entries around them.
const LAYER_METRICS: [(&str, &str); 22] = [
    (
        "exec.votes_ns_per_row",
        "cpu_us_per_req.heavy, p50_us.heavy on route-ranking; not serve-magic",
    ),
    (
        "exec.class_ns_per_row",
        "cpu_us_per_req.heavy, p50_us.heavy on route-ranking; not serve-magic",
    ),
    (
        "exec.matrix_ns.light",
        "cpu_us_per_req.light on serve-magic (a small share)",
    ),
    (
        "exec.matrix_ns.heavy",
        "cpu_us_per_req.heavy on serve-magic (a small share)",
    ),
    (
        "data.from_row_major_ns_per_row",
        "cpu_us_per_req.heavy on serve-magic",
    ),
    (
        "protocol.parse_ns_per_line",
        "cpu_us_per_req.* on serve-magic and route-ranking",
    ),
    (
        "protocol.render_ns",
        "cpu_us_per_req.* on serve-magic and route-ranking",
    ),
    (
        "batcher.fill.light",
        "p50_us.light, cpu_us_per_req.light on serve-magic",
    ),
    ("batcher.fill.heavy", "cpu_us_per_req.heavy on serve-magic"),
    ("batcher.server_p50_us.light", "p50_us.light on serve-magic"),
    ("batcher.server_p50_us.heavy", "p50_us.heavy on serve-magic"),
    (
        "batcher.round_trip_us",
        "p50_us.light, cpu_us_per_req.light on serve-magic",
    ),
    ("event_loop.hop_us.light", "p50_us.light on serve-magic"),
    ("event_loop.hop_us.heavy", "p50_us.heavy on serve-magic"),
    (
        "metrics.record_latency_ns",
        "cpu_us_per_req.heavy on serve-magic",
    ),
    (
        "metrics.snapshot_us",
        "none (listed because ROADMAP item 2 changes it)",
    ),
    ("router.hop_us.light", "p50_us.light on route-ranking"),
    ("router.hop_us.heavy", "p50_us.heavy on route-ranking"),
    (
        "router.merge_ns",
        "p50_us.*, cpu_us_per_req.* on route-ranking",
    ),
    (
        "env.stall_max_ms",
        "none: host noise before the traced phases",
    ),
    (
        "env.stall_share",
        "none: host noise before the traced phases",
    ),
    (
        "trace.overhead_pct",
        "none: traced against untraced replay of this workload",
    ),
];

/// The count and tail metrics of each live phase
/// (`phase.<system>.<phase>.<field>`): field, unit, what it records.
const PHASE_FIELDS: [(&str, &str, &str); 17] = [
    ("sent", "count", "requests sent"),
    ("ok", "count", "correct answers"),
    ("busy", "count", "busy sheds (must be 0)"),
    ("error", "count", "errors (must be 0)"),
    ("mismatched", "count", "wrong answers (must be 0)"),
    ("late", "count", "sends more than 1 ms behind schedule"),
    ("loadgen_late_share", "share", "late sends / sent"),
    ("loadgen_cpu_share", "share", "generator CPU / wall time"),
    ("shed", "count", "server-side sheds"),
    ("rejected", "count", "server-side rejections"),
    ("batches", "count", "batches the servers scored"),
    ("achieved_rps", "1/s", "answers per wall second"),
    ("p90_us", "us", "reported, not gated"),
    ("p99_us", "us", "reported, not gated"),
    ("p999_us", "us", "reported, not gated"),
    ("beyond_p99", "count", "samples above p99"),
    ("beyond_p999", "count", "samples above p999"),
];

/// The live phases of the traced run whose counts are reported.
const PHASES: [(&str, &str); 4] = [
    ("serve.light", "serve-magic light"),
    ("serve.heavy", "serve-magic heavy"),
    ("route.light", "route-ranking light"),
    ("route.heavy", "route-ranking heavy"),
];

/// Every per-layer metric a traced run prints, in order, with the
/// end-to-end metric and workload it should move.
pub fn per_layer() -> Vec<(String, String)> {
    let engines = EngineKind::ALL.iter().map(|kind| {
        let name = kind.name();
        let moves = if SCORED_ENGINES.contains(&name) {
            format!("rows_per_s.{name} on score-magic")
        } else {
            "ROADMAP item 4's engine gate".to_owned()
        };
        (format!("exec.ns_per_row_tree.{name}"), moves)
    });
    let bytes = SCORED_ENGINES.iter().map(|e| {
        (
            format!("exec.node_bytes_per_row.{e}"),
            format!("rows_per_s.{e} on score-magic"),
        )
    });
    let layers = LAYER_METRICS
        .iter()
        .map(|(n, d)| ((*n).to_owned(), (*d).to_owned()));
    let phases = PHASES.iter().flat_map(|(phase, workload)| {
        PHASE_FIELDS.iter().map(move |(field, _, what)| {
            (
                format!("phase.{phase}.{field}"),
                format!("{workload}: {what}"),
            )
        })
    });
    engines.chain(bytes).chain(layers).chain(phases).collect()
}

/// Length of each live phase of the traced run.
const TRACED_PHASE: Duration = Duration::from_secs(3);
/// Rows each registry engine scores per timed pass.
const PROFILE_ROWS: usize = 1024;
/// Time each registry engine is given (at least two passes).
const PROFILE_TIME: Duration = Duration::from_millis(150);
/// Requests in the in-process replays.
const REPLAY_REQUESTS: usize = 4096;
/// Untraced and traced passes of each replay; the best of each counts.
const REPLAY_REPEATS: usize = 5;

/// A number right after `"key":` in a flat JSON line.
fn json_number(text: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    text.find(&pat)
        .map(|i| &text[i + pat.len()..])
        .and_then(|rest| {
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .unwrap_or(0.0)
}

/// Runs the whole layer profile; `workload` picks the replay whose
/// tracing overhead is reported.
pub fn profile(workload: &str, seed: u64, dir: &Path, report: &mut Report) -> io::Result<()> {
    let magic = forests::magic(seed);
    let ranking = forests::ranking(seed);
    let magic_staged = workloads::stage(&magic, &dir.join("magic"))?;
    let ranking_staged = workloads::stage(&ranking, &dir.join("ranking"))?;
    report.note(magic.describe(magic_staged.model_bytes));
    report.note(ranking.describe(ranking_staged.model_bytes));
    let mut tracer = Tracer::default();

    // Live phases first: their batch fills parameterize the replays.
    let mut stall_max = 0u64;
    let mut stall_share: f64 = 0.0;
    let spans = ranking.forest.plan_spans(2);
    let mut serve_fill = [1.0; 2];
    let mut route_p50 = [0.0; 2];
    let mut shard_fill = 1.0;
    for (system, bench, staged, rates, tag) in [
        (System::Serve, &magic, &magic_staged, SERVE_RATES, "serve"),
        (
            System::Route,
            &ranking,
            &ranking_staged,
            ROUTE_RATES,
            "route",
        ),
    ] {
        let traffic = workloads::traffic(system, staged, bench, &spans);
        for (k, (name, rate)) in rates.into_iter().enumerate() {
            let p = workloads::phase(system, staged, &spans, &traffic, rate, TRACED_PHASE)?;
            stall_max = stall_max.max(p.stalls.max_gap_ns);
            stall_share = stall_share.max(p.stalls.share);
            workloads::note_phase(report, &format!("{tag}.{name}"), &p);
            phase_metrics(report, &format!("phase.{tag}.{name}"), &p);
            let l = &p.load;
            if system == System::Serve {
                serve_fill[k] = l.fill_sum as f64 / l.fill_count.max(1) as f64;
                let server_p50 = json_number(&p.stats[0], "p50_us");
                report.metric(&format!("batcher.fill.{name}"), serve_fill[k], "rows");
                report.metric(&format!("batcher.server_p50_us.{name}"), server_p50, "us");
                report.metric(
                    &format!("event_loop.hop_us.{name}"),
                    workloads::p50_us(&p) - server_p50,
                    "us",
                );
            } else {
                route_p50[k] = workloads::p50_us(&p);
                if name == "heavy" {
                    let fills: Vec<f64> = p.stats[1..]
                        .iter()
                        .map(|s| json_number(s, "mean_fill"))
                        .collect();
                    shard_fill = fills.iter().sum::<f64>() / fills.len().max(1) as f64;
                }
            }
        }
    }
    // The router hop: route p50 against one shard sent `votes:` rows
    // directly at the same rate.
    let shard_traffic = workloads::traffic(System::Shard, &ranking_staged, &ranking, &spans);
    for (k, (name, rate)) in ROUTE_RATES.into_iter().enumerate() {
        let p = workloads::phase(
            System::Shard,
            &ranking_staged,
            &spans,
            &shard_traffic,
            rate,
            TRACED_PHASE,
        )?;
        workloads::note_phase(report, &format!("shard.{name}"), &p);
        report.metric(
            &format!("router.hop_us.{name}"),
            route_p50[k] - workloads::p50_us(&p),
            "us",
        );
    }
    report.metric("env.stall_max_ms", stall_max as f64 / 1e6, "ms");
    report.metric("env.stall_share", stall_share, "share");

    exec_profile(&magic, &magic_staged, report, &mut tracer)?;
    shard_exec(&ranking, spans[0], shard_fill, report)?;
    serve_exec(&magic, serve_fill, report)?;
    metrics_layer(report);
    batcher_round_trip(&magic, report)?;

    // Replays: serve (protocol + batcher + render), route (render and
    // merge) and score (predict_matrix), each alternately untraced and
    // traced; the best of each gives the named workload's tracing
    // overhead. The first traced pass records into the run's spans.
    let serve_lines: Vec<u8> = (0..REPLAY_REQUESTS)
        .flat_map(|i| magic_staged.lines[i % magic_staged.lines.len()].clone())
        .collect();
    let votes = shard_votes(&ranking, &spans);
    let mut overheads = Vec::new();
    for name in ["serve-magic", "route-ranking", "score-magic"] {
        let replay = |t: Option<&mut Tracer>| -> io::Result<u64> {
            match name {
                "serve-magic" => serve_replay(&magic, &serve_lines, serve_fill[1], t),
                "route-ranking" => Ok(route_replay(&votes, t)),
                _ => Ok(score_replay(&magic, t)),
            }
        };
        let (mut plain, mut traced) = (u64::MAX, u64::MAX);
        for rep in 0..REPLAY_REPEATS {
            plain = plain.min(replay(None)?);
            let mut spare = Tracer::default();
            let t = if rep == 0 { &mut tracer } else { &mut spare };
            traced = traced.min(replay(Some(t))?);
        }
        overheads.push((name, plain, traced));
    }
    let per = |name: &str| {
        let (ns, n) = tracer.total(name);
        ns as f64 / n.max(1) as f64
    };
    let (receive_ns, _) = tracer.total("protocol.receive");
    report.metric(
        "protocol.parse_ns_per_line",
        receive_ns as f64 / REPLAY_REQUESTS as f64,
        "ns",
    );
    report.metric("router.merge_ns", per("router.merge"), "ns");
    report.metric("protocol.render_ns", per("protocol.render"), "ns");
    for (name, plain, traced) in &overheads {
        report.note(format!(
            "replay {name}: untraced {:.3} ms, traced {:.3} ms",
            *plain as f64 / 1e6,
            *traced as f64 / 1e6
        ));
        if *name == workload {
            report.metric(
                "trace.overhead_pct",
                (*traced as f64 / *plain as f64 - 1.0) * 100.0,
                "%",
            );
        }
    }
    let replay_self: u64 = ["replay.serve", "replay.route", "replay.score"]
        .iter()
        .map(|n| tracer.self_time(n))
        .sum();
    report.note(format!(
        "spans={} replay self time (benchmark glue) {:.3} ms",
        tracer.spans().len(),
        replay_self as f64 / 1e6
    ));
    let path = Path::new("perfbench/out").join(format!("trace-{workload}-{seed}.jsonl"));
    tracer.write_jsonl(&mut BufWriter::new(std::fs::File::create(&path)?))?;
    report.note(format!("spans written to {}", path.display()));
    Ok(())
}

/// Records one phase's counts and tails as per-layer metrics.
fn phase_metrics(report: &mut Report, prefix: &str, p: &Phase) {
    let l = &p.load;
    let mut sorted = l.latencies_ns.clone();
    sorted.sort_unstable();
    let pct = |q| percentile(&sorted, q).unwrap_or(0) as f64 / 1e3;
    let stat_sum = |key| p.stats.iter().map(|s| json_number(s, key)).sum::<f64>();
    let values = [
        l.sent as f64,
        l.ok as f64,
        l.busy as f64,
        l.error as f64,
        l.mismatched as f64,
        l.late as f64,
        l.late as f64 / l.sent.max(1) as f64,
        l.gen_cpu_ns as f64 / l.wall_ns as f64,
        stat_sum("shed"),
        stat_sum("rejected"),
        stat_sum("batches"),
        l.ok as f64 / (l.wall_ns as f64 / 1e9),
        pct(90.0),
        pct(99.0),
        pct(99.9),
        beyond(&sorted, 99.0) as f64,
        beyond(&sorted, 99.9) as f64,
    ];
    for ((field, unit, _), value) in PHASE_FIELDS.iter().zip(values) {
        report.metric(&format!("{prefix}.{field}"), value, unit);
    }
}

/// Best pass time of `f` over `budget` (at least two passes), ns; each
/// pass is one span when traced.
fn best_pass(
    budget: Duration,
    mut tracer: Option<&mut Tracer>,
    name: &'static str,
    request: u64,
    mut f: impl FnMut(),
) -> u64 {
    let until = Instant::now() + budget;
    let mut best = u64::MAX;
    let mut passes = 0;
    while passes < 2 || Instant::now() < until {
        let span = tracer.as_deref_mut().map(|t| t.open(name, None, request));
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos() as u64);
        if let (Some(t), Some(s)) = (tracer.as_deref_mut(), span) {
            t.close(s);
        }
        passes += 1;
    }
    best
}

/// `exec.ns_per_row_tree.*` over every registry engine and
/// `exec.node_bytes_per_row.*` over the four gated ones.
fn exec_profile(
    bench: &Bench,
    staged: &Staged,
    report: &mut Report,
    tracer: &mut Tracer,
) -> io::Result<()> {
    let rows = PROFILE_ROWS.min(bench.n_rows());
    let matrix = FeatureMatrix::from_row_major(
        rows,
        bench.n_features,
        &bench.rows[..rows * bench.n_features],
    );
    let half_float = HalfForest::compile(&bench.forest, HalfCompare::Float).expect("f16 compile");
    let builder = EngineBuilder::new(&bench.forest);
    let trees = bench.forest.n_trees() as f64;
    for (k, kind) in EngineKind::ALL.into_iter().enumerate() {
        let engine = builder
            .build(kind)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let got = engine.predict_matrix(&matrix);
        let want: Vec<u32> = match kind.name() {
            "simd-f16" => staged.f16[..rows].to_vec(),
            "simd-f16-float" => (0..rows)
                .map(|i| half_float.predict(bench.row(i)))
                .collect(),
            _ => staged.exact[..rows].to_vec(),
        };
        let wrong = got.iter().zip(&want).filter(|(a, b)| a != b).count() as u64;
        report.attempt(rows as u64, wrong, || {
            format!("{} answered {wrong} rows wrong", kind.name())
        });
        let best = best_pass(
            PROFILE_TIME,
            Some(tracer),
            "exec.predict_matrix",
            k as u64,
            || {
                black_box(engine.predict_matrix(black_box(&matrix)));
            },
        );
        report.metric(
            &format!("exec.ns_per_row_tree.{}", kind.name()),
            best as f64 / rows as f64 / trees,
            "ns",
        );
        report.note(format!(
            "engine {} describe: {}",
            kind.name(),
            engine.describe()
        ));
    }
    let path_nodes = bench.path_nodes_per_row(rows);
    for engine in SCORED_ENGINES {
        report.metric(
            &format!("exec.node_bytes_per_row.{engine}"),
            path_nodes * bench.node_bytes(engine) as f64,
            "B",
        );
    }
    Ok(())
}

/// `exec.votes_ns_per_row` against `exec.class_ns_per_row` on a
/// route-ranking shard's engine, the latter at the shard's batch fill.
fn shard_exec(
    bench: &Bench,
    span: (usize, usize),
    fill: f64,
    report: &mut Report,
) -> io::Result<()> {
    let shard = bench.forest.tree_span(span.0, span.1);
    let engine = child::build(&shard, "simd-f16", child::serve_options())?;
    let n = bench.n_rows().min(PROFILE_ROWS);
    let votes = best_pass(PROFILE_TIME, None, "", 0, || {
        for i in 0..n {
            black_box(engine.predict_votes(black_box(bench.row(i))));
        }
    });
    report.metric("exec.votes_ns_per_row", votes as f64 / n as f64, "ns");
    let fill = (fill.round() as usize).max(1);
    let batches: Vec<FeatureMatrix> = (0..n / fill)
        .map(|b| {
            FeatureMatrix::from_row_major(
                fill,
                bench.n_features,
                &bench.rows[b * fill * bench.n_features..(b + 1) * fill * bench.n_features],
            )
        })
        .collect();
    let class = best_pass(PROFILE_TIME, None, "", 0, || {
        for m in &batches {
            black_box(engine.predict_matrix(black_box(m)));
        }
    });
    report.metric(
        "exec.class_ns_per_row",
        class as f64 / (batches.len() * fill) as f64,
        "ns",
    );
    report.note(format!("shard exec at batch fill {fill}"));
    Ok(())
}

/// `exec.matrix_ns.*` and the batcher's transpose at serve-magic's
/// observed batch fills.
fn serve_exec(bench: &Bench, fills: [f64; 2], report: &mut Report) -> io::Result<()> {
    let engine = child::build(&bench.forest, "flint-blocked", child::serve_options())?;
    let nf = bench.n_features;
    for (name, fill) in [("light", fills[0]), ("heavy", fills[1])] {
        let fill = (fill.round() as usize).max(1);
        let n = PROFILE_ROWS / fill;
        let matrices: Vec<FeatureMatrix> = (0..n)
            .map(|b| {
                FeatureMatrix::from_row_major(
                    fill,
                    nf,
                    &bench.rows[b * fill * nf..(b + 1) * fill * nf],
                )
            })
            .collect();
        let best = best_pass(PROFILE_TIME, None, "", 0, || {
            for m in &matrices {
                black_box(engine.predict_matrix(black_box(m)));
            }
        });
        report.metric(
            &format!("exec.matrix_ns.{name}"),
            best as f64 / n as f64,
            "ns",
        );
        if name == "heavy" {
            let best = best_pass(PROFILE_TIME, None, "", 0, || {
                for b in 0..n {
                    black_box(FeatureMatrix::from_row_major(
                        fill,
                        nf,
                        black_box(&bench.rows[b * fill * nf..(b + 1) * fill * nf]),
                    ));
                }
            });
            report.metric(
                "data.from_row_major_ns_per_row",
                best as f64 / (n * fill) as f64,
                "ns",
            );
        }
        report.note(format!("serve exec {name} at batch fill {fill}"));
    }
    Ok(())
}

/// `metrics.record_latency_ns` (two contending threads) and
/// `metrics.snapshot_us` (a full latency ring).
fn metrics_layer(report: &mut Report) {
    const CALLS: usize = 200_000;
    let metrics = Arc::new(ServeMetrics::default());
    let barrier = Arc::new(Barrier::new(2));
    let per_call: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (m, b) = (Arc::clone(&metrics), Arc::clone(&barrier));
                s.spawn(move || {
                    b.wait();
                    let t = Instant::now();
                    for i in 0..CALLS {
                        m.record_latency(Duration::from_nanos(i as u64));
                    }
                    t.elapsed().as_nanos() as f64 / CALLS as f64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("metrics thread"))
            .collect()
    });
    report.metric(
        "metrics.record_latency_ns",
        median(&per_call).unwrap_or(0.0),
        "ns",
    );
    let snaps: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(metrics.snapshot());
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    report.metric("metrics.snapshot_us", median(&snaps).unwrap_or(0.0), "us");
}

/// `batcher.round_trip_us`: one request at a time through an
/// in-process batcher with `flint serve` defaults, `try_submit` until
/// its callback fires.
fn batcher_round_trip(bench: &Bench, report: &mut Report) -> io::Result<()> {
    let batcher = serve_batcher(bench)?;
    let handle = batcher.handle();
    let (tx, rx) = mpsc::channel();
    let mut trips = Vec::new();
    for i in 0..200 {
        let tx = tx.clone();
        let t = Instant::now();
        handle
            .try_submit(bench.row(i), move |_| {
                let _ = tx.send(t.elapsed());
            })
            .map_err(|e| io::Error::other(e.to_string()))?;
        let trip = rx.recv().map_err(|e| io::Error::other(e.to_string()))?;
        trips.push(trip.as_nanos() as f64 / 1e3);
    }
    batcher.shutdown();
    report.metric("batcher.round_trip_us", median(&trips).unwrap_or(0.0), "us");
    Ok(())
}

fn serve_batcher(bench: &Bench) -> io::Result<Batcher> {
    let engine = child::build(&bench.forest, "flint-blocked", child::serve_options())?;
    Ok(Batcher::start(engine, child::serve_policy()))
}

/// Replays a recorded request stream through the serving layers in
/// process, in 4 KiB reads as the event loop takes them: parse, submit
/// (at most `window` in flight, the heavy phase's fill times the two
/// workers' share of the loop), callback, render. Returns the wall
/// time, ns.
fn serve_replay(
    bench: &Bench,
    stream: &[u8],
    fill: f64,
    mut tracer: Option<&mut Tracer>,
) -> io::Result<u64> {
    let batcher = serve_batcher(bench)?;
    let handle = batcher.handle();
    let engine = handle.engine_name();
    let window = ((fill * 8.0) as usize).max(8);
    let (tx, rx) = mpsc::channel::<(u64, flint_serve::Prediction, Instant)>();
    let mut machine = ProtocolMachine::new();
    let mut submitted: Vec<Instant> = Vec::new();
    let mut pending = 0usize;
    let mut next_id = 0u64;
    let start = Instant::now();
    let root = tracer
        .as_deref_mut()
        .map(|t| t.open("replay.serve", None, 0));
    let answer = |t: &mut Option<&mut Tracer>,
                  (id, p, at): (u64, flint_serve::Prediction, Instant),
                  submitted: &[Instant]| {
        if let Some(t) = t.as_deref_mut() {
            let epoch_ns = |i: Instant| t.now() - i.elapsed().as_nanos() as u64;
            let (s, e) = (epoch_ns(submitted[id as usize]), epoch_ns(at));
            t.record("batcher.round_trip", s, e.max(s), root, id);
            let r = t.open("protocol.render", root, id);
            black_box(render_prediction(&p, engine));
            t.close(r);
        } else {
            black_box(render_prediction(&p, engine));
        }
    };
    for chunk in stream.chunks(4096) {
        let span = tracer
            .as_deref_mut()
            .map(|t| t.open("protocol.receive", root, next_id));
        let mut events = Vec::new();
        machine.receive(chunk, |ev| events.push(ev));
        if let (Some(t), Some(s)) = (tracer.as_deref_mut(), span) {
            t.close(s);
        }
        for ev in events {
            let WireEvent::Request(Request::Predict(row)) = ev else {
                return Err(io::Error::other("replayed line did not parse as a row"));
            };
            while pending >= window {
                answer(
                    &mut tracer,
                    rx.recv().map_err(io::Error::other)?,
                    &submitted,
                );
                pending -= 1;
            }
            let id = next_id;
            next_id += 1;
            let tx = tx.clone();
            let submit = tracer
                .as_deref_mut()
                .map(|t| t.open("batcher.try_submit", root, id));
            submitted.push(Instant::now());
            handle
                .try_submit(&row, move |p| {
                    let _ = tx.send((id, p, Instant::now()));
                })
                .map_err(|e| io::Error::other(e.to_string()))?;
            if let (Some(t), Some(s)) = (tracer.as_deref_mut(), submit) {
                t.close(s);
            }
            pending += 1;
        }
    }
    while pending > 0 {
        answer(
            &mut tracer,
            rx.recv().map_err(io::Error::other)?,
            &submitted,
        );
        pending -= 1;
    }
    let wall = start.elapsed().as_nanos() as u64;
    if let (Some(t), Some(r)) = (tracer, root) {
        t.close(r);
    }
    batcher.shutdown();
    Ok(wall)
}

/// The two shards' vote histograms for every ranking row.
fn shard_votes(bench: &Bench, spans: &[(usize, usize)]) -> Vec<[Vec<u32>; 2]> {
    let halves: Vec<HalfForest> = spans
        .iter()
        .map(|&(a, b)| {
            HalfForest::compile(&bench.forest.tree_span(a, b), HalfCompare::Flint)
                .expect("f16 compile")
        })
        .collect();
    (0..bench.n_rows().min(REPLAY_REQUESTS))
        .map(|i| [0, 1].map(|s| halves[s].predict_votes(bench.row(i))))
        .collect()
}

/// One routed request's protocol and merge work, in process: each
/// shard renders its `votes:` reply, the router parses both histograms
/// back, merges them and takes the majority vote. Returns wall ns.
fn route_replay(votes: &[[Vec<u32>; 2]], mut tracer: Option<&mut Tracer>) -> u64 {
    let start = Instant::now();
    let root = tracer
        .as_deref_mut()
        .map(|t| t.open("replay.route", None, 0));
    for (id, pair) in votes.iter().enumerate() {
        let id = id as u64;
        let mut lines = Vec::with_capacity(2);
        for v in pair {
            let r = tracer
                .as_deref_mut()
                .map(|t| t.open("protocol.render", root, id));
            lines.push(render_votes(v, "simd-f16", 1));
            if let (Some(t), Some(s)) = (tracer.as_deref_mut(), r) {
                t.close(s);
            }
        }
        let span = tracer
            .as_deref_mut()
            .map(|t| t.open("router.merge", root, id));
        let mut acc: Vec<u32> = Vec::new();
        for line in &lines {
            let array = line
                .strip_prefix("{\"votes\":")
                .and_then(|rest| rest.split_once(']'))
                .map(|(head, _)| format!("{head}]"))
                .unwrap_or_default();
            let votes = parse_votes(&array).unwrap_or_default();
            if acc.is_empty() {
                acc = votes;
            } else {
                merge_votes(&mut acc, &votes);
            }
        }
        black_box(majority_vote(black_box(&acc)));
        if let (Some(t), Some(s)) = (tracer.as_deref_mut(), span) {
            t.close(s);
        }
    }
    let wall = start.elapsed().as_nanos() as u64;
    if let (Some(t), Some(r)) = (tracer, root) {
        t.close(r);
    }
    wall
}

/// `flint-blocked` scoring of the magic rows in 64-row calls, as the
/// score-magic workload's replay. Returns wall ns.
fn score_replay(bench: &Bench, mut tracer: Option<&mut Tracer>) -> u64 {
    let engine = EngineBuilder::new(&bench.forest)
        .build(EngineKind::parse("flint-blocked").expect("registered"))
        .expect("flint-blocked builds");
    let nf = bench.n_features;
    let matrices: Vec<FeatureMatrix> = (0..bench.n_rows() / 64)
        .map(|b| FeatureMatrix::from_row_major(64, nf, &bench.rows[b * 64 * nf..(b + 1) * 64 * nf]))
        .collect();
    let start = Instant::now();
    let root = tracer
        .as_deref_mut()
        .map(|t| t.open("replay.score", None, 0));
    for (id, m) in matrices.iter().enumerate() {
        let span = tracer
            .as_deref_mut()
            .map(|t| t.open("exec.predict_matrix", root, id as u64));
        black_box(engine.predict_matrix(black_box(m)));
        if let (Some(t), Some(s)) = (tracer.as_deref_mut(), span) {
            t.close(s);
        }
    }
    let wall = start.elapsed().as_nanos() as u64;
    if let (Some(t), Some(r)) = (tracer, root) {
        t.close(r);
    }
    wall
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_numbers_come_out_of_stats_lines() {
        let stats = "{\"requests\":9000,\"shed\":0,\"mean_fill\":1.16,\"p50_us\":336}";
        assert_eq!(json_number(stats, "mean_fill"), 1.16);
        assert_eq!(json_number(stats, "p50_us"), 336.0);
        assert_eq!(json_number(stats, "missing"), 0.0);
    }

    #[test]
    fn per_layer_names_are_unique_and_few_enough() {
        let all = per_layer();
        let mut names: Vec<&str> = all.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        assert!(all.len() <= 128, "{} per-layer metrics", all.len());
    }
}
