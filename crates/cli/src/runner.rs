//! Command execution, separated from I/O so it can be tested without a
//! real process invocation.

use crate::args::{Command, USAGE};
use flint_bench::{batch_throughput_table, ForestShape};
use flint_codegen::{
    emit_forest_c, emit_forest_c_f64, emit_forest_rust, emit_tree_asm, AsmTarget, CVariant,
    RustVariant,
};
use flint_data::{csv, Dataset, FeatureMatrix};
use flint_exec::{BatchOptions, EngineBuilder, EngineKind, KernelCaps};
use flint_forest::metrics::accuracy;
use flint_forest::{io as model_io, ForestConfig, RandomForest};
use flint_router::RouterServer;
use flint_serve::{serve_lines, BatchPolicy, EpollServer, EventLoopConfig};
use flint_sim::{simulate_forest, Machine, SimConfig};
use std::fmt::Write as FmtWrite;
use std::fs::File;
use std::io::{BufReader, Write};

/// Error executing a command.
#[derive(Debug)]
pub enum RunError {
    /// File system or stream failure.
    Io(std::io::Error),
    /// Bad CSV input.
    Csv(csv::ReadCsvError),
    /// Bad model file.
    Model(model_io::ReadModelError),
    /// Training failure.
    Train(flint_forest::train::TrainError),
    /// Invalid option value with a human-readable message.
    Invalid(String),
}

impl core::fmt::Display for RunError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io error: {e}"),
            Self::Csv(e) => write!(f, "csv error: {e}"),
            Self::Model(e) => write!(f, "model error: {e}"),
            Self::Train(e) => write!(f, "training error: {e}"),
            Self::Invalid(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<std::io::Error> for RunError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}
impl From<csv::ReadCsvError> for RunError {
    fn from(e: csv::ReadCsvError) -> Self {
        Self::Csv(e)
    }
}
impl From<model_io::ReadModelError> for RunError {
    fn from(e: model_io::ReadModelError) -> Self {
        Self::Model(e)
    }
}
impl From<flint_forest::train::TrainError> for RunError {
    fn from(e: flint_forest::train::TrainError) -> Self {
        Self::Train(e)
    }
}

/// Short git revision of the working tree, `"unknown"` outside a
/// checkout (bench provenance only — never load-bearing).
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

/// Parses a `--trees a:b` half-open span against the model's ensemble
/// size (the span syntax `flint_forest::plan_spans` plans in).
fn parse_tree_span(text: &str, n_trees: usize) -> Result<(usize, usize), RunError> {
    let invalid = || {
        RunError::Invalid(format!(
            "--trees expects a half-open span a:b with a < b <= {n_trees}, got {text:?}"
        ))
    };
    let (a, b) = text.split_once(':').ok_or_else(invalid)?;
    let start: usize = a.trim().parse().map_err(|_| invalid())?;
    let end: usize = b.trim().parse().map_err(|_| invalid())?;
    if start >= end || end > n_trees {
        return Err(invalid());
    }
    Ok((start, end))
}

fn load_csv(path: &str, classes: usize) -> Result<Dataset, RunError> {
    Ok(csv::read_csv(BufReader::new(File::open(path)?), classes)?)
}

fn load_model(path: &str) -> Result<RandomForest, RunError> {
    Ok(model_io::read_forest(BufReader::new(File::open(path)?))?)
}

/// Refuses the first of `flags` (name, given) that was given: `why`
/// says what leaves it without effect.
fn refuse_given(why: &str, flags: &[(&str, bool)]) -> Result<(), RunError> {
    match flags.iter().find(|(_, given)| *given) {
        Some((name, _)) => Err(RunError::Invalid(format!("{why}; drop --{name}"))),
        None => Ok(()),
    }
}

fn engine_kind(name: &str) -> Result<EngineKind, RunError> {
    // Case-insensitive registry lookup; the registry error already
    // lists every valid name.
    name.parse()
        .map_err(|e: flint_exec::ParseEngineKindError| RunError::Invalid(e.to_string()))
}

fn machine(name: &str) -> Result<Machine, RunError> {
    Ok(match name {
        "x86s" => Machine::X86Server,
        "x86d" => Machine::X86Desktop,
        "arms" => Machine::Armv8Server,
        "armd" => Machine::Armv8Desktop,
        "embedded" => Machine::EmbeddedNoFpu,
        other => {
            return Err(RunError::Invalid(format!(
                "unknown machine {other:?} (try x86s|x86d|arms|armd|embedded)"
            )))
        }
    })
}

fn sim_config(name: &str) -> Result<SimConfig, RunError> {
    Ok(match name {
        "naive" => SimConfig::naive(),
        "cags" => SimConfig::cags(),
        "flint" => SimConfig::flint(),
        "cags-flint" => SimConfig::cags_flint(),
        "flint-asm" => SimConfig::flint_asm(),
        "softfloat" => SimConfig::softfloat(),
        other => {
            return Err(RunError::Invalid(format!(
                "unknown config {other:?} (try naive|cags|flint|cags-flint|flint-asm|softfloat)"
            )))
        }
    })
}

/// Executes `command`, writing human-readable output to `out`.
///
/// # Errors
///
/// [`RunError`] on any I/O, parse, training or option failure.
pub fn run<W: Write>(command: Command, out: &mut W) -> Result<(), RunError> {
    match command {
        Command::Help => {
            write!(out, "{USAGE}")?;
        }
        Command::Train {
            data,
            classes,
            trees,
            depth,
            seed,
            out: out_path,
        } => {
            let dataset = load_csv(&data, classes)?;
            let config = ForestConfig {
                n_trees: trees,
                max_depth: depth,
                seed,
                ..ForestConfig::default()
            };
            let forest = RandomForest::fit(&dataset, &config)?;
            match out_path {
                Some(path) => {
                    model_io::write_forest(&forest, File::create(&path)?)?;
                    writeln!(
                        out,
                        "trained {} trees ({} nodes, depth {}) on {} samples -> {path}",
                        forest.n_trees(),
                        forest.n_nodes(),
                        forest.depth(),
                        dataset.n_samples()
                    )?;
                }
                None => {
                    let mut buf = Vec::new();
                    model_io::write_forest(&forest, &mut buf)?;
                    out.write_all(&buf)?;
                }
            }
        }
        Command::Predict {
            model,
            data,
            classes,
            backend,
            accuracy: report_accuracy,
            batch_size,
            threads,
        } => {
            let forest = load_model(&model)?;
            let dataset = load_csv(&data, classes)?;
            // Every backend name is an engine-registry entry; the batch
            // flags shape the options any engine honors.
            let kind = engine_kind(&backend)?;
            let opts = BatchOptions::default()
                .block_samples(batch_size.unwrap_or(64))
                .threads(threads.max(1));
            let engine = EngineBuilder::new(&forest)
                .options(opts)
                .build(kind)
                .map_err(|e| RunError::Invalid(e.to_string()))?;
            let predictions = engine.predict_dataset(&dataset);
            for p in &predictions {
                writeln!(out, "{p}")?;
            }
            if report_accuracy {
                writeln!(
                    out,
                    "accuracy: {:.4}",
                    accuracy(&predictions, dataset.labels())
                )?;
            }
        }
        Command::Bench {
            data,
            shape,
            classes,
            model,
            trees,
            depth,
            seed,
            batch_size,
            threads,
            runs,
            engines,
            list,
            output,
        } => {
            if list {
                writeln!(out, "{:<20} strategy", "engine")?;
                for kind in EngineKind::ALL {
                    writeln!(out, "{:<20} {}", kind.name(), kind.describe())?;
                }
                return Ok(());
            }
            if !matches!(output.as_str(), "table" | "csv" | "json") {
                return Err(RunError::Invalid(format!(
                    "unknown --output {output:?} (try table|csv|json)"
                )));
            }
            // The workload is either a CSV (plus an optional stored or
            // in-process-trained model) or a named shape preset that
            // generates and trains its own.
            let (dataset, forest, shape_name) = match (&shape, data) {
                (Some(_), Some(_)) => {
                    return Err(RunError::Invalid(
                        "--shape and --data are mutually exclusive".to_owned(),
                    ));
                }
                (Some(name), None) => {
                    let preset = ForestShape::parse(name).ok_or_else(|| {
                        RunError::Invalid(format!(
                            "unknown --shape {name:?} (try magic|ranking|deep)"
                        ))
                    })?;
                    refuse_given(
                        "--shape trains its own preset forest",
                        &[
                            ("model", model.is_some()),
                            ("trees", trees.is_some()),
                            ("depth", depth.is_some()),
                            ("classes", classes.is_some()),
                        ],
                    )?;
                    let seed = seed.unwrap_or(0);
                    let dataset = preset.dataset(seed);
                    let forest = preset.train(&dataset, seed);
                    (dataset, forest, Some(preset.name()))
                }
                (None, Some(data)) => {
                    let classes = classes.ok_or_else(|| {
                        RunError::Invalid("bench needs --classes with --data".to_owned())
                    })?;
                    if model.is_some() {
                        refuse_given(
                            "--model loads a trained forest",
                            &[
                                ("trees", trees.is_some()),
                                ("depth", depth.is_some()),
                                ("seed", seed.is_some()),
                            ],
                        )?;
                    }
                    let dataset = load_csv(&data, classes)?;
                    let forest = match model {
                        Some(path) => load_model(&path)?,
                        None => {
                            let config = ForestConfig {
                                n_trees: trees.unwrap_or(24),
                                max_depth: depth.or(Some(16)),
                                seed: seed.unwrap_or(0),
                                ..ForestConfig::default()
                            };
                            RandomForest::fit(&dataset, &config)?
                        }
                    };
                    (dataset, forest, None)
                }
                (None, None) => {
                    return Err(RunError::Invalid(
                        "bench needs --data and --classes, --shape, or --list".to_owned(),
                    ));
                }
            };
            if forest.n_features() != dataset.n_features() {
                return Err(RunError::Invalid(format!(
                    "model expects {} features but the workload has {}",
                    forest.n_features(),
                    dataset.n_features()
                )));
            }
            let kinds: Vec<EngineKind> = match engines {
                Some(names) => names
                    .split(',')
                    .map(|n| engine_kind(n.trim()))
                    .collect::<Result<_, _>>()?,
                None => EngineKind::ALL.to_vec(),
            };
            if kinds.is_empty() {
                return Err(RunError::Invalid("--engines lists no engine".to_owned()));
            }
            let opts = BatchOptions::default()
                .block_samples(batch_size.unwrap_or(64))
                .threads(threads.max(1));
            let matrix = FeatureMatrix::from_dataset(&dataset);
            let rows = batch_throughput_table(&forest, Some(&dataset), &matrix, opts, &kinds, runs)
                .map_err(|e| RunError::Invalid(e.to_string()))?;
            match output.as_str() {
                // Machine-readable forms carry only the measurements,
                // so EXPERIMENTS.md tables regenerate with no scraping.
                "csv" => {
                    writeln!(out, "engine,samples_per_sec,median_ms,speedup")?;
                    for row in rows {
                        writeln!(
                            out,
                            "{},{:.0},{:.3},{:.2}",
                            row.kind.name(),
                            row.samples_per_sec,
                            row.median_secs * 1e3,
                            row.speedup_vs_first
                        )?;
                    }
                }
                "json" => {
                    // Schema 2: an object that pins the provenance a
                    // checked-in snapshot needs — host kernel caps, git
                    // revision, shape preset and workload — with the
                    // measurements under "engines".
                    let objects: Vec<String> = rows
                        .iter()
                        .map(|row| {
                            format!(
                                "{{\"engine\":\"{}\",\"samples_per_sec\":{:.0},\
                                 \"median_ms\":{:.3},\"speedup\":{:.2}}}",
                                row.kind.name(),
                                row.samples_per_sec,
                                row.median_secs * 1e3,
                                row.speedup_vs_first
                            )
                        })
                        .collect();
                    writeln!(
                        out,
                        "{{\"schema\":\"flint-bench/2\",\"kernel_caps\":\"{}\",\
                         \"git_rev\":\"{}\",\"shape\":{},\
                         \"workload\":{{\"samples\":{},\"features\":{},\"trees\":{},\
                         \"block\":{},\"threads\":{},\"runs\":{}}},\
                         \"engines\":[{}]}}",
                        KernelCaps::get().summary(),
                        git_rev(),
                        match shape_name {
                            Some(name) => format!("\"{name}\""),
                            None => "null".to_owned(),
                        },
                        dataset.n_samples(),
                        dataset.n_features(),
                        forest.n_trees(),
                        opts.block_samples,
                        opts.threads,
                        runs.max(1),
                        objects.join(",")
                    )?;
                }
                _ => {
                    writeln!(
                        out,
                        "workload: {} samples x {} features, {} trees, block {} x {} threads, {} runs{}",
                        dataset.n_samples(),
                        dataset.n_features(),
                        forest.n_trees(),
                        opts.block_samples,
                        opts.threads,
                        runs.max(1),
                        match shape_name {
                            Some(name) => format!(", shape {name}"),
                            None => String::new(),
                        }
                    )?;
                    writeln!(out, "host kernel caps: {}", KernelCaps::get().summary())?;
                    writeln!(
                        out,
                        "{:<20} {:>12} {:>12} {:>9}",
                        "engine", "samples/s", "median ms", "speedup"
                    )?;
                    for row in rows {
                        writeln!(
                            out,
                            "{:<20} {:>12.0} {:>12.3} {:>8.2}x",
                            row.kind.name(),
                            row.samples_per_sec,
                            row.median_secs * 1e3,
                            row.speedup_vs_first
                        )?;
                    }
                    writeln!(out, "(speedup is relative to the first listed engine)")?;
                }
            }
        }
        Command::Serve {
            model,
            engine,
            max_batch,
            addr,
            max_conns,
            max_inflight,
            trees,
            stdin,
        } => {
            let kind = engine_kind(&engine)?;
            if !stdin && !cfg!(target_os = "linux") {
                return Err(RunError::Invalid(
                    "TCP serving needs Linux (epoll); use --stdin on this platform".to_owned(),
                ));
            }
            let mut forest = load_model(&model)?;
            if let Some(span) = &trees {
                let (start, end) = parse_tree_span(span, forest.n_trees())?;
                forest = forest.tree_span(start, end);
            }
            // The serving thread scores each chunk inline on itself.
            let opts = BatchOptions::default()
                .block_samples(max_batch.max(1))
                .threads(1);
            let engine = EngineBuilder::new(&forest)
                .options(opts)
                .build(kind)
                .map_err(|e| RunError::Invalid(e.to_string()))?;
            let stats = if stdin {
                serve_lines(&*engine, max_batch, std::io::stdin().lock(), &mut *out)?
            } else {
                let config = EventLoopConfig::default()
                    .max_conns(max_conns)
                    .max_inflight(max_inflight);
                let policy = BatchPolicy::default().max_batch(max_batch);
                let server = EpollServer::bind_with_config(&addr, engine, policy, config)?;
                writeln!(
                    out,
                    "listening on {} (engine {}, max-batch {}, scoring inline)",
                    server.local_addr(),
                    server.engine_name(),
                    max_batch.max(1)
                )?;
                // The startup line must reach pipes before the event
                // loop starts (smoke tests wait for it).
                out.flush()?;
                server.run()?
            };
            writeln!(out, "{}", stats.to_json())?;
        }
        Command::Route {
            shards,
            addr,
            max_conns,
            max_inflight,
        } => {
            let shard_addrs: Vec<std::net::SocketAddr> = shards
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.parse().map_err(|_| {
                        RunError::Invalid(format!("--shards: invalid shard address {s:?}"))
                    })
                })
                .collect::<Result<_, _>>()?;
            if shard_addrs.is_empty() {
                return Err(RunError::Invalid(
                    "--shards lists no shard address".to_owned(),
                ));
            }
            let config = EventLoopConfig::default()
                .max_conns(max_conns)
                .max_inflight(max_inflight);
            let router = RouterServer::bind_with_config(&addr, shard_addrs.clone(), config)?;
            writeln!(
                out,
                "routing on {} ({} shards: {}, max-conns {max_conns}, max-inflight {max_inflight})",
                router.local_addr(),
                shard_addrs.len(),
                shards.trim()
            )?;
            // The startup line must reach pipes before the event loop
            // starts (smoke tests wait for it).
            out.flush()?;
            let stats = router.run()?;
            writeln!(out, "{}", stats.to_json())?;
        }
        Command::Emit {
            model,
            lang,
            variant,
        } => {
            let forest = load_model(&model)?;
            let text = match (lang.as_str(), variant.as_str()) {
                ("c", "std") => emit_forest_c(&forest, CVariant::Standard),
                ("c", "flint") => emit_forest_c(&forest, CVariant::Flint),
                ("c64", "std") => emit_forest_c_f64(&forest, CVariant::Standard),
                ("c64", "flint") => emit_forest_c_f64(&forest, CVariant::Flint),
                ("rust", "std") => emit_forest_rust(&forest, RustVariant::Standard),
                ("rust", "flint") => emit_forest_rust(&forest, RustVariant::Flint),
                ("asm-arm", "flint") | ("asm-x86", "flint") => {
                    let target = if lang == "asm-arm" {
                        AsmTarget::Armv8
                    } else {
                        AsmTarget::X86
                    };
                    let mut text = String::new();
                    for (i, tree) in forest.trees().iter().enumerate() {
                        let _ = writeln!(text, "// tree {i}");
                        text.push_str(&emit_tree_asm(tree, i, target));
                    }
                    text
                }
                ("asm-arm" | "asm-x86", other) => {
                    return Err(RunError::Invalid(format!(
                        "assembly emission supports only --variant flint, got {other:?}"
                    )))
                }
                (l, v) => {
                    return Err(RunError::Invalid(format!(
                        "unsupported --lang {l:?} / --variant {v:?}"
                    )))
                }
            };
            write!(out, "{text}")?;
        }
        Command::Importance { model } => {
            let forest = load_model(&model)?;
            for (i, v) in forest.feature_importances().iter().enumerate() {
                writeln!(out, "feature {i}: {v:.6}")?;
            }
        }
        Command::Simulate {
            model,
            data,
            classes,
            machine: machine_name,
            config: config_name,
        } => {
            let forest = load_model(&model)?;
            let dataset = load_csv(&data, classes)?;
            let m = machine(&machine_name)?;
            let config = sim_config(&config_name)?;
            let report = simulate_forest(m, &forest, &dataset, &dataset, &config)
                .map_err(|e| RunError::Invalid(e.to_string()))?;
            writeln!(out, "machine: {}", m.name())?;
            writeln!(out, "config: {}", config.name())?;
            writeln!(
                out,
                "cycles/inference: {:.1}",
                report.cycles_per_inference()
            )?;
            writeln!(
                out,
                "breakdown: instr {:.0} + cache {:.0} + layout {:.0} + calls {:.0}",
                report.instruction_cycles,
                report.cache_cycles,
                report.layout_overhead,
                report.call_overhead
            )?;
            // Normalized against naive when the machine can run it.
            if let Ok(naive) = simulate_forest(m, &forest, &dataset, &dataset, &SimConfig::naive())
            {
                writeln!(
                    out,
                    "normalized vs naive: {:.3}x",
                    report.total_cycles() / naive.total_cycles()
                )?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use flint_data::synth::SynthSpec;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("flint_cli_{}_{name}", std::process::id()))
    }

    fn write_dataset_csv(name: &str, seed: u64) -> (std::path::PathBuf, Dataset) {
        let ds = SynthSpec::new(120, 4, 2)
            .cluster_std(0.6)
            .seed(seed)
            .generate();
        let path = temp_path(name);
        let mut buf = Vec::new();
        csv::write_csv(&ds, &mut buf).expect("write");
        std::fs::write(&path, buf).expect("write file");
        (path, ds)
    }

    fn run_argv(text: &str) -> Result<String, RunError> {
        let argv: Vec<String> = text.split_whitespace().map(str::to_owned).collect();
        let cmd = parse(&argv).expect("parses");
        let mut out = Vec::new();
        run(cmd, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8"))
    }

    #[test]
    fn train_predict_pipeline() {
        let (data_path, ds) = write_dataset_csv("tp.csv", 1);
        let model_path = temp_path("tp_model.txt");
        let trained = run_argv(&format!(
            "train --data {} --classes 2 --trees 5 --depth 8 --out {}",
            data_path.display(),
            model_path.display()
        ))
        .expect("trains");
        assert!(trained.contains("trained 5 trees"), "{trained}");
        for backend in [
            "naive",
            "flint",
            "cags",
            "cags-flint",
            "quickscorer",
            "flint-blocked",
            "vm-flint",
        ] {
            let output = run_argv(&format!(
                "predict --model {} --data {} --classes 2 --backend {backend} --accuracy",
                model_path.display(),
                data_path.display()
            ))
            .expect("predicts");
            let lines: Vec<&str> = output.lines().collect();
            assert_eq!(lines.len(), ds.n_samples() + 1, "{backend}");
            assert!(lines.last().expect("non-empty").starts_with("accuracy:"));
        }
        let _ = std::fs::remove_file(data_path);
        let _ = std::fs::remove_file(model_path);
    }

    #[test]
    fn all_backends_print_identical_predictions() {
        let (data_path, _) = write_dataset_csv("same.csv", 2);
        let model_path = temp_path("same_model.txt");
        run_argv(&format!(
            "train --data {} --classes 2 --trees 4 --depth 6 --out {}",
            data_path.display(),
            model_path.display()
        ))
        .expect("trains");
        let outputs: Vec<String> = [
            "naive",
            "flint",
            "cags-flint",
            "quickscorer",
            "quickscorer-float",
            "naive-blocked",
            "cags-flint-blocked",
            "vm-flint",
            "vm-softfloat",
        ]
        .iter()
        .map(|b| {
            run_argv(&format!(
                "predict --model {} --data {} --classes 2 --backend {b}",
                model_path.display(),
                data_path.display()
            ))
            .expect("predicts")
        })
        .collect();
        assert!(outputs.windows(2).all(|w| w[0] == w[1]));
        let _ = std::fs::remove_file(data_path);
        let _ = std::fs::remove_file(model_path);
    }

    #[test]
    fn batched_predict_flags_change_nothing_but_the_engine() {
        let (data_path, _) = write_dataset_csv("batched.csv", 6);
        let model_path = temp_path("batched_model.txt");
        run_argv(&format!(
            "train --data {} --classes 2 --trees 5 --depth 7 --out {}",
            data_path.display(),
            model_path.display()
        ))
        .expect("trains");
        let scalar = run_argv(&format!(
            "predict --model {} --data {} --classes 2 --backend flint --accuracy",
            model_path.display(),
            data_path.display()
        ))
        .expect("predicts");
        for flags in [
            "--batch-size 16",
            "--threads 4",
            "--batch-size 1 --threads 2",
        ] {
            let batched = run_argv(&format!(
                "predict --model {} --data {} --classes 2 --backend flint --accuracy {flags}",
                model_path.display(),
                data_path.display()
            ))
            .expect("predicts");
            assert_eq!(batched, scalar, "{flags}");
        }
        let _ = std::fs::remove_file(data_path);
        let _ = std::fs::remove_file(model_path);
    }

    #[test]
    fn bench_list_prints_the_registry() {
        let text = run_argv("bench --list").expect("lists");
        for kind in EngineKind::ALL {
            assert!(text.contains(kind.name()), "missing {}", kind.name());
        }
        assert_eq!(text.lines().count(), EngineKind::ALL.len() + 1, "{text}");
    }

    #[test]
    fn bench_measures_selected_engines() {
        let (data_path, _) = write_dataset_csv("bench.csv", 9);
        let output = run_argv(&format!(
            "bench --data {} --classes 2 --trees 3 --depth 6 --runs 1 \
             --batch-size 32 --threads 2 --engines flint,flint-blocked,quickscorer",
            data_path.display()
        ))
        .expect("benches");
        assert!(output.contains("block 32 x 2 threads"), "{output}");
        for engine in ["flint", "flint-blocked", "quickscorer"] {
            assert!(
                output.lines().any(|l| l.starts_with(engine)),
                "{engine} missing from {output}"
            );
        }
        let _ = std::fs::remove_file(data_path);
    }

    #[test]
    fn backend_names_are_case_insensitive() {
        let (data_path, _) = write_dataset_csv("caseless.csv", 15);
        let model_path = temp_path("caseless_model.txt");
        run_argv(&format!(
            "train --data {} --classes 2 --trees 3 --depth 5 --out {}",
            data_path.display(),
            model_path.display()
        ))
        .expect("trains");
        let lower = run_argv(&format!(
            "predict --model {} --data {} --classes 2 --backend flint-blocked",
            model_path.display(),
            data_path.display()
        ))
        .expect("predicts");
        let upper = run_argv(&format!(
            "predict --model {} --data {} --classes 2 --backend FLINT-Blocked",
            model_path.display(),
            data_path.display()
        ))
        .expect("predicts");
        assert_eq!(lower, upper);
        let _ = std::fs::remove_file(data_path);
        let _ = std::fs::remove_file(model_path);
    }

    #[test]
    fn bench_output_csv_and_json_are_machine_readable() {
        let (data_path, _) = write_dataset_csv("benchfmt.csv", 14);
        let base = format!(
            "bench --data {} --classes 2 --trees 3 --depth 5 --runs 1 \
             --engines flint,flint-blocked",
            data_path.display()
        );
        let csv = run_argv(&format!("{base} --output csv")).expect("benches");
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "engine,samples_per_sec,median_ms,speedup");
        assert_eq!(lines.len(), 3, "{csv}");
        assert!(lines[1].starts_with("flint,"), "{csv}");
        assert!(lines[2].starts_with("flint-blocked,"), "{csv}");
        let json = run_argv(&format!("{base} --output json")).expect("benches");
        assert_eq!(json.lines().count(), 1, "{json}");
        assert!(json.starts_with("{\"schema\":\"flint-bench/2\""), "{json}");
        assert!(json.contains("\"kernel_caps\":\""), "{json}");
        assert!(json.contains("\"git_rev\":\""), "{json}");
        assert!(json.contains("\"shape\":null"), "{json}");
        assert!(json.contains("\"workload\":{\"samples\":120,"), "{json}");
        assert!(json.contains("\"engines\":[{"), "{json}");
        assert!(json.contains("\"engine\":\"flint\""), "{json}");
        assert!(json.contains("\"median_ms\":"), "{json}");
        assert!(json.trim_end().ends_with("}]}"), "{json}");
        let err = run_argv(&format!("{base} --output yaml")).unwrap_err();
        assert!(err.to_string().contains("table|csv|json"), "{err}");
        let _ = std::fs::remove_file(data_path);
    }

    #[test]
    fn bench_shape_preset_generates_its_own_workload() {
        let json = run_argv(
            "bench --shape magic --runs 1 --batch-size 64 --engines flint,simd-f16 --output json",
        )
        .expect("benches");
        assert!(json.contains("\"shape\":\"magic\""), "{json}");
        assert!(
            json.contains("\"workload\":{\"samples\":4096,\"features\":10,\"trees\":24,"),
            "{json}"
        );
        assert!(json.contains("\"engine\":\"simd-f16\""), "{json}");

        let err = run_argv("bench --shape bonsai").unwrap_err();
        assert!(err.to_string().contains("unknown --shape"), "{err}");
        let err = run_argv("bench --shape magic --data d.csv --classes 2").unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");
        let err = run_argv("bench --shape magic --model m.txt").unwrap_err();
        assert!(err.to_string().contains("preset forest"), "{err}");
    }

    /// A training flag the workload ignores is refused by name, never
    /// silently dropped: the preset trains its own forest, and a stored
    /// model is trained already.
    #[test]
    fn bench_refuses_training_flags_that_have_no_effect() {
        for flag in ["--trees 0", "--depth 2", "--classes 7"] {
            let err = run_argv(&format!(
                "bench --shape magic {flag} --runs 1 --engines naive"
            ))
            .unwrap_err();
            let name = flag.split(' ').next().expect("flag");
            assert!(
                err.to_string()
                    .contains(&format!("preset forest; drop {name}")),
                "{err}"
            );
        }
        let (data_path, _) = write_dataset_csv("benchflags.csv", 16);
        let model_path = temp_path("benchflags_model.txt");
        run_argv(&format!(
            "train --data {} --classes 2 --trees 2 --depth 4 --out {}",
            data_path.display(),
            model_path.display()
        ))
        .expect("trains");
        for flag in ["--trees 3", "--depth 4", "--seed 1"] {
            let err = run_argv(&format!(
                "bench --data {} --classes 2 --model {} {flag} --runs 1 --engines naive",
                data_path.display(),
                model_path.display()
            ))
            .unwrap_err();
            let name = flag.split(' ').next().expect("flag");
            assert!(
                err.to_string()
                    .contains(&format!("loads a trained forest; drop {name}")),
                "{err}"
            );
        }
        // Where they do act, the same flags are taken.
        run_argv(&format!(
            "bench --data {} --classes 2 --trees 2 --depth 3 --seed 1 --runs 1 --engines naive",
            data_path.display()
        ))
        .expect("trains and benches");
        let _ = std::fs::remove_file(data_path);
        let _ = std::fs::remove_file(model_path);
    }

    #[test]
    fn serve_rejects_unknown_engine_before_binding() {
        let (data_path, _) = write_dataset_csv("servebad.csv", 16);
        let model_path = temp_path("servebad_model.txt");
        run_argv(&format!(
            "train --data {} --classes 2 --trees 2 --depth 4 --out {}",
            data_path.display(),
            model_path.display()
        ))
        .expect("trains");
        let err = run_argv(&format!(
            "serve --model {} --engine warp",
            model_path.display()
        ))
        .unwrap_err();
        assert!(err.to_string().contains("unknown engine"), "{err}");
        let _ = std::fs::remove_file(data_path);
        let _ = std::fs::remove_file(model_path);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn serve_answers_over_tcp_until_shutdown() {
        use std::io::{BufRead, BufReader as IoBufReader, Write as IoWrite};
        use std::net::TcpStream;

        let (data_path, ds) = write_dataset_csv("servetcp.csv", 17);
        let model_path = temp_path("servetcp_model.txt");
        run_argv(&format!(
            "train --data {} --classes 2 --trees 4 --depth 6 --out {}",
            data_path.display(),
            model_path.display()
        ))
        .expect("trains");
        let expected = run_argv(&format!(
            "predict --model {} --data {} --classes 2 --backend flint-blocked",
            model_path.display(),
            data_path.display()
        ))
        .expect("predicts");

        // Race-free ephemeral port: serve on 127.0.0.1:0 and read the
        // OS-chosen address back out of the startup line, which the
        // runner flushes before blocking in the accept loop.
        #[derive(Clone, Default)]
        struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
        impl IoWrite for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().expect("buffer lock").extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = SharedBuf::default();
        let server = {
            let mut out = buf.clone();
            let argv: Vec<String> = format!(
                "serve --model {} --addr 127.0.0.1:0 --engine flint-blocked --max-batch 8",
                model_path.display()
            )
            .split_whitespace()
            .map(str::to_owned)
            .collect();
            std::thread::spawn(move || {
                run(parse(&argv).expect("parses"), &mut out).expect("serves");
            })
        };
        let addr = {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            loop {
                let text =
                    String::from_utf8(buf.0.lock().expect("buffer lock").clone()).expect("utf8");
                if let Some(rest) = text.split_once("listening on ").map(|(_, r)| r) {
                    break rest.split_whitespace().next().expect("address").to_owned();
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "server never announced its address: {text:?}"
                );
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        };
        let stream = TcpStream::connect(&addr).expect("connects");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = IoBufReader::new(stream.try_clone().expect("clones"));
        let mut writer = stream;
        let mut line = String::new();
        for (i, want) in expected.lines().take(10).enumerate() {
            let row: Vec<String> = ds.sample(i).iter().map(f32::to_string).collect();
            writer
                .write_all((row.join(",") + "\n").as_bytes())
                .expect("writes");
            line.clear();
            reader.read_line(&mut line).expect("reads");
            assert!(
                line.starts_with(&format!("{{\"class\":{want},")),
                "sample {i}: {line}"
            );
        }
        writer.write_all(b"stats\n").expect("writes");
        line.clear();
        reader.read_line(&mut line).expect("reads");
        assert!(line.contains("\"requests\":10"), "{line}");
        writer.write_all(b"shutdown\n").expect("writes");
        line.clear();
        reader.read_line(&mut line).expect("reads");
        server.join().expect("server thread");
        let output = String::from_utf8(buf.0.lock().expect("buffer lock").clone()).expect("utf8");
        assert!(output.contains(&format!("listening on {addr}")), "{output}");
        assert!(output.contains("\"requests\":10"), "{output}");
        let _ = std::fs::remove_file(data_path);
        let _ = std::fs::remove_file(model_path);
    }

    #[test]
    fn tree_span_flag_validates_its_bounds() {
        let (data_path, _) = write_dataset_csv("span.csv", 21);
        let model_path = temp_path("span_model.txt");
        run_argv(&format!(
            "train --data {} --classes 2 --trees 4 --depth 4 --out {}",
            data_path.display(),
            model_path.display()
        ))
        .expect("trains");
        for bad in ["2", "3:2", "0:9", "x:2", "2:"] {
            let err = run_argv(&format!(
                "serve --model {} --trees {bad} --stdin",
                model_path.display()
            ))
            .unwrap_err();
            assert!(err.to_string().contains("--trees"), "{bad}: {err}");
        }
        let _ = std::fs::remove_file(data_path);
        let _ = std::fs::remove_file(model_path);
    }

    #[test]
    fn route_rejects_bad_shard_lists_before_binding() {
        let err = run_argv("route --shards not-an-addr").unwrap_err();
        assert!(err.to_string().contains("invalid shard address"), "{err}");
        let err = run_argv("route --shards ,").unwrap_err();
        assert!(err.to_string().contains("lists no shard"), "{err}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn route_fronts_tree_span_shards_with_identical_answers() {
        use std::io::{BufRead, BufReader as IoBufReader, Read as IoRead, Write as IoWrite};
        use std::net::TcpStream;

        let (data_path, ds) = write_dataset_csv("routecli.csv", 23);
        let model_path = temp_path("routecli_model.txt");
        run_argv(&format!(
            "train --data {} --classes 2 --trees 5 --depth 6 --out {}",
            data_path.display(),
            model_path.display()
        ))
        .expect("trains");
        let expected = run_argv(&format!(
            "predict --model {} --data {} --classes 2 --backend flint-blocked",
            model_path.display(),
            data_path.display()
        ))
        .expect("predicts");

        #[derive(Clone, Default)]
        struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
        impl IoWrite for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().expect("buffer lock").extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let spawn = |argv_text: String, buf: SharedBuf| {
            std::thread::spawn(move || {
                let argv: Vec<String> = argv_text.split_whitespace().map(str::to_owned).collect();
                let mut out = buf;
                run(parse(&argv).expect("parses"), &mut out).expect("runs");
            })
        };
        let await_addr = |buf: &SharedBuf, marker: &str| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            loop {
                let text =
                    String::from_utf8(buf.0.lock().expect("buffer lock").clone()).expect("utf8");
                if let Some(rest) = text.split_once(marker).map(|(_, r)| r) {
                    break rest.split_whitespace().next().expect("address").to_owned();
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "never announced {marker:?}: {text:?}"
                );
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        };

        // Two shards over the ragged 5-tree split 3/2, then the router.
        let mut shard_addrs = Vec::new();
        let mut handles = Vec::new();
        for span in ["0:3", "3:5"] {
            let buf = SharedBuf::default();
            handles.push(spawn(
                format!(
                    "serve --model {} --addr 127.0.0.1:0 --trees {span} --max-batch 1",
                    model_path.display()
                ),
                buf.clone(),
            ));
            shard_addrs.push(await_addr(&buf, "listening on "));
        }
        let router_buf = SharedBuf::default();
        let router = spawn(
            format!(
                "route --shards {} --addr 127.0.0.1:0",
                shard_addrs.join(",")
            ),
            router_buf.clone(),
        );
        let addr = await_addr(&router_buf, "routing on ");

        let stream = TcpStream::connect(&addr).expect("connects");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = IoBufReader::new(stream.try_clone().expect("clones"));
        let mut writer = stream;
        let mut line = String::new();
        for (i, want) in expected.lines().take(8).enumerate() {
            let row: Vec<String> = ds.sample(i).iter().map(f32::to_string).collect();
            writeln!(writer, "{}", row.join(",")).expect("writes");
            line.clear();
            reader.read_line(&mut line).expect("reads");
            assert!(
                line.starts_with(&format!("{{\"class\":{want},\"engine\":\"router\"")),
                "sample {i}: {line}"
            );
        }
        writeln!(writer, "health").expect("writes");
        line.clear();
        reader.read_line(&mut line).expect("reads");
        assert!(line.contains("\"ok\":true"), "{line}");
        assert!(line.contains("\"shards_up\":2"), "{line}");
        writeln!(writer, "shutdown").expect("writes");
        line.clear();
        reader.read_line(&mut line).expect("reads");
        router.join().expect("router thread");
        for (addr, handle) in shard_addrs.iter().zip(handles) {
            let mut s = TcpStream::connect(addr).expect("connects shard");
            s.write_all(b"shutdown\n").expect("writes");
            let _ = s.read(&mut [0u8; 256]);
            handle.join().expect("shard thread");
        }
        let _ = std::fs::remove_file(data_path);
        let _ = std::fs::remove_file(model_path);
    }

    #[test]
    fn bench_on_full_registry_with_stored_model() {
        let (data_path, _) = write_dataset_csv("benchall.csv", 10);
        let model_path = temp_path("benchall_model.txt");
        run_argv(&format!(
            "train --data {} --classes 2 --trees 3 --depth 5 --out {}",
            data_path.display(),
            model_path.display()
        ))
        .expect("trains");
        let output = run_argv(&format!(
            "bench --data {} --classes 2 --model {} --runs 1",
            data_path.display(),
            model_path.display()
        ))
        .expect("benches");
        // One row per registered engine plus the workload and caps
        // lines, the header, and the trailing note.
        assert_eq!(
            output.lines().count(),
            EngineKind::ALL.len() + 4,
            "{output}"
        );
        assert!(output.contains("host kernel caps:"), "{output}");
        let _ = std::fs::remove_file(data_path);
        let _ = std::fs::remove_file(model_path);
    }

    #[test]
    fn bench_without_data_or_list_errors() {
        let err = run_argv("bench").unwrap_err();
        assert!(err.to_string().contains("--data"), "{err}");
        let (data_path, _) = write_dataset_csv("benchbad.csv", 11);
        let err = run_argv(&format!(
            "bench --data {} --classes 2 --engines warp",
            data_path.display()
        ))
        .unwrap_err();
        assert!(err.to_string().contains("unknown engine"), "{err}");
        // A stored model whose width differs from the workload must
        // error cleanly, not panic inside the reference loop.
        let model_path = temp_path("benchbad_model.txt");
        run_argv(&format!(
            "train --data {} --classes 2 --trees 2 --depth 4 --out {}",
            data_path.display(),
            model_path.display()
        ))
        .expect("trains");
        let narrow_path = temp_path("benchbad_narrow.csv");
        std::fs::write(&narrow_path, "0.5,1.5,0\n-0.5,2.0,1\n").expect("write file");
        let err = run_argv(&format!(
            "bench --data {} --classes 2 --model {}",
            narrow_path.display(),
            model_path.display()
        ))
        .unwrap_err();
        assert!(
            err.to_string().contains("model expects 4 features"),
            "{err}"
        );
        let _ = std::fs::remove_file(narrow_path);
        let _ = std::fs::remove_file(model_path);
        let _ = std::fs::remove_file(data_path);
    }

    #[test]
    fn train_with_zero_trees_errors_and_writes_no_model() {
        let (data_path, _) = write_dataset_csv("zero_train.csv", 12);
        let model_path = temp_path("zero_train_model.txt");
        let err = run_argv(&format!(
            "train --data {} --classes 2 --trees 0 --out {}",
            data_path.display(),
            model_path.display()
        ))
        .unwrap_err();
        assert!(
            err.to_string().contains("a forest needs at least one tree"),
            "{err}"
        );
        assert!(
            !model_path.exists(),
            "a model no reader accepts was written"
        );
        let err = run_argv(&format!(
            "train --data {} --classes 2 --trees 0",
            data_path.display()
        ))
        .unwrap_err();
        assert!(matches!(err, RunError::Train(_)), "{err}");
        let _ = std::fs::remove_file(data_path);
    }

    #[test]
    fn bench_with_zero_trees_errors_instead_of_panicking() {
        let (data_path, _) = write_dataset_csv("zero_bench.csv", 13);
        let err = run_argv(&format!(
            "bench --data {} --classes 2 --trees 0 --runs 1",
            data_path.display()
        ))
        .unwrap_err();
        assert!(
            err.to_string().contains("a forest needs at least one tree"),
            "{err}"
        );
        let _ = std::fs::remove_file(data_path);
    }

    #[test]
    fn emit_and_importance_and_simulate() {
        let (data_path, _) = write_dataset_csv("emit.csv", 3);
        let model_path = temp_path("emit_model.txt");
        run_argv(&format!(
            "train --data {} --classes 2 --trees 2 --depth 4 --out {}",
            data_path.display(),
            model_path.display()
        ))
        .expect("trains");
        let c = run_argv(&format!(
            "emit --model {} --lang c --variant flint",
            model_path.display()
        ))
        .expect("emits");
        assert!(c.contains("predict_forest_flint"));
        let c64 =
            run_argv(&format!("emit --model {} --lang c64", model_path.display())).expect("emits");
        assert!(c64.contains("_f64"));
        let asm = run_argv(&format!(
            "emit --model {} --lang asm-arm --variant flint",
            model_path.display()
        ))
        .expect("emits");
        assert!(asm.contains("movz"));
        let imp =
            run_argv(&format!("importance --model {}", model_path.display())).expect("importances");
        assert_eq!(imp.lines().count(), 4);
        let sim = run_argv(&format!(
            "simulate --model {} --data {} --classes 2 --machine embedded --config flint",
            model_path.display(),
            data_path.display()
        ))
        .expect("simulates");
        assert!(sim.contains("cycles/inference"), "{sim}");
        let _ = std::fs::remove_file(data_path);
        let _ = std::fs::remove_file(model_path);
    }

    #[test]
    fn invalid_options_error_cleanly() {
        let (data_path, _) = write_dataset_csv("bad.csv", 4);
        let model_path = temp_path("bad_model.txt");
        run_argv(&format!(
            "train --data {} --classes 2 --trees 1 --out {}",
            data_path.display(),
            model_path.display()
        ))
        .expect("trains");
        let err = run_argv(&format!(
            "predict --model {} --data {} --classes 2 --backend warp",
            model_path.display(),
            data_path.display()
        ))
        .unwrap_err();
        // The registry error names the typo and lists every engine.
        assert!(err.to_string().contains("unknown engine"), "{err}");
        assert!(err.to_string().contains("cags-flint-blocked"), "{err}");
        let err = run_argv(&format!(
            "simulate --model {} --data {} --classes 2 --machine vax",
            model_path.display(),
            data_path.display()
        ))
        .unwrap_err();
        assert!(err.to_string().contains("unknown machine"));
        let err =
            run_argv("predict --model /nonexistent --data also-nope --classes 2").unwrap_err();
        assert!(matches!(err, RunError::Io(_)));
        let _ = std::fs::remove_file(data_path);
        let _ = std::fs::remove_file(model_path);
    }

    #[test]
    fn help_prints_usage() {
        let text = run_argv("help").expect("help");
        assert!(text.contains("USAGE"));
        assert!(text.contains("flint train"));
    }
}
