//! Command line parsing (hand-rolled: no argument-parsing crate is in
//! the sanctioned offline dependency set).

use std::collections::BTreeMap;

/// A parsed subcommand.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Train a forest from a CSV file and write the model.
    Train {
        /// Input CSV (features…, label).
        data: String,
        /// Number of classes in the label column.
        classes: usize,
        /// Ensemble size.
        trees: usize,
        /// Depth cap (`None` = unbounded).
        depth: Option<usize>,
        /// RNG seed.
        seed: u64,
        /// Output model path (stdout if `None`).
        out: Option<String>,
    },
    /// Predict a CSV with a stored model.
    Predict {
        /// Model file.
        model: String,
        /// Input CSV.
        data: String,
        /// Number of classes in the CSV's label column.
        classes: usize,
        /// Backend name (`naive`, `flint`, `cags`, `cags-flint`,
        /// `quickscorer`).
        backend: String,
        /// Also print accuracy against the CSV labels.
        accuracy: bool,
        /// Sample block size for the batch engine (`None` = scalar
        /// one-sample-at-a-time loop, unless `threads > 1`).
        batch_size: Option<usize>,
        /// Worker threads for the batch engine.
        threads: usize,
    },
    /// Measure every registered engine's throughput over a CSV
    /// workload (the `batch_throughput` table without cargo/criterion),
    /// or list the engine registry.
    Bench {
        /// Input CSV used as the workload (required unless `list` or
        /// `shape`).
        data: Option<String>,
        /// Forest-shape preset (`magic`, `ranking`, `deep`) generating
        /// a synthetic workload + forest instead of `--data`.
        shape: Option<String>,
        /// Number of classes in the CSV's label column (required
        /// unless `list`).
        classes: Option<usize>,
        /// Stored model to serve (`None` = train on the workload).
        model: Option<String>,
        /// Ensemble size when training in-process.
        trees: usize,
        /// Depth cap when training in-process.
        depth: Option<usize>,
        /// RNG seed when training in-process.
        seed: u64,
        /// Sample block size for the engines' batch options.
        batch_size: Option<usize>,
        /// Worker threads for the engines' batch options.
        threads: usize,
        /// Timed scoring passes per engine (median reported).
        runs: usize,
        /// Comma-separated engine names (`None` = the full registry).
        engines: Option<String>,
        /// Print the engine registry (names and strategies) and exit.
        list: bool,
        /// Result format: `table`, `csv` or `json`.
        output: String,
    },
    /// Serve a stored model over TCP (or stdin): the epoll front end
    /// scores on its event-loop thread, the `threads` front end and
    /// stdin through the micro-batcher.
    Serve {
        /// Model file.
        model: String,
        /// Engine registry name answering requests.
        engine: String,
        /// Most rows one engine call scores (every front end).
        max_batch: usize,
        /// Linger deadline in microseconds (how long a partial batch
        /// waits for more rows; micro-batcher only).
        linger_us: u64,
        /// Scoring worker threads (micro-batcher only).
        workers: usize,
        /// Bounded request-queue depth (backpressure threshold;
        /// micro-batcher only).
        queue_depth: usize,
        /// TCP listen address.
        addr: String,
        /// TCP front end (`epoll` event loop or `threads`
        /// thread-per-connection); parsed by [`flint_serve::FrontEnd`].
        front_end: String,
        /// Connection cap of the event-loop front end (further accepts
        /// are answered `busy` and closed).
        max_conns: usize,
        /// In-flight prediction cap of the event-loop front end: rows
        /// one loop iteration admits before it scores them.
        max_inflight: usize,
        /// Serve only the contiguous tree span `a:b` (half-open, as
        /// planned by `flint_forest::plan_spans`) — one shard of a
        /// router fan-out instead of the whole ensemble.
        trees: Option<String>,
        /// Serve stdin/stdout instead of TCP.
        stdin: bool,
    },
    /// Front N `flint serve` shards with the fan-out/merge router:
    /// same wire protocol, answers bit-identical to a single server
    /// over the whole forest.
    Route {
        /// Comma-separated shard addresses (`host:port,host:port`).
        shards: String,
        /// TCP listen address.
        addr: String,
        /// Connection cap (further accepts are answered `busy`).
        max_conns: usize,
        /// Fanned-out-and-unanswered request cap across all clients.
        max_inflight: usize,
    },
    /// Emit source code for a stored model.
    Emit {
        /// Model file.
        model: String,
        /// Target language (`c`, `c64`, `rust`, `asm-arm`, `asm-x86`).
        lang: String,
        /// Comparison idiom (`std`, `flint`).
        variant: String,
    },
    /// Print Gini feature importances of a stored model.
    Importance {
        /// Model file.
        model: String,
    },
    /// Simulate a stored model on a machine cost profile.
    Simulate {
        /// Model file.
        model: String,
        /// Input CSV used as the workload.
        data: String,
        /// Number of classes in the CSV.
        classes: usize,
        /// Machine name (`x86s`, `x86d`, `arms`, `armd`, `embedded`).
        machine: String,
        /// Configuration (`naive`, `cags`, `flint`, `cags-flint`,
        /// `flint-asm`, `softfloat`).
        config: String,
    },
    /// Print usage.
    Help,
}

/// Error parsing the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError(pub String);

impl core::fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseArgsError {}

fn flags(args: &[String]) -> Result<BTreeMap<String, String>, ParseArgsError> {
    let mut map = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| ParseArgsError(format!("expected --flag, got {:?}", args[i])))?;
        if key == "accuracy" || key == "list" || key == "stdin" {
            map.insert(key.to_owned(), "true".to_owned());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| ParseArgsError(format!("--{key} needs a value")))?;
        map.insert(key.to_owned(), value.clone());
        i += 2;
    }
    Ok(map)
}

fn required(map: &BTreeMap<String, String>, key: &str) -> Result<String, ParseArgsError> {
    map.get(key)
        .cloned()
        .ok_or_else(|| ParseArgsError(format!("missing required --{key}")))
}

fn parse_number<T: std::str::FromStr>(text: &str, key: &str) -> Result<T, ParseArgsError> {
    text.parse()
        .map_err(|_| ParseArgsError(format!("--{key}: cannot parse {text:?}")))
}

/// Parses `args` (without the program name) into a [`Command`].
///
/// # Errors
///
/// [`ParseArgsError`] with a human-readable message on any malformed
/// input.
pub fn parse(args: &[String]) -> Result<Command, ParseArgsError> {
    let Some((sub, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    let map = flags(rest)?;
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "train" => Ok(Command::Train {
            data: required(&map, "data")?,
            classes: parse_number(&required(&map, "classes")?, "classes")?,
            trees: map
                .get("trees")
                .map(|v| parse_number(v, "trees"))
                .transpose()?
                .unwrap_or(10),
            depth: map
                .get("depth")
                .map(|v| parse_number(v, "depth"))
                .transpose()?,
            seed: map
                .get("seed")
                .map(|v| parse_number(v, "seed"))
                .transpose()?
                .unwrap_or(0),
            out: map.get("out").cloned(),
        }),
        "predict" => Ok(Command::Predict {
            model: required(&map, "model")?,
            data: required(&map, "data")?,
            classes: parse_number(&required(&map, "classes")?, "classes")?,
            backend: map
                .get("backend")
                .cloned()
                .unwrap_or_else(|| "flint".to_owned()),
            accuracy: map.contains_key("accuracy"),
            batch_size: map
                .get("batch-size")
                .map(|v| parse_number(v, "batch-size"))
                .transpose()?,
            threads: map
                .get("threads")
                .map(|v| parse_number(v, "threads"))
                .transpose()?
                .unwrap_or(1),
        }),
        "bench" => Ok(Command::Bench {
            data: map.get("data").cloned(),
            shape: map.get("shape").cloned(),
            classes: map
                .get("classes")
                .map(|v| parse_number(v, "classes"))
                .transpose()?,
            model: map.get("model").cloned(),
            trees: map
                .get("trees")
                .map(|v| parse_number(v, "trees"))
                .transpose()?
                .unwrap_or(24),
            depth: map
                .get("depth")
                .map(|v| parse_number(v, "depth"))
                .transpose()?
                .or(Some(16)),
            seed: map
                .get("seed")
                .map(|v| parse_number(v, "seed"))
                .transpose()?
                .unwrap_or(0),
            batch_size: map
                .get("batch-size")
                .map(|v| parse_number(v, "batch-size"))
                .transpose()?,
            threads: map
                .get("threads")
                .map(|v| parse_number(v, "threads"))
                .transpose()?
                .unwrap_or(1),
            runs: map
                .get("runs")
                .map(|v| parse_number(v, "runs"))
                .transpose()?
                .unwrap_or(5),
            engines: map.get("engines").cloned(),
            list: map.contains_key("list"),
            output: map
                .get("output")
                .cloned()
                .unwrap_or_else(|| "table".to_owned()),
        }),
        "serve" => Ok(Command::Serve {
            model: required(&map, "model")?,
            engine: map
                .get("engine")
                .cloned()
                .unwrap_or_else(|| "flint-blocked".to_owned()),
            max_batch: map
                .get("max-batch")
                .map(|v| parse_number(v, "max-batch"))
                .transpose()?
                .unwrap_or(64),
            linger_us: map
                .get("linger-us")
                .map(|v| parse_number(v, "linger-us"))
                .transpose()?
                .unwrap_or(200),
            workers: map
                .get("workers")
                .map(|v| parse_number(v, "workers"))
                .transpose()?
                .unwrap_or(2),
            queue_depth: map
                .get("queue-depth")
                .map(|v| parse_number(v, "queue-depth"))
                .transpose()?
                .unwrap_or(1024),
            addr: map
                .get("addr")
                .cloned()
                .unwrap_or_else(|| "127.0.0.1:7878".to_owned()),
            front_end: map
                .get("front-end")
                .cloned()
                .unwrap_or_else(|| "epoll".to_owned()),
            max_conns: map
                .get("max-conns")
                .map(|v| parse_number(v, "max-conns"))
                .transpose()?
                .unwrap_or(16384),
            max_inflight: map
                .get("max-inflight")
                .map(|v| parse_number(v, "max-inflight"))
                .transpose()?
                .unwrap_or(1024),
            trees: map.get("trees").cloned(),
            stdin: map.contains_key("stdin"),
        }),
        "route" => Ok(Command::Route {
            shards: required(&map, "shards")?,
            addr: map
                .get("addr")
                .cloned()
                .unwrap_or_else(|| flint_router::DEFAULT_ROUTER_ADDR.to_owned()),
            max_conns: map
                .get("max-conns")
                .map(|v| parse_number(v, "max-conns"))
                .transpose()?
                .unwrap_or(16384),
            max_inflight: map
                .get("max-inflight")
                .map(|v| parse_number(v, "max-inflight"))
                .transpose()?
                .unwrap_or(1024),
        }),
        "emit" => Ok(Command::Emit {
            model: required(&map, "model")?,
            lang: map.get("lang").cloned().unwrap_or_else(|| "c".to_owned()),
            variant: map
                .get("variant")
                .cloned()
                .unwrap_or_else(|| "flint".to_owned()),
        }),
        "importance" => Ok(Command::Importance {
            model: required(&map, "model")?,
        }),
        "simulate" => Ok(Command::Simulate {
            model: required(&map, "model")?,
            data: required(&map, "data")?,
            classes: parse_number(&required(&map, "classes")?, "classes")?,
            machine: map
                .get("machine")
                .cloned()
                .unwrap_or_else(|| "x86s".to_owned()),
            config: map
                .get("config")
                .cloned()
                .unwrap_or_else(|| "flint".to_owned()),
        }),
        other => Err(ParseArgsError(format!(
            "unknown subcommand {other:?}; try `flint help`"
        ))),
    }
}

/// The usage text printed by `flint help`.
pub const USAGE: &str = "\
flint — FLInt random forest toolchain

USAGE:
  flint train      --data d.csv --classes K [--trees N] [--depth D] [--seed S] [--out model.txt]
  flint predict    --model model.txt --data d.csv --classes K [--backend ENGINE] [--accuracy] [--batch-size B] [--threads T]
  flint bench      --data d.csv --classes K [--model model.txt] [--trees N] [--depth D] [--seed S]
                   [--batch-size B] [--threads T] [--runs R] [--engines a,b,c] [--output table|csv|json]
  flint bench      --shape magic|ranking|deep [--seed S] [--batch-size B] [--threads T]
                   [--runs R] [--engines a,b,c] [--output table|csv|json]
  flint bench      --list
  flint serve      --model model.txt [--engine ENGINE] [--max-batch B] [--linger-us U]
                   [--workers W] [--queue-depth Q] [--addr HOST:PORT]
                   [--front-end epoll|threads] [--max-conns C] [--max-inflight I]
                   [--trees A:B] [--stdin]
  flint route      --shards HOST:PORT,HOST:PORT [--addr HOST:PORT] [--max-conns C] [--max-inflight I]
  flint emit       --model model.txt [--lang c|c64|rust|asm-arm|asm-x86] [--variant std|flint]
  flint importance --model model.txt
  flint simulate   --model model.txt --data d.csv --classes K [--machine x86s|x86d|arms|armd|embedded] [--config naive|cags|flint|cags-flint|flint-asm|softfloat]
  flint help

ENGINE is any name from the engine registry (`flint bench --list`,
case-insensitive): the five if-else configurations
(naive|cags|flint|cags-flint|softfloat), their blocked batch
counterparts (*-blocked), quickscorer[-float], the instruction-level
VM variants (vm-flint|vm-float|vm-softfloat), the 8-wide SIMD lane
engines (simd|simd-float; build with --features simd-avx2 for the
AVX2 kernels), and their half-precision node-slab counterparts
(simd-f16|simd-f16-float). Set FLINT_KERNEL=portable|avx2|neon to
override the auto-dispatched kernel path.

`flint bench --shape` generates a named synthetic workload instead of
reading a CSV: magic (24 trees x depth 10), ranking (600 x 6,
bandwidth-bound), deep (12 x 18).

`flint serve` speaks one request per line (CSV feature row or
{\"features\":[...]}; `stats` and `shutdown` commands) and answers one
JSON object per line. The default `epoll` front end is a readiness
event loop that also scores: one thread, thousands of idle
connections, each loop iteration scoring the rows that arrived in
chunks of at most --max-batch without waiting for more, explicit
`busy` shedding past --max-conns / --max-inflight. `--front-end
threads` is the thread-per-connection baseline, and the one that works
off Linux; it and `--stdin` score through the micro-batcher, the only
path --linger-us, --workers and --queue-depth configure.
`--trees A:B` serves only that contiguous tree span — one shard of a
sharded deployment.

`flint route` fronts N shards started with `flint serve --trees`: it
speaks the same protocol, fans each request to every shard as a
`votes:` partial, merges the histograms and applies the canonical
majority vote, so answers are bit-identical to one server over the
whole forest. Control verbs on the same connection: health, shardmap,
shardmap set a,b, drain, undrain, stats, shutdown. Any shard down or
shedding fails that request with a visible busy — never a partial
merge.

CSV format: one row per sample, float features followed by an integer
class label, no header.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parse_train_with_defaults() {
        let cmd = parse(&argv("train --data d.csv --classes 3")).expect("parses");
        assert_eq!(
            cmd,
            Command::Train {
                data: "d.csv".into(),
                classes: 3,
                trees: 10,
                depth: None,
                seed: 0,
                out: None,
            }
        );
    }

    #[test]
    fn parse_train_full() {
        let cmd = parse(&argv(
            "train --data d.csv --classes 2 --trees 50 --depth 12 --seed 9 --out m.txt",
        ))
        .expect("parses");
        assert_eq!(
            cmd,
            Command::Train {
                data: "d.csv".into(),
                classes: 2,
                trees: 50,
                depth: Some(12),
                seed: 9,
                out: Some("m.txt".into()),
            }
        );
    }

    #[test]
    fn parse_predict_accuracy_flag() {
        let cmd = parse(&argv(
            "predict --model m.txt --data d.csv --classes 2 --backend cags-flint --accuracy",
        ))
        .expect("parses");
        match cmd {
            Command::Predict {
                backend,
                accuracy,
                batch_size,
                threads,
                ..
            } => {
                assert_eq!(backend, "cags-flint");
                assert!(accuracy);
                assert_eq!(batch_size, None);
                assert_eq!(threads, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_predict_batch_flags() {
        let cmd = parse(&argv(
            "predict --model m.txt --data d.csv --classes 2 --batch-size 128 --threads 4",
        ))
        .expect("parses");
        match cmd {
            Command::Predict {
                batch_size,
                threads,
                ..
            } => {
                assert_eq!(batch_size, Some(128));
                assert_eq!(threads, 4);
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = parse(&argv(
            "predict --model m.txt --data d.csv --classes 2 --batch-size many",
        ))
        .unwrap_err();
        assert!(err.0.contains("batch-size"), "{err}");
    }

    #[test]
    fn parse_bench_defaults_and_flags() {
        let cmd = parse(&argv("bench --data d.csv --classes 2")).expect("parses");
        assert_eq!(
            cmd,
            Command::Bench {
                data: Some("d.csv".into()),
                shape: None,
                classes: Some(2),
                model: None,
                trees: 24,
                depth: Some(16),
                seed: 0,
                batch_size: None,
                threads: 1,
                runs: 5,
                engines: None,
                list: false,
                output: "table".into(),
            }
        );
        let cmd = parse(&argv(
            "bench --data d.csv --classes 3 --model m.txt --batch-size 128 --threads 4 \
             --runs 9 --engines flint,flint-blocked --output json",
        ))
        .expect("parses");
        match cmd {
            Command::Bench {
                model,
                batch_size,
                threads,
                runs,
                engines,
                output,
                ..
            } => {
                assert_eq!(model.as_deref(), Some("m.txt"));
                assert_eq!(batch_size, Some(128));
                assert_eq!(threads, 4);
                assert_eq!(runs, 9);
                assert_eq!(engines.as_deref(), Some("flint,flint-blocked"));
                assert_eq!(output, "json");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_serve_defaults_and_flags() {
        let cmd = parse(&argv("serve --model m.txt")).expect("parses");
        assert_eq!(
            cmd,
            Command::Serve {
                model: "m.txt".into(),
                engine: "flint-blocked".into(),
                max_batch: 64,
                linger_us: 200,
                workers: 2,
                queue_depth: 1024,
                addr: "127.0.0.1:7878".into(),
                front_end: "epoll".into(),
                max_conns: 16384,
                max_inflight: 1024,
                trees: None,
                stdin: false,
            }
        );
        let cmd = parse(&argv(
            "serve --model m.txt --engine quickscorer --max-batch 16 --linger-us 500 \
             --workers 4 --queue-depth 64 --addr 0.0.0.0:9000 --front-end threads \
             --max-conns 100 --max-inflight 32 --trees 0:12 --stdin",
        ))
        .expect("parses");
        assert_eq!(
            cmd,
            Command::Serve {
                model: "m.txt".into(),
                engine: "quickscorer".into(),
                max_batch: 16,
                linger_us: 500,
                workers: 4,
                queue_depth: 64,
                addr: "0.0.0.0:9000".into(),
                front_end: "threads".into(),
                max_conns: 100,
                max_inflight: 32,
                trees: Some("0:12".into()),
                stdin: true,
            }
        );
        let err = parse(&argv("serve")).unwrap_err();
        assert!(err.0.contains("--model"), "{err}");
        let err = parse(&argv("serve --model m.txt --max-batch soon")).unwrap_err();
        assert!(err.0.contains("max-batch"), "{err}");
        let err = parse(&argv("serve --model m.txt --max-conns lots")).unwrap_err();
        assert!(err.0.contains("max-conns"), "{err}");
    }

    #[test]
    fn parse_route_defaults_and_flags() {
        let cmd = parse(&argv("route --shards 127.0.0.1:7878,127.0.0.1:7879")).expect("parses");
        assert_eq!(
            cmd,
            Command::Route {
                shards: "127.0.0.1:7878,127.0.0.1:7879".into(),
                addr: flint_router::DEFAULT_ROUTER_ADDR.into(),
                max_conns: 16384,
                max_inflight: 1024,
            }
        );
        let cmd = parse(&argv(
            "route --shards 10.0.0.1:1 --addr 0.0.0.0:9100 --max-conns 64 --max-inflight 8",
        ))
        .expect("parses");
        assert_eq!(
            cmd,
            Command::Route {
                shards: "10.0.0.1:1".into(),
                addr: "0.0.0.0:9100".into(),
                max_conns: 64,
                max_inflight: 8,
            }
        );
        let err = parse(&argv("route")).unwrap_err();
        assert!(err.0.contains("--shards"), "{err}");
        let err = parse(&argv("route --shards a:1 --max-inflight soon")).unwrap_err();
        assert!(err.0.contains("max-inflight"), "{err}");
    }

    #[test]
    fn parse_bench_shape_preset() {
        let cmd = parse(&argv("bench --shape ranking --runs 3")).expect("parses");
        match cmd {
            Command::Bench {
                shape,
                data,
                classes,
                runs,
                ..
            } => {
                assert_eq!(shape.as_deref(), Some("ranking"));
                assert_eq!(data, None);
                assert_eq!(classes, None);
                assert_eq!(runs, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_bench_list() {
        let cmd = parse(&argv("bench --list")).expect("parses");
        match cmd {
            Command::Bench { list, data, .. } => {
                assert!(list);
                assert_eq!(data, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_errors_are_descriptive() {
        let err = parse(&argv("train --classes 2")).unwrap_err();
        assert!(err.0.contains("--data"), "{err}");
        let err = parse(&argv("train --data d.csv --classes two")).unwrap_err();
        assert!(err.0.contains("classes"), "{err}");
        let err = parse(&argv("frobnicate")).unwrap_err();
        assert!(err.0.contains("unknown subcommand"), "{err}");
        let err = parse(&argv("train --data")).unwrap_err();
        assert!(err.0.contains("needs a value"), "{err}");
        let err = parse(&argv("train data")).unwrap_err();
        assert!(err.0.contains("expected --flag"), "{err}");
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).expect("parses"), Command::Help);
        assert_eq!(parse(&argv("help")).expect("parses"), Command::Help);
        assert_eq!(parse(&argv("--help")).expect("parses"), Command::Help);
    }
}
