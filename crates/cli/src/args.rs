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
        /// Engine registry name (any name `flint bench --list`
        /// prints, e.g. `flint`, `flint-blocked`, `simd`, `jit`).
        backend: String,
        /// Also print accuracy against the CSV labels.
        accuracy: bool,
        /// Sample block size of the engine's batch options (`None` =
        /// the default of 64).
        batch_size: Option<usize>,
        /// Worker threads of the engine's batch options.
        threads: usize,
    },
    /// Measure every registered engine's throughput over a CSV
    /// workload or a shape preset, each engine checked against its
    /// comparison family's reference first, or list the engine
    /// registry.
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
        /// Ensemble size when training in-process (`None` = 24);
        /// refused with `shape` or `model`, which ignore it.
        trees: Option<usize>,
        /// Depth cap when training in-process (`None` = 16); refused
        /// with `shape` or `model`.
        depth: Option<usize>,
        /// RNG seed of in-process training or of the `shape` preset
        /// (`None` = 0); refused with `model`.
        seed: Option<u64>,
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
    /// Serve a stored model over TCP (Linux) or stdin: either way one
    /// thread reads, scores and answers.
    Serve {
        /// Model file.
        model: String,
        /// Engine registry name answering requests.
        engine: String,
        /// Most rows one engine call scores.
        max_batch: usize,
        /// TCP listen address.
        addr: String,
        /// Connection cap of the TCP front end (further accepts are
        /// answered `busy` and closed).
        max_conns: usize,
        /// In-flight prediction cap of the TCP front end: rows one
        /// loop iteration admits before it scores them.
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

/// The `--key value` pairs (and valueless switches) after a
/// subcommand. Every read marks its key as one the subcommand takes;
/// [`finish`](Self::finish) then rejects any flag no read asked for,
/// so a typo or a flag of another subcommand fails instead of being
/// silently ignored.
struct Flags {
    map: BTreeMap<String, String>,
    known: Vec<&'static str>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Self, ParseArgsError> {
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
        Ok(Self {
            map,
            known: Vec::new(),
        })
    }

    fn text(&mut self, key: &'static str) -> Option<String> {
        self.known.push(key);
        self.map.get(key).cloned()
    }

    fn text_or(&mut self, key: &'static str, default: &str) -> String {
        self.text(key).unwrap_or_else(|| default.to_owned())
    }

    fn required(&mut self, key: &'static str) -> Result<String, ParseArgsError> {
        self.text(key)
            .ok_or_else(|| ParseArgsError(format!("missing required --{key}")))
    }

    fn switch(&mut self, key: &'static str) -> bool {
        self.text(key).is_some()
    }

    fn number<T: std::str::FromStr>(
        &mut self,
        key: &'static str,
    ) -> Result<Option<T>, ParseArgsError> {
        self.text(key)
            .map(|text| {
                text.parse()
                    .map_err(|_| ParseArgsError(format!("--{key}: cannot parse {text:?}")))
            })
            .transpose()
    }

    fn number_or<T: std::str::FromStr>(
        &mut self,
        key: &'static str,
        default: T,
    ) -> Result<T, ParseArgsError> {
        Ok(self.number(key)?.unwrap_or(default))
    }

    fn required_number<T: std::str::FromStr>(
        &mut self,
        key: &'static str,
    ) -> Result<T, ParseArgsError> {
        self.number(key)?
            .ok_or_else(|| ParseArgsError(format!("missing required --{key}")))
    }

    /// Errors on every flag `sub` never read, listing the ones it takes.
    fn finish(self, sub: &str) -> Result<(), ParseArgsError> {
        let dashed = |keys: Vec<&str>| -> String {
            let flags: Vec<String> = keys.iter().map(|k| format!("--{k}")).collect();
            if flags.is_empty() {
                "none".to_owned()
            } else {
                flags.join(" ")
            }
        };
        let unknown: Vec<&str> = self
            .map
            .keys()
            .map(String::as_str)
            .filter(|key| !self.known.contains(key))
            .collect();
        if unknown.is_empty() {
            return Ok(());
        }
        Err(ParseArgsError(format!(
            "flint {sub} does not take {} (valid: {})",
            dashed(unknown),
            dashed(self.known)
        )))
    }
}

/// Parses `args` (without the program name) into a [`Command`].
///
/// # Errors
///
/// [`ParseArgsError`] with a human-readable message on any malformed
/// input, including a flag the subcommand does not take.
pub fn parse(args: &[String]) -> Result<Command, ParseArgsError> {
    let Some((sub, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    let mut flags = Flags::parse(rest)?;
    let command = match sub.as_str() {
        "help" | "--help" | "-h" => Command::Help,
        "train" => Command::Train {
            data: flags.required("data")?,
            classes: flags.required_number("classes")?,
            trees: flags.number_or("trees", 10)?,
            depth: flags.number("depth")?,
            seed: flags.number_or("seed", 0)?,
            out: flags.text("out"),
        },
        "predict" => Command::Predict {
            model: flags.required("model")?,
            data: flags.required("data")?,
            classes: flags.required_number("classes")?,
            backend: flags.text_or("backend", "flint"),
            accuracy: flags.switch("accuracy"),
            batch_size: flags.number("batch-size")?,
            threads: flags.number_or("threads", 1)?,
        },
        "bench" => Command::Bench {
            data: flags.text("data"),
            shape: flags.text("shape"),
            classes: flags.number("classes")?,
            model: flags.text("model"),
            trees: flags.number("trees")?,
            depth: flags.number("depth")?,
            seed: flags.number("seed")?,
            batch_size: flags.number("batch-size")?,
            threads: flags.number_or("threads", 1)?,
            runs: flags.number_or("runs", 5)?,
            engines: flags.text("engines"),
            list: flags.switch("list"),
            output: flags.text_or("output", "table"),
        },
        "serve" => Command::Serve {
            model: flags.required("model")?,
            engine: flags.text_or("engine", "flint-blocked"),
            max_batch: flags.number_or("max-batch", 64)?,
            addr: flags.text_or("addr", "127.0.0.1:7878"),
            max_conns: flags.number_or("max-conns", 16384)?,
            max_inflight: flags.number_or("max-inflight", 1024)?,
            trees: flags.text("trees"),
            stdin: flags.switch("stdin"),
        },
        "route" => Command::Route {
            shards: flags.required("shards")?,
            addr: flags.text_or("addr", flint_router::DEFAULT_ROUTER_ADDR),
            max_conns: flags.number_or("max-conns", 16384)?,
            max_inflight: flags.number_or("max-inflight", 1024)?,
        },
        "emit" => Command::Emit {
            model: flags.required("model")?,
            lang: flags.text_or("lang", "c"),
            variant: flags.text_or("variant", "flint"),
        },
        "importance" => Command::Importance {
            model: flags.required("model")?,
        },
        "simulate" => Command::Simulate {
            model: flags.required("model")?,
            data: flags.required("data")?,
            classes: flags.required_number("classes")?,
            machine: flags.text_or("machine", "x86s"),
            config: flags.text_or("config", "flint"),
        },
        other => {
            return Err(ParseArgsError(format!(
                "unknown subcommand {other:?}; try `flint help`"
            )))
        }
    };
    flags.finish(sub)?;
    Ok(command)
}

/// The usage text printed by `flint help`.
pub const USAGE: &str = "\
flint — FLInt random forest toolchain

USAGE:
  flint train      --data d.csv --classes K [--trees N] [--depth D] [--seed S] [--out model.txt]
  flint predict    --model model.txt --data d.csv --classes K [--backend ENGINE] [--accuracy] [--batch-size B] [--threads T]
  flint bench      --data d.csv --classes K [--model model.txt | [--trees N] [--depth D] [--seed S]]
                   [--batch-size B] [--threads T] [--runs R] [--engines a,b,c] [--output table|csv|json]
  flint bench      --shape magic|ranking|deep [--seed S] [--batch-size B] [--threads T]
                   [--runs R] [--engines a,b,c] [--output table|csv|json]
  flint bench      --list
  flint serve      --model model.txt [--engine ENGINE] [--max-batch B] [--addr HOST:PORT]
                   [--max-conns C] [--max-inflight I] [--trees A:B] [--stdin]
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
engines (simd|simd-float; AVX2 kernels on x86-64 CPUs that report
AVX2, NEON on aarch64, portable lane loops elsewhere), their
half-precision node-slab counterparts (simd-f16|simd-f16-float), and
the template JIT (jit|jit-float; native x86-64 code compiled when the
engine is built on x86-64 Linux, the VM interpreter elsewhere or with
FLINT_JIT_FORCE_FALLBACK=1). The kernel path is picked at run time;
set FLINT_KERNEL=portable|avx2|neon to override it.

`flint bench --shape` generates a named synthetic workload instead of
reading a CSV: magic (24 trees x depth 10), ranking (600 x 6,
bandwidth-bound), deep (12 x 18). `flint bench --data` trains a forest
of --trees (24) at depth --depth (16) from --seed (0) unless --model
gives one. A flag that would have no effect is refused: --trees,
--depth and --classes with --shape; --trees, --depth and --seed with
--model.

`flint serve` speaks one request per line (CSV feature row or
{\"features\":[...]}; `stats` and `shutdown` commands) and answers one
JSON object per line. Over TCP (Linux) it is a readiness event loop
that also scores: one thread, thousands of idle connections, each
loop iteration scoring the rows that arrived in chunks of at most
--max-batch without waiting for more, explicit `busy` shedding past
--max-conns / --max-inflight. `--stdin` serves stdin/stdout on every
platform through the same scorer: the rows of each read score
together in chunks of at most --max-batch. `--trees A:B` serves only
that contiguous tree span — one shard of a sharded deployment.

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
                trees: None,
                depth: None,
                seed: None,
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
                addr: "127.0.0.1:7878".into(),
                max_conns: 16384,
                max_inflight: 1024,
                trees: None,
                stdin: false,
            }
        );
        let cmd = parse(&argv(
            "serve --model m.txt --engine quickscorer --max-batch 16 --addr 0.0.0.0:9000 \
             --max-conns 100 --max-inflight 32 --trees 0:12 --stdin",
        ))
        .expect("parses");
        assert_eq!(
            cmd,
            Command::Serve {
                model: "m.txt".into(),
                engine: "quickscorer".into(),
                max_batch: 16,
                addr: "0.0.0.0:9000".into(),
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
    fn parse_rejects_flags_the_subcommand_does_not_take() {
        let serve_flags =
            "(valid: --model --engine --max-batch --addr --max-conns --max-inflight --trees --stdin)";
        // The four flags `flint serve` used to take, and a typo.
        for key in [
            "front-end",
            "linger-us",
            "workers",
            "queue-depth",
            "max-inflght",
        ] {
            let err = parse(&argv(&format!("serve --model m.txt --stdin --{key} 3"))).unwrap_err();
            assert!(
                err.0
                    .contains(&format!("flint serve does not take --{key} {serve_flags}")),
                "{err}"
            );
        }
        let err = parse(&argv(
            "serve --model m.txt --stdin --max-inflght 3 --lingr-us 9",
        ))
        .unwrap_err();
        assert!(
            err.0
                .contains("does not take --lingr-us --max-inflght (valid:"),
            "{err}"
        );
        // A flag of another subcommand is just as unknown.
        let err = parse(&argv("train --data d.csv --classes 2 --backend flint")).unwrap_err();
        assert!(err.0.contains("does not take --backend"), "{err}");
        assert!(err.0.contains("--out"), "{err}");
        let err = parse(&argv("help --topic serve")).unwrap_err();
        assert!(err.0.contains("(valid: none)"), "{err}");
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
