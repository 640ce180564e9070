//! The repository's benchmark: FLInt batch scoring, single-node
//! serving and sharded routing, end to end and per layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <score-magic|serve-magic|route-ranking> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Prints `# ` report lines, then one JSON object as the last line:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs carry
//! every end-to-end metric, traced runs every per-layer metric. See
//! `perfbench/README.md` for what each workload and metric is for.

mod child;
mod forests;
mod layers;
mod loadgen;
mod report;
mod stats;
mod sys;
mod trace;
mod workloads;

use report::Report;
use std::io;
use std::path::PathBuf;
use workloads::System;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["score-magic", "serve-magic", "route-ranking"];

/// End-to-end metrics, printed by every untraced run, each with what
/// it measures on each workload.
pub const END_TO_END: [(&str, &str); 10] = [
    (
        "setup_s",
        "all: model read to first correct answer, median of 20 fresh systems",
    ),
    ("mem_mb", "all: peak RSS of the process(es) under test"),
    (
        "rows_per_s.naive-blocked",
        "all: predict_matrix rows/s, best pass, workload's forest",
    ),
    (
        "rows_per_s.flint-blocked",
        "all: predict_matrix rows/s, best pass, workload's forest",
    ),
    (
        "rows_per_s.simd",
        "all: predict_matrix rows/s, best pass, workload's forest",
    ),
    (
        "rows_per_s.simd-f16",
        "all: predict_matrix rows/s, best pass, workload's forest",
    ),
    (
        "p50_us.light",
        "serve/route: client p50 at 2k req/s; score: 1-row request scoring",
    ),
    (
        "p50_us.heavy",
        "serve: 10k, route: 5k req/s; score: 3-row request scoring",
    ),
    (
        "cpu_us_per_req.light",
        "serve/route: system CPU per answer; score: CPU per row",
    ),
    (
        "cpu_us_per_req.heavy",
        "serve/route: system CPU per answer; score: CPU per row",
    ),
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"))
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("child") {
        std::process::exit(child::main(&argv[1..]));
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let dir = PathBuf::from("perfbench/out").join(format!("run-{}", std::process::id()));
    let mut report = Report::default();
    let result = run(&args, &dir, &mut report);
    let _ = std::fs::remove_dir_all(&dir);
    // A run that stopped early still reports what it found, marked
    // incorrect, and exits non-zero.
    if let Err(e) = &result {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        report.fail(format!("run stopped: {e}"));
    }
    let names: Vec<(String, String)> = if args.trace {
        layers::per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, d)| ((*n).to_owned(), (*d).to_owned()))
            .collect()
    };
    if let Err(e) = report.print(&names, &mut io::stdout().lock()) {
        eprintln!("perfbench: cannot print the result: {e}");
        std::process::exit(1);
    }
    if result.is_err() {
        std::process::exit(1);
    }
}

/// Where the run came from and what it ran on.
fn provenance(args: &Args, report: &mut Report) {
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    report.note(format!(
        "run workload={} seed={} seconds={} trace={} git_rev={rev} nproc={} kernel_caps={} \
         FLINT_KERNEL={} expected_kernel.simd={} expected_kernel.simd-f16={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        flint_exec::KernelCaps::get().summary(),
        std::env::var(flint_exec::KERNEL_ENV).unwrap_or_else(|_| "unset".to_owned()),
        workloads::expected_kernel("simd"),
        workloads::expected_kernel("simd-f16"),
    ));
}

fn run(args: &Args, dir: &std::path::Path, report: &mut Report) -> io::Result<()> {
    provenance(args, report);
    if args.trace {
        return layers::profile(&args.workload, args.seed, dir, report);
    }
    let bench = if args.workload == "route-ranking" {
        forests::ranking(args.seed)
    } else {
        forests::magic(args.seed)
    };
    let staged = workloads::stage(&bench, dir)?;
    report.note(bench.describe(staged.model_bytes));
    match args.workload.as_str() {
        "score-magic" => workloads::score_magic(&staged, args.seconds, report),
        "serve-magic" => workloads::serving(System::Serve, &bench, &staged, args.seconds, report),
        _ => workloads::serving(System::Route, &bench, &staged, args.seconds, report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(section: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let start = text.find(&format!("\"{section}\"")).expect("section");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("closing bracket")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("quote")].to_owned())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect();
        assert_eq!(names_in("end_to_end"), e2e);
        let layer: Vec<String> = layers::per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names_in("per_layer"), layer);
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| (*w).to_owned()).collect();
        assert_eq!(names_in("workloads"), workloads);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload serve-magic --seed 7 --seconds 3 --trace 1",
        ))
        .expect("parses");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-magic", 7, 3, true)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload score-magic --seed x")).is_err());
    }
}
