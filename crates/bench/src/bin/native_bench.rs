//! The paper's actual host experiment: **compile the generated if-else
//! trees with the system C compiler and time the binaries**.
//!
//! This is the faithful reproduction of the Fig. 3 measurement setup —
//! gcc-compiled nested if-else blocks where naive trees load float
//! constants from data memory and FLInt trees carry integer immediates
//! in the instruction stream. (`flint bench` times the registry's flat
//! array *interpreters*, which deliberately equalize the two memory
//! paths; this harness measures the real codegen artifact.)
//!
//! ```text
//! cargo run -p flint-bench --release --bin native_bench [-- --depths 5,20 --trees 20]
//! ```
//!
//! `--depths` takes a non-empty comma list and `--trees` one number
//! ≥ 1; anything else prints the usage line and exits 2. Requires a C
//! compiler (`cc`) on PATH; exits with a note otherwise.

use flint_codegen::c_emitter::{c_float_literal, emit_forest_c, CVariant};
use flint_data::train_test_split;
use flint_data::uci::{Scale, UciDataset};
use flint_data::Dataset;
use flint_forest::{ForestConfig, RandomForest};
use std::io::Write as _;
use std::process::Command;

fn have_cc() -> bool {
    Command::new("cc")
        .arg("--version")
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

/// Emits, compiles and runs a timing binary; returns ns per inference.
fn time_c_forest(forest: &RandomForest, variant: CVariant, test: &Dataset, reps: usize) -> f64 {
    let dir = std::env::temp_dir().join(format!(
        "flint_native_bench_{}_{}",
        std::process::id(),
        variant.suffix()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let src = dir.join("bench.c");
    let bin = dir.join("bench_bin");

    let mut source = emit_forest_c(forest, variant);
    source.push_str("\n#include <stdio.h>\n#include <time.h>\n");
    source.push_str(&format!(
        "static const float inputs[{}][{}] = {{\n",
        test.n_samples(),
        forest.n_features()
    ));
    for i in 0..test.n_samples() {
        let cells: Vec<String> = test.sample(i).iter().map(|&v| c_float_literal(v)).collect();
        source.push_str(&format!("    {{{}}},\n", cells.join(", ")));
    }
    source.push_str("};\n");
    source.push_str(&format!(
        r#"
int main(void) {{
    volatile unsigned int sink = 0;
    struct timespec t0, t1;
    clock_gettime(CLOCK_MONOTONIC, &t0);
    for (int r = 0; r < {reps}; ++r) {{
        for (int i = 0; i < {n}; ++i) {{
            sink += predict_forest_{suffix}(inputs[i]);
        }}
    }}
    clock_gettime(CLOCK_MONOTONIC, &t1);
    double ns = (t1.tv_sec - t0.tv_sec) * 1e9 + (t1.tv_nsec - t0.tv_nsec);
    printf("%.2f\n", ns / ((double){reps} * {n}));
    return sink == 0xffffffffu; /* keep sink alive */
}}
"#,
        reps = reps,
        n = test.n_samples(),
        suffix = variant.suffix()
    ));
    std::fs::File::create(&src)
        .and_then(|mut f| f.write_all(source.as_bytes()))
        .expect("write source");

    let compile = Command::new("cc")
        .args(["-O2", "-o"])
        .arg(&bin)
        .arg(&src)
        .output()
        .expect("invoke cc");
    assert!(
        compile.status.success(),
        "cc failed:\n{}",
        String::from_utf8_lossy(&compile.stderr)
    );
    let run = Command::new(&bin).output().expect("run binary");
    assert!(run.status.success(), "generated binary failed");
    let _ = std::fs::remove_dir_all(&dir);
    String::from_utf8_lossy(&run.stdout)
        .trim()
        .parse()
        .expect("ns value")
}

const USAGE: &str = "usage: native_bench [--depths D,D,...] [--trees N]";

/// Parses `--depths` (a non-empty comma list) and `--trees` (one
/// number ≥ 1) over their defaults; `None` for anything else.
fn parse_args(args: &[String]) -> Option<(Vec<usize>, usize)> {
    let mut depths = vec![1, 5, 10, 20, 30];
    let mut trees = 20;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next()?;
        match flag.as_str() {
            "--depths" => {
                depths = value
                    .split(',')
                    .map(|d| d.parse().ok())
                    .collect::<Option<_>>()?
            }
            "--trees" => trees = value.parse().ok().filter(|&n| n >= 1)?,
            _ => return None,
        }
    }
    Some((depths, trees))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((depths, trees)) = parse_args(&args) else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    if !have_cc() {
        eprintln!("native_bench requires a C compiler (cc) on PATH — skipping");
        return;
    }

    let data = UciDataset::Magic.generate(Scale::Small);
    let split = train_test_split(&data, 0.25, 42);
    println!(
        "HOST NATIVE CODEGEN BENCH (cc -O2 compiled if-else trees, {} trees, {} test samples)",
        trees,
        split.test.n_samples()
    );
    println!(
        "{:<6} {:>14} {:>14} {:>12}",
        "depth", "naive ns/inf", "flint ns/inf", "normalized"
    );
    for &depth in &depths {
        let forest = RandomForest::fit(&split.train, &ForestConfig::grid(trees, depth))
            .expect("synthetic data trains");
        let reps = (2_000_000 / split.test.n_samples()).clamp(10, 5000);
        let naive = time_c_forest(&forest, CVariant::Standard, &split.test, reps);
        let flint = time_c_forest(&forest, CVariant::Flint, &split.test, reps);
        println!(
            "{:<6} {:>14.1} {:>14.1} {:>11.3}x",
            depth,
            naive,
            flint,
            flint / naive
        );
    }
}
