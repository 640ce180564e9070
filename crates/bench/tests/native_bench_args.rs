//! `native_bench` refuses list flags it cannot time: each bad
//! invocation prints the usage line and exits 2 before any C is
//! compiled.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_native_bench"))
        .args(args)
        .output()
        .expect("runs native_bench");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_list_flags_print_usage_and_exit_2() {
    for args in [
        &["--trees", "x"][..],
        &["--trees", "0"],
        &["--trees", "20,30"],
        &["--depths", "x"],
        &["--depths", ""],
        &["--depths", "5,"],
        &["--depths"],
        &["--depth", "5"],
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("usage: native_bench"),
            "{args:?}: {stderr}"
        );
    }
}
