//! The `paper` binary's command line: the ways it refuses to run.

use std::process::{Command, Output};

fn paper(id: &str, env: &[(&str, &str)]) -> Output {
    let mut command = Command::new(env!("CARGO_BIN_EXE_paper"));
    command.arg(id);
    for &(name, value) in env {
        command.env(name, value);
    }
    command.output().expect("run paper")
}

#[test]
fn an_unknown_id_lists_the_valid_ones_and_fails() {
    let out = paper("table99", &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(
        stderr.contains("table02") && stderr.contains("fig09_11"),
        "{stderr}"
    );
}

#[test]
fn a_malformed_scale_fails_naming_the_variable() {
    let out = paper("table02", &[("SUDOWOODO_SCALE", "O.5")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains("SUDOWOODO_SCALE"), "{stderr}");
}
