//! The two figure binaries print byte-identical output to the files
//! checked in under `tests/golden/` (captured from `fig1_syscall_trace`
//! and `fig2_open_protocol`): the simulation is deterministic, so any
//! difference is a change in message order, size, virtual time or
//! rendering.

use std::process::Command;

fn assert_stdout_matches(exe: &str, golden: &str) {
    let out = Command::new(exe).output().expect("figure binary runs");
    assert!(out.status.success(), "{exe} exited with {}", out.status);
    let got = String::from_utf8(out.stdout).expect("figure output is UTF-8");
    assert_eq!(got, golden, "{exe} no longer prints the golden figure");
}

#[test]
fn fig1_syscall_trace_matches_golden() {
    assert_stdout_matches(
        env!("CARGO_BIN_EXE_fig1_syscall_trace"),
        include_str!("golden/fig1_syscall_trace.txt"),
    );
}

#[test]
fn fig2_open_protocol_matches_golden() {
    assert_stdout_matches(
        env!("CARGO_BIN_EXE_fig2_open_protocol"),
        include_str!("golden/fig2_open_protocol.txt"),
    );
}
