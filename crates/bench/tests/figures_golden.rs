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
    if got == golden {
        return;
    }
    // Name the first line that differs, so a re-pin can be reviewed from
    // the log alone (a missing line shows as `<end of output>`).
    let (mut g, mut w) = (got.lines(), golden.lines());
    let mut line = 1;
    loop {
        let (got, want) = (g.next(), w.next());
        assert!(
            got == want && got.is_some(),
            "{exe} no longer prints the golden figure; first difference at line {line}:\n   got: {}\n  want: {}",
            got.unwrap_or("<end of output>"),
            want.unwrap_or("<end of output>"),
        );
        line += 1;
    }
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
