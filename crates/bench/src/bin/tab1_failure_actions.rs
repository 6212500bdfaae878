//! **Table 1 (§5.6)** — the cleanup-procedure failure actions,
//! regenerated under the paper's three headings from *live* fault
//! injections, each row checked against the action the paper prints.
//!
//! Run with `cargo run -p locus-bench --bin tab1_failure_actions`; exits
//! non-zero if any row's observed behaviour disagrees with the paper's
//! action.

use std::process::ExitCode;

use locus::{Cluster, Errno, OpenMode, ProcError, Signal, SiteId, TxnState};

fn s(i: u32) -> SiteId {
    SiteId(i)
}

fn cluster() -> Cluster {
    Cluster::builder()
        .vax_sites(4)
        .filegroup("root", &[0, 1])
        .build()
}

fn main() -> ExitCode {
    // Rows whose live behaviour disagreed with the table.
    let mut failed = 0u32;
    let mut check = |name: &str, pass: bool| {
        println!("  [{}] {name}", if pass { "ok" } else { "FAIL" });
        failed += u32::from(!pass);
    };

    println!("Table 1 (§5.6) failure actions, one live fault injection per row:\n");

    println!("Local Resource in Use Remotely");
    // --- Local file open for update remotely → discard + abort ---
    {
        let c = cluster();
        let p0 = c.login(s(0), 1).unwrap();
        c.write_file(p0, "/f", b"committed").unwrap();
        c.settle();
        let w = c.login(s(3), 1).unwrap();
        let fd = c.open(w, "/f", OpenMode::Write).unwrap();
        c.write(w, fd, b"SCRATCH").unwrap();
        c.crash(s(3));
        let r = c.reconfigure().unwrap();
        let aborted: usize = r.cleanup.iter().map(|(_, cr)| cr.sessions_aborted).sum();
        let intact = c.read_file(p0, "/f").unwrap() == b"committed";
        check(
            "local file open for update remotely -> discard pages, abort updates",
            aborted == 1 && intact,
        );
    }

    // --- Local file open for read remotely → close file ---
    {
        let c = cluster();
        let p0 = c.login(s(0), 1).unwrap();
        c.write_file(p0, "/f", b"x").unwrap();
        let reader = c.login(s(3), 1).unwrap();
        let _fd = c.open(reader, "/f", OpenMode::Read).unwrap();
        c.crash(s(3));
        let r = c.reconfigure().unwrap();
        let closed: usize = r.cleanup.iter().map(|(_, cr)| cr.remote_opens_closed).sum();
        check(
            "local file open for read remotely -> close file",
            closed >= 1,
        );
    }

    println!("\nRemote Resource in Use Locally");
    // --- Remote file open for update locally → error in descriptor ---
    {
        let c = Cluster::builder()
            .vax_sites(2)
            .filegroup("root", &[0])
            .build();
        let w = c.login(s(1), 1).unwrap();
        c.write_file(w, "/f", b"v").unwrap();
        let fd = c.open(w, "/f", OpenMode::Write).unwrap();
        c.write(w, fd, b"lost").unwrap();
        c.crash(s(0));
        c.reconfigure().unwrap();
        let err = c.write(w, fd, b"more");
        check(
            "remote file open for update locally -> set error in descriptor",
            err == Err(Errno::Esitedown),
        );
    }

    // --- Remote file open for read locally → reopen at other site ---
    {
        let c = cluster();
        let p0 = c.login(s(0), 1).unwrap();
        c.write_file(p0, "/f", b"abcdefghij").unwrap();
        c.settle();
        let reader = c.login(s(3), 1).unwrap();
        let fd = c.open(reader, "/f", OpenMode::Read).unwrap();
        let _ = c.read(reader, fd, 5).unwrap();
        c.crash(s(0));
        c.reconfigure().unwrap();
        let rest = c.read(reader, fd, 64);
        check(
            "remote file open for read locally -> reopen at other site",
            rest.as_deref() == Ok(b"fghij"),
        );
    }

    println!("\nInteracting Processes");
    // --- Remote fork/exec, remote site fails → error to caller ---
    {
        let c = cluster();
        let p0 = c.login(s(0), 1).unwrap();
        c.crash(s(2));
        let err = c.fork(p0, Some(s(2)));
        check(
            "remote fork, remote site fails -> return error to caller",
            err == Err(Errno::Esitedown),
        );
    }

    // --- Fork/exec, calling site fails → notify process ---
    {
        let c = cluster();
        let p0 = c.login(s(0), 1).unwrap();
        let child = c.fork(p0, Some(s(1))).unwrap();
        c.crash(s(0));
        c.reconfigure().unwrap();
        let info = c.err_info(child).unwrap();
        let sig = c.signals(child).unwrap();
        check(
            "fork, calling site fails -> notify process",
            info == Some(ProcError::ParentSiteFailed { site: s(0) })
                && sig.contains(&Signal::Sighup),
        );
    }

    // --- Distributed transaction → abort subtransactions in partition ---
    {
        let c = cluster();
        let p0 = c.login(s(0), 1).unwrap();
        c.write_file(p0, "/t", b"base").unwrap();
        c.settle();
        let top = c.txn_begin(p0).unwrap();
        let sub = c.txn_sub(top, s(2)).unwrap();
        c.txn_write(sub, p0, "/t", b"tentative").unwrap();
        c.partition(&[vec![s(0), s(1)], vec![s(2), s(3)]]);
        let r = c.reconfigure().unwrap();
        check(
            "distributed transaction -> abort related subtransactions in partition",
            r.txns_aborted == 1 && c.txns().state(sub).unwrap() == TxnState::Aborted,
        );
    }

    if failed > 0 {
        eprintln!("tab1_failure_actions: {failed} row(s) FAILED");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
