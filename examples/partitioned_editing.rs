//! Partitioned operation and dynamic merge (§4, §5): two halves of the
//! network keep working through a partition; at merge, directories union
//! automatically, one-sided updates propagate, and a genuine update
//! conflict is detected, reported by mail, and resolved with the §4.6
//! split tool.
//!
//! Run with `cargo run -p locus-examples --bin partitioned_editing`.

use locus::{Cluster, Errno, OpenMode, SiteId};
use locus_recovery::conflicts::split_conflict;

fn main() {
    let cluster = Cluster::builder()
        .vax_sites(4)
        .filegroup("root", &[0, 1])
        .build();
    let alice = cluster.login(SiteId(0), 501).expect("login alice");
    let bob = cluster.login(SiteId(1), 502).expect("login bob");

    cluster.mkdir(alice, "/proj").expect("mkdir");
    cluster
        .write_file(alice, "/proj/paper.tex", b"\\title{LOCUS}")
        .expect("seed file");
    cluster.settle();

    println!("--- the network partitions: {{0,3}} | {{1,2}} ---");
    cluster.partition(&[vec![SiteId(0), SiteId(3)], vec![SiteId(1), SiteId(2)]]);
    let r = cluster.reconfigure().expect("reconfigure");
    println!(
        "partition protocol found {} partitions ({} partition polls, {} merge polls)",
        r.partitions.len(),
        r.partition_polls,
        r.merge_polls
    );

    // Both sides keep editing — availability over blocking (§4.1).
    cluster
        .write_file(alice, "/proj/alice-notes", b"measured the open protocol")
        .expect("alice works");
    cluster
        .write_file(bob, "/proj/bob-notes", b"rewrote the merge section")
        .expect("bob works");
    // ...and both touch the same file: a genuine conflict in the making.
    cluster
        .write_file(
            alice,
            "/proj/paper.tex",
            b"\\title{LOCUS} % alice's revision",
        )
        .expect("alice edits paper");
    cluster
        .write_file(bob, "/proj/paper.tex", b"\\title{LOCUS} % bob's revision")
        .expect("bob edits paper");
    cluster.settle();

    println!("--- the network heals; merge + recovery run ---");
    cluster.heal();
    let r = cluster.reconfigure().expect("merge");
    println!(
        "merge protocol declared {} partition ({} partition polls, {} merge polls)",
        r.partitions.len(),
        r.partition_polls,
        r.merge_polls
    );
    for (fg, rr) in &r.recovery {
        println!(
            "filegroup {fg}: {} actions, {} conflicts",
            rr.actions(),
            rr.conflict_count()
        );
    }

    // Non-conflicting work merged cleanly — visible everywhere.
    for (who, path) in [(bob, "/proj/alice-notes"), (alice, "/proj/bob-notes")] {
        let text = cluster.read_file(who, path).expect("merged file");
        println!("{path}: {}", String::from_utf8_lossy(&text));
    }

    // The conflicted file refuses normal access (§4.6)...
    let err = cluster
        .open(alice, "/proj/paper.tex", OpenMode::Read)
        .expect_err("conflict blocks access");
    assert_eq!(err, Errno::Econflict);
    println!("/proj/paper.tex is conflict-marked: open fails with {err}");

    // ...the owner got mail...
    for m in cluster.mailbox_of(SiteId(0), 501).expect("mailbox") {
        println!("mail for alice: {m}");
    }

    // ...and the split tool turns each version back into a normal file.
    let ctx = locus_fs::ProcFsCtx::new(
        cluster.fs().kernel(SiteId(0)).mount.root().unwrap(),
        locus::MachineType::Vax,
    );
    let names =
        split_conflict(cluster.fs(), SiteId(0), &ctx, "/proj", "paper.tex").expect("split tool");
    cluster.settle();
    for n in &names {
        let body = cluster
            .read_file(alice, &format!("/proj/{n}"))
            .expect("split version");
        println!("recovered version {n}: {}", String::from_utf8_lossy(&body));
    }
}
