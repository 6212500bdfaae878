//! **E5** — the reconciliation matrix (§4.2–§4.6): every
//! partitioned-update scenario the paper discusses, run live, with the
//! recovery outcome observed.
//!
//! Run with `cargo run -p locus-bench --bin e5_reconciliation`.
//! Writes `BENCH_e5.json` (honours `$BENCH_OUT_DIR`).

use locus::{Cluster, FileOutcome, SiteId};
use locus_bench::{BenchReport, RunTotals};

fn s(i: u32) -> SiteId {
    SiteId(i)
}

fn fresh() -> (Cluster, locus::Pid, locus::Pid) {
    let c = Cluster::builder()
        .vax_sites(4)
        .filegroup("root", &[0, 1])
        .build();
    let pa = c.login(s(0), 10).expect("login");
    let pb = c.login(s(1), 11).expect("login");
    (c, pa, pb)
}

fn split(c: &Cluster) {
    c.partition(&[vec![s(0), s(3)], vec![s(1), s(2)]]);
    c.reconfigure().expect("reconfig");
    // Recovery decides and notifies; the pulls it queued run in the
    // background, and the totals include them.
    c.settle();
}

/// The merge steps' recovery-inventory traffic, requests plus replies.
#[derive(Default)]
struct InventoryTraffic {
    msgs: u64,
    bytes: u64,
}

/// Heals and runs the merge reconfiguration, adding its inventory
/// traffic to `inv`.
fn merge_report(c: &Cluster, inv: &mut InventoryTraffic) -> locus::ReconfigReport {
    c.heal();
    let before = c.net().stats();
    let r = c.reconfigure().expect("merge");
    let after = c.net().stats();
    for kind in ["RECOVERY inventory", "RECOVERY inventory resp"] {
        inv.msgs += after.sends(kind) - before.sends(kind);
        inv.bytes += after.bytes(kind) - before.bytes(kind);
    }
    c.settle();
    r
}

fn merge(c: &Cluster, inv: &mut InventoryTraffic) -> Vec<(locus::Gfid, FileOutcome)> {
    merge_report(c, inv)
        .recovery
        .into_iter()
        .flat_map(|(_, rr)| rr.files)
        .collect()
}

fn count(outcomes: &[(locus::Gfid, FileOutcome)], o: FileOutcome) -> usize {
    outcomes.iter().filter(|(_, x)| *x == o).count()
}

fn main() {
    let mut report = BenchReport::new("e5");
    let mut totals = RunTotals::new();
    let mut inv = InventoryTraffic::default();
    println!("E5: partitioned-update reconciliation matrix\n");
    println!("{:<52} {:<20}", "scenario", "observed outcome");

    // 1. Update in one partition only.
    {
        let (c, pa, _) = fresh();
        c.write_file(pa, "/f", b"base").unwrap();
        c.settle();
        split(&c);
        c.write_file(pa, "/f", b"new").unwrap();
        c.settle();
        let out = merge(&c, &mut inv);
        println!(
            "{:<52} {:<20}",
            "modify in A only",
            format!(
                "{} propagated, {} conflicts",
                count(&out, FileOutcome::Propagated),
                count(&out, FileOutcome::ConflictMarked)
            )
        );
        report.int(
            "one_side_propagated",
            count(&out, FileOutcome::Propagated) as u64,
        );
        totals.absorb(&c);
    }
    // 2. Update in both partitions (untyped file).
    {
        let (c, pa, pb) = fresh();
        c.write_file(pa, "/f", b"base").unwrap();
        c.settle();
        split(&c);
        c.write_file(pa, "/f", b"A").unwrap();
        c.write_file(pb, "/f", b"B").unwrap();
        c.settle();
        let out = merge(&c, &mut inv);
        println!(
            "{:<52} {:<20}",
            "modify in A and B (untyped)",
            format!(
                "{} conflict-marked",
                count(&out, FileOutcome::ConflictMarked)
            )
        );
        report.int(
            "both_sides_conflicts",
            count(&out, FileOutcome::ConflictMarked) as u64,
        );
        totals.absorb(&c);
    }
    // 3. Independent creates: directory union.
    {
        let (c, pa, pb) = fresh();
        split(&c);
        c.write_file(pa, "/only-a", b"A").unwrap();
        c.write_file(pb, "/only-b", b"B").unwrap();
        c.settle();
        let out = merge(&c, &mut inv);
        println!(
            "{:<52} {:<20}",
            "create different names in A and B",
            format!(
                "{} dirs merged, 0 conflicts={}",
                count(&out, FileOutcome::DirectoryMerged),
                count(&out, FileOutcome::ConflictMarked) == 0
            )
        );
        report.int(
            "dirs_merged",
            count(&out, FileOutcome::DirectoryMerged) as u64,
        );
        totals.absorb(&c);
    }
    // 4. Same name created in both partitions.
    {
        let (c, pa, pb) = fresh();
        split(&c);
        c.write_file(pa, "/x", b"A's x").unwrap();
        c.write_file(pb, "/x", b"B's x").unwrap();
        c.settle();
        let r = merge_report(&c, &mut inv);
        let renames: usize = r
            .recovery
            .iter()
            .map(|(_, rr)| rr.name_conflicts.len())
            .sum();
        println!(
            "{:<52} {:<20}",
            "same new name in A and B",
            format!("{renames} name conflict(s) renamed + mailed")
        );
        report.int("name_conflicts_renamed", renames as u64);
        totals.absorb(&c);
    }
    // 5. Delete in one partition.
    {
        let (c, pa, _) = fresh();
        c.write_file(pa, "/dead", b"x").unwrap();
        c.settle();
        split(&c);
        c.unlink(pa, "/dead").unwrap();
        c.settle();
        let out = merge(&c, &mut inv);
        println!(
            "{:<52} {:<20}",
            "delete in A, untouched in B",
            format!(
                "{} delete propagated",
                count(&out, FileOutcome::DeletePropagated).min(1)
            )
        );
        report.int(
            "deletes_propagated",
            count(&out, FileOutcome::DeletePropagated).min(1) as u64,
        );
        totals.absorb(&c);
    }
    // 6. Delete in A, modify in B: the file wants to be saved.
    {
        let (c, pa, pb) = fresh();
        c.write_file(pa, "/save", b"v1").unwrap();
        c.settle();
        split(&c);
        c.unlink(pa, "/save").unwrap();
        c.write_file(pb, "/save", b"v2").unwrap();
        c.settle();
        let out = merge(&c, &mut inv);
        println!(
            "{:<52} {:<20}",
            "delete in A, modify in B",
            format!("{} resurrected", count(&out, FileOutcome::Resurrected))
        );
        report.int("resurrected", count(&out, FileOutcome::Resurrected) as u64);
        totals.absorb(&c);
    }
    // 7. Mail in both partitions.
    {
        let (c, _, _) = fresh();
        let admin = c.login(s(0), 0).unwrap();
        c.mkdir(admin, "/mail").unwrap();
        locus_fs::ops::namei::deliver_mail(c.fs(), s(0), 5, "before split").unwrap();
        c.settle();
        split(&c);
        locus_fs::ops::namei::deliver_mail(c.fs(), s(0), 5, "from A").unwrap();
        locus_fs::ops::namei::deliver_mail(c.fs(), s(1), 5, "from B").unwrap();
        c.settle();
        let out = merge(&c, &mut inv);
        let msgs = c.mailbox_of(s(2), 5).unwrap();
        println!(
            "{:<52} {:<20}",
            "mail delivered in A and B",
            format!(
                "{} mailbox merged, {} messages",
                count(&out, FileOutcome::MailboxMerged),
                msgs.len()
            )
        );
        report
            .int(
                "mailboxes_merged",
                count(&out, FileOutcome::MailboxMerged) as u64,
            )
            .int("mail_messages", msgs.len() as u64);
        totals.absorb(&c);
    }
    println!(
        "\nrecovery inventory over the seven merges: {} msgs, {} bytes",
        inv.msgs, inv.bytes
    );
    report
        .int("recovery_inventory_msgs", inv.msgs)
        .int("recovery_inventory_bytes", inv.bytes);
    report.totals(&totals);
    let path = report.write();
    println!("\npaper: §4.2 (detection), §4.4 (directories), §4.5 (mailboxes), §4.6 (conflicts).");
    println!("wrote {}", path.display());
}
