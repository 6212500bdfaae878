//! **E10** — background update propagation (§2.3.6): commit returns as
//! soon as one copy is safe; other copies are "updated in background" by
//! pull, so there is a bounded staleness window which `settle` (the
//! propagation kernel process) closes. Also demonstrates the
//! pages-hint optimization: a small in-place change pulls only the
//! modified pages.
//!
//! Run with `cargo run -p locus-bench --bin e10_propagation`.
//! Writes `BENCH_e10.json` (honours `$BENCH_OUT_DIR`).

use locus::{OpenMode, SiteId, VvOrder};
use locus_bench::{standard_cluster, timed, BenchReport, RunTotals};
use locus_fs::ops::namei;
use locus_storage::PAGE_SIZE;
use locus_types::{MachineType, Ticks};

fn main() {
    let mut report = BenchReport::new("e10");
    let mut totals = RunTotals::new();
    println!("E10: commit-to-replica propagation (pull, §2.3.6)\n");
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "file size", "write", "commit", "queue wait", "propagate", "pull msgs", "stale window"
    );
    for pages in [1usize, 4, 16, 64] {
        let cluster = standard_cluster(3, &[0, 1]);
        let p = cluster.login(SiteId(0), 1).expect("login");
        let body = vec![0xABu8; pages * PAGE_SIZE];
        let fd = cluster.creat(p, "/big").expect("creat");
        // Delayed writes: the pages queue on the disk, and the commit
        // waits for them before the inode switch.
        let (_, t_write) = timed(&cluster, || cluster.write(p, fd, &body).expect("write"));

        // Commit at the local storage site: returns before replication.
        let (_, t_commit) = timed(&cluster, || cluster.close(p, fd).expect("close commits"));
        let queued = Ticks::micros(cluster.net().stats().wait_micros(SiteId(0)));
        let gfid = {
            let ctx = locus_fs::ProcFsCtx::new(
                cluster.fs().kernel(SiteId(0)).mount.root().unwrap(),
                MachineType::Vax,
            );
            namei::resolve(cluster.fs(), SiteId(0), &ctx, "/big").expect("resolve")
        };
        let stale = {
            let k = cluster.fs().kernel(SiteId(1));
            match k.local_info(gfid) {
                Some(i) => {
                    !i.vv
                        .covers(&cluster.fs().kernel(SiteId(0)).local_info(gfid).unwrap().vv)
                        || !k.stores_data(gfid)
                }
                None => true,
            }
        };

        // The background kernel process pulls the pages over.
        cluster.net().reset_stats();
        let (_, t_prop) = timed(&cluster, || cluster.settle());
        let pulls = cluster.net().stats().sends("READ req");
        let i0 = cluster.fs().kernel(SiteId(0)).local_info(gfid).unwrap();
        let i1 = cluster.fs().kernel(SiteId(1)).local_info(gfid).unwrap();
        assert_eq!(i0.vv.compare(&i1.vv), VvOrder::Equal, "replica converged");

        println!(
            "{:<14} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            format!("{} KiB", pages),
            t_write.to_string(),
            t_commit.to_string(),
            queued.to_string(),
            t_prop.to_string(),
            pulls,
            if stale { "observed" } else { "none" },
        );
        report
            .int(&format!("pages{pages}.write_us"), t_write.as_micros())
            .int(&format!("pages{pages}.commit_us"), t_commit.as_micros())
            .int(&format!("pages{pages}.propagate_us"), t_prop.as_micros())
            .int(&format!("pages{pages}.pull_msgs"), pulls);
        totals.absorb(&cluster);
    }

    // Incremental propagation: touch one page of a 64-page file; only
    // the modified page crosses the wire ("propagating in the entire file
    // or just the changes").
    let cluster = standard_cluster(3, &[0, 1]);
    let p = cluster.login(SiteId(0), 1).expect("login");
    let body = vec![0x11u8; 64 * PAGE_SIZE];
    cluster.write_file(p, "/incr", &body).expect("seed");
    cluster.settle();
    let fd = cluster.open(p, "/incr", OpenMode::Write).expect("open");
    cluster.lseek(p, fd, 17 * PAGE_SIZE as u64).expect("seek");
    cluster
        .write(p, fd, &vec![0x22u8; PAGE_SIZE])
        .expect("one page");
    cluster.close(p, fd).expect("commit");
    cluster.net().reset_stats();
    cluster.settle();
    let pulls = cluster.net().stats().sends("READ req");
    println!("\nincremental: 1 page changed of 64 -> {pulls} page pull(s) (\"just the changes\")");
    assert_eq!(pulls, 1);
    totals.absorb(&cluster);
    report.int("incremental_pull_msgs", pulls).totals(&totals);
    let path = report.write();
    println!("wrote {}", path.display());
}
