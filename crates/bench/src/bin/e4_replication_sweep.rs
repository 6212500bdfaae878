//! **E4** — availability and read performance vs. replication factor
//! (§2.2.1): "multiple copies of data resources provide the opportunity
//! for substantially increased availability … although the situation is
//! more complex when update is desired" — under a policy that forbids
//! partitioned update, availability *decreases* with replication, which
//! is exactly why LOCUS allows update in every partition (§4.1).
//!
//! Sweeps replication factor 1..=4 on a 6-site network under random
//! two-way partitions and reports: read availability, LOCUS update
//! availability (update allowed in any partition holding a copy), and
//! single-primary update availability (the rejected design).
//!
//! Run with `cargo run -p locus-bench --bin e4_replication_sweep`.
//! Writes `BENCH_e4.json` (honours `$BENCH_OUT_DIR`).

use locus::{Cluster, OpenMode, SiteId};
use locus_bench::{BenchReport, RunTotals};
use locus_net::SimRng;

const SITES: u32 = 6;
const TRIALS: u32 = 200;

fn main() {
    let mut report = BenchReport::new("e4");
    let mut totals = RunTotals::new();
    println!(
        "E4: availability vs replication factor ({SITES} sites, {TRIALS} random partitions)\n"
    );
    println!(
        "{:<8} {:>10} {:>14} {:>16} {:>12}",
        "copies", "read avail", "LOCUS update", "primary update", "read msgs"
    );
    for copies in 1..=4u32 {
        let containers: Vec<u32> = (0..copies).collect();
        let cluster = Cluster::builder()
            .vax_sites(SITES as usize)
            .filegroup("root", &containers)
            .build();
        let admin = cluster.login(SiteId(0), 1).expect("login");
        cluster.write_file(admin, "/f", b"payload").expect("seed");
        cluster.settle();

        let mut rng = SimRng::seed_from_u64(42 + copies as u64);
        let mut read_ok = 0u32;
        let mut locus_update_ok = 0u32;
        let mut primary_update_ok = 0u32;
        let mut read_msgs = 0u64;

        for _ in 0..TRIALS {
            // A random bisection; the observer is a random site.
            let mask: u64 = rng.gen_range(1..(1u64 << SITES) - 1);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for i in 0..SITES {
                if mask & (1 << i) != 0 {
                    a.push(SiteId(i));
                } else {
                    b.push(SiteId(i));
                }
            }
            let observer = SiteId(rng.gen_range(0..SITES));
            cluster.partition(&[a.clone(), b.clone()]);
            cluster.reconfigure().expect("reconfig");
            // Recovery decides and notifies; the pulls it queued run in
            // the background, as any commit's do.
            cluster.settle();

            let p = cluster.login(observer, 1).expect("login");
            let before = cluster.net().stats().total_sends();
            let readable = cluster
                .open(p, "/f", OpenMode::Read)
                .map(|fd| {
                    let _ = cluster.read(p, fd, 16);
                    let _ = cluster.close(p, fd);
                })
                .is_ok();
            if readable {
                read_ok += 1;
                read_msgs += cluster.net().stats().total_sends() - before;
            }
            // LOCUS policy: update anywhere a copy is reachable.
            let writable = cluster
                .open(p, "/f", OpenMode::Write)
                .map(|fd| {
                    let _ = cluster.write(p, fd, b"update!");
                    let _ = cluster.close(p, fd);
                })
                .is_ok();
            if writable {
                locus_update_ok += 1;
            }
            // Single-primary policy: update only in the partition holding
            // pack 0's site.
            let my_side = if a.contains(&observer) { &a } else { &b };
            if writable && my_side.contains(&SiteId(0)) {
                primary_update_ok += 1;
            }

            cluster.heal();
            cluster.reconfigure().expect("merge");
            cluster.settle();
        }

        let pct = |n: u32| 100.0 * n as f64 / TRIALS as f64;
        println!(
            "{:<8} {:>9.1}% {:>13.1}% {:>15.1}% {:>12.1}",
            copies,
            pct(read_ok),
            pct(locus_update_ok),
            pct(primary_update_ok),
            read_msgs as f64 / read_ok.max(1) as f64,
        );
        report
            .float(&format!("copies{copies}.read_avail_pct"), pct(read_ok))
            .float(
                &format!("copies{copies}.locus_update_pct"),
                pct(locus_update_ok),
            )
            .float(
                &format!("copies{copies}.primary_update_pct"),
                pct(primary_update_ok),
            );
        totals.absorb(&cluster);
    }
    report.totals(&totals);
    let path = report.write();
    println!();
    println!("paper: read availability rises with copies; a single-primary");
    println!("update policy *loses* availability as copies grow, which is why");
    println!("LOCUS permits update in every partition and reconciles at merge.");
    println!("wrote {}", path.display());
}
