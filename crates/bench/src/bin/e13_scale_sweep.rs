//! **E13** — scale sweep: sharded synchronization with adaptive CSS
//! placement vs. the paper's single-filegroup layout, 2 → 512 sites.
//!
//! §2.3.1 pins one current synchronization site per filegroup, so a
//! single-filegroup namespace serializes every open at one CSS no matter
//! how large the network grows. The mount mechanism (§2.1) already glues
//! an arbitrary forest of filegroups into one tree, so the scalable
//! layout needs no new protocol: shard the namespace across filegroups,
//! give each shard more than one container, and let the adaptive
//! placement driver ([`locus_fs::PlacementDriver`]) migrate CSS roles
//! off hot sites as the load picture develops.
//!
//! The sweep drives both layouts with an identical open-loop workload —
//! every site repeatedly opens and reads its home file, and every eighth
//! round stats the shared root — and reports, per site count:
//!
//! * messages per open (wire cost of synchronization);
//! * aggregate throughput: total opens divided by the busiest site's
//!   consumed CPU time, i.e. opens per *bottleneck* second — the honest
//!   scale metric, since the bottleneck site is what saturates first;
//! * per-site CSS request-queue depth (the site load of the placement
//!   driver's last report) and cumulative handoffs.
//!
//! The knee of the sharded curve — the smallest site count whose
//! throughput is within 90% of the sweep's peak — lands in the report
//! as `knee_sites`.
//!
//! The default sweep is the sparse CI smoke grid `[2, 8, 64, 512]`;
//! set `BENCH_E13_FULL=1` for the dense grid. Run with
//! `cargo run --release -p locus-bench --bin e13_scale_sweep`. Writes
//! `BENCH_e13.json` and `TRACE_e13.jsonl` (honours `$BENCH_OUT_DIR`).

use std::collections::BTreeMap;

use locus::{Cluster, OpenMode, Pid, SiteId};
use locus_bench::BenchReport;
use locus_fs::{PlacementPolicy, PlacementReport};
use locus_topology::PlacementConfig;

/// Open/read/close rounds per site in the measured window.
const ROUNDS: u64 = 8;
/// Every STAT_EVERY-th round each site also stats the shared root — the
/// cross-shard traffic that eventually bounds scaling.
const STAT_EVERY: u64 = 8;
/// Shard-count cap: beyond this, additional sites share shards.
const MAX_SHARDS: u32 = 32;
/// Home-file payload (one block).
const PAYLOAD: &[u8] = &[0x6c; 64];

fn sweep_points() -> Vec<u32> {
    if std::env::var("BENCH_E13_FULL").as_deref() == Ok("1") {
        vec![2, 4, 8, 16, 24, 32, 48, 64, 96, 128, 256, 512]
    } else {
        vec![2, 8, 64, 512]
    }
}

fn shard_count(sites: u32) -> u32 {
    sites.min(MAX_SHARDS)
}

/// Builds one sweep point. The sharded layout starts every shard's CSS
/// on site 0 — the worst case — so the measured window includes the
/// placement driver discovering the hot spot and spreading the roles.
fn build(sites: u32, sharded: bool) -> Cluster {
    let mut b = Cluster::builder()
        .vax_sites(sites as usize)
        .blocks_per_pack(2048)
        .inos_per_fg(2048)
        .filegroup("root", &[0]);
    if sharded {
        for k in 0..shard_count(sites) {
            // First container (where creates land) is the shard's own
            // site; site 0 is the second container purely so every
            // shard can *start* its CSS there.
            let dedicated = 1 + (k % (sites - 1));
            b = b
                .filegroup_mounted(&format!("s{k}"), &[dedicated, 0], &format!("/s{k}"))
                .css_at(0);
        }
    }
    let cluster = b.build();
    cluster
        .net()
        .enable_health(locus_net::HealthPolicy::default());
    cluster.enable_placement(PlacementPolicy {
        config: PlacementConfig {
            hysteresis_pct: 25,
            min_load: 2,
        },
        max_moves_per_step: MAX_SHARDS as usize,
        ..Default::default()
    });
    cluster
}

/// Logs one user in per site, moves it into its home shard and seeds
/// its home file.
fn seed(cluster: &Cluster, sites: u32, sharded: bool) -> Vec<Pid> {
    let k_shards = shard_count(sites);
    let pids: Vec<Pid> = (0..sites)
        .map(|i| {
            let pid = cluster.login(SiteId(i), 1).expect("login");
            if sharded {
                cluster
                    .chdir(pid, &format!("/s{}", i % k_shards))
                    .expect("chdir into home shard");
            }
            cluster
                .write_file(pid, &format!("f{i}"), PAYLOAD)
                .expect("seed home file");
            pid
        })
        .collect();
    cluster.settle();
    pids
}

struct RunStats {
    msgs_per_op: f64,
    /// Opens per second of the busiest site's CPU time.
    tput: f64,
    migrations: u64,
    /// Per-site CSS queue depth: served requests in the last sampling
    /// window, from the driver's last report.
    depth: BTreeMap<SiteId, u64>,
    /// The deepest of those queues.
    depth_max: u64,
    depth_site: Option<SiteId>,
}

/// The measured window: ROUNDS open/read/close per site with a balance
/// step after every round.
fn run(cluster: &Cluster, pids: &[Pid]) -> RunStats {
    cluster.net().reset_stats();
    let mut last = PlacementReport::default();
    for r in 0..ROUNDS {
        for (i, &pid) in pids.iter().enumerate() {
            let fd = cluster
                .open(pid, &format!("f{i}"), OpenMode::Read)
                .expect("open home file");
            let data = cluster.read(pid, fd, PAYLOAD.len()).expect("read");
            assert_eq!(data.len(), PAYLOAD.len(), "home file intact");
            cluster.close(pid, fd).expect("close");
            if (r + 1) % STAT_EVERY == 0 {
                cluster.stat(pid, "/").expect("stat shared root");
            }
        }
        last = cluster.balance_css();
    }
    cluster.settle();
    let stats = cluster.net().stats();
    let ops = pids.len() as u64 * ROUNDS;
    let depth = last.site_load;
    let (depth_site, depth_max) = (0..pids.len() as u32)
        .map(|s| (SiteId(s), depth.get(&SiteId(s)).copied().unwrap_or(0)))
        .max_by_key(|&(s, d)| (d, std::cmp::Reverse(s)))
        .map(|(s, d)| (Some(s), d))
        .unwrap_or((None, 0));
    RunStats {
        msgs_per_op: stats.total_sends() as f64 / ops as f64,
        tput: ops as f64 * 1e6 / stats.max_busy_micros().max(1) as f64,
        migrations: cluster.placement_migrations(),
        depth,
        depth_max,
        depth_site,
    }
}

/// Prints the per-site synchronization picture: the five busiest sites
/// by CSS queue depth, with their consumed CPU time.
fn depth_table(cluster: &Cluster, sites: u32, depth: &BTreeMap<SiteId, u64>) {
    let stats = cluster.net().stats();
    let mut rows: Vec<(SiteId, u64, u64)> = (0..sites)
        .map(|s| {
            let site = SiteId(s);
            (
                site,
                depth.get(&site).copied().unwrap_or(0),
                stats.busy_micros(site),
            )
        })
        .collect();
    rows.sort_by_key(|&(s, d, _)| (std::cmp::Reverse(d), s));
    println!("    {:<8} {:>10} {:>12}", "site", "css depth", "busy us");
    for &(site, depth, busy) in rows.iter().take(5) {
        println!("    {:<8} {:>10} {:>12}", site.to_string(), depth, busy);
    }
}

fn main() {
    let mut report = BenchReport::new("e13");
    let points = sweep_points();
    println!(
        "E13: scale sweep {:?} sites, single filegroup vs {MAX_SHARDS}-way sharded + adaptive CSS placement\n",
        points
    );
    println!(
        "{:>6} {:>12} {:>12} {:>8} {:>12} {:>12} {:>10} {:>10}",
        "sites",
        "single t/s",
        "sharded t/s",
        "ratio",
        "single m/op",
        "sharded m/op",
        "handoffs",
        "max depth"
    );

    let mut sharded_tputs: Vec<(u32, f64)> = Vec::new();
    let mut ratio_at_64 = None;
    for &sites in &points {
        let single = build(sites, false);
        let pids = seed(&single, sites, false);
        let s = run(&single, &pids);
        drop(single);

        let sharded = build(sites, true);
        if sites == 64 {
            sharded.net().set_observing(true);
        }
        let pids = seed(&sharded, sites, true);
        let h = run(&sharded, &pids);

        let ratio = h.tput / s.tput;
        println!(
            "{:>6} {:>12.1} {:>12.1} {:>7.1}x {:>12.1} {:>12.1} {:>10} {:>10}",
            sites, s.tput, h.tput, ratio, s.msgs_per_op, h.msgs_per_op, h.migrations, h.depth_max
        );
        if sites == 64 {
            ratio_at_64 = Some(ratio);
            println!(
                "\n  busiest sites at 64, sharded ({} CSS migrations; deepest queue {} at {}):",
                h.migrations,
                h.depth_max,
                h.depth_site.map(|s| s.to_string()).unwrap_or_default()
            );
            depth_table(&sharded, sites, &h.depth);
            println!();
            locus_bench::export_and_audit_trace(&sharded, "e13");
            println!();
        }
        sharded_tputs.push((sites, h.tput));

        report
            .float(&format!("s{sites}_single_tput"), s.tput)
            .float(&format!("s{sites}_sharded_tput"), h.tput)
            .float(&format!("s{sites}_sharded_vs_single_ratio"), ratio)
            .float(&format!("s{sites}_single_msgs_per_op"), s.msgs_per_op)
            .float(&format!("s{sites}_sharded_msgs_per_op"), h.msgs_per_op)
            .int(&format!("s{sites}_sharded_handoffs"), h.migrations)
            .int(&format!("s{sites}_sharded_css_depth_max"), h.depth_max);
    }

    // Knee: the smallest site count within 90% of the sweep's peak
    // sharded throughput. Past it, the shared root (whose load grows
    // with every site) and the shard-count cap bound the system, and
    // more sites buy nothing — throughput eventually *falls* as the
    // root's container saturates. Defined against the peak rather than
    // point-to-point gains so dense and sparse grids agree.
    let peak = sharded_tputs.iter().map(|&(_, t)| t).fold(0.0, f64::max);
    let knee = sharded_tputs
        .iter()
        .find(|&&(_, t)| t >= 0.9 * peak)
        .map(|&(n, _)| n)
        .expect("non-empty sweep");
    println!("\nsharded scaling knee: {knee} sites (smallest count within 90% of peak throughput)");
    report.int("knee_sites", u64::from(knee));

    if let Some(r) = ratio_at_64 {
        assert!(
            r >= 2.0,
            "sharded + adaptive placement must at least double aggregate \
             throughput over the single-filegroup layout at 64 sites (got {r:.2}x)"
        );
        println!("64-site throughput gain: {r:.1}x (claim: >= 2x)");
    }

    println!("\npaper: §2.3.1 one CSS per filegroup; §2.1 mounts glue filegroups, so sharding needs no new protocol.");
    let path = report.write();
    println!("wrote {}", path.display());
}
