//! **E16** — lease-based name-cache coherence: the zero-message warm
//! path, against the E12 pull-validation baseline, 8 → 512 sites.
//!
//! The E12 name cache still pays one `VV check` round trip per cached
//! directory on every warm resolve (8 messages for a 4-deep path) and
//! one per warm `stat` (2 messages): pull validation asks the CSS
//! "did anything change?" even when nothing ever does. Coherence
//! leases invert the protocol: the CSS grants a per-(site, inode)
//! lease on the validation probe it was already answering — zero
//! extra messages — and thereafter the holder serves warm hits
//! locally. The CSS recalls the lease (`LEASE recall` / ack) only
//! when the inode actually changes, so the quiescent warm path costs
//! **0 messages** and invalidation cost is proportional to writes,
//! not reads.
//!
//! Per sweep point this bench measures, from a diskless using site:
//!
//! * warm 4-deep resolve and warm leaf stat, VvCheck-only vs leased
//!   (claims: 8 → 0 and 2 → 0 messages per call);
//! * the first-touch cost: the probe that grants the lease must cost
//!   exactly what the pull-validation probe already cost; the resolve
//!   leases the directories and the first stat the leaf;
//! * the recall fan-out: every other site takes leases on the same
//!   path, one write commits at the storage site, and the recall
//!   round (2 messages per holder) must reach and ack every holder —
//!   after which the writer's new size is visible everywhere and the
//!   re-granted warm path is free again;
//! * the virtual time of that write (`s{n}_recall_commit_sim_us`): its
//!   commit waits for one fan-out round of recalls, the requests leaving
//!   back to back on the CSS's wire, not for n − 1 round trips;
//! * at 64 sites, a warm resolve right after a split and `reconfigure()`
//!   on each side: where the CSS stayed, the leases survive and it costs
//!   0 messages (`s64_split_kept_resolve_msgs`); where the CSS moved, the
//!   site demoted the filegroup and pays one `VV check` round trip per
//!   component (`s64_split_moved_resolve_msgs`).
//!
//! The 64-site point exports `TRACE_e16.jsonl` and runs the offline
//! auditor over it, so invariant 11 (no stale hit after a recall) is
//! checked against a real schedule.
//!
//! Run with `cargo run --release -p locus-bench --bin e16_lease_coherence`.
//! Writes `BENCH_e16.json` and `TRACE_e16.jsonl` (honours
//! `$BENCH_OUT_DIR`).

use locus::{Cluster, SiteId};
use locus_bench::BenchReport;
use locus_fs::ops::namei;
use locus_types::{Gfid, MachineType, Ticks};

const DEPTH_PATH: &str = "/a/b/c/f";
const REPEATS: u64 = 8;
const SWEEP: [u32; 3] = [8, 64, 512];
const SEED: &[u8] = &[7u8; 1024];
const REWRITE: &[u8] = &[9u8; 2048];

/// Builds one sweep point: `sites` VAXen, storage (and so CSS) at S0,
/// everyone else diskless, the 4-deep tree seeded from S0.
fn build(sites: u32, leases: bool) -> Cluster {
    let mut b = Cluster::builder()
        .vax_sites(sites as usize)
        .filegroup("root", &[0]);
    b = if leases {
        b.name_leases(true)
    } else {
        b.name_cache(true)
    };
    let cluster = b.build();
    cluster
        .net()
        .enable_health(locus_net::HealthPolicy::default());
    let p = cluster.login(SiteId(0), 1).expect("login");
    cluster.mkdir(p, "/a").expect("mkdir /a");
    cluster.mkdir(p, "/a/b").expect("mkdir /a/b");
    cluster.mkdir(p, "/a/b/c").expect("mkdir /a/b/c");
    cluster.write_file(p, DEPTH_PATH, SEED).expect("seed leaf");
    cluster.settle();
    cluster
}

fn ctx_at(cluster: &Cluster, site: SiteId) -> locus_fs::ProcFsCtx {
    locus_fs::ProcFsCtx::new(
        cluster.fs().kernel(site).mount.root().unwrap(),
        MachineType::Vax,
    )
}

struct Measured {
    gfid: Gfid,
    /// Messages for the cold pass that fills the cache. The lease grant
    /// rides on the validation probe this pass was already paying for,
    /// so with leases on this is the *entire* first-touch cost.
    resolve_cold: u64,
    /// Messages per warm resolve thereafter.
    resolve_warm: u64,
    stat_cold: u64,
    stat_warm: u64,
}

/// The E12 microbench shape, from diskless S1: one cold pass fills the
/// cache (and, with leases on, takes the leases), then [`REPEATS`] warm
/// passes give the steady-state cost.
fn measure_us(cluster: &Cluster) -> Measured {
    let us = SiteId(1);
    let ctx = ctx_at(cluster, us);
    cluster.net().reset_stats();
    let gfid = namei::resolve(cluster.fs(), us, &ctx, DEPTH_PATH).expect("cold resolve");
    let resolve_cold = cluster.net().stats().total_sends();
    cluster.net().reset_stats();
    for _ in 0..REPEATS {
        let again = namei::resolve(cluster.fs(), us, &ctx, DEPTH_PATH).expect("warm resolve");
        assert_eq!(again, gfid, "repeated resolution must agree");
    }
    let resolve_warm = cluster.net().stats().total_sends() / REPEATS;
    cluster.net().reset_stats();
    namei::stat_gfid(cluster.fs(), us, gfid).expect("cold stat");
    let stat_cold = cluster.net().stats().total_sends();
    cluster.net().reset_stats();
    for _ in 0..REPEATS {
        let info = namei::stat_gfid(cluster.fs(), us, gfid).expect("warm stat");
        assert_eq!(
            info.size,
            SEED.len() as u64,
            "stat observes the seeded size"
        );
    }
    let stat_warm = cluster.net().stats().total_sends() / REPEATS;
    Measured {
        gfid,
        resolve_cold,
        resolve_warm,
        stat_cold,
        stat_warm,
    }
}

struct Fanout {
    holders: u64,
    /// Messages for the whole warm-stat round across every site once
    /// all leases are held: the zero-message claim at scale.
    warm_round_msgs: u64,
    /// Messages for the single write that recalls every leaf lease.
    recall_msgs: u64,
    /// Virtual time of that write: the recalls are one fan-out round.
    recall_commit: Ticks,
    recall_acks: u64,
    grants: u64,
}

/// Every site takes leases on the path, then one write from the storage
/// site recalls the leaf lease from all of them.
fn fanout(cluster: &Cluster, sites: u32, gfid: Gfid) -> Fanout {
    let writer = cluster.login(SiteId(0), 1).expect("writer login");
    let before = cluster.fs().cache_stats();
    // Two passes per site: the first fills the cache (and may fall back
    // to the cold component walk), the second is the probe pass that
    // takes the leases.
    for i in 1..sites {
        let site = SiteId(i);
        let ctx = ctx_at(cluster, site);
        for _ in 0..2 {
            namei::resolve(cluster.fs(), site, &ctx, DEPTH_PATH).expect("warm resolve");
            let info = namei::stat_gfid(cluster.fs(), site, gfid).expect("warm stat");
            assert_eq!(info.size, SEED.len() as u64, "pre-write size everywhere");
        }
    }
    let grants = cluster.fs().cache_stats().lease_grants - before.lease_grants;
    // Steady state: one stat per site, cluster-wide, moves no messages.
    cluster.net().reset_stats();
    for i in 1..sites {
        namei::stat_gfid(cluster.fs(), SiteId(i), gfid).expect("leased stat");
    }
    let warm_round_msgs = cluster.net().stats().total_sends();
    // One write at the storage site: the commit recalls the leaf lease
    // from every holder before `commit.end` closes the bracket.
    let pre = cluster.fs().cache_stats();
    cluster.net().reset_stats();
    let t0 = cluster.net().now();
    cluster
        .write_file(writer, DEPTH_PATH, REWRITE)
        .expect("rewrite leaf");
    let recall_commit = cluster.net().now() - t0;
    let recall_msgs = cluster.net().stats().total_sends();
    let after = cluster.fs().cache_stats();
    // Every ex-holder re-validates, sees the new size, and is free again.
    let probe = SiteId(sites - 1);
    cluster.net().reset_stats();
    let info = namei::stat_gfid(cluster.fs(), probe, gfid).expect("post-recall stat");
    assert_eq!(
        info.size,
        REWRITE.len() as u64,
        "recall exposes the new size"
    );
    assert!(
        cluster.net().stats().total_sends() > 0,
        "the first post-recall stat must re-validate at the CSS"
    );
    cluster.net().reset_stats();
    let info = namei::stat_gfid(cluster.fs(), probe, gfid).expect("re-leased stat");
    assert_eq!(info.size, REWRITE.len() as u64);
    assert_eq!(
        cluster.net().stats().total_sends(),
        0,
        "the re-granted lease serves warm again"
    );
    Fanout {
        holders: u64::from(sites) - 1,
        warm_round_msgs,
        recall_msgs,
        recall_commit,
        recall_acks: after.lease_recall_acks - pre.lease_recall_acks,
        grants,
    }
}

/// Messages for one warm resolve of [`DEPTH_PATH`] right after a split
/// and `reconfigure()`, at a diskless site on each side: `(kept, moved,
/// moved VV checks)`. The root filegroup has a container on each side
/// (S0 and the first site of the second half), so the side without S0
/// selects a new CSS.
fn split_resolve(sites: u32) -> (u64, u64, u64) {
    let half = sites / 2;
    let cluster = Cluster::builder()
        .vax_sites(sites as usize)
        .filegroup("root", &[0, half])
        .name_leases(true)
        .build();
    let p = cluster.login(SiteId(0), 1).expect("login");
    cluster.mkdir(p, "/a").expect("mkdir /a");
    cluster.mkdir(p, "/a/b").expect("mkdir /a/b");
    cluster.mkdir(p, "/a/b/c").expect("mkdir /a/b/c");
    cluster.write_file(p, DEPTH_PATH, SEED).expect("seed leaf");
    cluster.settle();
    let (kept, moved) = (SiteId(1), SiteId(half + 1));
    for site in [kept, moved] {
        let ctx = ctx_at(&cluster, site);
        for _ in 0..2 {
            namei::resolve(cluster.fs(), site, &ctx, DEPTH_PATH).expect("warm resolve");
        }
    }
    let (a, b): (Vec<SiteId>, Vec<SiteId>) = (0..sites).map(SiteId).partition(|s| s.0 < half);
    cluster.partition(&[a, b]);
    cluster.reconfigure().expect("split");
    cluster.settle();
    let resolve_msgs = |site: SiteId| {
        let ctx = ctx_at(&cluster, site);
        cluster.net().reset_stats();
        namei::resolve(cluster.fs(), site, &ctx, DEPTH_PATH).expect("resolve after split");
        let st = cluster.net().stats();
        (st.total_sends(), st.sends("VV check"))
    };
    let (kept_msgs, _) = resolve_msgs(kept);
    let (moved_msgs, moved_checks) = resolve_msgs(moved);
    (kept_msgs, moved_msgs, moved_checks)
}

fn main() {
    let mut report = BenchReport::new("e16");
    println!(
        "E16: lease coherence vs pull validation on {DEPTH_PATH}, {SWEEP:?} sites (x{REPEATS} warm)\n"
    );
    println!(
        "{:>6} {:>12} {:>12} {:>10} {:>10} {:>12} {:>12} {:>10} {:>12}",
        "sites",
        "vv res m/op",
        "lease res",
        "vv stat",
        "lease stat",
        "cold fill",
        "recall msgs",
        "acks",
        "recall us"
    );

    for &sites in &SWEEP {
        let vv = build(sites, false);
        let base = measure_us(&vv);
        drop(vv);

        let leased = build(sites, true);
        if sites == 64 {
            leased.net().set_observing(true);
        }
        let m = measure_us(&leased);
        assert_eq!(m.gfid, base.gfid, "both modes resolve to the same file");
        let f = fanout(&leased, sites, m.gfid);

        println!(
            "{:>6} {:>12} {:>12} {:>10} {:>10} {:>12} {:>12} {:>10} {:>12}",
            sites,
            base.resolve_warm,
            m.resolve_warm,
            base.stat_warm,
            m.stat_warm,
            m.resolve_cold,
            f.recall_msgs,
            f.recall_acks,
            f.recall_commit.as_micros()
        );

        // The headline claims, pinned exactly at every scale.
        assert_eq!(
            base.resolve_warm, 8,
            "VvCheck warm 4-deep resolve costs 8 msgs"
        );
        assert_eq!(base.stat_warm, 2, "VvCheck warm stat costs 2 msgs");
        assert_eq!(m.resolve_warm, 0, "leased warm resolve costs 0 msgs");
        assert_eq!(m.stat_warm, 0, "leased warm stat costs 0 msgs");
        // First-touch: grants ride on the validation probe the cold
        // fill already pays for, so turning leases on adds nothing.
        assert_eq!(
            m.resolve_cold, base.resolve_cold,
            "lease grant must add no messages to the cold fill"
        );
        // A search interrogates no inode (each entry carries its file's
        // type), so the first stat is the first touch of the leaf's
        // attributes in both modes: a probe that misses, then the
        // open/close pair. With leases on, that probe takes the leaf's
        // lease. Resolve and stat together cost less than the resolve
        // alone did when it stat-ed every component (56 messages).
        assert_eq!(base.stat_cold, 6, "VvCheck first stat still probes");
        assert_eq!(m.stat_cold, 6, "the first stat takes the leaf's lease");
        assert_eq!(
            m.resolve_cold, 32,
            "the cold fill opens, reads and closes 4 directories, after a probe each"
        );
        // At scale: a full warm round is free, and one write recalls
        // exactly the holders (request + ack each).
        assert_eq!(
            f.warm_round_msgs,
            0,
            "a leased warm stat round across {} sites must be message-free",
            sites - 1
        );
        assert_eq!(f.recall_acks, f.holders, "every holder acks its recall");
        assert!(
            f.recall_msgs >= 2 * f.holders,
            "recall fan-out is a round trip per holder (got {} for {} holders)",
            f.recall_msgs,
            f.holders
        );

        report
            .int(&format!("s{sites}_vvcheck_resolve_msgs"), base.resolve_warm)
            .int(&format!("s{sites}_lease_resolve_msgs"), m.resolve_warm)
            .int(&format!("s{sites}_vvcheck_stat_msgs"), base.stat_warm)
            .int(&format!("s{sites}_lease_stat_msgs"), m.stat_warm)
            .int(
                &format!("s{sites}_first_touch_resolve_msgs"),
                m.resolve_cold,
            )
            .int(&format!("s{sites}_first_touch_stat_msgs"), m.stat_cold)
            .int(&format!("s{sites}_warm_round_msgs"), f.warm_round_msgs)
            .int(&format!("s{sites}_recall_fanout_msgs"), f.recall_msgs)
            .int(&format!("s{sites}_recall_acks"), f.recall_acks)
            .int(&format!("s{sites}_lease_grants"), f.grants)
            .int(
                &format!("s{sites}_recall_commit_sim_us"),
                f.recall_commit.as_micros(),
            );

        if sites == 64 {
            let (kept, moved, checks) = split_resolve(sites);
            println!(
                "\n  64-site split: warm resolve {kept} msgs where the CSS stayed, \
                 {moved} ({checks} VV checks) where it moved"
            );
            assert_eq!(kept, 0, "a kept filegroup keeps its leases across a split");
            assert_eq!(
                checks, 4,
                "a moved filegroup costs one VV check per component"
            );
            assert_eq!(moved, 2 * checks, "probes and replies only");
            report
                .int("s64_split_kept_resolve_msgs", kept)
                .int("s64_split_moved_resolve_msgs", moved);
            let s = leased.fs().cache_stats();
            println!(
                "\n  64-site lease counters: {} grants, {} lease-served hits, {} recalls ({} acks), {} revokes",
                s.lease_grants, s.lease_hits, s.lease_recalls, s.lease_recall_acks, s.lease_revokes
            );
            locus_bench::export_and_audit_trace(&leased, "e16");
            println!();
        }
    }

    println!(
        "\npaper: §2.3.4 pathname searching; §2.3.1 CSS version knowledge — \
         push invalidation replaces pull validation, so warm reads are local."
    );
    let path = report.write();
    println!("wrote {}", path.display());
}
