//! **E12** — repeated pathname resolution with and without the using-site
//! name/attribute cache.
//!
//! §2.3.4's pathname search pays an internal open → read → close exchange
//! per component, every time, even when nothing changed; the entry it
//! finds carries its file's type, so no component is stat-ed. The name
//! cache replaces that exchange with one `VV check` probe per directory
//! once the contents are cached. This experiment measures a 4-deep
//! remote path resolved repeatedly from a diskless site and checks the
//! exact message counts (16 uncached: an open and a close per directory,
//! whose one page stays valid in the buffer cache; 8 cached), plus
//! repeated `stat` of the leaf.
//!
//! A trace audit then verifies the claim structurally: a resolve span
//! served from the cache must contain `VV check` exchanges and nothing
//! else — no open, no read, no close.
//!
//! Run with `cargo run -p locus-bench --bin e12_path_resolution`. Writes
//! `BENCH_e12.json` and `TRACE_e12.jsonl` under `target/bench` (honours
//! `$BENCH_OUT_DIR`).

use std::collections::HashMap;

use locus::{Cluster, SiteId};
use locus_bench::BenchReport;
use locus_fs::ops::namei;
use locus_net::ObsEvent;
use locus_types::{Gfid, MachineType};

const DEPTH_PATH: &str = "/a/b/c/f";
const REPEATS: u64 = 8;

/// Builds the 2-site cluster (storage at S0, diskless US at S1), seeds
/// the 4-deep tree from S0 and returns it with the name cache set as
/// requested.
fn build(name_cache: bool) -> Cluster {
    let cluster = Cluster::builder()
        .vax_sites(2)
        .filegroup("root", &[0])
        .name_cache(name_cache)
        .build();
    // Same standing proof as `standard_cluster`: the health monitor
    // observes every message this bench counts, and bench_guard holds
    // the counts to baseline — gray-failure tracking costs nothing.
    cluster
        .net()
        .enable_health(locus_net::HealthPolicy::default());
    let p = cluster.login(SiteId(0), 1).expect("login");
    cluster.mkdir(p, "/a").expect("mkdir /a");
    cluster.mkdir(p, "/a/b").expect("mkdir /a/b");
    cluster.mkdir(p, "/a/b/c").expect("mkdir /a/b/c");
    cluster
        .write_file(p, DEPTH_PATH, &vec![7u8; 1024])
        .expect("seed leaf");
    cluster.settle();
    cluster
}

fn us_ctx(cluster: &Cluster) -> locus_fs::ProcFsCtx {
    locus_fs::ProcFsCtx::new(
        cluster.fs().kernel(SiteId(1)).mount.root().unwrap(),
        MachineType::Vax,
    )
}

/// Messages per warm resolve and per warm stat of the leaf, measured
/// over [`REPEATS`] repetitions after one cold pass.
fn measure(cluster: &Cluster) -> (Gfid, u64, u64) {
    let us = SiteId(1);
    let ctx = us_ctx(cluster);
    let gfid = namei::resolve(cluster.fs(), us, &ctx, DEPTH_PATH).expect("cold resolve");
    cluster.net().reset_stats();
    for _ in 0..REPEATS {
        let again = namei::resolve(cluster.fs(), us, &ctx, DEPTH_PATH).expect("warm resolve");
        assert_eq!(again, gfid, "repeated resolution must agree");
    }
    let resolve_msgs = cluster.net().stats().total_sends() / REPEATS;
    namei::stat_gfid(cluster.fs(), us, gfid).expect("cold stat");
    cluster.net().reset_stats();
    for _ in 0..REPEATS {
        let info = namei::stat_gfid(cluster.fs(), us, gfid).expect("warm stat");
        assert_eq!(info.size, 1024, "stat must observe the seeded size");
    }
    let stat_msgs = cluster.net().stats().total_sends() / REPEATS;
    (gfid, resolve_msgs, stat_msgs)
}

/// Messages of the first warm resolve after the diskless site is split
/// off and healed back, each change followed by `reconfigure()`, with no
/// namespace change in between: the §5.6 cleanup demotes the cache
/// instead of emptying it, so the resolve costs one `VV check` round
/// trip per component, as any warm resolve does.
fn measure_after_reconfiguration(cluster: &Cluster) -> u64 {
    let us = SiteId(1);
    let ctx = us_ctx(cluster);
    let gfid = namei::resolve(cluster.fs(), us, &ctx, DEPTH_PATH).expect("cold resolve");
    cluster.partition(&[vec![SiteId(0)], vec![us]]);
    cluster.reconfigure().expect("split");
    cluster.heal();
    cluster.reconfigure().expect("heal");
    cluster.net().reset_stats();
    let again = namei::resolve(cluster.fs(), us, &ctx, DEPTH_PATH).expect("post-merge resolve");
    assert_eq!(again, gfid, "resolution must survive the reconfiguration");
    cluster.net().stats().total_sends()
}

/// Audits the exported trace: every resolve span that recorded a
/// `namecache.hit` and no `namecache.miss` must contain only `VV check`
/// protocol work — no open/read/close fallback slipped through.
fn audit_cached_resolves(events: &[ObsEvent]) -> usize {
    let mut parent: HashMap<u64, u64> = HashMap::new();
    let mut op: HashMap<u64, String> = HashMap::new();
    for e in events {
        if let ObsEvent::SpanOpen {
            id,
            parent: p,
            op: o,
            ..
        } = e
        {
            parent.insert(*id, *p);
            op.insert(*id, o.clone());
        }
    }
    // The enclosing resolve span of an event, if any.
    let resolve_of = |mut span: u64| -> Option<u64> {
        while span != 0 {
            if op.get(&span).map(String::as_str) == Some("resolve") {
                return Some(span);
            }
            span = parent.get(&span).copied().unwrap_or(0);
        }
        None
    };
    let mut hits: HashMap<u64, (u64, u64)> = HashMap::new(); // resolve span -> (hits, misses)
    for e in events {
        if let ObsEvent::Note { span, key, .. } = e {
            if let Some(r) = resolve_of(*span) {
                let c = hits.entry(r).or_default();
                match key.as_str() {
                    "namecache.hit" => c.0 += 1,
                    "namecache.miss" => c.1 += 1,
                    _ => {}
                }
            }
        }
    }
    let cached: Vec<u64> = hits
        .iter()
        .filter(|(_, (h, m))| *h > 0 && *m == 0)
        .map(|(&r, _)| r)
        .collect();
    for e in events {
        let (span, kind) = match e {
            ObsEvent::Request { span, kind, .. } => (*span, kind),
            ObsEvent::OneWay { span, kind, .. } => (*span, kind),
            _ => continue,
        };
        if let Some(r) = resolve_of(span) {
            if cached.contains(&r) {
                assert_eq!(
                    kind, "VV check",
                    "cache-served resolve span {r} sent a {kind} message"
                );
            }
        }
    }
    for (&span, o) in &op {
        if o != "VV check" {
            if let Some(r) = parent.get(&span).copied().and_then(&resolve_of) {
                assert!(
                    !cached.contains(&r),
                    "cache-served resolve span {r} opened a {o} span"
                );
            }
        }
    }
    cached.len()
}

fn main() {
    let mut report = BenchReport::new("e12");
    println!("E12: repeated resolution of {DEPTH_PATH} from a diskless site (x{REPEATS})\n");

    let uncached = build(false);
    let (g0, un_resolve, un_stat) = measure(&uncached);

    let cached = build(true);
    cached.net().set_observing(true);
    let (g1, c_resolve, c_stat) = measure(&cached);
    assert_eq!(g0, g1, "both clusters resolve to the same file");

    let resolve_ratio = un_resolve as f64 / c_resolve as f64;
    let stat_ratio = un_stat as f64 / c_stat as f64;
    println!(
        "{:<40} {:>9} {:>9}",
        "operation (messages per call)", "uncached", "cached"
    );
    println!(
        "{:<40} {:>9} {:>9}",
        "resolve 4-deep path", un_resolve, c_resolve
    );
    println!("{:<40} {:>9} {:>9}", "stat leaf by gfid", un_stat, c_stat);
    println!("\nresolve message reduction: {resolve_ratio:.1}x");
    println!("stat message reduction:    {stat_ratio:.1}x");
    // Per directory: OPEN and CLOSE round trips uncached, one VV probe
    // round trip cached. The stat is an open/close pair, or one probe.
    assert_eq!(
        (un_resolve, c_resolve),
        (16, 8),
        "resolution messages (uncached, cached)"
    );
    assert_eq!(
        (un_stat, c_stat),
        (4, 2),
        "stat messages (uncached, cached)"
    );

    let stats = cached.fs().cache_stats();
    println!(
        "\nname cache: dentry {}/{} hits, attr {}/{} hits, {} invalidations, {} dentry deep copies",
        stats.dentry_hits,
        stats.dentry_hits + stats.dentry_misses,
        stats.attr_hits,
        stats.attr_hits + stats.attr_misses,
        stats.name_invalidations,
        stats.dir_deep_copies
    );
    // A VV-validated hit serves the shared parsed directory; only a fill
    // materializes dentry state. Pinning copies == misses in the
    // baseline keeps the hit path allocation-free for good.
    assert_eq!(
        stats.dir_deep_copies, stats.dentry_misses,
        "cache hits must not re-derive directory dentry state"
    );
    // This bench runs the pull-validation cache only; the lease counters
    // document that no coherence leases are taken in this mode (E16
    // measures the leased warm path). Stdout only — the pinned report
    // keys predate leases and must not change.
    println!(
        "leases: {} grants, {} lease-served hits, {} recalls ({} acks), {} revokes",
        stats.lease_grants,
        stats.lease_hits,
        stats.lease_recalls,
        stats.lease_recall_acks,
        stats.lease_revokes
    );
    assert_eq!(
        stats.lease_grants, 0,
        "VvCheck-only mode must not grant leases"
    );

    let reconf_resolve = measure_after_reconfiguration(&build(true));
    println!(
        "\nwarm resolve right after split + heal + reconfigure: {reconf_resolve} messages \
         (warm: {c_resolve})"
    );
    assert_eq!(
        reconf_resolve, c_resolve,
        "a reconfiguration with no namespace change must leave the cache warm"
    );

    report
        .int("resolve4_uncached_msgs", un_resolve)
        .int("resolve4_cached_msgs", c_resolve)
        .float("resolve4_msg_ratio", resolve_ratio)
        .int("stat_uncached_msgs", un_stat)
        .int("stat_cached_msgs", c_stat)
        .float("stat_msg_ratio", stat_ratio)
        .int("dentry_hits", stats.dentry_hits)
        .int("dentry_misses", stats.dentry_misses)
        .int("attr_hits", stats.attr_hits)
        .int("attr_misses", stats.attr_misses)
        .int("name_invalidations", stats.name_invalidations)
        .int("dir_deep_copies", stats.dir_deep_copies)
        .float("dentry_hit_ratio", stats.dentry_hit_ratio())
        .float("attr_hit_ratio", stats.attr_hit_ratio())
        .int("reconf_warm_resolve_msgs", reconf_resolve);

    let (trace, events) = locus_bench::export_and_audit_trace(&cached, "e12");
    let served = audit_cached_resolves(&events);
    assert_eq!(
        served, REPEATS as usize,
        "every warm resolve must be served from the cache"
    );
    println!("trace check: {served} resolve spans served purely by VV checks");
    println!("wrote {}", trace.display());

    println!(
        "\npaper: §2.3.4 pathname searching; cache coherence via §2.3.1 CSS version knowledge."
    );
    let path = report.write();
    println!("wrote {}", path.display());
}
