//! Name-cache coherence across partition and merge (§4, §5): warm caches
//! filled before a partition must never serve stale name resolutions
//! after divergent renames are reconciled. The §5.6 cleanup and the
//! recovery pass demote the cache — entries stay, lease marks and page
//! tags go — so every post-reconfiguration hit is vouched for by the CSS
//! of the new partition, at exactly the cached version, and never for a
//! copy marked in conflict.

use locus::{Cluster, Errno, FilegroupId, Gfid, SiteId};

fn s(i: u32) -> SiteId {
    SiteId(i)
}

/// Four sites with the name cache on, coherence leases on or off; root
/// filegroup at 0 and 1, so sites 2 and 3 resolve remotely (the
/// cache-heavy configuration) and each side of the `{0,3} | {1,2}`
/// partition keeps one container.
fn cluster_with(leases: bool) -> Cluster {
    Cluster::builder()
        .vax_sites(4)
        .filegroup("root", &[0, 1])
        .name_cache(true)
        .name_leases(leases)
        .build()
}

/// What `path` resolves to at a given pid's site, normalised for
/// comparison across sites.
fn view(c: &Cluster, pid: locus::Pid, path: &str) -> Result<Gfid, Errno> {
    c.resolve(pid, path)
}

#[test]
fn divergent_renames_never_resolve_stale_after_merge() {
    let c = cluster_with(false);
    let p0 = c.login(s(0), 1).unwrap();
    let p1 = c.login(s(1), 2).unwrap();
    c.mkdir(p0, "/d").unwrap();
    c.write_file(p0, "/d/f", b"payload").unwrap();
    c.settle();

    // Warm every site's cache on the pre-partition name.
    let pids: Vec<_> = (0..4).map(|i| c.login(s(i), 10 + i).unwrap()).collect();
    let orig = view(&c, pids[0], "/d/f").unwrap();
    for p in &pids {
        assert_eq!(view(&c, *p, "/d/f").unwrap(), orig);
    }

    // Partition {0,3} | {1,2} and rename divergently on each side.
    c.partition(&[vec![s(0), s(3)], vec![s(1), s(2)]]);
    c.reconfigure().unwrap();
    c.rename(p0, "/d/f", "/d/fa").unwrap();
    c.rename(p1, "/d/f", "/d/fb").unwrap();
    c.settle();

    // Each side sees its own rename — including through the diskless
    // members' caches, which were warmed on the old contents.
    assert_eq!(view(&c, pids[3], "/d/fa").unwrap(), orig);
    assert_eq!(view(&c, pids[3], "/d/f").unwrap_err(), Errno::Enoent);
    assert_eq!(view(&c, pids[2], "/d/fb").unwrap(), orig);
    assert_eq!(view(&c, pids[2], "/d/f").unwrap_err(), Errno::Enoent);

    // Merge. The reconciliation applies the directory merge rules; no
    // cache anywhere may serve a pre-merge view of `/d` after it.
    c.heal();
    let r = c.reconfigure().unwrap();
    assert_eq!(r.partitions.len(), 1);

    // Ground truth after reconciliation, read at a container site.
    let entries = c.readdir(p0, "/d").unwrap();

    // Every site agrees with the reconciled directory for every name the
    // schedule ever used: a stale cached dentry at site 2 or 3 would
    // either resurrect a dropped name or miss a reconciled one.
    for name in ["f", "fa", "fb"] {
        let path = format!("/d/{name}");
        let truth = if entries.iter().any(|e| e == name) {
            Ok(())
        } else {
            Err(Errno::Enoent)
        };
        for p in &pids {
            match (view(&c, *p, &path), &truth) {
                (Ok(g), Ok(())) => assert_eq!(g, orig, "{path}: wrong target"),
                (Err(e), Err(want)) => assert_eq!(e, *want, "{path}: wrong error"),
                (got, want) => panic!(
                    "{path}: site view {got:?} disagrees with reconciled directory ({want:?})"
                ),
            }
        }
    }
    // Both divergently-created names survived the merge (inferred-insert
    // semantics: each side inserted a new name into the directory).
    assert!(entries.iter().any(|e| e == "fa"), "merge dropped fa: {entries:?}");
    assert!(entries.iter().any(|e| e == "fb"), "merge dropped fb: {entries:?}");
}

/// Conflict marking at a merge leaves the version vector alone, so a
/// cache warmed on one side's version would still match it: the CSS must
/// refuse to vouch for a copy in conflict, and the stat must carry the
/// flag.
#[test]
fn merge_conflict_is_visible_through_a_warm_cache() {
    for leases in [false, true] {
        let c = cluster_with(leases);
        let p0 = c.login(s(0), 7).unwrap();
        let p3 = c.login(s(3), 8).unwrap();
        c.write_file(p0, "/hot", b"base").unwrap();
        c.settle();
        assert!(!c.stat(p3, "/hot").unwrap().conflict);

        c.partition(&[vec![s(0), s(3)], vec![s(1), s(2)]]);
        c.reconfigure().unwrap();
        let p1 = c.login(s(1), 7).unwrap();
        c.write_file(p0, "/hot", b"A's version").unwrap();
        c.write_file(p1, "/hot", b"B's version").unwrap();
        c.settle();
        // Warm the diskless site on its own side's version: exactly the
        // version the merge will mark.
        assert!(!c.stat(p3, "/hot").unwrap().conflict);
        assert!(!c.stat(p3, "/hot").unwrap().conflict);

        c.heal();
        let r = c.reconfigure().unwrap();
        let conflicts: usize = r.recovery.iter().map(|(_, rr)| rr.conflict_count()).sum();
        assert_eq!(conflicts, 1, "leases={leases}");
        assert!(
            c.stat(p3, "/hot").unwrap().conflict,
            "leases={leases}: a warm cache hid the merge's conflict mark"
        );
        assert_eq!(c.read_file(p3, "/hot").unwrap_err(), Errno::Econflict);
    }
}

/// A site split off together with a lagging replica must not serve a
/// directory newer than anything its partition holds.
#[test]
fn split_never_serves_a_directory_newer_than_its_partition() {
    for leases in [false, true] {
        let c = cluster_with(leases);
        let p0 = c.login(s(0), 1).unwrap();
        let p1 = c.login(s(1), 2).unwrap();
        let p3 = c.login(s(3), 3).unwrap();
        c.write_file(p0, "/base", b"b").unwrap();
        c.settle();
        // No settle: site 1's copy of `/` lags the create.
        c.write_file(p0, "/x", b"x").unwrap();
        let warm = c.readdir(p3, "/").unwrap();
        assert!(warm.iter().any(|n| n == "x"), "warm view has /x: {warm:?}");

        c.partition(&[vec![s(0), s(2)], vec![s(1), s(3)]]);
        c.reconfigure().unwrap();
        let truth = c.readdir(p1, "/").unwrap();
        assert_eq!(
            c.readdir(p3, "/").unwrap(),
            truth,
            "leases={leases}: site 3 disagrees with its partition's CSS"
        );
        assert!(!truth.iter().any(|n| n == "x"), "the lagging copy has no /x");
    }
}

/// With no namespace change, a warm diskless site's resolve after each
/// reconfiguration costs one `VV check` round trip per component — the
/// entries survived — and no open or page read.
#[test]
fn warm_cache_survives_split_and_heal() {
    for leases in [false, true] {
        let c = cluster_with(leases);
        let p0 = c.login(s(0), 1).unwrap();
        let p3 = c.login(s(3), 2).unwrap();
        c.mkdir(p0, "/a").unwrap();
        c.mkdir(p0, "/a/b").unwrap();
        c.write_file(p0, "/a/b/f", b"leaf").unwrap();
        c.settle();
        let leaf = c.resolve(p3, "/a/b/f").unwrap();

        let split = || c.partition(&[vec![s(0), s(3)], vec![s(1), s(2)]]);
        for topology_change in [&split as &dyn Fn(), &|| c.heal()] {
            topology_change();
            c.reconfigure().unwrap();
            // Cleanup dropped every lease row with every mark: no row is
            // left to draw a recall to a site that holds nothing.
            assert!(c.fs().kernel(s(0)).lease_holder_sites_for(FilegroupId(0)).is_empty());
            assert_eq!(c.fs().kernel(s(3)).name_cache.leases_held(), 0);
            c.net().reset_stats();
            assert_eq!(c.resolve(p3, "/a/b/f").unwrap(), leaf);
            let st = c.net().stats();
            assert_eq!(st.sends("VV check"), 3, "leases={leases}: one probe per component");
            assert_eq!(st.total_sends(), 6, "leases={leases}: probes and replies only");
            assert_eq!(st.sends("OPEN req"), 0, "leases={leases}");
            assert_eq!(st.sends("READ req"), 0, "leases={leases}");
            // In lease mode the same probes re-granted the leases.
            let held = if leases { 3 } else { 0 };
            assert_eq!(c.fs().kernel(s(3)).name_cache.leases_held(), held);
        }
    }
}
