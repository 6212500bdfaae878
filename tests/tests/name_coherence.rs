//! Name-cache coherence across partition and merge (§4, §5): warm caches
//! filled before a partition must never serve stale name resolutions
//! after divergent renames are reconciled. The §5.6 cleanup and the
//! recovery pass demote the cache where the filegroup's CSS moved —
//! entries stay, lease marks and page tags go — and recall the leases
//! they kept where it stayed but a version changed or was lost, so every
//! post-reconfiguration hit is vouched for by the CSS of the new
//! partition, at exactly the cached version, and never for a copy marked
//! in conflict.

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

/// The mirror image: the lagging replica is the CSS's own. A site split
/// off together with the CSS keeps its lease on the directory, but the
/// version it was granted lives only across the split, so the CSS must
/// recall it rather than go on vouching for a version it cannot serve.
#[test]
fn a_kept_lease_never_outlives_a_version_its_partition_lost() {
    for leases in [false, true] {
        let c = cluster_with(leases);
        let p0 = c.login(s(0), 1).unwrap();
        let p1 = c.login(s(1), 2).unwrap();
        let p2 = c.login(s(2), 3).unwrap();
        c.write_file(p0, "/base", b"b").unwrap();
        c.settle();
        // No settle: the CSS's copy of `/` lags the create at site 1.
        c.write_file(p1, "/x", b"x").unwrap();
        for _ in 0..2 {
            let warm = c.readdir(p2, "/").unwrap();
            assert!(warm.iter().any(|n| n == "x"), "warm view has /x: {warm:?}");
        }

        c.partition(&[vec![s(0), s(2)], vec![s(1), s(3)]]);
        c.reconfigure().unwrap();
        let truth = c.readdir(p0, "/").unwrap();
        assert!(!truth.iter().any(|n| n == "x"), "the lagging copy has no /x");
        assert_eq!(
            c.readdir(p2, "/").unwrap(),
            truth,
            "leases={leases}: site 2 disagrees with its partition's CSS"
        );
        assert_eq!(c.stat(p2, "/x").unwrap_err(), Errno::Enoent, "leases={leases}");
    }
}

/// With no namespace change, a warm diskless site's resolve after each
/// reconfiguration costs nothing where the filegroup's CSS stayed (leases
/// on: the marks survive) and one `VV check` round trip per component
/// where it moved — the entries survived either way — and no open or
/// page read. Site 3 is partitioned with the CSS, site 0, throughout;
/// site 2 answers to site 1 while split and was not with site 0 then.
#[test]
fn warm_cache_survives_split_and_heal() {
    for leases in [false, true] {
        let c = cluster_with(leases);
        let p0 = c.login(s(0), 1).unwrap();
        let (p2, p3) = (c.login(s(2), 2).unwrap(), c.login(s(3), 3).unwrap());
        c.mkdir(p0, "/a").unwrap();
        c.mkdir(p0, "/a/b").unwrap();
        c.write_file(p0, "/a/b/f", b"leaf").unwrap();
        c.settle();
        let leaf = c.resolve(p3, "/a/b/f").unwrap();
        assert_eq!(c.resolve(p2, "/a/b/f").unwrap(), leaf);

        let split = || c.partition(&[vec![s(0), s(3)], vec![s(1), s(2)]]);
        for topology_change in [&split as &dyn Fn(), &|| c.heal()] {
            topology_change();
            c.reconfigure().unwrap();
            // The CSS kept the row backing site 3's kept marks, and only
            // that one.
            let holders = c.fs().kernel(s(0)).lease_holder_sites_for(FilegroupId(0));
            let kept: Vec<SiteId> = if leases { vec![s(3)] } else { vec![] };
            assert_eq!(holders.into_iter().collect::<Vec<_>>(), kept);
            assert_eq!(c.fs().kernel(s(2)).name_cache.leases_held(), 0);
            for (pid, site, stayed) in [(p3, s(3), true), (p2, s(2), false)] {
                c.net().reset_stats();
                assert_eq!(c.resolve(pid, "/a/b/f").unwrap(), leaf);
                let st = c.net().stats();
                let probes = if leases && stayed { 0 } else { 3 };
                assert_eq!(st.sends("VV check"), probes, "leases={leases} {site}");
                assert_eq!(st.total_sends(), 2 * probes, "leases={leases} {site}");
                // In lease mode the probes hold the directories' leases
                // now; kept marks also cover the leaf's attributes.
                let held = match (leases, stayed) {
                    (false, _) => 0,
                    (true, true) => 4,
                    (true, false) => 3,
                };
                assert_eq!(c.fs().kernel(site).name_cache.leases_held(), held);
            }
        }
    }
}

/// A holder that was down across a commit never serves the version it
/// cached before: whether the CSS processed its departure (it keeps
/// nothing for having been out of the partition) or only failed to
/// recall it (the CSS re-sends the abandoned recall at its cleanup).
#[test]
fn a_revived_holder_never_serves_a_version_committed_while_down() {
    for reconfigured_while_down in [false, true] {
        let c = cluster_with(true);
        let p0 = c.login(s(0), 1).unwrap();
        c.write_file(p0, "/f", b"old").unwrap();
        c.settle();
        let p3 = c.login(s(3), 2).unwrap();
        assert_eq!(c.stat(p3, "/f").unwrap().size, 3);
        assert_eq!(c.stat(p3, "/f").unwrap().size, 3);

        c.crash(s(3));
        if reconfigured_while_down {
            c.reconfigure().unwrap();
        }
        c.write_file(p0, "/f", b"newer").unwrap();
        c.settle();
        c.revive(s(3));
        c.reconfigure().unwrap();
        let p3 = c.login(s(3), 3).unwrap();
        assert_eq!(
            c.stat(p3, "/f").unwrap().size,
            5,
            "reconfigured while down: {reconfigured_while_down}"
        );
        assert_eq!(c.read_file(p3, "/f").unwrap(), b"newer");
    }
}

/// A holder cut off from the CSS only briefly — cut and healed before
/// `reconfigure()` — stays in the CSS's partition and keeps the
/// filegroup, so the recall the CSS abandoned must be re-sent.
#[test]
fn a_briefly_cut_holder_is_recalled_at_reconfiguration() {
    // Reachability is transitive: only cutting every link of the holder
    // cuts it off from the CSS.
    let links = |c: &Cluster, up: bool| {
        for other in [s(0), s(1), s(2)] {
            match up {
                true => c.net().restore_link(s(3), other),
                false => c.net().cut_link(s(3), other),
            }
        }
    };
    let c = cluster_with(true);
    let p0 = c.login(s(0), 1).unwrap();
    c.write_file(p0, "/f", b"old").unwrap();
    c.settle();
    let p3 = c.login(s(3), 2).unwrap();
    for _ in 0..2 {
        assert_eq!(c.stat(p3, "/f").unwrap().size, 3);
        assert!(!c.readdir(p3, "/").unwrap().iter().any(|n| n == "g"));
    }
    assert!(c.fs().kernel(s(3)).name_cache.leases_held() > 0);

    links(&c, false);
    c.write_file(p0, "/f", b"newer").unwrap();
    c.write_file(p0, "/g", b"new name").unwrap();
    c.settle();
    links(&c, true);
    c.reconfigure().unwrap();
    assert_eq!(c.stat(p3, "/f").unwrap().size, 5);
    assert!(c.readdir(p3, "/").unwrap().iter().any(|n| n == "g"));
}

/// A directory merged from both sides is rewritten at every container,
/// the CSS's included, behind its lease table: a site that kept its
/// lease on the directory (it stayed with the CSS) must be recalled and
/// list the merged contents.
#[test]
fn a_merged_directory_is_visible_through_a_kept_lease() {
    let c = cluster_with(true);
    let p0 = c.login(s(0), 1).unwrap();
    let p3 = c.login(s(3), 2).unwrap();
    c.write_file(p0, "/base", b"b").unwrap();
    c.settle();
    c.partition(&[vec![s(0), s(3)], vec![s(1), s(2)]]);
    c.reconfigure().unwrap();
    let p1 = c.login(s(1), 3).unwrap();
    c.write_file(p0, "/from-a", b"A").unwrap();
    c.write_file(p1, "/from-b", b"B").unwrap();
    c.settle();
    for _ in 0..2 {
        let names = c.readdir(p3, "/").unwrap();
        assert!(names.iter().any(|n| n == "from-a") && !names.iter().any(|n| n == "from-b"));
    }

    c.heal();
    c.reconfigure().unwrap();
    let names = c.readdir(p3, "/").unwrap();
    assert!(names.iter().any(|n| n == "from-a"), "{names:?}");
    assert!(names.iter().any(|n| n == "from-b"), "{names:?}");
}
