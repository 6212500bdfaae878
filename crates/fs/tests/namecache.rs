//! Tests of the using-site name & attribute cache (§2.3.4 pathname
//! searching served from cached directory contents, revalidated with one
//! `VV check` probe against the CSS's §2.3.1 version knowledge).
//!
//! Covers the coherence rules end to end: warm remote resolution drops to
//! VV-check-only traffic, a foreign commit is observed on the very next
//! stat (validate-on-use, no staleness window), hidden directories and
//! `..` walks run through the cache unchanged, and a seeded chaos
//! schedule rewrites a hidden directory between resolutions to show the
//! cache never serves a stale load module.

use locus_fs::ops::{fd, namei};
use locus_fs::{FsCluster, FsClusterBuilder, ProcFsCtx};
use locus_net::{FaultPlan, FaultSpec, NetStats, ObsEvent, RetryPolicy, SimRng};
use locus_types::{FileType, MachineType, OpenMode, Perms, SiteId, Ticks};

fn s(i: u32) -> SiteId {
    SiteId(i)
}

/// Two VAXen; the root filegroup lives only at site 0, so every
/// operation from site 1 crosses the wire — the configuration where the
/// cache matters most.
fn cluster(name_cache: bool) -> FsCluster {
    FsClusterBuilder::new()
        .vax_sites(2)
        .filegroup("root", &[0])
        .name_cache(name_cache)
        .build()
}

fn ctx(fsc: &FsCluster, site: SiteId) -> ProcFsCtx {
    ProcFsCtx::new(fsc.kernel(site).mount.root().unwrap(), MachineType::Vax)
}

fn write_str(fsc: &FsCluster, site: SiteId, path: &str, body: &[u8]) {
    let c = ctx(fsc, site);
    let fdn = fd::creat(fsc, site, &c, path, FileType::Untyped, Perms::FILE_DEFAULT).unwrap();
    fd::write(fsc, site, fdn, body).unwrap();
    fd::close(fsc, site, fdn).unwrap();
}

fn mkdir(fsc: &FsCluster, site: SiteId, path: &str, ftype: FileType) {
    let c = ctx(fsc, site);
    namei::create(fsc, site, &c, path, ftype, Perms::DIR_DEFAULT).unwrap();
}

/// Seeds the 4-deep tree used by the message-count tests.
fn seed_tree(fsc: &FsCluster) {
    mkdir(fsc, s(0), "/a", FileType::Directory);
    mkdir(fsc, s(0), "/a/b", FileType::Directory);
    mkdir(fsc, s(0), "/a/b/c", FileType::Directory);
    write_str(fsc, s(0), "/a/b/c/f", &[7u8; 1024]);
    fsc.settle();
}

/// Messages per warm resolution of `/a/b/c/f` from the diskless site,
/// after one cold pass.
fn warm_resolve_msgs(fsc: &FsCluster) -> u64 {
    const REPEATS: u64 = 8;
    let c = ctx(fsc, s(1));
    let gfid = namei::resolve(fsc, s(1), &c, "/a/b/c/f").unwrap();
    fsc.net().reset_stats();
    for _ in 0..REPEATS {
        assert_eq!(namei::resolve(fsc, s(1), &c, "/a/b/c/f").unwrap(), gfid);
    }
    fsc.net().stats().total_sends() / REPEATS
}

/// Repeated remote resolution of a 4-deep path, exact counts. Uncached,
/// each directory costs its internal open and close (4 messages; its one
/// page stays valid in the buffer cache) and nothing more: the entry
/// carries its file's type, so no component is stat-ed. Cached,
/// each directory costs one `VV check` round trip and nothing else.
#[test]
fn warm_remote_resolution_cuts_messages_2x() {
    let uncached = cluster(false);
    seed_tree(&uncached);
    let cold = warm_resolve_msgs(&uncached);
    let st = uncached.net().stats();
    assert_eq!(cold, 16, "4 directories x (OPEN + CLOSE round trips)");
    assert_eq!(
        st.total_sends(),
        st.sends("OPEN req")
            + st.sends("OPEN resp")
            + st.sends("CLOSE req")
            + st.sends("CLOSE resp"),
        "uncached warm resolution only opens and closes directories"
    );

    let cached = cluster(true);
    seed_tree(&cached);
    let warm = warm_resolve_msgs(&cached);
    assert_eq!(warm, 8, "4 directories x one VV probe round trip");

    // Every message the cached warm pass sent was a VV probe or its reply.
    let st = cached.net().stats();
    assert_eq!(
        st.total_sends(),
        st.sends("VV check") + st.sends("VV resp"),
        "warm cached resolution may only exchange VV probes"
    );
    let cs = cached.cache_stats();
    assert!(cs.dentry_hits > 0, "warm passes must hit the dentry cache");
    assert_eq!(
        cs.name_invalidations, 0,
        "nothing changed, nothing invalidated"
    );
}

/// Satellite regression: a remote site's cached attributes must not
/// survive a foreign commit — the very next stat observes the new size
/// because the VV probe reports a version the cached entry no longer
/// covers (validate-on-use; no TTL, no staleness window after commit).
#[test]
fn remote_stat_observes_foreign_commit_immediately() {
    let fsc = cluster(true);
    write_str(&fsc, s(0), "/f", b"one");
    fsc.settle();

    let c1 = ctx(&fsc, s(1));
    let gfid = namei::resolve(&fsc, s(1), &c1, "/f").unwrap();
    assert_eq!(namei::stat_gfid(&fsc, s(1), gfid).unwrap().size, 3);
    // A warm repeat is served from the attribute cache.
    let before = fsc.cache_stats().attr_hits;
    assert_eq!(namei::stat_gfid(&fsc, s(1), gfid).unwrap().size, 3);
    assert!(fsc.cache_stats().attr_hits > before, "repeat stat must hit");

    // Foreign commit: site 0 rewrites the file (size 3 -> 1024).
    let c0 = ctx(&fsc, s(0));
    let fdn = fd::open(&fsc, s(0), &c0, "/f", OpenMode::Write).unwrap();
    fd::write(&fsc, s(0), fdn, &[9u8; 1024]).unwrap();
    fd::close(&fsc, s(0), fdn).unwrap();

    // No settle, no explicit flush: the next remote stat must already see
    // the committed size, both by gfid and by path.
    assert_eq!(namei::stat_gfid(&fsc, s(1), gfid).unwrap().size, 1024);
    assert_eq!(namei::stat(&fsc, s(1), &c1, "/f").unwrap().size, 1024);
}

/// §2.4.1 hidden-directory indirection costs the directory reads and
/// nothing else: the entry's record says it names a hidden directory, so
/// the search opens exactly the three directories it reads (`/`, `/bin`,
/// `/bin/who`) and interrogates no inode, cold or warm, with the name
/// cache off.
#[test]
fn hidden_directory_resolve_stats_no_component() {
    let fsc = FsClusterBuilder::new()
        .site(MachineType::Vax)
        .site(MachineType::Pdp11)
        .filegroup("root", &[0])
        .name_cache(false)
        .build();
    mkdir(&fsc, s(0), "/bin", FileType::Directory);
    mkdir(&fsc, s(0), "/bin/who", FileType::HiddenDirectory);
    write_str(&fsc, s(0), "/bin/who@/vax", b"VAX LOAD MODULE");
    write_str(&fsc, s(0), "/bin/who@/45", b"PDP-11 LOAD MODULE");
    fsc.settle();
    let root = fsc.kernel(s(1)).mount.root().unwrap();
    let pdp = ProcFsCtx::new(root, MachineType::Pdp11);
    let module = namei::resolve(&fsc, s(0), &pdp, "/bin/who@/45").unwrap();

    for pass in ["cold", "warm"] {
        fsc.net().reset_stats();
        assert_eq!(
            namei::resolve(&fsc, s(1), &pdp, "/bin/who").unwrap(),
            module
        );
        let st = fsc.net().stats();
        assert_eq!(
            st.sends("OPEN req"),
            3,
            "{pass}: one open per directory read"
        );
        assert_eq!(
            st.sends("CLOSE req"),
            3,
            "{pass}: one close per directory read"
        );
        assert_eq!(
            st.total_sends(),
            st.sends("OPEN req")
                + st.sends("OPEN resp")
                + st.sends("READ req")
                + st.sends("READ resp")
                + st.sends("CLOSE req")
                + st.sends("CLOSE resp"),
            "{pass}: nothing but directory open -> read -> close"
        );
    }
}

/// Hidden-directory indirection (§2.4.1) and `..` walks behave
/// identically through the cache: per-context selection, the `@` escape,
/// and relative parent walks all return the same answers warm as cold —
/// and the warm passes exchange only VV probes.
#[test]
fn hidden_directories_and_dotdot_resolve_through_the_cache() {
    let fsc = FsClusterBuilder::new()
        .site(MachineType::Vax)
        .site(MachineType::Pdp11)
        .filegroup("root", &[0])
        .name_cache(true)
        .build();
    mkdir(&fsc, s(0), "/bin", FileType::Directory);
    mkdir(&fsc, s(0), "/bin/who", FileType::HiddenDirectory);
    write_str(&fsc, s(0), "/bin/who@/vax", b"VAX LOAD MODULE");
    write_str(&fsc, s(0), "/bin/who@/45", b"PDP-11 LOAD MODULE");
    fsc.settle();

    let root = fsc.kernel(s(1)).mount.root().unwrap();
    let pdp = ProcFsCtx::new(root, MachineType::Pdp11);
    let vax = ProcFsCtx::new(root, MachineType::Vax);

    // Cold, then warm: context selection is stable through the cache.
    let cold = namei::resolve(&fsc, s(1), &pdp, "/bin/who").unwrap();
    let warm = namei::resolve(&fsc, s(1), &pdp, "/bin/who").unwrap();
    assert_eq!(cold, warm);
    let fdn = fd::open(&fsc, s(1), &pdp, "/bin/who", OpenMode::Read).unwrap();
    assert_eq!(
        fd::read(&fsc, s(1), fdn, 64).unwrap(),
        b"PDP-11 LOAD MODULE"
    );
    fd::close(&fsc, s(1), fdn).unwrap();
    // A VAX context picks the other entry from the same cached directory.
    let other = namei::resolve(&fsc, s(1), &vax, "/bin/who").unwrap();
    assert_ne!(other, warm, "contexts must select different entries");

    // The `@` escape names the hidden directory itself, cached or not.
    let hidden = namei::resolve(&fsc, s(1), &pdp, "/bin/who@").unwrap();
    assert_ne!(hidden, warm);
    let entries = namei::readdir(&fsc, s(1), &pdp, "/bin/who@").unwrap();
    let names: Vec<&str> = entries.iter().map(|(n, _)| n.as_str()).collect();
    assert!(names.contains(&"vax") && names.contains(&"45"));

    // `..` with no trail walks the cached directory's own `..` entry.
    let bin = namei::resolve(&fsc, s(1), &pdp, "/bin").unwrap();
    let from_bin = ProcFsCtx::new(bin, MachineType::Pdp11);
    assert_eq!(namei::resolve(&fsc, s(1), &from_bin, "..").unwrap(), root);
    assert_eq!(
        namei::resolve(&fsc, s(1), &from_bin, "../bin/who@").unwrap(),
        hidden
    );

    // Everything above is now warm: another full sweep exchanges only VV
    // probes and replies.
    fsc.net().reset_stats();
    namei::resolve(&fsc, s(1), &pdp, "/bin/who").unwrap();
    namei::resolve(&fsc, s(1), &vax, "/bin/who").unwrap();
    namei::resolve(&fsc, s(1), &from_bin, "../bin/who@").unwrap();
    let st = fsc.net().stats();
    assert!(st.total_sends() > 0, "remote probes still cross the wire");
    assert_eq!(
        st.total_sends(),
        st.sends("VV check") + st.sends("VV resp"),
        "warm hidden/.. resolution may only exchange VV probes"
    );
}

/// One chaos schedule: site 0 keeps replacing the PDP-11 load module
/// inside the hidden directory while site 1 resolves and reads it
/// through the cache under seeded message faults. Every read that
/// succeeds must return the *latest* committed module — a stale cached
/// dentry or attribute would surface the previous version.
fn run_hidden_rewrite_schedule(seed: u64) -> Result<(), String> {
    let fsc = FsClusterBuilder::new()
        .site(MachineType::Vax)
        .site(MachineType::Pdp11)
        .filegroup("root", &[0])
        .name_cache(true)
        .build();
    fsc.set_retry_policy(RetryPolicy {
        max_attempts: 12,
        base_backoff: Ticks::millis(1),
        ..RetryPolicy::default()
    });
    mkdir(&fsc, s(0), "/bin", FileType::Directory);
    mkdir(&fsc, s(0), "/bin/who", FileType::HiddenDirectory);
    write_str(&fsc, s(0), "/bin/who@/45", b"module v0");
    fsc.settle();

    let mut rng = SimRng::seed_from_u64(seed ^ 0x00C0_FFEE);
    let spec = FaultSpec {
        drop: rng.gen_f64() * 0.25,
        duplicate: rng.gen_f64() * 0.10,
        delay_prob: rng.gen_f64() * 0.20,
        delay: Ticks::micros(rng.gen_range(20u64..200)),
    };
    fsc.net()
        .install_faults(FaultPlan::new(seed).default_spec(spec));

    let pdp = ProcFsCtx::new(fsc.kernel(s(1)).mount.root().unwrap(), MachineType::Pdp11);
    let mut ok_reads = 0u32;
    for version in 1..=6u32 {
        // The rewrite runs at site 0, which stores the only copy: local
        // procedure calls, immune to the message faults.
        let body = format!("module v{version}");
        let c0 = ctx(&fsc, s(0));
        namei::unlink(&fsc, s(0), &c0, "/bin/who@/45")
            .map_err(|e| format!("seed {seed}: unlink v{version}: {e:?}"))?;
        write_str(&fsc, s(0), "/bin/who@/45", body.as_bytes());
        fsc.settle();

        // The remote resolution may fail outright under loss — but it may
        // never succeed with yesterday's module.
        match fd::open(&fsc, s(1), &pdp, "/bin/who", OpenMode::Read) {
            Ok(fdn) => {
                let data = fd::read(&fsc, s(1), fdn, 64)
                    .map_err(|e| format!("seed {seed}: read v{version}: {e:?}"))?;
                fd::close(&fsc, s(1), fdn)
                    .map_err(|e| format!("seed {seed}: close v{version}: {e:?}"))?;
                if data != body.as_bytes() {
                    return Err(format!(
                        "seed {seed}: stale resolution at v{version}: read {:?}, wanted {body:?}",
                        String::from_utf8_lossy(&data)
                    ));
                }
                ok_reads += 1;
            }
            Err(e) => {
                // Loss exhausted the retries; the cache must not have been
                // poisoned for the next round — nothing to assert yet.
                let _ = e;
            }
        }
    }
    if ok_reads == 0 {
        return Err(format!("seed {seed}: every remote read failed"));
    }
    Ok(())
}

#[test]
fn rewritten_hidden_directory_is_never_served_stale() {
    for seed in 0..16u64 {
        run_hidden_rewrite_schedule(seed).unwrap();
    }
}

/// A live CSS handoff must not strand cached names: entries validated
/// against the old CSS's version knowledge revalidate through the *new*
/// CSS afterwards — warm resolution keeps working, the probe traffic
/// moves to the new synchronization site, and a foreign commit made
/// after the handoff is still observed on the very next stat.
#[test]
fn cached_names_revalidate_through_the_new_css_after_handoff() {
    let fsc = FsClusterBuilder::new()
        .vax_sites(3)
        .filegroup("root", &[0, 1])
        .name_cache(true)
        .build();
    seed_tree(&fsc);

    // Warm the diskless site's cache against the build-time CSS (site 0).
    let c2 = ctx(&fsc, s(2));
    let gfid = namei::resolve(&fsc, s(2), &c2, "/a/b/c/f").unwrap();
    assert_eq!(namei::stat_gfid(&fsc, s(2), gfid).unwrap().size, 1024);

    // Move the synchronization role while the cache is warm.
    let report = locus_fs::css_handoff(&fsc, locus_types::FilegroupId(0), s(1)).unwrap();
    assert_eq!(report.new_css, s(1));

    // Warm resolution survives the move, still VV-probe-only — but the
    // probes now interrogate the new CSS.
    fsc.net().set_observing(true);
    fsc.net().reset_stats();
    assert_eq!(namei::resolve(&fsc, s(2), &c2, "/a/b/c/f").unwrap(), gfid);
    let st = fsc.net().stats();
    assert_eq!(
        st.total_sends(),
        st.sends("VV check") + st.sends("VV resp"),
        "warm post-handoff resolution may only exchange VV probes"
    );
    let probe_targets: Vec<SiteId> = fsc
        .net()
        .take_obs_events()
        .iter()
        .filter_map(|e| match e {
            ObsEvent::Request { kind, to, .. } if kind == "VV check" => Some(*to),
            _ => None,
        })
        .collect();
    assert!(
        !probe_targets.is_empty(),
        "warm resolution still revalidates"
    );
    assert!(
        probe_targets.iter().all(|&to| to == s(1)),
        "every revalidation probe must target the new CSS"
    );

    // A foreign commit after the handoff: the next remote stat observes
    // it immediately — the cached attributes cannot survive a version
    // the new CSS knows to be newer.
    let c0 = ctx(&fsc, s(0));
    let fdn = fd::open(&fsc, s(0), &c0, "/a/b/c/f", OpenMode::Write).unwrap();
    fd::write(&fsc, s(0), fdn, &[3u8; 2048]).unwrap();
    fd::close(&fsc, s(0), fdn).unwrap();
    assert_eq!(namei::stat_gfid(&fsc, s(2), gfid).unwrap().size, 2048);
    assert_eq!(namei::stat(&fsc, s(2), &c2, "/a/b/c/f").unwrap().size, 2048);
}

/// The cache keeps the simulation deterministic: replaying one
/// fault-injected rewrite schedule produces a byte-identical event
/// stream, identical network statistics and identical cache counters.
#[test]
fn cached_chaos_schedule_is_deterministic() {
    let run = |seed: u64| -> (Vec<ObsEvent>, NetStats, locus_storage::CacheStats) {
        let fsc = FsClusterBuilder::new()
            .site(MachineType::Vax)
            .site(MachineType::Pdp11)
            .filegroup("root", &[0])
            .name_cache(true)
            .build();
        fsc.net().set_observing(true);
        fsc.set_retry_policy(RetryPolicy {
            max_attempts: 12,
            base_backoff: Ticks::millis(1),
            ..RetryPolicy::default()
        });
        mkdir(&fsc, s(0), "/bin", FileType::Directory);
        mkdir(&fsc, s(0), "/bin/who", FileType::HiddenDirectory);
        write_str(&fsc, s(0), "/bin/who@/45", b"module v0");
        fsc.settle();
        fsc.net()
            .install_faults(FaultPlan::new(seed).default_spec(FaultSpec::drop_rate(0.2)));
        let pdp = ProcFsCtx::new(fsc.kernel(s(1)).mount.root().unwrap(), MachineType::Pdp11);
        for _ in 0..4 {
            let _ = namei::resolve(&fsc, s(1), &pdp, "/bin/who");
        }
        assert_eq!(fsc.net().obs_truncated(), 0, "trace must be complete");
        (
            fsc.net().take_obs_events(),
            fsc.net().stats(),
            fsc.cache_stats(),
        )
    };
    let (ta, sa, ca) = run(0xD15C);
    let (tb, sb, cb) = run(0xD15C);
    assert_eq!(ta, tb, "traces diverged between identical cached runs");
    assert_eq!(sa, sb, "statistics diverged between identical cached runs");
    assert_eq!(ca, cb, "cache counters diverged between identical runs");
}

/// Recall once per version: a pull that installs at the CSS the very
/// version its notification already recalled for changes nothing a
/// holder could have cached, so a lease granted while the pull was
/// pending survives it.
#[test]
fn a_pull_of_an_already_recalled_version_recalls_nothing() {
    let fsc = FsClusterBuilder::new()
        .vax_sites(3)
        .filegroup("root", &[0, 1])
        .name_leases(true)
        .build();
    write_str(&fsc, s(0), "/f", b"one");
    fsc.settle();
    let c2 = ctx(&fsc, s(2));
    let gfid = namei::resolve(&fsc, s(2), &c2, "/f").unwrap();
    assert_eq!(namei::stat_gfid(&fsc, s(2), gfid).unwrap().size, 3);

    // Site 1 commits its own copy: the CSS (site 0) is notified, recalls
    // the lease, and queues a pull of the new version.
    write_str(&fsc, s(1), "/f", b"three");
    assert!(
        fsc.kernel(s(0)).pull_queued(gfid),
        "the CSS's copy is stale"
    );
    // The holder re-validates while the pull is pending: a new lease at
    // the new version.
    assert_eq!(namei::stat_gfid(&fsc, s(2), gfid).unwrap().size, 5);
    let held = fsc.kernel(s(2)).name_cache.leases_held();
    assert!(held > 0);

    fsc.net().reset_stats();
    fsc.settle();
    assert!(!fsc.kernel(s(0)).pull_queued(gfid), "the pull landed");
    assert_eq!(fsc.net().stats().sends("LEASE recall"), 0);
    assert_eq!(
        fsc.kernel(s(2)).name_cache.leases_held(),
        held,
        "the lease survived"
    );
    fsc.net().reset_stats();
    assert_eq!(namei::stat_gfid(&fsc, s(2), gfid).unwrap().size, 5);
    assert_eq!(fsc.net().stats().total_sends(), 0, "served under the lease");
}
