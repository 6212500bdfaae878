//! Working-directory semantics, demand recovery, token resilience under
//! reconfiguration, and miscellaneous whole-system behaviours.

use locus::{Cluster, Errno, FileOutcome, OpenMode, SiteId};

fn s(i: u32) -> SiteId {
    SiteId(i)
}

fn cluster() -> Cluster {
    Cluster::builder()
        .vax_sites(4)
        .filegroup("root", &[0, 1])
        .build()
}

#[test]
fn chdir_makes_relative_paths_work() {
    let c = cluster();
    let p = c.login(s(0), 1).unwrap();
    c.mkdir(p, "/home").unwrap();
    c.mkdir(p, "/home/walker").unwrap();
    c.chdir(p, "/home/walker").unwrap();
    c.write_file(p, "notes", b"relative create").unwrap();
    assert_eq!(
        c.read_file(p, "/home/walker/notes").unwrap(),
        b"relative create"
    );
    assert_eq!(c.read_file(p, "notes").unwrap(), b"relative create");
    // Relative traversal with dot-dot from the cwd.
    c.write_file(p, "../shared", b"one level up").unwrap();
    assert_eq!(c.read_file(p, "/home/shared").unwrap(), b"one level up");
    // chdir to a file is rejected.
    assert_eq!(c.chdir(p, "notes").unwrap_err(), Errno::Enotdir);
}

#[test]
fn chdir_survives_fork_to_remote_site() {
    let c = cluster();
    let p = c.login(s(0), 1).unwrap();
    c.mkdir(p, "/w").unwrap();
    c.chdir(p, "/w").unwrap();
    let child = c.fork(p, Some(s(2))).unwrap();
    // The child inherited the cwd; relative names resolve identically.
    c.write_file(child, "from-child", b"x").unwrap();
    assert_eq!(c.read_file(p, "/w/from-child").unwrap(), b"x");
}

#[test]
fn demand_recovery_fixes_one_file_ahead_of_the_full_pass() {
    // §4.4: "we support demand recovery, which is to say that a
    // particular directory can be reconciled out of order to allow access
    // to it with only a small delay."
    let c = cluster();
    let p0 = c.login(s(0), 1).unwrap();
    c.write_file(p0, "/hot", b"v1").unwrap();
    c.settle();
    c.partition(&[vec![s(0), s(3)], vec![s(1), s(2)]]);
    c.reconfigure().unwrap();
    c.write_file(p0, "/hot", b"v2 from A").unwrap();
    c.settle();
    // Heal the net but do NOT run the full reconfiguration: site 1 still
    // holds the stale copy.
    c.heal();
    {
        // Restore a single CSS so opens route consistently.
        for i in 0..4 {
            c.fs()
                .kernel(s(i))
                .mount
                .get_mut(locus::FilegroupId(0))
                .unwrap()
                .css = s(0);
        }
    }
    let p1 = c.login(s(1), 1).unwrap();
    let outcome = c.demand_recover(p1, "/hot").unwrap();
    assert_eq!(outcome, FileOutcome::Propagated);
    let g = c.resolve(p1, "/hot").unwrap();
    assert!(c.fs().kernel(s(1)).stores_data(g));
    assert_eq!(c.read_file(p1, "/hot").unwrap(), b"v2 from A");
}

#[test]
fn token_home_crash_is_survivable() {
    // The shared-fd group's home site crashes; the §5.6 cleanup reclaims
    // token state and survivors keep using their descriptors locally.
    let c = cluster();
    let parent = c.login(s(2), 1).unwrap(); // home will be site 2
    c.write_file(parent, "/t", b"0123456789abcdef").unwrap();
    c.settle();
    let fd = c.open(parent, "/t", OpenMode::Read).unwrap();
    let child = c.fork(parent, Some(s(3))).unwrap();
    assert_eq!(c.read(parent, fd, 4).unwrap(), b"0123");
    assert_eq!(c.read(child, fd, 4).unwrap(), b"4567");
    // The home (and parent's) site crashes.
    c.crash(s(2));
    c.reconfigure().unwrap();
    // The child's descriptor still works; the token scheme degrades to
    // local state (its site can no longer reach the home).
    let more = c.read(child, fd, 4).unwrap();
    assert_eq!(more.len(), 4, "child keeps reading after home loss");
}

#[test]
fn hidden_directory_escape_allows_maintenance() {
    // §2.4.1(d): "give users and programs an escape mechanism to make
    // hidden directories visible so they can be examined and specific
    // entries manipulated."
    let c = cluster();
    let p = c.login(s(0), 1).unwrap();
    c.mkdir(p, "/bin").unwrap();
    c.mk_hidden_dir(p, "/bin/cc").unwrap();
    c.write_file(p, "/bin/cc@/vax", b"vax cc").unwrap();
    // Examine the hidden directory through the escape.
    let entries = c.readdir(p, "/bin/cc@").unwrap();
    assert!(entries.contains(&"vax".to_owned()));
    // Manipulate a specific entry: replace the VAX module.
    c.write_file(p, "/bin/cc@/vax", b"vax cc v2").unwrap();
    let fd = c.open(p, "/bin/cc", OpenMode::Read).unwrap();
    assert_eq!(c.read(p, fd, 64).unwrap(), b"vax cc v2");
    c.close(p, fd).unwrap();
    // Without a matching context entry, resolution fails cleanly.
    let pdp_like = c.login(s(1), 1).unwrap();
    c.procs()
        .with(pdp_like, |proc| proc.ctx.contexts = vec!["45".to_owned()])
        .unwrap();
    assert_eq!(
        c.open(pdp_like, "/bin/cc", OpenMode::Read).unwrap_err(),
        Errno::Enoent
    );
}

#[test]
fn mounted_filegroup_partitions_independently() {
    // Root filegroup on {0,1}; project filegroup on {2,3}: a partition
    // that isolates {2,3} leaves /proj writable there even though the
    // root is gone — and vice versa.
    let c = Cluster::builder()
        .vax_sites(4)
        .filegroup("root", &[0, 1])
        .filegroup_mounted("proj", &[2, 3], "/proj")
        .build();
    let p2 = c.login(s(2), 1).unwrap();
    c.write_file(p2, "/proj/data", b"v1").unwrap();
    c.settle();
    c.partition(&[vec![s(0), s(1)], vec![s(2), s(3)]]);
    c.reconfigure().unwrap();
    // {2,3} cannot reach the root containers, but /proj files opened by
    // gfid-relative work... resolving "/proj/..." needs the root. Use the
    // cwd to keep working inside the project subtree.
    c.chdir(p2, "/proj").unwrap_or(()); // may fail if root unreachable
    let g = c.resolve(p2, "/proj/data");
    if let Ok(g) = g {
        let _ = g;
    }
    // After merge, updates from before the partition are intact.
    c.heal();
    c.reconfigure().unwrap();
    assert_eq!(c.read_file(p2, "/proj/data").unwrap(), b"v1");
}

#[test]
fn reconfiguration_report_is_informative() {
    let c = cluster();
    c.partition(&[vec![s(0), s(1)], vec![s(2), s(3)]]);
    let r = c.reconfigure().unwrap();
    assert_eq!(r.partitions.len(), 2);
    // A split loses sites and finds none: only the partition protocol.
    assert!(r.partition_polls > 0);
    assert_eq!(r.merge_polls, 0);
    assert!(!r.css_assignments.is_empty());
    // The {2,3} partition has no root container: exactly one CSS
    // assignment (for the {0,1} side).
    assert_eq!(r.css_assignments.len(), 1);
    assert_eq!(r.css_assignments[0].1, s(0));
    // A heal finds sites and loses none: only the merge protocol.
    c.heal();
    let r = c.reconfigure().unwrap();
    assert_eq!(r.partitions.len(), 1);
    assert!(r.merge_polls > 0);
    assert_eq!(r.partition_polls, 0);
}

/// A propagation pull that loses contact with its source half-way leaves
/// the replica's copy coherent but out of date (§2.3.6): the old version,
/// no open session, and every shadow block it took given back. The next
/// reconfiguration brings it up to date.
#[test]
fn a_failed_pull_leaves_the_old_version_whole() {
    use locus_net::{FaultPlan, FaultSpec, RetryPolicy};

    const PAGES: usize = 4;
    let version = |v: u8| -> Vec<u8> {
        (0..PAGES * locus_storage::PAGE_SIZE)
            .map(|i| v.wrapping_add((i / locus_storage::PAGE_SIZE) as u8))
            .collect()
    };
    let (source, replica) = (s(0), s(1));
    let c = cluster();
    let p = c.login(source, 1).unwrap();
    let v1 = version(1);
    c.write_file(p, "/f", &v1).unwrap();
    c.settle();
    let gfid = c.resolve(p, "/f").unwrap();
    let held = |c: &Cluster| {
        c.fs().with_kernel(replica, |k| {
            let vv = k.local_info(gfid).expect("replica inode").vv;
            let pack = k.pack_of(gfid.fg).expect("replica pack");
            let bytes = pack.read_all(gfid.ino).expect("replica pages");
            pack.take_io_cost();
            (bytes, vv)
        })
    };
    let (bytes, v1_vv) = held(&c);
    assert!(bytes == v1);

    // v2 commits at the source; the replica is told and queues its pull.
    let v2 = version(2);
    c.write_file(p, "/f", &v2).unwrap();
    assert!(c.fs().with_kernel(replica, |k| k.pull_queued(gfid)));
    let free_before = c.fs().with_kernel(replica, |k| {
        k.pack_of_ref(gfid.fg).expect("replica pack").free_blocks()
    });

    // The replica's page requests to the source are lost at random and
    // nothing retries. Under this plan's seed the first three pages land
    // in the pull's shadow session and the fourth request is lost, so
    // the abort has shadow blocks to give back.
    c.fs().set_retry_policy(RetryPolicy::none());
    c.net().reset_stats();
    c.net()
        .install_faults(FaultPlan::new(33).kind_spec("READ req", FaultSpec::drop_rate(0.5)));
    c.settle();
    let st = c.net().stats();
    assert_eq!(st.sends("PULL open"), 1, "the pull ran");
    assert_eq!(
        (st.sends("READ req"), st.drops("READ req")),
        (3, 1),
        "the pull fails after three pages"
    );
    let (bytes, vv) = held(&c);
    assert!(bytes == v1, "the replica serves v1's pages");
    assert_eq!(vv, v1_vv, "the replica serves v1's version vector");
    c.fs().with_kernel(replica, |k| {
        assert_eq!(k.open_session_count(), 0, "no session is left open");
        assert_eq!(
            k.pack_of_ref(gfid.fg).expect("replica pack").free_blocks(),
            free_before,
            "the aborted pull gave back its shadow blocks"
        );
    });

    c.net().clear_faults();
    c.reconfigure().unwrap();
    c.settle();
    let (bytes, vv) = held(&c);
    assert!(bytes == v2, "the replica serves v2's pages");
    let source_vv = c
        .fs()
        .with_kernel(source, |k| k.local_info(gfid).expect("source inode").vv);
    assert_eq!(vv, source_vv);
    assert_ne!(vv, v1_vv);
}

/// A cluster whose root filegroup has three containers (sites 0–2) and a
/// diskless site 3, with one logged-in process per site.
fn three_containers() -> (Cluster, Vec<locus::Pid>) {
    let c = Cluster::builder()
        .vax_sites(4)
        .filegroup("root", &[0, 1, 2])
        .build();
    let pids = (0..4).map(|i| c.login(s(i), 1).unwrap()).collect();
    (c, pids)
}

/// The copy of `gfid` in `site`'s container: its bytes, its version
/// vector and the container's free blocks.
fn container_copy(
    c: &Cluster,
    site: SiteId,
    gfid: locus::Gfid,
) -> (Vec<u8>, locus_types::VersionVector, usize) {
    c.fs().with_kernel(site, |k| {
        let pack = k.pack_of(gfid.fg).expect("container pack");
        let vv = pack.inode(gfid.ino).expect("container inode").vv.clone();
        let bytes = pack.read_all(gfid.ino).expect("container pages");
        pack.take_io_cost();
        (bytes, vv, pack.free_blocks())
    })
}

/// A two-sided directory merge is committed at one container. The others
/// keep their own copies until they pull the merged version, yet every
/// site's open reads the merged directory at once, through the CSS.
#[test]
fn a_merged_directory_is_written_once_and_pulled_by_the_others() {
    let (c, p) = three_containers();
    c.partition(&[vec![s(0), s(3)], vec![s(1), s(2)]]);
    c.reconfigure().unwrap();
    c.write_file(p[0], "/from-a", b"A").unwrap();
    c.write_file(p[1], "/from-b", b"B").unwrap();
    c.settle();
    let root = c.resolve(p[0], "/").unwrap();
    let containers = [s(0), s(1), s(2)];
    let before: Vec<_> = containers
        .iter()
        .map(|&site| container_copy(&c, site, root))
        .collect();

    c.heal();
    let report = c.reconfigure().unwrap();
    assert!(report
        .recovery
        .iter()
        .flat_map(|(_, r)| &r.files)
        .any(|&(g, o)| g == root && o == FileOutcome::DirectoryMerged));
    let written: Vec<SiteId> = containers
        .iter()
        .zip(&before)
        .filter(|&(&site, old)| container_copy(&c, site, root).1 != old.1)
        .map(|(&site, _)| site)
        .collect();
    assert_eq!(written.len(), 1, "one container commits the merge");
    for (&site, old) in containers.iter().zip(&before) {
        if site != written[0] {
            let (_, vv, free) = container_copy(&c, site, root);
            assert_eq!((vv, free), (old.1.clone(), old.2), "{site} was written");
        }
    }
    for &pid in &p {
        let mut names = c.readdir(pid, "/").unwrap();
        names.retain(|n| n.starts_with("from-"));
        names.sort();
        assert_eq!(names, ["from-a", "from-b"]);
    }

    c.settle();
    let merged = container_copy(&c, written[0], root);
    for &site in &containers {
        let (bytes, vv, _) = container_copy(&c, site, root);
        assert!(bytes == merged.0, "{site} holds the merged bytes");
        assert_eq!(vv, merged.1, "{site} holds the merged version");
    }
}

/// §4.4 rule d at a coordinator that stores no data copy of the file:
/// the saved version is installed at a data replica, carried there in a
/// delivered `RECOVERY install`, and reaches every copy by the ordinary
/// pull.
#[test]
fn a_resurrection_reaches_a_remote_replica_inside_a_message() {
    let (c, p) = three_containers();
    // Created while site 0 is away: the file's data replicas are the
    // packs of sites 1 and 2, and site 0 keeps only its inode.
    c.set_ncopies(p[1], 2).unwrap();
    c.partition(&[vec![s(0)], vec![s(1), s(2), s(3)]]);
    c.reconfigure().unwrap();
    c.write_file(p[1], "/precious", b"v1").unwrap();
    c.settle();
    c.heal();
    c.reconfigure().unwrap();
    c.settle();
    let g = c.resolve(p[0], "/precious").unwrap();
    assert!(!c.fs().kernel(s(0)).stores_data(g));

    // Deleted on one side, modified on the other.
    c.partition(&[vec![s(0), s(1)], vec![s(2), s(3)]]);
    c.reconfigure().unwrap();
    c.unlink(p[0], "/precious").unwrap();
    c.write_file(p[2], "/precious", b"v2 from the other side")
        .unwrap();
    c.settle();

    c.heal();
    c.net().set_observing(true);
    let report = c.reconfigure().unwrap();
    let events = c.net().take_obs_events();
    c.net().set_observing(false);
    assert!(report
        .recovery
        .iter()
        .flat_map(|(_, r)| &r.files)
        .any(|&(gg, o)| gg == g && o == FileOutcome::Resurrected));
    let delivered = |wanted: &str| -> Vec<(SiteId, SiteId, u64)> {
        events
            .iter()
            .filter_map(|e| match e {
                locus_net::ObsEvent::Request {
                    from,
                    to,
                    kind,
                    bytes,
                    outcome: locus_net::SendOutcome::Delivered,
                    ..
                } if kind == wanted => Some((*from, *to, *bytes)),
                _ => None,
            })
            .collect()
    };
    // A recovery request's fixed header, as an inventory request shows.
    let header = delivered("RECOVERY inventory")[0].2;
    let body = b"v2 from the other side";
    let installs = delivered("RECOVERY install");
    assert!(
        installs.iter().any(|&(from, to, bytes)| from == s(0)
            && (to == s(1) || to == s(2))
            && bytes == header + body.len() as u64),
        "no delivered install carries the file to a replica: {installs:?}"
    );

    c.settle();
    for &pid in &p {
        assert_eq!(
            c.read_file(pid, "/precious").unwrap(),
            b"v2 from the other side"
        );
    }
    let copies: Vec<_> = [s(1), s(2)]
        .iter()
        .map(|&site| container_copy(&c, site, g))
        .collect();
    assert_eq!(copies[0].0, b"v2 from the other side");
    assert_eq!((&copies[0].0, &copies[0].1), (&copies[1].0, &copies[1].1));
}

/// An untyped file updated on both sides stays two versions: each
/// container keeps its own, only marked, so every open fails until the
/// §4.6 tool splits them, and the tool finds both.
#[test]
fn an_untyped_conflict_keeps_each_version_where_it_was() {
    use locus_fs::ProcFsCtx;
    use locus_recovery::conflicts::split_conflict;

    let (c, p) = three_containers();
    c.write_file(p[0], "/doc", b"base").unwrap();
    c.settle();
    let g = c.resolve(p[0], "/doc").unwrap();
    c.partition(&[vec![s(0), s(3)], vec![s(1), s(2)]]);
    c.reconfigure().unwrap();
    c.write_file(p[0], "/doc", b"version A").unwrap();
    c.write_file(p[1], "/doc", b"version B").unwrap();
    c.settle();
    let containers = [s(0), s(1), s(2)];
    let before: Vec<_> = containers
        .iter()
        .map(|&site| container_copy(&c, site, g))
        .collect();

    c.heal();
    c.net().reset_stats();
    c.reconfigure().unwrap();
    c.settle();
    // One mark per other container, each set by the container itself.
    assert_eq!(c.net().stats().sends("RECOVERY mark"), 2);
    for (&site, old) in containers.iter().zip(&before) {
        let (bytes, vv, _) = container_copy(&c, site, g);
        assert!(bytes == old.0, "{site} lost its own version");
        assert_eq!(vv, old.1, "{site}'s version vector moved");
    }
    for &pid in &p {
        assert_eq!(c.read_file(pid, "/doc").unwrap_err(), Errno::Econflict);
    }

    let root = c.fs().kernel(s(0)).mount.root().unwrap();
    let ctx = ProcFsCtx::new(root, locus_types::MachineType::Vax);
    let names = split_conflict(c.fs(), s(3), &ctx, "/", "doc").unwrap();
    c.settle();
    let mut bodies: Vec<Vec<u8>> = names
        .iter()
        .map(|n| c.read_file(p[2], &format!("/{n}")).unwrap())
        .collect();
    bodies.sort();
    assert_eq!(bodies, [b"version A".to_vec(), b"version B".to_vec()]);
}
