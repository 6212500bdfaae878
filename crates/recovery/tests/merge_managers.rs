//! End-to-end test of the type-specific recovery/merge manager layer
//! (§4.1): a "database manager" reconciles concurrent updates to an
//! append-only log that the base system would have conflict-marked.

use locus_fs::ops::{fd, namei};
use locus_fs::{FsCluster, FsClusterBuilder, ProcFsCtx};
use locus_recovery::managers::append_only_log_manager;
use locus_recovery::{reconcile_filegroup_with, FileOutcome, MergeManagers};
use locus_types::{Errno, FileType, FilegroupId, MachineType, OpenMode, Perms, SiteId};

fn s(i: u32) -> SiteId {
    SiteId(i)
}

fn setup() -> (FsCluster, locus_types::Gfid) {
    let fsc = FsClusterBuilder::new()
        .vax_sites(3)
        .filegroup("root", &[0, 1])
        .build();
    let ctx = ProcFsCtx::new(fsc.kernel(s(0)).mount.root().unwrap(), MachineType::Vax);
    let g = namei::create(
        &fsc,
        s(0),
        &ctx,
        "/journal",
        FileType::Database,
        Perms::FILE_DEFAULT,
    )
    .unwrap();
    namei::write_file_internal(&fsc, s(0), g, b"rec1\n").unwrap();
    fsc.settle();
    (fsc, g)
}

fn partition_and_diverge(fsc: &FsCluster, g: locus_types::Gfid) {
    fsc.net().partition(&[vec![s(0), s(2)], vec![s(1)]]);
    for site in [s(0), s(2)] {
        fsc.kernel(site).mount.get_mut(FilegroupId(0)).unwrap().css = s(0);
    }
    fsc.kernel(s(1)).mount.get_mut(FilegroupId(0)).unwrap().css = s(1);
    namei::write_file_internal(fsc, s(0), g, b"rec1\nrec2-from-A\n").unwrap();
    namei::write_file_internal(fsc, s(1), g, b"rec1\nrec3-from-B\n").unwrap();
    fsc.settle();
    fsc.net().heal();
    for i in 0..3 {
        fsc.kernel(s(i)).mount.get_mut(FilegroupId(0)).unwrap().css = s(0);
    }
}

#[test]
fn database_manager_reconciles_what_the_nucleus_cannot() {
    let (fsc, g) = setup();
    partition_and_diverge(&fsc, g);

    let mut managers = MergeManagers::new();
    managers.register(FileType::Database, append_only_log_manager());
    let report = reconcile_filegroup_with(&fsc, s(0), FilegroupId(0), &managers).unwrap();

    assert!(report
        .files
        .iter()
        .any(|(gg, o)| *gg == g && *o == FileOutcome::ManagerMerged));
    assert_eq!(report.conflict_count(), 0);
    // The merged journal holds the prefix plus both partitions' records.
    let merged = namei::read_file_internal(&fsc, s(2), g).unwrap();
    let text = String::from_utf8(merged).unwrap();
    assert!(text.starts_with("rec1\n"));
    assert!(text.contains("rec2-from-A"));
    assert!(text.contains("rec3-from-B"));
    // All copies converged, once the pulls the merge queued have run.
    fsc.settle();
    assert_eq!(
        fsc.kernel(s(0)).local_info(g).unwrap().vv,
        fsc.kernel(s(1)).local_info(g).unwrap().vv
    );
}

#[test]
fn without_a_manager_the_same_divergence_is_a_conflict() {
    let (fsc, g) = setup();
    partition_and_diverge(&fsc, g);
    let report =
        reconcile_filegroup_with(&fsc, s(0), FilegroupId(0), &MergeManagers::new()).unwrap();
    assert_eq!(report.conflict_count(), 1);
    let ctx = ProcFsCtx::new(fsc.kernel(s(2)).mount.root().unwrap(), MachineType::Vax);
    assert_eq!(
        fd::open(&fsc, s(2), &ctx, "/journal", OpenMode::Read).unwrap_err(),
        Errno::Econflict
    );
}

#[test]
fn declining_manager_falls_through_to_conflict_marking() {
    let (fsc, g) = setup();
    partition_and_diverge(&fsc, g);
    let mut managers = MergeManagers::new();
    managers.register(FileType::Database, Box::new(|_| None)); // always declines
    let report = reconcile_filegroup_with(&fsc, s(0), FilegroupId(0), &managers).unwrap();
    assert_eq!(report.conflict_count(), 1);
    let _ = g;
}
