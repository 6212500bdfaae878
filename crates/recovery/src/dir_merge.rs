//! The hierarchical directory merge algorithm (§4.4).
//!
//! "No recovery is needed if the version vector for both copies of the
//! directory are identical. Otherwise the basic rules are:
//!
//! 1. Check for name conflicts. For each name in the union of the
//!    directories, check that the inode numbers are the same. If they
//!    aren't, both file names are slightly altered to be distinguished.
//!    The owners of the two files are notified by electronic mail …
//! 2. The remaining resolution is done on an inode by inode basis:
//!    (a) entry appears in one directory and not the other — propagate
//!    the entry; (b) a deleted entry exists in one directory and not the
//!    other — propagate the delete, unless there has been a modification
//!    of the data since the delete; (c) both directories have an entry
//!    and neither is deleted — no action; (d) both have an entry, one a
//!    delete and the other not — the inode is interrogated in each
//!    partition: if the data has been modified since the delete, either a
//!    conflict is reported or the delete is undone; otherwise the delete
//!    is propagated."
//!
//! Rules b and d interrogate the *file* inode; the file-level pass of
//! [`crate::filegroup`] runs first and resolves delete-versus-modify, so
//! this function receives a `file_alive` oracle reflecting that outcome.
//! Link handling falls out naturally: entries are `(name, ino, type)`
//! records, so one inode reachable under several names merges per-record,
//! and every entry the merge writes, a conflict rename included, keeps
//! the type its record carried.

use locus_fs::directory::{DirEntry, Directory};
use locus_types::Ino;

/// The result of merging directory copies.
#[derive(Clone, Debug)]
pub struct DirMergeResult {
    /// The reconciled directory image.
    pub merged: Directory,
    /// `(original name, renamed entries)` for every name conflict, with
    /// the inode each renamed entry binds, so owners can be notified.
    pub renames: Vec<(String, Vec<(String, Ino)>)>,
}

/// Merges any number of divergent copies of one directory.
///
/// `file_alive(ino)` reports the post-reconciliation fate of the file:
/// `true` keeps (or resurrects) the entry, `false` propagates the delete.
pub fn merge_directories(
    copies: &[Directory],
    mut file_alive: impl FnMut(Ino) -> bool,
) -> DirMergeResult {
    let mut renames = Vec::new();
    let mut merged = Directory::new();

    // Union of names, in first-seen order for determinism.
    let mut names: Vec<String> = Vec::new();
    for d in copies {
        for rec in d.records() {
            if !names.contains(&rec.name) {
                names.push(rec.name.clone());
            }
        }
    }

    for name in names {
        // Collect this name's record in each copy.
        let recs: Vec<&DirEntry> = copies
            .iter()
            .filter_map(|d| d.records().iter().find(|r| r.name == name))
            .collect();

        // Rule 1: the same name bound to *different* inodes (live in at
        // least two copies) is a name conflict — rename to distinguish.
        let mut live_inos: Vec<Ino> = recs.iter().filter(|r| !r.removed).map(|r| r.ino).collect();
        live_inos.sort();
        live_inos.dedup();
        if live_inos.len() > 1 {
            let mut new_names = Vec::new();
            for ino in &live_inos {
                if !file_alive(*ino) {
                    continue;
                }
                let ftype = recs
                    .iter()
                    .find(|r| r.ino == *ino)
                    .expect("a live record binds it")
                    .ftype;
                let new = format!("{name}@{}", ino.0);
                merged
                    .insert(&new, *ino, ftype)
                    .expect("renamed entries are unique");
                new_names.push((new, *ino));
            }
            renames.push((name.clone(), new_names));
            continue;
        }

        // Rules 2a–2d, driven by the reconciled file state. When the
        // name binds different inodes and only one is live (deleted in
        // one partition, recreated under the same name in the other),
        // the live binding is the one the merged directory carries.
        let live = recs.iter().find(|r| !r.removed);
        // Tombstone-only records with disagreeing inodes (both partitions
        // deleted different files of this name) keep the smallest inode
        // deterministically — the binding is dead either way.
        let Some(rec) = live.or_else(|| recs.iter().min_by_key(|r| r.ino)) else {
            continue;
        };
        let (ino, ftype) = (rec.ino, rec.ftype);
        // 2a/2c keep a live entry while the file is alive; 2b/2d let the
        // delete win unless the file survived reconciliation (modified
        // since the delete). A name that is a tombstone in every copy
        // holding it stays one, even when the inode lives on under
        // another name — a removed link is not brought back. The inode is
        // interrogated for every name, live record or not: the oracle's
        // inventory traffic is part of what a merge costs.
        let alive = file_alive(ino);
        if live.is_some() && alive {
            merged
                .insert(&name, ino, ftype)
                .expect("names are unique here");
        } else {
            // Keep the tombstone so later merges still see the delete.
            merged.insert(&name, ino, ftype).expect("unique");
            merged.remove(&name).expect("just inserted");
        }
    }

    DirMergeResult { merged, renames }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_types::FileType;

    fn dir(entries: &[(&str, u32, bool)]) -> Directory {
        let mut d = Directory::new();
        for &(name, ino, removed) in entries {
            d.insert(name, Ino(ino), FileType::Untyped).unwrap();
            if removed {
                d.remove(name).unwrap();
            }
        }
        d
    }

    #[test]
    fn identical_copies_merge_to_same() {
        let a = dir(&[("x", 5, false)]);
        let b = dir(&[("x", 5, false)]);
        let r = merge_directories(&[a, b], |_| true);
        assert_eq!(r.merged.lookup("x"), Some(Ino(5)));
        assert!(r.renames.is_empty());
    }

    #[test]
    fn rule_a_entry_propagates() {
        let a = dir(&[("only-in-a", 7, false)]);
        let b = dir(&[]);
        let r = merge_directories(&[a, b], |_| true);
        assert_eq!(r.merged.lookup("only-in-a"), Some(Ino(7)));
    }

    #[test]
    fn rule_b_delete_propagates() {
        let a = dir(&[("gone", 7, true)]);
        let b = dir(&[("gone", 7, false)]);
        let r = merge_directories(&[a, b], |_| false); // file did not survive
        assert_eq!(r.merged.lookup("gone"), None);
        // Tombstone retained.
        assert!(r
            .merged
            .records()
            .iter()
            .any(|e| e.name == "gone" && e.removed));
    }

    #[test]
    fn rule_d_modified_since_delete_resurrects() {
        let a = dir(&[("saved", 7, true)]); // deleted in partition A
        let b = dir(&[("saved", 7, false)]); // modified in partition B
        let r = merge_directories(&[a, b], |_| true); // file reconciled alive
        assert_eq!(
            r.merged.lookup("saved"),
            Some(Ino(7)),
            "the file wants to be saved"
        );
    }

    #[test]
    fn rule_1_name_conflict_renames_and_reports() {
        // Each partition independently created a different file named "x".
        let a = dir(&[("x", 10, false)]);
        let b = dir(&[("x", 20, false)]);
        let r = merge_directories(&[a, b], |_| true);
        assert_eq!(r.merged.lookup("x"), None);
        assert_eq!(r.merged.lookup("x@10"), Some(Ino(10)));
        assert_eq!(r.merged.lookup("x@20"), Some(Ino(20)));
        assert_eq!(r.renames.len(), 1);
        assert_eq!(r.renames[0].0, "x");
        assert_eq!(r.renames[0].1.len(), 2);
    }

    #[test]
    fn conflict_rename_keeps_each_entry_type() {
        // Each partition created a different `who`: one a hidden
        // directory, one a plain file. The renamed entries keep their
        // types, so a search still finds the hidden directory by its
        // record alone.
        let mut a = Directory::new();
        a.insert("who", Ino(10), FileType::HiddenDirectory).unwrap();
        let mut b = Directory::new();
        b.insert("who", Ino(20), FileType::Untyped).unwrap();
        let r = merge_directories(&[a, b], |_| true);
        assert_eq!(
            r.merged.lookup_typed("who@10"),
            Some((Ino(10), FileType::HiddenDirectory))
        );
        assert_eq!(
            r.merged.lookup_typed("who@20"),
            Some((Ino(20), FileType::Untyped))
        );
        let again = merge_directories(&[r.merged.clone(), r.merged.clone()], |_| true);
        assert_eq!(again.merged, r.merged, "and a re-merge keeps them");
    }

    #[test]
    fn merge_is_idempotent() {
        let a = dir(&[("x", 10, false), ("y", 11, true)]);
        let b = dir(&[("x", 10, false), ("z", 12, false)]);
        let r1 = merge_directories(&[a, b], |i| i != Ino(11));
        let r2 = merge_directories(&[r1.merged.clone(), r1.merged.clone()], |i| i != Ino(11));
        assert_eq!(r1.merged, r2.merged);
        assert!(r2.renames.is_empty());
    }

    #[test]
    fn three_way_merge() {
        let a = dir(&[("a", 1, false)]);
        let b = dir(&[("b", 2, false)]);
        let c = dir(&[("c", 3, true)]);
        let r = merge_directories(&[a, b, c], |i| i != Ino(3));
        assert_eq!(r.merged.lookup("a"), Some(Ino(1)));
        assert_eq!(r.merged.lookup("b"), Some(Ino(2)));
        assert_eq!(r.merged.lookup("c"), None);
    }

    /// Regression: unlinking one of two hard links leaves the inode alive
    /// under the other name, and the removed name used to come back at
    /// every merge (`EEXIST` on re-link).
    #[test]
    fn removed_link_stays_removed_while_the_inode_lives_on() {
        let a = dir(&[("n1", 5, false), ("n2", 5, true)]);
        let b = dir(&[("n1", 5, false), ("n2", 5, true)]);
        let c = dir(&[("n1", 5, false)]);
        let r = merge_directories(&[a, b, c], |_| true);
        assert_eq!(r.merged.lookup("n1"), Some(Ino(5)));
        assert_eq!(r.merged.lookup("n2"), None, "a tombstone in every copy");
        assert!(r
            .merged
            .records()
            .iter()
            .any(|e| e.name == "n2" && e.removed));
        let again = merge_directories(&[r.merged.clone(), r.merged.clone()], |_| true);
        assert_eq!(again.merged, r.merged, "and it stays removed");
    }

    #[test]
    fn links_same_ino_under_two_names_survive() {
        let a = dir(&[("n1", 5, false), ("n2", 5, false)]);
        let b = dir(&[("n1", 5, false)]);
        let r = merge_directories(&[a, b], |_| true);
        assert_eq!(r.merged.lookup("n1"), Some(Ino(5)));
        assert_eq!(r.merged.lookup("n2"), Some(Ino(5)));
        assert!(r.renames.is_empty(), "a link is not a name conflict");
    }
}
