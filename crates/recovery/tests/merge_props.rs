//! Property tests for the merge algorithms: directory merge is
//! order-insensitive, idempotent, and loses no live entry that any copy
//! holds (unless the file is dead); mailbox merge is a
//! deletion-respecting union.

use locus_fs::directory::Directory;
use locus_fs::mailbox::Mailbox;
use locus_recovery::dir_merge::merge_directories;
use locus_recovery::mail_merge::merge_mailboxes;
use locus_types::{FileType, Ino};
use proptest::prelude::*;

/// The type of each inode: one per inode, as in a filegroup.
fn ftype_of(ino: Ino) -> FileType {
    [
        FileType::Untyped,
        FileType::Directory,
        FileType::HiddenDirectory,
    ][ino.0 as usize % 3]
}

fn arb_dir() -> impl Strategy<Value = Directory> {
    proptest::collection::vec(("[a-f]{1,3}", 1u32..8, any::<bool>()), 0..8).prop_map(|ops| {
        let mut d = Directory::new();
        for (name, ino, removed) in ops {
            let _ = d.insert(&name, Ino(ino), ftype_of(Ino(ino)));
            if removed {
                let _ = d.remove(&name);
            }
        }
        d
    })
}

fn alive(ino: Ino) -> bool {
    !ino.0.is_multiple_of(3) // a fixed, deterministic liveness oracle
}

proptest! {
    #[test]
    fn dir_merge_is_order_insensitive(a in arb_dir(), b in arb_dir()) {
        let ab = merge_directories(&[a.clone(), b.clone()], alive);
        let ba = merge_directories(&[b, a], alive);
        // The entry *sets* agree regardless of copy order.
        let set = |d: &Directory| {
            let mut v: Vec<(String, u32, bool)> = d
                .records()
                .iter()
                .map(|e| (e.name.clone(), e.ino.0, e.removed))
                .collect();
            v.sort();
            v
        };
        prop_assert_eq!(set(&ab.merged), set(&ba.merged));
    }

    #[test]
    fn dir_merge_is_idempotent(a in arb_dir(), b in arb_dir()) {
        let once = merge_directories(&[a, b], alive);
        let twice = merge_directories(&[once.merged.clone(), once.merged.clone()], alive);
        prop_assert_eq!(once.merged, twice.merged);
        prop_assert!(twice.renames.is_empty(), "re-merge invented conflicts");
    }

    #[test]
    fn dir_merge_loses_no_live_entry(a in arb_dir(), b in arb_dir()) {
        let out = merge_directories(&[a.clone(), b.clone()], alive);
        for copy in [&a, &b] {
            for e in copy.live() {
                if !alive(e.ino) {
                    continue; // the file died: the delete propagates
                }
                // A tombstone for the same name in the *other* copy is
                // legitimate (rules b/d decide by the liveness oracle,
                // which said alive — so the entry must survive, possibly
                // renamed by rule 1).
                let survives = out.merged.lookup(&e.name) == Some(e.ino)
                    || out
                        .merged
                        .live()
                        .any(|m| m.ino == e.ino && m.name.starts_with(e.name.as_str()));
                prop_assert!(survives, "live entry {}->{} lost", e.name, e.ino);
            }
        }
    }

    #[test]
    fn dir_merge_keeps_every_entry_type(a in arb_dir(), b in arb_dir()) {
        let out = merge_directories(&[a, b], alive);
        for e in out.merged.records() {
            prop_assert_eq!(e.ftype, ftype_of(e.ino), "{} lost its type", e.name);
        }
    }

    #[test]
    fn mailbox_merge_is_union_with_delete_priority(
        ids_a in proptest::collection::vec(0u64..20, 0..10),
        ids_b in proptest::collection::vec(0u64..20, 0..10),
        deleted in proptest::collection::vec(0u64..20, 0..6),
    ) {
        let mut a = Mailbox::new();
        for id in &ids_a {
            if a.records().iter().all(|m| m.id != *id) {
                a.insert(*id, "body");
            }
        }
        let mut b = Mailbox::new();
        for id in &ids_b {
            if b.records().iter().all(|m| m.id != *id) {
                b.insert(*id, "body");
            }
        }
        for id in &deleted {
            let _ = a.delete(*id);
        }
        let merged = merge_mailboxes(&[a.clone(), b.clone()]);
        for m in merged.records() {
            let in_a = a.records().iter().find(|x| x.id == m.id);
            let in_b = b.records().iter().find(|x| x.id == m.id);
            prop_assert!(in_a.is_some() || in_b.is_some(), "invented message");
            let was_deleted = in_a.map(|x| x.deleted).unwrap_or(false)
                || in_b.map(|x| x.deleted).unwrap_or(false);
            prop_assert_eq!(m.deleted, was_deleted, "delete priority violated");
        }
        // Union: every id present somewhere appears in the merge.
        for src in [&a, &b] {
            for m in src.records() {
                prop_assert!(merged.records().iter().any(|x| x.id == m.id));
            }
        }
    }
}
