//! Property tests for the on-disk formats (directories, mailboxes) and
//! directory-operation invariants.

use locus_fs::directory::Directory;
use locus_fs::mailbox::Mailbox;
use locus_types::{FileType, Ino};
use proptest::prelude::*;

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9._-]{0,24}"
}

/// Every file type a directory record can carry.
const TYPES: [FileType; 7] = [
    FileType::Untyped,
    FileType::Directory,
    FileType::Mailbox,
    FileType::Database,
    FileType::HiddenDirectory,
    FileType::Device,
    FileType::Pipe,
];

proptest! {
    #[test]
    fn directory_roundtrips(ops in proptest::collection::vec((arb_name(), 1u32..100, 0usize..TYPES.len(), any::<bool>()), 0..20)) {
        let mut d = Directory::new();
        for (name, ino, t, and_remove) in &ops {
            let _ = d.insert(name, Ino(*ino), TYPES[*t]);
            if *and_remove {
                let _ = d.remove(name);
            }
        }
        let parsed = Directory::parse(&d.serialize()).unwrap();
        prop_assert_eq!(&parsed, &d);
        // Tombstones and live entries both survive the trip, types too.
        prop_assert_eq!(parsed.records().len(), d.records().len());
    }

    #[test]
    fn directory_names_are_unique_among_live(ops in proptest::collection::vec((arb_name(), 1u32..50), 0..30)) {
        let mut d = Directory::new();
        for (name, ino) in &ops {
            let _ = d.insert(name, Ino(*ino), FileType::Untyped);
        }
        let mut names: Vec<&str> = d.live().map(|e| e.name.as_str()).collect();
        let before = names.len();
        names.sort();
        names.dedup();
        prop_assert_eq!(names.len(), before, "duplicate live names");
    }

    #[test]
    fn directory_insert_remove_is_identity_on_lookup(name in arb_name(), ino in 1u32..100) {
        let mut d = Directory::new();
        d.insert(&name, Ino(ino), FileType::Untyped).unwrap();
        prop_assert_eq!(d.lookup(&name), Some(Ino(ino)));
        d.remove(&name).unwrap();
        prop_assert_eq!(d.lookup(&name), None);
        // Reinsertion resurrects the tombstone with the new binding.
        d.insert(&name, Ino(ino + 1), FileType::Untyped).unwrap();
        prop_assert_eq!(d.lookup(&name), Some(Ino(ino + 1)));
    }

    #[test]
    fn mailbox_roundtrips(msgs in proptest::collection::vec((any::<u16>(), ".{0,60}", any::<bool>()), 0..15)) {
        let mut mb = Mailbox::new();
        for (i, (id_part, body, deleted)) in msgs.iter().enumerate() {
            let id = Mailbox::message_id(*id_part as u32, i as u32);
            mb.insert(id, body);
            if *deleted {
                mb.delete(id).unwrap();
            }
        }
        let parsed = Mailbox::parse(&mb.serialize()).unwrap();
        prop_assert_eq!(&parsed, &mb);
        prop_assert_eq!(parsed.live().count(), mb.live().count());
    }

    #[test]
    fn directory_parse_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = Directory::parse(&bytes); // must return, never panic
    }

    #[test]
    fn mailbox_parse_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = Mailbox::parse(&bytes);
    }
}
