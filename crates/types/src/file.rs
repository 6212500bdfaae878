//! File types, open modes and permissions.
//!
//! LOCUS attaches a *type* to every file; recovery software uses the type
//! to pick a reconciliation strategy (§4.3 lists directories, mailboxes,
//! database files and untyped files).

use core::fmt;

/// The file types known to the LOCUS nucleus (§4.3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FileType {
    /// Ordinary file whose internal structure the nucleus does not know.
    Untyped,
    /// A naming-catalog directory; merged automatically by the system.
    Directory,
    /// A mailbox; merged automatically by the mail merge programs (§4.5).
    Mailbox,
    /// A database file; conflicts are reflected up to a recovery/merge
    /// manager rather than resolved by the nucleus (§4.1).
    Database,
    /// A *hidden directory* used for context-sensitive (per machine type)
    /// name resolution (§2.4.1).
    HiddenDirectory,
    /// A character device special file (§2.4.2).
    Device,
    /// A named pipe (FIFO); semantics identical to single-machine Unix
    /// even across sites (§2.4.2).
    Pipe,
}

impl FileType {
    /// Whether pathname resolution treats this file as a directory.
    pub const fn is_directory_like(self) -> bool {
        matches!(self, FileType::Directory | FileType::HiddenDirectory)
    }

    /// Whether the system knows how to merge diverged copies of this type
    /// automatically after partition (§4.3).
    pub const fn system_mergeable(self) -> bool {
        matches!(
            self,
            FileType::Directory | FileType::HiddenDirectory | FileType::Mailbox
        )
    }
}

impl fmt::Display for FileType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FileType::Untyped => "file",
            FileType::Directory => "dir",
            FileType::Mailbox => "mailbox",
            FileType::Database => "database",
            FileType::HiddenDirectory => "hiddendir",
            FileType::Device => "device",
            FileType::Pipe => "pipe",
        };
        f.write_str(s)
    }
}

/// Mode requested on open (§2.3.3, §2.3.5).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpenMode {
    /// Normal synchronized read.
    Read,
    /// Open for modification; the CSS enforces the single-writer policy.
    Write,
    /// Internal *unsynchronized* read used by pathname searching: no global
    /// locking, so directory interrogation can proceed concurrently with
    /// updates (§2.3.4).
    InternalUnsyncRead,
}

impl OpenMode {
    /// Whether this open may modify the file.
    pub const fn is_write(self) -> bool {
        matches!(self, OpenMode::Write)
    }

    /// Whether this open takes part in global synchronization at the CSS.
    pub const fn synchronized(self) -> bool {
        !matches!(self, OpenMode::InternalUnsyncRead)
    }
}

/// Unix-style permission bits (owner/group/other, rwx each), kept simple.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Perms(pub u16);

impl Perms {
    /// `rw-r--r--`, the usual default for files.
    pub const FILE_DEFAULT: Perms = Perms(0o644);
    /// `rwxr-xr-x`, the usual default for directories and load modules.
    pub const DIR_DEFAULT: Perms = Perms(0o755);

    /// Whether the owner may execute / search.
    pub const fn owner_exec(self) -> bool {
        self.0 & 0o100 != 0
    }
}

impl fmt::Display for Perms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04o}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directory_likes() {
        assert!(FileType::Directory.is_directory_like());
        assert!(FileType::HiddenDirectory.is_directory_like());
        assert!(!FileType::Mailbox.is_directory_like());
    }

    #[test]
    fn mergeable_types_match_paper() {
        // §4.3: directories and mailboxes have simple enough semantics for
        // the system to merge mechanically; databases and untyped files do
        // not.
        assert!(FileType::Directory.system_mergeable());
        assert!(FileType::Mailbox.system_mergeable());
        assert!(!FileType::Database.system_mergeable());
        assert!(!FileType::Untyped.system_mergeable());
    }

    #[test]
    fn open_mode_flags() {
        assert!(OpenMode::Write.is_write());
        assert!(!OpenMode::Read.is_write());
        assert!(OpenMode::Read.synchronized());
        assert!(!OpenMode::InternalUnsyncRead.synchronized());
    }

    #[test]
    fn perm_bits() {
        let p = Perms::FILE_DEFAULT;
        assert!(!p.owner_exec());
        assert_eq!(p.to_string(), "0644");
    }
}
