//! The errno-style error type used throughout the simulated kernel.
//!
//! LOCUS folds distribution errors into the existing Unix interface "to the
//! degree possible" (§3.3); the variants here are the classic Unix errnos
//! plus the small set of new error types the paper introduces for site
//! failure and partition.

use core::fmt;

/// Result alias used by every simulated system call.
pub type SysResult<T> = Result<T, Errno>;

/// Unix-flavoured error numbers, extended with the LOCUS distribution
/// failures (§3.3, §5.6).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[non_exhaustive]
pub enum Errno {
    /// Operation not permitted.
    Eperm,
    /// No such file or directory.
    Enoent,
    /// I/O error.
    Eio,
    /// Bad file descriptor.
    Ebadf,
    /// Permission denied.
    Eacces,
    /// File exists.
    Eexist,
    /// Cross-device (cross-filegroup) link.
    Exdev,
    /// Not a directory.
    Enotdir,
    /// Is a directory.
    Eisdir,
    /// Invalid argument.
    Einval,
    /// File table overflow / too many open files.
    Emfile,
    /// No space left on pack.
    Enospc,
    /// Directory not empty.
    Enotempty,
    /// Too many links.
    Emlink,
    /// No such process.
    Esrch,
    /// No child processes.
    Echild,
    /// Resource temporarily unavailable (e.g. token not held and owner
    /// unreachable).
    Eagain,
    /// Text/file busy (open in a conflicting mode).
    Etxtbsy,
    /// Name too long.
    Enametoolong,
    /// Broken pipe: write with no readers (raises SIGPIPE).
    Epipe,
    /// The target site is not in the caller's partition or crashed
    /// mid-operation: the LOCUS "site unavailable" failure (§3.3).
    Esitedown,
    /// No copy of the file is available in this partition (§2.3.1: service
    /// requires at least one reachable storage site with the latest
    /// version).
    Enocopy,
    /// The file is marked in conflict after a partition merge and normal
    /// access is refused until reconciled (§4.6).
    Econflict,
    /// The operation lost its synchronization token or lock to a
    /// reconfiguration and was aborted (§5.6 cleanup table).
    Eabort,
    /// A transaction primitive was used outside any transaction.
    Enotxn,
}

impl Errno {
    /// Short symbolic name, as `perror` would print.
    pub const fn name(self) -> &'static str {
        match self {
            Errno::Eperm => "EPERM",
            Errno::Enoent => "ENOENT",
            Errno::Eio => "EIO",
            Errno::Ebadf => "EBADF",
            Errno::Eacces => "EACCES",
            Errno::Eexist => "EEXIST",
            Errno::Exdev => "EXDEV",
            Errno::Enotdir => "ENOTDIR",
            Errno::Eisdir => "EISDIR",
            Errno::Einval => "EINVAL",
            Errno::Emfile => "EMFILE",
            Errno::Enospc => "ENOSPC",
            Errno::Enotempty => "ENOTEMPTY",
            Errno::Emlink => "EMLINK",
            Errno::Esrch => "ESRCH",
            Errno::Echild => "ECHILD",
            Errno::Eagain => "EAGAIN",
            Errno::Etxtbsy => "ETXTBSY",
            Errno::Enametoolong => "ENAMETOOLONG",
            Errno::Epipe => "EPIPE",
            Errno::Esitedown => "ESITEDOWN",
            Errno::Enocopy => "ENOCOPY",
            Errno::Econflict => "ECONFLICT",
            Errno::Eabort => "EABORT",
            Errno::Enotxn => "ENOTXN",
        }
    }
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::error::Error for Errno {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(Errno::Enoent.to_string(), "ENOENT");
        assert_eq!(Errno::Esitedown.name(), "ESITEDOWN");
    }
}
