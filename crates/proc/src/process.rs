//! Process structures.

use std::collections::BTreeMap;

use locus_fs::proto::Fd;
use locus_fs::ProcFsCtx;
use locus_types::{Pid, SiteId};

/// Unix-style signals, plus nothing exotic: the paper folds distribution
/// errors into the existing signal interface (§3.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Signal {
    /// Interrupt.
    Sigint,
    /// Kill (uncatchable).
    Sigkill,
    /// Broken pipe.
    Sigpipe,
    /// Child stopped or terminated.
    Sigchld,
    /// Hangup.
    Sighup,
    /// User-defined.
    Sigusr1,
}

/// Why a process died.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExitStatus {
    /// Normal exit with a code.
    Exited(i32),
    /// Terminated by a signal.
    Signaled(Signal),
    /// The process's site crashed or left the partition (§3.3, §5.6).
    SiteFailed,
}

/// Distribution-error detail "deposited in the parent's process
/// structure, which can be interrogated via a new system call" (§3.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProcError {
    /// A child's site failed.
    ChildSiteFailed {
        /// The child that was lost.
        child: Pid,
        /// The site that failed.
        site: SiteId,
    },
    /// The parent's site failed (delivered to the child).
    ParentSiteFailed {
        /// The site that failed.
        site: SiteId,
    },
    /// A remote fork/exec could not complete because the remote site
    /// failed mid-operation (§5.6: "return error to caller").
    RemoteSpawnFailed {
        /// The site that failed.
        site: SiteId,
    },
}

/// Process lifecycle states.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProcState {
    /// Runnable/running.
    Running,
    /// Exited, awaiting `wait` by the parent.
    Zombie(ExitStatus),
}

/// One process.
#[derive(Clone, Debug)]
pub struct Process {
    /// Network-wide process id.
    pub pid: Pid,
    /// Parent, if any.
    pub parent: Option<Pid>,
    /// Site the process executes on.
    pub site: SiteId,
    /// Filesystem context: cwd, hidden-directory contexts, replication
    /// factor, uid — the "per process state information" of §2.3.7/§2.4.1.
    pub ctx: ProcFsCtx,
    /// Open descriptors: process-level number → site-local kernel fd.
    pub fds: BTreeMap<u32, Fd>,
    /// Execution-site advice list, "currently a structured advice list,
    /// \[which\] can be set dynamically" (§3.1).
    pub advice: Vec<SiteId>,
    /// Lifecycle state.
    pub state: ProcState,
    /// Pending (not yet taken) signals.
    pub pending: Vec<Signal>,
    /// Distribution-error detail for the new interrogation system call.
    pub err_info: Option<ProcError>,
    /// Pathname of the executing load module, if `exec`ed.
    pub load_module: Option<String>,
    /// Address-space size in pages (drives fork copy cost, §3.1).
    pub image_pages: usize,
    /// Live children.
    pub children: Vec<Pid>,
}

impl Process {
    /// Next process-level descriptor number.
    pub(crate) fn next_fd_no(&self) -> u32 {
        self.fds.keys().max().map(|m| m + 1).unwrap_or(3)
    }

    /// Whether the process is alive.
    pub fn alive(&self) -> bool {
        matches!(self.state, ProcState::Running)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_types::{FilegroupId, Gfid, Ino, MachineType};

    #[test]
    fn fd_numbering_starts_at_three() {
        let p = Process {
            pid: Pid(1),
            parent: None,
            site: SiteId(0),
            ctx: ProcFsCtx::new(Gfid::new(FilegroupId(0), Ino(1)), MachineType::Vax),
            fds: BTreeMap::new(),
            advice: Vec::new(),
            state: ProcState::Running,
            pending: Vec::new(),
            err_info: None,
            load_module: None,
            image_pages: 8,
            children: Vec::new(),
        };
        assert_eq!(p.next_fd_no(), 3);
        assert!(p.alive());
    }
}
