//! Typed wire protocol for process management (§3).
//!
//! Remote fork/exec/run, cross-machine signals and exit notifications
//! all ride the shared [`RpcEngine`](locus_net::RpcEngine); this module
//! is the *only* place the proc protocol's kind labels are spelled, so
//! statistics, traces and the chaos harness see one authoritative
//! message set.

use locus_net::WireMsg;
use locus_storage::PAGE_SIZE;

/// Wire size of a process-control message.
pub const CTRL_BYTES: usize = 96;

/// One process-management message (§3.1–3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ProcMsg {
    /// Allocate a process body at the destination for `fork` (§3.1); the
    /// address-space pages follow as [`ProcMsg::ProcPage`] messages.
    ForkReq,
    /// One page of the forked process's address space ("the relevant set
    /// of process pages are sent to the new process site", §3.1).
    ProcPage,
    /// Move the process for a remote `exec` (§3.1).
    ExecReq,
    /// Create the child directly at the execution site (`run` "avoids
    /// the copy of the parent process image", §3.1).
    RunReq,
    /// A signal crossing a machine boundary (§3.2).
    Signal,
    /// Child-exit notification to the parent's site (SIGCHLD, §3.2).
    ExitNotify,
}

impl WireMsg for ProcMsg {
    const SERVICE: &'static str = "proc";

    fn kind(&self) -> &'static str {
        match self {
            ProcMsg::ForkReq => "FORK req",
            ProcMsg::ProcPage => "PROC page",
            ProcMsg::ExecReq => "EXEC req",
            ProcMsg::RunReq => "RUN req",
            ProcMsg::Signal => "SIGNAL",
            ProcMsg::ExitNotify => "EXIT notify",
        }
    }

    fn reply_kind(&self) -> &'static str {
        match self {
            ProcMsg::ForkReq => "FORK resp",
            ProcMsg::ProcPage => "PROC page ack",
            ProcMsg::ExecReq => "EXEC resp",
            ProcMsg::RunReq => "RUN resp",
            ProcMsg::Signal => "SIGNAL ack",
            ProcMsg::ExitNotify => "EXIT notify ack",
        }
    }

    fn wire_bytes(&self) -> usize {
        match self {
            ProcMsg::ProcPage => PAGE_SIZE,
            _ => CTRL_BYTES,
        }
    }

    /// Body allocation and process moves tolerate re-issue (the handler
    /// re-registers the same body); signals and exit notifications are
    /// exactly-once deliveries.
    fn idempotent(&self) -> bool {
        matches!(
            self,
            ProcMsg::ForkReq | ProcMsg::ProcPage | ProcMsg::ExecReq | ProcMsg::RunReq
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_the_historical_wire_format() {
        assert_eq!(ProcMsg::ForkReq.kind(), "FORK req");
        assert_eq!(ProcMsg::ForkReq.reply_kind(), "FORK resp");
        assert_eq!(ProcMsg::ProcPage.wire_bytes(), PAGE_SIZE);
        assert_eq!(ProcMsg::Signal.wire_bytes(), CTRL_BYTES);
        assert!(ProcMsg::ForkReq.idempotent());
        assert!(!ProcMsg::ExitNotify.idempotent());
        assert_eq!(<ProcMsg as WireMsg>::SERVICE, "proc");
    }
}
