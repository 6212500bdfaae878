//! Typed wire protocol for the reconfiguration protocols (§5.4–5.5).
//!
//! Partition and merge polls ride the shared
//! [`RpcEngine`](locus_net::RpcEngine), so a lossy link is absorbed by
//! retry/backoff instead of being mistaken for a departed site; this
//! module is the only place the topology protocol's kind labels are
//! spelled.

use locus_net::{RetryPolicy, WireMsg};
use locus_types::Ticks;

/// Bytes per partition-protocol message.
pub(crate) const PARTITION_MSG_BYTES: usize = 128;

/// Bytes per merge-protocol message.
pub(crate) const MERGE_MSG_BYTES: usize = 160;

/// The retry policy the reconfiguration polls run under. More generous
/// than the cluster default: a poll mistaken for a departed site shrinks
/// the partition (§5.4's "single communications failure" rule), so the
/// protocols spend extra attempts before giving up. Clean runs consume
/// exactly one attempt, leaving message counts unchanged.
pub(crate) const POLL_RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 8,
    base_backoff: Ticks::millis(2),
    multiplier: 2,
};

/// One reconfiguration message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TopoMsg {
    /// Partition-protocol poll; the reply carries the polled site's
    /// partition set P_pollsite (§5.4).
    PartitionPoll,
    /// Consensus announcement to a new partition member (§5.4).
    PartitionAnnounce,
    /// Merge-protocol information request; the reply is the responder's
    /// partition information (§5.5).
    MergePoll,
    /// Declaration of the merged partition's composition (§5.5).
    MergeAnnounce,
}

impl WireMsg for TopoMsg {
    const SERVICE: &'static str = "topology";

    fn kind(&self) -> &'static str {
        match self {
            TopoMsg::PartitionPoll => "PARTITION poll",
            TopoMsg::PartitionAnnounce => "PARTITION announce",
            TopoMsg::MergePoll => "MERGE poll",
            TopoMsg::MergeAnnounce => "MERGE announce",
        }
    }

    fn reply_kind(&self) -> &'static str {
        match self {
            TopoMsg::PartitionPoll => "PARTITION poll resp",
            TopoMsg::PartitionAnnounce => "PARTITION announce ack",
            TopoMsg::MergePoll => "MERGE info",
            TopoMsg::MergeAnnounce => "MERGE announce ack",
        }
    }

    fn wire_bytes(&self) -> usize {
        match self {
            TopoMsg::PartitionPoll | TopoMsg::PartitionAnnounce => PARTITION_MSG_BYTES,
            TopoMsg::MergePoll | TopoMsg::MergeAnnounce => MERGE_MSG_BYTES,
        }
    }

    /// Every reconfiguration message tolerates re-issue: polls are pure
    /// queries and repeated announcements re-install the same tables.
    fn idempotent(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_the_historical_wire_format() {
        assert_eq!(TopoMsg::PartitionPoll.kind(), "PARTITION poll");
        assert_eq!(TopoMsg::PartitionPoll.reply_kind(), "PARTITION poll resp");
        assert_eq!(TopoMsg::MergePoll.reply_kind(), "MERGE info");
        assert_eq!(TopoMsg::PartitionPoll.wire_bytes(), PARTITION_MSG_BYTES);
        assert_eq!(TopoMsg::MergeAnnounce.wire_bytes(), MERGE_MSG_BYTES);
        assert!(TopoMsg::MergePoll.idempotent());
        assert_eq!(<TopoMsg as WireMsg>::SERVICE, "topology");
    }
}
