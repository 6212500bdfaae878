//! Typed wire protocol for recovery (§4).
//!
//! Inventory gathering and update propagation ride the shared
//! [`RpcEngine`](locus_net::RpcEngine): inventories retry under the
//! policy instead of failing on the first injected drop, and abandoned
//! propagations are counted as one-way losses rather than vanishing
//! silently. This module is the only place the recovery protocol's kind
//! labels and wire sizes are spelled.

use locus_fs::proto::InodeInfo;
use locus_net::WireMsg;
use locus_types::{FilegroupId, Ino, VersionVector};

/// Wire size charged per recovery control message, and the fixed header
/// of an inventory reply.
pub(crate) const RECOVERY_MSG_BYTES: usize = 192;

/// Wire size of one inventory row before its version vector: inode
/// number, type, permissions, owner, size, link count, mtime, the
/// deleted / conflict / data-here flags and the replica list.
pub const INVENTORY_ENTRY_BYTES: usize = 48;

/// One recovery message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RecMsg {
    /// Ask a container site for its pack's inode table of `fg` — every
    /// inode, or just `only` for demand recovery; the reply is an
    /// [`InventoryReply`] (§4.2).
    Inventory {
        /// The filegroup being reconciled.
        fg: FilegroupId,
        /// Restrict the reply to one inode (demand recovery, §4.4).
        only: Option<Ino>,
    },
    /// Propagate a reconciled version to a stale container copy (§4.3).
    Propagate,
}

/// One inode of a container's inventory.
#[derive(Clone, Debug)]
pub(crate) struct InventoryRow {
    /// The inode.
    pub ino: Ino,
    /// Its state in the answering pack.
    pub info: InodeInfo,
    /// Whether the data is stored here (a tombstone counts: there is
    /// nothing to fetch).
    pub data_here: bool,
    /// The version a queued propagation pull will bring this copy to —
    /// what the container was last notified of — while one is queued.
    pub pending: Option<VersionVector>,
}

/// What a container answers an [`RecMsg::Inventory`] with: one multi-row
/// reply.
#[derive(Clone, Debug, Default)]
pub(crate) struct InventoryReply {
    /// The answering pack's index (its version-vector update origin).
    pub origin: u32,
    /// One row per inode, in inode order.
    pub rows: Vec<InventoryRow>,
}

impl InventoryReply {
    /// Header plus, per row, the fixed entry and 8 bytes per component
    /// of each version vector it carries.
    pub fn wire_bytes(&self) -> usize {
        let vv_bytes = |vv: &VersionVector| 8 * vv.iter().count();
        RECOVERY_MSG_BYTES
            + self
                .rows
                .iter()
                .map(|r| {
                    INVENTORY_ENTRY_BYTES
                        + vv_bytes(&r.info.vv)
                        + r.pending.as_ref().map_or(0, vv_bytes)
                })
                .sum::<usize>()
    }
}

impl WireMsg for RecMsg {
    const SERVICE: &'static str = "recovery";

    fn kind(&self) -> &'static str {
        match self {
            RecMsg::Inventory { .. } => "RECOVERY inventory",
            RecMsg::Propagate => "RECOVERY propagate",
        }
    }

    fn reply_kind(&self) -> &'static str {
        match self {
            RecMsg::Inventory { .. } => "RECOVERY inventory resp",
            RecMsg::Propagate => "RECOVERY propagate ack",
        }
    }

    fn wire_bytes(&self) -> usize {
        RECOVERY_MSG_BYTES
    }

    /// Inventories are pure queries; propagations re-install the same
    /// version, so both tolerate re-issue.
    fn idempotent(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_the_historical_wire_format() {
        let inventory = RecMsg::Inventory {
            fg: FilegroupId(0),
            only: None,
        };
        assert_eq!(inventory.kind(), "RECOVERY inventory");
        assert_eq!(inventory.reply_kind(), "RECOVERY inventory resp");
        assert_eq!(RecMsg::Propagate.kind(), "RECOVERY propagate");
        assert_eq!(inventory.wire_bytes(), RECOVERY_MSG_BYTES);
        assert!(RecMsg::Propagate.idempotent());
        assert_eq!(<RecMsg as WireMsg>::SERVICE, "recovery");
    }
}
