//! Typed wire protocol for recovery (§4).
//!
//! Inventory gathering, installs and conflict marks ride the shared
//! [`RpcEngine`](locus_net::RpcEngine), so each retries under the policy
//! instead of failing on the first injected drop. A copy's content moves
//! in fs messages: recovery reads a copy as a propagation pull does, and
//! the other containers pull a merged version after its commit
//! notification. This module is the only place the recovery protocol's
//! kind labels and wire sizes are spelled.

use locus_fs::proto::InodeInfo;
use locus_net::WireMsg;
use locus_types::{FilegroupId, Gfid, Ino, SiteId, VersionVector};

/// Wire size charged per recovery control message, and the fixed header
/// of an inventory reply.
pub(crate) const RECOVERY_MSG_BYTES: usize = 192;

/// Wire size of one inventory row before its version vector: inode
/// number, type, permissions, owner, size, link count, mtime, the
/// deleted / conflict / data-here flags and the replica list.
pub const INVENTORY_ENTRY_BYTES: usize = 48;

/// One recovery message.
#[derive(Clone, Debug)]
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
    /// Commit a reconciled version at a data replica (§4.3); the reply
    /// is the installed inode information.
    Install {
        /// The file.
        gfid: Gfid,
        /// The content, or `None` for a tombstone.
        bytes: Option<Vec<u8>>,
        /// Permissions, owner, link count and replica list to install.
        template: InodeInfo,
        /// The reconciled version vector.
        vv: VersionVector,
    },
    /// Set or clear the conflict mark on the receiving container's own
    /// copy (§4.6).
    Mark {
        /// The file.
        gfid: Gfid,
        /// Set (`true`) or clear.
        conflict: bool,
    },
}

/// One inode of a container's inventory.
#[derive(Clone, Debug)]
pub(crate) struct InventoryRow {
    /// The answering container (the reply's sender: no wire bytes).
    pub site: SiteId,
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
            RecMsg::Install { .. } => "RECOVERY install",
            RecMsg::Mark { .. } => "RECOVERY mark",
        }
    }

    fn reply_kind(&self) -> &'static str {
        match self {
            RecMsg::Inventory { .. } => "RECOVERY inventory resp",
            RecMsg::Install { .. } => "RECOVERY install ack",
            RecMsg::Mark { .. } => "RECOVERY mark ack",
        }
    }

    /// The fixed header, plus the content an install carries.
    fn wire_bytes(&self) -> usize {
        match self {
            RecMsg::Install {
                bytes: Some(bytes), ..
            } => RECOVERY_MSG_BYTES + bytes.len(),
            _ => RECOVERY_MSG_BYTES,
        }
    }

    /// Inventories are pure queries; an install commits the same version
    /// again and a mark sets the same flag again, so all tolerate
    /// re-issue.
    fn idempotent(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_types::{FileType, Perms, Ticks};

    #[test]
    fn labels_match_the_historical_wire_format() {
        let inventory = RecMsg::Inventory {
            fg: FilegroupId(0),
            only: None,
        };
        assert_eq!(inventory.kind(), "RECOVERY inventory");
        assert_eq!(inventory.reply_kind(), "RECOVERY inventory resp");
        assert_eq!(inventory.wire_bytes(), RECOVERY_MSG_BYTES);
        assert!(inventory.idempotent());
        assert_eq!(<RecMsg as WireMsg>::SERVICE, "recovery");
    }

    #[test]
    fn an_install_carries_its_content() {
        let gfid = Gfid::new(FilegroupId(0), Ino(1));
        let install = |bytes| RecMsg::Install {
            gfid,
            bytes,
            template: InodeInfo {
                ftype: FileType::Untyped,
                perms: Perms::FILE_DEFAULT,
                owner: 0,
                size: 0,
                nlink: 1,
                vv: VersionVector::new(),
                mtime: Ticks::ZERO,
                deleted: false,
                conflict: false,
                replicas: vec![0],
            },
            vv: VersionVector::new(),
        };
        assert_eq!(
            install(Some(vec![0; 100])).wire_bytes(),
            RECOVERY_MSG_BYTES + 100
        );
        assert_eq!(install(None).wire_bytes(), RECOVERY_MSG_BYTES);
        let mark = RecMsg::Mark {
            gfid,
            conflict: true,
        };
        assert_eq!(
            (mark.kind(), mark.reply_kind()),
            ("RECOVERY mark", "RECOVERY mark ack")
        );
    }
}
