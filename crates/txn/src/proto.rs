//! Typed wire protocol for transaction control.
//!
//! Remote subtransaction begin and commit ride the shared
//! [`RpcEngine`](locus_net::RpcEngine); this module is the only place
//! the transaction protocol's kind labels are spelled.

use locus_net::WireMsg;

/// Wire size of a transaction-control message.
pub const CTRL_BYTES: usize = 80;

/// One transaction-control message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TxnMsg {
    /// Parent site → subtransaction site: begin a subtransaction there;
    /// the reply acknowledges it.
    Begin,
    /// Subtransaction site → parent site (one-way): the subtransaction
    /// committed and hands its updates and locks upward.
    Commit,
}

impl WireMsg for TxnMsg {
    const SERVICE: &'static str = "txn";

    fn kind(&self) -> &'static str {
        match self {
            TxnMsg::Begin => "TXN begin",
            TxnMsg::Commit => "TXN commit",
        }
    }

    fn reply_kind(&self) -> &'static str {
        match self {
            TxnMsg::Begin => "TXN begin ack",
            TxnMsg::Commit => "TXN commit ack",
        }
    }

    fn wire_bytes(&self) -> usize {
        CTRL_BYTES
    }

    /// Neither message may be re-issued after a lost reply: a second
    /// begin would allocate a second subtransaction.
    fn idempotent(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_the_historical_wire_format() {
        assert_eq!(TxnMsg::Begin.kind(), "TXN begin");
        assert_eq!(TxnMsg::Begin.reply_kind(), "TXN begin ack");
        assert_eq!(TxnMsg::Commit.kind(), "TXN commit");
        assert_eq!(TxnMsg::Begin.wire_bytes(), 80);
        assert_eq!(<TxnMsg as WireMsg>::SERVICE, "txn");
    }
}
