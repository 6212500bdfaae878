//! Named pipes across the network.
//!
//! "In the current LOCUS system release, Unix named pipes and signals are
//! supported across the network. Their semantics in LOCUS are identical to
//! those seen on a single machine Unix system, even when processes are
//! resident on different machines" (§2.4.2). A pipe's transient buffer
//! lives at its (single) storage site; readers and writers anywhere reach
//! it through [`PipeOp`] messages.

use std::collections::VecDeque;

/// Capacity of a pipe buffer, as in historical Unix.
pub(crate) const PIPE_BUF: usize = 4096;

/// Operations on a pipe, executed at the pipe's storage site.
#[derive(Clone, Debug)]
pub enum PipeOp {
    /// Attach as reader (`true`) or writer (`false`).
    Attach(bool),
    /// Detach as reader (`true`) or writer (`false`).
    Detach(bool),
    /// Read up to `n` bytes.
    Read(usize),
    /// Write bytes.
    Write(Vec<u8>),
}

/// Replies to [`PipeOp`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum PipeReply {
    /// Attach/detach acknowledged.
    Done,
    /// Data read; empty with `eof == false` means "would block" (no data
    /// but writers remain), empty with `eof == true` means end of file.
    Data {
        /// Bytes delivered.
        bytes: Vec<u8>,
        /// Whether end-of-file was reached.
        eof: bool,
    },
    /// Bytes accepted; `accepted < requested` means the buffer filled.
    Wrote {
        /// Number of bytes buffered.
        accepted: usize,
    },
    /// Write on a pipe with no readers: the caller must raise SIGPIPE
    /// (delivered by the process layer).
    Broken,
}

/// The storage-site state of one named pipe.
#[derive(Debug, Default)]
pub(crate) struct PipeState {
    buf: VecDeque<u8>,
    readers: u32,
    writers: u32,
}

impl PipeState {
    /// Executes one operation.
    pub fn apply(&mut self, op: PipeOp) -> PipeReply {
        match op {
            PipeOp::Attach(reader) => {
                if reader {
                    self.readers += 1;
                } else {
                    self.writers += 1;
                }
                PipeReply::Done
            }
            PipeOp::Detach(reader) => {
                if reader {
                    self.readers = self.readers.saturating_sub(1);
                } else {
                    self.writers = self.writers.saturating_sub(1);
                }
                PipeReply::Done
            }
            PipeOp::Read(n) => {
                let take = n.min(self.buf.len());
                let bytes: Vec<u8> = self.buf.drain(..take).collect();
                let eof = bytes.is_empty() && self.writers == 0;
                PipeReply::Data { bytes, eof }
            }
            PipeOp::Write(data) => {
                if self.readers == 0 {
                    return PipeReply::Broken;
                }
                let room = PIPE_BUF - self.buf.len().min(PIPE_BUF);
                let accepted = data.len().min(room);
                self.buf.extend(&data[..accepted]);
                PipeReply::Wrote { accepted }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_fifo_order() {
        let mut p = PipeState::default();
        p.apply(PipeOp::Attach(true));
        p.apply(PipeOp::Attach(false));
        assert_eq!(
            p.apply(PipeOp::Write(b"abc".to_vec())),
            PipeReply::Wrote { accepted: 3 }
        );
        assert_eq!(
            p.apply(PipeOp::Read(2)),
            PipeReply::Data {
                bytes: b"ab".to_vec(),
                eof: false
            }
        );
        assert_eq!(
            p.apply(PipeOp::Read(10)),
            PipeReply::Data {
                bytes: b"c".to_vec(),
                eof: false
            }
        );
    }

    #[test]
    fn empty_read_blocks_until_writers_gone() {
        let mut p = PipeState::default();
        p.apply(PipeOp::Attach(true));
        p.apply(PipeOp::Attach(false));
        assert_eq!(
            p.apply(PipeOp::Read(4)),
            PipeReply::Data {
                bytes: vec![],
                eof: false
            },
            "writers remain: would-block"
        );
        p.apply(PipeOp::Detach(false));
        assert_eq!(
            p.apply(PipeOp::Read(4)),
            PipeReply::Data {
                bytes: vec![],
                eof: true
            },
            "no writers: EOF"
        );
    }

    #[test]
    fn write_without_readers_breaks() {
        let mut p = PipeState::default();
        p.apply(PipeOp::Attach(false));
        assert_eq!(p.apply(PipeOp::Write(b"x".to_vec())), PipeReply::Broken);
    }

    #[test]
    fn buffer_capacity_is_enforced() {
        let mut p = PipeState::default();
        p.apply(PipeOp::Attach(true));
        p.apply(PipeOp::Attach(false));
        let big = vec![0u8; PIPE_BUF + 100];
        assert_eq!(
            p.apply(PipeOp::Write(big)),
            PipeReply::Wrote { accepted: PIPE_BUF }
        );
        assert_eq!(p.buf.len(), PIPE_BUF);
    }
}
