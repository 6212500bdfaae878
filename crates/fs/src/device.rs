//! Transparent remote device access.
//!
//! "LOCUS provides for transparent use of remote devices in most cases.
//! … The only exception is remote access to raw, non-character devices"
//! (§2.4.2 and footnote). We model character devices: a device special
//! file names a device instance living at one site; reads and writes from
//! anywhere are shipped to that site.

use std::collections::VecDeque;

/// The character devices the simulation provides.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeviceKind {
    /// Discards writes, reads empty — `/dev/null`.
    Null,
    /// A terminal/printer-like device capturing output and optionally
    /// holding queued input.
    Console,
}

/// Operations on a device, executed at its home site.
#[derive(Clone, Debug)]
pub enum DeviceOp {
    /// Read up to `n` bytes of queued input.
    Read(usize),
    /// Write bytes to the device.
    Write(Vec<u8>),
}

/// Replies to [`DeviceOp`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeviceReply {
    /// Input bytes.
    Data(Vec<u8>),
    /// Bytes accepted.
    Wrote(usize),
}

/// The home-site state of one device instance.
#[derive(Debug)]
pub struct DeviceState {
    kind: DeviceKind,
    input: VecDeque<u8>,
    output: Vec<u8>,
}

impl DeviceState {
    /// A fresh device of the given kind.
    pub fn new(kind: DeviceKind) -> Self {
        DeviceState {
            kind,
            input: VecDeque::new(),
            output: Vec::new(),
        }
    }

    /// Everything written to the device so far.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// Executes one operation.
    pub fn apply(&mut self, op: DeviceOp) -> DeviceReply {
        match op {
            DeviceOp::Read(n) => match self.kind {
                DeviceKind::Null => DeviceReply::Data(Vec::new()),
                DeviceKind::Console => {
                    let take = n.min(self.input.len());
                    DeviceReply::Data(self.input.drain(..take).collect())
                }
            },
            DeviceOp::Write(bytes) => {
                let n = bytes.len();
                if self.kind == DeviceKind::Console {
                    self.output.extend_from_slice(&bytes);
                }
                DeviceReply::Wrote(n)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_swallows_everything() {
        let mut d = DeviceState::new(DeviceKind::Null);
        assert_eq!(
            d.apply(DeviceOp::Write(b"gone".to_vec())),
            DeviceReply::Wrote(4)
        );
        assert_eq!(d.apply(DeviceOp::Read(8)), DeviceReply::Data(vec![]));
        assert!(d.output().is_empty());
    }

    #[test]
    fn console_captures_output_and_serves_input() {
        let mut d = DeviceState::new(DeviceKind::Console);
        d.apply(DeviceOp::Write(b"hello ".to_vec()));
        d.apply(DeviceOp::Write(b"world".to_vec()));
        assert_eq!(d.output(), b"hello world");
        d.input.extend(b"typed");
        assert_eq!(
            d.apply(DeviceOp::Read(3)),
            DeviceReply::Data(b"typ".to_vec())
        );
        assert_eq!(
            d.apply(DeviceOp::Read(9)),
            DeviceReply::Data(b"ed".to_vec())
        );
    }
}
