//! The simulated block device.
//!
//! Blocks hold either file data or an index of block numbers (the
//! "indirect pages that contain page pointers" of §2.3.6). I/O cost is
//! accumulated on an internal meter the filesystem drains onto the global
//! virtual clock.

use locus_types::{Errno, SysResult, Ticks};

/// Bytes per page/block — 1 KiB, the era-appropriate Unix block size.
pub const PAGE_SIZE: usize = 1024;

/// A physical block number within one device.
pub type BlockNo = u32;

/// Contents of one allocated block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlockContent {
    /// File data, always exactly [`PAGE_SIZE`] bytes.
    Data(Box<[u8]>),
    /// An indirect block: a table of block numbers.
    Index(Vec<Option<BlockNo>>),
}

impl BlockContent {
    /// A zero-filled data block.
    pub fn zeroed() -> Self {
        BlockContent::Data(vec![0u8; PAGE_SIZE].into_boxed_slice())
    }

    /// Builds a data block from up to [`PAGE_SIZE`] bytes, zero padded.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds [`PAGE_SIZE`]; callers slice page-sized
    /// chunks before writing.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= PAGE_SIZE, "page overflow");
        let mut buf = vec![0u8; PAGE_SIZE];
        buf[..bytes.len()].copy_from_slice(bytes);
        BlockContent::Data(buf.into_boxed_slice())
    }

    /// The data bytes, or an error if this is an index block.
    pub fn data(&self) -> SysResult<&[u8]> {
        match self {
            BlockContent::Data(d) => Ok(d),
            BlockContent::Index(_) => Err(Errno::Eio),
        }
    }
}

/// Cost constants for a simulated early-1980s Winchester disk.
#[derive(Clone, Copy, Debug)]
pub struct DiskParams {
    /// Cost of reading one block from the platter.
    pub read_cost: Ticks,
    /// Cost of writing one block.
    pub write_cost: Ticks,
}

impl Default for DiskParams {
    fn default() -> Self {
        // ~25 ms average access on an RK07-class disk.
        DiskParams {
            read_cost: Ticks::millis(25),
            write_cost: Ticks::millis(25),
        }
    }
}

/// A fixed-capacity device of blocks with a free list and an I/O cost
/// meter. The block table grows on allocation: blocks above the
/// high-water mark (`blocks.len()`) have never been handed out and cost
/// no memory until they are.
#[derive(Debug)]
pub struct BlockDevice {
    blocks: Vec<Option<BlockContent>>,
    /// Recycled blocks below the high-water mark, reused last-freed first.
    free: Vec<BlockNo>,
    nblocks: u32,
    params: DiskParams,
    io_cost: Ticks,
    reads: u64,
    writes: u64,
}

impl BlockDevice {
    /// A device with `nblocks` free blocks.
    pub fn new(nblocks: u32, params: DiskParams) -> Self {
        BlockDevice {
            blocks: Vec::new(),
            free: Vec::new(),
            nblocks,
            params,
            io_cost: Ticks::ZERO,
            reads: 0,
            writes: 0,
        }
    }

    /// Number of free blocks remaining.
    pub fn free_blocks(&self) -> usize {
        self.free.len() + (self.nblocks as usize - self.blocks.len())
    }

    /// Allocates a block and writes `content` to it: the most recently
    /// freed block if there is one, else the lowest never-used block.
    pub fn alloc(&mut self, content: BlockContent) -> SysResult<BlockNo> {
        let bno = match self.free.pop() {
            Some(bno) => {
                self.blocks[bno as usize] = Some(content);
                bno
            }
            None if self.blocks.len() < self.nblocks as usize => {
                self.blocks.push(Some(content));
                (self.blocks.len() - 1) as BlockNo
            }
            None => return Err(Errno::Enospc),
        };
        self.charge_write();
        Ok(bno)
    }

    /// Frees a block. Freeing an unallocated block is an I/O error (it
    /// indicates filesystem corruption, which the tests assert never
    /// happens).
    pub fn free(&mut self, bno: BlockNo) -> SysResult<()> {
        let slot = self.blocks.get_mut(bno as usize).ok_or(Errno::Eio)?;
        if slot.take().is_none() {
            return Err(Errno::Eio);
        }
        self.free.push(bno);
        Ok(())
    }

    /// Reads a block.
    pub fn read(&mut self, bno: BlockNo) -> SysResult<BlockContent> {
        let content = self
            .blocks
            .get(bno as usize)
            .and_then(|b| b.as_ref())
            .cloned()
            .ok_or(Errno::Eio)?;
        self.charge_read();
        Ok(content)
    }

    /// Overwrites an allocated block in place.
    pub fn write(&mut self, bno: BlockNo, content: BlockContent) -> SysResult<()> {
        let slot = self.blocks.get_mut(bno as usize).ok_or(Errno::Eio)?;
        if slot.is_none() {
            return Err(Errno::Eio);
        }
        *slot = Some(content);
        self.charge_write();
        Ok(())
    }

    /// Whether the block is currently allocated.
    pub fn is_allocated(&self, bno: BlockNo) -> bool {
        self.blocks
            .get(bno as usize)
            .map(|b| b.is_some())
            .unwrap_or(false)
    }

    /// Drains the accumulated I/O cost meter.
    pub fn take_io_cost(&mut self) -> Ticks {
        std::mem::take(&mut self.io_cost)
    }

    /// Lifetime `(reads, writes)` counters.
    pub fn io_counts(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }

    fn charge_read(&mut self) {
        self.reads += 1;
        self.io_cost += self.params.read_cost;
    }

    fn charge_write(&mut self) {
        self.writes += 1;
        self.io_cost += self.params.write_cost;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> BlockDevice {
        BlockDevice::new(8, DiskParams::default())
    }

    #[test]
    fn alloc_write_read_roundtrip() {
        let mut d = dev();
        let b = d.alloc(BlockContent::from_bytes(b"hello")).unwrap();
        let c = d.read(b).unwrap();
        assert_eq!(&c.data().unwrap()[..5], b"hello");
    }

    #[test]
    fn exhaustion_returns_enospc() {
        let mut d = BlockDevice::new(2, DiskParams::default());
        d.alloc(BlockContent::zeroed()).unwrap();
        d.alloc(BlockContent::zeroed()).unwrap();
        assert_eq!(d.alloc(BlockContent::zeroed()), Err(Errno::Enospc));
    }

    #[test]
    fn free_recycles_blocks() {
        let mut d = BlockDevice::new(1, DiskParams::default());
        let b = d.alloc(BlockContent::zeroed()).unwrap();
        d.free(b).unwrap();
        assert_eq!(d.free_blocks(), 1);
        assert!(d.alloc(BlockContent::zeroed()).is_ok());
    }

    #[test]
    fn reuse_is_lifo_then_lowest_unused() {
        let mut d = dev();
        let z = || BlockContent::zeroed();
        let got: Vec<BlockNo> = (0..4).map(|_| d.alloc(z()).unwrap()).collect();
        assert_eq!(got, [0, 1, 2, 3]);
        d.free(1).unwrap();
        d.free(3).unwrap();
        assert_eq!(d.free_blocks(), 6);
        let got: Vec<BlockNo> = (0..4).map(|_| d.alloc(z()).unwrap()).collect();
        assert_eq!(got, [3, 1, 4, 5], "last freed first, then above the high-water mark");
        assert!(!d.is_allocated(6));
        assert_eq!(d.free(7), Err(Errno::Eio), "never-used block is not allocated");
    }

    #[test]
    fn double_free_is_an_error() {
        let mut d = dev();
        let b = d.alloc(BlockContent::zeroed()).unwrap();
        d.free(b).unwrap();
        assert_eq!(d.free(b), Err(Errno::Eio));
    }

    #[test]
    fn reading_unallocated_block_fails() {
        let mut d = dev();
        assert_eq!(d.read(3), Err(Errno::Eio));
    }

    #[test]
    fn io_cost_accumulates_and_drains() {
        let mut d = dev();
        let b = d.alloc(BlockContent::zeroed()).unwrap();
        d.read(b).unwrap();
        let cost = d.take_io_cost();
        assert_eq!(cost, Ticks::millis(50)); // one write + one read
        assert_eq!(d.take_io_cost(), Ticks::ZERO);
        assert_eq!(d.io_counts(), (1, 1));
    }

    #[test]
    fn page_overflow_guard() {
        let too_big = vec![0u8; PAGE_SIZE + 1];
        let r = std::panic::catch_unwind(|| BlockContent::from_bytes(&too_big));
        assert!(r.is_err());
    }
}
