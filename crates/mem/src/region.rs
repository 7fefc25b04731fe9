//! Shared-memory regions and address ranges.

use std::fmt;

use crate::{BlockGranularity, PAGE_SIZE};

/// Identifier of a shared-memory region (an allocation in the shared address
/// space, e.g. "the SOR matrix" or "the IS bucket array").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RegionId(u32);

impl RegionId {
    /// Creates a region id from a dense index.
    pub fn new(index: u32) -> Self {
        RegionId(index)
    }

    /// Dense index, convenient for indexing per-region vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// Static description of a shared region: its size, its human-readable name
/// and the block granularity its writes are trapped at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionDesc {
    /// The region's identifier.
    pub id: RegionId,
    /// Human-readable name (used in statistics and debugging output).
    pub name: String,
    /// Length in bytes.
    pub len: usize,
    /// Block granularity for write trapping/collection in this region.
    pub granularity: BlockGranularity,
}

impl RegionDesc {
    /// Creates a region description.
    pub fn new(
        id: RegionId,
        name: impl Into<String>,
        len: usize,
        granularity: BlockGranularity,
    ) -> Self {
        RegionDesc {
            id,
            name: name.into(),
            len,
            granularity,
        }
    }

    /// The range covering the whole region.
    pub fn whole(&self) -> MemRange {
        MemRange::new(self.id, 0, self.len)
    }
}

/// A byte range within one shared region.
///
/// Ranges are the unit of EC's *binding*: the data associated with a lock is a
/// set of (possibly non-contiguous) `MemRange`s — the paper notes that 3D-FFT
/// "requires support for binding non-contiguous pieces of memory to a single
/// lock for efficiency" (Section 3.3).
///
/// # Examples
///
/// ```
/// use dsm_mem::{MemRange, RegionId};
///
/// let r = MemRange::new(RegionId::new(0), 100, 50);
/// assert!(r.contains(120));
/// assert!(!r.contains(150));
/// assert!(r.overlaps(&MemRange::new(RegionId::new(0), 140, 10)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRange {
    /// The region the range lies in.
    pub region: RegionId,
    /// Byte offset of the start of the range within the region.
    pub start: usize,
    /// Length of the range in bytes.
    pub len: usize,
}

impl MemRange {
    /// Creates a range.
    pub fn new(region: RegionId, start: usize, len: usize) -> Self {
        MemRange { region, start, len }
    }

    /// One-past-the-end byte offset.
    pub fn end(&self) -> usize {
        self.start + self.len
    }

    /// True if the byte offset `offset` lies inside the range.
    pub fn contains(&self, offset: usize) -> bool {
        offset >= self.start && offset < self.end()
    }

    /// True if the two ranges share at least one byte (and are in the same
    /// region).
    pub fn overlaps(&self, other: &MemRange) -> bool {
        self.region == other.region && self.start < other.end() && other.start < self.end()
    }

    /// True if the range is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Page indices (within the region) covered by this range.
    pub fn pages(&self) -> std::ops::Range<usize> {
        if self.is_empty() {
            return 0..0;
        }
        (self.start / PAGE_SIZE)..((self.end() - 1) / PAGE_SIZE + 1)
    }

    /// Block indices (within the region) covered by this range.
    pub fn blocks(&self, granularity: BlockGranularity) -> std::ops::Range<usize> {
        if self.is_empty() {
            return 0..0;
        }
        granularity.block_of(self.start)..(granularity.block_of(self.end() - 1) + 1)
    }
}

impl fmt::Display for MemRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}..{}]", self.region, self.start, self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(i: u32) -> RegionId {
        RegionId::new(i)
    }

    #[test]
    fn region_desc_math() {
        let d = RegionDesc::new(rid(1), "matrix", PAGE_SIZE * 2 + 1, BlockGranularity::Word);
        assert_eq!(crate::pages_in(d.len), 3);
        assert_eq!(
            d.whole().blocks(d.granularity).len(),
            (PAGE_SIZE * 2 + 1).div_ceil(4)
        );
        assert_eq!(d.whole().len, d.len);
    }

    #[test]
    fn range_contains_and_overlaps() {
        let a = MemRange::new(rid(0), 10, 10);
        let b = MemRange::new(rid(0), 19, 5);
        let c = MemRange::new(rid(0), 20, 5);
        let d = MemRange::new(rid(1), 10, 10);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(!a.overlaps(&d));
        assert!(a.contains(10));
        assert!(a.contains(19));
        assert!(!a.contains(20));
    }

    #[test]
    fn page_and_block_ranges() {
        let r = MemRange::new(rid(0), PAGE_SIZE - 4, 8);
        assert_eq!(r.pages(), 0..2);
        assert_eq!(
            r.blocks(BlockGranularity::Word),
            (PAGE_SIZE / 4 - 1)..(PAGE_SIZE / 4 + 1)
        );
        let empty = MemRange::new(rid(0), 100, 0);
        assert!(empty.is_empty());
        assert_eq!(empty.pages(), 0..0);
        assert_eq!(empty.blocks(BlockGranularity::Word), 0..0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(MemRange::new(rid(2), 0, 16).to_string(), "R2[0..16]");
        assert_eq!(rid(3).to_string(), "R3");
    }
}
