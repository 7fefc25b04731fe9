//! Block granularity of write trapping and write collection.

use std::fmt;

/// The resolution at which writes are trapped and collected.
///
/// The paper uses a *block* of one word (4 bytes) for twinning (the comparison
/// against the twin is always word-by-word) and of one word or one double-word
/// (8 bytes) for compiler instrumentation, depending on the store granularity
/// of the application (Water and 3D-FFT store doubles, so EC-ci uses
/// double-word dirty bits for them and halves the number of bits scanned —
/// Section 8.1).
///
/// # Examples
///
/// ```
/// use dsm_mem::BlockGranularity;
///
/// assert_eq!(BlockGranularity::Word.bytes(), 4);
/// assert_eq!(BlockGranularity::DoubleWord.block_of(64), 8);
/// assert_eq!(BlockGranularity::Word.block_of(13), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum BlockGranularity {
    /// 4-byte blocks (the twinning comparison granularity).
    #[default]
    Word,
    /// 8-byte blocks (double-precision stores under compiler instrumentation).
    DoubleWord,
}

impl BlockGranularity {
    /// Size of one block in bytes.
    pub fn bytes(self) -> usize {
        match self {
            BlockGranularity::Word => 4,
            BlockGranularity::DoubleWord => 8,
        }
    }

    /// Block index containing byte offset `offset`.
    pub fn block_of(self, offset: usize) -> usize {
        offset / self.bytes()
    }
}

impl fmt::Display for BlockGranularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockGranularity::Word => f.write_str("word"),
            BlockGranularity::DoubleWord => f.write_str("double-word"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(BlockGranularity::Word.bytes(), 4);
        assert_eq!(BlockGranularity::DoubleWord.bytes(), 8);
    }

    #[test]
    fn block_math_rounds_up() {
        // The blocks covering `len` bytes include a last partial block.
        let covering = |g, len| {
            crate::MemRange::new(crate::RegionId::new(0), 0, len)
                .blocks(g)
                .len()
        };
        assert_eq!(covering(BlockGranularity::Word, 0), 0);
        assert_eq!(covering(BlockGranularity::Word, 1), 1);
        assert_eq!(covering(BlockGranularity::Word, 4), 1);
        assert_eq!(covering(BlockGranularity::Word, 5), 2);
        assert_eq!(covering(BlockGranularity::DoubleWord, 16), 2);
        assert_eq!(covering(BlockGranularity::DoubleWord, 17), 3);
    }

    #[test]
    fn default_is_word() {
        assert_eq!(BlockGranularity::default(), BlockGranularity::Word);
    }
}
