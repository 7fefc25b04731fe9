//! Virtual-memory page arithmetic.
//!
//! The paper's implementations use `mprotect` and `SIGSEGV` to trap accesses
//! to shared pages.  Nothing here protects memory: the engines in `dsm-core`
//! keep the state those faults would act on (twins, dirty bits, applied
//! intervals) per page, and charge each fault and protection change through
//! the cost model.  This module only maps byte offsets to pages.

/// Size of a virtual-memory page, matching the DECstation's 4 KiB pages.
pub const PAGE_SIZE: usize = 4096;

/// Page index containing byte offset `offset`.
///
/// ```
/// use dsm_mem::{page_of, PAGE_SIZE};
/// assert_eq!(page_of(0), 0);
/// assert_eq!(page_of(PAGE_SIZE), 1);
/// assert_eq!(page_of(PAGE_SIZE - 1), 0);
/// ```
pub fn page_of(offset: usize) -> usize {
    offset / PAGE_SIZE
}

/// Byte range of page `page` clamped to a region of `region_len` bytes.
///
/// ```
/// use dsm_mem::{page_range, PAGE_SIZE};
/// assert_eq!(page_range(1, PAGE_SIZE + 100), PAGE_SIZE..PAGE_SIZE + 100);
/// assert_eq!(page_range(0, 10 * PAGE_SIZE), 0..PAGE_SIZE);
/// ```
pub fn page_range(page: usize, region_len: usize) -> std::ops::Range<usize> {
    let start = (page * PAGE_SIZE).min(region_len);
    let end = ((page + 1) * PAGE_SIZE).min(region_len);
    start..end
}

/// Calls `f(page, byte_range)` for every page overlapping the byte span
/// `off..off + len`, with each range clamped to the span — the page-batched
/// walk behind the span access APIs (`read_into`/`write_from`), which trap
/// and validate once per page instead of once per word.
///
/// ```
/// use dsm_mem::{for_each_page, PAGE_SIZE};
/// let mut seen = Vec::new();
/// for_each_page(PAGE_SIZE - 8, 16, |page, range| seen.push((page, range)));
/// assert_eq!(
///     seen,
///     vec![(0, PAGE_SIZE - 8..PAGE_SIZE), (1, PAGE_SIZE..PAGE_SIZE + 8)]
/// );
/// ```
pub fn for_each_page(off: usize, len: usize, mut f: impl FnMut(usize, std::ops::Range<usize>)) {
    if len == 0 {
        return;
    }
    let end = off + len;
    for page in page_of(off)..=page_of(end - 1) {
        let lo = off.max(page * PAGE_SIZE);
        let hi = end.min((page + 1) * PAGE_SIZE);
        f(page, lo..hi);
    }
}

/// Number of pages needed to cover `len` bytes.
///
/// ```
/// use dsm_mem::{pages_in, PAGE_SIZE};
/// assert_eq!(pages_in(0), 0);
/// assert_eq!(pages_in(1), 1);
/// assert_eq!(pages_in(PAGE_SIZE + 1), 2);
/// ```
pub fn pages_in(len: usize) -> usize {
    len.div_ceil(PAGE_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_math() {
        assert_eq!(page_of(0), 0);
        assert_eq!(page_of(PAGE_SIZE - 1), 0);
        assert_eq!(page_of(PAGE_SIZE), 1);
        assert_eq!(pages_in(PAGE_SIZE * 3), 3);
        assert_eq!(pages_in(PAGE_SIZE * 3 + 1), 4);
    }

    #[test]
    fn page_range_clamps_to_region() {
        assert_eq!(page_range(0, 100), 0..100);
        assert_eq!(page_range(1, 100), 100..100);
        assert_eq!(page_range(2, 3 * PAGE_SIZE), 2 * PAGE_SIZE..3 * PAGE_SIZE);
    }
}
