//! Vector clocks over execution intervals (LRC).
//!
//! LRC divides each process's execution into intervals and represents the
//! happens-before partial order between intervals with a per-interval vector:
//! entry `q` of processor `p`'s vector names the most recent interval of `q`
//! that precedes `p`'s current interval (Section 5.1 of the paper).

use std::cmp::Ordering;
use std::fmt;

use dsm_sim::NodeId;

/// Result of comparing two vector clocks under the interval partial order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockOrd {
    /// The clocks are identical.
    Equal,
    /// `self` happens-before `other` (every entry ≤, at least one <).
    Before,
    /// `other` happens-before `self`.
    After,
    /// Neither dominates the other: the intervals are concurrent.
    Concurrent,
}

/// A vector of interval indices, one entry per processor.
///
/// # Examples
///
/// ```
/// use dsm_mem::{ClockOrd, VectorClock};
/// use dsm_sim::NodeId;
///
/// let mut a = VectorClock::new(3);
/// let mut b = VectorClock::new(3);
/// a.bump(NodeId::new(0));
/// assert_eq!(a.compare(&b), ClockOrd::After);
/// b.bump(NodeId::new(1));
/// assert_eq!(a.compare(&b), ClockOrd::Concurrent);
/// b.merge_max(&a);
/// assert!(b.dominates(&a));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct VectorClock {
    entries: Vec<u32>,
}

impl VectorClock {
    /// Creates a clock of `nprocs` entries, all zero (no intervals seen).
    pub fn new(nprocs: usize) -> Self {
        VectorClock {
            entries: vec![0; nprocs],
        }
    }

    /// Number of processors covered by the clock.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the clock has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The most recent interval index of `node` known to this clock.
    pub fn entry(&self, node: NodeId) -> u32 {
        self.entries.get(node.index()).copied().unwrap_or(0)
    }

    /// Sets the entry for `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_entry(&mut self, node: NodeId, value: u32) {
        self.entries[node.index()] = value;
    }

    /// Increments the entry for `node` and returns the new value (used when a
    /// processor starts a new interval at a release or acquire).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn bump(&mut self, node: NodeId) -> u32 {
        self.entries[node.index()] += 1;
        self.entries[node.index()]
    }

    /// Overwrites this clock with `other`'s entries, reusing the existing
    /// allocation — the hot-path replacement for `clone()` when the
    /// destination clock already exists (grant and release paths run once
    /// per lock operation and must not allocate).
    pub fn copy_from(&mut self, other: &VectorClock) {
        self.entries.clone_from(&other.entries);
    }

    /// Pairwise maximum with `other` (the consistency action at an acquire).
    pub fn merge_max(&mut self, other: &VectorClock) {
        if other.entries.len() > self.entries.len() {
            self.entries.resize(other.entries.len(), 0);
        }
        for (mine, theirs) in self.entries.iter_mut().zip(other.entries.iter()) {
            *mine = (*mine).max(*theirs);
        }
    }

    /// True if every entry of `self` is ≥ the corresponding entry of `other`
    /// (i.e. `self` has seen everything `other` has).
    pub fn dominates(&self, other: &VectorClock) -> bool {
        let n = self.entries.len().max(other.entries.len());
        (0..n).all(|i| {
            self.entries.get(i).copied().unwrap_or(0) >= other.entries.get(i).copied().unwrap_or(0)
        })
    }

    /// Compares two clocks under the partial order.
    pub fn compare(&self, other: &VectorClock) -> ClockOrd {
        let ge = self.dominates(other);
        let le = other.dominates(self);
        match (ge, le) {
            (true, true) => ClockOrd::Equal,
            (true, false) => ClockOrd::After,
            (false, true) => ClockOrd::Before,
            (false, false) => ClockOrd::Concurrent,
        }
    }

    /// Size of the clock when transmitted in a message (4 bytes per entry).
    pub fn wire_size(&self) -> usize {
        self.entries.len() * 4
    }

    /// The raw entries.
    pub fn entries(&self) -> &[u32] {
        &self.entries
    }
}

impl PartialOrd for VectorClock {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        match self.compare(other) {
            ClockOrd::Equal => Some(Ordering::Equal),
            ClockOrd::Before => Some(Ordering::Less),
            ClockOrd::After => Some(Ordering::Greater),
            ClockOrd::Concurrent => None,
        }
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn fresh_clocks_are_equal() {
        let a = VectorClock::new(4);
        let b = VectorClock::new(4);
        assert_eq!(a.compare(&b), ClockOrd::Equal);
        assert_eq!(a.partial_cmp(&b), Some(Ordering::Equal));
    }

    #[test]
    fn bump_orders_clocks() {
        let mut a = VectorClock::new(2);
        let b = a.clone();
        assert_eq!(a.bump(n(0)), 1);
        assert_eq!(a.compare(&b), ClockOrd::After);
        assert_eq!(b.compare(&a), ClockOrd::Before);
        assert_eq!(b.partial_cmp(&a), Some(Ordering::Less));
    }

    #[test]
    fn concurrent_clocks() {
        let mut a = VectorClock::new(2);
        let mut b = VectorClock::new(2);
        a.bump(n(0));
        b.bump(n(1));
        assert_eq!(a.compare(&b), ClockOrd::Concurrent);
        assert_eq!(a.partial_cmp(&b), None);
    }

    #[test]
    fn merge_max_is_least_upper_bound() {
        let mut a = VectorClock::new(3);
        let mut b = VectorClock::new(3);
        a.set_entry(n(0), 5);
        a.set_entry(n(2), 1);
        b.set_entry(n(1), 7);
        b.set_entry(n(2), 3);
        let mut m = a.clone();
        m.merge_max(&b);
        assert!(m.dominates(&a));
        assert!(m.dominates(&b));
        assert_eq!(m.entries(), &[5, 7, 3]);
    }

    #[test]
    fn copy_from_matches_clone_without_reallocating() {
        let mut src = VectorClock::new(4);
        src.set_entry(n(2), 9);
        let mut dst = VectorClock::new(4);
        dst.set_entry(n(0), 3);
        let buf = dst.entries.as_ptr();
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert_eq!(
            dst.entries.as_ptr(),
            buf,
            "same-length copy must reuse the buffer"
        );
    }

    #[test]
    fn entry_out_of_range_reads_zero() {
        let a = VectorClock::new(2);
        assert_eq!(a.entry(n(9)), 0);
    }

    #[test]
    fn wire_size_and_display() {
        let mut a = VectorClock::new(3);
        a.set_entry(n(1), 2);
        assert_eq!(a.wire_size(), 12);
        assert_eq!(a.to_string(), "<0,2,0>");
    }
}
