//! Node (simulated processor) identifiers.

use std::fmt;

/// Identifier of a simulated processor ("node") in the cluster.
///
/// The paper's experiments use 8 DECstation nodes; any number of nodes is
/// supported here.  Node ids are dense and start at zero.
///
/// # Examples
///
/// ```
/// use dsm_sim::NodeId;
///
/// let n = NodeId::new(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(format!("{n}"), "P3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a dense index.
    pub fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the dense index of this node as `usize` (convenient for
    /// indexing per-node vectors).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterator over the first `n` node ids (`P0..Pn-1`).
    ///
    /// ```
    /// use dsm_sim::NodeId;
    /// let all: Vec<_> = NodeId::all(3).collect();
    /// assert_eq!(all.len(), 3);
    /// assert_eq!(all[2].index(), 2);
    /// ```
    pub fn all(n: usize) -> impl Iterator<Item = NodeId> {
        (0..n as u32).map(NodeId)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u32 {
    fn from(v: NodeId) -> Self {
        v.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_u32() {
        let n = NodeId::from(7u32);
        assert_eq!(u32::from(n), 7);
        assert_eq!(n.index(), 7);
    }

    #[test]
    fn display() {
        assert_eq!(NodeId::new(0).to_string(), "P0");
        assert_eq!(NodeId::new(12).to_string(), "P12");
    }

    #[test]
    fn ordering_is_by_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::new(4), NodeId::new(4));
    }

    #[test]
    fn all_enumerates_dense_ids() {
        let v: Vec<_> = NodeId::all(4).map(|n| n.index()).collect();
        assert_eq!(v, vec![0, 1, 2, 3]);
    }
}
