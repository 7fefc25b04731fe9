//! Per-node and cluster-wide execution statistics.
//!
//! These counters are the raw material for the paper's analysis: execution
//! time comes from the simulated clocks, while message counts and data volumes
//! (e.g. "LRC-diff sends 29.9 MB for Barnes-Hut while EC-time sends 9.5 MB")
//! come straight from these statistics.

use std::fmt;

use crate::{Charge, MsgKind};

/// Counters collected by a single simulated node over one application run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeStats {
    msgs: [u64; MsgKind::ALL.len()],
    bytes: [u64; MsgKind::ALL.len()],
    /// Page-protection faults taken (twinning write trapping, LRC access
    /// misses are counted separately as `access_misses`).
    pub write_faults: u64,
    /// Access misses (reads or writes to an invalid page under LRC).
    pub access_misses: u64,
    /// Twins created.
    pub twins_created: u64,
    /// Words copied while creating twins.
    pub twin_words: u64,
    /// Diffs created.
    pub diffs_created: u64,
    /// Modified words encoded into diffs.
    pub diff_words: u64,
    /// Diffs applied to local memory.
    pub diffs_applied: u64,
    /// Words applied into local memory from diffs or update payloads.
    pub words_applied: u64,
    /// Timestamp (or dirty-bit) slots scanned during write collection.
    pub ts_blocks_scanned: u64,
    /// Page-level dirty bits checked (hierarchical LRC-ci scheme).
    pub page_bits_checked: u64,
    /// Instrumented shared stores executed (compiler-instrumentation trapping).
    pub instrumented_writes: u64,
    /// Shared-memory accesses issued by the application.
    pub shared_accesses: u64,
    /// Lock acquires performed.
    pub lock_acquires: u64,
    /// Lock acquires that were granted locally without any message.
    pub local_lock_acquires: u64,
    /// Barriers participated in.
    pub barriers: u64,
    /// Application work units charged.
    pub work_units: u64,
    /// Write notices received (LRC).
    pub write_notices_received: u64,
    /// Pages invalidated on receipt of write notices (LRC).
    pub pages_invalidated: u64,
    /// Buffer-pool takes served by recycling a pooled buffer (pool hits).
    /// Filled in by the runtime from the node's `BufferPool` after the run.
    pub pool_recycled: u64,
    /// Buffer-pool takes that had to allocate fresh (pool misses).
    pub pool_allocated: u64,
}

impl NodeStats {
    /// Creates an empty statistics record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one charge: the message records and counters it stands for.
    /// Checkpoint work and the bare mechanisms (interrupt, release
    /// bookkeeping, `mprotect`, diff compare) count nothing.
    #[inline]
    pub fn count(&mut self, charge: Charge) {
        match charge {
            Charge::LockRequest(b) => self.record_msg(MsgKind::LockRequest, b),
            Charge::LockForward(b) => self.record_msg(MsgKind::LockForward, b),
            Charge::LockGrant(b) => self.record_msg(MsgKind::LockGrant, b),
            Charge::BarrierArrival(b) => self.record_msg(MsgKind::BarrierArrival, b),
            Charge::BarrierDeparture(b) => self.record_msg(MsgKind::BarrierRelease, b),
            Charge::HomeFlush(b) => self.record_msg(MsgKind::DataReply, b),
            Charge::MissRoundTrip(req, reply) => {
                self.record_msg(MsgKind::DataRequest, req);
                self.record_msg(MsgKind::DataReply, reply);
            }
            Charge::Acquire => self.lock_acquires += 1,
            Charge::Barrier => self.barriers += 1,
            Charge::AccessMiss => {
                self.access_misses += 1;
                self.pages_invalidated += 1;
            }
            Charge::WriteFault(words) => {
                self.write_faults += 1;
                self.twins_created += 1;
                self.twin_words += words;
            }
            Charge::Twin(words) => {
                self.twins_created += 1;
                self.twin_words += words;
            }
            Charge::Apply(words, _) => self.words_applied += words,
            Charge::TsScan(blocks) => self.ts_blocks_scanned += blocks,
            Charge::PageBitChecks(pages) => self.page_bits_checked += pages,
            Charge::InstrumentedWrites(stores, _) => self.instrumented_writes += stores,
            Charge::Compute(work) => self.work_units += work.units(),
            Charge::SharedAccess(n) => self.shared_accesses += n,
            Charge::Interrupt
            | Charge::Release
            | Charge::Mprotect(_)
            | Charge::DiffCompare(_)
            | Charge::Checkpoint(_) => {}
        }
    }

    /// Records one outbound message of the given kind and payload size.
    pub(crate) fn record_msg(&mut self, kind: MsgKind, payload_bytes: usize) {
        self.msgs[kind.index()] += 1;
        self.bytes[kind.index()] += payload_bytes as u64;
    }

    /// Total messages sent by this node.
    pub fn messages(&self) -> u64 {
        self.msgs.iter().sum()
    }

    /// Total payload bytes sent by this node.
    pub fn bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Messages of one kind.
    pub fn messages_of(&self, kind: MsgKind) -> u64 {
        self.msgs[kind.index()]
    }

    /// Payload bytes of one kind.
    pub fn bytes_of(&self, kind: MsgKind) -> u64 {
        self.bytes[kind.index()]
    }

    /// Merges another node's counters into this one (used for cluster totals).
    pub fn merge(&mut self, other: &NodeStats) {
        for i in 0..MsgKind::ALL.len() {
            self.msgs[i] += other.msgs[i];
            self.bytes[i] += other.bytes[i];
        }
        self.write_faults += other.write_faults;
        self.access_misses += other.access_misses;
        self.twins_created += other.twins_created;
        self.twin_words += other.twin_words;
        self.diffs_created += other.diffs_created;
        self.diff_words += other.diff_words;
        self.diffs_applied += other.diffs_applied;
        self.words_applied += other.words_applied;
        self.ts_blocks_scanned += other.ts_blocks_scanned;
        self.page_bits_checked += other.page_bits_checked;
        self.instrumented_writes += other.instrumented_writes;
        self.shared_accesses += other.shared_accesses;
        self.lock_acquires += other.lock_acquires;
        self.local_lock_acquires += other.local_lock_acquires;
        self.barriers += other.barriers;
        self.work_units += other.work_units;
        self.write_notices_received += other.write_notices_received;
        self.pages_invalidated += other.pages_invalidated;
        self.pool_recycled += other.pool_recycled;
        self.pool_allocated += other.pool_allocated;
    }
}

/// Aggregated statistics for a whole cluster run, one entry per node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterStats {
    nodes: Vec<NodeStats>,
}

impl ClusterStats {
    /// Builds cluster statistics from per-node records.
    pub fn from_nodes(nodes: Vec<NodeStats>) -> Self {
        ClusterStats { nodes }
    }

    /// Number of nodes in the run.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Per-node statistics.
    pub fn node(&self, index: usize) -> &NodeStats {
        &self.nodes[index]
    }

    /// Iterator over per-node statistics.
    pub fn iter(&self) -> impl Iterator<Item = &NodeStats> {
        self.nodes.iter()
    }

    /// Sum of all nodes' counters.
    pub fn total(&self) -> NodeStats {
        let mut total = NodeStats::new();
        for n in &self.nodes {
            total.merge(n);
        }
        total
    }

    /// Builds a compact traffic report (the quantities quoted in Section 7.2
    /// of the paper: total messages and total data transferred).
    pub fn traffic(&self) -> TrafficReport {
        let t = self.total();
        TrafficReport {
            messages: t.messages(),
            bytes: t.bytes(),
            sync_messages: MsgKind::ALL
                .iter()
                .filter(|k| k.is_synchronization())
                .map(|k| t.messages_of(*k))
                .sum(),
            data_messages: MsgKind::ALL
                .iter()
                .filter(|k| !k.is_synchronization())
                .map(|k| t.messages_of(*k))
                .sum(),
            access_misses: t.access_misses,
            write_faults: t.write_faults,
            diffs_created: t.diffs_created,
            lock_acquires: t.lock_acquires,
            barriers: t.barriers,
            lock_transfers: 0,
        }
    }
}

/// Per-region aggregate of the page sharing statistics, for the bench bins'
/// JSON rows and the adaptive policy's observability.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegionSharing {
    /// Region name.
    pub region: String,
    /// Pages in the region.
    pub pages: u64,
    /// Publishes summed over the region's pages.
    pub publishes: u64,
    /// Misses summed over the region's pages.
    pub misses: u64,
    /// Encoded diff bytes summed over the region's pages.
    pub diff_bytes: u64,
    /// Distinct nodes that ever published to any page of the region.
    pub distinct_writers: u32,
}

/// Headline traffic numbers for one application run, mirroring the in-text
/// statistics the paper reports (message counts and megabytes moved).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficReport {
    /// Total messages exchanged.
    pub messages: u64,
    /// Total payload bytes exchanged.
    pub bytes: u64,
    /// Messages that are part of synchronization (locks, barriers).
    pub sync_messages: u64,
    /// Messages that fetch data at access misses.
    pub data_messages: u64,
    /// Access misses taken (LRC).
    pub access_misses: u64,
    /// Write-protection faults taken (twinning).
    pub write_faults: u64,
    /// Diffs created.
    pub diffs_created: u64,
    /// Lock acquires.
    pub lock_acquires: u64,
    /// Barrier episodes (summed over nodes).
    pub barriers: u64,
    /// Lock ownership transfers between processors.  This counter lives in
    /// the runtime's sharded lock table rather than in any node's
    /// [`NodeStats`], so it is aggregated by the DSM runtime after the run;
    /// reports built directly from [`ClusterStats::traffic`] leave it zero.
    pub lock_transfers: u64,
}

impl TrafficReport {
    /// Total data volume in megabytes (the unit used in the paper's text).
    pub fn megabytes(&self) -> f64 {
        self.bytes as f64 / 1e6
    }
}

impl fmt::Display for TrafficReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} msgs ({} sync, {} data), {:.2} MB, {} misses, {} faults, {} diffs, {} acquires, \
             {} transfers",
            self.messages,
            self.sync_messages,
            self.data_messages,
            self.megabytes(),
            self.access_misses,
            self.write_faults,
            self.diffs_created,
            self.lock_acquires,
            self.lock_transfers
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query_messages() {
        let mut s = NodeStats::new();
        s.record_msg(MsgKind::LockRequest, 16);
        s.record_msg(MsgKind::LockGrant, 4096);
        s.record_msg(MsgKind::LockGrant, 64);
        assert_eq!(s.messages(), 3);
        assert_eq!(s.bytes(), 16 + 4096 + 64);
        assert_eq!(s.messages_of(MsgKind::LockGrant), 2);
        assert_eq!(s.bytes_of(MsgKind::LockRequest), 16);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = NodeStats::new();
        a.record_msg(MsgKind::DataRequest, 8);
        a.write_faults = 3;
        a.work_units = 100;
        a.pool_recycled = 2;
        let mut b = NodeStats::new();
        b.record_msg(MsgKind::DataRequest, 8);
        b.record_msg(MsgKind::DataReply, 2048);
        b.write_faults = 2;
        b.work_units = 50;
        b.pool_recycled = 3;
        b.pool_allocated = 1;
        a.merge(&b);
        assert_eq!(a.messages(), 3);
        assert_eq!(a.write_faults, 5);
        assert_eq!(a.work_units, 150);
        assert_eq!(a.pool_recycled, 5);
        assert_eq!(a.pool_allocated, 1);
    }

    #[test]
    fn cluster_totals_and_traffic() {
        let mut n0 = NodeStats::new();
        n0.record_msg(MsgKind::BarrierArrival, 32);
        n0.lock_acquires = 4;
        let mut n1 = NodeStats::new();
        n1.record_msg(MsgKind::DataReply, 1000);
        n1.access_misses = 1;
        let cluster = ClusterStats::from_nodes(vec![n0, n1]);
        assert_eq!(cluster.num_nodes(), 2);
        let t = cluster.traffic();
        assert_eq!(t.messages, 2);
        assert_eq!(t.sync_messages, 1);
        assert_eq!(t.data_messages, 1);
        assert_eq!(t.bytes, 1032);
        assert_eq!(t.lock_acquires, 4);
        assert!((t.megabytes() - 0.001032).abs() < 1e-9);
    }

    #[test]
    fn traffic_report_display_is_nonempty() {
        let t = TrafficReport::default();
        assert!(!t.to_string().is_empty());
    }
}
