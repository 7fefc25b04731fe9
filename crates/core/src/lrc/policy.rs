//! The data-movement layer of the LRC protocol family.
//!
//! The ordering core (`ordering.rs`) decides *what* a node is entitled to see
//! — intervals, vector clocks, write notices, freshness generations.  A
//! [`DataPolicy`] decides *where published data lives* and what an access
//! miss fetches:
//!
//! * [`Homeless`] — TreadMarks behaviour.  Published modifications stay with
//!   their writers (conceptually); a miss collects diffs (or timestamped
//!   blocks) from every concurrent writer, with the most recent entitled
//!   publisher forwarding the older diffs its vector covers.
//! * [`HomeBased`] — Princeton-style home-based LRC (HLRC).  Every page has
//!   a statically assigned home (round-robin over the flat page index);
//!   releasers eagerly flush their diffs to the home at the end of each
//!   interval, and a miss fetches the whole up-to-date page from the home in
//!   exactly one round trip, however many writers raced on it.
//!
//! Policies only account *data movement* (messages, wire sizes, fetch/flush
//! costs).  Everything the ordering layer records — master contents, block
//! stamps, write-notice history, `applied`/`checked_gen` bookkeeping — is
//! policy-independent, which is what makes the two policies content-equivalent
//! by construction and lets the equivalence tests compare them byte for byte.

use std::sync::RwLock;

use dsm_mem::{BlockGranularity, PageModeChange, RegionDesc};
use dsm_sim::{MsgKind, NodeId};

use crate::config::{Collection, DsmConfig, Trapping};
use crate::engine::{PublishRec, CTRL_MSG_BYTES};
use crate::local::NodeLocal;

use super::state::{LrcRegionState, STAMP_WIRE_BYTES};

/// Everything the ordering core knows about one access miss by the time the
/// policy is asked to account its data movement.
pub(crate) struct MissInfo<'a> {
    /// Region index of the faulting page.
    pub ridx: usize,
    /// Page index within the region.
    pub page: usize,
    /// Block granularity of the region (timestamp-scan sizing).
    pub gran: BlockGranularity,
    /// Word blocks in the page (clamped at the region end).
    pub nwords: usize,
    /// Words the apply loop actually installed.
    pub applied_words: usize,
    /// Maximal same-stamp runs among the installed words.
    pub ts_runs: usize,
    /// Stale sources `(proc, from, upto)` the miss resolved.
    pub stale: &'a [(usize, u32, u32)],
}

/// Where published data lives and what a miss fetches.  See the module docs.
pub(crate) trait DataPolicy: Send + Sync + 'static {
    /// Builds the policy for a run.
    fn build(cfg: &DsmConfig, regions: &[RegionDesc]) -> Self;

    /// Short label shown in the engine's `Debug` output.
    fn label(&self) -> &'static str;

    /// Called once per page an interval published, with the master copy and
    /// the page's write-notice state already updated (the region write lock
    /// is held) and the publish record not yet pushed into the traffic ring.
    fn on_publish(
        &self,
        cfg: &DsmConfig,
        local: &mut NodeLocal,
        ridx: usize,
        page: usize,
        rec: &mut PublishRec,
    );

    /// Accounts the data movement of one access miss: responders, reply
    /// sizes, collection costs and messages.  Called after the apply loop,
    /// with the region write lock still held.
    fn on_miss(
        &self,
        cfg: &DsmConfig,
        local: &mut NodeLocal,
        rs: &mut LrcRegionState,
        miss: &MissInfo<'_>,
    );

    /// Whether `node`'s write fault on the page should be charged (twin
    /// creation cost and `write_faults`/`twins_created` statistics).  The
    /// adaptive policy answers `false` for a pinned page's owner — no
    /// protocol work until a second writer shows up — while *recording* the
    /// fault so the pin can be broken deterministically at the next barrier.
    /// The twin itself is still made either way: pinning suppresses costs,
    /// never content mechanics.
    fn charge_write_fault(&self, _node: NodeId, _ridx: usize, _page: usize) -> bool {
        true
    }

    /// Whether `node`'s publish of the page should skip the diff-creation
    /// accounting (`diffs_created`/`diff_words` statistics, encode sizes,
    /// compare costs).  `true` only for the pinned owner under the adaptive
    /// policy; master-copy updates, write-notice history and replica frames
    /// are emitted regardless, so contents stay policy-independent.
    fn suppress_publish(&self, _node: NodeId, _ridx: usize, _page: usize) -> bool {
        false
    }

    /// Barrier-commit hook, run exactly once per barrier episode by the last
    /// arriver while every node is blocked in the barrier.  The adaptive
    /// policy closes each page's observation window here and commits mode
    /// migrations; the return value is the extra per-departer payload (in
    /// bytes) the barrier release must carry to broadcast those decisions.
    fn barrier_commit(
        &self,
        _cfg: &DsmConfig,
        _regions: &[RegionDesc],
        _region_state: &[RwLock<LrcRegionState>],
        _local: &mut NodeLocal,
    ) -> usize {
        0
    }

    /// The committed migration decisions, in commit order (empty for the
    /// static policies).
    fn migration_trace(&self) -> Vec<PageModeChange> {
        Vec::new()
    }
}

/// Accounts a home-based eager flush of one published page: diff creation is
/// charged to the releaser and the encoded modifications travel to `home`
/// unless the releaser *is* the home.  Shared by [`HomeBased`] (static
/// round-robin homes) and the adaptive policy (homes follow the dominant
/// writer), so both account flushes identically.
pub(crate) fn home_publish(
    cfg: &DsmConfig,
    local: &mut NodeLocal,
    home: NodeId,
    rec: &mut PublishRec,
) {
    // Eager flush: the releaser ships the encoded modifications to the
    // page's home at the end of the interval, so diff creation is always
    // charged eagerly to the releaser (the homeless policy defers it to
    // the first fetch under diff collection).
    if !rec.creation_charged {
        rec.creation_charged = true;
        local
            .clock
            .advance(cfg.cost.diff_compare(rec.compare_words as u64));
    }
    if home != local.node {
        // Home flushes are data-reply-class traffic, paid at release time
        // instead of at the next reader's miss.
        local.stats.record_msg(MsgKind::DataReply, rec.encoded_size);
        local.clock.advance(cfg.cost.message(rec.encoded_size));
    }
}

/// Accounts a home-based miss: one whole-page round trip to `home` (free when
/// the faulting node is the home), however many writers raced on the page.
/// Shared by [`HomeBased`] and the adaptive policy.
pub(crate) fn home_miss(cfg: &DsmConfig, local: &mut NodeLocal, home: NodeId, m: &MissInfo<'_>) {
    local.stats.words_applied += m.applied_words as u64;
    local.clock.advance(cfg.cost.apply_words(m.nwords as u64));
    if home == local.node {
        // The home itself holds the authoritative copy: the fault is
        // served from local state without any message.
        return;
    }
    let req_bytes = local.vector.wire_size();
    let reply_bytes = m.nwords * 4;
    local.stats.record_msg(MsgKind::DataRequest, req_bytes);
    local.stats.record_msg(MsgKind::DataReply, reply_bytes);
    local
        .clock
        .advance(cfg.cost.round_trip(req_bytes, reply_bytes));
}

/// The homeless (TreadMarks) data policy: data moves lazily, from the
/// writers, at the access miss.
#[derive(Debug, Default)]
pub(crate) struct Homeless;

impl DataPolicy for Homeless {
    fn build(_cfg: &DsmConfig, _regions: &[RegionDesc]) -> Self {
        Homeless
    }

    fn label(&self) -> &'static str {
        "homeless"
    }

    fn on_publish(
        &self,
        _cfg: &DsmConfig,
        _local: &mut NodeLocal,
        _ridx: usize,
        _page: usize,
        _rec: &mut PublishRec,
    ) {
        // Nothing moves at a release: the writers keep their modifications
        // until an access miss asks for them.
    }

    fn on_miss(
        &self,
        cfg: &DsmConfig,
        local: &mut NodeLocal,
        rs: &mut LrcRegionState,
        m: &MissInfo<'_>,
    ) {
        let cost = &cfg.cost;
        let trapping = cfg.kind.trapping();
        let collection = cfg.kind.collection();
        let gran = m.gran;

        // How many processors must be asked?  The most recent publisher *we
        // are entitled to see* can forward every diff its publish-time vector
        // dominates (it saved them); intervals concurrent with its publish
        // require contacting the writer directly.  Like the staleness check,
        // the decision reads only entitlement-visible history records, so it
        // is independent of concurrent unentitled publishes.
        let responders = {
            let ps = &rs.pages[m.page];
            let mut extra = 0usize;
            let mut primary_used = false;
            match ps.last_entitled_pub(&local.vector) {
                Some(idx) => {
                    // The history stores delta-chain records; materialize
                    // the primary's publish-time vector once, into the
                    // node's scratch clock (no allocation in steady state).
                    ps.reconstruct_pub_clock(idx, &mut local.scratch_clock);
                    let pnode = ps.history[idx].node;
                    for &(q, _, upto) in m.stale {
                        let qn = NodeId::new(q as u32);
                        if pnode == qn || upto <= local.scratch_clock.entry(qn) {
                            primary_used = true;
                        } else {
                            extra += 1;
                        }
                    }
                }
                None => extra = m.stale.len(),
            }
            (usize::from(primary_used) + extra).max(1)
        };

        // Traffic accounting under diff collection: every pending diff of a
        // stale source is transferred (the overlapping-diff effect for
        // migratory data).
        let mut diff_bytes = 0usize;
        let mut diff_count = 0u64;
        let mut creation_words = 0u64;
        if collection == Collection::Diffs {
            let ps = &mut rs.pages[m.page];
            for rec in ps.diffs.iter_mut() {
                let q = rec.node.index();
                let i = rec.stamp as u32;
                let needed = m
                    .stale
                    .iter()
                    .any(|&(sq, from, upto)| sq == q && i > from && i <= upto);
                if needed {
                    diff_bytes += rec.encoded_size;
                    diff_count += 1;
                    if !rec.creation_charged {
                        rec.creation_charged = true;
                        creation_words += rec.compare_words as u64;
                        let (ridx, page, node, stamp) = (m.ridx, m.page, rec.node, rec.stamp);
                        local.undo(move || crate::recovery::UndoRec::LrcDiffCharge {
                            ridx,
                            page,
                            node,
                            stamp,
                        });
                    }
                }
            }
        }

        let reply_bytes = match collection {
            Collection::Timestamps => {
                let gran_div = if trapping == Trapping::Instrumentation {
                    (gran.bytes() / 4).max(1)
                } else {
                    1
                };
                let scan = (m.nwords / gran_div) as u64;
                local.stats.ts_blocks_scanned += scan;
                local.clock.advance(cost.ts_scan(scan));
                m.applied_words * 4 + m.ts_runs * (STAMP_WIRE_BYTES + 6)
            }
            Collection::Diffs => {
                local.stats.diffs_applied += diff_count;
                local.clock.advance(cost.diff_compare(creation_words));
                diff_bytes.max(m.applied_words * 4)
            }
        };
        local.stats.words_applied += m.applied_words as u64;
        local
            .clock
            .advance(cost.apply_words(m.applied_words as u64));

        let req_bytes = local.vector.wire_size();
        for r in 0..responders {
            let bytes = if r == 0 { reply_bytes } else { CTRL_MSG_BYTES };
            local.stats.record_msg(MsgKind::DataRequest, req_bytes);
            local.stats.record_msg(MsgKind::DataReply, bytes);
            local.clock.advance(cost.round_trip(req_bytes, bytes));
        }
    }
}

/// The home-based data policy (HLRC): every page has a statically assigned
/// home, releasers flush diffs to it eagerly, misses fetch the whole page
/// from it in one round trip.
#[derive(Debug)]
pub(crate) struct HomeBased {
    /// Flat page-index base of each region, so homes are assigned round-robin
    /// over the whole shared address space rather than per region.
    page_base: Vec<usize>,
    nprocs: usize,
}

impl HomeBased {
    /// The statically assigned home of a page (round-robin over the flat page
    /// index, the classic HLRC default assignment).
    pub fn home_of(&self, ridx: usize, page: usize) -> NodeId {
        NodeId::new(((self.page_base[ridx] + page) % self.nprocs) as u32)
    }
}

impl DataPolicy for HomeBased {
    fn build(cfg: &DsmConfig, regions: &[RegionDesc]) -> Self {
        let mut page_base = Vec::with_capacity(regions.len());
        let mut base = 0usize;
        for d in regions {
            page_base.push(base);
            base += d.num_pages().max(1);
        }
        HomeBased {
            page_base,
            nprocs: cfg.nprocs,
        }
    }

    fn label(&self) -> &'static str {
        "home-based"
    }

    fn on_publish(
        &self,
        cfg: &DsmConfig,
        local: &mut NodeLocal,
        ridx: usize,
        page: usize,
        rec: &mut PublishRec,
    ) {
        home_publish(cfg, local, self.home_of(ridx, page), rec);
    }

    fn on_miss(
        &self,
        cfg: &DsmConfig,
        local: &mut NodeLocal,
        _rs: &mut LrcRegionState,
        m: &MissInfo<'_>,
    ) {
        // The home has every flushed diff applied, so one whole-page round
        // trip to one node replaces the homeless per-writer diff collection —
        // however many writers raced on the page.
        home_miss(cfg, local, self.home_of(m.ridx, m.page), m);
    }
}
