//! Where each page's published modifications live, and what moving them
//! costs.
//!
//! Every member of the LRC family runs the same ordering core
//! (`ordering.rs`).  The members differ only in each page's [`PageMode`],
//! kept in one [`Placement`] table:
//!
//! * **Homeless** — TreadMarks behaviour.  Published modifications stay with
//!   their writers (conceptually); a miss collects diffs (or timestamped
//!   blocks) from every concurrent writer, with the most recent entitled
//!   publisher forwarding the older diffs its vector covers.
//! * **Home(h)** — Princeton-style home-based LRC.  Releasers eagerly flush
//!   their diffs to node `h` at the end of each interval, and a miss fetches
//!   the whole up-to-date page from `h` in exactly one round trip, however
//!   many writers raced on it.
//! * **Pinned(o)** — single writer: while only `o` writes the page, its
//!   twin and diff work is not charged, and a miss by anyone else is a
//!   whole-page fetch from `o`.
//!
//! Only the table's starting contents differ by family: `LRC-*` and
//! `ALRC-*` start every page homeless, `HLRC-*` at its round-robin home.
//! Under `ALRC-*` alone a controller changes modes.  The ordering core
//! records each page's publishes, misses and diff bytes into its
//! [`PageSharing`](dsm_mem::PageSharing) accumulator; at every barrier the
//! last arriver — while all nodes are blocked in the rendezvous — closes the
//! observation windows and migrates pages whose sharing pattern argues for a
//! different mode:
//!
//! * **Homeless** for false sharing: racing writers each keep their diffs and
//!   misses collect them, the pattern homeless LRC wins on in the paper.
//! * **Home at the dominant writer** for migratory or page-sized
//!   producer/consumer data: one eager flush (free when the dominant writer
//!   *is* the home) replaces per-writer diff collection.
//! * **Pinned at the single writer** when nobody else touches the page: the
//!   owner's twin/diff work is suppressed entirely until a second sharer
//!   shows up, at which point the pin is broken at the next barrier.
//!
//! Decisions read only entitlement-visible records (window counters recorded
//! under region write locks, closed between complete barrier episodes), so
//! the migration trace is a deterministic function of the program and the
//! processor count.  Committed decisions travel to the transport replicas as
//! a control frame, keeping the real-wire backends bitwise-verified.
//!
//! Placement accounts *data movement* only (messages, wire sizes,
//! fetch/flush costs).  Everything the ordering core records — master
//! contents, block stamps, publish history, `applied`/`checked_gen`
//! bookkeeping — is mode-independent, which makes the family members
//! content-equivalent by construction.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, RwLock};

use dsm_mem::wire::WireMsgKind;
use dsm_mem::{page_range, pages_in, BlockGranularity, PageMode, PageModeChange, RegionDesc};
use dsm_sim::{Charge, NodeId};

use crate::config::{Collection, DsmConfig, Model, Trapping};
use crate::engine::CTRL_MSG_BYTES;
use crate::local::NodeLocal;
use crate::sync;

use super::state::{LrcRegionState, PagePub, STAMP_WIRE_BYTES};

/// Everything the ordering core knows about one access miss by the time its
/// data movement is accounted.
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

/// Controller bookkeeping, touched only at barrier commits.
#[derive(Debug, Default)]
struct Controller {
    /// Barrier-commit evaluations performed so far (1-based in the trace).
    evals: u32,
    /// Every committed migration, in commit order.
    trace: Vec<PageModeChange>,
}

/// The per-page [`PageMode`] table of an LRC engine.  See the module docs.
#[derive(Debug)]
pub(crate) struct Placement {
    /// Packed current mode per region per page.  Stored only at barrier
    /// commits while every node is blocked in the rendezvous, read lock-free
    /// on the trap/publish/miss paths — the barrier's release ordering makes
    /// each store visible to every node's next access.
    modes: Vec<Vec<AtomicU32>>,
    /// The migration controller, present exactly under `ALRC-*`.
    ctrl: Option<Mutex<Controller>>,
}

impl Placement {
    /// The family's starting table.  Under `HLRC-*` page homes are
    /// round-robin over the flat page index (regions laid end to end), the
    /// classic HLRC default assignment; every other family starts each page
    /// homeless.  This is the only place the LRC engine reads the model.
    pub fn new(cfg: &DsmConfig, regions: &[RegionDesc]) -> Self {
        let model = cfg.kind.model();
        let mut base = 0usize;
        let modes = regions
            .iter()
            .map(|d| {
                let pages = pages_in(d.len).max(1);
                base += pages;
                (base - pages..base)
                    .map(|flat| {
                        let mode = match model {
                            Model::Hlrc => PageMode::Home((flat % cfg.nprocs) as u32),
                            _ => PageMode::Homeless,
                        };
                        AtomicU32::new(mode.pack())
                    })
                    .collect()
            })
            .collect();
        Placement {
            modes,
            ctrl: (model == Model::Adaptive).then(Mutex::default),
        }
    }

    /// The page's current mode (lock-free).
    pub fn mode(&self, ridx: usize, page: usize) -> PageMode {
        PageMode::unpack(self.modes[ridx][page].load(Ordering::Relaxed))
    }

    /// Whether the page is pinned to `node`.  Its write faults and publishes
    /// are then not charged — no protocol work until a second sharer shows
    /// up — while the fault and publish are still *recorded*, so the pin can
    /// be broken deterministically at the next barrier.  Pinning suppresses
    /// costs, never content mechanics: the twin, master update, stamps,
    /// history record and replica frame are made either way.
    pub fn pinned_to(&self, node: NodeId, ridx: usize, page: usize) -> bool {
        self.mode(ridx, page) == PageMode::Pinned(node.index() as u32)
    }

    /// Accounts the data movement of one page an interval published, with the
    /// master copy and the page's history record already updated (the region
    /// write lock is held).  Only a homed page moves data at a release; a
    /// pinned page's owner never gets here, and a surprise second writer
    /// publishes homeless-style until the pin is broken at the next barrier.
    pub fn publish(&self, local: &mut NodeLocal, ridx: usize, page: usize, rec: &mut PagePub) {
        let PageMode::Home(home) = self.mode(ridx, page) else {
            // The writers keep their modifications until an access miss
            // asks for them.
            return;
        };
        // Eager flush: the releaser ships the encoded modifications to the
        // page's home at the end of the interval, so diff creation is always
        // charged eagerly to the releaser (a homeless page defers it to the
        // first fetch under diff collection).
        if !rec.creation_charged {
            rec.creation_charged = true;
            local.charge(Charge::DiffCompare(rec.compare_words as u64));
        }
        if NodeId::new(home) != local.node {
            // Home flushes are data-reply-class traffic, paid at release time
            // instead of at the next reader's miss.
            local.charge(Charge::HomeFlush(rec.encoded_size));
        }
    }

    /// Accounts the data movement of one access miss: responders, reply
    /// sizes, collection costs and messages.  Called after the apply loop,
    /// with the region write lock still held.
    pub fn miss(
        &self,
        cfg: &DsmConfig,
        local: &mut NodeLocal,
        rs: &mut LrcRegionState,
        m: &MissInfo<'_>,
    ) {
        match self.mode(m.ridx, m.page) {
            PageMode::Homeless => homeless_miss(cfg, local, rs, m),
            // The home has every flushed diff applied, so one whole-page
            // round trip to one node replaces the homeless per-writer diff
            // collection.  A miss on a pinned page means a second sharer
            // appeared: the owner holds the only current copy, so the fetch
            // is exactly a home fetch with the owner as the home.  The miss
            // also lands in the page's window statistics, breaking the pin
            // at the next barrier.
            PageMode::Home(home) | PageMode::Pinned(home) => home_miss(local, NodeId::new(home), m),
        }
    }

    /// Barrier-commit controller, run exactly once per barrier episode by the
    /// last arriver while every node is blocked in the barrier.  It closes
    /// each page's observation window and commits mode migrations; the
    /// return value is the extra per-departer payload (in bytes) the barrier
    /// release must carry to broadcast those decisions.  Without a
    /// controller (`LRC-*`, `HLRC-*`) nothing changes and the payload is 0.
    pub fn barrier_commit(
        &self,
        cfg: &DsmConfig,
        regions: &[RegionDesc],
        region_state: &[RwLock<LrcRegionState>],
        local: &mut NodeLocal,
    ) -> usize {
        let Some(ctrl) = &self.ctrl else {
            return 0;
        };
        // Only diff collection pays for every pending per-interval diff on a
        // homeless miss; the timestamp collections send one consolidated
        // reply, so for them a home could only add cost and the controller
        // restricts itself to pin/unpin decisions (see
        // `PageSharing::candidate`).
        let accumulating = cfg.kind.collection() == Collection::Diffs;
        let mut ctrl = sync::lock(ctrl);
        ctrl.evals += 1;
        let eval = ctrl.evals;
        let first = ctrl.trace.len();
        for (ridx, d) in regions.iter().enumerate() {
            let mut rs = sync::write(&region_state[ridx]);
            for (page, ps) in rs.pages.iter_mut().enumerate() {
                let slot = &self.modes[ridx][page];
                let cur = PageMode::unpack(slot.load(Ordering::Relaxed));
                // Pin break: a pinned page that saw a miss or a foreign
                // publish this window demotes *now*, bypassing hysteresis —
                // the single-writer assumption is gone.
                let pin_broken = matches!(cur, PageMode::Pinned(o)
                    if ps.sharing.window_misses() > 0
                        || ps.sharing.window_foreign_writer(o as usize));
                let confirmed = ps
                    .sharing
                    .advance(page_range(page, d.len).len(), accumulating);
                let next = if pin_broken {
                    Some(confirmed.unwrap_or(PageMode::Homeless))
                } else {
                    confirmed
                };
                if let Some(next) = next {
                    if next != cur {
                        slot.store(next.pack(), Ordering::Relaxed);
                        ctrl.trace.push(PageModeChange {
                            eval,
                            region: ridx as u32,
                            page: page as u32,
                            mode: next,
                        });
                    }
                }
            }
        }
        let changes = &ctrl.trace[first..];
        if changes.is_empty() {
            return 0;
        }
        // Ship the committed decisions to the transport replicas as one
        // control message ([eval][count][records]) so the real-wire backends
        // can verify every replica saw the same migrations.
        if let Some(w) = local.wire.as_deref_mut() {
            let mut payload = Vec::with_capacity(8 + changes.len() * PageModeChange::WIRE_SIZE);
            payload.extend_from_slice(&eval.to_le_bytes());
            payload.extend_from_slice(&(changes.len() as u32).to_le_bytes());
            for c in changes {
                c.encode_into(&mut payload);
            }
            w.send_oob(WireMsgKind::Ctrl, &payload);
        }
        // The decisions ride the barrier release: each departer's release
        // message grows by one record per migration.
        changes.len() * PageModeChange::WIRE_SIZE
    }

    /// The committed migration decisions, in commit order (always empty
    /// without a controller).
    pub fn migration_trace(&self) -> Vec<PageModeChange> {
        self.ctrl
            .as_ref()
            .map_or_else(Vec::new, |c| sync::lock(c).trace.clone())
    }
}

/// Accounts a home fetch: one whole-page round trip to `home` (free when the
/// faulting node is the home), however many writers raced on the page.
fn home_miss(local: &mut NodeLocal, home: NodeId, m: &MissInfo<'_>) {
    local.charge(Charge::Apply(m.applied_words as u64, m.nwords as u64));
    if home != local.node {
        local.charge(Charge::MissRoundTrip(
            local.vector.wire_size(),
            m.nwords * 4,
        ));
    }
}

/// Accounts a homeless miss: data moves lazily, from the writers.
fn homeless_miss(
    cfg: &DsmConfig,
    local: &mut NodeLocal,
    rs: &mut LrcRegionState,
    m: &MissInfo<'_>,
) {
    let trapping = cfg.kind.trapping();
    let collection = cfg.kind.collection();
    let gran = m.gran;

    // How many processors must be asked?  The most recent publisher *we are
    // entitled to see* can forward every diff its publish-time vector
    // dominates (it saved them); intervals concurrent with its publish
    // require contacting the writer directly.  Like the staleness check, the
    // decision reads only entitlement-visible history records, so it is
    // independent of concurrent unentitled publishes.
    let responders = {
        let ps = &rs.pages[m.page];
        let mut extra = 0usize;
        let mut primary_used = false;
        match ps.last_entitled_pub(&local.vector) {
            Some(idx) => {
                let primary = &ps.history[idx];
                for &(q, _, upto) in m.stale {
                    let qn = NodeId::new(q as u32);
                    if primary.node == qn || upto <= primary.clock.entry(qn) {
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
        for rec in rs.pages[m.page].history.iter_mut() {
            let q = rec.node.index();
            let i = rec.interval;
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
                    let (ridx, page, node) = (m.ridx, m.page, rec.node);
                    local.undo(move || crate::recovery::UndoRec::LrcDiffCharge {
                        ridx,
                        page,
                        node,
                        interval: i,
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
            local.charge(Charge::TsScan((m.nwords / gran_div) as u64));
            m.applied_words * 4 + m.ts_runs * (STAMP_WIRE_BYTES + 6)
        }
        Collection::Diffs => {
            local.stats.diffs_applied += diff_count;
            local.charge(Charge::DiffCompare(creation_words));
            diff_bytes.max(m.applied_words * 4)
        }
    };
    let applied = m.applied_words as u64;
    local.charge(Charge::Apply(applied, applied));

    let req_bytes = local.vector.wire_size();
    for r in 0..responders {
        let bytes = if r == 0 { reply_bytes } else { CTRL_MSG_BYTES };
        local.charge(Charge::MissRoundTrip(req_bytes, bytes));
    }
}

#[cfg(test)]
mod tests {
    use super::super::ordering::LrcEngine;
    use super::*;
    use crate::config::ImplKind;
    use crate::engine::ProtocolEngine;
    use dsm_mem::{RegionId, PAGE_SIZE};

    fn engine(kind: ImplKind) -> LrcEngine {
        let cfg = DsmConfig::with_procs(kind, 4);
        let regions = vec![RegionDesc::new(
            RegionId::new(0),
            "r",
            4 * PAGE_SIZE,
            BlockGranularity::Word,
        )];
        let init = vec![vec![0u8; 4 * PAGE_SIZE]];
        LrcEngine::new(&cfg, &regions, &init)
    }

    fn node(e: &LrcEngine, idx: u32) -> NodeLocal {
        let (cfg, regions) = e.parts();
        NodeLocal::new(
            NodeId::new(idx),
            cfg.nprocs,
            regions,
            &[vec![0u8; 4 * PAGE_SIZE]],
            cfg.cost.clone(),
        )
    }

    /// One write+publish by `writer` at byte `off`, then a barrier commit.
    fn write_and_commit(e: &LrcEngine, writer: &mut NodeLocal, off: usize) {
        e.trap_write(writer, 0, off, 4);
        writer.regions[0].data[off..off + 4].copy_from_slice(&0xabu32.to_le_bytes());
        e.barrier_arrive(writer);
        e.barrier_commit(writer);
    }

    #[test]
    fn lone_writer_is_pinned_and_a_miss_breaks_the_pin() {
        let e = engine(ImplKind::adaptive_diff());
        let mut w = node(&e, 1);
        let placement = e.placement();

        write_and_commit(&e, &mut w, 0);
        assert_eq!(
            placement.mode(0, 0),
            PageMode::Homeless,
            "hysteresis: 1 window"
        );
        write_and_commit(&e, &mut w, 4);
        assert_eq!(placement.mode(0, 0), PageMode::Pinned(1));
        assert!(placement.pinned_to(NodeId::new(1), 0, 0));
        assert!(!placement.pinned_to(NodeId::new(2), 0, 0));

        // While pinned, the owner's publishes charge nothing.
        let faults = w.stats.write_faults;
        let diffs = w.stats.diffs_created;
        write_and_commit(&e, &mut w, 8);
        assert_eq!(w.stats.write_faults, faults);
        assert_eq!(w.stats.diffs_created, diffs);

        // A reader's miss breaks the pin at the next commit.
        let mut r = node(&e, 2);
        r.vector
            .set_entry(NodeId::new(1), w.vector.entry(NodeId::new(1)));
        r.epoch += 1;
        e.ensure_read_fresh(&mut r, 0, 0);
        assert_eq!(r.stats.access_misses, 1);
        e.barrier_commit(&mut r);
        assert_ne!(
            placement.mode(0, 0),
            PageMode::Pinned(1),
            "pin must break after a foreign miss"
        );

        let trace = e.migration_trace();
        assert!(!trace.is_empty());
        assert_eq!(trace[0].mode, PageMode::Pinned(1));
    }

    #[test]
    fn contents_are_mode_independent_while_pinned() {
        let e = engine(ImplKind::adaptive_diff());
        let mut w = node(&e, 0);
        // Pin page 0 to node 0, then write while pinned: the master must
        // still receive the bytes (suppression is accounting-only).
        write_and_commit(&e, &mut w, 0);
        write_and_commit(&e, &mut w, 4);
        assert_eq!(e.placement().mode(0, 0), PageMode::Pinned(0));
        e.trap_write(&mut w, 0, 16, 4);
        w.regions[0].data[16..20].copy_from_slice(&77u32.to_le_bytes());
        e.barrier_arrive(&mut w);
        let mut out = [0u8; 4];
        e.read_master(0, 16, &mut out);
        assert_eq!(out, 77u32.to_le_bytes());
    }

    /// A homeless miss under diff collection bills the lazy creation of the
    /// diffs it fetches to the first fetcher: that miss pays the diff's
    /// compare words, to the nanosecond, and a second fetch of the same diff
    /// pays nothing for it.  Which fetcher comes first follows host
    /// scheduling in a multi-node run, so the goldens cannot pin this
    /// charge; this test does.
    #[test]
    fn homeless_miss_bills_lazy_diff_creation_to_the_first_fetch_only() {
        let e = engine(ImplKind::lrc_diff());
        let mut w = node(&e, 1);
        e.trap_write(&mut w, 0, 0, 4);
        w.regions[0].data[0..4].copy_from_slice(&7u32.to_le_bytes());
        e.barrier_arrive(&mut w);
        assert_eq!(w.stats.diffs_created, 1);
        let fetch = |idx| {
            let mut r = node(&e, idx);
            r.vector
                .set_entry(NodeId::new(1), w.vector.entry(NodeId::new(1)));
            r.epoch += 1;
            e.ensure_read_fresh(&mut r, 0, 0);
            r
        };
        let (first, second) = (fetch(2), fetch(3));
        assert_eq!(first.stats.access_misses, 1);
        assert_eq!(
            first.stats, second.stats,
            "both misses move the same messages and words"
        );
        // The whole page was compared against its twin: 1024 words at
        // 60 ns each under the paper's cost model.
        assert_eq!(
            first.clock.now() - second.clock.now(),
            dsm_sim::SimTime::from_nanos(1024 * 60)
        );
    }

    /// The write pattern that pins a page under `ALRC-*` leaves every page
    /// of the static families at its starting mode, with no migration.
    #[test]
    fn static_families_keep_their_starting_table() {
        let families = ImplKind::lrc_all().into_iter().chain(ImplKind::hlrc_all());
        for kind in families.chain(ImplKind::adaptive_all()) {
            let e = engine(kind);
            let mut w = node(&e, 1);
            for off in [0, 4, 8] {
                write_and_commit(&e, &mut w, off);
            }
            if kind.model() == Model::Adaptive {
                assert!(e.placement().pinned_to(NodeId::new(1), 0, 0), "{kind}");
                continue;
            }
            for page in 0..4 {
                let start = match kind.model() {
                    Model::Hlrc => PageMode::Home(page as u32 % 4),
                    _ => PageMode::Homeless,
                };
                assert_eq!(e.placement().mode(0, page), start, "{kind} page {page}");
            }
            assert!(e.migration_trace().is_empty(), "{kind}");
        }
    }
}
