//! The adaptive data policy: an online per-page controller over the LRC
//! ordering core.
//!
//! Every page starts homeless (TreadMarks behaviour).  The ordering core
//! records each page's publishes, misses and diff bytes into its
//! [`PageSharing`](dsm_mem::PageSharing) accumulator; at every barrier the
//! last arriver — while all nodes are blocked in the rendezvous — closes the
//! observation windows and migrates pages whose sharing pattern argues for a
//! different data-movement mode:
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

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, RwLock};

use dsm_mem::wire::WireMsgKind;
use dsm_mem::{page_range, PageMode, PageModeChange, RegionDesc};
use dsm_sim::NodeId;

use crate::config::DsmConfig;
use crate::engine::PublishRec;
use crate::local::NodeLocal;
use crate::sync;

use super::policy::{home_miss, home_publish, DataPolicy, Homeless, MissInfo};
use super::state::LrcRegionState;

/// Controller bookkeeping, touched only at barrier commits.
#[derive(Debug, Default)]
struct AdaptiveCtrl {
    /// Barrier-commit evaluations performed so far (1-based in the trace).
    evals: u32,
    /// Every committed migration, in commit order.
    trace: Vec<PageModeChange>,
}

/// The adaptive data policy.  See the module docs.
#[derive(Debug)]
pub(crate) struct Adaptive {
    /// The homeless policy, delegated to for pages in homeless mode.
    homeless: Homeless,
    /// Packed current [`PageMode`] per region per page.  Stored only at
    /// barrier commits while every node is blocked in the rendezvous, read
    /// lock-free on the trap/publish/miss paths — the barrier's release
    /// ordering makes each store visible to every node's next access.
    modes: Vec<Vec<AtomicU32>>,
    /// Controller state (barrier commits only).
    ctrl: Mutex<AdaptiveCtrl>,
}

impl Adaptive {
    /// The page's current mode (lock-free).
    fn mode(&self, ridx: usize, page: usize) -> PageMode {
        PageMode::unpack(self.modes[ridx][page].load(Ordering::Relaxed))
    }
}

impl DataPolicy for Adaptive {
    fn build(_cfg: &DsmConfig, regions: &[RegionDesc]) -> Self {
        Adaptive {
            homeless: Homeless,
            modes: regions
                .iter()
                .map(|d| {
                    (0..d.num_pages().max(1))
                        .map(|_| AtomicU32::new(PageMode::Homeless.pack()))
                        .collect()
                })
                .collect(),
            ctrl: Mutex::new(AdaptiveCtrl::default()),
        }
    }

    fn label(&self) -> &'static str {
        "adaptive"
    }

    fn on_publish(
        &self,
        cfg: &DsmConfig,
        local: &mut NodeLocal,
        ridx: usize,
        page: usize,
        rec: &mut PublishRec,
    ) {
        match self.mode(ridx, page) {
            // Homeless pages keep their modifications with the writers; a
            // pinned page's owner never reaches this hook (suppressed
            // upstream) and a surprise second writer publishes homeless-style
            // until the pin is broken at the next barrier.
            PageMode::Homeless | PageMode::Pinned(_) => {}
            PageMode::Home(home) => home_publish(cfg, local, NodeId::new(home), rec),
        }
    }

    fn on_miss(
        &self,
        cfg: &DsmConfig,
        local: &mut NodeLocal,
        rs: &mut LrcRegionState,
        m: &MissInfo<'_>,
    ) {
        match self.mode(m.ridx, m.page) {
            PageMode::Homeless => self.homeless.on_miss(cfg, local, rs, m),
            PageMode::Home(home) => home_miss(cfg, local, NodeId::new(home), m),
            // A miss on a pinned page means a second sharer appeared: the
            // owner holds the only current copy, so the fetch is one
            // whole-page round trip to it — exactly a home fetch with the
            // owner as the home.  The miss also lands in the page's window
            // statistics, breaking the pin at the next barrier.
            PageMode::Pinned(owner) => home_miss(cfg, local, NodeId::new(owner), m),
        }
    }

    fn charge_write_fault(&self, node: NodeId, ridx: usize, page: usize) -> bool {
        !matches!(self.mode(ridx, page), PageMode::Pinned(o) if o == node.index() as u32)
    }

    fn suppress_publish(&self, node: NodeId, ridx: usize, page: usize) -> bool {
        matches!(self.mode(ridx, page), PageMode::Pinned(o) if o == node.index() as u32)
    }

    fn barrier_commit(
        &self,
        cfg: &DsmConfig,
        regions: &[RegionDesc],
        region_state: &[RwLock<LrcRegionState>],
        local: &mut NodeLocal,
    ) -> usize {
        // Only diff collection pays for every pending per-interval diff on a
        // homeless miss; the timestamp collections send one consolidated
        // reply, so for them a home could only add cost and the controller
        // restricts itself to pin/unpin decisions (see
        // `PageSharing::candidate`).
        let accumulating = cfg.kind.collection() == crate::config::Collection::Diffs;
        let mut ctrl = sync::lock(&self.ctrl);
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

    fn migration_trace(&self) -> Vec<PageModeChange> {
        sync::lock(&self.ctrl).trace.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::super::ordering::LrcEngine;
    use super::*;
    use crate::config::ImplKind;
    use crate::engine::ProtocolEngine;
    use dsm_mem::{BlockGranularity, RegionId, PAGE_SIZE};

    fn engine() -> LrcEngine<Adaptive> {
        let cfg = DsmConfig::with_procs(ImplKind::adaptive_diff(), 4);
        let regions = vec![RegionDesc::new(
            RegionId::new(0),
            "r",
            4 * PAGE_SIZE,
            BlockGranularity::Word,
        )];
        let init = vec![vec![0u8; 4 * PAGE_SIZE]];
        LrcEngine::new(&cfg, &regions, &init)
    }

    fn node(e: &LrcEngine<Adaptive>, idx: u32) -> NodeLocal {
        let (cfg, regions) = e.parts();
        NodeLocal::new(
            NodeId::new(idx),
            cfg.nprocs,
            regions,
            &[vec![0u8; 4 * PAGE_SIZE]],
        )
    }

    /// One write+publish by `writer` at byte `off`, then a barrier commit.
    fn write_and_commit(e: &LrcEngine<Adaptive>, writer: &mut NodeLocal, off: usize) {
        e.trap_write(writer, 0, off, 4);
        writer.regions[0].data[off..off + 4].copy_from_slice(&0xabu32.to_le_bytes());
        e.barrier_arrive(writer);
        e.barrier_commit(writer);
    }

    #[test]
    fn lone_writer_is_pinned_and_a_miss_breaks_the_pin() {
        let e = engine();
        let mut w = node(&e, 1);
        let policy = e.policy();

        write_and_commit(&e, &mut w, 0);
        assert_eq!(
            policy.mode(0, 0),
            PageMode::Homeless,
            "hysteresis: 1 window"
        );
        write_and_commit(&e, &mut w, 4);
        assert_eq!(policy.mode(0, 0), PageMode::Pinned(1));
        assert!(policy.suppress_publish(NodeId::new(1), 0, 0));
        assert!(!policy.charge_write_fault(NodeId::new(1), 0, 0));
        assert!(policy.charge_write_fault(NodeId::new(2), 0, 0));

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
            policy.mode(0, 0),
            PageMode::Pinned(1),
            "pin must break after a foreign miss"
        );

        let trace = e.migration_trace();
        assert!(!trace.is_empty());
        assert_eq!(trace[0].mode, PageMode::Pinned(1));
    }

    #[test]
    fn contents_are_mode_independent_while_pinned() {
        let e = engine();
        let mut w = node(&e, 0);
        // Pin page 0 to node 0, then write while pinned: the master must
        // still receive the bytes (suppression is accounting-only).
        write_and_commit(&e, &mut w, 0);
        write_and_commit(&e, &mut w, 4);
        assert_eq!(e.policy().mode(0, 0), PageMode::Pinned(0));
        e.trap_write(&mut w, 0, 16, 4);
        w.regions[0].data[16..20].copy_from_slice(&77u32.to_le_bytes());
        e.barrier_arrive(&mut w);
        let mut out = [0u8; 4];
        e.read_master(0, 16, &mut out);
        assert_eq!(out, 77u32.to_le_bytes());
    }
}
