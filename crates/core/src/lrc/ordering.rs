//! The one engine of the LRC protocol family.
//!
//! Execution is divided into intervals ended by releases and barrier
//! arrivals.  At the end of an interval the modifications to every dirty page
//! are recorded (a diff, or timestamped blocks) and announced through write
//! notices; an acquire merges the releaser's vector and receives the notices;
//! the data itself moves according to the page's mode in the [`Placement`]
//! table — lazily at the access miss that follows the invalidation
//! (homeless), or eagerly to the page's home at release with a one-node fetch
//! at the miss (home, or the owner of a pinned page).
//!
//! State is sharded: each region's published pages sit behind their own
//! `RwLock`, each node's interval-size log behind its own `RwLock` (one
//! writer — the owning node — many readers), and each lock's release vector
//! behind its own mutex.  Faults on one region never block publishes to
//! another.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

use dsm_mem::{pages_in, same_stamp_runs, MemRange, PageModeChange, RegionDesc, VectorClock};
use dsm_sim::{Charge, NodeId, RegionSharing};

use crate::config::{Collection, DsmConfig, Trapping};
use crate::engine::{diff_size, ProtocolEngine, DIFF_RING};
use crate::ids::{LockId, LockMode};
use crate::local::{HeldLock, LocalPage, LocalRegion, NodeLocal};
use crate::recovery::UndoRec;
use crate::sync::{self, SlotTable};

use super::placement::{MissInfo, Placement};
use super::state::{
    pack_stamp, unpack_stamp, LrcLockState, LrcPageState, LrcRegionState, NOTICE_WIRE_BYTES,
};

/// Publishes one maximal run of changed words: copies the new bytes into the
/// master and stamps every word of the run.  `run` is in page-relative word
/// indices; the byte end is clamped to the page span (the last word of the
/// last page may be partial).
#[inline]
fn publish_run(
    master: &mut [u8],
    stamps: &mut [u64],
    data: &[u8],
    span: &Range<usize>,
    base_word: usize,
    stamp: u64,
    run: Range<usize>,
) {
    let sb = span.start + run.start * 4;
    let eb = (span.start + run.end * 4).min(span.end);
    master[sb..eb].copy_from_slice(&data[sb..eb]);
    stamps[base_word + run.start..base_word + run.end].fill(stamp);
}

/// An access miss's walk over one page: the counts its simulated charges
/// are computed from.
#[derive(Debug, Default, PartialEq, Eq)]
struct MissWalk {
    /// Words copied from the master copy.
    applied_words: usize,
    /// Maximal runs of applied words sharing one stamp.
    ts_runs: usize,
}

/// Brings the page `span` of a node's region copy `data` up to date: copies
/// from `master` every word stamped by a remote publish that `vector`
/// entitles the node to and `lp.applied` has not seen, one same-stamp run at
/// a time (one decision and one copy per run).
///
/// On a page with unpublished local writes the written words keep their
/// local values: each run is applied around them, one copy per unwritten
/// sub-run.  The page's twin, if it has one, receives the same words, so the
/// next release's twin compare does not republish them as the node's own.
/// Adjacent same-stamp runs never share a stamp and sub-runs are separated
/// by written words, so `ts_runs` counts one per applied (sub-)run — what a
/// word-by-word walk that starts a run at every stamp change or gap counts.
fn apply_entitled(
    stamp: &[u64],
    master: &[u8],
    span: Range<usize>,
    data: &mut [u8],
    lp: &mut LocalPage,
    vector: &VectorClock,
    me_idx: usize,
) -> MissWalk {
    let base_word = span.start / 4;
    let nwords = span.len().div_ceil(4);
    let LocalPage {
        twin,
        written,
        dirty,
        applied,
        ..
    } = lp;
    let written = if *dirty { written.as_ref() } else { None };
    let mut walk = MissWalk::default();
    // Copies page words `s..e`; a last word past the region end is partial.
    let mut copy = |s: usize, e: usize| {
        let (sb, eb) = (s * 4, (e * 4).min(span.len()));
        let src = &master[span.start + sb..span.start + eb];
        data[span.start + sb..span.start + eb].copy_from_slice(src);
        if let Some(twin) = twin.as_deref_mut() {
            twin[sb..eb].copy_from_slice(src);
        }
        walk.applied_words += e - s;
        walk.ts_runs += 1;
    };
    same_stamp_runs(stamp, base_word..base_word + nwords, |first, last, st| {
        let Some((qn, i)) = unpack_stamp(st) else {
            return;
        };
        let q = qn.index();
        if q == me_idx || i > vector.entry(qn) || i <= applied[q] {
            return;
        }
        let (s, e) = (first - base_word, last - base_word);
        let Some(bits) = written else {
            copy(s, e);
            return;
        };
        let mut w = s;
        while w < e {
            if bits.get(w) {
                w += 1;
                continue;
            }
            let run = w;
            while w < e && !bits.get(w) {
                w += 1;
            }
            copy(run, w);
        }
    });
    walk
}

/// The lazy-release-consistency [`ProtocolEngine`] of every LRC family
/// member: `LRC-*`, `HLRC-*` and `ALRC-*` differ only in their [`Placement`]
/// table.
pub(crate) struct LrcEngine {
    cfg: DsmConfig,
    regions: Vec<RegionDesc>,
    /// Published master copies and write-notice indexes, one `RwLock` per
    /// region.
    region_state: Vec<RwLock<LrcRegionState>>,
    /// Per-region monotonic publish generation, bumped (while the region's
    /// write lock is held) every time an interval publishes modifications to
    /// the region.  Freshness checks compare it lock-free against each
    /// page's `checked_gen`: an unchanged generation proves no publish —
    /// entitled or not — has landed since the page was last verified fully
    /// caught up, so the O(nprocs) stale-source scan can be skipped.
    publish_gen: Vec<AtomicU64>,
    /// Per node, per interval (1-based): how many pages that interval
    /// published.  One `RwLock` per node: only the owner appends, anyone may
    /// read while counting write notices.
    interval_pages: Vec<RwLock<Vec<u32>>>,
    /// Per-lock release vectors, one mutex per lock, created on demand.
    lock_state: SlotTable<Mutex<LrcLockState>>,
    /// Where each page's modifications live, and the `ALRC-*` controller.
    placement: Placement,
}

impl std::fmt::Debug for LrcEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LrcEngine")
            .field("regions", &self.regions.len())
            .field("locks", &self.lock_state.len())
            .finish()
    }
}

impl LrcEngine {
    /// Builds the engine for a run.
    pub fn new(cfg: &DsmConfig, regions: &[RegionDesc], init: &[Vec<u8>]) -> Self {
        let nprocs = cfg.nprocs;
        let region_state = regions
            .iter()
            .zip(init.iter())
            .map(|(d, init)| {
                RwLock::new(LrcRegionState {
                    master: init.clone(),
                    stamp: vec![0; d.len.div_ceil(4)],
                    pages: (0..pages_in(d.len).max(1))
                        .map(|_| LrcPageState::new(nprocs))
                        .collect(),
                })
            })
            .collect();
        LrcEngine {
            cfg: cfg.clone(),
            regions: regions.to_vec(),
            region_state,
            publish_gen: regions.iter().map(|_| AtomicU64::new(0)).collect(),
            interval_pages: (0..nprocs).map(|_| RwLock::new(Vec::new())).collect(),
            lock_state: SlotTable::new(move |_| {
                Mutex::new(LrcLockState {
                    release_vec: VectorClock::new(nprocs),
                })
            }),
            placement: Placement::new(cfg, regions),
        }
    }

    /// Number of write notices carried by a message that brings a node whose
    /// vector is `from` up to vector `to`: one notice per page published in
    /// every interval in between.
    fn notices_between(&self, from: &VectorClock, to: &VectorClock) -> u64 {
        let mut notices = 0u64;
        for (node_idx, cell) in self.interval_pages.iter().enumerate() {
            let counts = sync::read(cell);
            let node = NodeId::new(node_idx as u32);
            let lo = from.entry(node);
            let hi = to.entry(node);
            for interval in (lo + 1)..=hi {
                if let Some(&c) = counts.get(interval as usize - 1) {
                    notices += c as u64;
                }
            }
        }
        notices
    }

    /// Ends the current interval: for every page dirtied since the last
    /// release/barrier, record the modifications in the shared store,
    /// register a write notice, and account the data movement of the page's
    /// mode (nothing for a homeless page, an eager flush for a homed one).
    fn publish_interval(&self, local: &mut NodeLocal) {
        if local.dirty_pages.is_empty() {
            return;
        }
        let trapping = self.cfg.kind.trapping();
        let collection = self.cfg.kind.collection();
        let lazy = self.cfg.kind.diffs_lazily();
        let me = local.node;
        let me_idx = me.index();
        let next_interval = local.vector.entry(me) + 1;
        let total_region_pages: u64 = self.regions.iter().map(|d| pages_in(d.len) as u64).sum();

        // Swap in the spare list so the drained buffer keeps its capacity
        // for the next interval (taking it outright would surrender the
        // allocation every publish).
        let dirty = std::mem::replace(
            &mut local.dirty_pages,
            std::mem::take(&mut local.scratch_dirty),
        );
        let mut published_pages = 0u32;
        let mut total_compare_words = 0u64;
        let mut reprotects = 0u64;
        // Transport endpoint, taken out so `local` stays borrowable; every
        // path below puts it back.  Under the simulated backend this is None
        // and the loop stays branch-only.
        let mut wire = local.wire.take();

        // The publish-time vector every history record of this interval
        // stores: the current vector with our own entry already bumped.
        // Built once per interval in the node's scratch clock (returned
        // below) so the per-page loop stays allocation-free.
        let mut pub_clock = std::mem::take(&mut local.scratch_clock);
        pub_clock.copy_from(&local.vector);
        pub_clock.set_entry(me, next_interval);

        for &(ridx, page) in &dirty {
            // A pinned page's owner does no protocol work: its diff/twin
            // costs and statistics are suppressed below.  Only accounting is
            // affected — master updates, stamps, history records and replica
            // frames are emitted regardless, so contents stay
            // mode-independent.
            let suppress = self.placement.pinned_to(me, ridx, page);
            let track = wire.is_some();
            let mut frame_runs = match wire.as_deref_mut() {
                Some(w) => std::mem::take(&mut w.scratch_runs),
                None => Vec::new(),
            };
            let local_region = &mut local.regions[ridx];
            let span = local_region.page_span(page);
            let mut rs = sync::write(&self.region_state[ridx]);
            let base_word = span.start / 4;
            let nwords = span.len().div_ceil(4);
            let stamp = pack_stamp(me, next_interval);

            let mut changed_words = 0usize;
            let mut runs = 0usize;
            let mut compare_words = 0usize;

            {
                let LocalRegion { data, pages } = local_region;
                let lp = &mut pages[page];
                let rsd = &mut *rs;
                match trapping {
                    // The dirty bits already are the change set: walk their
                    // maximal runs directly (word-at-a-time trailing_zeros)
                    // instead of branching on every block of the page, and
                    // emit each run as one copy + one stamp fill.
                    Trapping::Instrumentation => {
                        for (first, len) in lp.written.iter().flat_map(|b| b.iter_runs()) {
                            if first >= nwords {
                                break;
                            }
                            let last = (first + len).min(nwords);
                            publish_run(
                                &mut rsd.master,
                                &mut rsd.stamp,
                                data,
                                &span,
                                base_word,
                                stamp,
                                first..last,
                            );
                            if track {
                                let sb = span.start + first * 4;
                                let eb = (span.start + last * 4).min(span.end);
                                frame_runs.push((sb as u32, (eb - sb) as u32));
                            }
                            changed_words += last - first;
                            runs += 1;
                        }
                    }
                    // Twinning has no dirty bits to trust: every word is
                    // compared against the twin (that comparison *is* the
                    // charged collection cost — `compare_words` counts every
                    // word of the page whatever the chunked scan skips).
                    // `changed_word_runs` skips equal 256-byte blocks,
                    // compares the rest eight bytes at a time and delivers
                    // each maximal changed run once, published with one copy
                    // and one stamp fill.
                    Trapping::Twinning => {
                        if let Some(twin) = &lp.twin {
                            compare_words = nwords;
                            let cur = &data[span.clone()];
                            dsm_mem::changed_word_runs(twin, cur, 0..nwords, |s, e| {
                                changed_words += e - s;
                                runs += 1;
                                publish_run(
                                    &mut rsd.master,
                                    &mut rsd.stamp,
                                    data,
                                    &span,
                                    base_word,
                                    stamp,
                                    s..e,
                                );
                                if track {
                                    let sb = span.start + s * 4;
                                    let eb = (span.start + e * 4).min(span.end);
                                    frame_runs.push((sb as u32, (eb - sb) as u32));
                                }
                            });
                        }
                    }
                }
                lp.applied[me_idx] = next_interval;
                if trapping == Trapping::Twinning {
                    if let Some(twin) = lp.twin.take() {
                        if !suppress {
                            reprotects += 1;
                        }
                        local.pool.put(twin);
                    }
                }
                lp.clear_interval_state();
            }

            if !suppress {
                total_compare_words += compare_words as u64;
            }

            if changed_words > 0 {
                if !suppress {
                    // A pinned page's owner broadcasts no write notice either
                    // (nobody else holds a copy to invalidate): the page does
                    // not count toward this interval's notice payload.  The
                    // history records below still carry the stamps, so a
                    // surprise reader's miss — which breaks the pin — is
                    // detected regardless.
                    published_pages += 1;
                    local.stats.diff_words += changed_words as u64;
                    if collection == Collection::Diffs {
                        local.stats.diffs_created += 1;
                    }
                }
                // Commit the publish to the region's generation while the
                // write lock is still held, so a concurrent freshness check
                // under the read lock sees a stable value.  The generation
                // doubles as the frame's per-region sequence number: it is
                // bumped exactly once per published page, always under this
                // write lock, so replaying frames in sequence order
                // reconstructs the master copies byte for byte.
                let gen = self.publish_gen[ridx].fetch_add(1, Ordering::Release) + 1;
                if let Some(w) = wire.as_deref_mut() {
                    w.publish(
                        ridx as u32,
                        gen,
                        local.vector.entries(),
                        &frame_runs,
                        &local.regions[ridx].data,
                    );
                }
                let ps = &mut rs.pages[page];
                // Sharing statistics for the `ALRC-*` controller, recorded
                // before the history append: the publish is *serial* if the
                // page's previous record is already covered by our vector
                // (the writers synchronized in between — migratory data), a
                // fact read off the entitlement-visible history alone.  The
                // unsuppressed encoded size is recorded so the controller's
                // signal does not depend on the page's current mode.
                let serial = ps
                    .history
                    .back()
                    .map_or(true, |r| r.interval <= local.vector.entry(r.node));
                let encoded_size = diff_size(changed_words, runs);
                ps.sharing.record_publish(me_idx, encoded_size, serial);
                ps.latest[me_idx] = next_interval;
                // Append to the page's publish history (recycled buffers:
                // steady-state publishes allocate nothing).
                let rec = ps.push_pub(me, next_interval, &pub_clock, DIFF_RING);
                rec.encoded_size = if suppress { 0 } else { encoded_size };
                rec.compare_words = if suppress { 0 } else { compare_words };
                rec.creation_charged = suppress || !lazy;
                if !suppress {
                    self.placement.publish(local, ridx, page, rec);
                }
            }

            // Hand the run table back to the endpoint so the next page's
            // publish reuses its capacity.
            if let Some(w) = wire.as_deref_mut() {
                frame_runs.clear();
                w.scratch_runs = frame_runs;
            }
        }

        match trapping {
            Trapping::Twinning => {
                local.charge(Charge::Mprotect(reprotects));
            }
            Trapping::Instrumentation => {
                // Hierarchical dirty bits (Section 4.1): finding the dirty
                // pages means checking the page-level dirty bit of every
                // page in the shared data set.
                local.charge(Charge::PageBitChecks(total_region_pages));
            }
        }
        if !lazy {
            // Without lazy diffing the twin comparison that found the
            // modified blocks is paid at the end of the interval (no words
            // under instrumentation).
            local.charge(Charge::DiffCompare(total_compare_words));
        }

        // Hand the drained list back as the spare for the next interval.
        let mut drained = dirty;
        drained.clear();
        local.scratch_dirty = drained;

        {
            // The interval log grows for the whole run; reserving it in
            // coarse chunks keeps steady-state publishes allocation-free
            // between (rare) growth steps.
            let mut log = sync::write(&self.interval_pages[me_idx]);
            if log.len() == log.capacity() {
                log.reserve(1024);
            }
            log.push(published_pages);
        }
        local.scratch_clock = pub_clock;
        local.vector.bump(me);
        // Epoch boundary: everything this interval published moves in one
        // batch per peer.
        if let Some(w) = wire.as_deref_mut() {
            w.flush();
        }
        local.wire = wire;
    }

    /// Which processors have published modifications to this page that the
    /// caller is entitled to see (their interval happens-before the caller's
    /// acquire) but has not yet applied?  Appends `(proc, from, upto)` per
    /// source to `out`, a scratch buffer owned by the caller's `NodeLocal`
    /// so the per-access path never allocates.
    ///
    /// The decision reads only *entitlement-visible* publish records: the
    /// newest history entry per source whose interval the caller's vector
    /// covers (plus the conservative evicted floor).  A concurrent publish
    /// the caller is not yet entitled to therefore cannot flip the outcome,
    /// which is what makes multi-processor miss counts deterministic for
    /// data-race-free programs.
    fn stale_sources_into(
        &self,
        rs: &LrcRegionState,
        local: &NodeLocal,
        ridx: usize,
        page: usize,
        upto_scratch: &mut Vec<u32>,
        out: &mut Vec<(usize, u32, u32)>,
    ) {
        let ps = &rs.pages[page];
        let lp = &local.regions[ridx].pages[page];
        // One forward pass over the retained history: a node's publish
        // intervals are strictly increasing along the ring, so the last
        // entitled record seen per node is its largest — the check stays
        // O(history + nprocs), not O(history * nprocs).
        upto_scratch.clear();
        upto_scratch.resize(local.nprocs, 0);
        for rec in ps.history.iter() {
            if rec.interval <= local.vector.entry(rec.node) {
                upto_scratch[rec.node.index()] = rec.interval;
            }
        }
        for (q, &ring_upto) in upto_scratch.iter().enumerate() {
            if q == local.node.index() {
                continue;
            }
            let qn = NodeId::new(q as u32);
            let v = local.vector.entry(qn);
            // Largest publish of `q` to this page that we are entitled to:
            // exact over the retained history, conservative below the
            // eviction mark.
            let upto = ring_upto.max(ps.evicted_latest[q].min(v));
            if upto > lp.applied[q] {
                out.push((q, lp.applied[q], upto));
            }
        }
    }

    /// Resolves the page's stale sources into `stale`.  With none the page
    /// is fresh: it is marked checked for this epoch and `true` is returned.
    /// The caller holds the region's read or write lock.
    fn settle_if_fresh(
        &self,
        rs: &LrcRegionState,
        local: &mut NodeLocal,
        ridx: usize,
        page: usize,
        upto_scratch: &mut Vec<u32>,
        stale: &mut Vec<(usize, u32, u32)>,
    ) -> bool {
        stale.clear();
        self.stale_sources_into(rs, local, ridx, page, upto_scratch, stale);
        if !stale.is_empty() {
            return false;
        }
        let (me_idx, epoch) = (local.node.index(), local.epoch);
        let lp = &mut local.regions[ridx].pages[page];
        self.mark_checked(&rs.pages[page], lp, ridx, me_idx, epoch);
        true
    }

    /// Marks a fresh page checked for `epoch`.  A page that has applied
    /// *every* publish made to it (not merely every publish the node is
    /// entitled to) is also marked caught up: it stays fresh across epochs
    /// for as long as the region's publish generation is unchanged, whatever
    /// the node's vector gains at later acquires.  The caller holds the
    /// region's lock, under which the generation is stable.
    fn mark_checked(
        &self,
        ps: &LrcPageState,
        lp: &mut LocalPage,
        ridx: usize,
        me_idx: usize,
        epoch: u64,
    ) {
        let caught_up = ps
            .latest
            .iter()
            .enumerate()
            .all(|(q, &latest)| q == me_idx || latest <= lp.applied[q]);
        let rgen = self.publish_gen[ridx].load(Ordering::Acquire);
        lp.checked_epoch = epoch;
        lp.checked_gen = if caught_up { rgen + 1 } else { 0 };
    }

    /// The locked half of `ensure_read_fresh`: settles the page under the
    /// region's read lock if it is fresh, and otherwise takes the access
    /// miss under the write lock.
    fn refresh(
        &self,
        local: &mut NodeLocal,
        ridx: usize,
        page: usize,
        stale: &mut Vec<(usize, u32, u32)>,
        upto_scratch: &mut Vec<u32>,
    ) {
        // Fast path: a read lock suffices to discover the page is fresh.
        // Staleness is monotone while our vector is fixed (entitled publish
        // records only grow), so a page seen fresh here stays fresh for this
        // epoch.
        {
            let rs = sync::read(&self.region_state[ridx]);
            if self.settle_if_fresh(&rs, local, ridx, page, upto_scratch, stale) {
                return;
            }
        }

        // Access miss: re-resolve under the write lock (more intervals may
        // have been published meanwhile; applying them too is within our
        // entitlement).
        let mut rs = sync::write(&self.region_state[ridx]);
        if self.settle_if_fresh(&rs, local, ridx, page, upto_scratch, stale) {
            return;
        }

        local.charge(Charge::AccessMiss);
        rs.pages[page].sharing.record_miss();
        local.undo(|| UndoRec::SharingMiss { ridx, page });

        let me_idx = local.node.index();
        let span = local.regions[ridx].page_span(page);
        let nwords = span.len().div_ceil(4);
        let walk = {
            let LocalRegion { data, pages } = &mut local.regions[ridx];
            let lp = &mut pages[page];
            let walk = apply_entitled(&rs.stamp, &rs.master, span, data, lp, &local.vector, me_idx);
            for &(q, _, upto) in stale.iter() {
                lp.applied[q] = lp.applied[q].max(upto);
            }
            self.mark_checked(&rs.pages[page], lp, ridx, me_idx, local.epoch);
            walk
        };

        // Data movement: responders, reply sizes, collection costs and
        // messages follow the page's mode.
        let miss = MissInfo {
            ridx,
            page,
            gran: self.regions[ridx].granularity,
            nwords,
            applied_words: walk.applied_words,
            ts_runs: walk.ts_runs,
            stale,
        };
        self.placement.miss(&self.cfg, local, &mut rs, &miss);
    }

    /// Test-only view of the configuration and region table (the placement
    /// module's unit tests build `NodeLocal`s against them).
    #[cfg(test)]
    pub(crate) fn parts(&self) -> (&DsmConfig, &[RegionDesc]) {
        (&self.cfg, &self.regions)
    }

    /// Test-only access to the placement table.
    #[cfg(test)]
    pub(crate) fn placement(&self) -> &Placement {
        &self.placement
    }
}

impl ProtocolEngine for LrcEngine {
    fn bind(&self, _lock: LockId, _ranges: Vec<MemRange>) {
        // LRC has no notion of binding; the call is accepted so the same
        // setup code can serve both models.
    }

    fn rebind(&self, _lock: LockId, _ranges: Vec<MemRange>) {}

    fn validate_acquire(&self, _lock: LockId, mode: LockMode) {
        assert!(
            mode.is_exclusive(),
            "the LRC implementations provide exclusive locks only (no read-only locks are needed \
             for the application suite, Section 3.2)"
        );
    }

    /// Merge the releaser's vector and receive its write notices; returns the
    /// grant payload size in bytes.
    fn remote_grant(&self, local: &mut NodeLocal, lock: LockId) -> usize {
        // Copy the release vector into the node's scratch clock (reused
        // buffer, no allocation) so the lock mutex is not held across the
        // interval-log reads below.
        {
            let st = sync::lock(self.lock_state.get(lock.index()));
            local.scratch_clock.copy_from(&st.release_vec);
        }
        let notices = self.notices_between(&local.vector, &local.scratch_clock);
        let payload = local.scratch_clock.wire_size() + notices as usize * NOTICE_WIRE_BYTES;
        local.stats.write_notices_received += notices;
        let NodeLocal {
            vector,
            scratch_clock,
            ..
        } = local;
        vector.merge_max(scratch_clock);
        payload
    }

    fn after_acquire(&self, local: &mut NodeLocal, _lock: LockId, _held: &mut HeldLock) {
        local.epoch += 1;
    }

    /// End the current interval (publishing the modifications of its dirty
    /// pages) and record the release vector for the next acquirer.
    fn before_release(&self, local: &mut NodeLocal, lock: LockId, _held: &mut HeldLock) {
        self.publish_interval(local);
        sync::lock(self.lock_state.get(lock.index()))
            .release_vec
            .copy_from(&local.vector);
    }

    fn barrier_arrive(&self, local: &mut NodeLocal) -> usize {
        // Arriving at a barrier ends the current interval.
        self.publish_interval(local);
        let me = local.node;
        let prev = local.intervals_at_last_barrier;
        let cur = local.vector.entry(me);
        let mut pages = 0u64;
        {
            let counts = sync::read(&self.interval_pages[me.index()]);
            for interval in (prev + 1)..=cur {
                if let Some(&c) = counts.get(interval as usize - 1) {
                    pages += c as u64;
                }
            }
        }
        local.intervals_at_last_barrier = cur;
        local.vector.wire_size() + pages as usize * NOTICE_WIRE_BYTES
    }

    fn barrier_depart(
        &self,
        local: &mut NodeLocal,
        old_vector: &VectorClock,
        released_vector: &VectorClock,
    ) -> usize {
        let notices = self.notices_between(old_vector, released_vector);
        local.stats.write_notices_received += notices;
        local.vector.merge_max(released_vector);
        released_vector.wire_size() + notices as usize * NOTICE_WIRE_BYTES
    }

    /// Ensures the local copy of a page reflects every modification this node
    /// is entitled to see, taking an access miss (invalidate protocol) if it
    /// does not.  The freshness decision and the apply walk are the same in
    /// every page mode; only the data-movement accounting of the miss differs.
    fn ensure_read_fresh(&self, local: &mut NodeLocal, ridx: usize, page: usize) {
        let epoch = local.epoch;
        {
            let lp = &local.regions[ridx].pages[page];
            if lp.checked_epoch == epoch {
                return;
            }
        }

        // Cross-epoch fast path, lock-free: if the page had applied *every*
        // publish when last verified (`checked_gen` is that generation + 1)
        // and the region's generation has not moved, then no modification we
        // could be entitled to exists — whatever our vector gained since.
        // Any publish we became entitled to at this epoch's acquire
        // happened-before the vector merge that entitled us (both orderings
        // run through the lock/barrier mutexes), so its generation bump is
        // guaranteed visible to this load.
        let gen = self.publish_gen[ridx].load(Ordering::Acquire);
        {
            let lp = &mut local.regions[ridx].pages[page];
            if lp.checked_gen == gen + 1 {
                lp.checked_epoch = epoch;
                return;
            }
        }

        // The stale-source scan reuses the node's scratch buffers, taken out
        // of `local` so the borrows in `refresh` stay disjoint.
        let mut stale = std::mem::take(&mut local.scratch_stale);
        let mut upto = std::mem::take(&mut local.scratch_upto);
        self.refresh(local, ridx, page, &mut stale, &mut upto);
        local.scratch_stale = stale;
        local.scratch_upto = upto;
    }

    /// Write-trapping for LRC: ensure freshness, then record the span's
    /// writes in the current interval, touching each page's state once.
    fn trap_write_span(
        &self,
        local: &mut NodeLocal,
        ridx: usize,
        off: usize,
        len: usize,
        count: usize,
    ) {
        dsm_mem::for_each_page(off, len, |page, _| {
            self.ensure_read_fresh(local, ridx, page);
        });
        let trapping = self.cfg.kind.trapping();

        if trapping == Trapping::Instrumentation {
            // One store per word-level dirty bit (two without loop
            // splitting), plus the hierarchical scheme's page-level bit.
            let factor = 1 + if self.cfg.ci_loop_optimization { 1 } else { 2 };
            local.charge(Charge::InstrumentedWrites(count as u64, factor));
        }

        let me = local.node;
        dsm_mem::for_each_page(off, len, |page, bytes| {
            let region = &mut local.regions[ridx];
            if trapping == Trapping::Twinning && region.pages[page].twin.is_none() {
                let span = region.page_span(page);
                let words = span.len().div_ceil(4) as u64;
                region.pages[page].twin = Some(local.pool.take_copy(&region.data[span]));
                // A pinned page's owner writes without protocol work: the
                // twin is still made (content mechanics are mode-free) but
                // the fault's costs and statistics are suppressed.
                if !self.placement.pinned_to(me, ridx, page) {
                    local.charge(Charge::WriteFault(words));
                }
            }
            let base_word = (page * dsm_mem::PAGE_SIZE) / 4;
            let lp = &mut local.regions[ridx].pages[page];
            lp.written_mut()
                .set_range(bytes.start / 4 - base_word..bytes.end.div_ceil(4) - base_word);
            if !lp.dirty {
                lp.dirty = true;
                local.dirty_pages.push((ridx, page));
            }
        });
    }

    fn read_master(&self, ridx: usize, off: usize, out: &mut [u8]) {
        let rs = sync::read(&self.region_state[ridx]);
        out.copy_from_slice(&rs.master[off..off + out.len()]);
    }

    fn final_regions(&self) -> Vec<Vec<u8>> {
        self.region_state
            .iter()
            .map(|r| sync::read(r).master.clone())
            .collect()
    }

    fn barrier_commit(&self, local: &mut NodeLocal) -> usize {
        self.placement
            .barrier_commit(&self.cfg, &self.regions, &self.region_state, local)
    }

    fn migration_trace(&self) -> Vec<PageModeChange> {
        self.placement.migration_trace()
    }

    /// Per-region roll-up of the page sharing accumulators.  Every LRC
    /// family reports them — the ordering core records them — even though
    /// only the `ALRC-*` controller acts on them.
    fn sharing_report(&self) -> Vec<RegionSharing> {
        self.regions
            .iter()
            .enumerate()
            .map(|(ridx, d)| {
                let rs = sync::read(&self.region_state[ridx]);
                let mut out = RegionSharing {
                    region: d.name.clone(),
                    pages: rs.pages.len() as u64,
                    ..RegionSharing::default()
                };
                let mut wrote = vec![false; self.cfg.nprocs];
                for ps in &rs.pages {
                    out.publishes += ps.sharing.total_publishes;
                    out.misses += ps.sharing.total_misses;
                    out.diff_bytes += ps.sharing.total_diff_bytes;
                    for (q, &latest) in ps.latest.iter().enumerate() {
                        if latest > 0 {
                            wrote[q] = true;
                        }
                    }
                }
                out.distinct_writers = wrote.iter().filter(|&&w| w).count() as u32;
                out
            })
            .collect()
    }

    /// Unwinds the crash epoch's effects on the shared region state: sharing
    /// miss accumulators and homeless first-miss diff charges.  Crash-epoch
    /// *publishes* never happen — the injected crash fires before the
    /// barrier's interval publication — so the publish history, latest
    /// vectors and generations need no undo.
    fn rollback_undo(&self, _node: NodeId, undo: &[UndoRec]) {
        for rec in undo.iter().rev() {
            match *rec {
                UndoRec::SharingMiss { ridx, page } => {
                    let mut rs = sync::write(&self.region_state[ridx]);
                    rs.pages[page].sharing.unrecord_miss();
                }
                UndoRec::LrcDiffCharge {
                    ridx,
                    page,
                    node,
                    interval,
                } => {
                    let mut rs = sync::write(&self.region_state[ridx]);
                    if let Some(d) = rs.pages[page]
                        .history
                        .iter_mut()
                        .find(|d| d.node == node && d.interval == interval)
                    {
                        d.creation_charged = false;
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ImplKind;
    use crate::local::WORDS_PER_PAGE;
    use dsm_mem::testutil::TestRng;
    use dsm_mem::{BlockGranularity, RegionId};
    use dsm_sim::MsgKind;

    fn engine(kind: ImplKind) -> LrcEngine {
        let cfg = DsmConfig::with_procs(kind, 4);
        let regions = vec![RegionDesc::new(
            RegionId::new(0),
            "r",
            8192,
            BlockGranularity::Word,
        )];
        let init = vec![vec![0u8; 8192]];
        LrcEngine::new(&cfg, &regions, &init)
    }

    fn node(e: &LrcEngine, idx: u32) -> NodeLocal {
        let regions = e.regions.clone();
        let init = vec![vec![0u8; 8192]];
        NodeLocal::new(
            NodeId::new(idx),
            e.cfg.nprocs,
            &regions,
            &init,
            e.cfg.cost.clone(),
        )
    }

    #[test]
    fn notice_counting_over_sharded_interval_logs() {
        let e = engine(ImplKind::lrc_diff());
        *sync::write(&e.interval_pages[0]) = vec![2, 3, 1]; // node 0: intervals 1..=3
        *sync::write(&e.interval_pages[1]) = vec![5];
        let mut from = VectorClock::new(4);
        let mut to = VectorClock::new(4);
        to.set_entry(NodeId::new(0), 3);
        to.set_entry(NodeId::new(1), 1);
        assert_eq!(e.notices_between(&from, &to), 2 + 3 + 1 + 5);
        from.set_entry(NodeId::new(0), 2);
        assert_eq!(e.notices_between(&from, &to), 1 + 5);
        assert_eq!(e.notices_between(&to, &to), 0);
    }

    #[test]
    #[should_panic(expected = "exclusive locks only")]
    fn read_only_acquire_is_rejected() {
        let e = engine(ImplKind::lrc_time());
        e.validate_acquire(LockId::new(0), LockMode::ReadOnly);
    }

    #[test]
    #[should_panic(expected = "exclusive locks only")]
    fn read_only_acquire_is_rejected_under_hlrc() {
        let e = engine(ImplKind::hlrc_time());
        e.validate_acquire(LockId::new(0), LockMode::ReadOnly);
    }

    #[test]
    fn instrumented_publish_walks_dirty_bit_runs() {
        let e = engine(ImplKind::lrc_ci());
        let mut local = node(&e, 0);
        // Two runs on page 0 (words 0..3 and word 100) and one on page 1.
        for word in [0usize, 1, 2, 100, 1024] {
            let off = word * 4;
            local.regions[0].data[off..off + 4].copy_from_slice(&(word as u32 + 9).to_le_bytes());
            e.trap_write(&mut local, 0, off, 4);
        }
        assert_eq!(local.dirty_pages, vec![(0, 0), (0, 1)]);
        e.barrier_arrive(&mut local);
        assert_eq!(local.stats.diff_words, 5);
        let rs = sync::read(&e.region_state[0]);
        for word in [0usize, 1, 2, 100, 1024] {
            assert_eq!(
                rs.master[word * 4..word * 4 + 4],
                (word as u32 + 9).to_le_bytes(),
                "word {word}"
            );
            assert_eq!(rs.stamp[word], pack_stamp(NodeId::new(0), 1), "word {word}");
        }
        assert_eq!(rs.stamp[3], 0, "untouched word must stay unstamped");
        drop(rs);
        // One generation bump per published page.
        assert_eq!(e.publish_gen[0].load(Ordering::Relaxed), 2);
    }

    #[test]
    fn generation_fast_path_tracks_publishes_across_epochs() {
        let e = engine(ImplKind::lrc_diff());
        let mut reader = node(&e, 0);
        let mut writer = node(&e, 1);

        // Nothing published: the first check records a caught-up generation.
        e.ensure_read_fresh(&mut reader, 0, 0);
        assert_eq!(reader.regions[0].pages[0].checked_gen, 1);
        assert_eq!(reader.stats.access_misses, 0);

        // A publish the reader is *not yet* entitled to invalidates the
        // recorded generation (checked_gen = 0: not caught up).
        // Trap first, then store: the twin must snapshot the pre-write bytes.
        e.trap_write(&mut writer, 0, 0, 4);
        writer.regions[0].data[0..4].copy_from_slice(&42u32.to_le_bytes());
        e.barrier_arrive(&mut writer);
        reader.epoch += 1;
        e.ensure_read_fresh(&mut reader, 0, 0);
        assert_eq!(reader.stats.access_misses, 0, "not entitled: no miss");
        assert_eq!(reader.regions[0].pages[0].checked_gen, 0);

        // Becoming entitled takes the miss, applies, and is caught up again.
        reader.vector.set_entry(NodeId::new(1), 1);
        reader.epoch += 1;
        e.ensure_read_fresh(&mut reader, 0, 0);
        assert_eq!(reader.stats.access_misses, 1);
        assert_eq!(reader.regions[0].data[0..4], 42u32.to_le_bytes());
        let gen = e.publish_gen[0].load(Ordering::Relaxed);
        assert_eq!(reader.regions[0].pages[0].checked_gen, gen + 1);

        // Later epochs ride the lock-free fast path: no further misses.
        reader.epoch += 1;
        e.ensure_read_fresh(&mut reader, 0, 0);
        assert_eq!(reader.stats.access_misses, 1);
        assert_eq!(reader.regions[0].pages[0].checked_epoch, reader.epoch);
    }

    #[test]
    fn unentitled_publishes_do_not_flip_freshness_decisions() {
        let e = engine(ImplKind::lrc_diff());
        let mut reader = node(&e, 0);
        let mut writer = node(&e, 1);

        // Interval 1: a publish the reader will become entitled to.
        e.trap_write(&mut writer, 0, 0, 4);
        writer.regions[0].data[0..4].copy_from_slice(&7u32.to_le_bytes());
        e.barrier_arrive(&mut writer);
        reader.vector.set_entry(NodeId::new(1), 1);
        reader.epoch += 1;
        e.ensure_read_fresh(&mut reader, 0, 0);
        assert_eq!(reader.stats.access_misses, 1);

        // Interval 2: a publish the reader is NOT entitled to lands before
        // its next check.  The raw `latest` mark moves, but the entitled
        // history still tops out at interval 1, which the reader has
        // applied — no spurious miss, deterministically.
        e.trap_write(&mut writer, 0, 8, 4);
        writer.regions[0].data[8..12].copy_from_slice(&8u32.to_le_bytes());
        e.barrier_arrive(&mut writer);
        reader.epoch += 1;
        e.ensure_read_fresh(&mut reader, 0, 0);
        assert_eq!(
            reader.stats.access_misses, 1,
            "an unentitled publish must not cause a spurious miss"
        );
    }

    #[test]
    fn home_based_miss_is_one_round_trip_from_the_home() {
        let e = engine(ImplKind::hlrc_diff());
        // Page 0's round-robin home is node 0; use readers 2 (remote) and a
        // writer 1 so the flush and the fetch are both visible.
        let mut writer = node(&e, 1);
        e.trap_write(&mut writer, 0, 0, 4);
        writer.regions[0].data[0..4].copy_from_slice(&5u32.to_le_bytes());
        e.barrier_arrive(&mut writer);
        // The flush to home 0 is one data-reply-class message at release.
        assert_eq!(writer.stats.messages_of(MsgKind::DataReply), 1);
        assert_eq!(writer.stats.messages_of(MsgKind::DataRequest), 0);

        let mut remote = node(&e, 2);
        remote.vector.set_entry(NodeId::new(1), 1);
        remote.epoch += 1;
        e.ensure_read_fresh(&mut remote, 0, 0);
        assert_eq!(remote.stats.access_misses, 1);
        assert_eq!(remote.stats.messages_of(MsgKind::DataRequest), 1);
        assert_eq!(remote.stats.messages_of(MsgKind::DataReply), 1);
        // The reply is the whole page, not the diff.
        assert_eq!(
            remote.stats.bytes_of(MsgKind::DataReply),
            dsm_mem::PAGE_SIZE as u64
        );
        assert_eq!(remote.regions[0].data[0..4], 5u32.to_le_bytes());

        // The home itself serves the fault locally: a miss, but no messages.
        let mut home = node(&e, 0);
        home.vector.set_entry(NodeId::new(1), 1);
        home.epoch += 1;
        e.ensure_read_fresh(&mut home, 0, 0);
        assert_eq!(home.stats.access_misses, 1);
        assert_eq!(home.stats.messages_of(MsgKind::DataRequest), 0);
        assert_eq!(home.stats.messages_of(MsgKind::DataReply), 0);
        assert_eq!(home.regions[0].data[0..4], 5u32.to_le_bytes());
    }

    /// A node that misses on a page it has already written in its current
    /// interval must not publish the words the miss applied: only its own
    /// write leaves with its interval's stamp, so a later remote write to
    /// the applied word survives.
    fn dirty_page_miss_case(kind: ImplKind) {
        let e = engine(kind);
        let mut reader = node(&e, 0);
        let mut writer = node(&e, 1);
        // Trap first, then store: a twin must hold the pre-write bytes.
        let store = |local: &mut NodeLocal, word: usize, value: u32| {
            e.trap_write(local, 0, word * 4, 4);
            local.regions[0].data[word * 4..word * 4 + 4].copy_from_slice(&value.to_le_bytes());
        };

        store(&mut writer, 0, 7);
        e.barrier_arrive(&mut writer);
        // The reader writes word 1, then becomes entitled to the writer's
        // interval 1 (a nested acquire) and misses on its dirty page.
        store(&mut reader, 1, 5);
        reader.vector.set_entry(NodeId::new(1), 1);
        reader.epoch += 1;
        e.ensure_read_fresh(&mut reader, 0, 0);
        assert_eq!(reader.stats.access_misses, 1, "{kind}");
        assert_eq!(reader.regions[0].data[0..4], 7u32.to_le_bytes(), "{kind}");

        store(&mut writer, 0, 8);
        e.barrier_arrive(&mut writer);
        e.barrier_arrive(&mut reader);
        assert_eq!(
            reader.stats.diff_words, 1,
            "{kind}: the reader wrote one word"
        );
        let mut master = [0u8; 8];
        e.read_master(0, 0, &mut master);
        assert_eq!(master[0..4], 8u32.to_le_bytes(), "{kind}: lost update");
        assert_eq!(master[4..8], 5u32.to_le_bytes(), "{kind}");
    }

    #[test]
    fn dirty_page_miss_does_not_republish_applied_words() {
        for kind in ImplKind::all() {
            if kind.model() != crate::config::Model::Ec {
                dirty_page_miss_case(kind);
            }
        }
    }

    /// The miss walk before the shared stamp-run scan: every word of the
    /// page is decided on its own, a dirty page's written words are skipped,
    /// and only `data` is written.  The reference `apply_entitled` is held
    /// to.
    fn reference_miss_walk(
        stamp: &[u64],
        master: &[u8],
        span: Range<usize>,
        data: &mut [u8],
        lp: &LocalPage,
        vector: &VectorClock,
        me_idx: usize,
    ) -> MissWalk {
        let base_word = span.start / 4;
        let mut walk = MissWalk::default();
        let mut prev: Option<u64> = None;
        for w in 0..span.len().div_ceil(4) {
            let st = stamp[base_word + w];
            let Some((qn, i)) = unpack_stamp(st) else {
                prev = None;
                continue;
            };
            let q = qn.index();
            let entitled = q != me_idx && i <= vector.entry(qn) && i > lp.applied[q];
            if entitled && !(lp.dirty && lp.was_written(w)) {
                let start = span.start + w * 4;
                let end = (start + 4).min(data.len());
                data[start..end].copy_from_slice(&master[start..end]);
                walk.applied_words += 1;
                if prev != Some(st) {
                    walk.ts_runs += 1;
                }
                prev = Some(st);
            } else {
                prev = None;
            }
        }
        walk
    }

    #[test]
    fn miss_walk_matches_the_per_word_walk() {
        const NPROCS: usize = 4;
        // Three pages; the last is partial and ends in a two-byte word.
        const LEN: usize = 2 * dsm_mem::PAGE_SIZE + 1002;
        let nwords = LEN.div_ceil(4);
        for seed in 1..=400u64 {
            let mut rng = TestRng::new(seed);
            let me = rng.below(NPROCS);
            let mut vector = VectorClock::new(NPROCS);
            let mut applied = vec![0u32; NPROCS];
            for (q, mark) in applied.iter_mut().enumerate() {
                let v = rng.below(6) as u32;
                vector.set_entry(NodeId::new(q as u32), v);
                *mark = rng.below(v as usize + 1) as u32;
            }
            // Stamps in runs: unpublished, own, and remote ones that are
            // entitled or not, applied or not.
            let mut stamp = vec![0u64; nwords];
            let mut w = 0;
            while w < nwords {
                let end = (w + 1 + rng.below(40)).min(nwords);
                let q = if rng.below(4) == 0 {
                    me
                } else {
                    rng.below(NPROCS)
                };
                let st = match rng.below(5) {
                    0 => 0,
                    _ => pack_stamp(NodeId::new(q as u32), 1 + rng.below(7) as u32),
                };
                stamp[w..end].fill(st);
                w = end;
            }
            let master = rng.bytes(LEN);
            let data = rng.bytes(LEN);
            let span = dsm_mem::page_range(rng.below(3), LEN);
            let mut lp = LocalPage {
                applied,
                ..LocalPage::default()
            };
            let shape = rng.below(3);
            if shape > 0 {
                lp.dirty = true;
                for _ in 0..rng.below(6) {
                    let s = rng.below(WORDS_PER_PAGE);
                    let e = (s + 1 + rng.below(30)).min(WORDS_PER_PAGE);
                    lp.written_mut().set_range(s..e);
                }
            }
            if shape == 2 {
                lp.twin = Some(rng.bytes(span.len()));
            }

            let mut want = data.clone();
            let want_walk =
                reference_miss_walk(&stamp, &master, span.clone(), &mut want, &lp, &vector, me);
            // The twin must receive what the page receives.
            let want_twin = lp.twin.as_ref().map(|twin| {
                let mut region = data.clone();
                region[span.clone()].copy_from_slice(twin);
                reference_miss_walk(&stamp, &master, span.clone(), &mut region, &lp, &vector, me);
                region[span.clone()].to_vec()
            });
            let mut got = data.clone();
            let got_walk = apply_entitled(
                &stamp,
                &master,
                span.clone(),
                &mut got,
                &mut lp,
                &vector,
                me,
            );
            assert_eq!(got_walk, want_walk, "seed {seed}");
            assert!(got == want, "seed {seed}: page bytes differ");
            assert_eq!(lp.twin, want_twin, "seed {seed}: twin bytes differ");
        }
    }

    #[test]
    fn home_writer_flushes_nothing_to_itself() {
        let e = engine(ImplKind::hlrc_diff());
        // Page 0's home is node 0: its own publishes stay local.
        let mut home = node(&e, 0);
        e.trap_write(&mut home, 0, 0, 4);
        home.regions[0].data[0..4].copy_from_slice(&9u32.to_le_bytes());
        e.barrier_arrive(&mut home);
        assert_eq!(home.stats.messages(), 0);
        // Page 1's home is node 1: the same write one page later flushes.
        e.trap_write(&mut home, 0, dsm_mem::PAGE_SIZE, 4);
        home.regions[0].data[dsm_mem::PAGE_SIZE..dsm_mem::PAGE_SIZE + 4]
            .copy_from_slice(&9u32.to_le_bytes());
        e.barrier_arrive(&mut home);
        assert_eq!(home.stats.messages_of(MsgKind::DataReply), 1);
    }
}
