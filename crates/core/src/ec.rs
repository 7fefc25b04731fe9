//! The entry-consistency engine (Midway-style), Section 3.1 / 4 / 5 of the
//! paper.
//!
//! Shared data is bound to locks.  An exclusive acquire arms write trapping on
//! the bound data (twin copy for small objects, copy-on-write protection for
//! large ones, or nothing for compiler instrumentation); the release publishes
//! the modifications; the next acquirer receives them with the lock grant
//! message (update protocol), selected either by per-block incarnation
//! timestamps or as a chain of diffs.
//!
//! State is sharded: each lock's binding and publish ring sits behind its own
//! mutex, each region's published master copy behind its own `RwLock`, and
//! the global publish sequence is a single atomic counter — so grants and
//! releases of independent locks proceed in parallel.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

use dsm_mem::{BlockGranularity, MemRange, RegionDesc, VectorClock};
use dsm_sim::Charge;

use crate::config::{Collection, DsmConfig, Trapping};
use crate::engine::{diff_size, ProtocolEngine, PublishRec, CTRL_MSG_BYTES, DIFF_RING};
use crate::ids::{LockId, LockMode};
use crate::local::{HeldLock, LocalRegion, NodeLocal, WORDS_PER_PAGE};
use crate::recovery::UndoRec;
use crate::sync::{self, SlotTable};

/// Per-lock entry-consistency state.
#[derive(Debug, Default)]
struct EcLockState {
    /// The memory ranges bound to the lock (possibly non-contiguous).
    bound: Vec<MemRange>,
    /// Incremented whenever the binding changes; a node whose `seen_epoch`
    /// lags must conservatively receive all bound data (Section 7.1,
    /// "Rebinding").
    rebind_epoch: u64,
    /// Lock incarnation number: incremented on every remote grant.
    incarnation: u64,
    /// Ring of recent publish records for diff-mode traffic accounting.
    publishes: VecDeque<PublishRec>,
    /// Highest publish sequence this lock's own chain has stamped.  Grants
    /// snapshot *this* (not the global counter): both publish and grant hold
    /// this lock's mutex, so every stamp `<= last_seq` is guaranteed visible,
    /// whereas a concurrent publish under another lock may have drawn a lower
    /// global sequence whose stamps have not landed yet.
    last_seq: u64,
    /// Per node: the publish sequence this node has applied through for this
    /// lock's data.
    seen_seq: Vec<u64>,
    /// Per node: the rebind epoch this node has seen.
    seen_epoch: Vec<u64>,
}

/// Word blocks per stamp-summary chunk (256 bytes of a region).
const CHUNK_BLOCKS: usize = 64;

/// Per-region entry-consistency state: the published master copy,
/// per-word-block publish-sequence stamps, and their per-chunk summary.
#[derive(Debug)]
#[cfg_attr(test, derive(Clone, PartialEq))]
struct EcRegionState {
    /// Latest published value of every byte.
    master: Vec<u8>,
    /// Per word block: the publish sequence number that last wrote it
    /// (0 = never published).
    stamp: Vec<u64>,
    /// Per chunk of [`CHUNK_BLOCKS`] word blocks: an upper bound on every
    /// stamp in the chunk.  Raised with the stamps (under the region's write
    /// lock) and never lowered; an `EcRange` rollback only lowers stamps, so
    /// the bound stays sound.  A grant skips every chunk bounded at or below
    /// the acquirer's floor: no block in it can pass the apply test.
    summary: Vec<u64>,
}

impl EcRegionState {
    /// Stamps the word blocks `blocks` (non-empty) with publish sequence
    /// `seq` and raises their chunks' summary to cover it.
    fn stamp(&mut self, blocks: Range<usize>, seq: u64) {
        let chunks = blocks.start / CHUNK_BLOCKS..=(blocks.end - 1) / CHUNK_BLOCKS;
        self.stamp[blocks].fill(seq);
        for bound in &mut self.summary[chunks] {
            *bound = (*bound).max(seq);
        }
    }
}

/// A grant's walk over the bound data: the logical counts its simulated
/// charges and payload are computed from, plus the run bookkeeping that
/// crosses chunk, range and region boundaries.
#[derive(Debug, Default, PartialEq, Eq)]
struct GrantWalk {
    /// Word blocks copied from the master copies.
    applied_words: usize,
    /// Maximal same-stamp runs among the applied blocks.
    ts_runs: usize,
    /// Blocks the responder's timestamp scan is charged for.
    scan_blocks: u64,
    /// Last applied block as `(region, block, stamp)`: an applied run that
    /// starts at `block + 1` of the same region with the same stamp
    /// continues the current run.
    prev: Option<(usize, usize, u64)>,
}

impl GrantWalk {
    /// Applies every block of `blocks` (region `ridx`) stamped above
    /// `floor`, one maximal same-stamp run at a time: the apply decision is
    /// constant within a run, so each run costs one decision and, when
    /// applied, one copy.
    fn runs(
        &mut self,
        rs: &EcRegionState,
        local: &mut [u8],
        ridx: usize,
        blocks: Range<usize>,
        floor: u64,
    ) {
        dsm_mem::same_stamp_runs(&rs.stamp, blocks, |first, last, stamp| {
            if stamp <= floor {
                self.prev = None;
                return;
            }
            let end = (last * 4).min(local.len());
            local[first * 4..end].copy_from_slice(&rs.master[first * 4..end]);
            self.applied_words += last - first;
            let contiguous =
                matches!(self.prev, Some((r, b, s)) if r == ridx && b + 1 == first && s == stamp);
            if !contiguous {
                self.ts_runs += 1;
            }
            self.prev = Some((ridx, last - 1, stamp));
        });
    }
}

/// The entry-consistency [`ProtocolEngine`].
pub(crate) struct EcEngine {
    cfg: DsmConfig,
    regions: Vec<RegionDesc>,
    /// Published master copies, one `RwLock` per region.
    region_state: Vec<RwLock<EcRegionState>>,
    /// Per-region publish sequence number of the transport frames, bumped
    /// (under the region's write lock) once per release that publishes
    /// modifications to the region.  Replicas apply a region's frames in
    /// this order, so replaying them rebuilds the master copy byte for byte.
    /// EC needs no freshness checks — consistency travels with lock grants —
    /// so, unlike `LrcEngine`'s, nothing else reads it.
    publish_gen: Vec<AtomicU64>,
    /// Per-lock metadata, one mutex per lock, created on demand.
    locks: SlotTable<Mutex<EcLockState>>,
    /// Global publish sequence counter (orders publishes across all locks).
    publish_seq: AtomicU64,
}

impl std::fmt::Debug for EcEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EcEngine")
            .field("regions", &self.regions.len())
            .field("locks", &self.locks.len())
            .field("publish_seq", &self.publish_seq.load(Ordering::Relaxed))
            .finish()
    }
}

/// Running write-collection state shared by the trapping arms of
/// [`EcEngine::collect_range`] over one release: the logical counts the
/// simulated costs are charged from, plus the cross-range run bookkeeping.
struct Collect {
    changed_words: usize,
    runs: usize,
    compare_words: usize,
    /// Last published block as `(region, block)` — a following publish of
    /// `block + 1` in the same region continues the current run.
    prev: Option<(usize, usize)>,
    /// Whether to record byte runs for a transport frame.
    track: bool,
    /// Changed-byte runs of the range being collected, region-absolute and
    /// coalesced (adjacent block publishes extend the last run).  Drained
    /// into a frame after each range, so it never spans two regions.
    wire_runs: Vec<(u32, u32)>,
}

impl Collect {
    /// `wire_runs` is the endpoint's reusable run table when a transport is
    /// attached (the caller hands it back afterwards), `None` otherwise.
    fn new(wire_runs: Option<Vec<(u32, u32)>>) -> Self {
        Collect {
            changed_words: 0,
            runs: 0,
            compare_words: 0,
            prev: None,
            track: wire_runs.is_some(),
            wire_runs: wire_runs.unwrap_or_default(),
        }
    }

    /// Publishes the changed blocks `first..last` of region `ridx`: copies
    /// the new bytes from `data` (the whole region) into the master, stamps
    /// the blocks with `seq`, and maintains the changed-word and run counts.
    fn publish(
        &mut self,
        rsd: &mut EcRegionState,
        data: &[u8],
        seq: u64,
        ridx: usize,
        first: usize,
        last: usize,
    ) {
        let start = first * 4;
        let end = (last * 4).min(data.len());
        rsd.master[start..end].copy_from_slice(&data[start..end]);
        rsd.stamp(first..last, seq);
        self.changed_words += last - first;
        let contiguous = matches!(self.prev, Some((r, b)) if r == ridx && b + 1 == first);
        if !contiguous {
            self.runs += 1;
        }
        self.prev = Some((ridx, last - 1));
        if self.track {
            let (s, l) = (start as u32, (end - start) as u32);
            match self.wire_runs.last_mut() {
                Some(prev_run) if prev_run.0 + prev_run.1 == s => prev_run.1 += l,
                _ => self.wire_runs.push((s, l)),
            }
        }
    }
}

impl EcEngine {
    /// Builds the engine for a run.
    pub fn new(cfg: &DsmConfig, regions: &[RegionDesc], init: &[Vec<u8>]) -> Self {
        let nprocs = cfg.nprocs;
        let region_state = regions
            .iter()
            .zip(init.iter())
            .map(|(d, init)| {
                let blocks = d.len.div_ceil(4);
                RwLock::new(EcRegionState {
                    master: init.clone(),
                    stamp: vec![0; blocks],
                    summary: vec![0; blocks.div_ceil(CHUNK_BLOCKS)],
                })
            })
            .collect();
        EcEngine {
            cfg: cfg.clone(),
            regions: regions.to_vec(),
            region_state,
            publish_gen: regions.iter().map(|_| AtomicU64::new(0)).collect(),
            locks: SlotTable::new(move |_| {
                Mutex::new(EcLockState {
                    seen_seq: vec![0; nprocs],
                    seen_epoch: vec![0; nprocs],
                    ..EcLockState::default()
                })
            }),
            publish_seq: AtomicU64::new(0),
        }
    }

    /// How many blocks the responder's timestamp scan is charged for over
    /// `words` word blocks of region `ridx`: one per word, or one per
    /// granule under compiler instrumentation.
    fn scan_blocks(&self, ridx: usize, words: usize) -> u64 {
        let per_block = match self.cfg.kind.trapping() {
            Trapping::Instrumentation => self.regions[ridx].granularity.bytes() / 4,
            Trapping::Twinning => 1,
        };
        (words / per_block.max(1)) as u64
    }

    /// Brings `local` up to date with the data `bound` to a lock, for a node
    /// that has applied every publish stamped at or below `floor`.  Chunks
    /// whose summary is at or below the floor are skipped whole (and break
    /// the current run, as their blocks would); inside the others a run cut
    /// at a chunk edge rejoins through `GrantWalk::prev`.  The counts are
    /// therefore those of the per-block walk (DESIGN.md §5).  The binding is
    /// borrowed, not cloned: the grant path must not allocate.
    fn apply_bound(&self, bound: &[MemRange], local: &mut [LocalRegion], floor: u64) -> GrantWalk {
        let mut walk = GrantWalk::default();
        for range in bound {
            let ridx = range.region.index();
            let rs = sync::read(&self.region_state[ridx]);
            let data = &mut local[ridx].data;
            let blocks = range.blocks(BlockGranularity::Word);
            walk.scan_blocks += self.scan_blocks(ridx, blocks.len());
            let mut b = blocks.start;
            while b < blocks.end {
                let chunk = b / CHUNK_BLOCKS;
                let end = ((chunk + 1) * CHUNK_BLOCKS).min(blocks.end);
                if rs.summary[chunk] > floor {
                    walk.runs(&rs, data, ridx, b..end, floor);
                } else {
                    walk.prev = None;
                }
                b = end;
            }
        }
        walk
    }

    /// The bytes of the word blocks `range` touches, clamped to its region:
    /// what a small-object twin holds of the range, so its release compares
    /// whole words even when the range starts or ends inside one.
    fn word_cover(&self, range: &MemRange) -> Range<usize> {
        let blocks = range.blocks(BlockGranularity::Word);
        blocks.start * 4..(blocks.end * 4).min(self.regions[range.region.index()].len)
    }

    /// Write collection of one bound range at release: publishes every
    /// changed word of `range` into `rsd` (the range's region state) with
    /// publish sequence `seq`.  `small_twin` is the range's word cover in
    /// the small-object twin, if the holding took one.  Every arm publishes
    /// each maximal changed run with one `Collect::publish` (one copy, one
    /// stamp fill); the counts are those of the per-word walk (DESIGN.md
    /// §5), and `Collect::prev` joins runs across page and range edges.
    fn collect_range(
        &self,
        col: &mut Collect,
        rsd: &mut EcRegionState,
        region: &LocalRegion,
        range: &MemRange,
        small_twin: Option<&[u8]>,
        seq: u64,
    ) {
        let ridx = range.region.index();
        let LocalRegion { data, pages } = region;
        let blocks = range.blocks(BlockGranularity::Word);
        match (self.cfg.kind.trapping(), small_twin) {
            (Trapping::Instrumentation, _) => {
                // The written bits already are the change set: walk each
                // covered page's written-bit runs, clipped to the range.
                for page in range.pages() {
                    let Some(bits) = &pages[page].written else {
                        continue;
                    };
                    let pb = page * WORDS_PER_PAGE;
                    for (first, len) in bits.iter_runs() {
                        let (s, e) = (pb + first, pb + first + len);
                        if s >= blocks.end {
                            break;
                        }
                        let (s, e) = (s.max(blocks.start), e.min(blocks.end));
                        if s < e {
                            col.publish(rsd, data, seq, ridx, s, e);
                        }
                    }
                }
            }
            (Trapping::Twinning, Some(twin)) => {
                // Small object: every word of the range is compared (and
                // charged) against its cover in the twin.
                let cover = self.word_cover(range);
                let b0 = cover.start / 4;
                col.compare_words += blocks.len();
                dsm_mem::changed_word_runs(twin, &data[cover], 0..blocks.len(), |s, e| {
                    col.publish(rsd, data, seq, ridx, b0 + s, b0 + e);
                });
            }
            (Trapping::Twinning, None) => {
                // Large object: pages without a twin were never written
                // under this holding and are skipped wholesale (as the word
                // walk's `None => unchanged` arm did, without charging
                // comparisons); pages with a twin are compared through the
                // run scan.
                for page in range.pages() {
                    let Some(twin) = &pages[page].twin else {
                        continue;
                    };
                    let span = dsm_mem::page_range(page, data.len());
                    let pb = span.start / 4;
                    let page_words = span.len().div_ceil(4);
                    let w0 = blocks.start.max(pb) - pb;
                    let w1 = blocks.end.min(pb + page_words) - pb;
                    if w0 >= w1 {
                        continue;
                    }
                    col.compare_words += w1 - w0;
                    dsm_mem::changed_word_runs(twin, &data[span], w0..w1, |s, e| {
                        col.publish(rsd, data, seq, ridx, pb + s, pb + e);
                    });
                }
            }
        }
    }
}

impl ProtocolEngine for EcEngine {
    fn bind(&self, lock: LockId, ranges: Vec<MemRange>) {
        sync::lock(self.locks.get(lock.index())).bound = ranges;
    }

    fn rebind(&self, lock: LockId, ranges: Vec<MemRange>) {
        let mut meta = sync::lock(self.locks.get(lock.index()));
        if meta.bound != ranges {
            meta.bound = ranges;
            meta.rebind_epoch += 1;
        }
    }

    fn validate_acquire(&self, _lock: LockId, _mode: LockMode) {
        // EC provides both exclusive and read-only locks.
    }

    /// Makes the data bound to `lock` consistent at this node (the payload of
    /// the lock grant message under the update protocol).  Returns the grant
    /// payload size in bytes.
    fn remote_grant(&self, local: &mut NodeLocal, lock: LockId) -> usize {
        let collection = self.cfg.kind.collection();
        let me = local.node.index();

        let mut meta = sync::lock(self.locks.get(lock.index()));
        meta.incarnation += 1;
        // Everything this lock's chain has published is visible (same mutex
        // ordered the publish), so its own high-water mark is the safe
        // "applied through" value to record below.
        let publish_seq = meta.last_seq;
        let seen = meta.seen_seq[me];
        let prev_seen_epoch = meta.seen_epoch[me];
        let rebound = prev_seen_epoch != meta.rebind_epoch;
        let bound_bytes: usize = meta.bound.iter().map(|r| r.len).sum();
        // A rebound node has applied nothing of the new binding, so only
        // never-published blocks (stamp 0) stay behind.
        let floor = if rebound { 0 } else { seen };
        let GrantWalk {
            applied_words,
            ts_runs,
            scan_blocks,
            ..
        } = self.apply_bound(&meta.bound, &mut local.regions, floor);

        local.charge(Charge::Apply(applied_words as u64, applied_words as u64));

        let payload = match collection {
            Collection::Timestamps => {
                // The responder scans the timestamps of every block bound to
                // the lock on every request.
                local.charge(Charge::TsScan(scan_blocks));
                if rebound {
                    bound_bytes + 12
                } else {
                    applied_words * 4 + ts_runs * (4 + 6)
                }
            }
            Collection::Diffs => {
                let mut bytes = 0usize;
                let mut count = 0u64;
                let mut creation_words = 0u64;
                for rec in meta.publishes.iter_mut().filter(|r| r.stamp > seen) {
                    bytes += rec.encoded_size;
                    count += 1;
                    if !rec.creation_charged {
                        rec.creation_charged = true;
                        creation_words += rec.compare_words as u64;
                        let stamp = rec.stamp;
                        local.undo(|| UndoRec::EcDiffCharge {
                            lock: lock.index(),
                            stamp,
                        });
                    }
                }
                local.stats.diffs_applied += count;
                local.charge(Charge::DiffCompare(creation_words));
                let bytes = bytes.max(applied_words * 4);
                if rebound {
                    bound_bytes.max(bytes)
                } else {
                    bytes
                }
            }
        };

        local.undo(|| UndoRec::EcGrant {
            lock: lock.index(),
            prev_seen_seq: seen,
            prev_seen_epoch,
        });
        meta.seen_seq[me] = publish_seq;
        meta.seen_epoch[me] = meta.rebind_epoch;
        payload
    }

    /// Arms write trapping for the bound data of an exclusive acquire.
    fn after_acquire(&self, local: &mut NodeLocal, lock: LockId, held: &mut HeldLock) {
        if held.mode != LockMode::Exclusive || self.cfg.kind.trapping() != Trapping::Twinning {
            return;
        }
        let small_limit = self.cfg.ec_small_object_limit;
        // Arming touches only this node's private state, so the binding can
        // be borrowed under the lock's mutex (no clone): no other lock of
        // the ordering hierarchy is taken below.
        let meta = sync::lock(self.locks.get(lock.index()));
        let bound = &meta.bound;
        let total: usize = bound.iter().map(|r| r.len).sum();
        if total == 0 {
            return;
        }
        if total <= small_limit {
            // Small object: copy it eagerly at acquire, avoiding the
            // protection fault the Midway VM implementation takes.  The word
            // cover of every bound range goes into one pooled buffer,
            // concatenated in binding order (release recomputes the layout
            // from the same binding), so the acquire path allocates nothing
            // in steady state.  The charges stay those of the bound bytes.
            let cover: usize = bound.iter().map(|r| self.word_cover(r).len()).sum();
            let mut twins = local.pool.take_empty(cover);
            for range in bound {
                let data = &local.regions[range.region.index()].data;
                twins.extend_from_slice(&data[self.word_cover(range)]);
            }
            local.charge(Charge::Twin((total / 4) as u64));
            held.small_twins = Some(twins);
        } else {
            // Large object: write-protect its pages; the first write to each
            // page faults and creates a per-page twin.  Every holding counts
            // itself on each page it covers, so a page that several held
            // locks armed keeps its twin until the last of them releases;
            // only the first arming pays the `mprotect`.
            let mut mprotects = 0u64;
            for range in bound {
                let ridx = range.region.index();
                for page in range.pages() {
                    let lp = &mut local.regions[ridx].pages[page];
                    if lp.armed == 0 {
                        lp.twin = None;
                        mprotects += 1;
                    }
                    lp.armed += 1;
                    held.armed_pages.push((ridx, page));
                }
            }
            local.charge(Charge::Mprotect(mprotects));
        }
    }

    /// Publishes the modifications made to the bound data while the exclusive
    /// lock was held (write collection on the releaser side).
    fn before_release(&self, local: &mut NodeLocal, lock: LockId, held: &mut HeldLock) {
        if held.mode != LockMode::Exclusive {
            return;
        }
        let trapping = self.cfg.kind.trapping();
        let collection = self.cfg.kind.collection();

        let mut meta = sync::lock(self.locks.get(lock.index()));
        if meta.bound.is_empty() {
            if let Some(buf) = held.small_twins.take() {
                local.pool.put(buf);
            }
            return;
        }
        // The global counter only allocates unique, monotone stamps; the
        // per-lock `last_seq` below is what grants consult.
        let seq = self.publish_seq.fetch_add(1, Ordering::SeqCst) + 1;
        meta.last_seq = meta.last_seq.max(seq);

        // Transport endpoint, taken out so `local` stays borrowable; put
        // back at the end (there are no returns between here and there).
        // None under the simulated backend, keeping the path branch-only.
        let mut wire = local.wire.take();
        let mut col = Collect::new(
            wire.as_deref_mut()
                .map(|w| std::mem::take(&mut w.scratch_runs)),
        );
        // Offset of the current range's cover in the concatenated small-twin
        // buffer (covers were copied in binding order at acquire).
        let mut small_cum = 0usize;

        // Borrowed, not cloned: the release path must not allocate.
        let bound = &meta.bound;
        for range in bound.iter() {
            let ridx = range.region.index();
            // Armed fault-plan target only: capture the range's stamps and
            // master bytes before the publish overwrites them, so a rollback
            // can restore the exact pre-release state (the closure never
            // runs otherwise).
            local.undo(|| {
                let rs = sync::read(&self.region_state[ridx]);
                let blocks = range.blocks(BlockGranularity::Word);
                let end = (blocks.end * 4).min(rs.master.len());
                UndoRec::EcRange {
                    ridx,
                    start_block: blocks.start,
                    stamps: rs.stamp[blocks.clone()].into(),
                    master: rs.master[blocks.start * 4..end].into(),
                }
            });
            let small_twin = held.small_twins.as_deref().map(|twins| {
                let len = self.word_cover(range).len();
                small_cum += len;
                &twins[small_cum - len..small_cum]
            });
            let region = &local.regions[ridx];
            let mut rs = sync::write(&self.region_state[ridx]);
            let changed_before = col.changed_words;
            self.collect_range(&mut col, &mut rs, region, range, small_twin, seq);
            if col.changed_words > changed_before {
                // Commit the publish to the region's generation while its
                // write lock is still held.  As in the LRC engine, the
                // generation doubles as the frame's per-region sequence
                // number: bumped once per range-with-changes, under the
                // region's write lock.
                let gen = self.publish_gen[ridx].fetch_add(1, Ordering::Release) + 1;
                if let Some(w) = wire.as_deref_mut() {
                    // EC has no vector time: frames carry an empty clock.
                    w.publish(ridx as u32, gen, &[], &col.wire_runs, &region.data);
                    col.wire_runs.clear();
                }
            }
        }

        // Reset the per-holding trapping state.
        match trapping {
            Trapping::Instrumentation => {
                for range in bound {
                    let blocks = range.blocks(BlockGranularity::Word);
                    let pages = &mut local.regions[range.region.index()].pages;
                    for page in range.pages() {
                        if let Some(bits) = &mut pages[page].written {
                            let pb = page * WORDS_PER_PAGE;
                            bits.clear_range(blocks.start.saturating_sub(pb)..blocks.end - pb);
                        }
                    }
                }
            }
            Trapping::Twinning => {
                for &(ridx, page) in &held.armed_pages {
                    let lp = &mut local.regions[ridx].pages[page];
                    lp.armed -= 1;
                    if lp.armed == 0 {
                        if let Some(twin) = lp.twin.take() {
                            local.pool.put(twin);
                        }
                    }
                }
                if let Some(buf) = held.small_twins.take() {
                    local.pool.put(buf);
                }
            }
        }

        // Unless diff creation is deferred to the first request (lazy
        // diffing), the release pays the twin comparison that found the
        // changed blocks (no words under instrumentation).
        let lazy = self.cfg.kind.diffs_lazily();
        if !lazy {
            local.charge(Charge::DiffCompare(col.compare_words as u64));
        }

        if col.changed_words > 0 {
            local.stats.diff_words += col.changed_words as u64;
            if collection == Collection::Diffs {
                local.stats.diffs_created += 1;
            }
            meta.publishes.push_back(PublishRec {
                stamp: seq,
                encoded_size: diff_size(col.changed_words, col.runs),
                compare_words: col.compare_words,
                creation_charged: !lazy,
            });
            local.undo(|| UndoRec::EcPublish {
                lock: lock.index(),
                stamp: seq,
            });
            while meta.publishes.len() > DIFF_RING {
                meta.publishes.pop_front();
            }
        }

        // Hand the run table back to the endpoint and the endpoint back to
        // the node.  The release's frames stay in the endpoint's epoch batch:
        // they move at the next barrier arrival (or at the transport's final
        // flush), so a lock-churning epoch pays one send per peer instead of
        // one per release.  Replica correctness does not depend on when the
        // batch goes out — frames are totally ordered per region by their
        // `publish_gen` sequence and replicas reorder on arrival — and the
        // socket backend still flushes early if a pathological epoch outgrows
        // its batch buffer.
        if let Some(w) = wire.as_deref_mut() {
            let mut runs = std::mem::take(&mut col.wire_runs);
            runs.clear();
            w.scratch_runs = runs;
        }
        local.wire = wire;
    }

    fn barrier_arrive(&self, local: &mut NodeLocal) -> usize {
        // EC barriers exchange no data — consistency travels with locks —
        // but they are the wire's epoch boundary: every grant frame the
        // epoch's releases buffered moves here as one batch per peer, the
        // same begin/finish batching the LRC interval flush gets.
        if let Some(w) = local.wire.as_deref_mut() {
            w.flush();
        }
        CTRL_MSG_BYTES
    }

    fn barrier_depart(
        &self,
        _local: &mut NodeLocal,
        _old_vector: &VectorClock,
        _released_vector: &VectorClock,
    ) -> usize {
        CTRL_MSG_BYTES
    }

    fn ensure_read_fresh(&self, _local: &mut NodeLocal, _ridx: usize, _page: usize) {
        // Under EC, data is made consistent only at lock acquires.
    }

    /// Write-trapping for EC (the bound data is writable only while the
    /// exclusive lock is held, so there is no freshness check), batched over
    /// the span's pages.
    fn trap_write_span(
        &self,
        local: &mut NodeLocal,
        ridx: usize,
        off: usize,
        len: usize,
        count: usize,
    ) {
        match self.cfg.kind.trapping() {
            Trapping::Instrumentation => {
                let factor = if self.cfg.ci_loop_optimization { 1 } else { 2 };
                local.charge(Charge::InstrumentedWrites(count as u64, factor));
                let region = &mut local.regions[ridx];
                dsm_mem::for_each_page(off, len, |page, bytes| {
                    let base_word = page * (dsm_mem::PAGE_SIZE / 4);
                    region.pages[page]
                        .written_mut()
                        .set_range(bytes.start / 4 - base_word..bytes.end.div_ceil(4) - base_word);
                });
            }
            Trapping::Twinning => {
                dsm_mem::for_each_page(off, len, |page, _| {
                    let region = &mut local.regions[ridx];
                    if region.pages[page].armed > 0 && region.pages[page].twin.is_none() {
                        let span = region.page_span(page);
                        let words = span.len().div_ceil(4) as u64;
                        region.pages[page].twin = Some(local.pool.take_copy(&region.data[span]));
                        local.charge(Charge::WriteFault(words));
                    }
                });
            }
        }
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

    /// Unwinds the crash epoch's effects on the per-lock metadata — grant
    /// watermarks and incarnations, pushed publish records and first-miss
    /// diff charges — and on the region state: `EcRange` restores the
    /// per-word stamps and master bytes a retracted publish overwrote, so a
    /// replayed grant scan sees exactly the stamps (in particular the
    /// never-published zeros) the original run saw.
    fn rollback_undo(&self, node: dsm_sim::NodeId, undo: &[UndoRec]) {
        let me = node.index();
        for rec in undo.iter().rev() {
            match rec {
                UndoRec::EcGrant {
                    lock,
                    prev_seen_seq,
                    prev_seen_epoch,
                } => {
                    let mut meta = sync::lock(self.locks.get(*lock));
                    meta.seen_seq[me] = *prev_seen_seq;
                    meta.seen_epoch[me] = *prev_seen_epoch;
                    meta.incarnation = meta.incarnation.saturating_sub(1);
                }
                UndoRec::EcPublish { lock, stamp } => {
                    let mut meta = sync::lock(self.locks.get(*lock));
                    meta.publishes.retain(|r| r.stamp != *stamp);
                }
                UndoRec::EcDiffCharge { lock, stamp } => {
                    let mut meta = sync::lock(self.locks.get(*lock));
                    if let Some(r) = meta.publishes.iter_mut().find(|r| r.stamp == *stamp) {
                        r.creation_charged = false;
                    }
                }
                UndoRec::EcRange {
                    ridx,
                    start_block,
                    stamps,
                    master,
                } => {
                    // The chunk summary stays as it is: it bounds the
                    // restored (lower) stamps too.
                    let mut rs = sync::write(&self.region_state[*ridx]);
                    rs.stamp[*start_block..*start_block + stamps.len()].copy_from_slice(stamps);
                    let start = *start_block * 4;
                    rs.master[start..start + master.len()].copy_from_slice(master);
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
    use dsm_mem::testutil::TestRng;
    use dsm_mem::RegionId;

    fn engine(kind: ImplKind) -> EcEngine {
        let cfg = DsmConfig::with_procs(kind, 4);
        let regions = vec![RegionDesc::new(
            RegionId::new(0),
            "r",
            8192,
            BlockGranularity::Word,
        )];
        let init = vec![vec![0u8; 8192]];
        EcEngine::new(&cfg, &regions, &init)
    }

    #[test]
    fn lock_metadata_grows_on_demand() {
        let e = engine(ImplKind::ec_time());
        let r = MemRange::new(RegionId::new(0), 0, 64);
        e.bind(LockId::new(5), vec![r]);
        assert_eq!(e.locks.len(), 6);
        let meta = sync::lock(e.locks.get(5));
        assert_eq!(meta.bound, vec![r]);
        assert_eq!(meta.seen_seq.len(), 4);
    }

    #[test]
    fn release_publish_bumps_the_region_generation() {
        let e = engine(ImplKind::ec_ci());
        e.bind(LockId::new(0), vec![MemRange::new(RegionId::new(0), 0, 64)]);
        let regions = e.regions.clone();
        let init = vec![vec![0u8; 8192]];
        let mut local = NodeLocal::new(
            dsm_sim::NodeId::new(0),
            4,
            &regions,
            &init,
            e.cfg.cost.clone(),
        );
        let mut held = HeldLock {
            mode: LockMode::Exclusive,
            small_twins: None,
            armed_pages: Vec::new(),
        };
        e.after_acquire(&mut local, LockId::new(0), &mut held);
        local.regions[0].data[0..4].copy_from_slice(&7u32.to_le_bytes());
        e.trap_write(&mut local, 0, 0, 4);
        e.before_release(&mut local, LockId::new(0), &mut held);
        assert_eq!(e.publish_gen[0].load(Ordering::Relaxed), 1);
        let mut buf = [0u8; 4];
        e.read_master(0, 0, &mut buf);
        assert_eq!(buf, 7u32.to_le_bytes());
    }

    #[test]
    fn rebind_bumps_the_epoch_only_on_change() {
        let e = engine(ImplKind::ec_diff());
        let a = MemRange::new(RegionId::new(0), 0, 64);
        let b = MemRange::new(RegionId::new(0), 64, 64);
        e.bind(LockId::new(0), vec![a]);
        e.rebind(LockId::new(0), vec![a]);
        assert_eq!(sync::lock(e.locks.get(0)).rebind_epoch, 0);
        e.rebind(LockId::new(0), vec![b]);
        assert_eq!(sync::lock(e.locks.get(0)).rebind_epoch, 1);
    }

    /// The grant walk before the stamp summary: every bound block's stamp
    /// is read, and a block is applied when it was ever published and is
    /// newer than the floor (`rebound || stamp > seen` with the floor at 0
    /// after a rebind).  The reference the chunked walk is held to.
    fn reference_walk(
        e: &EcEngine,
        bound: &[MemRange],
        local: &mut [LocalRegion],
        floor: u64,
    ) -> GrantWalk {
        let mut walk = GrantWalk::default();
        for range in bound {
            let ridx = range.region.index();
            let rs = sync::read(&e.region_state[ridx]);
            let local_data = &mut local[ridx].data;
            let blocks = range.blocks(BlockGranularity::Word);
            walk.scan_blocks += e.scan_blocks(ridx, blocks.len());
            let stamps = &rs.stamp[blocks.clone()];
            let mut i = 0usize;
            while i < stamps.len() {
                let stamp = stamps[i];
                if stamp == 0 {
                    walk.prev = None;
                    i += 1;
                    continue;
                }
                let run_start = i;
                i += 1;
                while i < stamps.len() && stamps[i] == stamp {
                    i += 1;
                }
                let first = blocks.start + run_start;
                let last = blocks.start + i;
                if stamp > floor {
                    let start = first * 4;
                    let end = (last * 4).min(local_data.len());
                    local_data[start..end].copy_from_slice(&rs.master[start..end]);
                    walk.applied_words += i - run_start;
                    let contiguous = matches!(walk.prev, Some((r, b, s)) if r == ridx && b + 1 == first && s == stamp);
                    if !contiguous {
                        walk.ts_runs += 1;
                    }
                    walk.prev = Some((ridx, last - 1, stamp));
                } else {
                    walk.prev = None;
                }
            }
        }
        walk
    }

    /// Two regions of whole words but not whole chunks or pages, so the
    /// last chunk of each is partial.
    const REGION_LENS: [usize; 2] = [3 * dsm_mem::PAGE_SIZE + 8, 2 * dsm_mem::PAGE_SIZE + 100];

    /// `bound` extended to a random binding of one to three disjoint ranges
    /// over both regions, whose starts and ends are multiples of `align`
    /// bytes (1: byte-misaligned).
    fn random_binding(rng: &mut TestRng, mut bound: Vec<MemRange>, align: usize) -> Vec<MemRange> {
        let want = bound.len().max(1 + rng.below(3));
        while bound.len() < want {
            let r = rng.below(REGION_LENS.len());
            let start = rng.below(REGION_LENS[r] - 1) / align * align;
            let len = (1 + rng.below((REGION_LENS[r] - start).min(3000))).next_multiple_of(align);
            let range = MemRange::new(RegionId::new(r as u32), start, len);
            let overlaps = bound.iter().any(|b| {
                b.region == range.region && b.start < range.end() && range.start < b.end()
            });
            if !overlaps {
                bound.push(range);
            }
        }
        bound
    }

    /// Runs the chunked and the reference walk for a grant of `lock` to
    /// `local`'s node on copies of its region data, then the real grant,
    /// and requires the same bytes, counts and (timestamps) payload from
    /// all three.
    fn checked_grant(e: &EcEngine, local: &mut NodeLocal, lock: usize) {
        let me = local.node.index();
        let (bound, rebound, floor) = {
            let meta = sync::lock(e.locks.get(lock));
            let rebound = meta.seen_epoch[me] != meta.rebind_epoch;
            let floor = if rebound { 0 } else { meta.seen_seq[me] };
            (meta.bound.clone(), rebound, floor)
        };
        let data: Vec<Vec<u8>> = local.regions.iter().map(|r| r.data.clone()).collect();
        let copy = || {
            NodeLocal::new(
                local.node,
                local.nprocs,
                &e.regions,
                &data,
                local.cost.clone(),
            )
        };
        let (mut want_local, mut got_local) = (copy(), copy());
        let want = reference_walk(e, &bound, &mut want_local.regions, floor);
        let got = e.apply_bound(&bound, &mut got_local.regions, floor);
        assert_eq!(got, want, "lock {lock} to node {me}, floor {floor}");

        let applied_before = local.stats.words_applied;
        let scanned_before = local.stats.ts_blocks_scanned;
        let payload = e.remote_grant(local, LockId::new(lock as u32));
        for ((w, g), l) in want_local
            .regions
            .iter()
            .zip(&got_local.regions)
            .zip(&local.regions)
        {
            assert!(w.data == g.data && w.data == l.data, "grant bytes differ");
        }
        assert_eq!(
            local.stats.words_applied - applied_before,
            want.applied_words as u64
        );
        if e.cfg.kind.collection() == Collection::Timestamps {
            assert_eq!(
                local.stats.ts_blocks_scanned - scanned_before,
                want.scan_blocks
            );
            let bound_bytes: usize = bound.iter().map(|r| r.len).sum();
            let want_payload = if rebound {
                bound_bytes + 12
            } else {
                want.applied_words * 4 + want.ts_runs * (4 + 6)
            };
            assert_eq!(payload, want_payload);
        }
    }

    /// One exclusive holding of `lock` by `local`'s node: arm, write a few
    /// random spans of the binding (some long enough to cross several
    /// 64-block chunks), publish.  With `rollback`, the publish's stamps
    /// and master bytes are then restored from `EcRange` records, as a
    /// crash rollback does, leaving the summary above the restored stamps.
    fn holding(
        e: &EcEngine,
        local: &mut NodeLocal,
        lock: usize,
        rng: &mut TestRng,
        rollback: bool,
    ) {
        let id = LockId::new(lock as u32);
        let bound = {
            let meta = sync::lock(e.locks.get(lock));
            meta.bound.clone()
        };
        let mut held = HeldLock {
            mode: LockMode::Exclusive,
            small_twins: None,
            armed_pages: Vec::new(),
        };
        e.after_acquire(local, id, &mut held);
        for _ in 0..1 + rng.below(4) {
            let range = bound[rng.below(bound.len())];
            let off = range.start + rng.below(range.len);
            let len = 1 + rng.below((range.end() - off).min(700));
            e.trap_write_span(local, range.region.index(), off, len, 1);
            let data = &mut local.regions[range.region.index()].data;
            data[off..off + len].copy_from_slice(&rng.bytes(len));
        }
        if rollback {
            // Make this node a pending crash target, so the release records
            // its undo log.
            let node = local.node.index() as u32;
            crate::recovery::arm(local, crate::FaultPlan::KillAt { node, barrier: 1 });
        }
        e.before_release(local, id, &mut held);
        if let Some(recovery) = local.recovery.take() {
            e.rollback_undo(local.node, &recovery.undo);
        }
    }

    #[test]
    fn chunked_grant_walk_matches_the_per_block_walk() {
        const NPROCS: usize = 3;
        for kind in ImplKind::ec_all() {
            for seed in 1..=12u64 {
                let mut rng = TestRng::new(seed);
                let cfg = DsmConfig::with_procs(kind, NPROCS);
                let regions: Vec<RegionDesc> = REGION_LENS
                    .iter()
                    .enumerate()
                    .map(|(i, &len)| {
                        let gran = [BlockGranularity::Word, BlockGranularity::DoubleWord][i];
                        RegionDesc::new(RegionId::new(i as u32), "r", len, gran)
                    })
                    .collect();
                let init: Vec<Vec<u8>> = REGION_LENS.iter().map(|&len| rng.bytes(len)).collect();
                let e = EcEngine::new(&cfg, &regions, &init);
                let mut nodes: Vec<NodeLocal> = (0..NPROCS)
                    .map(|n| {
                        NodeLocal::new(
                            dsm_sim::NodeId::new(n as u32),
                            NPROCS,
                            &regions,
                            &init,
                            e.cfg.cost.clone(),
                        )
                    })
                    .collect();
                // Two locks whose bindings overlap: the second's first range
                // starts halfway into the first's.
                let first = random_binding(&mut rng, Vec::new(), 1);
                let shared = first[0];
                let start = shared.start + shared.len / 2;
                let len = shared.len.min(REGION_LENS[shared.region.index()] - start);
                let second =
                    random_binding(&mut rng, vec![MemRange::new(shared.region, start, len)], 1);
                e.bind(LockId::new(0), first);
                e.bind(LockId::new(1), second);
                for _ in 0..80 {
                    let lock = rng.below(2);
                    let local = &mut nodes[rng.below(NPROCS)];
                    match rng.below(10) {
                        0 => e.rebind(
                            LockId::new(lock as u32),
                            random_binding(&mut rng, Vec::new(), 1),
                        ),
                        1 => holding(&e, local, lock, &mut rng, true),
                        2 => checked_grant(&e, local, lock),
                        _ => {
                            checked_grant(&e, local, lock);
                            holding(&e, local, lock, &mut rng, false);
                        }
                    }
                }
                for local in &mut nodes {
                    for lock in 0..2 {
                        checked_grant(&e, local, lock);
                    }
                }
            }
        }
    }

    fn held_exclusive() -> HeldLock {
        HeldLock {
            mode: LockMode::Exclusive,
            small_twins: None,
            armed_pages: Vec::new(),
        }
    }

    /// Region blocks carrying a non-zero stamp.
    fn stamped_blocks(e: &EcEngine, ridx: usize) -> Vec<usize> {
        let rs = sync::read(&e.region_state[ridx]);
        (0..rs.stamp.len()).filter(|&b| rs.stamp[b] != 0).collect()
    }

    #[test]
    fn misaligned_small_object_publishes_what_page_twinning_publishes() {
        // Bytes 5..15 touch words 1..4; only word 2 (bytes 8..12) changes.
        // Every byte starts distinct, so a word compared shifted differs.
        let mut stamped = Vec::new();
        for limit in [dsm_mem::PAGE_SIZE, 0] {
            let cfg = DsmConfig {
                ec_small_object_limit: limit,
                ..DsmConfig::with_procs(ImplKind::ec_time(), 1)
            };
            let regions = vec![RegionDesc::new(
                RegionId::new(0),
                "r",
                64,
                BlockGranularity::Word,
            )];
            let init = vec![(0..64).collect::<Vec<u8>>()];
            let e = EcEngine::new(&cfg, &regions, &init);
            let mut local = NodeLocal::new(
                dsm_sim::NodeId::new(0),
                1,
                &regions,
                &init,
                e.cfg.cost.clone(),
            );
            let lock = LockId::new(0);
            e.bind(lock, vec![MemRange::new(RegionId::new(0), 5, 10)]);
            let mut held = held_exclusive();
            e.after_acquire(&mut local, lock, &mut held);
            assert_eq!(held.small_twins.is_some(), limit > 0);
            if limit > 0 {
                // Charged for the 10 bound bytes, not the 12-byte cover.
                assert_eq!(local.stats.twin_words, 10 / 4);
            }
            e.trap_write_span(&mut local, 0, 10, 1, 1);
            local.regions[0].data[10] = 0xff;
            e.before_release(&mut local, lock, &mut held);
            stamped.push(stamped_blocks(&e, 0));
        }
        assert_eq!(stamped, [vec![2], vec![2]]);
    }

    /// The per-word release loops `collect_range`'s run walks replaced, kept
    /// as the reference they are held to: EC-ci asks every bound block's
    /// written bit, a small object compares every bound word against the
    /// range's bytes in the twin, a large object every bound word of a
    /// twinned page against the page twin, and each changed word is
    /// published on its own.
    fn reference_collect_range(
        e: &EcEngine,
        col: &mut Collect,
        rsd: &mut EcRegionState,
        region: &LocalRegion,
        range: &MemRange,
        small_twin: Option<&[u8]>,
        seq: u64,
    ) {
        let ridx = range.region.index();
        let data = &region.data[..];
        for block in range.blocks(BlockGranularity::Word) {
            let start = block * 4;
            let end = (start + 4).min(data.len());
            let page = start / dsm_mem::PAGE_SIZE;
            let changed = match (e.cfg.kind.trapping(), small_twin) {
                (Trapping::Instrumentation, _) => {
                    region.pages[page].was_written(block - page * WORDS_PER_PAGE)
                }
                (Trapping::Twinning, Some(twin)) => {
                    col.compare_words += 1;
                    let toff = start.saturating_sub(range.start);
                    twin.get(toff..toff + (end - start)) != Some(&data[start..end])
                }
                (Trapping::Twinning, None) => {
                    let Some(twin) = &region.pages[page].twin else {
                        continue;
                    };
                    col.compare_words += 1;
                    let base = page * dsm_mem::PAGE_SIZE;
                    twin[start - base..end - base] != data[start..end]
                }
            };
            if changed {
                col.publish(rsd, data, seq, ridx, block, block + 1);
            }
        }
    }

    /// Releases `held` (a holding of `lock` by `local`'s node, over a
    /// word-aligned binding) after running `collect_range` and the per-word
    /// reference on copies of the region states, and requires the same
    /// master bytes, stamps, summaries, counts and wire runs from both, and
    /// the reference's state and counts from the real release.
    fn checked_release(e: &EcEngine, local: &mut NodeLocal, lock: usize, held: &mut HeldLock) {
        let bound = sync::lock(e.locks.get(lock)).bound.clone();
        let seq = e.publish_seq.load(Ordering::Relaxed) + 1;
        let states = || -> Vec<EcRegionState> {
            e.region_state
                .iter()
                .map(|r| sync::read(r).clone())
                .collect()
        };
        let (mut want_rs, mut got_rs) = (states(), states());
        let mut want = Collect::new(Some(Vec::new()));
        let mut got = Collect::new(Some(Vec::new()));
        let mut small_cum = 0usize;
        for range in &bound {
            assert!(range.start % 4 == 0 && range.len % 4 == 0, "{range}");
            let ridx = range.region.index();
            // On a word-aligned binding each range's cover is the range.
            let twin = held.small_twins.as_deref().map(|twins| {
                small_cum += range.len;
                &twins[small_cum - range.len..small_cum]
            });
            let region = &local.regions[ridx];
            reference_collect_range(e, &mut want, &mut want_rs[ridx], region, range, twin, seq);
            e.collect_range(&mut got, &mut got_rs[ridx], region, range, twin, seq);
            assert_eq!(got.wire_runs, want.wire_runs, "wire runs of {range}");
            got.wire_runs.clear();
            want.wire_runs.clear();
        }
        let counts = |c: &Collect| (c.changed_words, c.runs, c.compare_words);
        assert_eq!(counts(&got), counts(&want), "changed words, runs, compares");
        assert!(got_rs == want_rs, "master, stamps or summaries differ");

        let diff_words_before = local.stats.diff_words;
        e.before_release(local, LockId::new(lock as u32), held);
        assert!(states() == want_rs, "the release left other region state");
        if e.cfg.kind.trapping() == Trapping::Instrumentation {
            // The release retires the written bits of what it published.
            for range in &bound {
                let pages = &local.regions[range.region.index()].pages;
                for block in range.blocks(BlockGranularity::Word) {
                    let page = block / WORDS_PER_PAGE;
                    assert!(!pages[page].was_written(block - page * WORDS_PER_PAGE));
                }
            }
        }
        assert_eq!(
            local.stats.diff_words - diff_words_before,
            want.changed_words as u64
        );
        if want.changed_words > 0 {
            let meta = sync::lock(e.locks.get(lock));
            let rec = meta.publishes.back().expect("a publish record");
            assert_eq!(rec.stamp, seq);
            assert_eq!(rec.encoded_size, diff_size(want.changed_words, want.runs));
            assert_eq!(rec.compare_words, want.compare_words);
        }
    }

    #[test]
    fn release_run_walks_match_the_per_word_walks() {
        // Small-object limit 0 sends every twinning holding down the
        // large-object arm, `usize::MAX` down the small-object arm; EC-ci
        // ignores it.
        for kind in ImplKind::ec_all() {
            for limit in [0, usize::MAX] {
                for seed in 1..=8u64 {
                    let mut rng = TestRng::new(seed);
                    let cfg = DsmConfig {
                        ec_small_object_limit: limit,
                        ..DsmConfig::with_procs(kind, 2)
                    };
                    let regions: Vec<RegionDesc> = REGION_LENS
                        .iter()
                        .enumerate()
                        .map(|(i, &len)| {
                            RegionDesc::new(
                                RegionId::new(i as u32),
                                "r",
                                len,
                                BlockGranularity::Word,
                            )
                        })
                        .collect();
                    let init: Vec<Vec<u8>> =
                        REGION_LENS.iter().map(|&len| rng.bytes(len)).collect();
                    let e = EcEngine::new(&cfg, &regions, &init);
                    let mut nodes: Vec<NodeLocal> = (0..2)
                        .map(|n| {
                            NodeLocal::new(
                                dsm_sim::NodeId::new(n),
                                2,
                                &regions,
                                &init,
                                e.cfg.cost.clone(),
                            )
                        })
                        .collect();
                    // Two locks whose bindings may share pages and blocks.
                    for lock in 0..2 {
                        e.bind(LockId::new(lock), random_binding(&mut rng, Vec::new(), 4));
                    }
                    for _ in 0..40 {
                        let local = &mut nodes[rng.below(2)];
                        // One lock, or both held at once (released in
                        // reverse), so page twins are shared.
                        let locks = match rng.below(3) {
                            0 => vec![0, 1],
                            _ => vec![rng.below(2)],
                        };
                        let mut helds: Vec<HeldLock> = Vec::new();
                        for &lock in &locks {
                            let mut held = held_exclusive();
                            e.after_acquire(local, LockId::new(lock as u32), &mut held);
                            helds.push(held);
                        }
                        for _ in 0..1 + rng.below(5) {
                            let lock = locks[rng.below(locks.len())];
                            let bound = sync::lock(e.locks.get(lock)).bound.clone();
                            let range = bound[rng.below(bound.len())];
                            let ridx = range.region.index();
                            let off = range.start + rng.below(range.len);
                            let len = 1 + rng.below((range.end() - off).min(700));
                            e.trap_write_span(local, ridx, off, len, 1);
                            // A quarter of the writes store what was there:
                            // written, yet unchanged.
                            if rng.below(4) != 0 {
                                let bytes = rng.bytes(len);
                                local.regions[ridx].data[off..off + len].copy_from_slice(&bytes);
                            }
                        }
                        // Stray written bits anywhere (another holding's, not
                        // yet released): only those inside a bound range
                        // publish.
                        if rng.below(3) == 0 {
                            let r = rng.below(REGION_LENS.len());
                            let page = rng.below(local.regions[r].pages.len());
                            let w = rng.below(WORDS_PER_PAGE);
                            let bits = local.regions[r].pages[page].written_mut();
                            bits.set_range(w..w + 1 + rng.below(200));
                        }
                        for (&lock, held) in locks.iter().zip(&mut helds).rev() {
                            checked_release(&e, local, lock, held);
                        }
                    }
                }
            }
        }
    }
}
