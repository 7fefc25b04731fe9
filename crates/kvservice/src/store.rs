//! The sharded store: fixed-capacity open-addressed buckets living in
//! shared-memory regions, one region and one lock per shard.
//!
//! # Bucket layout
//!
//! A shard is one `SharedArray<u64>` of `slots × (1 + value_words)` words.
//! Slot `i` occupies words `i * stride .. (i + 1) * stride`:
//!
//! | word | content |
//! |---|---|
//! | 0 | key (`0` = never used, `u64::MAX` = tombstone) |
//! | `1 ..= value_words` | the value, inlined |
//!
//! Keys and values live *in shared memory*: an op is a handful of typed
//! reads/writes on the span hot path, no per-op allocation anywhere, and the
//! protocols replicate exactly the slots an op touched (EC moves them with
//! the shard lock's grant; the LRC family invalidates and fetches on the
//! next miss).
//!
//! # Shard → region → lock mapping
//!
//! The shard map is power-of-two: key `k` hashes to shard
//! `mix(k) >> (64 - shard_bits)` and probes linearly from home slot
//! `mix(k) & (slots - 1)` (the shard index reads the hash's high bits and
//! the home slot its low bits, so the two are decorrelated).  Shard `s` is
//! region `s` of the store and is bound — whole-array, entry-consistency
//! style — to `LockId(base_lock + s)`.  Striped locking falls out of the
//! map: ops on different shards take different locks and different region
//! `RwLock`s, so they proceed in parallel end to end.
//!
//! # Per-op consistency
//!
//! Writes (`put`/`cas`/`delete`) always run under the shard's exclusive
//! lock.  Reads choose per op (the RSC framing — pay for the ordering you
//! need, see `DESIGN.md` §12):
//!
//! * [`ReadConsistency::Lock`]: acquire the shard lock around the probe.
//!   Under EC a *read-only* acquire suffices (readers share; the grant pulls
//!   the bound shard up to date); the LRC family forbids read-only locks, so
//!   the same call takes the exclusive lock there.  Either way the read is
//!   sequentially consistent: it observes every write the lock chain ordered
//!   before it.
//! * [`ReadConsistency::Local`]: no lock at all.  Under the LRC family the
//!   probe still rides the ordinary access-miss path and its
//!   generation-counter freshness fast path — a quiesced shard costs one
//!   atomic load per touched page.  Under EC an unlocked read serves
//!   whatever the last grant installed locally.  This is the cache-style
//!   read: regular (never observes an unwritten value, since slots are only
//!   written under the exclusive lock) but not arbitrated — two nodes may
//!   disagree about *when* a concurrent put lands.

use dsm_core::{
    BlockGranularity, Dsm, LockId, LockMode, Model, ProcessContext, RunResult, SharedArray,
};
use dsm_mem::wire::fnv64_extend;

/// FNV-1a 64-bit offset basis — the seed of every fingerprint chain here,
/// matching [`dsm_mem::wire::fnv64`].
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Key word marking a slot that has never held an entry.  Probes stop here.
const EMPTY: u64 = 0;
/// Key word marking a deleted slot.  Probes continue past it; puts reuse it.
const TOMBSTONE: u64 = u64::MAX;

/// SplitMix64 finalizer: the store's one hash function.  Bijective, so
/// distinct keys never collide in the full 64-bit image; shard and home-slot
/// indices read disjoint bit ranges of the mix.
#[inline]
fn mix(mut k: u64) -> u64 {
    k = (k ^ (k >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    k = (k ^ (k >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    k ^ (k >> 31)
}

/// Shape of a [`KvStore`]: shard count, capacity and value width, plus where
/// its lock range starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvConfig {
    /// `2^shard_bits` shards (regions/locks).
    pub shard_bits: u32,
    /// `2^slot_bits` slots per shard.
    pub slot_bits: u32,
    /// Value size in 8-byte words (values are fixed-width, inlined).
    pub value_words: usize,
    /// First lock id of the store's stripe; shard `s` uses
    /// `LockId(base_lock + s)`.
    pub base_lock: u32,
}

impl KvConfig {
    /// A small default: 8 shards × 1024 slots × 4-word values.
    pub fn small() -> Self {
        KvConfig {
            shard_bits: 3,
            slot_bits: 10,
            value_words: 4,
            base_lock: 0,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        1 << self.shard_bits
    }

    /// Slots per shard.
    pub fn slots(&self) -> usize {
        1 << self.slot_bits
    }

    /// Words per slot (key word + value words).
    pub fn stride(&self) -> usize {
        1 + self.value_words
    }

    /// Total slots across all shards.
    pub fn capacity(&self) -> usize {
        self.shards() * self.slots()
    }
}

/// One key-value operation, replayable: values are carried as a seed and
/// materialized on apply (see [`fill_value`]), so traces stay compact and
/// byte-identical across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// Point lookup.
    Get { key: u64 },
    /// Insert-or-overwrite.
    Put { key: u64, seed: u64 },
    /// Compare-and-swap: replaces the value only if its first word equals
    /// `expect`.
    Cas { key: u64, expect: u64, seed: u64 },
    /// Remove the key (tombstones the slot).
    Delete { key: u64 },
}

impl KvOp {
    /// The key the op addresses.
    pub fn key(&self) -> u64 {
        match *self {
            KvOp::Get { key }
            | KvOp::Put { key, .. }
            | KvOp::Cas { key, .. }
            | KvOp::Delete { key } => key,
        }
    }

    /// True for `put`/`cas`/`delete` (needs the exclusive shard lock).
    pub fn is_write(&self) -> bool {
        !matches!(self, KvOp::Get { .. })
    }
}

/// Materializes the deterministic value a `(key, seed)` pair denotes: word
/// `i` is `mix(key ^ seed ^ i)`, except word 0 which carries `seed` verbatim
/// so [`KvOp::Cas`] can name its expectation without knowing the mix.
pub fn fill_value(key: u64, seed: u64, out: &mut [u64]) {
    if let Some(w0) = out.first_mut() {
        *w0 = seed;
    }
    for (i, w) in out.iter_mut().enumerate().skip(1) {
        *w = mix(key ^ seed ^ i as u64);
    }
}

/// What a [`KvStore::put`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutOutcome {
    /// The key was new (or its slot was a tombstone).
    Inserted,
    /// The key existed; its value was overwritten.
    Updated,
    /// The probe wrapped without finding the key or a free slot.
    Full,
}

/// What a [`KvStore::cas`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CasOutcome {
    /// The expectation held; the value was replaced.
    Swapped,
    /// The key exists but its first value word differed from `expect`.
    Mismatch,
    /// The key is absent.
    Absent,
}

/// How a read is ordered; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadConsistency {
    /// Sequentially consistent: probe under the shard lock (read-only under
    /// EC, exclusive under the LRC family).
    Lock,
    /// Local: no lock; serve the freshest locally-visible value.
    Local,
}

/// Counters one node accumulates while applying ops, plus the per-shard
/// get-result fingerprint chains the equivalence suites compare.
#[derive(Debug, Clone)]
pub struct KvStats {
    pub gets: u64,
    pub hits: u64,
    pub puts: u64,
    pub inserted: u64,
    pub updated: u64,
    pub cas_ok: u64,
    pub cas_miss: u64,
    pub cas_absent: u64,
    pub deletes: u64,
    pub deleted: u64,
    /// Per shard: an FNV-1a chain over every get result this node observed
    /// on that shard, in application order (a miss folds a marker byte, a
    /// hit folds the value bytes).  Shard-local order is deterministic
    /// whenever one node owns the shard, whatever the other shards are doing.
    pub get_fnv: Vec<u64>,
}

impl KvStats {
    /// Fresh counters for a store with `shards` shards.
    pub fn new(shards: usize) -> Self {
        KvStats {
            gets: 0,
            hits: 0,
            puts: 0,
            inserted: 0,
            updated: 0,
            cas_ok: 0,
            cas_miss: 0,
            cas_absent: 0,
            deletes: 0,
            deleted: 0,
            get_fnv: vec![FNV_OFFSET; shards],
        }
    }

    /// Total operations applied.
    pub fn ops(&self) -> u64 {
        self.gets + self.puts + self.cas_ok + self.cas_miss + self.cas_absent + self.deletes
    }

    /// Folds another worker's stats into this one: counters add, and the
    /// per-shard get chains combine with XOR so the result is independent of
    /// merge order.  perfbench aggregates per-processor stats this way;
    /// the equivalence suites compare per-worker chains instead of merging,
    /// because a chain's application order is only meaningful within one
    /// worker.
    pub fn merge(&mut self, other: &KvStats) {
        self.gets += other.gets;
        self.hits += other.hits;
        self.puts += other.puts;
        self.inserted += other.inserted;
        self.updated += other.updated;
        self.cas_ok += other.cas_ok;
        self.cas_miss += other.cas_miss;
        self.cas_absent += other.cas_absent;
        self.deletes += other.deletes;
        self.deleted += other.deleted;
        for (a, b) in self.get_fnv.iter_mut().zip(&other.get_fnv) {
            *a ^= b;
        }
    }

    fn fold_hit(&mut self, shard: usize, value: &[u64]) {
        self.hits += 1;
        let mut h = self.get_fnv[shard];
        for w in value {
            h = fnv64_extend(h, &w.to_le_bytes());
        }
        self.get_fnv[shard] = h;
    }

    fn fold_miss(&mut self, shard: usize) {
        self.get_fnv[shard] = fnv64_extend(self.get_fnv[shard], &[0xff]);
    }
}

/// Reusable per-node scratch for [`KvStore::apply_batch`]: the shard index
/// and the value buffer.  Construct once per worker; steady-state batches
/// allocate nothing.
#[derive(Debug)]
pub struct KvScratch {
    /// Op indices of the current batch, bucketed by shard.
    by_shard: Vec<Vec<u32>>,
    /// Value materialization / readback buffer (`value_words` long).
    value: Vec<u64>,
}

impl KvScratch {
    /// Scratch sized for `cfg`.
    pub fn new(cfg: &KvConfig) -> Self {
        KvScratch {
            by_shard: (0..cfg.shards()).map(|_| Vec::new()).collect(),
            value: vec![0; cfg.value_words],
        }
    }
}

/// The sharded KV/cache tier.  Allocate once with [`KvStore::alloc`] during
/// setup; the handle is cheap to clone and is shared with every worker
/// closure.
#[derive(Debug, Clone)]
pub struct KvStore {
    cfg: KvConfig,
    /// The read-only lock mode [`ReadConsistency::Lock`] uses: `ReadOnly`
    /// under EC (readers share), `Exclusive` under the LRC family (which
    /// rejects read-only acquires, as in the paper).
    sc_read_mode: LockMode,
    shards: Vec<SharedArray<u64>>,
}

impl KvStore {
    /// Allocates the store's regions and binds each shard — whole-array — to
    /// its stripe lock.  The binding is what makes EC move exactly the
    /// shard's bytes with its lock grants; under LRC it is a no-op and the
    /// same setup serves every implementation.
    pub fn alloc(dsm: &mut Dsm, model: Model, cfg: KvConfig) -> Self {
        let shards = (0..cfg.shards())
            .map(|s| {
                let arr = dsm.alloc_array::<u64>(
                    format!("kv-shard{s}"),
                    cfg.slots() * cfg.stride(),
                    BlockGranularity::DoubleWord,
                );
                dsm.bind(LockId::new(cfg.base_lock + s as u32), [arr.whole()]);
                arr
            })
            .collect();
        KvStore {
            cfg,
            sc_read_mode: if model == Model::Ec {
                LockMode::ReadOnly
            } else {
                LockMode::Exclusive
            },
            shards,
        }
    }

    /// The store's shape.
    pub fn config(&self) -> &KvConfig {
        &self.cfg
    }

    /// The shard key `k` maps to.
    pub fn shard_of(&self, key: u64) -> usize {
        (mix(key) >> (64 - self.cfg.shard_bits)) as usize
    }

    /// The lock guarding shard `s`.
    pub fn shard_lock(&self, s: usize) -> LockId {
        LockId::new(self.cfg.base_lock + s as u32)
    }

    /// The region backing shard `s` (for fingerprinting final contents).
    pub fn shard_array(&self, s: usize) -> SharedArray<u64> {
        self.shards[s]
    }

    /// Probes shard `s` for `key`.  Returns `Ok(slot)` if found,
    /// `Err(free_slot)` with the first reusable slot if absent, or
    /// `Err(usize::MAX)` if the probe wrapped a full shard.
    fn probe(&self, ctx: &mut ProcessContext<'_>, s: usize, key: u64) -> Result<usize, usize> {
        let arr = self.shards[s];
        let slots = self.cfg.slots();
        let stride = self.cfg.stride();
        let mask = slots - 1;
        let mut slot = mix(key) as usize & mask;
        let mut free = usize::MAX;
        for _ in 0..slots {
            let k = ctx.get(arr, slot * stride);
            if k == key {
                return Ok(slot);
            }
            if k == EMPTY {
                return Err(if free != usize::MAX { free } else { slot });
            }
            if k == TOMBSTONE && free == usize::MAX {
                free = slot;
            }
            slot = (slot + 1) & mask;
        }
        Err(free)
    }

    /// Reads `key`'s value into `out` (exactly `value_words` long) under the
    /// chosen consistency.  Returns true on a hit.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != value_words`, or if `key` is one of the two
    /// reserved sentinels (`0`, `u64::MAX`).
    pub fn get_into(
        &self,
        ctx: &mut ProcessContext<'_>,
        key: u64,
        consistency: ReadConsistency,
        out: &mut [u64],
    ) -> bool {
        assert_eq!(out.len(), self.cfg.value_words, "value buffer size");
        assert!(key != EMPTY && key != TOMBSTONE, "reserved key");
        let s = self.shard_of(key);
        match consistency {
            ReadConsistency::Lock => {
                let mut g = ctx.lock(self.shard_lock(s), self.sc_read_mode);
                self.get_in_shard(&mut g, s, key, out)
            }
            ReadConsistency::Local => self.get_in_shard(ctx, s, key, out),
        }
    }

    fn get_in_shard(
        &self,
        ctx: &mut ProcessContext<'_>,
        s: usize,
        key: u64,
        out: &mut [u64],
    ) -> bool {
        match self.probe(ctx, s, key) {
            Ok(slot) => {
                ctx.read_into(self.shards[s], slot * self.cfg.stride() + 1, out);
                true
            }
            Err(_) => false,
        }
    }

    /// Inserts or overwrites `key` under the shard's exclusive lock.
    pub fn put(&self, ctx: &mut ProcessContext<'_>, key: u64, value: &[u64]) -> PutOutcome {
        assert!(key != EMPTY && key != TOMBSTONE, "reserved key");
        let s = self.shard_of(key);
        let mut g = ctx.lock(self.shard_lock(s), LockMode::Exclusive);
        self.put_in_shard(&mut g, s, key, value)
    }

    fn put_in_shard(
        &self,
        ctx: &mut ProcessContext<'_>,
        s: usize,
        key: u64,
        value: &[u64],
    ) -> PutOutcome {
        debug_assert_eq!(value.len(), self.cfg.value_words);
        let stride = self.cfg.stride();
        match self.probe(ctx, s, key) {
            Ok(slot) => {
                ctx.write_from(self.shards[s], slot * stride + 1, value);
                PutOutcome::Updated
            }
            Err(usize::MAX) => PutOutcome::Full,
            Err(slot) => {
                ctx.set(self.shards[s], slot * stride, key);
                ctx.write_from(self.shards[s], slot * stride + 1, value);
                PutOutcome::Inserted
            }
        }
    }

    /// Replaces `key`'s value with `value` only if the current first value
    /// word equals `expect`, under the shard's exclusive lock.
    pub fn cas(
        &self,
        ctx: &mut ProcessContext<'_>,
        key: u64,
        expect: u64,
        value: &[u64],
    ) -> CasOutcome {
        assert!(key != EMPTY && key != TOMBSTONE, "reserved key");
        let s = self.shard_of(key);
        let mut g = ctx.lock(self.shard_lock(s), LockMode::Exclusive);
        self.cas_in_shard(&mut g, s, key, expect, value)
    }

    fn cas_in_shard(
        &self,
        ctx: &mut ProcessContext<'_>,
        s: usize,
        key: u64,
        expect: u64,
        value: &[u64],
    ) -> CasOutcome {
        debug_assert_eq!(value.len(), self.cfg.value_words);
        let stride = self.cfg.stride();
        match self.probe(ctx, s, key) {
            Ok(slot) => {
                let cur = ctx.get(self.shards[s], slot * stride + 1);
                if cur == expect {
                    ctx.write_from(self.shards[s], slot * stride + 1, value);
                    CasOutcome::Swapped
                } else {
                    CasOutcome::Mismatch
                }
            }
            Err(_) => CasOutcome::Absent,
        }
    }

    /// Removes `key` (tombstones its slot) under the shard's exclusive lock.
    /// Returns true if the key was present.
    pub fn delete(&self, ctx: &mut ProcessContext<'_>, key: u64) -> bool {
        assert!(key != EMPTY && key != TOMBSTONE, "reserved key");
        let s = self.shard_of(key);
        let mut g = ctx.lock(self.shard_lock(s), LockMode::Exclusive);
        self.delete_in_shard(&mut g, s, key)
    }

    fn delete_in_shard(&self, ctx: &mut ProcessContext<'_>, s: usize, key: u64) -> bool {
        match self.probe(ctx, s, key) {
            Ok(slot) => {
                ctx.set(self.shards[s], slot * self.cfg.stride(), TOMBSTONE);
                true
            }
            Err(_) => false,
        }
    }

    /// Applies a batch of ops, grouped by shard so each touched shard's lock
    /// is taken **once** per batch (the batched-write-application fast path:
    /// under EC one grant/publish pair then covers every op on the shard,
    /// and under LRC one interval does).  Within a shard, ops apply in batch
    /// order; across shards, in shard order.  Shards reached only by `Get`s
    /// under [`ReadConsistency::Local`] are served without any lock.
    ///
    /// Outcomes and get results accumulate into `stats`; `scratch` is
    /// recycled, so steady-state batches allocate nothing.
    pub fn apply_batch(
        &self,
        ctx: &mut ProcessContext<'_>,
        ops: &[KvOp],
        reads: ReadConsistency,
        scratch: &mut KvScratch,
        stats: &mut KvStats,
    ) {
        for bucket in scratch.by_shard.iter_mut() {
            bucket.clear();
        }
        for (i, op) in ops.iter().enumerate() {
            scratch.by_shard[self.shard_of(op.key())].push(i as u32);
        }
        let mut value = std::mem::take(&mut scratch.value);
        for s in 0..self.cfg.shards() {
            let bucket = &scratch.by_shard[s];
            if bucket.is_empty() {
                continue;
            }
            let any_write = bucket.iter().any(|&i| ops[i as usize].is_write());
            if any_write || reads == ReadConsistency::Lock {
                let mode = if any_write {
                    LockMode::Exclusive
                } else {
                    self.sc_read_mode
                };
                let mut g = ctx.lock(self.shard_lock(s), mode);
                self.apply_shard(&mut g, s, ops, bucket, &mut value, stats);
            } else {
                self.apply_shard(ctx, s, ops, bucket, &mut value, stats);
            }
        }
        scratch.value = value;
    }

    /// Applies one shard's slice of a batch in order (the caller holds
    /// whatever lock the batch's consistency demands).
    fn apply_shard(
        &self,
        cx: &mut ProcessContext<'_>,
        s: usize,
        ops: &[KvOp],
        bucket: &[u32],
        value: &mut [u64],
        stats: &mut KvStats,
    ) {
        for &i in bucket {
            match ops[i as usize] {
                KvOp::Get { key } => {
                    stats.gets += 1;
                    if self.get_in_shard(cx, s, key, value) {
                        stats.fold_hit(s, value);
                    } else {
                        stats.fold_miss(s);
                    }
                }
                KvOp::Put { key, seed } => {
                    stats.puts += 1;
                    fill_value(key, seed, value);
                    match self.put_in_shard(cx, s, key, value) {
                        PutOutcome::Inserted => stats.inserted += 1,
                        PutOutcome::Updated => stats.updated += 1,
                        PutOutcome::Full => panic!("kv shard {s} overflowed"),
                    }
                }
                KvOp::Cas { key, expect, seed } => {
                    fill_value(key, seed, value);
                    match self.cas_in_shard(cx, s, key, expect, value) {
                        CasOutcome::Swapped => stats.cas_ok += 1,
                        CasOutcome::Mismatch => stats.cas_miss += 1,
                        CasOutcome::Absent => stats.cas_absent += 1,
                    }
                }
                KvOp::Delete { key } => {
                    stats.deletes += 1;
                    if self.delete_in_shard(cx, s, key) {
                        stats.deleted += 1;
                    }
                }
            }
        }
    }

    /// FNV-1a fingerprint of every shard's final contents, in shard order —
    /// the "identical final bucket contents" half of the equivalence suites.
    pub fn contents_fnv(&self, result: &RunResult) -> u64 {
        let mut h = FNV_OFFSET;
        for arr in &self.shards {
            for w in result.final_array(*arr) {
                h = fnv64_extend(h, &w.to_le_bytes());
            }
        }
        h
    }
}
