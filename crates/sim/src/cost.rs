//! The cost model that converts protocol events into simulated time.
//!
//! Every clock-moving event is a [`Charge`]; [`CostModel::price`] turns it
//! into nanoseconds.  The default [`CostModel::atm_lan_1996`] preset
//! approximates the paper's testbed: 8 DECstation-5000/240 (40 MHz MIPS
//! R3400) workstations on a 100-Mbps ATM LAN with software AAL3/4
//! fragmentation, `SIGIO`-driven request handling and `mprotect`/`SIGSEGV`
//! page protection under Ultrix 4.3.

use crate::{SimTime, Work};

/// One event that moves a node's simulated clock: a row of DESIGN.md §1's
/// message-substitution table, or a local mechanism the node runs itself.
///
/// [`CostModel::price`] prices it, [`NodeStats::count`](crate::NodeStats::count)
/// counts it, and [`NodeClock::charge`](crate::NodeClock::charge) moves a
/// clock by it.  Message variants carry payload bytes; the others carry the
/// words, blocks, pages or stores the mechanism touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Charge {
    /// Lock request from the acquirer to the lock's manager.
    LockRequest(usize),
    /// Lock request forwarded by the manager to the last owner.
    LockForward(usize),
    /// Lock grant carrying the consistency payload (EC bound data, LRC
    /// vector and write notices).
    LockGrant(usize),
    /// The responder's `SIGIO` interrupt that serves a remote lock grant.
    Interrupt,
    /// Barrier arrival message (LRC: carrying the node's write notices).
    BarrierArrival(usize),
    /// Barrier departure message (LRC: carrying the notices the node lacks).
    BarrierDeparture(usize),
    /// One access-miss round trip to one responder: request bytes, reply
    /// bytes, with the responder's interrupt in between.
    MissRoundTrip(usize, usize),
    /// HLRC eager flush of an encoded diff to the page's home, counted as
    /// data-reply traffic.
    HomeFlush(usize),
    /// Lock bookkeeping of one acquire.
    Acquire,
    /// Lock bookkeeping of one release.
    Release,
    /// Barrier bookkeeping of one node's barrier episode.
    Barrier,
    /// The protection fault that takes an access miss on an invalid page.
    AccessMiss,
    /// A write fault that twins a page of this many words: fault, twin copy
    /// and the `mprotect` that unprotects the page.
    WriteFault(u64),
    /// An eager twin of this many words, taken without a fault (EC small
    /// objects at acquire).
    Twin(u64),
    /// This many page-protection changes.
    Mprotect(u64),
    /// This many words compared against a twin to build a diff or stamp
    /// changed blocks.
    DiffCompare(u64),
    /// Words installed into local memory: the words counted, then the words
    /// priced (a home fetch installs the whole page but counts the changed
    /// words).
    Apply(u64, u64),
    /// This many timestamp slots (or word-level dirty bits) scanned.
    TsScan(u64),
    /// This many page-level dirty bits checked (hierarchical LRC-ci scheme).
    PageBitChecks(u64),
    /// Instrumented shared stores: the stores, then the dirty-bit stores
    /// each one executes.
    InstrumentedWrites(u64, u64),
    /// Application work.
    Compute(Work),
    /// This many shared-memory accesses through the DSM accessors.
    SharedAccess(u64),
    /// Checkpoint capture or restore over this many words, priced as
    /// memory-bandwidth work like a twin copy and counted nowhere.
    Checkpoint(u64),
}

/// Per-event simulated-time charges for every mechanism the DSM protocols use.
///
/// The protocols in `dsm-core` never look at wall-clock time: every action
/// is a [`Charge`] that [`price`](CostModel::price) converts into simulated
/// time through these knobs, which is what makes the reproduction
/// deterministic.  Only [`atm_lan_1996`](CostModel::atm_lan_1996) and
/// [`free`](CostModel::free) exist; nothing varies the knobs yet.
///
/// # Examples
///
/// ```
/// use dsm_sim::{Charge, CostModel};
///
/// let cost = CostModel::atm_lan_1996();
/// // A one-page (4 KiB) grant costs the fixed per-message overhead plus the
/// // wire time of its payload.
/// let t = cost.price(Charge::LockGrant(4096));
/// assert!(t > cost.price(Charge::LockGrant(0)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Fixed cost of sending + receiving one message (protocol stack,
    /// interrupt handling, AAL3/4 fragmentation), excluding wire time.
    pub msg_fixed_ns: u64,
    /// Wire + copy cost per payload byte (100 Mbps ~ 80 ns/byte plus copies).
    pub per_byte_ns: u64,
    /// Cost of fielding a page-protection fault (SIGSEGV delivery, kernel
    /// crossing, handler dispatch).
    pub page_fault_ns: u64,
    /// Cost of one `mprotect`-style protection change on a page.
    pub mprotect_ns: u64,
    /// Cost of servicing an asynchronous request at the responder (SIGIO
    /// interrupt) — charged to the *requester's* round trip in this model.
    pub interrupt_ns: u64,
    /// Extra instructions executed per instrumented shared store
    /// (compiler-instrumentation write trapping).
    pub instr_write_ns: u64,
    /// Cost per word copied when creating a twin.
    pub twin_copy_word_ns: u64,
    /// Cost per word compared when building a diff from a twin.
    pub diff_compare_word_ns: u64,
    /// Cost per word applied when installing a diff or update into memory.
    pub apply_word_ns: u64,
    /// Cost per block scanned during timestamp-based write collection
    /// (also used for scanning software dirty bits).
    pub ts_scan_block_ns: u64,
    /// Cost per page-level dirty bit checked (hierarchical scheme for LRC-ci).
    pub page_bit_check_ns: u64,
    /// Fixed cost of lock-manager bookkeeping per lock operation.
    pub lock_overhead_ns: u64,
    /// Fixed cost of barrier bookkeeping per node per barrier.
    pub barrier_overhead_ns: u64,
    /// Cost of one unit of application work (roughly one floating-point
    /// operation plus its share of loads/stores on a 40 MHz DECstation).
    pub work_unit_ns: u64,
    /// Cost charged per ordinary shared-memory access (load/store issued by
    /// the application through the DSM accessors), independent of trapping.
    pub shared_access_ns: u64,
}

impl CostModel {
    /// Cost model approximating the paper's environment: DECstation-5000/240
    /// nodes on a 100-Mbps ATM LAN (Section 6 of the paper).
    pub fn atm_lan_1996() -> Self {
        CostModel {
            msg_fixed_ns: 150_000, // ~150 us one-way small-message cost
            per_byte_ns: 90,       // 100 Mbps wire + programmed-I/O copies
            page_fault_ns: 70_000,
            mprotect_ns: 25_000,
            interrupt_ns: 60_000,
            instr_write_ns: 120, // a handful of extra instructions at 40 MHz
            twin_copy_word_ns: 50,
            diff_compare_word_ns: 60,
            apply_word_ns: 50,
            ts_scan_block_ns: 55,
            page_bit_check_ns: 40,
            lock_overhead_ns: 10_000,
            barrier_overhead_ns: 15_000,
            work_unit_ns: 200, // ~8 cycles/flop on a 40 MHz R3400
            shared_access_ns: 25,
        }
    }

    /// A cost model where everything is free.  Useful in unit tests that only
    /// care about protocol state transitions, not timing.
    pub fn free() -> Self {
        CostModel {
            msg_fixed_ns: 0,
            per_byte_ns: 0,
            page_fault_ns: 0,
            mprotect_ns: 0,
            interrupt_ns: 0,
            instr_write_ns: 0,
            twin_copy_word_ns: 0,
            diff_compare_word_ns: 0,
            apply_word_ns: 0,
            ts_scan_block_ns: 0,
            page_bit_check_ns: 0,
            lock_overhead_ns: 0,
            barrier_overhead_ns: 0,
            work_unit_ns: 0,
            shared_access_ns: 0,
        }
    }

    /// The simulated time one charge costs.  Every price in the simulation
    /// comes from this one function; the arithmetic saturates.
    #[inline(always)]
    pub fn price(&self, charge: Charge) -> SimTime {
        let msg = |bytes: usize| {
            self.msg_fixed_ns
                .saturating_add(self.per_byte_ns.saturating_mul(bytes as u64))
        };
        SimTime::from_nanos(match charge {
            Charge::LockRequest(b)
            | Charge::LockForward(b)
            | Charge::LockGrant(b)
            | Charge::BarrierArrival(b)
            | Charge::BarrierDeparture(b)
            | Charge::HomeFlush(b) => msg(b),
            Charge::MissRoundTrip(req, reply) => msg(req)
                .saturating_add(self.interrupt_ns)
                .saturating_add(msg(reply)),
            Charge::Interrupt => self.interrupt_ns,
            Charge::Acquire | Charge::Release => self.lock_overhead_ns,
            Charge::Barrier => self.barrier_overhead_ns,
            Charge::AccessMiss => self.page_fault_ns,
            Charge::WriteFault(words) => self
                .page_fault_ns
                .saturating_add(self.twin_copy_word_ns.saturating_mul(words))
                .saturating_add(self.mprotect_ns),
            Charge::Twin(words) | Charge::Checkpoint(words) => {
                self.twin_copy_word_ns.saturating_mul(words)
            }
            Charge::Mprotect(n) => self.mprotect_ns.saturating_mul(n),
            Charge::DiffCompare(words) => self.diff_compare_word_ns.saturating_mul(words),
            Charge::Apply(_, words) => self.apply_word_ns.saturating_mul(words),
            Charge::TsScan(blocks) => self.ts_scan_block_ns.saturating_mul(blocks),
            Charge::PageBitChecks(pages) => self.page_bit_check_ns.saturating_mul(pages),
            Charge::InstrumentedWrites(stores, factor) => self
                .instr_write_ns
                .saturating_mul(factor)
                .saturating_mul(stores),
            Charge::Compute(work) => self.work_unit_ns.saturating_mul(work.units()),
            Charge::SharedAccess(n) => self.shared_access_ns.saturating_mul(n),
        })
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::atm_lan_1996()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::mem::discriminant;

    use super::*;
    use crate::{MsgKind, NodeClock, NodeStats};

    #[test]
    fn message_cost_scales_with_payload() {
        let c = CostModel::atm_lan_1996();
        let small = c.price(Charge::LockGrant(0));
        let large = c.price(Charge::LockGrant(4096));
        assert!(large > small);
        assert_eq!(large.as_nanos() - small.as_nanos(), 4096 * c.per_byte_ns);
    }

    #[test]
    fn round_trip_is_two_messages_plus_interrupt() {
        let c = CostModel::atm_lan_1996();
        let rt = c.price(Charge::MissRoundTrip(16, 1024));
        assert_eq!(
            rt,
            c.price(Charge::LockRequest(16))
                + c.price(Charge::Interrupt)
                + c.price(Charge::HomeFlush(1024))
        );
    }

    #[test]
    fn free_model_charges_nothing() {
        let c = CostModel::free();
        assert_eq!(c.price(Charge::LockGrant(10_000)), SimTime::ZERO);
        assert_eq!(c.price(Charge::MissRoundTrip(100, 100)), SimTime::ZERO);
        assert_eq!(c.price(Charge::Compute(Work::flops(1_000))), SimTime::ZERO);
        assert_eq!(c.price(Charge::Twin(1024)), SimTime::ZERO);
    }

    #[test]
    fn default_is_the_paper_environment() {
        assert_eq!(CostModel::default(), CostModel::atm_lan_1996());
    }

    #[test]
    fn work_units_convert_linearly() {
        let c = CostModel::atm_lan_1996();
        let t = c.price(Charge::Compute(Work::flops(10)));
        assert_eq!(t.as_nanos(), 10 * c.work_unit_ns);
    }

    #[test]
    fn saturating_behaviour_on_huge_counts() {
        let c = CostModel::atm_lan_1996();
        // Should not panic or wrap.
        let t = c.price(Charge::InstrumentedWrites(u64::MAX, 2));
        assert_eq!(t.as_nanos(), u64::MAX);
    }

    /// Every variant, walked through `NodeClock::charge` and
    /// `NodeStats::count` under the paper's cost model, moves the clock and
    /// the counters exactly as the per-event `CostModel` methods and the
    /// hand-written statistic bumps it replaced did.
    #[test]
    fn every_charge_moves_clock_and_counters_by_the_replaced_formulas() {
        let c = CostModel::atm_lan_1996();
        let msg = |bytes: u64| c.msg_fixed_ns + c.per_byte_ns * bytes;
        let with = |f: &dyn Fn(&mut NodeStats)| {
            let mut s = NodeStats::new();
            f(&mut s);
            s
        };
        let none = NodeStats::new();
        let table = [
            (
                Charge::LockRequest(16),
                msg(16),
                with(&|s| s.record_msg(MsgKind::LockRequest, 16)),
            ),
            (
                Charge::LockForward(16),
                msg(16),
                with(&|s| s.record_msg(MsgKind::LockForward, 16)),
            ),
            (
                Charge::LockGrant(518),
                msg(518),
                with(&|s| s.record_msg(MsgKind::LockGrant, 518)),
            ),
            (Charge::Interrupt, c.interrupt_ns, none.clone()),
            (
                Charge::BarrierArrival(256),
                msg(256),
                with(&|s| s.record_msg(MsgKind::BarrierArrival, 256)),
            ),
            (
                Charge::BarrierDeparture(592),
                msg(592),
                with(&|s| s.record_msg(MsgKind::BarrierRelease, 592)),
            ),
            (
                Charge::MissRoundTrip(20, 4096),
                msg(20) + c.interrupt_ns + msg(4096),
                with(&|s| {
                    s.record_msg(MsgKind::DataRequest, 20);
                    s.record_msg(MsgKind::DataReply, 4096);
                }),
            ),
            (
                Charge::HomeFlush(700),
                msg(700),
                with(&|s| s.record_msg(MsgKind::DataReply, 700)),
            ),
            (
                Charge::Acquire,
                c.lock_overhead_ns,
                with(&|s| s.lock_acquires = 1),
            ),
            (Charge::Release, c.lock_overhead_ns, none.clone()),
            (
                Charge::Barrier,
                c.barrier_overhead_ns,
                with(&|s| s.barriers = 1),
            ),
            (
                Charge::AccessMiss,
                c.page_fault_ns,
                with(&|s| {
                    s.access_misses = 1;
                    s.pages_invalidated = 1;
                }),
            ),
            (
                Charge::WriteFault(1024),
                c.page_fault_ns + 1024 * c.twin_copy_word_ns + c.mprotect_ns,
                with(&|s| {
                    s.write_faults = 1;
                    s.twins_created = 1;
                    s.twin_words = 1024;
                }),
            ),
            (
                Charge::Twin(17),
                17 * c.twin_copy_word_ns,
                with(&|s| {
                    s.twins_created = 1;
                    s.twin_words = 17;
                }),
            ),
            (Charge::Mprotect(3), 3 * c.mprotect_ns, none.clone()),
            (
                Charge::DiffCompare(1024),
                1024 * c.diff_compare_word_ns,
                none.clone(),
            ),
            (
                Charge::Apply(12, 1024),
                1024 * c.apply_word_ns,
                with(&|s| s.words_applied = 12),
            ),
            (
                Charge::TsScan(544),
                544 * c.ts_scan_block_ns,
                with(&|s| s.ts_blocks_scanned = 544),
            ),
            (
                Charge::PageBitChecks(16),
                16 * c.page_bit_check_ns,
                with(&|s| s.page_bits_checked = 16),
            ),
            (
                Charge::InstrumentedWrites(64, 3),
                64 * 3 * c.instr_write_ns,
                with(&|s| s.instrumented_writes = 64),
            ),
            (
                Charge::Compute(Work::flops(6)),
                6 * c.work_unit_ns,
                with(&|s| s.work_units = 6),
            ),
            (
                Charge::SharedAccess(8),
                8 * c.shared_access_ns,
                with(&|s| s.shared_accesses = 8),
            ),
            (Charge::Checkpoint(256), 256 * c.twin_copy_word_ns, none),
        ];
        for (charge, ns, want) in &table {
            let mut clock = NodeClock::new();
            clock.sync_to(SimTime::from_nanos(1_000));
            let mut stats = NodeStats::new();
            let priced = clock.charge(&c, *charge);
            stats.count(*charge);
            assert_eq!(priced.as_nanos(), *ns, "{charge:?} price");
            assert_eq!(clock.now().as_nanos(), 1_000 + ns, "{charge:?} clock");
            assert_eq!(&stats, want, "{charge:?} counters");
        }
        // The table holds every variant once: a new variant fails to compile
        // here until it has a row.
        let seen: HashSet<_> = table.iter().map(|(ch, ..)| discriminant(ch)).collect();
        assert_eq!(seen.len(), table.len());
        for (charge, ..) in &table {
            match charge {
                Charge::LockRequest(_)
                | Charge::LockForward(_)
                | Charge::LockGrant(_)
                | Charge::Interrupt
                | Charge::BarrierArrival(_)
                | Charge::BarrierDeparture(_)
                | Charge::MissRoundTrip(..)
                | Charge::HomeFlush(_)
                | Charge::Acquire
                | Charge::Release
                | Charge::Barrier
                | Charge::AccessMiss
                | Charge::WriteFault(_)
                | Charge::Twin(_)
                | Charge::Mprotect(_)
                | Charge::DiffCompare(_)
                | Charge::Apply(..)
                | Charge::TsScan(_)
                | Charge::PageBitChecks(_)
                | Charge::InstrumentedWrites(..)
                | Charge::Compute(_)
                | Charge::SharedAccess(_)
                | Charge::Checkpoint(_) => {}
            }
        }
    }
}
