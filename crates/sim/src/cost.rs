//! The cost model that converts protocol events into simulated time.
//!
//! All constants are per-event nanosecond charges.  The default
//! [`CostModel::atm_lan_1996`] preset approximates the paper's testbed: 8
//! DECstation-5000/240 (40 MHz MIPS R3400) workstations on a 100-Mbps ATM LAN
//! with software AAL3/4 fragmentation, `SIGIO`-driven request handling and
//! `mprotect`/`SIGSEGV` page protection under Ultrix 4.3.

use crate::{SimTime, Work};

/// Per-event simulated-time charges for every mechanism the DSM protocols use.
///
/// The protocols in `dsm-core` never look at wall-clock time; every action is
/// converted to simulated time through one of these knobs, which is what makes
/// the reproduction deterministic and lets the benchmark harness sweep the
/// environment (e.g. a faster network) without touching protocol code.
///
/// # Examples
///
/// ```
/// use dsm_sim::CostModel;
///
/// let cost = CostModel::atm_lan_1996();
/// // A one-page (4 KiB) reply costs the fixed per-message overhead plus the
/// // wire time of its payload.
/// let t = cost.message(4096);
/// assert!(t > cost.message(0));
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

    /// Time to transmit one message carrying `payload_bytes` of payload
    /// (fixed per-message overhead + wire time).
    pub fn message(&self, payload_bytes: usize) -> SimTime {
        SimTime::from_nanos(
            self.msg_fixed_ns
                .saturating_add(self.per_byte_ns.saturating_mul(payload_bytes as u64)),
        )
    }

    /// Time for a round trip: request carrying `req_bytes`, remote handler
    /// interrupt, reply carrying `reply_bytes`.
    pub fn round_trip(&self, req_bytes: usize, reply_bytes: usize) -> SimTime {
        self.message(req_bytes) + SimTime::from_nanos(self.interrupt_ns) + self.message(reply_bytes)
    }

    /// Time to field one page-protection fault.
    pub fn page_fault(&self) -> SimTime {
        SimTime::from_nanos(self.page_fault_ns)
    }

    /// Time for one protection change.
    pub fn mprotect(&self) -> SimTime {
        SimTime::from_nanos(self.mprotect_ns)
    }

    /// Time to execute the dirty-bit code for `n` instrumented shared stores.
    pub fn instrumented_writes(&self, n: u64) -> SimTime {
        SimTime::from_nanos(self.instr_write_ns.saturating_mul(n))
    }

    /// Time to create a twin of `words` words.
    pub fn twin_copy(&self, words: u64) -> SimTime {
        SimTime::from_nanos(self.twin_copy_word_ns.saturating_mul(words))
    }

    /// Time to compare `words` words against a twin while building a diff.
    pub fn diff_compare(&self, words: u64) -> SimTime {
        SimTime::from_nanos(self.diff_compare_word_ns.saturating_mul(words))
    }

    /// Time to apply `words` modified words into local memory.
    pub fn apply_words(&self, words: u64) -> SimTime {
        SimTime::from_nanos(self.apply_word_ns.saturating_mul(words))
    }

    /// Time to scan `blocks` timestamp slots (or word-level dirty bits).
    pub fn ts_scan(&self, blocks: u64) -> SimTime {
        SimTime::from_nanos(self.ts_scan_block_ns.saturating_mul(blocks))
    }

    /// Time to check `pages` page-level dirty bits (hierarchical scheme).
    pub fn page_bit_checks(&self, pages: u64) -> SimTime {
        SimTime::from_nanos(self.page_bit_check_ns.saturating_mul(pages))
    }

    /// Fixed lock bookkeeping cost.
    pub fn lock_overhead(&self) -> SimTime {
        SimTime::from_nanos(self.lock_overhead_ns)
    }

    /// Fixed per-node barrier bookkeeping cost.
    pub fn barrier_overhead(&self) -> SimTime {
        SimTime::from_nanos(self.barrier_overhead_ns)
    }

    /// Time to perform the given amount of application work.
    pub fn work(&self, work: Work) -> SimTime {
        SimTime::from_nanos(self.work_unit_ns.saturating_mul(work.units()))
    }

    /// Time charged per shared-memory access made through the DSM accessors.
    pub fn shared_access(&self, n: u64) -> SimTime {
        SimTime::from_nanos(self.shared_access_ns.saturating_mul(n))
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::atm_lan_1996()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_cost_scales_with_payload() {
        let c = CostModel::atm_lan_1996();
        let small = c.message(0);
        let large = c.message(4096);
        assert!(large > small);
        assert_eq!(large.as_nanos() - small.as_nanos(), 4096 * c.per_byte_ns);
    }

    #[test]
    fn round_trip_is_two_messages_plus_interrupt() {
        let c = CostModel::atm_lan_1996();
        let rt = c.round_trip(16, 1024);
        assert_eq!(
            rt.as_nanos(),
            c.message(16).as_nanos() + c.interrupt_ns + c.message(1024).as_nanos()
        );
    }

    #[test]
    fn free_model_charges_nothing() {
        let c = CostModel::free();
        assert_eq!(c.message(10_000), SimTime::ZERO);
        assert_eq!(c.round_trip(100, 100), SimTime::ZERO);
        assert_eq!(c.work(Work::flops(1_000)), SimTime::ZERO);
        assert_eq!(c.twin_copy(1024), SimTime::ZERO);
    }

    #[test]
    fn default_is_the_paper_environment() {
        assert_eq!(CostModel::default(), CostModel::atm_lan_1996());
    }

    #[test]
    fn work_units_convert_linearly() {
        let c = CostModel::atm_lan_1996();
        assert_eq!(c.work(Work::flops(10)).as_nanos(), 10 * c.work_unit_ns);
    }

    #[test]
    fn saturating_behaviour_on_huge_counts() {
        let c = CostModel::atm_lan_1996();
        // Should not panic or wrap.
        let t = c.instrumented_writes(u64::MAX);
        assert!(t.as_nanos() > 0);
    }
}
