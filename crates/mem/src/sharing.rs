//! Per-page sharing statistics and the adaptive-policy mode machinery.
//!
//! Every LRC engine (`dsm-core`) keeps one data-movement mode per page, and
//! under adaptive LRC a controller migrates each page between the three
//! modes based on the sharing pattern the page exhibits at runtime.  This
//! module holds the mechanism pieces: the mode itself
//! ([`PageMode`], with a compact packed form for lock-free publication), the
//! per-page window accumulator the engines feed from their publish and miss
//! paths ([`PageSharing`]), and the hysteresis rule that turns two agreeing
//! observation windows into a migration decision
//! ([`PageSharing::advance`]).
//!
//! Everything here is a pure function of the recorded events.  The engines
//! only record *entitlement-visible* events (publishes committed under the
//! region write lock, misses decided against entitled history records), and
//! windows are closed at barrier commits while every node is blocked — so
//! for a data-race-free program the decision sequence is a deterministic
//! function of the program and the processor count.

/// The data-movement mode of one page of an LRC engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageMode {
    /// TreadMarks behaviour: modifications stay with their writers and a
    /// miss collects diffs from every concurrent writer.  The starting mode
    /// of every page under homeless and adaptive LRC.
    Homeless,
    /// Home-based flush: releasers eagerly flush modifications to the home
    /// node (round-robin under home-based LRC; the dominant writer when the
    /// adaptive controller homes a page) and a miss is one whole-page round
    /// trip.
    Home(u32),
    /// Single-writer pinning: the owner's twin/diff work is suppressed
    /// entirely — no protocol traffic — until a second writer faults on the
    /// page.
    Pinned(u32),
}

/// Owner mask of the packed form: low 30 bits.
const OWNER_MASK: u32 = (1 << 30) - 1;

impl PageMode {
    /// Packs the mode into a `u32` (tag in the top two bits, owner below) so
    /// engines can publish mode changes through a single atomic store.
    pub fn pack(self) -> u32 {
        match self {
            PageMode::Homeless => 0,
            PageMode::Home(owner) => (1 << 30) | (owner & OWNER_MASK),
            PageMode::Pinned(owner) => (2 << 30) | (owner & OWNER_MASK),
        }
    }

    /// Inverse of [`PageMode::pack`].
    pub fn unpack(packed: u32) -> Self {
        let owner = packed & OWNER_MASK;
        match packed >> 30 {
            0 => PageMode::Homeless,
            1 => PageMode::Home(owner),
            _ => PageMode::Pinned(owner),
        }
    }

    /// Short label used in migration traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            PageMode::Homeless => "homeless",
            PageMode::Home(_) => "home",
            PageMode::Pinned(_) => "pinned",
        }
    }
}

impl std::fmt::Display for PageMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageMode::Homeless => f.write_str("homeless"),
            PageMode::Home(o) => write!(f, "home({o})"),
            PageMode::Pinned(o) => write!(f, "pinned({o})"),
        }
    }
}

/// One committed migration decision: at barrier-commit `eval`, page `page`
/// of region `region` switched to `mode`.  The sequence of these records is
/// a run's *migration trace*; determinism tests compare it across repeated
/// runs, and the same 16 bytes per record travel in the transport's control
/// frames so replicas can verify they saw every decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageModeChange {
    /// Barrier-commit sequence number (1-based) the decision was made at.
    pub eval: u32,
    /// Region index of the page.
    pub region: u32,
    /// Page index within the region.
    pub page: u32,
    /// The mode the page migrated to.
    pub mode: PageMode,
}

impl PageModeChange {
    /// Encoded size of one record on the wire (and in the simulated
    /// barrier-release payload): eval, region, page, packed mode.
    pub const WIRE_SIZE: usize = 16;

    /// Appends the record's wire form (four little-endian `u32`s).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.eval.to_le_bytes());
        out.extend_from_slice(&self.region.to_le_bytes());
        out.extend_from_slice(&self.page.to_le_bytes());
        out.extend_from_slice(&self.mode.pack().to_le_bytes());
    }
}

/// Per-page sharing-statistics accumulator: one observation window of
/// publish/miss events plus whole-run totals and the pending-candidate slot
/// of the hysteresis rule.
///
/// The engines record into the current window under the region write lock;
/// the adaptive controller calls [`PageSharing::advance`] once per barrier
/// commit (all nodes blocked) to close the window and obtain a migration
/// candidate.  Window counters are sums over commutative events, so their
/// closed values do not depend on thread scheduling within the window.
#[derive(Debug, Clone)]
pub struct PageSharing {
    /// Publishes per writer in the current window.
    writer_pubs: Vec<u32>,
    /// Total publishes in the current window.
    publishes: u32,
    /// Publishes whose predecessor record was already covered by the
    /// publisher's vector (the writers serialized, e.g. under a migratory
    /// lock); `serial == publishes` means no two writers raced.
    serial_publishes: u32,
    /// Encoded diff bytes published in the current window (always the
    /// unsuppressed size, so the signal is mode-independent).
    diff_bytes: u64,
    /// Access misses taken on the page in the current window.
    misses: u32,
    /// Whole-run publishes per writer.  The home-candidate target is the
    /// *cumulative* dominant writer (ties to the lowest id), so that data
    /// whose per-window writer rotates — migratory pages visited in turn —
    /// still produces a stable candidate the hysteresis rule can confirm.
    total_writer_pubs: Vec<u64>,
    /// The previous window's candidate, packed (`u32::MAX` = none): a
    /// migration fires only when two consecutive windows agree.
    pending: u32,
    /// Whole-run publish count (for reporting).
    pub total_publishes: u64,
    /// Whole-run encoded diff bytes (for reporting).
    pub total_diff_bytes: u64,
    /// Whole-run miss count (for reporting).
    pub total_misses: u64,
}

/// Sentinel for "no pending candidate" (distinct from every packed mode:
/// packed owners use 30 bits).
const NO_PENDING: u32 = u32::MAX;

impl PageSharing {
    /// Empty accumulator for a cluster of `nprocs` processors.
    pub fn new(nprocs: usize) -> Self {
        PageSharing {
            writer_pubs: vec![0; nprocs],
            publishes: 0,
            serial_publishes: 0,
            diff_bytes: 0,
            misses: 0,
            total_writer_pubs: vec![0; nprocs],
            pending: NO_PENDING,
            total_publishes: 0,
            total_diff_bytes: 0,
            total_misses: 0,
        }
    }

    /// Records one publish by `writer`: `bytes` of encoded modifications,
    /// `serial` if the page's previous publish record was already covered by
    /// the publisher's vector.
    pub fn record_publish(&mut self, writer: usize, bytes: usize, serial: bool) {
        self.writer_pubs[writer] += 1;
        self.publishes += 1;
        self.serial_publishes += u32::from(serial);
        self.diff_bytes += bytes as u64;
        self.total_writer_pubs[writer] += 1;
        self.total_publishes += 1;
        self.total_diff_bytes += bytes as u64;
    }

    /// Records one access miss on the page.
    pub fn record_miss(&mut self) {
        self.misses += 1;
        self.total_misses += 1;
    }

    /// Reverts one [`PageSharing::record_miss`].  The recovery subsystem
    /// calls this when rolling a crashed node back to its last checkpoint:
    /// the discarded epoch's misses must leave neither the whole-run totals
    /// (reported traffic) nor the current window (the adaptive pin-break
    /// signal), because the replayed epoch records them again.
    pub fn unrecord_miss(&mut self) {
        self.misses = self.misses.saturating_sub(1);
        self.total_misses = self.total_misses.saturating_sub(1);
    }

    /// Distinct writers observed in the current window.
    pub fn window_writers(&self) -> usize {
        self.writer_pubs.iter().filter(|&&c| c > 0).count()
    }

    /// Misses recorded in the current window.
    pub fn window_misses(&self) -> u32 {
        self.misses
    }

    /// Whether any node other than `owner` published in the current window
    /// (the pin-break signal: a pinned page must demote when a second writer
    /// shows up).
    pub fn window_foreign_writer(&self, owner: usize) -> bool {
        self.writer_pubs
            .iter()
            .enumerate()
            .any(|(q, &c)| q != owner && c > 0)
    }

    /// The candidate mode the current window's statistics argue for, if the
    /// window holds any evidence:
    ///
    /// * one writer, no misses → [`PageMode::Pinned`] at the writer;
    /// * page-sized publishes with misses → [`PageMode::Home`] at the
    ///   cumulative dominant writer, but only when a home actually beats
    ///   homeless accumulation (see below); homeless otherwise;
    /// * several writers racing (false sharing) → [`PageMode::Homeless`].
    ///
    /// A home replaces per-visit diff accumulation (each homeless miss
    /// refetches every diff still pending) with one flush plus one
    /// whole-page fetch per visitor.  That trade only pays off when the
    /// accumulation is real:
    ///
    /// * **migratory data** — the writership has rotated over at least three
    ///   nodes (with two, a visitor's miss ever finds one pending diff and
    ///   homeless is cheaper);
    /// * **producer/consumer** — one lifetime writer whose window shows at
    ///   least two publishes *and* two misses (several readers each
    ///   refetching several accumulated diffs; with one of either, the
    ///   home's flush+fetch costs as much as the diffs it replaces).
    ///
    /// `accumulating` says whether the policy's homeless miss path pays for
    /// every pending per-interval diff (diff collection).  Timestamp-based
    /// collections reconstruct one consolidated reply at fetch time, so for
    /// them a home can only add eager flushes and whole-page replies — the
    /// home candidates degrade to [`PageMode::Homeless`] and only pinning
    /// remains on the table.
    fn candidate(&self, page_bytes: usize, accumulating: bool) -> Option<PageMode> {
        if self.publishes == 0 {
            // Misses alone say nothing about the writer set.
            return None;
        }
        let writers = self.window_writers();
        let total_writers = self.total_writer_pubs.iter().filter(|&&c| c > 0).count();
        let home_pays =
            total_writers >= 3 || (total_writers == 1 && self.misses >= 2 && self.publishes >= 2);
        // The pin target is this window's writer; the home target is the
        // whole-run dominant writer, which stays stable when the per-window
        // writer rotates (both tie to the lowest id).
        let window_writer = self
            .writer_pubs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(w, _)| w as u32)
            .unwrap_or(0);
        let dominant = self
            .total_writer_pubs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(w, _)| w as u32)
            .unwrap_or(0);
        let home = if accumulating {
            PageMode::Home(dominant)
        } else {
            PageMode::Homeless
        };
        Some(if writers <= 1 {
            if self.misses == 0 {
                PageMode::Pinned(window_writer)
            } else if home_pays
                && self.diff_bytes * 4 >= self.publishes as u64 * page_bytes as u64 * 3
            {
                // Diffs approach the page size: the home's whole-page reply
                // costs no more and the accumulation is what a homeless miss
                // would otherwise pay per unseen writer.
                home
            } else {
                PageMode::Homeless
            }
        } else if self.serial_publishes == self.publishes && home_pays {
            home
        } else {
            PageMode::Homeless
        })
    }

    /// Closes the current window: returns the confirmed migration candidate
    /// — the window's candidate, only when the *previous* window proposed
    /// the same mode (two-window hysteresis) — and resets the window
    /// counters.  `page_bytes` sizes the diff-vs-page comparison;
    /// `accumulating` is the collection property described on the private
    /// `candidate` helper's docs (home candidates are only viable under
    /// accumulating diff collection).
    ///
    /// An idle window (no publishes) voids any pending candidate and
    /// confirms nothing, so a page that goes quiet keeps its mode.
    pub fn advance(&mut self, page_bytes: usize, accumulating: bool) -> Option<PageMode> {
        let candidate = self.candidate(page_bytes, accumulating);
        let confirmed = match candidate {
            Some(c) if self.pending == c.pack() => Some(c),
            _ => None,
        };
        self.pending = candidate.map_or(NO_PENDING, PageMode::pack);
        for c in &mut self.writer_pubs {
            *c = 0;
        }
        self.publishes = 0;
        self.serial_publishes = 0;
        self.diff_bytes = 0;
        self.misses = 0;
        confirmed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_packing_roundtrips() {
        for mode in [
            PageMode::Homeless,
            PageMode::Home(0),
            PageMode::Home(7),
            PageMode::Pinned(0),
            PageMode::Pinned(31),
        ] {
            assert_eq!(PageMode::unpack(mode.pack()), mode, "{mode}");
        }
        assert_ne!(PageMode::Homeless.pack(), NO_PENDING);
    }

    #[test]
    fn change_record_encodes_sixteen_bytes() {
        let c = PageModeChange {
            eval: 3,
            region: 1,
            page: 9,
            mode: PageMode::Pinned(2),
        };
        let mut buf = Vec::new();
        c.encode_into(&mut buf);
        assert_eq!(buf.len(), PageModeChange::WIRE_SIZE);
        assert_eq!(&buf[0..4], &3u32.to_le_bytes());
        assert_eq!(&buf[12..16], &PageMode::Pinned(2).pack().to_le_bytes());
    }

    #[test]
    fn single_writer_without_readers_pins_after_two_windows() {
        let mut s = PageSharing::new(4);
        s.record_publish(2, 64, true);
        assert_eq!(s.advance(4096, true), None, "first window only proposes");
        s.record_publish(2, 64, true);
        assert_eq!(s.advance(4096, true), Some(PageMode::Pinned(2)));
        assert_eq!(s.total_publishes, 2);
    }

    #[test]
    fn single_writer_with_small_diffs_and_readers_stays_homeless() {
        let mut s = PageSharing::new(4);
        for _ in 0..2 {
            s.record_publish(1, 64, true);
            s.record_miss();
            s.advance(4096, true);
        }
        s.record_publish(1, 64, true);
        s.record_miss();
        assert_eq!(s.advance(4096, true), Some(PageMode::Homeless));
    }

    #[test]
    fn page_sized_producer_consumer_gets_a_home_at_the_writer() {
        // One lifetime writer, two page-sized publishes and two reader
        // misses per window: the readers refetch accumulated diffs, so a
        // home at the writer pays off.
        let mut s = PageSharing::new(4);
        for _ in 0..2 {
            s.record_publish(3, 4096, true);
            s.record_publish(3, 4096, true);
            s.record_miss();
            s.record_miss();
            s.advance(4096, true);
        }
        s.record_publish(3, 4096, true);
        s.record_publish(3, 4096, true);
        s.record_miss();
        s.record_miss();
        assert_eq!(s.advance(4096, true), Some(PageMode::Home(3)));
    }

    #[test]
    fn lone_reader_of_a_lone_writer_stays_homeless() {
        // With a single reader taking a single miss per window, homeless
        // diffing moves one diff per window where a home would move a flush
        // *and* a fetch — the home never pays off, page-sized or not.
        let mut s = PageSharing::new(4);
        for _ in 0..2 {
            s.record_publish(3, 4096, true);
            s.record_miss();
            s.advance(4096, true);
        }
        s.record_publish(3, 4096, true);
        s.record_miss();
        assert_eq!(s.advance(4096, true), Some(PageMode::Homeless));
    }

    #[test]
    fn serialized_multi_writer_homes_at_the_dominant_writer() {
        let mut s = PageSharing::new(4);
        for _ in 0..2 {
            s.record_publish(1, 128, true);
            s.record_publish(1, 128, true);
            s.record_publish(3, 128, true);
            s.record_publish(2, 128, true);
            s.advance(4096, true);
        }
        s.record_publish(1, 128, true);
        s.record_publish(1, 128, true);
        s.record_publish(3, 128, true);
        s.record_publish(2, 128, true);
        assert_eq!(s.advance(4096, true), Some(PageMode::Home(1)));
    }

    #[test]
    fn two_writer_migratory_data_stays_homeless() {
        // With only two nodes ever writing, a visitor's miss finds exactly
        // one pending diff: homeless moves one diff per visit where a home
        // would move two pages.
        let mut s = PageSharing::new(4);
        for _ in 0..2 {
            s.record_publish(0, 4096, true);
            s.record_publish(1, 4096, true);
            s.advance(4096, true);
        }
        s.record_publish(0, 4096, true);
        s.record_publish(1, 4096, true);
        assert_eq!(s.advance(4096, true), Some(PageMode::Homeless));
    }

    #[test]
    fn dominant_writer_ties_go_to_the_lowest_node() {
        let mut s = PageSharing::new(4);
        for _ in 0..2 {
            s.record_publish(2, 32, true);
            s.record_publish(1, 32, true);
            s.record_publish(3, 32, true);
            s.advance(4096, true);
        }
        s.record_publish(2, 32, true);
        s.record_publish(1, 32, true);
        s.record_publish(3, 32, true);
        assert_eq!(s.advance(4096, true), Some(PageMode::Home(1)));
    }

    #[test]
    fn racing_writers_confirm_homeless() {
        let mut s = PageSharing::new(4);
        for _ in 0..2 {
            s.record_publish(0, 32, true);
            s.record_publish(1, 32, false); // concurrent with node 0's
            s.advance(4096, true);
        }
        s.record_publish(0, 32, true);
        s.record_publish(1, 32, false);
        assert_eq!(s.advance(4096, true), Some(PageMode::Homeless));
    }

    #[test]
    fn non_accumulating_collections_never_propose_a_home() {
        // Under timestamp collections the homeless miss reply is already
        // consolidated, so both home-shaped patterns degrade to Homeless...
        let mut migratory = PageSharing::new(4);
        for _ in 0..2 {
            migratory.record_publish(1, 4096, true);
            migratory.record_publish(3, 4096, true);
            migratory.record_publish(2, 4096, true);
            migratory.advance(4096, false);
        }
        migratory.record_publish(1, 4096, true);
        migratory.record_publish(3, 4096, true);
        migratory.record_publish(2, 4096, true);
        assert_eq!(migratory.advance(4096, false), Some(PageMode::Homeless));

        let mut producer = PageSharing::new(4);
        for _ in 0..2 {
            producer.record_publish(2, 4096, true);
            producer.record_publish(2, 4096, true);
            producer.record_miss();
            producer.record_miss();
            producer.advance(4096, false);
        }
        producer.record_publish(2, 4096, true);
        producer.record_publish(2, 4096, true);
        producer.record_miss();
        producer.record_miss();
        assert_eq!(producer.advance(4096, false), Some(PageMode::Homeless));

        // ...while pinning, which suppresses work rather than moving it,
        // stays available.
        let mut lone = PageSharing::new(4);
        lone.record_publish(2, 64, true);
        lone.advance(4096, false);
        lone.record_publish(2, 64, true);
        assert_eq!(lone.advance(4096, false), Some(PageMode::Pinned(2)));
    }

    #[test]
    fn idle_window_breaks_the_hysteresis_chain() {
        let mut s = PageSharing::new(2);
        s.record_publish(0, 16, true);
        assert_eq!(s.advance(4096, true), None);
        // The idle window voids the pending pin...
        assert_eq!(s.advance(4096, true), None);
        s.record_publish(0, 16, true);
        // ...so the next active window proposes again instead of confirming.
        assert_eq!(s.advance(4096, true), None);
        s.record_publish(0, 16, true);
        assert_eq!(s.advance(4096, true), Some(PageMode::Pinned(0)));
    }
}
