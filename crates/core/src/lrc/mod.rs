//! The lazy-release-consistency protocol family (Sections 3.2 / 4 / 5 of the
//! paper, plus home-based and adaptive LRC).
//!
//! One engine, [`ordering::LrcEngine`], serves the whole family.  It owns
//! everything that makes LRC *lazy release consistency* — intervals ended by
//! releases and barrier arrivals, vector clocks, write notices, the
//! invalidate protocol's freshness checks and the generation fast path — and
//! a per-page [`placement::Placement`] table that says where each page's
//! modifications live and what a miss fetches.  The families differ only in
//! the table:
//!
//! * **Homeless** (`LRC-*`): the TreadMarks shape.  Every page stays
//!   homeless: data moves lazily, at the access miss, collected from every
//!   concurrent writer.
//! * **Home-based** (`HLRC-*`): every page has a static round-robin home;
//!   releasers eagerly flush diffs to the home, and a miss is one whole-page
//!   round trip to one node.
//! * **Adaptive** (`ALRC-*`): every page starts homeless, and a barrier-time
//!   controller moves each page, from its observed sharing pattern, between
//!   homeless diffing, a home at the dominant writer, and single-writer
//!   pinning.
//!
//! Choosing a family: homeless LRC sends less data when pages are rarely
//! shared (only the diffs move, only on demand) but a multi-writer page costs
//! a faulting node one round trip *per concurrent writer*.  Home-based LRC
//! pays an eager flush per release and ships whole pages, but caps every miss
//! at a single round trip however many writers raced on the page — the
//! classic trade for write-shared (falsely shared) data.  When a workload
//! mixes those patterns (the common case: the paper's §5 finds no static
//! winner), adaptive LRC migrates each page to whichever mode its own sharing
//! statistics argue for, and additionally pins pages only one node ever
//! touches so they generate no protocol work at all.  Every page mode runs
//! the same ordering core, so memory contents are identical on data-race-free
//! programs; `tests/tests/hlrc_equivalence.rs` pins that (and pins the
//! homeless family byte-for-byte against the pre-refactor monolithic
//! engine), while `tests/tests/adaptive_determinism.rs` pins the adaptive
//! migration traces across repeated runs and processor counts.

mod ordering;
mod placement;
mod state;

pub(crate) use ordering::LrcEngine;
