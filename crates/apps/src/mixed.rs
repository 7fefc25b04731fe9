//! A mixed-sharing workload for exercising the adaptive data policy.
//!
//! Unlike the paper's application suite, this program is *synthetic*: three
//! phases, each the textbook case for a different data-movement policy, run
//! back to back over three separate regions so no single static policy can
//! win overall (the situation §5 of the paper leaves open):
//!
//! 1. **False sharing** — every processor writes its own small chunk of every
//!    page of `mx-false` each window, then reads a neighbour's chunk.  Diffs
//!    are tiny and writers race, so homeless diffing wins; a home-based
//!    policy ships whole pages both ways.
//! 2. **Single writer** — each processor repeatedly rewrites its own private
//!    band of `mx-own` pages that nobody else ever touches.  The adaptive
//!    policy pins these pages to their writer, suppressing all twin/diff
//!    work; static policies keep paying for it.
//! 3. **Migratory lock** — all processors take deterministic round-robin
//!    turns (one barrier per turn) under one exclusive lock updating every
//!    word of every `mx-mig` page.  Writers serialize and modifications cover
//!    whole pages, so under diff collection a home at the dominant writer
//!    turns each miss into one whole-page round trip where homeless diffing
//!    ships one page-sized diff per unseen writer.
//!
//! The program is barriers-and-locks only (no EC bindings), so it runs under
//! the LRC family: `LRC-*`, `HLRC-*` and `ALRC-*`.  Every write is a
//! closed-form function of (window, page, writer), so [`expected`] reproduces
//! the exact final contents for verification at any processor count.

use dsm_core::{
    BarrierId, BlockGranularity, Dsm, DsmConfig, ImplKind, LockId, LockMode, Model, RunResult,
};
use dsm_mem::PAGE_SIZE;

/// Words per page (the regions hold `u32`s).
const WPP: usize = PAGE_SIZE / 4;
/// Words each processor writes per falsely-shared page per window.
const CHUNK: usize = 8;
/// Words each processor rewrites per owned page per window.
const OWN_WORDS: usize = 128;

/// Mixed-workload parameters.
#[derive(Debug, Clone)]
pub struct MixedParams {
    /// Pages in the falsely-shared and migratory regions (and pages *per
    /// processor* in the single-writer region).
    pub pages: usize,
    /// Windows (barrier episodes) per phase.
    pub iterations: usize,
}

impl MixedParams {
    /// Full-size instance for the adaptive benchmark.
    pub fn paper() -> Self {
        MixedParams {
            pages: 8,
            iterations: 16,
        }
    }

    /// A reduced instance for quick runs.
    pub fn small() -> Self {
        MixedParams {
            pages: 4,
            iterations: 8,
        }
    }

    /// A very small instance for tests.
    pub fn tiny() -> Self {
        MixedParams {
            pages: 2,
            iterations: 4,
        }
    }
}

/// Value processor `k` writes at word `w` of falsely-shared page `page` in
/// window `t`.  Varies with `t` so every window produces a non-empty diff.
fn aval(t: usize, page: usize, k: usize, w: usize) -> u32 {
    (t as u32).wrapping_mul(0x9e37_79b9)
        ^ (page as u32).wrapping_mul(97)
        ^ (k as u32).wrapping_mul(31)
        ^ (w as u32).wrapping_mul(7)
}

/// Value processor `k` writes at flat word `w` of its own band in window `t`.
fn bval(t: usize, k: usize, w: usize) -> u32 {
    (t as u32).wrapping_mul(0x85eb_ca6b) ^ (k as u32).wrapping_mul(113) ^ (w as u32)
}

/// The exact final contents of the three regions — `(mx-false, mx-own,
/// mx-mig)` — for a run at `nprocs` processors.
pub fn expected(p: &MixedParams, nprocs: usize) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let last = p.iterations - 1;
    let mut fs = vec![0u32; p.pages * WPP];
    for pg in 0..p.pages {
        for k in 0..nprocs {
            for c in 0..CHUNK {
                let w = k * CHUNK + c;
                fs[pg * WPP + w] = aval(last, pg, k, w);
            }
        }
    }
    let mut own = vec![0u32; nprocs * p.pages * WPP];
    for k in 0..nprocs {
        for pg in 0..p.pages {
            for i in 0..OWN_WORDS {
                let flat = (k * p.pages + pg) * WPP + i;
                own[flat] = bval(last, k, pg * WPP + i);
            }
        }
    }
    // Every window, every processor adds its `node + 1` to every word.
    let per_window = (nprocs * (nprocs + 1) / 2) as u32;
    let mig = vec![(p.iterations as u32).wrapping_mul(per_window); p.pages * WPP];
    (fs, own, mig)
}

/// Runs the mixed workload under the given implementation and processor
/// count.  Returns the run result and whether all three regions' final
/// contents match [`expected`] exactly.
///
/// # Panics
///
/// Panics for EC implementations (the program has no lock bindings) and when
/// `nprocs` chunks do not fit in one page.
pub fn run(kind: ImplKind, nprocs: usize, p: &MixedParams) -> (RunResult, bool) {
    assert!(
        kind.model() != Model::Ec,
        "the mixed workload is barriers-and-locks only (LRC family)"
    );
    assert!(
        nprocs * CHUNK <= WPP,
        "processor chunks must fit in one falsely-shared page"
    );
    let p = p.clone();
    let mut dsm = Dsm::new(DsmConfig::with_procs(kind, nprocs)).expect("valid config");
    let fs = dsm.alloc_array::<u32>("mx-false", p.pages * WPP, BlockGranularity::Word);
    let own = dsm.alloc_array::<u32>("mx-own", nprocs * p.pages * WPP, BlockGranularity::Word);
    let mig = dsm.alloc_array::<u32>("mx-mig", p.pages * WPP, BlockGranularity::Word);
    let bar = BarrierId::new(0);
    let lock = LockId::new(0);

    let result = dsm.run(|ctx| {
        let me = ctx.node();
        let n = ctx.nprocs();

        // Phase 1 — false sharing: every processor writes its own chunk of
        // every page, then (one barrier later, so the reads are data-race
        // free) checks the right-hand neighbour's chunk.
        let mut vals = vec![0u32; CHUNK];
        let mut peek = vec![0u32; CHUNK];
        for t in 0..p.iterations {
            for pg in 0..p.pages {
                for (c, v) in vals.iter_mut().enumerate() {
                    *v = aval(t, pg, me, me * CHUNK + c);
                }
                ctx.write_from(fs, pg * WPP + me * CHUNK, &vals);
            }
            ctx.barrier(bar);
            let nb = (me + 1) % n;
            for pg in 0..p.pages {
                ctx.read_into(fs, pg * WPP + nb * CHUNK, &mut peek);
                for (c, v) in peek.iter().enumerate() {
                    assert_eq!(*v, aval(t, pg, nb, nb * CHUNK + c), "stale neighbour chunk");
                }
            }
            ctx.barrier(bar);
        }

        // Phase 2 — single writer: each processor rewrites the head of its
        // own pages every window.  Nobody else ever touches them.
        let mut band = vec![0u32; OWN_WORDS];
        for t in 0..p.iterations {
            for pg in 0..p.pages {
                for (i, v) in band.iter_mut().enumerate() {
                    *v = bval(t, me, pg * WPP + i);
                }
                ctx.write_from(own, (me * p.pages + pg) * WPP, &band);
            }
            ctx.barrier(bar);
        }

        // Phase 3 — migratory data: each window, every processor in a fixed
        // round-robin order (one barrier per turn, so the turn order — and
        // with it every lock transfer and miss — is a function of the
        // program, not of thread timing) takes the exclusive lock, reads
        // every page and adds its increment to every word.
        let mut page = vec![0u32; WPP];
        for _ in 0..p.iterations {
            for turn in 0..n {
                if turn == me {
                    let mut g = ctx.lock(lock, LockMode::Exclusive);
                    for pg in 0..p.pages {
                        g.read_into(mig, pg * WPP, &mut page);
                        for v in page.iter_mut() {
                            *v = v.wrapping_add(me as u32 + 1);
                        }
                        g.write_from(mig, pg * WPP, &page);
                    }
                }
                ctx.barrier(bar);
            }
        }
    });

    let (efs, eown, emig) = expected(&p, nprocs);
    let ok = result.final_array(fs) == efs
        && result.final_array(own) == eown
        && result.final_array(mig) == emig;
    (result, ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_core::PageMode;

    #[test]
    fn every_lrc_policy_matches_the_reference() {
        let p = MixedParams::tiny();
        for kind in [
            ImplKind::lrc_diff(),
            ImplKind::hlrc_diff(),
            ImplKind::adaptive_diff(),
            ImplKind::adaptive_time(),
        ] {
            let (r, ok) = run(kind, 2, &p);
            assert!(ok, "{kind} mixed-workload output mismatch");
            assert!(r.time.as_nanos() > 0);
        }
    }

    #[test]
    fn adaptive_pins_owned_pages_and_homes_migratory_pages() {
        // 4 processors: with fewer, the migratory pages (rightly) stay
        // homeless — two writers never accumulate more than one pending
        // diff, so a home would not pay off.
        let p = MixedParams::tiny();
        let (r, ok) = run(ImplKind::adaptive_diff(), 4, &p);
        assert!(ok);
        assert!(
            r.migrations
                .iter()
                .any(|m| matches!(m.mode, PageMode::Pinned(_))),
            "single-writer pages should pin: {:?}",
            r.migrations
        );
        assert!(
            r.migrations
                .iter()
                .any(|m| matches!(m.mode, PageMode::Home(_))),
            "migratory pages should be homed at the dominant writer: {:?}",
            r.migrations
        );
    }

    #[test]
    fn sharing_rows_cover_all_three_regions() {
        let p = MixedParams::tiny();
        let (r, ok) = run(ImplKind::lrc_diff(), 2, &p);
        assert!(ok);
        let names: Vec<&str> = r.sharing.iter().map(|s| s.region.as_str()).collect();
        assert_eq!(names, ["mx-false", "mx-own", "mx-mig"]);
        assert!(r.sharing.iter().all(|s| s.publishes > 0));
        assert_eq!(r.sharing.iter().map(|s| s.distinct_writers).max(), Some(2));
    }

    #[test]
    #[should_panic(expected = "LRC family")]
    fn ec_is_rejected() {
        run(ImplKind::ec_diff(), 2, &MixedParams::tiny());
    }
}
