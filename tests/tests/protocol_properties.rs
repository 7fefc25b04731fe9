//! Property-style tests over the DSM protocols and their building blocks.
//!
//! Deterministic xorshift-driven cases replace `proptest` (the build
//! environment is offline); every case is reproducible from its printed seed.

use dsm_core::{BarrierId, BlockGranularity, Dsm, DsmConfig, ImplKind, LockId, LockMode};
use dsm_mem::testutil::TestRng as Rng;
use dsm_mem::VectorClock;
use dsm_sim::NodeId;

/// Vector clocks form a join-semilattice: merge is idempotent, commutative,
/// and dominates both inputs.
#[test]
fn vector_clock_lattice() {
    for seed in 0..64 {
        let mut rng = Rng::new(seed + 200);
        let mut va = VectorClock::new(8);
        let mut vb = VectorClock::new(8);
        for i in 0..8 {
            va.set_entry(NodeId::new(i as u32), rng.below(50) as u32);
            vb.set_entry(NodeId::new(i as u32), rng.below(50) as u32);
        }
        let mut ab = va.clone();
        ab.merge_max(&vb);
        let mut ba = vb.clone();
        ba.merge_max(&va);
        assert_eq!(ab, ba, "seed {seed}");
        assert!(ab.dominates(&va), "seed {seed}");
        assert!(ab.dominates(&vb), "seed {seed}");
        let mut again = ab.clone();
        again.merge_max(&ab);
        assert_eq!(again, ab, "seed {seed}");
    }
}

/// A randomly generated bulk-synchronous program — each processor writes a
/// slice of a shared array each phase, with barriers in between — produces
/// identical final contents under every implementation of the twelve-member
/// matrix (EC, homeless, home-based and adaptive LRC families alike).
#[test]
fn random_bsp_program_is_model_independent() {
    assert_eq!(
        ImplKind::all().len(),
        12,
        "the full twelve-member matrix runs"
    );
    for seed in 0..8 {
        let mut rng = Rng::new(seed + 300);
        let nprocs = 4;
        let elems = 256usize;
        let nwrites = rng.in_range(1, 24);
        let writes: Vec<(usize, usize, usize, u32)> = (0..nwrites)
            .map(|_| {
                (
                    rng.below(4),
                    rng.below(256),
                    rng.in_range(1, 32),
                    rng.next_u64() as u32,
                )
            })
            .collect();

        let mut reference: Option<Vec<u32>> = None;
        for kind in ImplKind::all() {
            let mut dsm = Dsm::new(DsmConfig::with_procs(kind, nprocs)).unwrap();
            let region = dsm.alloc_array::<u32>("bsp", elems, BlockGranularity::Word);
            // Under EC, bind one lock per processor-owned quarter.
            for p in 0..nprocs {
                dsm.bind(
                    LockId::new(p as u32),
                    [region.range(p * elems / nprocs, elems / nprocs)],
                );
            }
            let writes = writes.clone();
            let result = dsm.run(|ctx| {
                let me = ctx.node();
                for phase in writes.chunks(4) {
                    for &(proc, start, len, val) in phase {
                        if proc % ctx.nprocs() != me {
                            continue;
                        }
                        // Each processor only writes inside its own quarter so
                        // the program is race-free for both models.
                        let base = me * elems / ctx.nprocs();
                        let quarter = elems / ctx.nprocs();
                        let mut g = ctx.lock(LockId::new(me as u32), LockMode::Exclusive);
                        for k in 0..len {
                            let idx = base + (start + k) % quarter;
                            g.set(region, idx, val.wrapping_add(k as u32));
                        }
                    }
                    ctx.barrier(BarrierId::new(0));
                }
            });
            let finals = result.final_array(region);
            match &reference {
                None => reference = Some(finals),
                Some(expected) => {
                    assert_eq!(expected, &finals, "seed {seed}, mismatch under {kind}")
                }
            }
        }
    }
}
