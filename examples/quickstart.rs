//! Quickstart: a shared counter and a producer/consumer exchange, run under
//! every implementation of the protocol family — written against the typed
//! API (`SharedArray` handles — the counter is a one-element array —
//! `Binding`s, RAII lock guards).
//!
//! Run with `cargo run -p dsm-examples --bin quickstart`.

use dsm_core::{BarrierId, BlockGranularity, Dsm, DsmConfig, ImplKind, LockId, LockMode};
use dsm_sim::Work;

fn main() -> Result<(), dsm_core::DsmError> {
    for kind in ImplKind::all() {
        let nprocs = 4;
        let mut dsm = Dsm::new(DsmConfig::with_procs(kind, nprocs))?;

        // A counter bound to its lock in one step (under EC every shared
        // object must be associated with a lock; under LRC the binding is a
        // no-op, so the same setup code serves all nine implementations) and
        // a vector filled by processor 0.
        let counter = dsm.alloc_bound::<u32>("counter", 1, BlockGranularity::Word, LockId::new(0));
        let data = dsm.alloc_array::<f64>("data", 1024, BlockGranularity::DoubleWord);
        let barrier = BarrierId::new(0);

        let result = dsm.run(|ctx| {
            // Phase 1: processor 0 produces the data (one span write per
            // batch keeps the write trap page-batched).
            if ctx.node() == 0 {
                let produced: Vec<f64> = (0..data.len()).map(|i| (i as f64).sqrt()).collect();
                ctx.write_from(data, 0, &produced);
            }
            ctx.barrier(barrier);

            // Phase 2: everyone consumes part of it and bumps the counter.
            // Note the programmability difference the paper discusses: under
            // LRC the barrier above makes processor 0's writes visible here,
            // but under EC only data bound to an acquired lock is made
            // consistent — `data` is unbound, so the EC runs read their local
            // (initial) copy and transfer far fewer bytes.  An EC program
            // that needs these values would allocate `data` with
            // `alloc_bound` and take a read-only lock here (see the SOR and
            // Water applications).
            let per = data.len() / ctx.nprocs();
            let lo = ctx.node() * per;
            let mut local_sum = 0.0;
            for i in lo..lo + per {
                local_sum += ctx.get(data, i);
            }
            ctx.compute(Work::flops(per as u64));

            // The guard releases the counter lock when it drops.
            let mut guard = ctx.lock(counter.lock(), LockMode::Exclusive);
            guard.modify(counter, 0, |v: u32| v + 1);
            drop(guard);

            assert!(local_sum >= 0.0);
            ctx.barrier(barrier);
        });

        println!(
            "{:>9}: {} procs joined in {:>8.3} simulated seconds, {:>5} messages, {:>8} bytes",
            kind.name(),
            result.final_at(counter, 0),
            result.seconds(),
            result.traffic.messages,
            result.traffic.bytes
        );
        assert_eq!(result.final_at(counter, 0), nprocs as u32);
    }
    Ok(())
}
