//! Water: a molecular-dynamics simulation (SPLASH), simplified to the
//! sharing structure the paper analyses.
//!
//! Molecules are distributed evenly over the processors.  Each timestep has a
//! **force computation phase** — every processor computes pairwise
//! interactions between its molecules and the molecules of half of the other
//! processors, accumulating force contributions in private memory and then
//! applying them to the shared per-molecule force records under per-molecule
//! locks (migratory data) — and a **displacement computation phase**, where
//! each processor updates the positions of its own molecules from their
//! forces.  Barriers separate the phases.
//!
//! * LRC version: per-molecule exclusive locks only for the force updates;
//!   barriers provide all other ordering.
//! * EC version: additionally, per-molecule *read-only* locks on the
//!   displacements read during the force phase and on the forces read during
//!   the displacement phase (Section 3.3).
//! * Restructured version (Section 7.2): displacements and forces live in two
//!   separate arrays and a *per-processor* lock is bound to the contiguous
//!   block of displacements owned by each processor, giving EC a prefetch
//!   effect comparable to LRC's.

use dsm_core::{
    BarrierId, BlockGranularity, Dsm, ImplKind, LockId, LockMode, Model, ProcessContext, RunResult,
    SharedArray,
};
use dsm_sim::Work;

/// Number of `f64` slots in a molecule's displacement (position) record:
/// three atoms with three coordinates each.
pub const POS_SLOTS: usize = 9;
/// Number of `f64` slots in a molecule's force record.
pub const FORCE_SLOTS: usize = 9;
/// Number of `f64` slots per molecule record (positions, forces, velocities).
pub const MOL_SLOTS: usize = POS_SLOTS + FORCE_SLOTS + 9;

/// Water problem parameters.
#[derive(Debug, Clone)]
pub struct WaterParams {
    /// Number of molecules (the paper uses 343).
    pub molecules: usize,
    /// Timesteps (the paper uses 5).
    pub steps: usize,
    /// Work units charged per pairwise interaction.
    pub work_per_pair: u64,
    /// Interaction cutoff: molecule `i` interacts with the next
    /// `molecules / 2` molecules in a circular order, as in SPLASH Water.
    pub half_range: bool,
    /// Use the restructured layout of Section 7.2 (separate displacement and
    /// force arrays with per-processor displacement locks).
    pub restructured: bool,
}

impl WaterParams {
    /// Table 2 parameters: 343 molecules, 5 timesteps.
    pub fn paper() -> Self {
        WaterParams {
            molecules: 343,
            steps: 5,
            work_per_pair: 1000,
            half_range: true,
            restructured: false,
        }
    }

    /// A reduced instance.
    pub fn small() -> Self {
        WaterParams {
            molecules: 125,
            steps: 3,
            work_per_pair: 1000,
            half_range: true,
            restructured: false,
        }
    }

    /// A very small instance for tests.
    pub fn tiny() -> Self {
        WaterParams {
            molecules: 27,
            steps: 2,
            work_per_pair: 1000,
            half_range: true,
            restructured: false,
        }
    }

    /// The same parameters with the restructured data layout.
    pub fn restructured(mut self) -> Self {
        self.restructured = true;
        self
    }

    fn partners(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let n = self.molecules;
        let count = if self.half_range { n / 2 } else { n - 1 };
        (1..=count).map(move |d| (i + d) % n)
    }

    fn initial_pos(&self, m: usize, slot: usize) -> f64 {
        // Deterministic pseudo-random positions in a cube.
        let x = (m as u64 * 9 + slot as u64)
            .wrapping_mul(0xA24B_AED4_963E_E407)
            .rotate_left(23);
        (x % 1000) as f64 / 100.0
    }
}

/// Plain-Rust model of the computation, shared by the sequential version and
/// by the verification step.
#[derive(Debug, Clone)]
pub struct WaterState {
    /// Per-molecule positions (9 slots each).
    pub pos: Vec<f64>,
    /// Per-molecule forces (9 slots each).
    pub force: Vec<f64>,
}

/// Runs the sequential version and returns the final state plus the work.
pub fn sequential(p: &WaterParams) -> (WaterState, Work) {
    let n = p.molecules;
    let mut st = WaterState {
        pos: (0..n * POS_SLOTS)
            .map(|k| p.initial_pos(k / POS_SLOTS, k % POS_SLOTS))
            .collect(),
        force: vec![0.0; n * FORCE_SLOTS],
    };
    let mut work = Work::ZERO;
    for _ in 0..p.steps {
        // Force phase.
        st.force.iter_mut().for_each(|f| *f = 0.0);
        for i in 0..n {
            for j in p.partners(i) {
                for s in 0..3 {
                    let a = st.pos[i * POS_SLOTS + s];
                    let b = st.pos[j * POS_SLOTS + s];
                    let d = a - b;
                    let f = d / (1.0 + d * d);
                    st.force[i * FORCE_SLOTS + s] += f;
                    st.force[j * FORCE_SLOTS + s] -= f;
                }
                work += Work::flops(p.work_per_pair);
            }
        }
        // Displacement phase.
        for i in 0..n {
            for s in 0..3 {
                st.pos[i * POS_SLOTS + s] += 0.01 * st.force[i * FORCE_SLOTS + s];
            }
            work += Work::flops(50);
        }
    }
    (st, work)
}

fn owner(n: usize, nprocs: usize, molecule: usize) -> usize {
    (molecule * nprocs) / n
}

fn my_molecules(n: usize, nprocs: usize, me: usize) -> std::ops::Range<usize> {
    let lo = (0..n).find(|&m| owner(n, nprocs, m) == me).unwrap_or(n);
    let hi = (lo..n).find(|&m| owner(n, nprocs, m) != me).unwrap_or(n);
    lo..hi
}

/// Lock id of molecule `m`'s displacement record.
fn pos_lock(m: usize) -> LockId {
    LockId::new((2 * m) as u32)
}

/// Lock id of molecule `m`'s force record.
fn force_lock(m: usize) -> LockId {
    LockId::new((2 * m + 1) as u32)
}

/// Lock id of processor `p`'s displacement block (restructured layout).
fn proc_pos_lock(n_molecules: usize, p: usize) -> LockId {
    LockId::new((2 * n_molecules + p) as u32)
}

struct Layout {
    mol: SharedArray<f64>,
    pos_region: SharedArray<f64>,
    force_region: SharedArray<f64>,
    restructured: bool,
}

impl Layout {
    fn pos_index(&self, m: usize, s: usize) -> (SharedArray<f64>, usize) {
        if self.restructured {
            (self.pos_region, m * POS_SLOTS + s)
        } else {
            (self.mol, m * MOL_SLOTS + s)
        }
    }

    fn force_index(&self, m: usize, s: usize) -> (SharedArray<f64>, usize) {
        if self.restructured {
            (self.force_region, m * FORCE_SLOTS + s)
        } else {
            (self.mol, m * MOL_SLOTS + POS_SLOTS + s)
        }
    }

    fn read_pos(&self, ctx: &mut ProcessContext<'_>, m: usize, s: usize) -> f64 {
        let (r, i) = self.pos_index(m, s);
        ctx.get(r, i)
    }

    fn write_pos(&self, ctx: &mut ProcessContext<'_>, m: usize, s: usize, v: f64) {
        let (r, i) = self.pos_index(m, s);
        ctx.set(r, i, v);
    }

    fn read_force(&self, ctx: &mut ProcessContext<'_>, m: usize, s: usize) -> f64 {
        let (r, i) = self.force_index(m, s);
        ctx.get(r, i)
    }

    fn write_force(&self, ctx: &mut ProcessContext<'_>, m: usize, s: usize, v: f64) {
        let (r, i) = self.force_index(m, s);
        ctx.set(r, i, v);
    }
}

/// Runs Water under the given implementation.  Returns the run result and
/// whether the final positions match the sequential version within a small
/// relative tolerance (force contributions are summed in a different order in
/// parallel).
pub fn run(kind: ImplKind, nprocs: usize, p: &WaterParams) -> (RunResult, bool) {
    run_opts(kind, nprocs, p, crate::runner::RunOpts::default())
}

/// Like [`run`], but with the full option set, including a fault plan
/// for crash-injection/recovery runs.
pub fn run_opts(
    kind: ImplKind,
    nprocs: usize,
    p: &WaterParams,
    opts: crate::runner::RunOpts,
) -> (RunResult, bool) {
    let p = p.clone();
    let n = p.molecules;
    let mut dsm = Dsm::new(opts.config(kind, nprocs)).expect("valid config");

    let (mol, pos_region, force_region) = if p.restructured {
        let pos = dsm.alloc_array::<f64>("water-pos", n * POS_SLOTS, BlockGranularity::DoubleWord);
        let force =
            dsm.alloc_array::<f64>("water-force", n * FORCE_SLOTS, BlockGranularity::DoubleWord);
        let mol = dsm.alloc_array::<f64>("water-unused", 1, BlockGranularity::DoubleWord);
        (mol, pos, force)
    } else {
        let mol = dsm.alloc_array::<f64>("water-mol", n * MOL_SLOTS, BlockGranularity::DoubleWord);
        let pos = dsm.alloc_array::<f64>("water-unused-a", 1, BlockGranularity::DoubleWord);
        let force = dsm.alloc_array::<f64>("water-unused-b", 1, BlockGranularity::DoubleWord);
        (mol, pos, force)
    };
    let layout = Layout {
        mol,
        pos_region,
        force_region,
        restructured: p.restructured,
    };

    // Initial positions.
    if p.restructured {
        dsm.init_array(pos_region, |k| p.initial_pos(k / POS_SLOTS, k % POS_SLOTS));
    } else {
        dsm.init_array(mol, |k| {
            let (m, s) = (k / MOL_SLOTS, k % MOL_SLOTS);
            if s < POS_SLOTS {
                p.initial_pos(m, s)
            } else {
                0.0
            }
        });
    }

    // EC bindings.
    if kind.model() == Model::Ec {
        for m in 0..n {
            let (pr, pi) = layout.pos_index(m, 0);
            let (fr, fi) = layout.force_index(m, 0);
            dsm.bind(pos_lock(m), [pr.range(pi, POS_SLOTS)]);
            dsm.bind(force_lock(m), [fr.range(fi, FORCE_SLOTS)]);
        }
        if p.restructured {
            for proc in 0..nprocs {
                let mine = my_molecules(n, nprocs, proc);
                if mine.is_empty() {
                    continue;
                }
                let (pr, pi) = layout.pos_index(mine.start, 0);
                dsm.bind(
                    proc_pos_lock(n, proc),
                    [pr.range(pi, mine.len() * POS_SLOTS)],
                );
            }
        }
    }

    let ec = kind.model() == Model::Ec;
    let barrier = BarrierId::new(0);

    let result = dsm.run(|ctx| {
        let me = ctx.node();
        let nproc = ctx.nprocs();
        let mine = my_molecules(n, nproc, me);

        for _step in 0..p.steps {
            // Zero the forces of our own molecules (they were consumed in the
            // previous displacement phase).  EC annotates the writes with the
            // molecule's force lock; under LRC the guard holds nothing.
            for m in mine.clone() {
                let mut g = ctx.lock_if(ec, force_lock(m), LockMode::Exclusive);
                for s in 0..FORCE_SLOTS {
                    layout.write_force(&mut g, m, s, 0.0);
                }
            }
            ctx.barrier(barrier);

            // Force phase: accumulate contributions privately.
            let mut acc: Vec<f64> = vec![0.0; n * 3];
            let mut pos_cache: Vec<Option<[f64; 3]>> = vec![None; n];
            let mut fetched_proc = vec![false; nproc];
            for i in mine.clone() {
                for j in p.partners(i) {
                    // Read the displacements of both molecules, caching them
                    // for the rest of the phase.
                    for &m in &[i, j] {
                        if pos_cache[m].is_none() {
                            let foreign = !mine.contains(&m);
                            if ec && foreign && p.restructured {
                                let own = owner(n, nproc, m);
                                if !fetched_proc[own] {
                                    // One per-processor read-lock pulse
                                    // fetches every displacement that
                                    // processor produced (the prefetch
                                    // effect).
                                    ctx.lock(proc_pos_lock(n, own), LockMode::ReadOnly).unlock();
                                    fetched_proc[own] = true;
                                }
                            }
                            let mut g = ctx.lock_if(
                                ec && foreign && !p.restructured,
                                pos_lock(m),
                                LockMode::ReadOnly,
                            );
                            let v = [
                                layout.read_pos(&mut g, m, 0),
                                layout.read_pos(&mut g, m, 1),
                                layout.read_pos(&mut g, m, 2),
                            ];
                            drop(g);
                            pos_cache[m] = Some(v);
                        }
                    }
                    let pi = pos_cache[i].expect("cached");
                    let pj = pos_cache[j].expect("cached");
                    for s in 0..3 {
                        let d = pi[s] - pj[s];
                        let f = d / (1.0 + d * d);
                        acc[i * 3 + s] += f;
                        acc[j * 3 + s] -= f;
                    }
                    ctx.compute(Work::flops(p.work_per_pair));
                }
            }
            // Apply the accumulated updates under per-molecule locks
            // (migratory force records).
            for m in 0..n {
                let touched = (0..3).any(|s| acc[m * 3 + s] != 0.0);
                if !touched {
                    continue;
                }
                let mut g = ctx.lock(force_lock(m), LockMode::Exclusive);
                for s in 0..3 {
                    let cur = layout.read_force(&mut g, m, s);
                    layout.write_force(&mut g, m, s, cur + acc[m * 3 + s]);
                }
            }
            ctx.barrier(barrier);

            // Displacement phase: each processor updates its own molecules.
            // The restructured layout holds one per-processor displacement
            // lock across the loop; per-molecule guards nest inside it and
            // the borrow checker enforces the LIFO release order.
            let mut gproc = ctx.lock_if(
                ec && p.restructured,
                proc_pos_lock(n, me),
                LockMode::Exclusive,
            );
            for m in mine.clone() {
                let mut gforce = gproc.lock_if(ec, force_lock(m), LockMode::ReadOnly);
                let mut gpos =
                    gforce.lock_if(ec && !p.restructured, pos_lock(m), LockMode::Exclusive);
                for s in 0..3 {
                    let f = layout.read_force(&mut gpos, m, s);
                    let cur = layout.read_pos(&mut gpos, m, s);
                    layout.write_pos(&mut gpos, m, s, cur + 0.01 * f);
                }
                gpos.compute(Work::flops(50));
            }
            drop(gproc);
            ctx.barrier(barrier);
        }
    });

    // Verify against the sequential version.
    let (expected, _) = sequential(&p);
    let ok = (0..n).all(|m| {
        (0..3).all(|s| {
            let (r, i) = layout.pos_index(m, s);
            let got = result.final_at(r, i);
            let want = expected.pos[m * POS_SLOTS + s];
            (got - want).abs() <= 1e-6 * want.abs().max(1.0)
        })
    });
    (result, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership_partitions_molecules() {
        let n = 343;
        let mut count = 0;
        for me in 0..8 {
            let r = my_molecules(n, 8, me);
            count += r.len();
            for m in r {
                assert_eq!(owner(n, 8, m), me);
            }
        }
        assert_eq!(count, n);
    }

    #[test]
    fn sequential_moves_molecules() {
        let p = WaterParams::tiny();
        let (st, work) = sequential(&p);
        assert!(work.units() > 0);
        let moved = (0..p.molecules)
            .filter(|&m| (st.pos[m * POS_SLOTS] - p.initial_pos(m, 0)).abs() > 1e-12)
            .count();
        assert!(moved > p.molecules / 2);
    }

    #[test]
    fn parallel_matches_sequential() {
        let p = WaterParams::tiny();
        for kind in [ImplKind::lrc_diff(), ImplKind::ec_ci(), ImplKind::ec_time()] {
            let (result, ok) = run(kind, 3, &p);
            assert!(ok, "{kind} water positions mismatch");
            assert!(result.traffic.lock_acquires > 0);
        }
    }

    #[test]
    fn restructured_layout_matches_sequential_too() {
        let p = WaterParams::tiny().restructured();
        let (_, ok) = run(ImplKind::ec_ci(), 3, &p);
        assert!(ok, "restructured EC water mismatch");
        let (_, ok) = run(ImplKind::lrc_diff(), 3, &p);
        assert!(ok, "restructured LRC water mismatch");
    }
}
