//! Barnes-Hut: hierarchical N-body simulation (SPLASH).
//!
//! Space is represented by an oct-tree whose internal nodes (cells) carry
//! centre-of-mass summaries and whose leaves are bodies.  Each timestep the
//! tree is rebuilt, every processor selects the bodies it will own this step
//! (the load-balancing phase), computes forces on them by traversing the tree
//! with the theta opening criterion (the force-computation phase), and
//! advances their positions (the position-computation phase).  Barriers
//! separate the phases; within a phase at most one processor updates any data
//! item, so the LRC program needs no locks at all.
//!
//! * LRC version: barriers only; traversal reads fault page by page and pick
//!   up every cell/body on the page (the prefetch effect) but also drag in
//!   data the processor never reads (false sharing).
//! * EC version: the whole cell structure is bound to one tree lock (rebuilt
//!   by processor 0, pulled with a read-only acquire by everyone else), each
//!   body's position fields and state fields are bound to two separate
//!   per-body locks (the split that avoids nested-lock deadlock, Section
//!   3.3), and foreign body positions are fetched with read-only locks during
//!   the traversal phases.

use dsm_core::{
    BarrierId, BlockGranularity, Dsm, ImplKind, LockId, LockMode, Model, ProcessContext, RunResult,
    SharedArray,
};
use dsm_sim::Work;

/// `f64` slots per body: position (3), mass, velocity (3), force (3), padding.
pub const BODY_SLOTS: usize = 12;
/// `f64` slots per cell: centre of mass (3), mass, size, padding.
pub const CELL_F_SLOTS: usize = 6;
/// Child slots per cell.
pub const CELL_CHILDREN: usize = 8;

/// Barnes-Hut problem parameters.
#[derive(Debug, Clone)]
pub struct BarnesParams {
    /// Number of bodies (the paper uses 8,192).
    pub bodies: usize,
    /// Timesteps (the paper uses 5).
    pub steps: usize,
    /// Opening criterion theta.
    pub theta: f64,
    /// Integration timestep.
    pub dt: f64,
    /// Work units charged per body-cell interaction during force computation.
    pub work_per_interaction: u64,
}

impl BarnesParams {
    /// Table 2 parameters: 8,192 bodies, 5 timesteps.
    pub fn paper() -> Self {
        BarnesParams {
            bodies: 8192,
            steps: 5,
            theta: 0.6,
            dt: 0.025,
            work_per_interaction: 60,
        }
    }

    /// A reduced instance.
    pub fn small() -> Self {
        BarnesParams {
            bodies: 1024,
            steps: 3,
            theta: 0.6,
            dt: 0.025,
            work_per_interaction: 60,
        }
    }

    /// A very small instance for tests.
    pub fn tiny() -> Self {
        BarnesParams {
            bodies: 96,
            steps: 2,
            theta: 0.6,
            dt: 0.025,
            work_per_interaction: 60,
        }
    }

    /// Deterministic pseudo-random initial coordinate `axis` of body `b`.
    fn initial_pos(&self, b: usize, axis: usize) -> f64 {
        let x = (b as u64 * 3 + axis as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(31);
        (x % 100_000) as f64 / 100_000.0
    }

    fn initial_mass(&self, b: usize) -> f64 {
        1.0 + (b % 7) as f64 * 0.1
    }

    fn max_cells(&self) -> usize {
        self.bodies * 2 + 64
    }
}

/// A plain-Rust oct-tree used by the sequential version and by processor 0 to
/// build the shared tree.
#[derive(Debug, Clone, Default)]
struct Cell {
    com: [f64; 3],
    mass: f64,
    size: f64,
    centre: [f64; 3],
    children: [i64; CELL_CHILDREN], // 0 = empty, >0 = cell idx + 1, <0 = -(body+1)
}

#[derive(Debug, Default)]
struct Tree {
    cells: Vec<Cell>,
}

impl Tree {
    fn build(pos: &[[f64; 3]], mass: &[f64]) -> (Tree, Work) {
        let n = pos.len();
        let mut lo = [f64::MAX; 3];
        let mut hi = [f64::MIN; 3];
        for p in pos {
            for a in 0..3 {
                lo[a] = lo[a].min(p[a]);
                hi[a] = hi[a].max(p[a]);
            }
        }
        let size = (0..3).map(|a| hi[a] - lo[a]).fold(1e-9_f64, f64::max) * 1.001;
        let centre = [
            (lo[0] + hi[0]) / 2.0,
            (lo[1] + hi[1]) / 2.0,
            (lo[2] + hi[2]) / 2.0,
        ];
        let mut t = Tree {
            cells: vec![Cell {
                size,
                centre,
                ..Cell::default()
            }],
        };
        let mut work = 0u64;
        for b in 0..n {
            work += t.insert(0, b, pos, 20);
        }
        t.summarise(0, pos, mass);
        (t, Work::ops(work))
    }

    fn octant(cell: &Cell, p: &[f64; 3]) -> usize {
        (0..3).fold(0, |acc, a| acc | (usize::from(p[a] > cell.centre[a]) << a))
    }

    fn child_centre(cell: &Cell, oct: usize) -> ([f64; 3], f64) {
        let q = cell.size / 4.0;
        let mut c = cell.centre;
        for (a, v) in c.iter_mut().enumerate() {
            *v += if oct & (1 << a) != 0 { q } else { -q };
        }
        (c, cell.size / 2.0)
    }

    fn insert(&mut self, cell: usize, body: usize, pos: &[[f64; 3]], work_per_level: u64) -> u64 {
        let oct = Self::octant(&self.cells[cell], &pos[body]);
        match self.cells[cell].children[oct] {
            0 => {
                self.cells[cell].children[oct] = -(body as i64 + 1);
                work_per_level
            }
            c if c > 0 => work_per_level + self.insert(c as usize - 1, body, pos, work_per_level),
            other => {
                // Split: replace the body leaf with a new cell holding both.
                let existing = (-other - 1) as usize;
                let (centre, size) = Self::child_centre(&self.cells[cell], oct);
                let new_idx = self.cells.len();
                self.cells.push(Cell {
                    centre,
                    size,
                    ..Cell::default()
                });
                self.cells[cell].children[oct] = new_idx as i64 + 1;
                let mut w = work_per_level;
                w += self.insert(new_idx, existing, pos, work_per_level);
                w += self.insert(new_idx, body, pos, work_per_level);
                w
            }
        }
    }

    fn summarise(&mut self, cell: usize, pos: &[[f64; 3]], mass: &[f64]) -> (f64, [f64; 3]) {
        let children = self.cells[cell].children;
        let mut m = 0.0;
        let mut com = [0.0; 3];
        for c in children {
            let (cm, ccom) = match c {
                0 => continue,
                c if c > 0 => self.summarise(c as usize - 1, pos, mass),
                other => {
                    let b = (-other - 1) as usize;
                    (mass[b], pos[b])
                }
            };
            m += cm;
            for a in 0..3 {
                com[a] += cm * ccom[a];
            }
        }
        if m > 0.0 {
            for v in &mut com {
                *v /= m;
            }
        }
        self.cells[cell].mass = m;
        self.cells[cell].com = com;
        (m, com)
    }
}

/// Force on body `b` from the tree, counting interactions.
fn force_on(
    tree: &Tree,
    cell: usize,
    b: usize,
    pos: &[[f64; 3]],
    mass: &[f64],
    theta: f64,
    interactions: &mut u64,
) -> [f64; 3] {
    let mut f = [0.0; 3];
    let c = &tree.cells[cell];
    for child in c.children {
        match child {
            0 => {}
            ch if ch > 0 => {
                let ci = ch as usize - 1;
                let cc = &tree.cells[ci];
                let d = dist(&pos[b], &cc.com);
                if cc.size / d < theta {
                    *interactions += 1;
                    add_grav(&mut f, &pos[b], &cc.com, cc.mass, d);
                } else {
                    let sub = force_on(tree, ci, b, pos, mass, theta, interactions);
                    for a in 0..3 {
                        f[a] += sub[a];
                    }
                }
            }
            other => {
                let ob = (-other - 1) as usize;
                if ob != b {
                    *interactions += 1;
                    let d = dist(&pos[b], &pos[ob]);
                    add_grav(&mut f, &pos[b], &pos[ob], mass[ob], d);
                }
            }
        }
    }
    f
}

fn dist(a: &[f64; 3], b: &[f64; 3]) -> f64 {
    ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt() + 1e-9
}

fn add_grav(f: &mut [f64; 3], p: &[f64; 3], q: &[f64; 3], m: f64, d: f64) {
    let inv = m / (d * d * d + 1e-9);
    for a in 0..3 {
        f[a] += (q[a] - p[a]) * inv;
    }
}

/// Sequential simulation: returns final positions and total work.
pub fn sequential(p: &BarnesParams) -> (Vec<[f64; 3]>, Work) {
    let n = p.bodies;
    let mut pos: Vec<[f64; 3]> = (0..n)
        .map(|b| {
            [
                p.initial_pos(b, 0),
                p.initial_pos(b, 1),
                p.initial_pos(b, 2),
            ]
        })
        .collect();
    let mass: Vec<f64> = (0..n).map(|b| p.initial_mass(b)).collect();
    let mut vel = vec![[0.0f64; 3]; n];
    let mut work = Work::ZERO;
    for _ in 0..p.steps {
        let (tree, w) = Tree::build(&pos, &mass);
        work += w;
        let mut forces = vec![[0.0f64; 3]; n];
        for (b, fb) in forces.iter_mut().enumerate() {
            let mut inter = 0u64;
            *fb = force_on(&tree, 0, b, &pos, &mass, p.theta, &mut inter);
            work += Work::flops(inter * p.work_per_interaction);
        }
        for b in 0..n {
            for a in 0..3 {
                vel[b][a] += forces[b][a] * p.dt / mass[b];
                pos[b][a] += vel[b][a] * p.dt;
            }
            work += Work::flops(20);
        }
    }
    (pos, work)
}

const TREE_LOCK: LockId = LockId(0);

fn body_pos_lock(b: usize) -> LockId {
    LockId::new((1 + 2 * b) as u32)
}

fn body_state_lock(b: usize) -> LockId {
    LockId::new((2 + 2 * b) as u32)
}

/// Slot index of body `b`'s field `s` in the bodies region.
fn body_slot(b: usize, s: usize) -> usize {
    b * BODY_SLOTS + s
}

struct SharedTree {
    cells_f: SharedArray<f64>,
    cells_c: SharedArray<i32>,
    meta: SharedArray<u32>,
}

impl SharedTree {
    /// Writes the locally built tree into the shared regions.
    fn store(&self, ctx: &mut ProcessContext<'_>, tree: &Tree) {
        ctx.set(self.meta, 0, tree.cells.len() as u32);
        for (i, c) in tree.cells.iter().enumerate() {
            ctx.set(self.cells_f, i * CELL_F_SLOTS, c.com[0]);
            ctx.set(self.cells_f, i * CELL_F_SLOTS + 1, c.com[1]);
            ctx.set(self.cells_f, i * CELL_F_SLOTS + 2, c.com[2]);
            ctx.set(self.cells_f, i * CELL_F_SLOTS + 3, c.mass);
            ctx.set(self.cells_f, i * CELL_F_SLOTS + 4, c.size);
            for (k, ch) in c.children.iter().enumerate() {
                ctx.set(self.cells_c, i * CELL_CHILDREN + k, *ch as i32);
            }
        }
    }

    /// Reads the shared tree back into a private structure (used by the
    /// traversal phases; every read goes through the DSM).
    fn load(&self, ctx: &mut ProcessContext<'_>) -> Tree {
        let ncells = ctx.get(self.meta, 0) as usize;
        let mut cells = Vec::with_capacity(ncells);
        for i in 0..ncells {
            let mut c = Cell {
                com: [
                    ctx.get(self.cells_f, i * CELL_F_SLOTS),
                    ctx.get(self.cells_f, i * CELL_F_SLOTS + 1),
                    ctx.get(self.cells_f, i * CELL_F_SLOTS + 2),
                ],
                mass: ctx.get(self.cells_f, i * CELL_F_SLOTS + 3),
                size: ctx.get(self.cells_f, i * CELL_F_SLOTS + 4),
                ..Cell::default()
            };
            for k in 0..CELL_CHILDREN {
                c.children[k] = ctx.get(self.cells_c, i * CELL_CHILDREN + k) as i64;
            }
            cells.push(c);
        }
        Tree { cells }
    }
}

/// Runs Barnes-Hut under the given implementation.  Returns the run result
/// and whether the final positions match the sequential version.
pub fn run(kind: ImplKind, nprocs: usize, p: &BarnesParams) -> (RunResult, bool) {
    run_opts(kind, nprocs, p, crate::runner::RunOpts::default())
}

/// Like [`run`], but with the full option set, including a fault plan
/// for crash-injection/recovery runs.
pub fn run_opts(
    kind: ImplKind,
    nprocs: usize,
    p: &BarnesParams,
    opts: crate::runner::RunOpts,
) -> (RunResult, bool) {
    let p = p.clone();
    let n = p.bodies;
    let mut dsm = Dsm::new(opts.config(kind, nprocs)).expect("valid config");

    let bodies = dsm.alloc_array::<f64>("bh-bodies", n * BODY_SLOTS, BlockGranularity::DoubleWord);
    let cells_f = dsm.alloc_array::<f64>(
        "bh-cells",
        p.max_cells() * CELL_F_SLOTS,
        BlockGranularity::DoubleWord,
    );
    let cells_c = dsm.alloc_array::<i32>(
        "bh-children",
        p.max_cells() * CELL_CHILDREN,
        BlockGranularity::Word,
    );
    let meta = dsm.alloc_array::<u32>("bh-meta", 4, BlockGranularity::Word);
    dsm.init_array(bodies, |slot| {
        let (b, s) = (slot / BODY_SLOTS, slot % BODY_SLOTS);
        match s {
            0..=2 => p.initial_pos(b, s),
            3 => p.initial_mass(b),
            _ => 0.0,
        }
    });

    let ec = kind.model() == Model::Ec;
    if ec {
        dsm.bind(TREE_LOCK, [cells_f.whole(), cells_c.whole(), meta.whole()]);
        for b in 0..n {
            // Position + mass fields under one lock, velocity + force fields
            // under another (the two-set split of Section 3.3).
            dsm.bind(body_pos_lock(b), [bodies.range(body_slot(b, 0), 4)]);
            dsm.bind(body_state_lock(b), [bodies.range(body_slot(b, 4), 8)]);
        }
    }
    let shared_tree = SharedTree {
        cells_f,
        cells_c,
        meta,
    };
    let barrier = BarrierId::new(0);

    let result = dsm.run(|ctx| {
        let me = ctx.node();
        let nproc = ctx.nprocs();
        let per = n.div_ceil(nproc);
        let lo = (me * per).min(n);
        let hi = ((me + 1) * per).min(n);
        let mass: Vec<f64> = (0..n).map(|b| p.initial_mass(b)).collect();
        let mut vel = vec![[0.0f64; 3]; hi - lo];

        for _step in 0..p.steps {
            // --- Tree-build (processor 0 rebuilds the shared oct-tree). ---
            if me == 0 {
                // Read every body's position; foreign positions need
                // read-only locks under EC.
                let mut pos = vec![[0.0f64; 3]; n];
                for (b, pb) in pos.iter_mut().enumerate() {
                    let foreign = !(lo..hi).contains(&b);
                    let mut g = ctx.lock_if(ec && foreign, body_pos_lock(b), LockMode::ReadOnly);
                    for (a, pv) in pb.iter_mut().enumerate() {
                        *pv = g.get(bodies, body_slot(b, a));
                    }
                }
                let (tree, w) = Tree::build(&pos, &mass);
                ctx.compute(w);
                let mut g = ctx.lock_if(ec, TREE_LOCK, LockMode::Exclusive);
                shared_tree.store(&mut g, &tree);
            }
            ctx.barrier(barrier);

            // --- Load-balancing phase: every processor walks the tree once
            // to decide which bodies it owns this step (we keep the static
            // contiguous assignment, but the traversal reads are real). ---
            let tree = {
                let mut g = ctx.lock_if(ec, TREE_LOCK, LockMode::ReadOnly);
                let tree = shared_tree.load(&mut g);
                g.compute(Work::ops(tree.cells.len() as u64 * 5));
                tree
            };
            ctx.barrier(barrier);

            // --- Force-computation phase.  EC holds the tree's read lock
            // across the whole phase; per-body locks nest inside it through
            // the guard. ---
            let mut gtree = ctx.lock_if(ec, TREE_LOCK, LockMode::ReadOnly);
            // Body positions are read lazily, with per-body read locks under
            // EC, and cached for the rest of the phase.
            let mut pos_cache: Vec<Option<[f64; 3]>> = vec![None; n];
            let mut forces = vec![[0.0f64; 3]; hi - lo];
            for b in lo..hi {
                let mut stack = vec![0usize];
                let mut f = [0.0f64; 3];
                let mut interactions = 0u64;
                let my_pos = read_body_pos(&mut gtree, bodies, b, lo..hi, ec, &mut pos_cache);
                while let Some(ci) = stack.pop() {
                    for child in tree.cells[ci].children {
                        match child {
                            0 => {}
                            ch if ch > 0 => {
                                let cc = &tree.cells[ch as usize - 1];
                                let d = dist(&my_pos, &cc.com);
                                if cc.size / d < p.theta {
                                    interactions += 1;
                                    add_grav(&mut f, &my_pos, &cc.com, cc.mass, d);
                                } else {
                                    stack.push(ch as usize - 1);
                                }
                            }
                            other => {
                                let ob = (-other - 1) as usize;
                                if ob != b {
                                    interactions += 1;
                                    let op = read_body_pos(
                                        &mut gtree,
                                        bodies,
                                        ob,
                                        lo..hi,
                                        ec,
                                        &mut pos_cache,
                                    );
                                    let d = dist(&my_pos, &op);
                                    add_grav(&mut f, &my_pos, &op, mass[ob], d);
                                }
                            }
                        }
                    }
                }
                gtree.compute(Work::flops(interactions * p.work_per_interaction));
                forces[b - lo] = f;
            }
            // Write the forces of our own bodies (one writer per body).
            for b in lo..hi {
                let mut g = gtree.lock_if(ec, body_state_lock(b), LockMode::Exclusive);
                for (a, &f) in forces[b - lo].iter().enumerate() {
                    g.set(bodies, body_slot(b, 7 + a), f);
                }
            }
            drop(gtree);
            ctx.barrier(barrier);

            // --- Position-computation phase. ---
            for b in lo..hi {
                let mut gstate = ctx.lock_if(ec, body_state_lock(b), LockMode::Exclusive);
                let mut gpos = gstate.lock_if(ec, body_pos_lock(b), LockMode::Exclusive);
                for (a, v) in vel[b - lo].iter_mut().enumerate() {
                    let f = gpos.get(bodies, body_slot(b, 7 + a));
                    *v += f * p.dt / mass[b];
                    let cur = gpos.get(bodies, body_slot(b, a));
                    gpos.set(bodies, body_slot(b, a), cur + *v * p.dt);
                    gpos.set(bodies, body_slot(b, 4 + a), *v);
                }
                gpos.compute(Work::flops(20));
            }
            ctx.barrier(barrier);
        }
    });

    let (expected, _) = sequential(&p);
    let ok = (0..n).all(|b| {
        (0..3).all(|a| {
            let got = result.final_at(bodies, body_slot(b, a));
            (got - expected[b][a]).abs() <= 1e-6 * expected[b][a].abs().max(1.0)
        })
    });
    (result, ok)
}

/// Reads a body's position through the DSM, taking a read-only lock for
/// foreign bodies under EC, and caching the value for the rest of the phase.
fn read_body_pos(
    ctx: &mut ProcessContext<'_>,
    bodies: SharedArray<f64>,
    b: usize,
    mine: std::ops::Range<usize>,
    ec: bool,
    cache: &mut [Option<[f64; 3]>],
) -> [f64; 3] {
    if let Some(v) = cache[b] {
        return v;
    }
    let foreign = !mine.contains(&b);
    let mut g = ctx.lock_if(ec && foreign, body_pos_lock(b), LockMode::ReadOnly);
    let v = [
        g.get(bodies, body_slot(b, 0)),
        g.get(bodies, body_slot(b, 1)),
        g.get(bodies, body_slot(b, 2)),
    ];
    drop(g);
    cache[b] = Some(v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_build_covers_all_bodies() {
        let p = BarnesParams::tiny();
        let pos: Vec<[f64; 3]> = (0..p.bodies)
            .map(|b| {
                [
                    p.initial_pos(b, 0),
                    p.initial_pos(b, 1),
                    p.initial_pos(b, 2),
                ]
            })
            .collect();
        let mass: Vec<f64> = (0..p.bodies).map(|b| p.initial_mass(b)).collect();
        let (tree, work) = Tree::build(&pos, &mass);
        assert!(work.units() > 0);
        let total_mass: f64 = mass.iter().sum();
        assert!((tree.cells[0].mass - total_mass).abs() < 1e-9);
        assert!(tree.cells.len() < p.max_cells());
    }

    #[test]
    fn sequential_moves_bodies() {
        let p = BarnesParams::tiny();
        let (pos, work) = sequential(&p);
        assert!(work.units() > 0);
        let moved = (0..p.bodies)
            .filter(|&b| (pos[b][0] - p.initial_pos(b, 0)).abs() > 1e-12)
            .count();
        assert!(moved > p.bodies / 2);
    }

    #[test]
    fn parallel_matches_sequential() {
        let p = BarnesParams::tiny();
        for kind in [ImplKind::lrc_diff(), ImplKind::ec_time()] {
            let (result, ok) = run(kind, 2, &p);
            assert!(ok, "{kind} Barnes-Hut positions mismatch");
            assert!(result.time.as_nanos() > 0);
        }
    }
}
