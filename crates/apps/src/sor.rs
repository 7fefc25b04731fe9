//! Red-Black Successive Over-Relaxation (SOR) and its SOR+ variant.
//!
//! The matrix is divided into bands of consecutive rows, one band per
//! processor; each iteration has a red phase and a black phase separated by
//! barriers, and communication happens only across band boundaries.  Each row
//! is laid out with its red elements first and its black elements next, as in
//! the paper, so that both colours of a row share a page (the source of LRC's
//! prefetch effect and of the false sharing at band boundaries).
//!
//! * LRC version: barriers only.
//! * EC version: one lock per (row, colour) half-row; a processor takes
//!   exclusive locks on the half-rows it updates and read-only locks on the
//!   boundary half-rows it reads (Section 3.3).
//! * SOR+: only the boundary rows are shared; interior rows live in private
//!   memory.

use dsm_core::{BarrierId, BlockGranularity, Dsm, ImplKind, LockId, LockMode, Model, RunResult};
use dsm_sim::Work;

/// SOR problem parameters.
#[derive(Debug, Clone)]
pub struct SorParams {
    /// Interior rows (the paper uses 1000).
    pub rows: usize,
    /// Interior columns (the paper uses 1000).  Must be even: the
    /// red-first/black-next layout splits each row into two equal halves.
    pub cols: usize,
    /// Red/black iterations.
    pub iterations: usize,
    /// Work units charged per element update.
    pub work_per_element: u64,
}

impl SorParams {
    /// Table 2 parameters: 1000x1000 floats.
    pub fn paper() -> Self {
        SorParams {
            rows: 1000,
            cols: 1000,
            iterations: 48,
            work_per_element: 9,
        }
    }

    /// A reduced instance for quick runs.
    pub fn small() -> Self {
        SorParams {
            rows: 256,
            cols: 256,
            iterations: 12,
            work_per_element: 9,
        }
    }

    /// A very small instance for tests.
    pub fn tiny() -> Self {
        SorParams {
            rows: 32,
            cols: 32,
            iterations: 4,
            work_per_element: 9,
        }
    }

    /// Panics unless `cols` is even, which the row layout assumes.
    fn assert_even_cols(&self) {
        assert!(
            self.cols % 2 == 0,
            "SorParams::cols must be even (each row splits into equal red and black halves), got {}",
            self.cols
        );
    }

    fn total_cols(&self) -> usize {
        self.cols + 2
    }

    fn total_rows(&self) -> usize {
        self.rows + 2
    }

    /// Element index of `(i, j)` in the red-first/black-next row layout.
    fn idx(&self, i: usize, j: usize) -> usize {
        let c = self.total_cols();
        let base = i * c;
        if (i + j) % 2 == 0 {
            base + j / 2
        } else {
            base + c / 2 + j / 2
        }
    }

    /// The interior columns of `colour` in row `i`: the first one and how
    /// many there are (`j` runs over `first_j`, `first_j + 2`, ..).  In the
    /// layout they are one contiguous span of the row's `colour` half, and
    /// each of their four neighbour sources is one span of a `1 - colour`
    /// half.
    fn span(&self, i: usize, colour: usize) -> (usize, usize) {
        let first_j = if (colour + i) % 2 == 1 { 1 } else { 2 };
        (
            first_j,
            (self.total_cols() - 1).saturating_sub(first_j).div_ceil(2),
        )
    }

    /// Initial value of element `(i, j)`: non-zero interior values chosen so
    /// that every element changes on every iteration (the paper initialises
    /// the matrix this way to make the compiler-instrumentation vs. diffing
    /// comparison fair).
    fn initial(&self, i: usize, j: usize) -> f32 {
        if i == 0 || j == 0 || i == self.total_rows() - 1 || j == self.total_cols() - 1 {
            ((i * 31 + j * 17) % 100) as f32 + 1.0
        } else {
            ((i * 7 + j * 13) % 50) as f32 + 1.0
        }
    }
}

/// The initial matrix in the red-first/black-next layout.
fn initial_layout(p: &SorParams) -> Vec<f32> {
    let (tr, tc) = (p.total_rows(), p.total_cols());
    let mut m = vec![0.0f32; tr * tc];
    for i in 0..tr {
        for j in 0..tc {
            m[p.idx(i, j)] = p.initial(i, j);
        }
    }
    m
}

/// Runs the sequential version: returns the final matrix (in the same layout
/// as the shared region) and the work performed.
///
/// It sweeps spans, as the parallel version does: each (row, colour) update
/// reads its four neighbour sources as contiguous half-row spans and
/// writes the row's own span in place.  The expression and its operand
/// order are the element-wise stencil's, so the matrix and the work are
/// bit-identical to an element-at-a-time sweep; a unit test pins the two
/// together.
///
/// # Panics
///
/// Panics if `p.cols` is odd.
pub fn sequential(p: &SorParams) -> (Vec<f32>, Work) {
    p.assert_even_cols();
    let (tr, tc) = (p.total_rows(), p.total_cols());
    let mut m = initial_layout(p);
    let mut work = Work::ZERO;
    for _ in 0..p.iterations {
        for colour in 0..2usize {
            for i in 1..tr - 1 {
                let (first_j, n) = p.span(i, colour);
                // One colour's pass reads only the other colour: rows
                // i - 1 and i + 1 and row i's other half stay unchanged.
                let (above, rest) = m.split_at_mut(i * tc);
                let (row, below) = rest.split_at_mut(tc);
                let (red, black) = row.split_at_mut(tc / 2);
                let (out, side) = if colour == 0 {
                    (red, &*black)
                } else {
                    (black, &*red)
                };
                let up = &above[p.idx(i - 1, first_j)..][..n];
                let down = &below[p.idx(i + 1, first_j) - (i + 1) * tc..][..n];
                let left = &side[(first_j - 1) / 2..][..n];
                let right = &side[first_j.div_ceil(2)..][..n];
                let out = &mut out[first_j / 2..][..n];
                for t in 0..n {
                    out[t] = 0.25 * (up[t] + down[t] + left[t] + right[t]);
                }
                work += Work::flops(p.work_per_element * n as u64);
            }
        }
    }
    (m, work)
}

fn band(p: &SorParams, nprocs: usize, me: usize) -> (usize, usize) {
    // Interior rows 1..=rows split into nprocs roughly equal bands.
    let per = p.rows / nprocs;
    let extra = p.rows % nprocs;
    let lo = 1 + me * per + me.min(extra);
    let hi = lo + per + usize::from(me < extra);
    (lo, hi)
}

/// Lock id of the red (`colour == 0`) or black half of row `i`.
fn row_lock(i: usize, colour: usize) -> LockId {
    LockId::new((2 * i + colour) as u32)
}

/// Runs SOR (or SOR+ when `plus` is true) under the given implementation and
/// processor count.  Returns the run result and whether the parallel output
/// matches the sequential version exactly.
pub fn run(kind: ImplKind, nprocs: usize, p: &SorParams, plus: bool) -> (RunResult, bool) {
    run_opts(kind, nprocs, p, plus, crate::runner::RunOpts::default())
}

/// Like [`run`], but with the full option set, including a fault plan
/// for crash-injection/recovery runs.
///
/// # Panics
///
/// Panics if `p.cols` is odd.
pub fn run_opts(
    kind: ImplKind,
    nprocs: usize,
    p: &SorParams,
    plus: bool,
    opts: crate::runner::RunOpts,
) -> (RunResult, bool) {
    p.assert_even_cols();
    let p = p.clone();
    let (tr, tc) = (p.total_rows(), p.total_cols());
    let mut dsm = Dsm::new(opts.config(kind, nprocs)).expect("valid config");
    let matrix = dsm.alloc_array::<f32>("sor-matrix", tr * tc, BlockGranularity::Word);
    {
        let init = initial_layout(&p);
        dsm.init_array(matrix, |flat| init[flat]);
    }

    // EC: bind each half-row to its lock.
    if kind.model() == Model::Ec {
        let half = tc / 2;
        for i in 0..tr {
            dsm.bind(row_lock(i, 0), [matrix.range(i * tc, half)]);
            dsm.bind(row_lock(i, 1), [matrix.range(i * tc + half, tc - half)]);
        }
    }

    let barrier = BarrierId::new(0);
    let ec = kind.model() == Model::Ec;
    let result = dsm.run(|ctx| {
        let me = ctx.node();
        let n = ctx.nprocs();
        let (lo, hi) = band(&p, n, me);
        // SOR+ keeps interior rows private; only boundary rows go through the
        // shared region.
        let mut private: Vec<f32> = if plus { initial_layout(&p) } else { Vec::new() };

        // Scratch half-rows for the span-API stencil: the four neighbour
        // sources of one (row, colour) sweep and its output.  In the
        // red-first/black-next layout each source is one contiguous span.
        let max_m = tc / 2;
        let mut up = vec![0.0f32; max_m];
        let mut down = vec![0.0f32; max_m];
        let mut left = vec![0.0f32; max_m];
        let mut right = vec![0.0f32; max_m];
        let mut out = vec![0.0f32; max_m];

        // Copies `m` elements starting at flat index `start` from the shared
        // matrix (a span read) or from the private copy (SOR+ interior).
        let fetch = |ctx: &mut dsm_core::ProcessContext<'_>,
                     private: &[f32],
                     buf: &mut [f32],
                     shared: bool,
                     start: usize| {
            if shared {
                ctx.read_into(matrix, start, buf);
            } else {
                buf.copy_from_slice(&private[start..start + buf.len()]);
            }
        };

        for _ in 0..p.iterations {
            for colour in 0..2usize {
                // EC: read-only locks on the boundary half-rows we read,
                // both held across the whole row loop in one guard.
                let mut bounds = ctx.lock_set();
                if ec {
                    let read_colour = 1 - colour;
                    if lo > 1 {
                        bounds.acquire(row_lock(lo - 1, read_colour), LockMode::ReadOnly);
                    }
                    if hi < tr - 1 {
                        bounds.acquire(row_lock(hi, read_colour), LockMode::ReadOnly);
                    }
                }
                for i in lo..hi {
                    let boundary_row = i == lo || i == hi - 1;
                    // EC: exclusive lock on the half-row we update (SOR+
                    // only shares the boundary rows); released when the
                    // guard drops at the end of the row.
                    let mut row = bounds.lock_if(
                        ec && (!plus || boundary_row),
                        row_lock(i, colour),
                        LockMode::Exclusive,
                    );
                    // Interior columns of this colour in row i; each
                    // neighbour source maps to m consecutive elements of a
                    // (1-colour) half-row.
                    let (first_j, m) = p.span(i, colour);
                    if m > 0 {
                        // In SOR+, only the rows adjacent to a band edge are
                        // read from the shared region; everything else (and
                        // the row's own sideways neighbours) is private.
                        let up_shared = !plus || i == lo;
                        let down_shared = !plus || i == hi - 1;
                        fetch(
                            &mut row,
                            &private,
                            &mut up[..m],
                            up_shared,
                            p.idx(i - 1, first_j),
                        );
                        fetch(
                            &mut row,
                            &private,
                            &mut down[..m],
                            down_shared,
                            p.idx(i + 1, first_j),
                        );
                        fetch(
                            &mut row,
                            &private,
                            &mut left[..m],
                            !plus,
                            p.idx(i, first_j - 1),
                        );
                        fetch(
                            &mut row,
                            &private,
                            &mut right[..m],
                            !plus,
                            p.idx(i, first_j + 1),
                        );
                        for t in 0..m {
                            out[t] = 0.25 * (up[t] + down[t] + left[t] + right[t]);
                        }
                        row.compute(Work::flops(p.work_per_element * m as u64));
                        let out_start = p.idx(i, first_j);
                        if plus {
                            private[out_start..out_start + m].copy_from_slice(&out[..m]);
                            if boundary_row {
                                row.write_from(matrix, out_start, &out[..m]);
                            }
                        } else {
                            row.write_from(matrix, out_start, &out[..m]);
                        }
                    }
                }
                drop(bounds);
                ctx.barrier(barrier);
            }
        }
        // SOR+ publishes nothing for interior rows; copy the final band into
        // the shared region so the result can be verified uniformly, holding
        // the whole band's locks at once in one guard.
        if plus {
            let mut band = ctx.lock_set();
            if ec {
                for i in lo..hi {
                    band.acquire(row_lock(i, 0), LockMode::Exclusive);
                    band.acquire(row_lock(i, 1), LockMode::Exclusive);
                }
            }
            for i in lo..hi {
                // One span per colour: in this layout the interior elements
                // of one colour are contiguous (and so is the private copy).
                for colour in 0..2usize {
                    let (first_j, m) = p.span(i, colour);
                    let start = p.idx(i, first_j);
                    band.write_from(matrix, start, &private[start..start + m]);
                }
            }
            drop(band);
            ctx.barrier(barrier);
        }
        ctx.barrier(barrier);
    });

    let (expected, _) = sequential(&p);
    let got = result.final_array(matrix);
    let ok = expected
        .iter()
        .zip(got.iter())
        .all(|(a, b)| (a - b).abs() <= 1e-4 * a.abs().max(1.0));
    (result, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The element-at-a-time stencil: the oracle that [`sequential`]'s span
    /// sweep must match bit for bit.
    fn sequential_elementwise(p: &SorParams) -> (Vec<f32>, Work) {
        let (tr, tc) = (p.total_rows(), p.total_cols());
        let mut m = initial_layout(p);
        let mut work = Work::ZERO;
        for _ in 0..p.iterations {
            for colour in 0..2usize {
                for i in 1..tr - 1 {
                    for j in 1..tc - 1 {
                        if (i + j) % 2 == colour {
                            let v = 0.25
                                * (m[p.idx(i - 1, j)]
                                    + m[p.idx(i + 1, j)]
                                    + m[p.idx(i, j - 1)]
                                    + m[p.idx(i, j + 1)]);
                            m[p.idx(i, j)] = v;
                            work += Work::flops(p.work_per_element);
                        }
                    }
                }
            }
        }
        (m, work)
    }

    fn assert_sequential_matches_elementwise(p: &SorParams) {
        let (got, work) = sequential(p);
        let (want, want_work) = sequential_elementwise(p);
        assert_eq!(work, want_work);
        assert_eq!(got.len(), want.len());
        for (k, (a, b)) in got.iter().zip(&want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "element {k}: {a} vs {b}");
        }
    }

    #[test]
    fn sequential_matches_elementwise_sweep() {
        assert_sequential_matches_elementwise(&SorParams::tiny());
        assert_sequential_matches_elementwise(&SorParams::small());
    }

    #[test]
    #[ignore = "paper scale: about 0.4 s in release; CI runs it with --release --ignored"]
    fn sequential_matches_elementwise_sweep_at_paper_scale() {
        assert_sequential_matches_elementwise(&SorParams::paper());
    }

    /// An 8x31 grid: an odd column count, which the row layout cannot hold.
    fn odd_width() -> SorParams {
        SorParams {
            rows: 8,
            cols: 31,
            ..SorParams::tiny()
        }
    }

    #[test]
    #[should_panic(expected = "SorParams::cols must be even")]
    fn sequential_rejects_an_odd_column_count() {
        sequential(&odd_width());
    }

    #[test]
    #[should_panic(expected = "SorParams::cols must be even")]
    fn run_rejects_an_odd_column_count() {
        run(ImplKind::lrc_diff(), 2, &odd_width(), false);
    }

    #[test]
    fn layout_index_is_a_bijection_per_row() {
        let p = SorParams::tiny();
        let tc = p.total_cols();
        for i in 0..4 {
            let mut seen = vec![false; tc];
            for j in 0..tc {
                let idx = p.idx(i, j) - i * tc;
                assert!(idx < tc);
                assert!(!seen[idx], "collision at ({i},{j})");
                seen[idx] = true;
            }
        }
    }

    #[test]
    fn sequential_changes_every_interior_element() {
        let p = SorParams::tiny();
        let (m, work) = sequential(&p);
        assert!(work.units() > 0);
        // Interior elements should have been relaxed away from their initial
        // integer-ish values.
        let changed = (1..p.total_rows() - 1)
            .flat_map(|i| (1..p.total_cols() - 1).map(move |j| (i, j)))
            .filter(|&(i, j)| (m[p.idx(i, j)] - p.initial(i, j)).abs() > 1e-6)
            .count();
        assert!(changed > (p.rows * p.cols) / 2);
    }

    #[test]
    fn bands_partition_the_interior_rows() {
        let p = SorParams::paper();
        let mut covered = 0;
        for me in 0..8 {
            let (lo, hi) = band(&p, 8, me);
            covered += hi - lo;
            assert!(lo >= 1 && hi <= p.rows + 1);
        }
        assert_eq!(covered, p.rows);
    }

    #[test]
    fn lrc_and_ec_match_sequential() {
        let p = SorParams::tiny();
        for kind in [ImplKind::lrc_diff(), ImplKind::ec_time()] {
            let (result, ok) = run(kind, 2, &p, false);
            assert!(ok, "{kind} SOR output mismatch");
            assert!(result.time.as_nanos() > 0);
        }
    }

    #[test]
    fn sor_plus_matches_sequential() {
        let p = SorParams::tiny();
        let (_, ok) = run(ImplKind::lrc_diff(), 2, &p, true);
        assert!(ok, "SOR+ LRC output mismatch");
        let (_, ok) = run(ImplKind::ec_diff(), 2, &p, true);
        assert!(ok, "SOR+ EC output mismatch");
    }
}
