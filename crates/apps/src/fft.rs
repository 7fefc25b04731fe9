//! 3D-FFT, from the NAS parallel benchmarks.
//!
//! An `n1 x n2 x n3` complex array is distributed along its first dimension.
//! Each iteration performs 1-D FFTs along the third and second dimensions
//! (entirely local to a processor's planes), then a transpose followed by 1-D
//! FFTs along the first dimension; during the transpose each processor reads
//! `1/n` of its data from every other processor.  The result is written to a
//! second array — memory is duplicated instead of rebinding locks, as the
//! paper's EC version chooses to do (Section 3.3).
//!
//! * LRC version: barriers only; the transpose reads fault page by page
//!   (invalidate protocol), eight pages per chunk.
//! * EC version: one lock per (owner, reader) transpose chunk, bound to the
//!   eight non-contiguous 4-KiB pieces of that chunk; the chunk arrives in a
//!   single grant message (update protocol).

use dsm_core::{BarrierId, BlockGranularity, Dsm, ImplKind, LockId, LockMode, Model, RunResult};
use dsm_sim::Work;

/// 3D-FFT problem parameters.
#[derive(Debug, Clone)]
pub struct FftParams {
    /// First dimension (the paper uses 64); must be divisible by the
    /// processor count.
    pub n1: usize,
    /// Second dimension (the paper uses 64).
    pub n2: usize,
    /// Third dimension (the paper uses 32).
    pub n3: usize,
    /// Number of transform iterations.
    pub iterations: usize,
    /// Work units charged per butterfly.
    pub work_per_butterfly: u64,
}

impl FftParams {
    /// Table 2 parameters: 64 x 64 x 32.
    pub fn paper() -> Self {
        FftParams {
            n1: 64,
            n2: 64,
            n3: 32,
            iterations: 6,
            work_per_butterfly: 30,
        }
    }

    /// A reduced instance.
    pub fn small() -> Self {
        FftParams {
            n1: 32,
            n2: 32,
            n3: 16,
            iterations: 3,
            work_per_butterfly: 30,
        }
    }

    /// A very small instance for tests.
    pub fn tiny() -> Self {
        FftParams {
            n1: 8,
            n2: 8,
            n3: 8,
            iterations: 2,
            work_per_butterfly: 30,
        }
    }

    fn points(&self) -> usize {
        self.n1 * self.n2 * self.n3
    }

    /// Flat complex index of `(i, j, k)` in row-major order.
    fn at(&self, i: usize, j: usize, k: usize) -> usize {
        (i * self.n2 + j) * self.n3 + k
    }

    /// Initial value (real, imaginary) of point `(i, j, k)`.
    fn initial(&self, idx: usize) -> (f64, f64) {
        let x = (idx as u64)
            .wrapping_mul(0x2545_F491_4F6C_DD1D)
            .rotate_left(13);
        let re = ((x & 0xffff) as f64) / 65536.0;
        let im = (((x >> 16) & 0xffff) as f64) / 65536.0;
        (re, im)
    }
}

/// An in-place iterative radix-2 FFT over `data` (pairs of re/im), applied to
/// a strided 1-D line.  Returns the number of butterflies.
fn fft_line(re: &mut [f64], im: &mut [f64]) -> u64 {
    let n = re.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if j > i {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let mut butterflies = 0u64;
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let (mut cr, mut ci) = (1.0f64, 0.0f64);
            for j in 0..len / 2 {
                let (ur, ui) = (re[i + j], im[i + j]);
                let (vr, vi) = (
                    re[i + j + len / 2] * cr - im[i + j + len / 2] * ci,
                    re[i + j + len / 2] * ci + im[i + j + len / 2] * cr,
                );
                re[i + j] = ur + vr;
                im[i + j] = ui + vi;
                re[i + j + len / 2] = ur - vr;
                im[i + j + len / 2] = ui - vi;
                let (ncr, nci) = (cr * wr - ci * wi, cr * wi + ci * wr);
                cr = ncr;
                ci = nci;
                butterflies += 1;
            }
            i += len;
        }
        len *= 2;
    }
    butterflies
}

/// Sequential 3D FFT pipeline over `iterations` iterations; returns the final
/// transposed array (as `(re, im)` vectors indexed `(j, k, i)` row-major) and
/// the total work.
pub fn sequential(p: &FftParams) -> (Vec<f64>, Vec<f64>, Work) {
    let n = p.points();
    let mut re: Vec<f64> = (0..n).map(|i| p.initial(i).0).collect();
    let mut im: Vec<f64> = (0..n).map(|i| p.initial(i).1).collect();
    let mut tre = vec![0.0; n];
    let mut tim = vec![0.0; n];
    let mut work = 0u64;
    for it in 0..p.iterations {
        // Evolve: a cheap pointwise scaling keeps iterations from being
        // identical (the NAS benchmark multiplies by exponential factors).
        let scale = 1.0 / (1.0 + it as f64);
        re.iter_mut().for_each(|v| *v *= scale);
        im.iter_mut().for_each(|v| *v *= scale);
        // Dim-3 FFTs then dim-2 FFTs (local), then transpose + dim-1 FFTs.
        for i in 0..p.n1 {
            for j in 0..p.n2 {
                let mut lr: Vec<f64> = (0..p.n3).map(|k| re[p.at(i, j, k)]).collect();
                let mut li: Vec<f64> = (0..p.n3).map(|k| im[p.at(i, j, k)]).collect();
                work += fft_line(&mut lr, &mut li) * p.work_per_butterfly;
                for k in 0..p.n3 {
                    re[p.at(i, j, k)] = lr[k];
                    im[p.at(i, j, k)] = li[k];
                }
            }
            for k in 0..p.n3 {
                let mut lr: Vec<f64> = (0..p.n2).map(|j| re[p.at(i, j, k)]).collect();
                let mut li: Vec<f64> = (0..p.n2).map(|j| im[p.at(i, j, k)]).collect();
                work += fft_line(&mut lr, &mut li) * p.work_per_butterfly;
                for j in 0..p.n2 {
                    re[p.at(i, j, k)] = lr[j];
                    im[p.at(i, j, k)] = li[j];
                }
            }
        }
        // Transposed array indexed (j, k, i).
        for j in 0..p.n2 {
            for k in 0..p.n3 {
                let mut lr: Vec<f64> = (0..p.n1).map(|i| re[p.at(i, j, k)]).collect();
                let mut li: Vec<f64> = (0..p.n1).map(|i| im[p.at(i, j, k)]).collect();
                work += fft_line(&mut lr, &mut li) * p.work_per_butterfly;
                for i in 0..p.n1 {
                    let t = (j * p.n3 + k) * p.n1 + i;
                    tre[t] = lr[i];
                    tim[t] = li[i];
                }
            }
        }
        // Feed the transposed result back as the next iteration's input,
        // transposing it back into (i, j, k) order — exactly what the
        // parallel version's copy-back phase does.
        for i in 0..p.n1 {
            for j in 0..p.n2 {
                for k in 0..p.n3 {
                    let t = (j * p.n3 + k) * p.n1 + i;
                    re[p.at(i, j, k)] = tre[t];
                    im[p.at(i, j, k)] = tim[t];
                }
            }
        }
    }
    (tre, tim, Work::flops(work))
}

/// Lock id of the transpose chunk written by `owner` and read by `reader`.
fn chunk_lock(nprocs: usize, owner: usize, reader: usize) -> LockId {
    LockId::new((owner * nprocs + reader) as u32)
}

/// Lock id of processor `p`'s slab of the transposed (destination) array.
fn dst_lock(nprocs: usize, p: usize) -> LockId {
    LockId::new((nprocs * nprocs + p) as u32)
}

/// Runs 3D-FFT under the given implementation.  Returns the run result and
/// whether the final transposed array matches the sequential version.
pub fn run(kind: ImplKind, nprocs: usize, p: &FftParams) -> (RunResult, bool) {
    run_opts(kind, nprocs, p, crate::runner::RunOpts::default())
}

/// Like [`run`], but with the full option set, including a fault plan
/// for crash-injection/recovery runs.
pub fn run_opts(
    kind: ImplKind,
    nprocs: usize,
    p: &FftParams,
    opts: crate::runner::RunOpts,
) -> (RunResult, bool) {
    let p = p.clone();
    assert!(
        p.n1 % nprocs == 0 && p.n2 % nprocs == 0,
        "n1 ({}) and n2 ({}) must be divisible by the processor count ({nprocs})",
        p.n1,
        p.n2
    );
    let n = p.points();
    let mut dsm = Dsm::new(opts.config(kind, nprocs)).expect("valid config");
    // Interleaved complex layout: element e occupies slots 2e (re) and 2e+1 (im).
    let src = dsm.alloc_array::<f64>("fft-src", 2 * n, BlockGranularity::DoubleWord);
    let dst = dsm.alloc_array::<f64>("fft-dst", 2 * n, BlockGranularity::DoubleWord);
    dsm.init_array(src, |slot| {
        let (re, im) = p.initial(slot / 2);
        if slot % 2 == 0 {
            re
        } else {
            im
        }
    });

    let ec = kind.model() == Model::Ec;
    let planes_per_proc = p.n1 / nprocs;
    if ec {
        // Bind each (owner, reader) transpose chunk: for every plane i owned
        // by `owner`, the j-range of `reader`, all k — one contiguous piece
        // per plane, several pieces per lock (non-contiguous binding).
        let j_per_proc = p.n2 / nprocs;
        for owner in 0..nprocs {
            for reader in 0..nprocs {
                let mut ranges = Vec::new();
                for i in owner * planes_per_proc..(owner + 1) * planes_per_proc {
                    let j0 = reader * j_per_proc;
                    let start = p.at(i, j0, 0) * 2;
                    let len = j_per_proc * p.n3 * 2;
                    ranges.push(src.range(start, len));
                }
                dsm.bind(chunk_lock(nprocs, owner, reader), ranges);
            }
        }
        // Each processor's slab of the transposed array (rows j in its
        // j-range) is bound to one lock for its exclusive writes.
        for proc in 0..nprocs {
            let start = proc * j_per_proc * p.n3 * p.n1 * 2;
            let len = j_per_proc * p.n3 * p.n1 * 2;
            dsm.bind(dst_lock(nprocs, proc), [dst.range(start, len)]);
        }
    }
    let barrier = BarrierId::new(0);

    let result = dsm.run(|ctx| {
        let me = ctx.node();
        let nproc = ctx.nprocs();
        let my_planes = me * planes_per_proc..(me + 1) * planes_per_proc;
        let j_per_proc = p.n2 / nproc;
        let my_js = me * j_per_proc..(me + 1) * j_per_proc;

        // Reused scratch: one interleaved complex line plus its split
        // re/im halves, sized for the longest dimension.
        let max_n = p.n1.max(p.n2).max(p.n3);
        let mut line = vec![0.0f64; 2 * max_n];
        let mut lr = vec![0.0f64; max_n];
        let mut li = vec![0.0f64; max_n];

        for it in 0..p.iterations {
            let scale = 1.0 / (1.0 + it as f64);

            // Local phases: dim-3 and dim-2 FFTs on our planes of `src`.
            // EC holds one chunk lock per reader at once, so each phase's
            // locks go in one guard, released when it drops.
            let mut held = ctx.lock_set();
            if ec {
                for reader in 0..nproc {
                    held.acquire(chunk_lock(nproc, me, reader), LockMode::Exclusive);
                }
            }
            for i in my_planes.clone() {
                for j in 0..p.n2 {
                    // The k-line is contiguous: one span read, one span write.
                    let base = p.at(i, j, 0) * 2;
                    held.read_into(src, base, &mut line[..2 * p.n3]);
                    for k in 0..p.n3 {
                        lr[k] = line[2 * k] * scale;
                        li[k] = line[2 * k + 1] * scale;
                    }
                    let b = fft_line(&mut lr[..p.n3], &mut li[..p.n3]);
                    held.compute(Work::flops(b * p.work_per_butterfly));
                    for k in 0..p.n3 {
                        line[2 * k] = lr[k];
                        line[2 * k + 1] = li[k];
                    }
                    held.write_from(src, base, &line[..2 * p.n3]);
                }
                for k in 0..p.n3 {
                    // The j-line is strided by n3: element-wise access.
                    for j in 0..p.n2 {
                        lr[j] = held.get(src, p.at(i, j, k) * 2);
                        li[j] = held.get(src, p.at(i, j, k) * 2 + 1);
                    }
                    let b = fft_line(&mut lr[..p.n2], &mut li[..p.n2]);
                    held.compute(Work::flops(b * p.work_per_butterfly));
                    for j in 0..p.n2 {
                        held.set(src, p.at(i, j, k) * 2, lr[j]);
                        held.set(src, p.at(i, j, k) * 2 + 1, li[j]);
                    }
                }
            }
            drop(held);
            ctx.barrier(barrier);

            // Transpose + dim-1 FFTs: we produce rows (j, k, *) for our j-range,
            // reading one chunk from every other processor.
            let mut held = ctx.lock_set();
            if ec {
                for owner in 0..nproc {
                    if owner != me {
                        held.acquire(chunk_lock(nproc, owner, me), LockMode::ReadOnly);
                    }
                }
                held.acquire(dst_lock(nproc, me), LockMode::Exclusive);
            }
            for j in my_js.clone() {
                for k in 0..p.n3 {
                    // Gather is strided (one element per source plane); the
                    // transposed output line is contiguous in i.
                    for i in 0..p.n1 {
                        lr[i] = held.get(src, p.at(i, j, k) * 2);
                        li[i] = held.get(src, p.at(i, j, k) * 2 + 1);
                    }
                    let b = fft_line(&mut lr[..p.n1], &mut li[..p.n1]);
                    held.compute(Work::flops(b * p.work_per_butterfly));
                    for i in 0..p.n1 {
                        line[2 * i] = lr[i];
                        line[2 * i + 1] = li[i];
                    }
                    held.write_from(dst, (j * p.n3 + k) * p.n1 * 2, &line[..2 * p.n1]);
                }
            }
            drop(held);
            ctx.barrier(barrier);

            // Copy the transposed result back into our planes of `src` for
            // the next iteration ((j,k,i) -> (i,j,k) for i in our planes).
            if it + 1 < p.iterations {
                // The rows we copy back were produced by every processor, so
                // under EC we also take read-only locks on the other
                // processors' slabs of the transposed array.
                let mut held = ctx.lock_set();
                if ec {
                    for other in 0..nproc {
                        if other != me {
                            held.acquire(dst_lock(nproc, other), LockMode::ReadOnly);
                        }
                    }
                    for reader in 0..nproc {
                        held.acquire(chunk_lock(nproc, me, reader), LockMode::Exclusive);
                    }
                }
                for i in my_planes.clone() {
                    for j in 0..p.n2 {
                        // Strided gather from the transposed array, one
                        // contiguous span write back into our plane.
                        for k in 0..p.n3 {
                            let t = (j * p.n3 + k) * p.n1 + i;
                            line[2 * k] = held.get(dst, t * 2);
                            line[2 * k + 1] = held.get(dst, t * 2 + 1);
                        }
                        held.write_from(src, p.at(i, j, 0) * 2, &line[..2 * p.n3]);
                    }
                }
                drop(held);
                ctx.barrier(barrier);
            }
        }
    });

    // Verify the final transposed array.
    let (tre, tim, _) = sequential(&p);
    let ok = (0..n).all(|t| {
        let gre = result.final_at(dst, t * 2);
        let gim = result.final_at(dst, t * 2 + 1);
        (gre - tre[t]).abs() <= 1e-6 * tre[t].abs().max(1.0)
            && (gim - tim[t]).abs() <= 1e-6 * tim[t].abs().max(1.0)
    });
    (result, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_line_recovers_constant_signal_spectrum() {
        // FFT of an impulse is flat; FFT of a constant is an impulse at 0.
        let mut re = vec![1.0; 8];
        let mut im = vec![0.0; 8];
        let b = fft_line(&mut re, &mut im);
        assert!(b > 0);
        assert!((re[0] - 8.0).abs() < 1e-9);
        assert!(re[1..].iter().all(|v| v.abs() < 1e-9));
    }

    #[test]
    fn sequential_produces_work() {
        let p = FftParams::tiny();
        let (tre, _tim, work) = sequential(&p);
        assert_eq!(tre.len(), p.points());
        assert!(work.units() > 0);
    }

    #[test]
    fn parallel_matches_sequential() {
        let p = FftParams::tiny();
        for kind in [ImplKind::lrc_diff(), ImplKind::ec_ci(), ImplKind::ec_diff()] {
            let (result, ok) = run(kind, 2, &p);
            assert!(ok, "{kind} 3D-FFT output mismatch");
            assert!(result.time.as_nanos() > 0);
        }
        // At small scale and 4 processors each transpose piece is 2 KiB, so
        // two chunk locks held together share a page that the page-twinning
        // implementations arm for both.
        for kind in [ImplKind::ec_time(), ImplKind::ec_diff()] {
            let (_, ok) = run(kind, 4, &FftParams::small());
            assert!(ok, "{kind} 3D-FFT output mismatch at small scale");
        }
    }

    #[test]
    fn ec_sends_fewer_messages_than_lrc_for_the_transpose() {
        // The paper's 3D-FFT result: the object bound to a lock spans several
        // pages, so EC's update protocol needs far fewer messages than LRC's
        // per-page invalidate protocol (Section 7.2).
        let p = FftParams::small();
        let (ec, ok_ec) = run(ImplKind::ec_ci(), 4, &p);
        let (lrc, ok_lrc) = run(ImplKind::lrc_diff(), 4, &p);
        assert!(ok_ec && ok_lrc);
        assert!(
            ec.traffic.messages < lrc.traffic.messages,
            "EC ({}) should need fewer messages than LRC ({})",
            ec.traffic.messages,
            lrc.traffic.messages
        );
    }
}
