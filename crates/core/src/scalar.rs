//! Typed access to shared memory.

/// A plain-old-data scalar that can be stored in shared memory.
///
/// The DSM stores shared regions as byte arrays (as a real DSM does); this
/// trait provides the little-endian encode/decode used by the typed accessors
/// on [`ProcessContext`](crate::ProcessContext) and
/// [`Dsm::init_array`](crate::Dsm::init_array).
pub trait Scalar: Copy + Default + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// Size of the scalar in bytes.
    const SIZE: usize;

    /// Encodes the scalar into `out` (which is exactly `SIZE` bytes).
    fn write_le(self, out: &mut [u8]);

    /// Decodes the scalar from `bytes` (which is exactly `SIZE` bytes).
    fn read_le(bytes: &[u8]) -> Self;

    /// Decodes `out.len()` consecutive scalars from `bytes` (which is
    /// exactly `out.len() * SIZE` bytes).
    ///
    /// Semantically an element-wise [`read_le`](Scalar::read_le) loop, but
    /// walking both sides in exact chunks so the compiler drops the per
    /// element bounds checks and vectorises the copy — the bulk form the
    /// span accessors and [`RunResult::final_array`](crate::RunResult::final_array)
    /// lower onto.  The copy vectorises only where `read_le` inlines into
    /// the loop: this default body is instantiated in the calling crate, so
    /// an implementation whose `read_le` is not `#[inline]` leaves one
    /// out-of-line call per element there instead.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not exactly `out.len() * SIZE` bytes.
    fn read_slice_le(bytes: &[u8], out: &mut [Self]) {
        assert_eq!(bytes.len(), out.len() * Self::SIZE, "slice byte width");
        for (slot, chunk) in out.iter_mut().zip(bytes.chunks_exact(Self::SIZE)) {
            *slot = Self::read_le(chunk);
        }
    }

    /// Encodes `values` into `out` (which is exactly `values.len() * SIZE`
    /// bytes); the bulk counterpart of [`write_le`](Scalar::write_le), with
    /// the same chunked shape as [`read_slice_le`](Scalar::read_slice_le).
    ///
    /// # Panics
    ///
    /// Panics if `out` is not exactly `values.len() * SIZE` bytes.
    fn write_slice_le(values: &[Self], out: &mut [u8]) {
        assert_eq!(out.len(), values.len() * Self::SIZE, "slice byte width");
        for (chunk, v) in out.chunks_exact_mut(Self::SIZE).zip(values) {
            v.write_le(chunk);
        }
    }
}

macro_rules! impl_scalar {
    ($($t:ty),*) => {
        $(
            impl Scalar for $t {
                const SIZE: usize = std::mem::size_of::<$t>();

                // `#[inline]` makes these bodies available to other crates:
                // the span accessors are generic, so their
                // `read_slice_le`/`write_slice_le` loops are compiled in the
                // application's crate, where a non-inline method stays one
                // call per element and the copy cannot vectorise.
                #[inline]
                fn write_le(self, out: &mut [u8]) {
                    out.copy_from_slice(&self.to_le_bytes());
                }

                #[inline]
                fn read_le(bytes: &[u8]) -> Self {
                    <$t>::from_le_bytes(bytes.try_into().expect("scalar byte width"))
                }
            }
        )*
    };
}

impl_scalar!(f32, f64, i32, u32, i64, u64);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Scalar>(v: T) {
        let mut buf = vec![0u8; T::SIZE];
        v.write_le(&mut buf);
        assert_eq!(T::read_le(&buf), v);
    }

    #[test]
    fn roundtrips() {
        roundtrip(3.25_f64);
        roundtrip(-7.5_f32);
        roundtrip(-42_i32);
        roundtrip(42_u32);
        roundtrip(-1_000_000_000_000_i64);
        roundtrip(u64::MAX);
    }

    /// Checks the slice codecs against the element codecs at every length
    /// from 0 to 67 (past 64, so an unrolled vector loop also runs its
    /// tail), decoding from a slice that starts at an odd offset of its
    /// buffer.
    /// Bytes are compared rather than values, so that float patterns that
    /// decode to NaN are checked bit for bit.
    fn slice_codecs_agree<T: Scalar>() {
        for n in 0..=67 {
            let buf: Vec<u8> = (0..1 + n * T::SIZE)
                .map(|i| (i as u8).wrapping_mul(37).wrapping_add(11))
                .collect();
            let bytes = &buf[1..];
            let mut bulk = vec![T::default(); n];
            T::read_slice_le(bytes, &mut bulk);
            let mut from_bulk = vec![0u8; bytes.len()];
            T::write_slice_le(&bulk, &mut from_bulk);
            assert_eq!(from_bulk, bytes, "{n} elements of {} bytes", T::SIZE);
            let mut from_elems = vec![0u8; bytes.len()];
            for (out, chunk) in from_elems
                .chunks_exact_mut(T::SIZE)
                .zip(bytes.chunks_exact(T::SIZE))
            {
                T::read_le(chunk).write_le(out);
            }
            assert_eq!(from_elems, bytes, "{n} elements of {} bytes", T::SIZE);
        }
    }

    #[test]
    fn slice_codecs_match_element_codecs() {
        slice_codecs_agree::<f32>();
        slice_codecs_agree::<f64>();
        slice_codecs_agree::<i32>();
        slice_codecs_agree::<u32>();
        slice_codecs_agree::<i64>();
        slice_codecs_agree::<u64>();
    }

    #[test]
    fn float_codecs_keep_nan_payloads_and_negative_zero() {
        let singles = [
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xff80_0001),
            f32::from_bits(0x7fa0_0000),
            -0.0,
        ];
        let mut bytes = [0u8; 16];
        f32::write_slice_le(&singles, &mut bytes);
        let mut back = [0f32; 4];
        f32::read_slice_le(&bytes, &mut back);
        for ((v, b), chunk) in singles.iter().zip(&back).zip(bytes.chunks_exact(4)) {
            assert_eq!(chunk, v.to_bits().to_le_bytes());
            assert_eq!(b.to_bits(), v.to_bits());
            assert_eq!(f32::read_le(chunk).to_bits(), v.to_bits());
        }
        let doubles = [
            f64::from_bits(0x7ff8_0000_dead_beef),
            f64::from_bits(0xfff0_0000_0000_0001),
            f64::from_bits(0x7ff4_0000_0000_0000),
            -0.0,
        ];
        let mut bytes = [0u8; 32];
        f64::write_slice_le(&doubles, &mut bytes);
        let mut back = [0f64; 4];
        f64::read_slice_le(&bytes, &mut back);
        for ((v, b), chunk) in doubles.iter().zip(&back).zip(bytes.chunks_exact(8)) {
            assert_eq!(chunk, v.to_bits().to_le_bytes());
            assert_eq!(b.to_bits(), v.to_bits());
            assert_eq!(f64::read_le(chunk).to_bits(), v.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "slice byte width")]
    fn read_slice_le_rejects_mismatched_lengths() {
        let mut out = [0u32; 2];
        u32::read_slice_le(&[0u8; 9], &mut out);
    }

    #[test]
    #[should_panic(expected = "slice byte width")]
    fn write_slice_le_rejects_mismatched_lengths() {
        u32::write_slice_le(&[1, 2], &mut [0u8; 7]);
    }

    #[test]
    fn sizes() {
        assert_eq!(<f64 as Scalar>::SIZE, 8);
        assert_eq!(<f32 as Scalar>::SIZE, 4);
        assert_eq!(<i32 as Scalar>::SIZE, 4);
        assert_eq!(<u32 as Scalar>::SIZE, 4);
        assert_eq!(<i64 as Scalar>::SIZE, 8);
        assert_eq!(<u64 as Scalar>::SIZE, 8);
    }
}
