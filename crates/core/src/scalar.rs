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
    /// lower onto.
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

                fn write_le(self, out: &mut [u8]) {
                    out.copy_from_slice(&self.to_le_bytes());
                }

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

    #[test]
    fn slice_codecs_match_element_codecs() {
        let values: Vec<u32> = (0..37).map(|i| i * 0x01020304).collect();
        let mut bytes = vec![0u8; values.len() * 4];
        u32::write_slice_le(&values, &mut bytes);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(u32::read_le(&bytes[i * 4..i * 4 + 4]), *v);
        }
        let mut back = vec![0u32; values.len()];
        u32::read_slice_le(&bytes, &mut back);
        assert_eq!(back, values);

        let doubles = [1.5f64, -2.25, f64::MAX];
        let mut dbytes = vec![0u8; 24];
        f64::write_slice_le(&doubles, &mut dbytes);
        let mut dback = [0f64; 3];
        f64::read_slice_le(&dbytes, &mut dback);
        assert_eq!(dback, doubles);
    }

    #[test]
    #[should_panic(expected = "slice byte width")]
    fn read_slice_le_rejects_mismatched_lengths() {
        let mut out = [0u32; 2];
        u32::read_slice_le(&[0u8; 9], &mut out);
    }

    #[test]
    fn sizes() {
        assert_eq!(<f64 as Scalar>::SIZE, 8);
        assert_eq!(<f32 as Scalar>::SIZE, 4);
        assert_eq!(<i32 as Scalar>::SIZE, 4);
        assert_eq!(<u64 as Scalar>::SIZE, 8);
    }
}
