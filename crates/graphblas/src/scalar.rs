//! Scalar value types storable in GraphBLAS vectors and matrices.

/// A value type that can live in a [`crate::Vector`] or [`crate::Matrix`].
///
/// The `to_bits64`/`from_bits64` round trip enables lock-free atomic
/// accumulation in the SAXPY kernels (every supported scalar fits in 64
/// bits). `is_nonzero` defines mask truthiness for valued masks.
pub trait Scalar: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static {
    /// The additive zero of the type (`false` for `bool`).
    const ZERO: Self;

    /// Whether the type is floating point, whose `+` rounds and so is
    /// not associative: a float sum depends on the order its terms are
    /// folded in.
    const IS_FLOAT: bool = false;

    /// Encodes the value into 64 bits (inverse of [`Scalar::from_bits64`]).
    fn to_bits64(self) -> u64;

    /// Decodes a value previously encoded with [`Scalar::to_bits64`].
    fn from_bits64(bits: u64) -> Self;

    /// Mask truthiness: GraphBLAS valued masks pass where the entry is
    /// non-zero.
    fn is_nonzero(self) -> bool;
}

/// A scalar with the arithmetic structure the standard semirings need.
///
/// Integer `plus` saturates instead of wrapping: the `min_plus` semiring
/// adds edge weights to "infinity" (`MAX_VALUE`) distances, which must not
/// overflow. Boolean arithmetic is `or`/`and`.
pub trait ScalarNum: Scalar + PartialOrd {
    /// The multiplicative one (`true` for `bool`).
    const ONE: Self;
    /// The largest representable value (identity of `min`).
    const MAX_VALUE: Self;

    /// Addition (saturating for integers, `or` for `bool`).
    fn plus(self, other: Self) -> Self;
    /// Multiplication (`and` for `bool`).
    fn times(self, other: Self) -> Self;
    /// Division (`a` unchanged on integer division by zero; plain `/`
    /// for floats; identity for `bool`).
    fn div_val(self, other: Self) -> Self;
    /// Minimum.
    fn min_val(self, other: Self) -> Self;
    /// Maximum.
    fn max_val(self, other: Self) -> Self;
}

macro_rules! impl_scalar_int {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            const ZERO: Self = 0;

            #[inline]
            fn to_bits64(self) -> u64 {
                self as u64
            }

            #[inline]
            fn from_bits64(bits: u64) -> Self {
                bits as $t
            }

            #[inline]
            fn is_nonzero(self) -> bool {
                self != 0
            }
        }

        impl ScalarNum for $t {
            const ONE: Self = 1;
            const MAX_VALUE: Self = <$t>::MAX;

            #[inline]
            fn plus(self, other: Self) -> Self {
                self.saturating_add(other)
            }

            #[inline]
            fn times(self, other: Self) -> Self {
                self.wrapping_mul(other)
            }

            #[inline]
            fn div_val(self, other: Self) -> Self {
                if other == 0 { self } else { self / other }
            }

            #[inline]
            fn min_val(self, other: Self) -> Self {
                self.min(other)
            }

            #[inline]
            fn max_val(self, other: Self) -> Self {
                self.max(other)
            }
        }
    )*};
}

impl_scalar_int!(u8, u16, u32, u64, i32, i64);

macro_rules! impl_scalar_float {
    ($($t:ty => $bits:ty),*) => {$(
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const IS_FLOAT: bool = true;

            #[inline]
            fn to_bits64(self) -> u64 {
                self.to_bits() as u64
            }

            #[inline]
            fn from_bits64(bits: u64) -> Self {
                <$t>::from_bits(bits as $bits)
            }

            #[inline]
            fn is_nonzero(self) -> bool {
                self != 0.0
            }
        }

        impl ScalarNum for $t {
            const ONE: Self = 1.0;
            const MAX_VALUE: Self = <$t>::INFINITY;

            #[inline]
            fn plus(self, other: Self) -> Self {
                self + other
            }

            #[inline]
            fn times(self, other: Self) -> Self {
                self * other
            }

            #[inline]
            fn div_val(self, other: Self) -> Self {
                self / other
            }

            #[inline]
            fn min_val(self, other: Self) -> Self {
                if self < other { self } else { other }
            }

            #[inline]
            fn max_val(self, other: Self) -> Self {
                if self > other { self } else { other }
            }
        }
    )*};
}

impl_scalar_float!(f32 => u32, f64 => u64);

impl Scalar for bool {
    const ZERO: Self = false;

    #[inline]
    fn to_bits64(self) -> u64 {
        self as u64
    }

    #[inline]
    fn from_bits64(bits: u64) -> Self {
        bits != 0
    }

    #[inline]
    fn is_nonzero(self) -> bool {
        self
    }
}

impl ScalarNum for bool {
    const ONE: Self = true;
    const MAX_VALUE: Self = true;

    #[inline]
    fn plus(self, other: Self) -> Self {
        self || other
    }

    #[inline]
    fn times(self, other: Self) -> Self {
        self && other
    }

    #[inline]
    fn div_val(self, other: Self) -> Self {
        let _ = other;
        self
    }

    #[inline]
    fn min_val(self, other: Self) -> Self {
        self && other
    }

    #[inline]
    fn max_val(self, other: Self) -> Self {
        self || other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_round_trip_ints() {
        for v in [0u32, 1, 17, u32::MAX] {
            assert_eq!(u32::from_bits64(v.to_bits64()), v);
        }
        for v in [-5i64, 0, i64::MAX, i64::MIN] {
            assert_eq!(i64::from_bits64(v.to_bits64()), v);
        }
    }

    #[test]
    fn bits_round_trip_floats() {
        for v in [0.0f64, -1.5, f64::INFINITY, 1e300] {
            assert_eq!(f64::from_bits64(v.to_bits64()), v);
        }
        for v in [0.0f32, 3.25, f32::NEG_INFINITY] {
            assert_eq!(f32::from_bits64(v.to_bits64()), v);
        }
    }

    #[test]
    fn bits_round_trip_bool() {
        assert!(bool::from_bits64(true.to_bits64()));
        assert!(!bool::from_bits64(false.to_bits64()));
    }

    #[test]
    fn integer_plus_saturates() {
        assert_eq!(u32::MAX.plus(10), u32::MAX);
        assert_eq!(u64::MAX_VALUE.plus(1), u64::MAX);
    }

    #[test]
    fn bool_arithmetic_is_or_and() {
        assert!(true.plus(false));
        assert!(!false.plus(false));
        assert!(!true.times(false));
        assert!(true.times(true));
    }

    #[test]
    fn nonzero_matches_semantics() {
        assert!(3u32.is_nonzero());
        assert!(!0f64.is_nonzero());
        assert!((-0.5f32).is_nonzero());
        assert!(!false.is_nonzero());
    }

    #[test]
    fn min_max_on_floats() {
        assert_eq!(1.0f64.min_val(2.0), 1.0);
        assert_eq!(1.0f64.max_val(2.0), 2.0);
        assert_eq!(f64::MAX_VALUE.min_val(5.0), 5.0);
    }
}
