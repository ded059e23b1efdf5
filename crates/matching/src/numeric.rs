//! Exact rational arithmetic for edge weights.
//!
//! Every quantity in the paper's weight formula (eq. 9) is a ratio of small
//! integers: ranks, list lengths and quotas. Using exact rationals instead of
//! `f64` makes *locally heaviest* comparisons exact, which in turn makes the
//! LIC ≡ LID equivalence (Theorem 3) testable bit-for-bit and rules out the
//! float-tie pathologies (`distinguishes_tiny_differences_f64_conflates`
//! below constructs one).
//!
//! Values are stored as `i128`, but every operation first tries a native
//! fast path: when its operands fit in `i64`, [`Rational::new`] reduces with
//! a binary gcd on `u64` magnitudes, `+` forms the sum from widening
//! `i64 × i64` products, and `cmp` is one widening multiply per side. Any
//! other operand takes the exact `i128` path (Euclid on `u128`
//! magnitudes, checked products). Reduced forms are unique, so both paths
//! return the same value; a result that does not fit in `i128` panics in
//! every build profile (`DESIGN.md` §3).

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Sub};

/// An exact rational number `num/den` with `den > 0`, stored reduced.
///
/// Arithmetic is exact and panics on `i128` overflow; operands that fit in
/// `i64` take native fast paths (see the module docs). The eq. 9 weights of
/// every instance this repository can hold in memory stay in the fast range
/// (see `DESIGN.md` §3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Rational {
    num: i128,
    den: i128,
}

/// `gcd(a, b)` by Stein's binary algorithm; `gcd(0, b) = b`.
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// `gcd(a, b)` by Euclid's algorithm; `gcd(0, b) = b`.
fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// `x` as `i64`, if it fits.
#[inline]
fn narrow(x: i128) -> Option<i64> {
    i64::try_from(x).ok()
}

impl Rational {
    /// Zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// One.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates `num/den`, reduced and sign-normalized.
    ///
    /// # Panics
    /// Panics if `den == 0`, or if the reduced, sign-normalized value does
    /// not fit in `i128` (only `num` or `den` equal to `i128::MIN` can cause
    /// that, e.g. `Rational::new(1, i128::MIN)`).
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "rational with zero denominator");
        let negative = (num < 0) != (den < 0);
        let (n, d) = match (narrow(num), narrow(den)) {
            (Some(n), Some(d)) => {
                let (n, d) = (n.unsigned_abs(), d.unsigned_abs());
                let g = gcd_u64(n, d);
                ((n / g) as u128, (d / g) as u128)
            }
            _ => {
                let (n, d) = (num.unsigned_abs(), den.unsigned_abs());
                let g = gcd_u128(n, d);
                (n / g, d / g)
            }
        };
        let den = i128::try_from(d).expect("rational denominator overflowed i128");
        let num = if negative {
            // `n` ≤ 2^127, and −2^127 is representable.
            0i128.checked_sub_unsigned(n)
        } else {
            i128::try_from(n).ok()
        }
        .expect("rational numerator overflowed i128");
        Rational { num, den }
    }

    /// Creates the integer `n`.
    pub fn from_int(n: i128) -> Self {
        Rational { num: n, den: 1 }
    }

    /// Numerator (reduced form, sign-carrying).
    pub fn numerator(self) -> i128 {
        self.num
    }

    /// Denominator (reduced form, always positive).
    pub fn denominator(self) -> i128 {
        self.den
    }

    /// Lossy conversion for reporting.
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// `true` iff the value is exactly zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// `true` iff the value is strictly positive.
    pub fn is_positive(self) -> bool {
        self.num > 0
    }

    /// `(num, den)` as `i64`s, if both fit — the fast-path range.
    #[inline]
    pub(crate) fn to_i64_parts(self) -> Option<(i64, i64)> {
        Some((narrow(self.num)?, narrow(self.den)?))
    }

    fn checked_add_impl(self, rhs: Rational) -> Option<Rational> {
        // a/b + c/d = (a·(l/b) + c·(l/d)) / l with l = lcm(b, d).
        if let (Some((a, b)), Some((c, d))) = (self.to_i64_parts(), rhs.to_i64_parts()) {
            // |a·(d/g)|, |c·(b/g)| and l are below 2^126, so nothing here
            // can overflow i128.
            let g = gcd_u64(b as u64, d as u64) as i64;
            let (b_g, d_g) = (b / g, d / g);
            let sum = a as i128 * d_g as i128 + c as i128 * b_g as i128;
            return Some(Rational::new(sum, b_g as i128 * d as i128));
        }
        let g = gcd_u128(self.den as u128, rhs.den as u128) as i128;
        let l = (self.den / g).checked_mul(rhs.den)?;
        let lhs = self.num.checked_mul(l / self.den)?;
        let rhs_t = rhs.num.checked_mul(l / rhs.den)?;
        Some(Rational::new(lhs.checked_add(rhs_t)?, l))
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        self.checked_add_impl(rhs)
            .expect("rational addition overflowed i128")
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        let num = rhs
            .num
            .checked_neg()
            .expect("rational negation overflowed i128");
        self.checked_add_impl(Rational { num, den: rhs.den })
            .expect("rational subtraction overflowed i128")
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Cross-multiplication with positive denominators preserves order.
        if let (Some((a, b)), Some((c, d))) = (self.to_i64_parts(), other.to_i64_parts()) {
            return (a as i128 * d as i128).cmp(&(c as i128 * b as i128));
        }
        let lhs = self
            .num
            .checked_mul(other.den)
            .expect("rational comparison overflowed i128");
        let rhs = other
            .num
            .checked_mul(self.den)
            .expect("rational comparison overflowed i128");
        lhs.cmp(&rhs)
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_and_signs() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, 5), Rational::ZERO);
        assert_eq!(Rational::new(7, 1), Rational::from_int(7));
    }

    #[test]
    fn ordering_is_exact() {
        let a = Rational::new(1, 3);
        let b = Rational::new(2, 6);
        let c = Rational::new(333_333_333, 1_000_000_000);
        assert_eq!(a, b);
        assert!(c < a, "1/3 > 0.333333333 exactly");
        assert!(Rational::new(-1, 2) < Rational::ZERO);
        assert!(Rational::ONE > Rational::new(999_999, 1_000_000));
    }

    #[test]
    fn arithmetic() {
        let half = Rational::new(1, 2);
        let third = Rational::new(1, 3);
        assert_eq!(half + third, Rational::new(5, 6));
        assert_eq!(half - third, Rational::new(1, 6));
        assert_eq!(third + third + third, Rational::ONE);
        assert!((half.to_f64() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn predicates() {
        assert!(Rational::ZERO.is_zero());
        assert!(!Rational::ZERO.is_positive());
        assert!(Rational::new(3, 7).is_positive());
        assert_eq!(Rational::new(3, 7).numerator(), 3);
        assert_eq!(Rational::new(3, 7).denominator(), 7);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Rational::new(3, 7)), "3/7");
        assert_eq!(format!("{}", Rational::from_int(4)), "4");
        assert_eq!(format!("{:?}", Rational::new(-1, 2)), "-1/2");
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        Rational::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "rational denominator overflowed i128")]
    fn denominator_i128_min_panics() {
        // 1 / i128::MIN normalizes to −1 / 2^127, whose denominator does
        // not fit in i128.
        Rational::new(1, i128::MIN);
    }

    #[test]
    #[should_panic(expected = "rational numerator overflowed i128")]
    fn numerator_i128_min_over_minus_one_panics() {
        Rational::new(i128::MIN, -1);
    }

    #[test]
    fn i128_min_operands_that_fit_after_reduction() {
        assert_eq!(Rational::new(i128::MIN, 1).numerator(), i128::MIN);
        assert_eq!(Rational::new(i128::MIN, i128::MIN), Rational::ONE);
        assert_eq!(Rational::new(2, i128::MIN), Rational::new(-1, 1 << 126));
        assert_eq!(Rational::new(0, i128::MIN), Rational::ZERO);
    }

    #[test]
    fn distinguishes_tiny_differences_f64_conflates() {
        // Two weights whose f64 images are identical but which differ exactly.
        let a = Rational::new(1, 10_000_000_000_000_000_000_000_000i128);
        let b = Rational::new(2, 10_000_000_000_000_000_000_000_000i128);
        assert!(a < b);
        assert_eq!(a.to_f64(), b.to_f64() / 2.0);
    }
}
