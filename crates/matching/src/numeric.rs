//! Exact rational arithmetic for edge weights.
//!
//! Every quantity in the paper's weight formula (eq. 9) is a ratio of small
//! integers: ranks, list lengths and quotas. Using exact rationals instead of
//! `f64` makes *locally heaviest* comparisons exact, which in turn makes the
//! LIC ≡ LID equivalence (Theorem 3) testable bit-for-bit and rules out the
//! float-tie pathologies (`distinguishes_tiny_differences_f64_conflates`
//! below constructs one).

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Sub};

/// An exact rational number `num/den` with `den > 0`, stored reduced.
///
/// Arithmetic uses `i128` and panics on overflow; after gcd reduction the
/// values arising from eq. 9 stay far below the overflow range for every
/// instance size this repository can hold in memory (see `DESIGN.md` §3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Rational {
    num: i128,
    den: i128,
}

const fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    if a < 0 {
        -a
    } else {
        a
    }
}

impl Rational {
    /// Zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// One.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates `num/den`, reduced and sign-normalized.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "rational with zero denominator");
        let g = gcd(num, den);
        let (mut num, mut den) = if g == 0 { (0, 1) } else { (num / g, den / g) };
        if den < 0 {
            num = -num;
            den = -den;
        }
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

    fn checked_add_impl(self, rhs: Rational) -> Option<Rational> {
        // a/b + c/d = (a·(l/b) + c·(l/d)) / l with l = lcm(b, d).
        let g = gcd(self.den, rhs.den);
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
        self + Rational::new(-rhs.num, rhs.den)
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
    fn distinguishes_tiny_differences_f64_conflates() {
        // Two weights whose f64 images are identical but which differ exactly.
        let a = Rational::new(1, 10_000_000_000_000_000_000_000_000i128);
        let b = Rational::new(2, 10_000_000_000_000_000_000_000_000i128);
        assert!(a < b);
        assert_eq!(a.to_f64(), b.to_f64() / 2.0);
    }
}
