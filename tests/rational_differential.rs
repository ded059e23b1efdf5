//! Differential test of `Rational` against a reference copy of its plain
//! `i128` implementation (signed Euclid gcd, checked products, no native
//! fast paths).
//!
//! Seeded loops, as in `tests/proptest_invariants.rs`: operands are drawn
//! around the `i64` boundary (`i64::MIN`, `i64::MAX`, ±2⁶³, zero, negative
//! denominators) and well inside and outside it, so both the fast and the
//! exact paths run. For every `new`, `+`, `-` and `cmp`, the two
//! implementations must return the same reduced value, or both panic.
//! `i128::MIN` operands are left to the unit tests in `numeric.rs`: the
//! reference negates them with overflow.

use owp_matching::Rational;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The `i128`-only implementation the fast paths must agree with.
mod reference {
    use std::cmp::Ordering;

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Rational {
        pub num: i128,
        pub den: i128,
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

        pub fn add(self, rhs: Rational) -> Rational {
            let g = gcd(self.den, rhs.den);
            let l = (self.den / g).checked_mul(rhs.den).expect("overflow");
            let lhs = self.num.checked_mul(l / self.den).expect("overflow");
            let rhs_t = rhs.num.checked_mul(l / rhs.den).expect("overflow");
            Rational::new(lhs.checked_add(rhs_t).expect("overflow"), l)
        }

        pub fn sub(self, rhs: Rational) -> Rational {
            self.add(Rational::new(-rhs.num, rhs.den))
        }

        pub fn cmp(self, other: Rational) -> Ordering {
            let lhs = self.num.checked_mul(other.den).expect("overflow");
            let rhs = other.num.checked_mul(self.den).expect("overflow");
            lhs.cmp(&rhs)
        }
    }
}

const TWO_63: i128 = 1 << 63;

/// Values on and next to the `i64` boundary.
const EDGES: [i128; 14] = [
    0,
    1,
    -1,
    2,
    i64::MAX as i128,
    i64::MAX as i128 - 1,
    i64::MIN as i128,
    i64::MIN as i128 + 1,
    TWO_63,
    TWO_63 + 1,
    -TWO_63 - 1,
    TWO_63 * 2,
    -(TWO_63 * 2),
    3 * 5 * 7 * (1 << 40),
];

fn draw(rng: &mut StdRng) -> i128 {
    match rng.gen_range(0u32..6) {
        0 => EDGES[rng.gen_range(0..EDGES.len())],
        1 => EDGES[rng.gen_range(0..EDGES.len())] + rng.gen_range(-3i64..=3) as i128,
        2 => rng.gen_range(-1000i64..=1000) as i128,
        3 => rng.gen_range(i64::MIN..=i64::MAX) as i128,
        4 => (rng.gen_range(i64::MIN..=i64::MAX) as i128) << rng.gen_range(0u32..8),
        _ => (rng.gen_range(-(1i64 << 20)..=1 << 20) as i128) * 2 * 3 * 5 * 7,
    }
}

fn draw_nonzero(rng: &mut StdRng) -> i128 {
    match draw(rng) {
        0 => -1,
        d => d,
    }
}

/// Runs `f`, mapping a panic to `None`.
fn outcome<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

fn parts(r: Rational) -> (i128, i128) {
    (r.numerator(), r.denominator())
}

fn reference_parts(r: reference::Rational) -> (i128, i128) {
    (r.num, r.den)
}

#[test]
fn rational_matches_the_i128_reference() {
    let mut rng = StdRng::seed_from_u64(0x05A7_1064);
    let mut fast_and_wide = [0u32; 2];
    let mut defined_sums = 0u32;
    for case in 0..20_000 {
        let (a, b, c, d) = (
            draw(&mut rng),
            draw_nonzero(&mut rng),
            draw(&mut rng),
            draw_nonzero(&mut rng),
        );
        let ctx = format!("case {case}: {a}/{b} and {c}/{d}");
        let (x, y) = (Rational::new(a, b), Rational::new(c, d));
        let (rx, ry) = (
            reference::Rational::new(a, b),
            reference::Rational::new(c, d),
        );
        assert_eq!(parts(x), reference_parts(rx), "{ctx}: new");
        assert_eq!(parts(y), reference_parts(ry), "{ctx}: new");
        assert!(x.denominator() > 0 && y.denominator() > 0, "{ctx}: den > 0");
        let narrow = |r: Rational| {
            i64::try_from(r.numerator()).is_ok() && i64::try_from(r.denominator()).is_ok()
        };
        fast_and_wide[(narrow(x) && narrow(y)) as usize] += 1;

        let sum = outcome(|| parts(x + y));
        assert_eq!(sum, outcome(|| reference_parts(rx.add(ry))), "{ctx}: +");
        defined_sums += sum.is_some() as u32;
        assert_eq!(
            outcome(|| parts(x - y)),
            outcome(|| reference_parts(rx.sub(ry))),
            "{ctx}: -"
        );
        assert_eq!(outcome(|| x.cmp(&y)), outcome(|| rx.cmp(ry)), "{ctx}: cmp");
    }
    assert!(
        fast_and_wide.iter().all(|&k| k > 1000),
        "both paths exercised: {fast_and_wide:?} (wide, narrow)"
    );
    assert!(
        defined_sums > 15_000,
        "only {defined_sums} sums fit in i128"
    );
}

#[test]
fn boundary_values_reduce_like_the_reference() {
    for &a in &EDGES {
        for &b in EDGES.iter().filter(|&&b| b != 0) {
            let got = parts(Rational::new(a, b));
            assert_eq!(
                got,
                reference_parts(reference::Rational::new(a, b)),
                "{a}/{b}"
            );
        }
    }
}
