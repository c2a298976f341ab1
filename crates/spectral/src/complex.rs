//! Minimal complex arithmetic for the FFT kernels.
//!
//! The workspace deliberately avoids pulling in `num-complex`; spectral
//! analysis here needs only a handful of operations on `f64` pairs, and
//! keeping the type local lets the FFT inner loops stay fully inlineable.

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Creates a complex number from rectangular coordinates.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_re(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// `e^{iθ}`: the unit complex number at angle `theta` radians.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Complex { re: c, im: s }
    }

    /// Magnitude `|z| = sqrt(re² + im²)`.
    ///
    /// Uses `hypot` for robustness against overflow/underflow of the
    /// intermediate squares.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `re² + im²` (cheaper than [`Complex::abs`] when only
    /// comparisons are needed).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase angle) in `(-π, π]`.
    #[inline]
    pub(crate) fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex { re: self.re, im: -self.im }
    }

    /// Scales both components by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex { re: self.re * k, im: self.im * k }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex { re: self.re * rhs.re - self.im * rhs.im, im: self.re * rhs.im + self.im * rhs.re }
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex { re: self.re / rhs, im: self.im / rhs }
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex { re: -self.re, im: -self.im }
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Complex::from_re(re)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn construction_and_constants() {
        assert_eq!(Complex::new(1.0, 2.0).re, 1.0);
        assert_eq!(Complex::new(1.0, 2.0).im, 2.0);
        assert_eq!(Complex::ZERO, Complex::new(0.0, 0.0));
        assert_eq!(Complex::ONE, Complex::new(1.0, 0.0));
        assert_eq!(Complex::from(3.5), Complex::from_re(3.5));
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex::new(3.0, -4.0);
        assert_eq!(z + Complex::ZERO, z);
        assert_eq!(z * Complex::ONE, z);
        assert_eq!(z - z, Complex::ZERO);
        assert_eq!(-z, Complex::new(-3.0, 4.0));
    }

    #[test]
    fn multiplication_matches_definition() {
        // (1 + 2i)(3 + 4i) = 3 + 4i + 6i + 8i² = -5 + 10i
        let p = Complex::new(1.0, 2.0) * Complex::new(3.0, 4.0);
        assert!(close(p.re, -5.0) && close(p.im, 10.0));
    }

    #[test]
    fn i_squared_is_minus_one() {
        let i = Complex::new(0.0, 1.0);
        let sq = i * i;
        assert!(close(sq.re, -1.0) && close(sq.im, 0.0));
    }

    #[test]
    fn abs_and_norm() {
        let z = Complex::new(3.0, 4.0);
        assert!(close(z.abs(), 5.0));
        assert!(close(z.norm_sqr(), 25.0));
    }

    #[test]
    fn abs_is_robust_to_extreme_magnitudes() {
        let z = Complex::new(1e200, 1e200);
        assert!(z.abs().is_finite());
    }

    #[test]
    fn arg_quadrants() {
        use std::f64::consts::{FRAC_PI_2, PI};
        assert!(close(Complex::new(1.0, 0.0).arg(), 0.0));
        assert!(close(Complex::new(0.0, 1.0).arg(), FRAC_PI_2));
        assert!(close(Complex::new(-1.0, 0.0).arg(), PI));
        assert!(close(Complex::new(0.0, -1.0).arg(), -FRAC_PI_2));
    }

    #[test]
    fn cis_lies_on_unit_circle() {
        for k in 0..32 {
            let theta = k as f64 * 0.3;
            let z = Complex::cis(theta);
            assert!(close(z.abs(), 1.0));
            // Argument matches up to 2π wrapping.
            let diff = (z.arg() - theta).rem_euclid(std::f64::consts::TAU);
            assert!(!(1e-9..=std::f64::consts::TAU - 1e-9).contains(&diff));
        }
    }

    #[test]
    fn conjugate_multiplication_gives_norm() {
        let z = Complex::new(2.0, -7.0);
        let p = z * z.conj();
        assert!(close(p.re, z.norm_sqr()) && close(p.im, 0.0));
    }

    #[test]
    fn real_scaling() {
        let z = Complex::new(1.5, -2.5);
        assert_eq!(z * 2.0, Complex::new(3.0, -5.0));
        assert_eq!(z / 2.0, Complex::new(0.75, -1.25));
        assert_eq!(z.scale(0.0), Complex::ZERO);
    }
}
