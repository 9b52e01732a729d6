//! Complex arithmetic over `f64`.
//!
//! A deliberately small, allocation-free complex type. It implements the
//! operator traits against both `Complex` and scalar `f64` operands, plus the
//! handful of transcendental helpers the rest of the workspace needs
//! (`exp_j`, `from_polar`, `arg`, …).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + j·im` with `f64` components.
///
/// `repr(C)` pins the `[re, im]` field order so slices of `Complex` can be
/// reinterpreted as interleaved `f64` lanes by vectorized kernels such as
/// the [`crate::fir`] gather kernel.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex {
    /// Real (in-phase) component.
    pub re: f64,
    /// Imaginary (quadrature) component.
    pub im: f64,
}

impl Complex {
    /// The additive identity, `0 + 0j`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0j`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit, `0 + 1j`.
    pub const J: Complex = Complex { re: 0.0, im: 1.0 };

    /// Construct from rectangular components.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Construct a purely real value.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Construct from polar form `r·e^{jθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex::new(r * theta.cos(), r * theta.sin())
    }

    /// The unit phasor `e^{jθ}`. This is the tag's modulation primitive:
    /// BackFi tags multiply the incident WiFi signal by `exp_j(θ)`.
    #[inline]
    pub fn exp_j(theta: f64) -> Self {
        Complex::new(theta.cos(), theta.sin())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²` (avoids the square root; this is the
    /// instantaneous power of a baseband sample).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Phase angle in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`. Returns `NaN` components for zero input.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Complex::new(self.re / d, -self.im / d)
    }

    /// Scale by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex::new(self.re * k, self.im * k)
    }

    /// Complex square root (principal branch).
    pub fn sqrt(self) -> Self {
        let r = self.abs();
        let theta = self.arg();
        Complex::from_polar(r.sqrt(), theta / 2.0)
    }

    /// `e^z` for complex `z`.
    pub fn exp(self) -> Self {
        Complex::from_polar(self.re.exp(), self.im)
    }

    /// True when either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// True when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Debug for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}j", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}j", self.re, -self.im)
        }
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Complex::real(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // division via reciprocal
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Add<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: f64) -> Complex {
        Complex::new(self.re + rhs, self.im)
    }
}

impl Sub<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: f64) -> Complex {
        Complex::new(self.re - rhs, self.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl MulAssign<f64> for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        self.re *= rhs;
        self.im *= rhs;
    }
}

impl DivAssign<f64> for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: f64) {
        self.re /= rhs;
        self.im /= rhs;
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Complex> for Complex {
    fn sum<I: Iterator<Item = &'a Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |a, b| a + *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn basic_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -4.0);
        assert!(close(a + b, Complex::new(4.0, -2.0)));
        assert!(close(a - b, Complex::new(-2.0, 6.0)));
        assert!(close(a * b, Complex::new(11.0, 2.0)));
        assert!(close((a / b) * b, a));
    }

    #[test]
    fn j_squared_is_minus_one() {
        assert!(close(Complex::J * Complex::J, -Complex::ONE));
    }

    #[test]
    fn polar_roundtrip() {
        for &(r, t) in &[(1.0, 0.3), (2.5, -1.2), (0.0, 0.0), (10.0, PI - 1e-6)] {
            let z = Complex::from_polar(r, t);
            assert!((z.abs() - r).abs() < 1e-12);
            if r > 0.0 {
                assert!((z.arg() - t).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn exp_j_is_unit_modulus() {
        for k in 0..100 {
            let t = k as f64 * 0.1 - 5.0;
            assert!((Complex::exp_j(t).abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn exp_j_quadrature() {
        assert!(close(Complex::exp_j(0.0), Complex::ONE));
        assert!(close(Complex::exp_j(FRAC_PI_2), Complex::J));
        assert!(close(Complex::exp_j(PI), -Complex::ONE));
    }

    #[test]
    fn conj_properties() {
        let a = Complex::new(1.5, -0.5);
        assert!(close(a.conj().conj(), a));
        assert!((a * a.conj()).im.abs() < 1e-12);
        assert!(((a * a.conj()).re - a.norm_sqr()).abs() < 1e-12);
    }

    #[test]
    fn recip_inverts() {
        let a = Complex::new(3.0, 4.0);
        assert!(close(a * a.recip(), Complex::ONE));
    }

    #[test]
    fn sqrt_squares_back() {
        for &z in &[
            Complex::new(4.0, 0.0),
            Complex::new(0.0, 2.0),
            Complex::new(-1.0, 0.0),
            Complex::new(3.0, -4.0),
        ] {
            let s = z.sqrt();
            assert!((s * s - z).abs() < 1e-9, "z={z:?}");
        }
    }

    #[test]
    fn scalar_ops() {
        let a = Complex::new(1.0, -1.0);
        assert!(close(a * 2.0, Complex::new(2.0, -2.0)));
        assert!(close(2.0 * a, a * 2.0));
        assert!(close(a / 2.0, Complex::new(0.5, -0.5)));
        assert!(close(a + 1.0, Complex::new(2.0, -1.0)));
    }

    #[test]
    fn sum_iterator() {
        let v = [Complex::ONE; 10];
        let s: Complex = v.iter().sum();
        assert!(close(s, Complex::real(10.0)));
    }
}
