//! Minimal complex arithmetic used by the FFT kernels.
//!
//! The paper's frequency machinery (Eq. 6–10) needs complex spectra with
//! enough precision that *amplitude ranking* of near-tied bins is stable, so
//! all FFT internals run in `f64` even though the model tensors are `f32`.

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `j`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular coordinates.
    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub fn from_re(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// `e^{jθ}` — the unit phasor with angle `theta` (radians).
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Self { re: c, im: s }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self { re: self.re, im: -self.im }
    }

    /// Squared modulus `re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus (the *amplitude* of Eq. 7).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase angle) in radians.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Self { re: self.re * s, im: self.im * s }
    }

    /// Multiplicative inverse; returns `ZERO` for the zero input.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        if d == 0.0 {
            Self::ZERO
        } else {
            Self { re: self.re / d, im: -self.im / d }
        }
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        // `self * rhs.recip()`, with the product written out.
        let r = rhs.recip();
        Self { re: self.re * r.re - self.im * r.im, im: self.re * r.im + self.im * r.re }
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Self {
        Self { re: -self.re, im: -self.im }
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Self::from_re(re)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex64, b: Complex64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(3.0, -4.0);
        assert!(close(z + Complex64::ZERO, z));
        assert!(close(z * Complex64::ONE, z));
        assert!(close(z * z.recip(), Complex64::ONE));
        assert!(close(z - z, Complex64::ZERO));
        assert!(close(-z + z, Complex64::ZERO));
    }

    #[test]
    fn modulus_and_conjugate() {
        let z = Complex64::new(3.0, -4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert!(close(z * z.conj(), Complex64::from_re(25.0)));
    }

    #[test]
    fn cis_is_unit_phasor() {
        for k in 0..16 {
            let theta = k as f64 * std::f64::consts::PI / 8.0;
            let z = Complex64::cis(theta);
            assert!((z.abs() - 1.0).abs() < 1e-12);
            assert!((z.arg() - theta).rem_euclid(2.0 * std::f64::consts::PI) < 1e-9
                || (theta - z.arg()).rem_euclid(2.0 * std::f64::consts::PI) < 1e-9);
        }
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!(close(Complex64::I * Complex64::I, Complex64::from_re(-1.0)));
    }

    #[test]
    fn division_matches_multiplication_by_reciprocal() {
        let a = Complex64::new(1.5, 2.5);
        let b = Complex64::new(-0.5, 0.25);
        assert!(close(a / b, a * b.recip()));
    }

    #[test]
    fn mul_assign_and_add_assign() {
        let mut z = Complex64::new(1.0, 1.0);
        z *= Complex64::new(0.0, 1.0);
        assert!(close(z, Complex64::new(-1.0, 1.0)));
        z += Complex64::ONE;
        assert!(close(z, Complex64::new(0.0, 1.0)));
    }
}
