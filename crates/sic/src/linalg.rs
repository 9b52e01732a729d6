//! Small dense complex linear algebra.
//!
//! Just enough for regularized least squares on FIR channel estimation
//! problems (matrix sizes ≤ ~64). Gaussian elimination with partial pivoting
//! on the (Hermitian, ridge-regularized) normal equations is numerically
//! adequate at these sizes and condition numbers.

use backfi_dsp::Complex;

/// A dense row-major complex matrix.
#[derive(Clone, Debug)]
pub struct CMat {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl CMat {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMat {
            rows,
            cols,
            data: vec![Complex::ZERO; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = CMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex::ONE;
        }
        m
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    /// Panics if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[Complex]) -> Vec<Complex> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        (0..self.rows)
            .map(|r| {
                let row = &self.data[r * self.cols..(r + 1) * self.cols];
                row.iter().zip(x).map(|(a, b)| *a * *b).sum()
            })
            .collect()
    }

    /// Add `lambda` to the diagonal (ridge regularization).
    pub fn add_diag(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += Complex::real(lambda);
        }
    }
}

impl std::ops::Index<(usize, usize)> for CMat {
    type Output = Complex;
    fn index(&self, (r, c): (usize, usize)) -> &Complex {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for CMat {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex {
        &mut self.data[r * self.cols + c]
    }
}

/// Solve the square system `A·x = b` by Gaussian elimination with partial
/// pivoting. Returns `None` when the matrix is numerically singular, or when
/// any input entry is non-finite — a NaN/∞ observation window must surface
/// as an estimation failure, not propagate silently into canceller taps.
/// One-shot form of [`Lu::factor`] then [`Lu::solve`].
///
/// # Panics
/// Panics on dimension mismatch.
pub fn solve(a: &CMat, b: &[Complex]) -> Option<Vec<Complex>> {
    assert_eq!(b.len(), a.rows, "rhs dimension mismatch");
    Lu::factor(a)?.solve(b)
}

/// The elimination [`solve`] runs on a matrix, kept so that many right-hand
/// sides can share it: a least-squares fit whose normal matrix depends only
/// on its input factors the matrix once and replays the elimination on each
/// new cross-correlation vector.
///
/// `lu` holds the upper factor on and above the diagonal and, below it,
/// the multiplier each elimination step applied to each row (the positions
/// elimination never reads again; a pivot swap moves only the columns from
/// its step on). [`Lu::solve`] replays the swaps and multipliers on `b` in
/// the order the elimination took them, so `Lu::factor(a)?.solve(b)`
/// performs exactly the floating-point operations of eliminating the
/// augmented system `[a | b]` in one pass.
#[derive(Clone, Debug)]
pub struct Lu {
    n: usize,
    lu: Vec<Complex>,
    /// The row swapped into row `col` at elimination step `col`.
    pivots: Vec<usize>,
}

impl Lu {
    /// Factor `a`, or `None` when it is numerically singular or holds a
    /// non-finite entry.
    ///
    /// # Panics
    /// Panics if `a` is not square.
    pub fn factor(a: &CMat) -> Option<Lu> {
        assert_eq!(a.rows, a.cols, "solve needs a square matrix");
        if !a.data.iter().all(|v| v.is_finite()) {
            return None;
        }
        let n = a.rows;
        let mut m = a.data.clone();
        let mut pivots = Vec::with_capacity(n);
        for col in 0..n {
            // Pivot: largest magnitude in this column at/below the diagonal.
            let mut pivot = col;
            let mut best = m[col * n + col].norm_sqr();
            for r in col + 1..n {
                let v = m[r * n + col].norm_sqr();
                if v > best {
                    best = v;
                    pivot = r;
                }
            }
            if best < 1e-300 {
                return None;
            }
            if pivot != col {
                for c in col..n {
                    m.swap(col * n + c, pivot * n + c);
                }
            }
            pivots.push(pivot);
            let diag = m[col * n + col];
            let inv = diag.recip();
            for r in col + 1..n {
                let factor = m[r * n + col] * inv;
                m[r * n + col] = factor;
                if factor == Complex::ZERO {
                    continue;
                }
                for c in col + 1..n {
                    let v = m[col * n + c];
                    m[r * n + c] -= factor * v;
                }
            }
        }
        Some(Lu { n, lu: m, pivots })
    }

    /// Solve `A·x = b` for the factored `A`, or `None` when `b` holds a
    /// non-finite entry.
    ///
    /// # Panics
    /// Panics if `b.len()` is not the matrix order.
    pub fn solve(&self, b: &[Complex]) -> Option<Vec<Complex>> {
        let n = self.n;
        assert_eq!(b.len(), n, "rhs dimension mismatch");
        if !b.iter().all(|v| v.is_finite()) {
            return None;
        }
        let m = &self.lu;
        let mut rhs = b.to_vec();
        for (col, &pivot) in self.pivots.iter().enumerate() {
            rhs.swap(col, pivot);
            for r in col + 1..n {
                let factor = m[r * n + col];
                if factor == Complex::ZERO {
                    continue;
                }
                let v = rhs[col];
                rhs[r] -= factor * v;
            }
        }
        // Back substitution.
        let mut x = vec![Complex::ZERO; n];
        for row in (0..n).rev() {
            let mut acc = rhs[row];
            for c in row + 1..n {
                acc -= m[row * n + c] * x[c];
            }
            x[row] = acc * m[row * n + row].recip();
        }
        Some(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    /// The one-pass elimination of the augmented system `[a | b]` that
    /// [`solve`] ran before it was split into [`Lu::factor`] and
    /// [`Lu::solve`]: the bit-exact oracle both are held to.
    fn solve_reference(a: &CMat, b: &[Complex]) -> Option<Vec<Complex>> {
        assert_eq!(a.rows, a.cols, "solve needs a square matrix");
        assert_eq!(b.len(), a.rows, "rhs dimension mismatch");
        if !a.data.iter().all(|v| v.is_finite()) || !b.iter().all(|v| v.is_finite()) {
            return None;
        }
        let n = a.rows;
        let mut m = a.data.clone();
        let mut rhs = b.to_vec();
        for col in 0..n {
            let mut pivot = col;
            let mut best = m[col * n + col].norm_sqr();
            for r in col + 1..n {
                let v = m[r * n + col].norm_sqr();
                if v > best {
                    best = v;
                    pivot = r;
                }
            }
            if best < 1e-300 {
                return None;
            }
            if pivot != col {
                for c in 0..n {
                    m.swap(col * n + c, pivot * n + c);
                }
                rhs.swap(col, pivot);
            }
            let inv = m[col * n + col].recip();
            for r in col + 1..n {
                let factor = m[r * n + col] * inv;
                if factor == Complex::ZERO {
                    continue;
                }
                for c in col..n {
                    let v = m[col * n + c];
                    m[r * n + c] -= factor * v;
                }
                let v = rhs[col];
                rhs[r] -= factor * v;
            }
        }
        let mut x = vec![Complex::ZERO; n];
        for row in (0..n).rev() {
            let mut acc = rhs[row];
            for c in row + 1..n {
                acc -= m[row * n + c] * x[c];
            }
            x[row] = acc * m[row * n + row].recip();
        }
        Some(x)
    }

    fn bits(v: &Option<Vec<Complex>>) -> Option<Vec<(u64, u64)>> {
        v.as_ref()
            .map(|v| v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect())
    }

    /// A deterministic xorshift stream of uniform values in [−0.5, 0.5).
    fn uniform(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        }
    }

    /// A random Hermitian `n × n` matrix `G·Gᴴ + ridge·I`: the shape of the
    /// ridge-regularized normal equations. A tiny ridge with `n` above the
    /// rank of `G` makes it ill-conditioned.
    fn hermitian(n: usize, rank: usize, ridge: f64, seed: u64) -> CMat {
        let mut next = uniform(seed);
        let g: Vec<Complex> = (0..n * rank).map(|_| c(next(), next())).collect();
        let mut a = CMat::zeros(n, n);
        for r in 0..n {
            for col in 0..n {
                let mut acc = Complex::ZERO;
                for k in 0..rank {
                    acc += g[r * rank + k] * g[col * rank + k].conj();
                }
                a[(r, col)] = acc;
            }
        }
        a.add_diag(ridge);
        a
    }

    #[test]
    fn factor_then_solve_is_bitwise_the_one_pass_elimination() {
        for seed in 1..=30u64 {
            let n = 1 + (seed as usize % 7) * 5; // 1, 6, …, 31
                                                 // Tridiagonal: most multipliers are exactly zero, the skipped
                                                 // rows of the elimination.
            let mut banded = hermitian(n, n + 3, 1e-3, seed);
            for r in 0..n {
                for col in 0..n {
                    if r.abs_diff(col) > 1 {
                        banded[(r, col)] = Complex::ZERO;
                    }
                }
                banded[(r, r)] += Complex::real(2.0);
            }
            let cases = [
                ("well-conditioned", hermitian(n, n + 3, 1e-3, seed)),
                ("ill-conditioned", hermitian(n, n / 2 + 1, 1e-12, seed)),
                ("tridiagonal", banded),
            ];
            for (what, a) in cases {
                let lu = Lu::factor(&a).expect("regularized system factors");
                let mut next = uniform(seed.wrapping_mul(977));
                // One factor replayed on many right-hand sides.
                for k in 0..8 {
                    let b: Vec<Complex> = (0..n).map(|_| c(next(), next())).collect();
                    let want = bits(&solve_reference(&a, &b));
                    assert!(want.is_some(), "{what} seed {seed}: oracle failed");
                    assert_eq!(bits(&lu.solve(&b)), want, "{what} seed {seed} rhs {k}");
                    assert_eq!(bits(&solve(&a, &b)), want, "{what} seed {seed} rhs {k}");
                }
            }
        }
    }

    #[test]
    fn factor_rejects_singular_and_non_finite_like_the_oracle() {
        let mut singular = CMat::zeros(3, 3);
        for r in 0..3 {
            for col in 0..3 {
                singular[(r, col)] = c((r + 1) as f64 * (col + 1) as f64, 0.0);
            }
        }
        let b = vec![Complex::ONE; 3];
        assert!(solve_reference(&singular, &b).is_none());
        assert!(Lu::factor(&singular).is_none());

        let mut nan = hermitian(4, 6, 1e-3, 5);
        nan[(2, 1)] = c(f64::NAN, 0.0);
        assert!(solve_reference(&nan, &[Complex::ONE; 4]).is_none());
        assert!(Lu::factor(&nan).is_none());

        let ok = hermitian(4, 6, 1e-3, 6);
        let lu = Lu::factor(&ok).unwrap();
        for bad in [c(f64::INFINITY, 0.0), c(0.0, f64::NAN)] {
            let mut b = vec![Complex::ONE; 4];
            b[3] = bad;
            assert!(solve_reference(&ok, &b).is_none());
            assert!(lu.solve(&b).is_none());
            assert!(solve(&ok, &b).is_none());
        }
    }

    #[test]
    fn identity_solve() {
        let a = CMat::eye(4);
        let b: Vec<Complex> = (0..4).map(|i| c(i as f64, -(i as f64))).collect();
        assert_eq!(solve(&a, &b).unwrap(), b);
    }

    #[test]
    fn known_2x2() {
        let mut a = CMat::zeros(2, 2);
        a[(0, 0)] = c(2.0, 0.0);
        a[(0, 1)] = c(0.0, 1.0);
        a[(1, 0)] = c(0.0, -1.0);
        a[(1, 1)] = c(3.0, 0.0);
        let x_true = vec![c(1.0, 1.0), c(-2.0, 0.5)];
        let b = a.mul_vec(&x_true);
        let x = solve(&a, &b).unwrap();
        for (g, t) in x.iter().zip(&x_true) {
            assert!((*g - *t).abs() < 1e-12);
        }
    }

    #[test]
    fn random_system_roundtrip() {
        // Deterministic pseudo-random well-conditioned system.
        let n = 16;
        let mut a = CMat::zeros(n, n);
        let mut s = 0xABCDEFu64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        for r in 0..n {
            for col in 0..n {
                a[(r, col)] = c(next(), next());
            }
            a[(r, r)] += Complex::real(4.0); // diagonal dominance
        }
        let x_true: Vec<Complex> = (0..n)
            .map(|i| c(i as f64 * 0.3, 1.0 - i as f64 * 0.1))
            .collect();
        let b = a.mul_vec(&x_true);
        let x = solve(&a, &b).unwrap();
        for (g, t) in x.iter().zip(&x_true) {
            assert!((*g - *t).abs() < 1e-9);
        }
    }

    #[test]
    fn singular_returns_none() {
        let mut a = CMat::zeros(2, 2);
        a[(0, 0)] = c(1.0, 0.0);
        a[(0, 1)] = c(2.0, 0.0);
        a[(1, 0)] = c(2.0, 0.0);
        a[(1, 1)] = c(4.0, 0.0);
        assert!(solve(&a, &[Complex::ONE, Complex::ONE]).is_none());
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let mut a = CMat::zeros(2, 2);
        a[(0, 0)] = Complex::ZERO;
        a[(0, 1)] = c(1.0, 0.0);
        a[(1, 0)] = c(1.0, 0.0);
        a[(1, 1)] = Complex::ZERO;
        let x = solve(&a, &[c(3.0, 0.0), c(5.0, 0.0)]).unwrap();
        assert!((x[0] - c(5.0, 0.0)).abs() < 1e-12);
        assert!((x[1] - c(3.0, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn ridge_makes_singular_solvable() {
        let mut a = CMat::zeros(2, 2);
        a[(0, 0)] = c(1.0, 0.0);
        a[(0, 1)] = c(1.0, 0.0);
        a[(1, 0)] = c(1.0, 0.0);
        a[(1, 1)] = c(1.0, 0.0);
        a.add_diag(0.1);
        assert!(solve(&a, &[Complex::ONE, Complex::ONE]).is_some());
    }
}
