//! Linear least squares via normal equations.
//!
//! The empirical forms of Section 3.4 are all linear in their coefficients
//! once the basis functions (powers, cube roots, products) are evaluated,
//! so ordinary least squares suffices. Systems here are tiny (≤ 6
//! unknowns), so normal equations with partial-pivot Gaussian elimination
//! are numerically comfortable.

use crate::error::CellError;

/// Solves `min ‖A·k − y‖₂` for `k`, where row `i` of `A` is
/// `basis(xᵢ)`.
///
/// # Errors
///
/// * [`CellError::TooFewPoints`] when there are fewer rows than unknowns;
/// * [`CellError::SingularFit`] when the normal matrix is singular (e.g. a
///   degenerate grid that leaves a basis function constant).
///
/// # Panics
///
/// Panics if rows have inconsistent lengths or `rows.len() != y.len()`.
// Index loops mirror the textbook matrix formulas; iterators obscure them.
#[allow(clippy::needless_range_loop)]
pub fn solve(rows: &[Vec<f64>], y: &[f64], what: &'static str) -> Result<Vec<f64>, CellError> {
    assert_eq!(rows.len(), y.len(), "lsq::solve: rows/y length mismatch");
    let m = rows.len();
    let n = rows.first().map_or(0, Vec::len);
    assert!(rows.iter().all(|r| r.len() == n), "lsq::solve: ragged rows");
    if m < n || n == 0 {
        return Err(CellError::TooFewPoints {
            what,
            got: m,
            need: n.max(1),
        });
    }
    // Normal equations: (AᵀA)·k = Aᵀy.
    let mut ata = vec![vec![0.0; n]; n];
    let mut aty = vec![0.0; n];
    for (row, &yi) in rows.iter().zip(y) {
        for i in 0..n {
            aty[i] += row[i] * yi;
            for j in i..n {
                ata[i][j] += row[i] * row[j];
            }
        }
    }
    for i in 1..n {
        for j in 0..i {
            ata[i][j] = ata[j][i];
        }
    }
    gauss_solve(&mut ata, &mut aty, what)
}

/// In-place Gaussian elimination with partial pivoting on an `n×n` system.
#[allow(clippy::needless_range_loop)]
fn gauss_solve(
    a: &mut [Vec<f64>],
    b: &mut [f64],
    what: &'static str,
) -> Result<Vec<f64>, CellError> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let pivot_row = (col..n)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .expect("finite")
            })
            .expect("non-empty");
        if a[pivot_row][col].abs() < 1e-12 {
            return Err(CellError::SingularFit { what });
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        for row in col + 1..n {
            let f = a[row][col] / a[col][col];
            if f == 0.0 {
                continue;
            }
            for k in col..n {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for col in row + 1..n {
            acc -= a[row][col] * x[col];
        }
        x[row] = acc / a[row][row];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_quadratic_recovery() {
        // y = 2t² − 3t + 0.5 sampled without noise.
        let ts = [0.1, 0.4, 0.9, 1.5, 2.0];
        let rows: Vec<Vec<f64>> = ts.iter().map(|&t| vec![t * t, t, 1.0]).collect();
        let y: Vec<f64> = ts.iter().map(|&t| 2.0 * t * t - 3.0 * t + 0.5).collect();
        let k = solve(&rows, &y, "test").unwrap();
        assert!((k[0] - 2.0).abs() < 1e-9);
        assert!((k[1] + 3.0).abs() < 1e-9);
        assert!((k[2] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn overdetermined_noisy_fit_is_close() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 * 0.1, 1.0]).collect();
        let y: Vec<f64> = (0..50)
            .map(|i| 1.5 * (i as f64 * 0.1) + 2.0 + if i % 2 == 0 { 0.01 } else { -0.01 })
            .collect();
        let k = solve(&rows, &y, "test").unwrap();
        assert!((k[0] - 1.5).abs() < 1e-3);
        assert!((k[1] - 2.0).abs() < 1e-2);
    }

    #[test]
    fn underdetermined_is_rejected() {
        let rows = vec![vec![1.0, 2.0, 3.0]];
        let y = vec![1.0];
        assert!(matches!(
            solve(&rows, &y, "test"),
            Err(CellError::TooFewPoints { .. })
        ));
    }

    #[test]
    fn singular_is_rejected() {
        // Two identical basis columns.
        let rows: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64, i as f64]).collect();
        let y = vec![0.0; 5];
        assert!(matches!(
            solve(&rows, &y, "test"),
            Err(CellError::SingularFit { .. })
        ));
    }

    #[test]
    fn empty_basis_is_rejected() {
        let rows: Vec<Vec<f64>> = vec![vec![], vec![]];
        let y = vec![0.0, 0.0];
        assert!(solve(&rows, &y, "test").is_err());
    }

    proptest! {
        #[test]
        fn recovers_random_linear_models(a in -5.0..5.0f64, b in -5.0..5.0f64, c in -5.0..5.0f64) {
            let ts: Vec<f64> = (0..12).map(|i| 0.1 + i as f64 * 0.17).collect();
            let rows: Vec<Vec<f64>> = ts.iter().map(|&t| vec![t * t, t, 1.0]).collect();
            let y: Vec<f64> = ts.iter().map(|&t| a * t * t + b * t + c).collect();
            let k = solve(&rows, &y, "prop").unwrap();
            prop_assert!((k[0] - a).abs() < 1e-6);
            prop_assert!((k[1] - b).abs() < 1e-6);
            prop_assert!((k[2] - c).abs() < 1e-6);
        }
    }
}
