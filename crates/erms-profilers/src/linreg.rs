//! Ordinary least squares via normal equations, with a tiny ridge term for
//! numerical stability.

use crate::FitError;

/// Solves the linear system `A·x = b` in place by Gaussian elimination with
/// partial pivoting. `a` is row-major `n×n`.
///
/// Returns `None` when the matrix is (numerically) singular.
// Index loops: elimination reads `a[col]` while writing `a[row]` — split
// borrows of two rows, which iterator adapters cannot express cleanly.
#[allow(clippy::needless_range_loop)]
pub(crate) fn solve_linear(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Partial pivot.
        let pivot = (col..n).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        let diag = a[col][col];
        for row in (col + 1)..n {
            let factor = a[row][col] / diag;
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for k in (col + 1)..n {
            acc -= a[col][k] * x[k];
        }
        x[col] = acc / a[col][col];
    }
    Some(x)
}

/// Fits `y ≈ X·β` by least squares on arbitrary design rows (no intercept
/// is added; include a constant-1 column yourself if needed). A row is
/// anything that reads as a slice — a `Vec<f64>`, or a fixed `[f64; N]`
/// when every row has the same width, which saves a heap row per sample.
///
/// # Errors
///
/// * [`FitError::TooFewSamples`] when there are fewer rows than columns;
/// * [`FitError::Singular`] when the normal equations cannot be solved.
// Index loops: symmetrisation reads `xtx[j][i]` while writing `xtx[i][j]`.
#[allow(clippy::needless_range_loop)]
pub(crate) fn least_squares(x: &[impl AsRef<[f64]>], y: &[f64]) -> Result<Vec<f64>, FitError> {
    assert_eq!(x.len(), y.len(), "row/target count mismatch");
    let n = x.len();
    let d = x.first().map_or(0, |row| row.as_ref().len());
    if n < d || d == 0 {
        return Err(FitError::TooFewSamples {
            got: n,
            need: d.max(1),
        });
    }
    // Column scaling keeps the normal equations well-conditioned even when
    // features differ in magnitude by orders of magnitude (e.g. `C·γ` vs
    // the constant column) or are collinear.
    let mut scale = vec![0.0f64; d];
    for row in x {
        let row = row.as_ref();
        debug_assert_eq!(row.len(), d, "inconsistent row width");
        for (j, v) in row.iter().enumerate() {
            scale[j] = scale[j].max(v.abs());
        }
    }
    for s in &mut scale {
        if *s <= 0.0 {
            *s = 1.0;
        }
    }
    // Normal equations XᵀX β = Xᵀy on scaled columns, with a relative
    // ridge that resolves exact collinearity towards the minimum-norm
    // solution.
    let mut xtx = vec![vec![0.0; d]; d];
    let mut xty = vec![0.0; d];
    for (row, &target) in x.iter().zip(y) {
        let row = row.as_ref();
        for i in 0..d {
            let xi = row[i] / scale[i];
            xty[i] += xi * target;
            for j in i..d {
                xtx[i][j] += xi * row[j] / scale[j];
            }
        }
    }
    let ridge = 1e-8 * n as f64;
    for i in 0..d {
        for j in 0..i {
            xtx[i][j] = xtx[j][i];
        }
        xtx[i][i] += ridge;
    }
    let beta = solve_linear(xtx, xty).ok_or(FitError::Singular)?;
    Ok(beta.into_iter().zip(&scale).map(|(b, s)| b / s).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_small_system() {
        // 2x + y = 5 ; x - y = 1 -> x = 2, y = 1
        let a = vec![vec![2.0, 1.0], vec![1.0, -1.0]];
        let b = vec![5.0, 1.0];
        let x = solve_linear(a, b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn singular_system_is_none() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve_linear(a, vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn recovers_exact_linear_relation() {
        // y = 3 + 2a - b
        let x: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![i as f64, (i * i % 7) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 3.0 + 2.0 * r[0] - r[1]).collect();
        let design: Vec<Vec<f64>> = x.iter().map(|r| vec![1.0, r[0], r[1]]).collect();
        let beta = least_squares(&design, &y).unwrap();
        // Tolerances account for the small ridge regulariser.
        assert!((beta[0] - 3.0).abs() < 1e-4);
        assert!((beta[1] - 2.0).abs() < 1e-4);
        assert!((beta[2] + 1.0).abs() < 1e-4);
        let predicted = beta[0] + beta[1] * 10.0 + beta[2] * 4.0;
        assert!((predicted - 19.0).abs() < 1e-3);
    }

    #[test]
    fn too_few_samples_errors() {
        let x = vec![vec![1.0, 1.0, 2.0, 3.0]];
        let y = vec![1.0];
        assert!(matches!(
            least_squares(&x, &y),
            Err(FitError::TooFewSamples { .. })
        ));
    }
}
