//! Minimal dense matrix used by the functional models.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A row-major dense `f32` matrix.
///
/// # Example
///
/// ```
/// use v10_systolic::Matrix;
/// let a = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f32);
/// let b = Matrix::identity(3);
/// assert_eq!(a.matmul(&b), a);
/// assert_eq!(a[(1, 2)], 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a generator function.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// The n×n identity matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row {i} out of range");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Sets row `i` from a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `row.len() != cols`.
    pub fn set_row(&mut self, i: usize, row: &[f32]) {
        assert!(i < self.rows, "row {i} out of range");
        assert_eq!(row.len(), self.cols, "row length mismatch");
        self.data[i * self.cols..(i + 1) * self.cols].copy_from_slice(row);
    }

    /// Reference matrix product `self × rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    #[must_use]
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "inner dimensions disagree: {}x{} times {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}x{} matrix", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            let row: Vec<String> = self
                .row(i)
                .iter()
                .take(8)
                .map(|x| format!("{x:7.2}"))
                .collect();
            writeln!(
                f,
                "  [{}{}]",
                row.join(" "),
                if self.cols > 8 { " …" } else { "" }
            )?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f32);
        assert_eq!(a.matmul(&Matrix::identity(4)), a);
        assert_eq!(Matrix::identity(3).matmul(&a), a);
    }

    #[test]
    fn known_product() {
        let a = Matrix::from_fn(2, 2, |i, j| (i * 2 + j + 1) as f32); // [[1,2],[3,4]]
        let b = Matrix::from_fn(2, 2, |i, j| if i == j { 2.0 } else { 1.0 }); // [[2,1],[1,2]]
        let c = a.matmul(&b);
        assert_eq!(c[(0, 0)], 4.0);
        assert_eq!(c[(0, 1)], 5.0);
        assert_eq!(c[(1, 0)], 10.0);
        assert_eq!(c[(1, 1)], 11.0);
    }

    #[test]
    fn rows_and_set_row_roundtrip() {
        let mut m = Matrix::zeros(2, 3);
        m.set_row(1, &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_matmul_rejected() {
        let _ = Matrix::zeros(2, 3).matmul(&Matrix::zeros(2, 3));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dims_rejected() {
        let _ = Matrix::zeros(0, 3);
    }

    #[test]
    fn display_truncates_large_matrices() {
        let m = Matrix::zeros(20, 20);
        let s = m.to_string();
        assert!(s.contains("20x20"));
        assert!(s.contains('…'));
    }
}
