//! Principal component analysis from scratch.
//!
//! §3.4: "we apply principal component analysis (PCA) to extract important
//! features, and then use K-Means to classify the workloads". The feature
//! space is small (10 dims, tens of points), so an exact cyclic Jacobi
//! eigensolver on the covariance matrix is simple and robust — no linear
//! algebra dependency needed.

/// A fitted PCA projection.
///
/// # Example
///
/// ```
/// use v10_collocate::Pca;
///
/// // Points on the line y = 2x: one dominant direction.
/// let data: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
/// let pca = Pca::fit(&data, 1);
/// assert_eq!(pca.components().len(), 1);
/// // The first axis runs along the line (up to sign).
/// let axis = &pca.components()[0];
/// assert!((axis[1] / axis[0] - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pca {
    mean: Vec<f64>,
    /// Row-major principal axes, strongest first; each is unit length.
    components: Vec<Vec<f64>>,
}

impl Pca {
    /// Fits `k` principal components to `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, rows disagree in dimension, `k` is zero,
    /// or `k` exceeds the feature dimension.
    #[must_use]
    pub fn fit(data: &[Vec<f64>], k: usize) -> Self {
        assert!(!data.is_empty(), "cannot fit PCA on an empty dataset");
        let dim = data[0].len();
        assert!(k > 0 && k <= dim, "k = {k} out of range for {dim} features");
        for row in data {
            assert_eq!(row.len(), dim, "inconsistent feature dimensions");
        }
        let n = data.len() as f64;
        let mut mean = vec![0.0; dim];
        for row in data {
            for (m, &x) in mean.iter_mut().zip(row) {
                *m += x / n;
            }
        }
        // Covariance matrix. Index loops mirror the math here; iterator
        // chains over triangular updates would obscure it.
        #[allow(clippy::needless_range_loop)]
        let cov = {
            let mut cov = vec![vec![0.0; dim]; dim];
            for row in data {
                for i in 0..dim {
                    let di = row[i] - mean[i];
                    for j in i..dim {
                        cov[i][j] += di * (row[j] - mean[j]) / n;
                    }
                }
            }
            for i in 0..dim {
                for j in 0..i {
                    cov[i][j] = cov[j][i];
                }
            }
            cov
        };
        let (eigenvalues, vectors) = jacobi_eigen(cov);

        // Sort by descending eigenvalue and keep the top k.
        let mut order: Vec<usize> = (0..dim).collect();
        order.sort_by(|&a, &b| eigenvalues[b].total_cmp(&eigenvalues[a]));
        let components: Vec<Vec<f64>> = order[..k]
            .iter()
            .map(|&c| (0..dim).map(|r| vectors[r][c]).collect())
            .collect();

        Pca { mean, components }
    }

    /// The principal axes (unit vectors, strongest first).
    #[must_use]
    pub fn components(&self) -> &[Vec<f64>] {
        &self.components
    }

    /// Projects one point onto the principal axes.
    ///
    /// # Panics
    ///
    /// Panics if the dimension does not match.
    #[must_use]
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.mean.len(), "dimension mismatch");
        self.components
            .iter()
            .map(|axis| {
                axis.iter()
                    .zip(row.iter().zip(&self.mean))
                    .map(|(&a, (&x, &m))| a * (x - m))
                    .sum()
            })
            .collect()
    }

    /// Projects a whole dataset.
    #[must_use]
    pub fn transform_all(&self, data: &[Vec<f64>]) -> Vec<Vec<f64>> {
        data.iter().map(|r| self.transform(r)).collect()
    }
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix. Returns
/// `(eigenvalues, eigenvector-matrix)` with eigenvector `i` in column `i`.
#[allow(clippy::needless_range_loop)] // index loops mirror the rotations
fn jacobi_eigen(mut a: Vec<Vec<f64>>) -> (Vec<f64>, Vec<Vec<f64>>) {
    let n = a.len();
    let mut v = vec![vec![0.0; n]; n];
    for (i, row) in v.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    for _sweep in 0..100 {
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += a[i][j] * a[i][j];
            }
        }
        if off < 1e-22 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                if a[p][q].abs() < 1e-30 {
                    continue;
                }
                let theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Rotate A in the (p, q) plane: A <- JᵀAJ.
                for k in 0..n {
                    let akp = a[k][p];
                    let akq = a[k][q];
                    a[k][p] = c * akp - s * akq;
                    a[k][q] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[p][k];
                    let aqk = a[q][k];
                    a[p][k] = c * apk - s * aqk;
                    a[q][k] = s * apk + c * aqk;
                }
                // Accumulate the rotation into V.
                for row in v.iter_mut() {
                    let vp = row[p];
                    let vq = row[q];
                    row[p] = c * vp - s * vq;
                    row[q] = s * vp + c * vq;
                }
            }
        }
    }
    let eigenvalues = (0..n).map(|i| a[i][i]).collect();
    (eigenvalues, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fraction of `data`'s total variance that each kept component
    /// captures, measured from the projections.
    pub(super) fn explained_variance_ratio(pca: &Pca, data: &[Vec<f64>]) -> Vec<f64> {
        let n = data.len() as f64;
        let total: f64 = (0..data[0].len())
            .map(|j| {
                let mean = data.iter().map(|r| r[j]).sum::<f64>() / n;
                data.iter().map(|r| (r[j] - mean).powi(2)).sum::<f64>()
            })
            .sum();
        let z = pca.transform_all(data);
        (0..pca.components().len())
            .map(|k| {
                if total <= 0.0 {
                    0.0
                } else {
                    z.iter().map(|r| r[k] * r[k]).sum::<f64>() / total
                }
            })
            .collect()
    }

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn jacobi_solves_known_matrix() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let (mut evals, _) = jacobi_eigen(vec![vec![2.0, 1.0], vec![1.0, 2.0]]);
        evals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((evals[0] - 1.0).abs() < 1e-10);
        assert!((evals[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn jacobi_eigenvectors_satisfy_definition() {
        let m = vec![
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, 0.25],
            vec![0.5, 0.25, 2.0],
        ];
        let (evals, v) = jacobi_eigen(m.clone());
        for c in 0..3 {
            let vec_c: Vec<f64> = (0..3).map(|r| v[r][c]).collect();
            // || M v - λ v || small.
            for r in 0..3 {
                let mv: f64 = dot(&m[r], &vec_c);
                assert!((mv - evals[c] * vec_c[r]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn components_are_orthonormal() {
        let data: Vec<Vec<f64>> = (0..30)
            .map(|i| {
                let t = i as f64 / 3.0;
                vec![t.sin(), t.cos() * 2.0, t * 0.1, (t * 1.7).sin()]
            })
            .collect();
        let pca = Pca::fit(&data, 3);
        for (i, a) in pca.components().iter().enumerate() {
            assert!((dot(a, a) - 1.0).abs() < 1e-9, "component {i} not unit");
            for b in pca.components().iter().skip(i + 1) {
                assert!(dot(a, b).abs() < 1e-9, "components not orthogonal");
            }
        }
    }

    #[test]
    fn dominant_direction_found() {
        // Strongly anisotropic cloud along (1, 2)/sqrt(5).
        let data: Vec<Vec<f64>> = (0..50)
            .map(|i| {
                let t = (i as f64 - 25.0) * 1.0;
                let noise = ((i * 7919) % 13) as f64 * 0.01;
                vec![t + noise, 2.0 * t - noise]
            })
            .collect();
        let pca = Pca::fit(&data, 2);
        let c0 = &pca.components()[0];
        let expected = [1.0 / 5.0f64.sqrt(), 2.0 / 5.0f64.sqrt()];
        let alignment = dot(c0, &expected).abs();
        assert!(alignment > 0.999, "alignment {alignment}");
        let evr = explained_variance_ratio(&pca, &data);
        assert!(evr[0] > 0.99);
        assert!(evr.iter().sum::<f64>() <= 1.0 + 1e-9);
    }

    #[test]
    fn transform_centers_data() {
        let data = vec![vec![1.0, 1.0], vec![3.0, 3.0]];
        let pca = Pca::fit(&data, 1);
        let z = pca.transform_all(&data);
        // Projections are symmetric around zero.
        assert!((z[0][0] + z[1][0]).abs() < 1e-10);
    }

    #[test]
    fn variance_ratio_of_degenerate_data_is_zero() {
        let data = vec![vec![2.0, 2.0]; 5];
        let pca = Pca::fit(&data, 1);
        assert_eq!(explained_variance_ratio(&pca, &data), vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn k_larger_than_dim_rejected() {
        let _ = Pca::fit(&[vec![1.0, 2.0]], 3);
    }
}

#[cfg(test)]
mod seeded_tests {
    use super::tests::explained_variance_ratio;
    use super::*;
    use v10_sim::SimRng;

    /// Components are always orthonormal and explained variance ratios
    /// are a sub-probability distribution.
    #[test]
    fn pca_invariants() {
        let mut rng = SimRng::seed_from(0x9CA0);
        for case in 0..32 {
            let n = 2 + rng.index(38);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..4).map(|_| rng.uniform(-100.0, 100.0)).collect())
                .collect();
            let k = 1 + rng.index(3);
            let pca = Pca::fit(&rows, k);
            for (i, a) in pca.components().iter().enumerate() {
                let norm: f64 = a.iter().map(|x| x * x).sum();
                assert!((norm - 1.0).abs() < 1e-6, "case {case}");
                for b in pca.components().iter().skip(i + 1) {
                    let d: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
                    assert!(d.abs() < 1e-6, "case {case}");
                }
            }
            let evr = explained_variance_ratio(&pca, &rows);
            assert!(evr.iter().all(|&r| (-1e-9..=1.0 + 1e-9).contains(&r)));
            assert!(evr.iter().sum::<f64>() <= 1.0 + 1e-6);
            // Eigenvalues kept in descending order.
            for w in evr.windows(2) {
                assert!(w[0] + 1e-9 >= w[1]);
            }
        }
    }
}
