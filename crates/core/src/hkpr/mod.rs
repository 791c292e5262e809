//! Deterministic heat-kernel PageRank — Kloster & Gleich's `hk-relax`
//! (§3.4 of the paper).
//!
//! The heat-kernel vector `h = e^{−t} Σ_k (t^k/k!) P^k s` is approximated
//! by its degree-`N` Taylor truncation, solved by a residual-push process
//! over `(vertex, level)` pairs: pushing `(v, j)` banks `r[(v,j)]` into
//! `p[v]` and forwards `t·r/( (j+1)·d(v) )` to each neighbor at level
//! `j+1`, with a level-dependent admission threshold
//! `e^t·ε·d(w) / (2N·ψ_{j+1}(t))` controlled by the tail weights
//! [`psi_table`].
//!
//! Updates only flow from level `j` to level `j+1`, which is exactly what
//! makes the algorithm parallelizable level-synchronously (Figure 7)
//! *with bit-equal output semantics*: the parallel version processes all
//! queue entries of one level per iteration (Theorem 4: `O(N² + N·e^t/ε)`
//! work, `O(N·t·log(1/ε))` depth).

mod par;
mod seq;

use crate::require;

pub use par::hkpr_par;
pub(crate) use par::hkpr_par_ws;
pub use seq::hkpr_seq;

/// Parameters for deterministic heat-kernel PageRank.
#[derive(Clone, Copy, Debug)]
pub struct HkprParams {
    /// Diffusion time `t` (larger spreads mass further).
    pub t: f64,
    /// Taylor truncation degree `N` (the number of levels).
    pub n_levels: usize,
    /// Accuracy `ε` of the approximation (admission threshold scale).
    pub eps: f64,
}

impl Default for HkprParams {
    /// The paper's Table 3 setting: `t = 10`, `N = 20`, `ε = 10⁻⁷`.
    fn default() -> Self {
        HkprParams {
            t: 10.0,
            n_levels: 20,
            eps: 1e-7,
        }
    }
}

impl HkprParams {
    /// Checks `t > 0`, `N ≥ 1` and `ε > 0` (NaN fails), naming the
    /// first violated rule.
    pub fn validate(&self) -> Result<(), &'static str> {
        require(self.t > 0.0, "t must be positive")?;
        require(self.n_levels >= 1, "need at least one level")?;
        require(self.eps > 0.0, "eps must be positive")
    }

    /// Admission threshold for level `j` entries at a degree-`d` vertex:
    /// `e^{−t}·ε·d / (2N·ψ_j)`.
    #[inline]
    pub(crate) fn threshold(&self, psi: &[f64], j: usize, degree: usize) -> f64 {
        (-self.t).exp() * self.eps * degree as f64 / (2.0 * self.n_levels as f64 * psi[j])
    }
}

/// The tail weights `ψ_k(t) = Σ_{m=0}^{N−k} k!/(m+k)! · t^m` for
/// `k = 0..=N`.
///
/// The paper computes them in `O(N²)` with prefix sums; the backward
/// recurrence `ψ_N = 1`, `ψ_k = 1 + t/(k+1)·ψ_{k+1}` gives the same
/// values in `O(N)` (each term of `ψ_{k+1}` multiplied by `t/(k+1)`
/// yields the corresponding `m ≥ 1` term of `ψ_k`).
pub fn psi_table(t: f64, n: usize) -> Vec<f64> {
    let mut psi = vec![1.0; n + 1];
    for k in (0..n).rev() {
        psi[k] = 1.0 + t / (k as f64 + 1.0) * psi[k + 1];
    }
    psi
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct evaluation of the definition, for cross-checking.
    fn psi_direct(t: f64, n: usize, k: usize) -> f64 {
        let mut sum = 0.0;
        let mut term = 1.0; // m = 0: k!/(0+k)! t^0 = 1
        for m in 0..=(n - k) {
            if m > 0 {
                term *= t / (k + m) as f64; // k!/(m+k)! t^m built incrementally
            }
            sum += term;
        }
        sum
    }

    #[test]
    fn psi_recurrence_matches_definition() {
        for &t in &[0.5, 1.0, 5.0, 10.0] {
            for &n in &[1usize, 3, 10, 20] {
                let table = psi_table(t, n);
                #[allow(clippy::needless_range_loop)]
                for k in 0..=n {
                    let want = psi_direct(t, n, k);
                    assert!(
                        (table[k] - want).abs() / want < 1e-12,
                        "t={t} n={n} k={k}: {} vs {want}",
                        table[k]
                    );
                }
            }
        }
    }

    #[test]
    fn psi_is_decreasing_in_k() {
        let psi = psi_table(7.0, 15);
        assert!(psi.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(*psi.last().unwrap(), 1.0);
    }

    #[test]
    fn psi0_approaches_exp_t_for_large_n() {
        // ψ_0 = Σ_{m=0}^{N} t^m/m! → e^t.
        let t = 3.0;
        let psi = psi_table(t, 40);
        assert!((psi[0] - t.exp()).abs() < 1e-9);
    }

    #[test]
    fn threshold_scales_with_degree_and_level() {
        let params = HkprParams::default();
        let psi = psi_table(params.t, params.n_levels);
        let t1 = params.threshold(&psi, 1, 10);
        let t2 = params.threshold(&psi, 1, 20);
        assert!((t2 / t1 - 2.0).abs() < 1e-12, "linear in degree");
        // Later levels have smaller ψ ⇒ larger thresholds (harder entry).
        let tl = params.threshold(&psi, params.n_levels, 10);
        assert!(tl > t1);
    }
}
