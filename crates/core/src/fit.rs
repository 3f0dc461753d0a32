//! Curve-fitting machinery: least squares, log/exponential fits, piecewise
//! models with transition search.
//!
//! Everything the paper's analytical modeling needs (Eqns. 1–6), built on
//! normal equations + Gaussian elimination — no external numerics crates.
//!
//! # The sufficient-statistic fitting engine
//!
//! All models fitted here have ≤ 5 linear parameters, so every normal
//! equation is a tiny fixed-size system. The engine exploits that twice:
//!
//! * **Allocation-free solvers** — [`solve_fixed`] and
//!   [`least_squares_fixed`] run entirely on stack arrays (`[[f64; N]; N]`)
//!   with the same partial-pivoting elimination as the heap-backed
//!   [`solve_linear`], so [`polyfit`], [`logfit`] and [`expfit`] never
//!   touch the allocator.
//! * **Incremental sufficient statistics** — the piecewise transition
//!   searches ([`fit_const_log`], [`fit_exp_log`]) only ever need segment
//!   sums (Σe^{−λx}, Σe^{−2λx}, Σy·e^{−λx}, Σy, Σy², Σln x, Σ(ln x)²,
//!   Σy·ln x). Prefix/suffix accumulators make each (λ, k) candidate a
//!   closed-form 2×2 solve with an O(1) SSE, collapsing the exp/log
//!   transition search from O(λ·n²) with per-candidate heap traffic to a
//!   single O(λ·n) pass.
//!
//! On top of the grid search, [`fit_exp_log`] runs a golden-section
//! refinement of the decay rate λ around the best grid point, so the grid
//! only has to bracket the optimum, not hit it.
//!
//! The pre-engine naive implementations are preserved verbatim in
//! [`oracle`] and serve as ground truth for the property tests in
//! `tests/properties.rs` and the speedup benches in `bench/analytics`.

/// Relative pivot threshold: a system is declared singular when the best
/// remaining pivot is smaller than `PIVOT_RTOL` × the largest absolute
/// entry of the input matrix. Scale-relative (rather than the absolute
/// `1e-12` cutoff this crate used originally) so that well-conditioned
/// systems expressed in tiny units (nanosecond latencies, per-byte rates)
/// or huge ones (GB-scale byte counts) are classified by conditioning,
/// not by magnitude.
const PIVOT_RTOL: f64 = 1e-12;

/// Number of decay-rate candidates scanned by [`expfit`] and
/// [`fit_exp_log`].
const N_LAMBDA: usize = 240;

/// Minimum points in the exponential head of [`fit_exp_log`].
const K_MIN: usize = 4;

/// Golden-section iterations for the λ refinement (each shrinks the
/// bracket by ×0.618; 48 iterations reduce a one-grid-step bracket far
/// below f64 resolution).
const REFINE_ITERS: usize = 48;

/// Largest magnitude over the entries of a fixed-size matrix.
fn matrix_scale<const N: usize>(a: &[[f64; N]; N]) -> f64 {
    a.iter()
        .flat_map(|row| row.iter())
        .fold(0.0f64, |s, &v| s.max(v.abs()))
}

/// Solves the linear system `A·x = b` by Gaussian elimination with partial
/// pivoting. Returns `None` for singular systems (pivot below `1e-12`
/// relative to the largest input entry).
///
/// # Panics
///
/// Panics if dimensions are inconsistent.
pub fn solve_linear(a: &[Vec<f64>], b: &[f64]) -> Option<Vec<f64>> {
    let n = b.len();
    assert_eq!(a.len(), n, "matrix/vector size mismatch");
    let scale = a
        .iter()
        .flat_map(|row| row.iter())
        .fold(0.0f64, |s, &v| s.max(v.abs()));
    if scale == 0.0 {
        return None;
    }
    let tol = PIVOT_RTOL * scale;
    let mut m: Vec<Vec<f64>> = a
        .iter()
        .zip(b)
        .map(|(row, &rhs)| {
            assert_eq!(row.len(), n, "matrix must be square");
            let mut r = row.clone();
            r.push(rhs);
            r
        })
        .collect();

    for col in 0..n {
        // Partial pivot.
        let pivot = (col..n).max_by(|&i, &j| m[i][col].abs().total_cmp(&m[j][col].abs()))?;
        if m[pivot][col].abs() < tol {
            return None;
        }
        m.swap(col, pivot);
        for row in 0..n {
            if row != col {
                let f = m[row][col] / m[col][col];
                // Index-based: `m[row]` and `m[col]` alias the same matrix.
                #[allow(clippy::needless_range_loop)]
                for k in col..=n {
                    m[row][k] -= f * m[col][k];
                }
            }
        }
    }
    Some((0..n).map(|i| m[i][n] / m[i][i]).collect())
}

/// Stack-allocated Gaussian elimination with partial pivoting for the
/// small fixed-size systems every fit in this crate reduces to. Same
/// elimination order and scale-relative singularity test as
/// [`solve_linear`], zero heap traffic.
pub fn solve_fixed<const N: usize>(mut a: [[f64; N]; N], mut b: [f64; N]) -> Option<[f64; N]> {
    let scale = matrix_scale(&a);
    if scale == 0.0 {
        return None;
    }
    let tol = PIVOT_RTOL * scale;
    for col in 0..N {
        let pivot = (col..N).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < tol {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in 0..N {
            if row != col {
                let f = a[row][col] / a[col][col];
                // Index-based: `a[row]` and `a[col]` alias the same matrix.
                #[allow(clippy::needless_range_loop)]
                for k in col..N {
                    a[row][k] -= f * a[col][k];
                }
                b[row] -= f * b[col];
            }
        }
    }
    let mut x = [0.0; N];
    for (i, xi) in x.iter_mut().enumerate() {
        *xi = b[i] / a[i][i];
    }
    Some(x)
}

/// Ordinary least squares: finds `beta` minimizing `‖X·beta − y‖²`.
///
/// Returns `None` when the normal equations are singular (e.g. collinear
/// features or fewer points than parameters).
///
/// # Panics
///
/// Panics if `rows` and `y` lengths differ, or rows are ragged.
pub fn least_squares(rows: &[Vec<f64>], y: &[f64]) -> Option<Vec<f64>> {
    assert_eq!(rows.len(), y.len(), "design/target size mismatch");
    let n = rows.first()?.len();
    let mut xtx = vec![vec![0.0; n]; n];
    let mut xty = vec![0.0; n];
    for (row, &yi) in rows.iter().zip(y) {
        assert_eq!(row.len(), n, "ragged design matrix");
        for i in 0..n {
            for j in 0..n {
                xtx[i][j] += row[i] * row[j];
            }
            xty[i] += row[i] * yi;
        }
    }
    solve_linear(&xtx, &xty)
}

/// Least squares over a stream of fixed-width design rows: accumulates the
/// normal equations directly into stack arrays (no design matrix is ever
/// materialized) and solves with [`solve_fixed`]. Accumulation order is
/// identical to [`least_squares`], so results agree to the last bit for
/// the same rows.
pub fn least_squares_fixed<const N: usize>(
    rows: impl Iterator<Item = ([f64; N], f64)>,
) -> Option<[f64; N]> {
    let mut xtx = [[0.0; N]; N];
    let mut xty = [0.0; N];
    for (row, yi) in rows {
        for i in 0..N {
            for j in 0..N {
                xtx[i][j] += row[i] * row[j];
            }
            xty[i] += row[i] * yi;
        }
    }
    solve_fixed(xtx, xty)
}

/// Fits `y = c₀ + c₁x + … + c_d x^d`, returning coefficients lowest-order
/// first. Returns `None` for degenerate inputs.
pub fn polyfit(x: &[f64], y: &[f64], degree: usize) -> Option<Vec<f64>> {
    polyfit_weighted(x, y, degree, |_, _| 1.0)
}

/// Weighted polynomial fit: minimizes `Σ wᵢ·(ŷᵢ − yᵢ)²` with
/// `wᵢ = weight(xᵢ, yᵢ)`. Weighting by `1/y²` yields a relative
/// (percentage-error) fit, which is what keeps the paper's prefill MAPE
/// low across three orders of magnitude of latency.
///
/// Degrees ≤ 4 (every use in this workspace) run allocation-free on the
/// fixed-size solver; higher degrees fall back to the generic path.
pub fn polyfit_weighted<W>(x: &[f64], y: &[f64], degree: usize, weight: W) -> Option<Vec<f64>>
where
    W: Fn(f64, f64) -> f64,
{
    if x.len() != y.len() || x.len() <= degree {
        return None;
    }
    match degree {
        0 => polyfit_fixed::<1, W>(x, y, weight),
        1 => polyfit_fixed::<2, W>(x, y, weight),
        2 => polyfit_fixed::<3, W>(x, y, weight),
        3 => polyfit_fixed::<4, W>(x, y, weight),
        4 => polyfit_fixed::<5, W>(x, y, weight),
        _ => {
            let mut rows: Vec<Vec<f64>> = Vec::with_capacity(x.len());
            let mut ys: Vec<f64> = Vec::with_capacity(x.len());
            for (&xi, &yi) in x.iter().zip(y) {
                let w = weight(xi, yi).max(0.0).sqrt();
                rows.push((0..=degree).map(|p| w * xi.powi(p as i32)).collect());
                ys.push(w * yi);
            }
            least_squares(&rows, &ys)
        }
    }
}

fn polyfit_fixed<const N: usize, W>(x: &[f64], y: &[f64], weight: W) -> Option<Vec<f64>>
where
    W: Fn(f64, f64) -> f64,
{
    let beta = least_squares_fixed(x.iter().zip(y).map(|(&xi, &yi)| {
        let w = weight(xi, yi).max(0.0).sqrt();
        let mut row = [0.0; N];
        for (p, r) in row.iter_mut().enumerate() {
            *r = w * xi.powi(p as i32);
        }
        (row, w * yi)
    }))?;
    Some(beta.to_vec())
}

/// Fits `y = a·ln(x) + b`. Returns `(a, b)`, or `None` for degenerate
/// input (fewer than 2 points or non-positive x).
pub fn logfit(x: &[f64], y: &[f64]) -> Option<(f64, f64)> {
    if x.len() != y.len() || x.len() < 2 || x.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let beta = least_squares_fixed(x.iter().zip(y).map(|(&xi, &yi)| ([xi.ln(), 1.0], yi)))?;
    Some((beta[0], beta[1]))
}

/// Fits the exponential decay `y = A·e^(−λx) + C` by scanning λ and
/// solving (A, C) linearly at each candidate — robust and derivative-free.
/// Returns `(A, lambda, C)`.
pub fn expfit(x: &[f64], y: &[f64]) -> Option<(f64, f64, f64)> {
    if x.len() != y.len() || x.len() < 3 {
        return None;
    }
    let x_span = x.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        - x.iter().copied().fold(f64::INFINITY, f64::min);
    if x_span <= 0.0 {
        return None;
    }
    // One scratch buffer of e^{−λx}, reused across every λ candidate.
    let mut e = vec![0.0; x.len()];
    let mut best: Option<(f64, (f64, f64, f64))> = None;
    // λ spans decay lengths from ~100× the x range down to ~1/100th.
    for i in 0..N_LAMBDA {
        let lambda = (10.0f64.powf(-2.0 + 4.0 * i as f64 / 239.0)) / x_span;
        let mut xtx = [[0.0; 2]; 2];
        let mut xty = [0.0; 2];
        for (k, (&xi, &yi)) in x.iter().zip(y).enumerate() {
            let ei = (-lambda * xi).exp();
            e[k] = ei;
            xtx[0][0] += ei * ei;
            xtx[0][1] += ei;
            xtx[1][0] += ei;
            xtx[1][1] += 1.0;
            xty[0] += ei * yi;
            xty[1] += yi;
        }
        let Some(beta) = solve_fixed(xtx, xty) else {
            continue;
        };
        let sse: f64 = e
            .iter()
            .zip(y)
            .map(|(&ei, &yi)| (ei * beta[0] + beta[1] - yi).powi(2))
            .sum();
        if best.as_ref().is_none_or(|(b, _)| sse < *b) {
            best = Some((sse, (beta[0], lambda, beta[1])));
        }
    }
    best.map(|(_, p)| p)
}

/// A fitted piecewise model: constant `u` for `x ≤ v`, logarithmic
/// `w·ln(x) + z` beyond — the form of the paper's power models (Eqn. 4/6).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PiecewiseConstLog {
    /// Constant level in the low regime.
    pub u: f64,
    /// Transition point.
    pub v: f64,
    /// Log slope in the high regime.
    pub w: f64,
    /// Log intercept in the high regime.
    pub z: f64,
}

impl PiecewiseConstLog {
    /// Evaluates the model.
    pub fn predict(&self, x: f64) -> f64 {
        if x <= self.v {
            self.u
        } else {
            self.w * x.ln() + self.z
        }
    }
}

/// Sorts a sample set by x, returning parallel vectors.
fn sort_by_x(x: &[f64], y: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut idx: Vec<usize> = (0..x.len()).collect();
    idx.sort_by(|&i, &j| x[i].total_cmp(&x[j]));
    let xs: Vec<f64> = idx.iter().map(|&i| x[i]).collect();
    let ys: Vec<f64> = idx.iter().map(|&i| y[i]).collect();
    (xs, ys)
}

/// Log-tail least squares for every suffix `[k..]` in one right-to-left
/// pass: `out[k] = (w, z, sse)` for the fit `y = w·ln x + z` over
/// `xs[k..]`, or `None` when the tail is degenerate (non-positive x,
/// fewer than 2 points, or collinear features). O(n) total — this is the
/// suffix half of the sufficient-statistic engine.
fn log_tail_fits(xs: &[f64], ys: &[f64]) -> Vec<Option<(f64, f64, f64)>> {
    let n = xs.len();
    let mut out: Vec<Option<(f64, f64, f64)>> = vec![None; n];
    let (mut sl, mut sll, mut sy, mut syl, mut syy) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
    let mut cnt = 0usize;
    for k in (0..n).rev() {
        // xs is sorted ascending: once a non-positive x appears, every
        // shorter split below it also contains it — stop.
        if xs[k] <= 0.0 {
            break;
        }
        let l = xs[k].ln();
        sl += l;
        sll += l * l;
        sy += ys[k];
        syl += ys[k] * l;
        syy += ys[k] * ys[k];
        cnt += 1;
        if cnt < 2 {
            continue;
        }
        let m = cnt as f64;
        if let Some(beta) = solve_fixed([[sll, sl], [sl, m]], [syl, sy]) {
            let (w, z) = (beta[0], beta[1]);
            let sse =
                (syy - 2.0 * w * syl - 2.0 * z * sy + w * w * sll + 2.0 * w * z * sl + z * z * m)
                    .max(0.0);
            out[k] = Some((w, z, sse));
        }
    }
    out
}

/// Fits [`PiecewiseConstLog`] by scanning candidate transitions over the
/// sample's x values; each side is fitted optimally (mean / log LSQ).
/// Needs ≥ 4 points; falls back to a pure log fit expressed with `v` below
/// the data range when that is better.
///
/// Runs in O(n log n) (the sort dominates): prefix sums give the constant
/// side's mean and SSE in O(1) per split, and one right-to-left pass of
/// log-tail suffix fits gives the log side in O(1) per split.
pub fn fit_const_log(x: &[f64], y: &[f64]) -> Option<PiecewiseConstLog> {
    if x.len() != y.len() || x.len() < 4 || x.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let (xs, ys) = sort_by_x(x, y);
    let n = xs.len();
    let tails = log_tail_fits(&xs, &ys);
    let mut py = vec![0.0; n + 1];
    let mut pyy = vec![0.0; n + 1];
    for i in 0..n {
        py[i + 1] = py[i] + ys[i];
        pyy[i + 1] = pyy[i] + ys[i] * ys[i];
    }

    let mut best: Option<(f64, PiecewiseConstLog)> = None;
    // Split after k points (k = 0 means all-log).
    for k in 0..n - 2 {
        let (u, sse_lo) = if k == 0 {
            (f64::NAN, 0.0)
        } else {
            let m = py[k] / k as f64;
            (m, (pyy[k] - py[k] * m).max(0.0))
        };
        let Some((w, z, sse_hi)) = tails[k] else {
            continue;
        };
        let v = if k == 0 {
            xs[0] * 0.5
        } else {
            0.5 * (xs[k - 1] + xs[k])
        };
        let u = if u.is_nan() { w * v.ln() + z } else { u };
        let sse = sse_lo + sse_hi;
        if best.as_ref().is_none_or(|(e, _)| sse < *e) {
            best = Some((sse, PiecewiseConstLog { u, v, w, z }));
        }
    }
    best.map(|(_, m)| m)
}

/// A fitted piecewise model: exponential decay for `x ≤ v`, logarithmic
/// growth beyond — the paper's energy-per-token form (Eqn. 5).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PiecewiseExpLog {
    /// Decay amplitude.
    pub a: f64,
    /// Decay rate.
    pub lambda: f64,
    /// Decay asymptote.
    pub c: f64,
    /// Transition point.
    pub v: f64,
    /// Log slope beyond the transition.
    pub alpha: f64,
    /// Log intercept beyond the transition.
    pub beta: f64,
}

impl PiecewiseExpLog {
    /// Evaluates the model.
    pub fn predict(&self, x: f64) -> f64 {
        if x <= self.v {
            self.a * (-self.lambda * x).exp() + self.c
        } else {
            self.alpha * x.ln() + self.beta
        }
    }
}

/// The geometric λ-candidate grid shared by the [`fit_exp_log`] transition
/// search and its [`oracle`] counterpart: one fixed grid for every split,
/// spanning decay lengths from ~100× the full x range down to ~1/100th of
/// the smallest admissible exponential head. (A fixed grid is what lets
/// the search share Σe^{−λx} prefix sums across all splits; the λ
/// refinement recovers the resolution a per-split grid would have had.)
#[derive(Debug, Clone, Copy)]
pub struct LambdaGrid {
    lo: f64,
    hi: f64,
}

impl LambdaGrid {
    /// Builds the grid for sorted sample positions. `None` when the data
    /// has zero x span (no decay scale exists).
    pub fn for_split_search(xs: &[f64]) -> Option<Self> {
        let full = xs[xs.len() - 1] - xs[0];
        if full <= 0.0 {
            return None;
        }
        let head = xs[K_MIN - 1] - xs[0];
        let head = if head > 0.0 { head } else { full };
        Some(Self {
            lo: 1e-2 / full,
            hi: 1e2 / head,
        })
    }

    /// The `i`-th of the 240 geometrically spaced candidates.
    pub fn at(&self, i: usize) -> f64 {
        self.lo * (self.hi / self.lo).powf(i as f64 / (N_LAMBDA - 1) as f64)
    }
}

/// Closed-form (A, C) solve plus O(1) SSE for an exponential head from its
/// five sufficient statistics (Σe², Σe, Σye, Σy, Σy² over the segment).
fn exp_head_solve(
    se: f64,
    see: f64,
    sye: f64,
    sy: f64,
    syy: f64,
    cnt: usize,
) -> Option<(f64, f64, f64)> {
    let m = cnt as f64;
    let beta = solve_fixed([[see, se], [se, m]], [sye, sy])?;
    let (a, c) = (beta[0], beta[1]);
    let sse =
        (syy + a * a * see + c * c * m + 2.0 * a * c * se - 2.0 * a * sye - 2.0 * c * sy).max(0.0);
    Some((a, c, sse))
}

/// Evaluates the exponential head fit over `xs[..k]` at one λ in a single
/// accumulation pass (used by the golden-section refinement, where only a
/// handful of λ values are probed).
fn exp_head_eval(xs: &[f64], ys: &[f64], k: usize, lambda: f64) -> Option<(f64, f64, f64)> {
    let (mut se, mut see, mut sye, mut sy, mut syy) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
    for j in 0..k {
        let e = (-lambda * xs[j]).exp();
        se += e;
        see += e * e;
        sye += e * ys[j];
        sy += ys[j];
        syy += ys[j] * ys[j];
    }
    exp_head_solve(se, see, sye, sy, syy, k)
}

/// Golden-section minimization of `eval`'s SSE over λ ∈ `[lo, hi]`
/// (searched in log-space, matching the geometric candidate grid).
/// Returns `(lambda, a, c, sse)` at the refined point.
fn refine_lambda<F>(lo: f64, hi: f64, mut eval: F) -> Option<(f64, f64, f64, f64)>
where
    F: FnMut(f64) -> Option<(f64, f64, f64)>,
{
    const INV_PHI: f64 = 0.618_033_988_749_894_8;
    if !(lo > 0.0 && hi > lo) {
        return None;
    }
    let (mut a, mut b) = (lo.ln(), hi.ln());
    let probe = |t: f64, eval: &mut F| eval(t.exp()).map_or(f64::INFINITY, |(_, _, s)| s);
    let mut x1 = b - INV_PHI * (b - a);
    let mut x2 = a + INV_PHI * (b - a);
    let mut f1 = probe(x1, &mut eval);
    let mut f2 = probe(x2, &mut eval);
    for _ in 0..REFINE_ITERS {
        if f1 <= f2 {
            b = x2;
            x2 = x1;
            f2 = f1;
            x1 = b - INV_PHI * (b - a);
            f1 = probe(x1, &mut eval);
        } else {
            a = x1;
            x1 = x2;
            f1 = f2;
            x2 = a + INV_PHI * (b - a);
            f2 = probe(x2, &mut eval);
        }
    }
    let lambda = if f1 <= f2 { x1.exp() } else { x2.exp() };
    eval(lambda).map(|(ea, ec, sse)| (lambda, ea, ec, sse))
}

/// Winner of the [`fit_exp_log`] grid search, before λ refinement.
enum ExpLogBest {
    /// A genuine split: exponential head over `[..k]` at grid index `lam`.
    Split {
        sse: f64,
        lam: usize,
        k: usize,
        a: f64,
        c: f64,
    },
    /// The whole-range exponential fallback.
    Whole {
        sse: f64,
        a: f64,
        lambda: f64,
        c: f64,
    },
}

/// Fits [`PiecewiseExpLog`] by scanning transition candidates. Needs ≥ 7
/// points (≥ 4 below and ≥ 3 above the transition are fitted per side; if
/// no valid split exists the whole range is fitted as exponential decay
/// with the transition placed past the data).
///
/// The search runs in O(λ·n): per λ candidate one prefix pass builds the
/// exponential sufficient statistics, after which every split is an O(1)
/// closed-form solve; the log tails are prefitted once, in one
/// right-to-left suffix pass. A golden-section refinement then polishes λ inside
/// its bracketing grid interval (the grid pins λ to ~4% otherwise).
pub fn fit_exp_log(x: &[f64], y: &[f64]) -> Option<PiecewiseExpLog> {
    if x.len() != y.len() || x.len() < 7 {
        return None;
    }
    let (xs, ys) = sort_by_x(x, y);
    let n = xs.len();
    let k_max = n - 3;

    let grid = LambdaGrid::for_split_search(&xs);
    let tails = log_tail_fits(&xs, &ys);
    let mut py = vec![0.0; n + 1];
    let mut pyy = vec![0.0; n + 1];
    for i in 0..n {
        py[i + 1] = py[i] + ys[i];
        pyy[i + 1] = pyy[i] + ys[i] * ys[i];
    }

    let mut best: Option<ExpLogBest> = None;
    if let Some(grid) = grid {
        let mut pe = vec![0.0; k_max + 1];
        let mut pee = vec![0.0; k_max + 1];
        let mut pye = vec![0.0; k_max + 1];
        for i in 0..N_LAMBDA {
            let lambda = grid.at(i);
            for j in 0..k_max {
                let e = (-lambda * xs[j]).exp();
                pe[j + 1] = pe[j] + e;
                pee[j + 1] = pee[j] + e * e;
                pye[j + 1] = pye[j] + e * ys[j];
            }
            for k in K_MIN..=k_max {
                let Some((_, _, sse_log)) = tails[k] else {
                    continue;
                };
                let Some((a, c, sse_exp)) = exp_head_solve(pe[k], pee[k], pye[k], py[k], pyy[k], k)
                else {
                    continue;
                };
                let sse = sse_exp + sse_log;
                let better = match &best {
                    Some(ExpLogBest::Split { sse: b, .. } | ExpLogBest::Whole { sse: b, .. }) => {
                        sse < *b
                    }
                    None => true,
                };
                if better {
                    best = Some(ExpLogBest::Split {
                        sse,
                        lam: i,
                        k,
                        a,
                        c,
                    });
                }
            }
        }
    }

    // Whole-range exponential fallback.
    if let Some((a, lambda, c)) = expfit(&xs, &ys) {
        let sse: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(&xi, &yi)| (a * (-lambda * xi).exp() + c - yi).powi(2))
            .sum();
        let better = match &best {
            Some(ExpLogBest::Split { sse: b, .. } | ExpLogBest::Whole { sse: b, .. }) => sse < *b,
            None => true,
        };
        if better {
            best = Some(ExpLogBest::Whole { sse, a, lambda, c });
        }
    }

    match best? {
        ExpLogBest::Split { sse, lam, k, a, c } => {
            // Split winners only exist with a grid and a fitted log tail;
            // `?` keeps that invariant non-panicking.
            let grid = grid?;
            let (alpha, beta, sse_log) = tails[k]?;
            let mut model = PiecewiseExpLog {
                a,
                lambda: grid.at(lam),
                c,
                v: 0.5 * (xs[k - 1] + xs[k]),
                alpha,
                beta,
            };
            // The log tail is λ-independent: refine λ against the
            // exponential head's SSE inside the bracketing grid interval.
            let lo = grid.at(lam.saturating_sub(1));
            let hi = grid.at((lam + 1).min(N_LAMBDA - 1));
            if let Some((lambda, ra, rc, rsse)) =
                refine_lambda(lo, hi, |l| exp_head_eval(&xs, &ys, k, l))
            {
                if rsse + sse_log < sse {
                    model.a = ra;
                    model.lambda = lambda;
                    model.c = rc;
                }
            }
            Some(model)
        }
        ExpLogBest::Whole { sse, a, lambda, c } => {
            let mut model = PiecewiseExpLog {
                a,
                lambda,
                c,
                v: xs[n - 1] * 2.0,
                alpha: 0.0,
                beta: c,
            };
            // Refine within one step of `expfit`'s own geometric grid.
            let step = 10.0f64.powf(4.0 / 239.0);
            if let Some((rl, ra, rc, rsse)) = refine_lambda(lambda / step, lambda * step, |l| {
                exp_head_eval(&xs, &ys, n, l)
            }) {
                if rsse < sse {
                    model.a = ra;
                    model.lambda = rl;
                    model.c = rc;
                    model.beta = rc;
                }
            }
            Some(model)
        }
    }
}

pub mod oracle {
    //! Naive reference implementations of the piecewise fitters, preserved
    //! from before the sufficient-statistic engine: every (λ, k) candidate
    //! builds a fresh design matrix, solves generic normal equations, and
    //! scores with a full residual pass — O(λ·n²) with per-candidate heap
    //! allocation. They compute the same specification as the fast
    //! fitters and exist solely as ground truth for `tests/properties.rs`
    //! and the `bench/analytics` speedup benches; never call them on a hot
    //! path.

    use super::{
        least_squares, LambdaGrid, PiecewiseConstLog, PiecewiseExpLog, K_MIN, N_LAMBDA,
        REFINE_ITERS,
    };

    /// Naive `y = a·ln(x) + b` via an explicit design matrix.
    pub fn logfit(x: &[f64], y: &[f64]) -> Option<(f64, f64)> {
        if x.len() != y.len() || x.len() < 2 || x.iter().any(|&v| v <= 0.0) {
            return None;
        }
        let rows: Vec<Vec<f64>> = x.iter().map(|&xi| vec![xi.ln(), 1.0]).collect();
        let beta = least_squares(&rows, y)?;
        Some((beta[0], beta[1]))
    }

    /// Naive polynomial fit via an explicit design matrix.
    pub fn polyfit(x: &[f64], y: &[f64], degree: usize) -> Option<Vec<f64>> {
        if x.len() != y.len() || x.len() <= degree {
            return None;
        }
        let rows: Vec<Vec<f64>> = x
            .iter()
            .map(|&xi| (0..=degree).map(|p| xi.powi(p as i32)).collect())
            .collect();
        least_squares(&rows, y)
    }

    /// Naive `y = A·e^(−λx) + C`: per-λ design matrices and residual SSE.
    pub fn expfit(x: &[f64], y: &[f64]) -> Option<(f64, f64, f64)> {
        if x.len() != y.len() || x.len() < 3 {
            return None;
        }
        let x_span = x.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - x.iter().copied().fold(f64::INFINITY, f64::min);
        if x_span <= 0.0 {
            return None;
        }
        let mut best: Option<(f64, (f64, f64, f64))> = None;
        for i in 0..N_LAMBDA {
            let lambda = (10.0f64.powf(-2.0 + 4.0 * i as f64 / 239.0)) / x_span;
            let rows: Vec<Vec<f64>> = x
                .iter()
                .map(|&xi| vec![(-lambda * xi).exp(), 1.0])
                .collect();
            let Some(beta) = least_squares(&rows, y) else {
                continue;
            };
            let sse: f64 = rows
                .iter()
                .zip(y)
                .map(|(r, &yi)| (r[0] * beta[0] + beta[1] - yi).powi(2))
                .sum();
            if best.as_ref().is_none_or(|(e, _)| sse < *e) {
                best = Some((sse, (beta[0], lambda, beta[1])));
            }
        }
        best.map(|(_, p)| p)
    }

    /// Naive [`PiecewiseConstLog`] transition search: per-split mean and
    /// log least squares over freshly built matrices.
    pub fn fit_const_log(x: &[f64], y: &[f64]) -> Option<PiecewiseConstLog> {
        if x.len() != y.len() || x.len() < 4 || x.iter().any(|&v| v <= 0.0) {
            return None;
        }
        let (xs, ys) = super::sort_by_x(x, y);

        let mut best: Option<(f64, PiecewiseConstLog)> = None;
        for k in 0..xs.len() - 2 {
            let (u, sse_lo) = if k == 0 {
                (f64::NAN, 0.0)
            } else {
                let m = ys[..k].iter().sum::<f64>() / k as f64;
                (m, ys[..k].iter().map(|&v| (v - m).powi(2)).sum())
            };
            let Some((w, z)) = logfit(&xs[k..], &ys[k..]) else {
                continue;
            };
            let sse_hi: f64 = xs[k..]
                .iter()
                .zip(&ys[k..])
                .map(|(&xi, &yi)| (w * xi.ln() + z - yi).powi(2))
                .sum();
            let v = if k == 0 {
                xs[0] * 0.5
            } else {
                0.5 * (xs[k - 1] + xs[k])
            };
            let u = if u.is_nan() { w * v.ln() + z } else { u };
            let sse = sse_lo + sse_hi;
            if best.as_ref().is_none_or(|(e, _)| sse < *e) {
                best = Some((sse, PiecewiseConstLog { u, v, w, z }));
            }
        }
        best.map(|(_, m)| m)
    }

    /// Per-λ naive exponential-head fit over `xs[..k]`: design matrix,
    /// generic least squares, residual SSE.
    fn exp_head(xs: &[f64], ys: &[f64], k: usize, lambda: f64) -> Option<(f64, f64, f64)> {
        let rows: Vec<Vec<f64>> = xs[..k]
            .iter()
            .map(|&xi| vec![(-lambda * xi).exp(), 1.0])
            .collect();
        let beta = least_squares(&rows, &ys[..k])?;
        let sse: f64 = rows
            .iter()
            .zip(&ys[..k])
            .map(|(r, &yi)| (r[0] * beta[0] + beta[1] - yi).powi(2))
            .sum();
        Some((beta[0], beta[1], sse))
    }

    /// Golden-section λ refinement mirroring the fast fitter's bracketing
    /// logic, driven by the naive per-λ evaluation.
    fn refine(lo: f64, hi: f64, xs: &[f64], ys: &[f64], k: usize) -> Option<(f64, f64, f64, f64)> {
        const INV_PHI: f64 = 0.618_033_988_749_894_8;
        if !(lo > 0.0 && hi > lo) {
            return None;
        }
        let (mut a, mut b) = (lo.ln(), hi.ln());
        let probe = |t: f64| exp_head(xs, ys, k, t.exp()).map_or(f64::INFINITY, |(_, _, s)| s);
        let mut x1 = b - INV_PHI * (b - a);
        let mut x2 = a + INV_PHI * (b - a);
        let mut f1 = probe(x1);
        let mut f2 = probe(x2);
        for _ in 0..REFINE_ITERS {
            if f1 <= f2 {
                b = x2;
                x2 = x1;
                f2 = f1;
                x1 = b - INV_PHI * (b - a);
                f1 = probe(x1);
            } else {
                a = x1;
                x1 = x2;
                f1 = f2;
                x2 = a + INV_PHI * (b - a);
                f2 = probe(x2);
            }
        }
        let lambda = if f1 <= f2 { x1.exp() } else { x2.exp() };
        exp_head(xs, ys, k, lambda).map(|(ea, ec, sse)| (lambda, ea, ec, sse))
    }

    /// Naive [`PiecewiseExpLog`] fit computing the same specification as
    /// the fast [`super::fit_exp_log`] (shared λ grid, same split range,
    /// same whole-range fallback, same golden-section refinement) with
    /// O(λ·n²) design-matrix work per candidate.
    pub fn fit_exp_log(x: &[f64], y: &[f64]) -> Option<PiecewiseExpLog> {
        if x.len() != y.len() || x.len() < 7 {
            return None;
        }
        let (xs, ys) = super::sort_by_x(x, y);
        let n = xs.len();
        let k_max = n - 3;

        // (sse, lam index or None for the fallback, k, model)
        let mut best: Option<(f64, Option<usize>, usize, PiecewiseExpLog)> = None;
        if let Some(grid) = LambdaGrid::for_split_search(&xs) {
            for k in K_MIN..=k_max {
                let Some((alpha, beta)) = logfit(&xs[k..], &ys[k..]) else {
                    continue;
                };
                for i in 0..N_LAMBDA {
                    let lambda = grid.at(i);
                    let Some((a, c, _)) = exp_head(&xs, &ys, k, lambda) else {
                        continue;
                    };
                    let model = PiecewiseExpLog {
                        a,
                        lambda,
                        c,
                        v: 0.5 * (xs[k - 1] + xs[k]),
                        alpha,
                        beta,
                    };
                    let sse: f64 = xs
                        .iter()
                        .zip(&ys)
                        .map(|(&xi, &yi)| (model.predict(xi) - yi).powi(2))
                        .sum();
                    if best.as_ref().is_none_or(|(e, ..)| sse < *e) {
                        best = Some((sse, Some(i), k, model));
                    }
                }
            }
        }

        if let Some((a, lambda, c)) = expfit(&xs, &ys) {
            let model = PiecewiseExpLog {
                a,
                lambda,
                c,
                v: xs[n - 1] * 2.0,
                alpha: 0.0,
                beta: c,
            };
            let sse: f64 = xs
                .iter()
                .zip(&ys)
                .map(|(&xi, &yi)| (model.predict(xi) - yi).powi(2))
                .sum();
            if best.as_ref().is_none_or(|(e, ..)| sse < *e) {
                best = Some((sse, None, n, model));
            }
        }

        let (sse, lam, k, mut model) = best?;
        match lam {
            Some(i) => {
                let grid = LambdaGrid::for_split_search(&xs)?;
                let sse_log: f64 = xs[k..]
                    .iter()
                    .zip(&ys[k..])
                    .map(|(&xi, &yi)| (model.alpha * xi.ln() + model.beta - yi).powi(2))
                    .sum();
                let lo = grid.at(i.saturating_sub(1));
                let hi = grid.at((i + 1).min(N_LAMBDA - 1));
                if let Some((lambda, ra, rc, rsse)) = refine(lo, hi, &xs, &ys, k) {
                    if rsse + sse_log < sse {
                        model.a = ra;
                        model.lambda = lambda;
                        model.c = rc;
                    }
                }
            }
            None => {
                let step = 10.0f64.powf(4.0 / 239.0);
                if let Some((lambda, ra, rc, rsse)) =
                    refine(model.lambda / step, model.lambda * step, &xs, &ys, n)
                {
                    if rsse < sse {
                        model.a = ra;
                        model.lambda = lambda;
                        model.c = rc;
                        model.beta = rc;
                    }
                }
            }
        }
        Some(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_linear_2x2() {
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let b = vec![5.0, 10.0];
        let x = solve_linear(&a, &b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_linear_singular_returns_none() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve_linear(&a, &[1.0, 2.0]).is_none());
    }

    #[test]
    fn solve_linear_handles_badly_scaled_units() {
        // Nanosecond-scale units: every entry far below the old absolute
        // 1e-12 pivot cutoff, yet the system is perfectly conditioned.
        let a = vec![vec![2e-15, 1e-15], vec![1e-15, 3e-15]];
        let b = vec![5e-15, 10e-15];
        let x = solve_linear(&a, &b).expect("well-conditioned ns-scale system");
        assert!((x[0] - 1.0).abs() < 1e-9, "x0 = {}", x[0]);
        assert!((x[1] - 3.0).abs() < 1e-9, "x1 = {}", x[1]);
        // GB-scale units: huge entries made the old absolute cutoff accept
        // an effectively singular system; scale-relative rejects it.
        let a = vec![vec![1e9, 2e9], vec![2e9, 4e9 + 1e-3]];
        assert!(solve_linear(&a, &[1.0, 2.0]).is_none());
        // The fixed-size solver applies the same rule.
        assert!(solve_fixed([[2e-15, 1e-15], [1e-15, 3e-15]], [5e-15, 10e-15]).is_some());
        assert!(solve_fixed([[1e9, 2e9], [2e9, 4e9 + 1e-3]], [1.0, 2.0]).is_none());
    }

    #[test]
    fn solve_fixed_matches_solve_linear() {
        let a = [[3.0, 1.0, -2.0], [1.0, -4.0, 0.5], [2.0, 7.0, 9.0]];
        let b = [5.0, -3.0, 11.0];
        let fixed = solve_fixed(a, b).unwrap();
        let heap = solve_linear(&a.iter().map(|r| r.to_vec()).collect::<Vec<_>>(), &b).unwrap();
        for (f, h) in fixed.iter().zip(&heap) {
            assert!((f - h).abs() < 1e-12, "{f} vs {h}");
        }
    }

    #[test]
    fn polyfit_recovers_quadratic() {
        let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 50.0).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 3e-7 * x * x + 2e-4 * x + 0.1).collect();
        let c = polyfit(&xs, &ys, 2).unwrap();
        assert!((c[0] - 0.1).abs() < 1e-9);
        assert!((c[1] - 2e-4).abs() < 1e-12);
        assert!((c[2] - 3e-7).abs() < 1e-15);
    }

    #[test]
    fn polyfit_rejects_underdetermined() {
        assert!(polyfit(&[1.0, 2.0], &[1.0, 2.0], 2).is_none());
    }

    #[test]
    fn polyfit_high_degree_falls_back_to_generic_path() {
        let xs: Vec<f64> = (1..=16).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 1.0 + 2.0 * x.powi(5)).collect();
        let c = polyfit(&xs, &ys, 5).unwrap();
        assert_eq!(c.len(), 6);
        assert!((c[5] - 2.0).abs() < 1e-6, "c5 = {}", c[5]);
    }

    #[test]
    fn logfit_recovers_parameters() {
        let xs: Vec<f64> = (1..=50).map(|i| i as f64 * 20.0).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 4.5 * x.ln() - 2.0).collect();
        let (a, b) = logfit(&xs, &ys).unwrap();
        assert!((a - 4.5).abs() < 1e-9);
        assert!((b + 2.0).abs() < 1e-9);
    }

    #[test]
    fn expfit_recovers_decay() {
        let xs: Vec<f64> = (0..40).map(|i| i as f64 * 25.0).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| 0.16 * (-0.03 * x).exp() + 0.005)
            .collect();
        let (a, lambda, c) = expfit(&xs, &ys).unwrap();
        assert!((a - 0.16).abs() < 0.02, "A={a}");
        assert!((lambda - 0.03).abs() < 0.005, "lambda={lambda}");
        assert!((c - 0.005).abs() < 0.002, "C={c}");
    }

    #[test]
    fn const_log_finds_transition() {
        let xs: Vec<f64> = (1..=60).map(|i| i as f64 * 50.0).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| if x <= 800.0 { 6.0 } else { 1.2 * x.ln() - 2.0 })
            .collect();
        let m = fit_const_log(&xs, &ys).unwrap();
        assert!((m.u - 6.0).abs() < 0.1, "u={}", m.u);
        assert!((m.v - 800.0).abs() < 120.0, "v={}", m.v);
        assert!((m.w - 1.2).abs() < 0.05, "w={}", m.w);
    }

    #[test]
    fn exp_log_fits_both_regimes() {
        let xs: Vec<f64> = (1..=50).map(|i| i as f64 * 40.0).collect();
        let true_model = |x: f64| {
            if x <= 640.0 {
                0.159 * (-0.0324f64 * x).exp() + 0.0055
            } else {
                0.0123 * x.ln() - 0.0735
            }
        };
        let ys: Vec<f64> = xs.iter().map(|&x| true_model(x)).collect();
        let m = fit_exp_log(&xs, &ys).unwrap();
        let mape: f64 = xs
            .iter()
            .map(|&x| ((m.predict(x) - true_model(x)) / true_model(x)).abs())
            .sum::<f64>()
            / xs.len() as f64;
        assert!(mape < 0.15, "piecewise exp/log MAPE {mape}");
    }

    #[test]
    fn exp_log_refinement_recovers_exact_lambda() {
        // Exact exp-then-log data: the λ grid alone is ~4% coarse, the
        // golden-section refinement should land within ~0.01% of truth.
        let xs: Vec<f64> = (1..=64).map(|i| i as f64 * 64.0).collect();
        let true_model = |x: f64| {
            if x < 640.0 {
                0.16 * (-0.03 * x).exp() + 0.005
            } else {
                0.012 * x.ln() - 0.07
            }
        };
        let ys: Vec<f64> = xs.iter().map(|&x| true_model(x)).collect();
        let m = fit_exp_log(&xs, &ys).unwrap();
        assert!(
            (m.lambda - 0.03).abs() / 0.03 < 1e-4,
            "refined lambda {} vs 0.03",
            m.lambda
        );
        assert!((m.a - 0.16).abs() / 0.16 < 1e-3, "a = {}", m.a);
        assert!((m.c - 0.005).abs() / 0.005 < 1e-2, "c = {}", m.c);
    }

    #[test]
    fn fast_exp_log_matches_oracle_on_calibration_data() {
        // The bench/analytics calibration dataset (64-point exp→log).
        let xs: Vec<f64> = (1..=64).map(|k| k as f64 * 64.0).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| {
                if x < 640.0 {
                    0.16 * (-0.03 * x).exp() + 0.005
                } else {
                    0.012 * x.ln() - 0.07
                }
            })
            .collect();
        let fast = fit_exp_log(&xs, &ys).unwrap();
        let naive = oracle::fit_exp_log(&xs, &ys).unwrap();
        for (name, f, o) in [
            ("a", fast.a, naive.a),
            ("lambda", fast.lambda, naive.lambda),
            ("c", fast.c, naive.c),
            ("v", fast.v, naive.v),
            ("alpha", fast.alpha, naive.alpha),
            ("beta", fast.beta, naive.beta),
        ] {
            let rel = (f - o).abs() / o.abs().max(1e-300);
            assert!(rel < 1e-6, "{name}: fast {f} vs oracle {o} (rel {rel:.2e})");
        }
    }

    #[test]
    fn fast_const_log_matches_oracle_on_calibration_data() {
        let xs: Vec<f64> = (1..=64).map(|k| k as f64 * 64.0).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| if x < 800.0 { 6.0 } else { 1.2 * x.ln() - 2.0 })
            .collect();
        let fast = fit_const_log(&xs, &ys).unwrap();
        let naive = oracle::fit_const_log(&xs, &ys).unwrap();
        for (name, f, o) in [
            ("u", fast.u, naive.u),
            ("v", fast.v, naive.v),
            ("w", fast.w, naive.w),
            ("z", fast.z, naive.z),
        ] {
            let rel = (f - o).abs() / o.abs().max(1e-300);
            assert!(rel < 1e-6, "{name}: fast {f} vs oracle {o} (rel {rel:.2e})");
        }
    }

    #[test]
    fn least_squares_overdetermined() {
        // y = 2a + 3b with noise-free data.
        let rows = vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![2.0, 1.0],
        ];
        let y = vec![2.0, 3.0, 5.0, 7.0];
        let beta = least_squares(&rows, &y).unwrap();
        assert!((beta[0] - 2.0).abs() < 1e-12);
        assert!((beta[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn least_squares_fixed_matches_generic() {
        let rows = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]];
        let y = [2.0, 3.0, 5.0, 7.0];
        let fixed = least_squares_fixed(rows.iter().copied().zip(y.iter().copied())).unwrap();
        let generic =
            least_squares(&rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>(), &y).unwrap();
        assert_eq!(fixed[0].to_bits(), generic[0].to_bits());
        assert_eq!(fixed[1].to_bits(), generic[1].to_bits());
    }
}
