"""Spectra and closed-form localization-radius (r*) upper bounds, plus the
excess-risk bound assemblies used by the Macro-AUC experiment.

The r* bounds minimize, over a truncation cut d, a linear head term
d * chi_k / (K m_k) plus a tail term M * sqrt(chi_k / (K m_k) * tail(d))
where tail(d) sums the spectrum beyond d.  Kernel mode minimizes per task
with per-task spectra; linear (weight-SVD) mode shares one spectrum and
one cut across tasks.  In pair-transformed (Macro-AUC) mode the
substitution m_k = n~^2 tau_k (1 - tau_k), chi_k = (1 - tau_k) n~ makes
chi_k / m_k = 1 / (tau_k n~).

The excess-risk bounds c1 r + c2 t / K, with c1 = 704 / B and
c2 = (26 B + 22)(25/16) sum_k chi_k / m_k, share one body:
excess_bound_general at (r, B), bound_kernel_macroauc at (r*, B) and
bound_ours_macroauc at (mu r*, B = 1), exactly the pair-transformed forms
they document, as chi_k / m_k = 1 / (tau_k n~) and (26 + 22)(25/16) = 75.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, InvariantError, check_t, finite_result

_NEG_EIG_TOL = -1e-12
_EPS = np.finfo(float).eps
_RANK_DIVISOR = 8  # m // 8 pivots: what a full-rank Gram spends before its eigvalsh
_ROWS = 64  # Gram rows per block of spectrum_from_gram's checks and residual


@dataclass(frozen=True)
class SpectrumProfile:
    """Nonincreasing, nonnegative spectrum (kernel eigenvalues or squared
    singular values); entries beyond the stored list are treated as zero."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise InvariantError("spectrum must be one-dimensional")
        if (np.diff(vals) > 1e-12).any():
            raise InvariantError("spectrum must be sorted nonincreasing")
        if vals.size and vals.min() < _NEG_EIG_TOL:
            raise InvariantError(f"spectrum has negative entry {vals.min()}")
        object.__setattr__(self, "values", np.clip(vals, 0.0, None))

    def tail_sums(self):
        """tail[d] = sum of entries strictly beyond cut d, for d = 0..len."""
        return np.concatenate([np.cumsum(self.values[::-1])[::-1], [0.0]])


@finite_result
def spectrum_from_gram(gram) -> SpectrumProfile:
    """Operator-spectrum estimate: eigenvalues of A = gram/m, nonincreasing.

    The Gram matrix must be finite, symmetric within 1e-8 and PSD relative
    to its scale: an eigenvalue below -1e-8 max(1, lambda_max) is refused, and
    smaller negative eigenvalues from roundoff are clamped to zero.

    A Gram of numerical rank r <= m / 8 (a pair-transformed task's Gram
    has rank at most n_pos + n_neg - 1 of its n_pos n_neg rows) is
    factored A = R'R by diagonally pivoted Cholesky in O(m r^2) (Higham,
    "Analysis of the Cholesky decomposition of a semi-definite matrix",
    1990), and its spectrum is that of the r x r matrix R R', padded with
    m - r zeros.  Every value lies within m eps lambda_max of the dense
    eigvalsh of A, which every other input takes: one of larger rank, one
    with ||A - R'R||_F above m eps lambda_max / 2 (an indefinite A among
    them), or one whose largest diagonal entry is not positive and finite.

    The checks and the residual read the Gram in blocks of _ROWS rows, and
    the factor one pivot row at a time, so no m x m temporary is formed
    except A itself on the dense fallback.
    """
    G = np.asarray(gram, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise DomainError("Gram matrix must be square")
    m = G.shape[0]
    finite = True
    # An exactly symmetric block skips allclose; G - G' may overflow on a huge
    # asymmetric G, which is still asymmetric.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, m, _ROWS):
            rows, cols = G[i:i + _ROWS], G[:, i:i + _ROWS].T
            if not ((rows == cols).all() or np.allclose(rows, cols, atol=1e-8)):
                raise DomainError("Gram matrix must be symmetric within 1e-8")
            finite = finite and np.isfinite(rows).all()
    if not finite:
        raise DomainError("spectrum_from_gram must be finite, but its Gram matrix is not")
    eigs = _low_rank_spectrum(G)
    if eigs is None:
        eigs = np.linalg.eigvalsh(G / m)
    if eigs.size and eigs.min() < -1e-8 * max(1.0, eigs.max()):
        raise DomainError(f"Gram matrix not PSD: eigenvalue {eigs.min()}")
    vals = np.zeros(m)
    vals[:eigs.size] = np.clip(np.sort(eigs)[::-1], 0.0, None)
    return SpectrumProfile(values=vals)


def _low_rank_spectrum(G):
    """The r largest eigenvalues of A = G/m, ascending, from the r x r
    matrix R R' of a diagonally pivoted Cholesky factor A ~ R'R; the other
    m - r are within ||A - R'R||_F of 0.  None when the rank passes
    m // _RANK_DIVISOR, when ||A - R'R||_F exceeds m eps lambda_max / 2,
    or when max diag(A) is not positive and finite.

    Each step pivots on the largest residual diagonal and stops once it
    falls to m eps max diag(A) (LAPACK's dpstrf: Lucas, LAPACK Working
    Note 161, 2004).  By Weyl's inequality every eigenvalue of A lies
    within ||A - R'R||_2 <= ||A - R'R||_F of one of R'R's, so the residual
    check bounds the error, with half of m eps lambda_max left to the
    roundoff of the eigensolvers.  It also refuses an indefinite A, such
    as one holding a [[0, 1], [1, 0]] block, whose diagonal is no guide.

    A is never formed: a pivot row is scaled as G[p] / m when it is used,
    the same bits as (G / m)[p], and ||A - R'R||_F^2 is summed over blocks
    of _ROWS rows of R'R.
    """
    m = len(G)
    cap = m // _RANK_DIVISOR
    if cap < 1:
        return None
    scale = np.float64(m)  # G[p] / scale takes numpy's fast scalar path, with G[p] / m's bits
    d = G.diagonal() / scale
    tol = m * _EPS * d.max()
    if not 0.0 < tol < math.inf:
        return None
    R = np.empty((cap, m))
    # an overflow or a nan from a non-finite or indefinite A fails the residual check
    with np.errstate(all="ignore"):
        for k in range(cap + 1):
            p = d.argmax()
            pivot = d[p]
            if pivot <= tol:
                break
            if k == cap:
                return None
            row = R[k]
            np.dot(R[:k, p], R[:k], out=row)
            np.subtract(G[p] / scale, row, out=row)
            row /= math.sqrt(pivot)
            d -= np.square(row)
            d[p] = 0.0
        R = R[:k]
        eigs = np.linalg.eigvalsh(R @ R.T)
        residual = 0.0
        for i in range(0, m, _ROWS):
            E = R[:, i:i + _ROWS].T @ R
            np.subtract(G[i:i + _ROWS] / scale, E, out=E)
            residual += np.vdot(E, E)
        if not math.sqrt(residual) <= 0.5 * m * _EPS * eigs[-1]:
            return None
    return eigs


@finite_result
def spectrum_from_weights(theta) -> SpectrumProfile:
    """Squared singular values of a weight matrix, nonincreasing."""
    T = np.atleast_2d(np.asarray(theta, dtype=float))
    sv = np.linalg.svd(T, compute_uv=False)
    return SpectrumProfile(values=np.sort(sv**2)[::-1])


@dataclass(frozen=True)
class BoundParams:
    """Constants entering the r* and excess-risk formulas.

    Either (m_list, chi_list) are given directly, or pair-transformed mode
    derives them from (tau_list, n_tilde).
    """

    K: int
    m_list: tuple[float, ...]
    chi_list: tuple[float, ...]
    m_tilde: float = 1.0
    m_bar: float = 1.0
    mu: float = 1.0
    B: float = 1.0
    t: float = math.log(100.0)
    tau_list: tuple[float, ...] | None = None
    n_tilde: float | None = None

    def __post_init__(self):
        if self.K < 1 or len(self.m_list) != self.K or len(self.chi_list) != self.K:
            raise InvariantError("need one m_k and one chi_k per task")
        for name, val in (("m_tilde", self.m_tilde), ("m_bar", self.m_bar),
                          ("mu", self.mu), ("B", self.B)):
            if not math.isfinite(val):
                raise DomainError(f"{name} must be finite, got {val}")
        check_t(self.t)
        if self.m_tilde < 0:
            raise DomainError("m_tilde must be >= 0")
        for name, val in (("m_bar", self.m_bar), ("mu", self.mu), ("B", self.B)):
            if val <= 0:
                raise DomainError(f"{name} must be > 0")
        if not all(math.isfinite(v) and v > 0 for v in (*self.m_list, *self.chi_list)):
            raise DomainError("m_k and chi_k must be finite and > 0")
        if self.tau_list is not None:
            if any(not (0.0 < tau <= 0.5) for tau in self.tau_list):
                raise DomainError("every tau_k must lie in (0, 0.5]")

    @classmethod
    def pair_transformed(cls, tau_list, n_tilde, **kw):
        """Macro-AUC parameterization: m_k = n~^2 tau (1-tau), chi_k = (1-tau) n~."""
        tau_list = tuple(float(t) for t in tau_list)
        if any(tau <= 0 for tau in tau_list):
            raise DomainError("degenerate label: tau_k must be > 0")
        m_list = tuple(n_tilde * n_tilde * tau * (1.0 - tau) for tau in tau_list)
        chi_list = tuple((1.0 - tau) * n_tilde for tau in tau_list)
        return cls(K=len(tau_list), m_list=m_list, chi_list=chi_list,
                   tau_list=tau_list, n_tilde=float(n_tilde), **kw)

    @property
    def chi_over_m(self):
        return tuple(chi / m for chi, m in zip(self.chi_list, self.m_list))


@finite_result
def rstar_kernel(spectra, params: BoundParams):
    """r* upper bound for per-task kernel spectra.

    Per task the cut d_k ranges over 0..len(spectrum); the minimum of
    d_k chi_k/(K m_k) + m_tilde sqrt(chi_k/(K m_k) tail(d_k)) is found by
    exhaustive suffix-sum enumeration.  Returns (sum over tasks, argmin cuts).
    """
    if len(spectra) != params.K:
        raise InvariantError("one spectrum per task is required")
    total = 0.0
    cuts = []
    for spec, chi, m in zip(spectra, params.chi_list, params.m_list):
        coef = chi / (params.K * m)
        tails = spec.tail_sums()
        d_grid = np.arange(tails.size)
        with np.errstate(over="ignore"):  # an overflowing candidate loses the minimum
            cand = d_grid * coef + params.m_tilde * np.sqrt(coef * tails)
        d_best = int(np.argmin(cand))
        cuts.append(d_best)
        total += float(cand[d_best])
    return total, cuts


@finite_result
def rstar_linear(spectrum, params: BoundParams, experiment_mode: bool = False,
                 d_max: int | None = None):
    """r* upper bound for a shared weight-SVD spectrum with one shared cut.

    Candidate value at cut d is
        sum_k [ (d / m_bar^2) chi_k/(K m_k) + m_tilde sqrt(chi_k/(K m_k) tail(d)) ].
    experiment_mode applies the pair-transformed report convention: the
    whole minimum is doubled.  The integer cut grid spans 0..len(spectrum),
    capped at d_max when the caller supplies one (report_bounds passes
    min(D, K) * rate).
    """
    tails = spectrum.tail_sums()
    hi = tails.size - 1
    if d_max is not None:
        if d_max < 0:
            raise DomainError(f"d_max must be >= 0, got {d_max}")
        hi = min(hi, int(d_max))
    ratios = np.array(params.chi_over_m) / params.K
    d_grid = np.arange(hi + 1)
    with np.errstate(over="ignore"):  # an overflowing candidate loses the minimum
        head = d_grid[:, None] / params.m_bar**2 * ratios[None, :]
        tail_term = params.m_tilde * np.sqrt(ratios[None, :] * tails[d_grid][:, None])
        cand = (head + tail_term).sum(axis=1)
    d_best = int(np.argmin(cand))
    value = float(cand[d_best])
    if experiment_mode:
        value *= 2.0
    return value, d_best


def _excess(r, params, B, mu=1.0):
    """(704/B) mu r + (26B + 22)(25/16) sum_k(chi_k/m_k) t / K, the one
    excess-risk body, undecorated so that each caller names its own errors;
    r is checked before mu scales it."""
    if not 0 <= r < math.inf:
        raise DomainError(f"r must be finite and >= 0, got {r}")
    c = 25.0 / 16.0 * sum(params.chi_over_m)
    return 704.0 / B * (mu * r) + (26.0 * B + 22.0) * c * params.t / params.K


@finite_result
def excess_bound_general(r: float, params: BoundParams) -> float:
    """Excess-risk bound (704/B) r + (26B + 22)(25/16) sum_k(chi_k/m_k) t / K.

    The caller must have certified r >= r* (e.g. r at or above the fixed
    point of the localization function).
    """
    return _excess(r, params, params.B)


@finite_result
def bound_ours_macroauc(rstar: float, params: BoundParams) -> float:
    """Pair-transformed excess-risk bound 704 mu r* + (75/K) sum_k(1/tau_k) t/n~."""
    if params.tau_list is None:
        raise InvariantError("bound_ours_macroauc needs pair-transformed parameters")
    return _excess(rstar, params, 1.0, params.mu)


@finite_result
def bound_prior_macroauc(params: BoundParams) -> float:
    """Prior global-complexity bound
    2 [ 4 mu m_bar m_tilde / sqrt(n~) (1/K) sum_k sqrt(1/tau_k)
        + 3 sqrt((log 2 + t) / (2 n~)) sqrt((1/K) sum_k 1/tau_k) ]."""
    if params.tau_list is None or params.n_tilde is None:
        raise InvariantError("prior bound needs pair-transformed parameters")
    n = params.n_tilde
    term1 = (4.0 * params.mu * params.m_bar * params.m_tilde / math.sqrt(n)
             * sum(math.sqrt(1.0 / tau) for tau in params.tau_list) / params.K)
    term2 = (3.0 * math.sqrt((math.log(2.0) + params.t) / (2.0 * n))
             * math.sqrt(sum(1.0 / tau for tau in params.tau_list) / params.K))
    return 2.0 * (term1 + term2)


@finite_result
def bound_kernel_macroauc(rstar: float, params: BoundParams) -> float:
    """Kernel-mode pair-transformed bound with explicit constants
    (704/B) r* + (26B + 22)(25/16)(1/n~) sum_k(1/tau_k) t/K."""
    if params.tau_list is None:
        raise InvariantError("bound_kernel_macroauc needs pair-transformed parameters")
    return _excess(rstar, params, params.B)


@dataclass
class BoundReport:
    """Serializable record of one bound computation; the field order is
    the key order of its report."""

    bound_ours: float
    bound_prior: float
    r_star: float
    d_star: int
    params: dict
    provenance: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)
