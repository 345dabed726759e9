"""Empirical local Rademacher complexity of norm-bounded linear classes
under a variance constraint, plus sub-root function utilities.

The per-task building block is the supremum of a linear functional over
the intersection of the Euclidean ball ||theta|| <= M and the ellipsoid
theta' S theta <= r (S an empirical second-moment matrix).  It is solved
in batch: S is decomposed once per task, and the KKT multiplier of every
aggregate vector (one per Rademacher draw) is found at once by a
vectorized root search.  The localized complexity estimate averages that
supremum over independent Rademacher sign draws; localization radii are
then pinned down by the fixed point of a sub-root function, found by
bracketing and bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, InvariantError, \
    StructuralError, check_seed, finite_result

_EIG_CLIP = 1e-12
# Rademacher signs drawn per block of draws in estimate_lfrc (2 MB as
# float64); a block holds at least one draw.
_SIGN_BLOCK = 1 << 18
# The multiplier search stops once a bracket is narrower than XTOL + RTOL * a,
# and fails after MAX_STEPS steps (the bounds of the scalar search it replaced).
_XTOL, _RTOL = 1e-15, 1e-14
_MAX_STEPS = 100


@dataclass(frozen=True)
class LinearClassSpec:
    """Constraint set per task: ||theta_k||_2 <= m_tilde and
    theta_k' S_k theta_k <= r (empirical second moment, uncentered)."""

    m_tilde: float
    second_moments: tuple[np.ndarray, ...]
    r: float = math.inf

    def __post_init__(self):
        if not (math.isfinite(self.m_tilde) and self.m_tilde > 0):
            raise DomainError(f"m_tilde must be finite and > 0, got {self.m_tilde}")
        if math.isnan(self.r) or self.r <= 0:
            raise DomainError(
                f"variance radius r must be > 0 (use math.inf to disable), got {self.r}")
        for S in self.second_moments:
            if S.ndim != 2 or S.shape[0] != S.shape[1]:
                raise InvariantError("second-moment matrices must be square")
            if not np.isfinite(S).all():
                raise DomainError("second-moment matrix has a non-finite entry")
            if not np.allclose(S, S.T, atol=1e-10):
                raise InvariantError("second-moment matrix not symmetric")


def _row_dot(A, B):
    """Row-wise dot products of A (n x D) with B (n x D, or one D-vector).

    A stacked matmul makes one BLAS dot call per row, the call the 1-D
    `a @ b` makes, so a row's value does not depend on the other rows.
    """
    return (A[:, None, :] @ B[..., None])[:, 0, 0]


def _quad_on_ball(CT, a, lam, m_sq):
    """theta(a) ~ (I + a S)^{-1} c scaled onto the ball ||theta||^2 = m_sq,
    per row of the eigenbasis aggregates CT; returns theta' S theta, which
    falls as a grows."""
    U = CT / (1.0 + a[:, None] * lam)
    return m_sq * _row_dot(U * U, lam) / _row_dot(U, U)


def _multiplier(CT, lam, m_sq, r):
    """The a > 0 with quad_on_ball(a) = r, for every row of CT at once.

    Each row brackets its root by growing a_hi fourfold from 1, then runs
    Brent's method on [0, a_hi] (secant or inverse quadratic steps,
    bisection whenever a step is not short enough) until its bracket is
    narrower than XTOL + RTOL * a.  Every step is the scalar method's
    step, masked per row: a row stops on its own bracket, so its root is
    the one a scalar Brent search finds, whatever the other rows hold.
    """
    def gap(rows, a):
        return _quad_on_ball(CT[rows], a, lam, m_sq) - r

    every = np.arange(len(CT))
    hi = np.ones(len(CT))
    grow = gap(every, hi) > 0.0
    while grow.any():
        hi[grow] *= 4.0
        if hi.max() > 1e18:
            raise ConvergenceError("failed to bracket the active-constraint multiplier")
        grow[grow] = gap(every[grow], hi[grow]) > 0.0

    xpre, xcur = np.zeros(len(CT)), hi
    fpre, fcur = gap(every, xpre), gap(every, xcur)
    xblk, fblk, spre, scur = (np.zeros(len(CT)) for _ in range(4))
    root = xcur.copy()
    live = fcur != 0.0
    for _ in range(_MAX_STEPS):
        if not live.any():
            return root
        # keep the root between xcur and xblk, with xcur the better end
        flip = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre, scur = (np.where(flip, xcur - xpre, s) for s in (spre, scur))
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))
        delta = (_XTOL + _RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = live & ((fcur == 0.0) | (np.abs(sbis) < delta))
        root[done] = xcur[done]
        live &= ~done
        with np.errstate(all="ignore"):  # rows that bisect discard these
            secant = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            inverse_quadratic = (-fcur * (fblk * dblk - fpre * dpre)
                                 / (dblk * dpre * (fblk - fpre)))
        stry = np.where(xpre == xblk, secant, inverse_quadratic)
        short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                 & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        fcur = fcur.copy()
        fcur[live] = gap(every[live], xcur[live])
    if live.any():
        raise ConvergenceError(f"multiplier search did not converge in {_MAX_STEPS} steps")
    return root


def _sup_rows(C, S, m_tilde, r):
    """max c.theta subject to ||theta|| <= m_tilde and theta' S theta <= r,
    for every row c of C (n x D) against one S.

    Solved on the KKT path theta(a) ~ (I + a S)^{-1} c in the eigenbasis
    of S, decomposed once.  Each row falls in one case, kept as a mask:
    c = 0 gives 0; r = inf, or a ball maximizer m_tilde c/|c| inside the
    ellipsoid (a = 0), gives m_tilde |c|; c in range(S) with the ball slack gives
    the pure-ellipsoid value sqrt(r c'S^+c); otherwise both constraints
    are active at the root a > 0 of the monotone quad_on_ball(a) = r.
    """
    norm_c = np.sqrt(_row_dot(C, C))
    if not math.isfinite(r):
        return m_tilde * norm_c
    out = np.zeros(len(C))
    nonzero = norm_c > 0.0
    if not nonzero.any():
        return out
    lam, Q = np.linalg.eigh(np.asarray(S, dtype=float))
    if lam[0] < -1e-8 * max(1.0, abs(lam[-1])):
        raise InvariantError(f"second-moment matrix has eigenvalue {lam[0]} < 0")
    lam = np.clip(lam, 0.0, None)
    norm_c = norm_c[nonzero]
    CT = (C[nonzero][:, None, :] @ Q)[:, 0, :]
    active = lam > _EIG_CLIP
    with np.errstate(over="ignore"):  # an infinite m_tilde^2, c'Sc or lam^2 only decides a row's case
        m_sq = np.square(float(m_tilde))
        vals = m_tilde * norm_c
        tight = _quad_on_ball(CT, np.zeros(len(CT)), lam, m_sq) > r
        in_range = tight & np.all(active | (np.abs(CT) <= _EIG_CLIP * norm_c[:, None]), axis=1)
        # C order: a column mask would leave a Fortran-ordered copy, whose
        # row sums add in another order than the 1-D sum of one row
        ct = np.ascontiguousarray(CT[in_range][:, active])
        s1 = np.sum(ct**2 / lam[active], axis=1)
        s2 = np.sum(ct**2 / lam[active] ** 2, axis=1)
        ellipsoid = np.zeros_like(tight)
        ellipsoid[in_range] = r * s2 / s1 <= m_sq
    vals[ellipsoid] = np.sqrt(r * s1[ellipsoid[in_range]])

    both = tight & ~ellipsoid
    if both.any():
        CT = CT[both]
        a = _multiplier(CT, lam, m_sq, r)
        U = CT / (1.0 + a[:, None] * lam)
        theta = m_tilde * U / np.sqrt(_row_dot(U, U))[:, None]
        vals[both] = _row_dot(CT, theta)
    out[nonzero] = vals
    return out


def sup_linear(c_list, spec: LinearClassSpec) -> float:
    """Sum over tasks of max{c_k.theta : ||theta|| <= m_tilde, theta'S_k theta <= r}.

    Each task is the one-row case of the batch solver that estimate_lfrc
    runs over all Rademacher draws at once.
    """
    if len(c_list) != len(spec.second_moments):
        raise StructuralError("one aggregate vector per task is required")
    return sum(
        float(_sup_rows(np.asarray(c, dtype=float)[None, :], S, spec.m_tilde, spec.r)[0])
        for c, S in zip(c_list, spec.second_moments)
    )


@finite_result
def second_moment_matrix(features) -> np.ndarray:
    """Empirical second moment (1/m) sum_i x_i x_i' of one task's sample."""
    X = np.asarray(features, dtype=float)
    return X.T @ X / X.shape[0]


@finite_result
def estimate_lfrc(features_per_task, covers, spec: LinearClassSpec,
                  n_draws: int, seed: int):
    """Monte Carlo estimate of the empirical localized complexity.

    Each draw assigns one Rademacher sign per sample.  Because every
    vertex's cover weights sum to 1, the cover-weighted aggregate for task
    k collapses to c_k = (1/m_k) sum_i zeta_i x_i; the estimate is the
    average over draws of sup_linear(c, spec) / K, with its standard error.
    Draws run in blocks: one `integers` call draws a block's signs for
    every task (the same stream as one call per draw and task), and each
    task's supremum is solved for the whole block at once.
    """
    if n_draws < 1:
        raise DomainError("n_draws must be >= 1")
    check_seed(seed)
    K = len(features_per_task)
    if len(covers) != K or len(spec.second_moments) != K:
        raise StructuralError("features, covers and second moments must align per task")
    mats = []
    for X, cover in zip(features_per_task, covers):
        X = np.asarray(X, dtype=float)
        if cover is not None and cover.graph.n_vertices != X.shape[0]:
            raise StructuralError(
                f"cover graph has {cover.graph.n_vertices} vertices, task has "
                f"{X.shape[0]} samples"
            )
        mats.append(X)
    sizes = [X.shape[0] for X in mats]
    block = max(1, _SIGN_BLOCK // sum(sizes))
    rng = np.random.default_rng(seed)
    vals = np.zeros(n_draws)
    for start in range(0, n_draws, block):
        stop = min(start + block, n_draws)
        # row d holds draw d's signs, task after task, as the per-draw calls drew them
        signs = rng.integers(0, 2, size=(stop - start, sum(sizes))) * 2.0 - 1.0
        tasks = zip(mats, np.split(signs, np.cumsum(sizes)[:-1], axis=1),
                    spec.second_moments)
        for X, zeta, S in tasks:
            C = (zeta[:, None, :] @ X)[:, 0, :] / X.shape[0]
            vals[start:stop] += _sup_rows(C, S, spec.m_tilde, spec.r)
    vals /= K
    est = float(vals.mean())
    # The std of vals scaled by 2^-e, e the exponent of max |vals|, scaled
    # back: the powers of two are exact, and the squares cannot overflow.
    scale = math.ldexp(1.0, -math.frexp(float(np.abs(vals).max()))[1])
    stderr = float((vals * scale).std(ddof=1) / scale / math.sqrt(n_draws)) \
        if n_draws > 1 else 0.0
    return est, stderr


# The sub-root grid check spans [r_hi * GRID_SPAN, r_hi] in GRID_POINTS
# log-spaced points.
_GRID_SPAN = 1e-12
_GRID_POINTS = 64


def _check_r_hi(r_hi):
    if not (math.isfinite(r_hi) and r_hi * _GRID_SPAN > 0):
        raise DomainError(f"r_hi must be finite and > 0 with a positive grid floor "
                          f"r_hi * {_GRID_SPAN:g}, got {r_hi}")


@dataclass
class SubRootHandle:
    """An evaluable candidate sub-root function with a search ceiling.

    Sub-root means nonnegative, nondecreasing, with r -> f(r)/sqrt(r)
    nonincreasing; such a function has a unique positive fixed point.
    The properties are checked on a log-spaced grid, not assumed.
    """

    fn: Callable[[float], float]
    r_hi: float = 1e6

    def __post_init__(self):
        _check_r_hi(self.r_hi)

    def __call__(self, r):
        return self.fn(r)

    def grid_check(self):
        """Verify sub-root properties on a grid; DomainError on failure."""
        grid = np.geomspace(self.r_hi * _GRID_SPAN, self.r_hi, _GRID_POINTS)
        vals = np.array([self.fn(r) for r in grid])
        if (vals < -1e-12).any():
            raise DomainError("function is negative on the grid; not sub-root")
        diffs = np.diff(vals)
        if (diffs < -1e-9 * np.maximum(1.0, np.abs(vals[:-1]))).any():
            raise DomainError("function is decreasing on the grid; not sub-root")
        scaled = vals / np.sqrt(grid)
        rdiffs = np.diff(scaled)
        if (rdiffs > 1e-9 * np.maximum(1.0, scaled[:-1])).any():
            raise DomainError("f(r)/sqrt(r) increases on the grid; not sub-root")
        if vals.max() <= 0.0:
            raise DomainError("function is identically zero on the grid")


def fixed_point(handle: SubRootHandle, tol: float = 1e-10) -> float:
    """Unique positive solution of f(r) = r for a sub-root f.

    Since f(r) >= r exactly for r <= r*, the sign of f(r) - r brackets the
    fixed point: expand upward from r_hi while f(r) >= r, halve downward
    to find the lower bracket, the upper one following it, then bisect until
    |f(r) - r| <= tol * max(1, r).
    """
    _check_r_hi(handle.r_hi)
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and > 0, got {tol}")
    handle.grid_check()

    def gap(r):
        return handle.fn(r) - r

    hi = handle.r_hi
    while gap(hi) >= 0.0:
        hi *= 2.0
        if hi > 1e300:
            raise InvariantError("no fixed point below 1e300; f does not cross r")
    lo = min(handle.r_hi, hi / 2.0)
    while gap(lo) < 0.0:
        hi, lo = lo, lo / 2.0
        if lo < 1e-300:
            raise InvariantError("no sign change above 1e-300; f may be trivial")
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        g = gap(mid)
        if abs(g) <= tol * max(1.0, mid) and hi - lo <= tol * max(1.0, mid):
            return mid
        if g >= 0.0:
            lo = mid
        else:
            hi = mid
    r = 0.5 * (lo + hi)
    if abs(gap(r)) > tol * max(1.0, r):
        raise ConvergenceError("bisection failed to reach tolerance")
    return r
