"""Empirical local Rademacher complexity of norm-bounded linear classes
under a variance constraint, plus sub-root function utilities.

The per-task building block is the supremum of a linear functional over
the intersection of the Euclidean ball ||theta|| <= M and the ellipsoid
theta' S theta <= r (S an empirical second-moment matrix).  It is solved
in batch: S is decomposed once per task, and the KKT multiplier of every
aggregate vector (one per Rademacher draw, signs from raw generator
words) is found at once by a safeguarded Newton search.  The localized
complexity estimate averages that supremum over the draws; localization
radii are then pinned down by the fixed point of a sub-root function,
found by the iteration r <- f(r).
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
_SLICE = 128  # samples per matrix product of a block's aggregates
# The multiplier search in x = log a stops a row on a Newton step shorter
# than XTOL, fails after MAX_STEPS evaluations, and keeps x in [FLOOR, CAP].
_XTOL, _MAX_STEPS = 1e-8, 100
_X_FLOOR, _X_CAP = -700.0, 29 * math.log(4.0)


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


def _multiplier(CT, lam, m_sq, r, q0):
    """The a > 0 where theta(a) ~ (I + a S)^{-1} c on the ball ||theta||^2 = m_sq
    meets theta' S theta = r (q0 > r at a = 0), for each row c of CT (S's eigenbasis).

    With u = c / (1 + a lam) that is m_sq p / s, p = sum lam u^2, s = sum u^2,
    falling in a.  Newton steps run on g = log(m_sq p / (r s)) in x = log a,
    each row in its own bracket from a = (sqrt(q0 / r) - 1) / lam_max (as
    p / s >= p(0) / (s(0) (1 + a lam_max)^2)) to 4^29.  A step out of the
    bracket or longer than half of it (plain Newton can cycle between its
    ends) bisects it, or visits an unvisited 4^29; g > 0 there is refused.
    Reductions are `_row_dot`s, so no row's root depends on another's.
    """
    with np.errstate(all="ignore"):  # a row that overflows bisects instead
        x = lo = np.fmin(np.fmax(np.log(
            (q0 - r) / ((np.sqrt(q0) * math.sqrt(r) + r) * lam[-1])), _X_FLOOR), _X_CAP)
        hi, open_cap = np.full(len(CT), _X_CAP), np.ones(len(CT), dtype=bool)
        root, rows = np.empty(len(CT)), np.arange(len(CT))
        for _ in range(_MAX_STEPS):
            a = np.exp(x)
            w = 1.0 / (1.0 + a[:, None] * lam)
            U = CT[rows] * w
            s = _row_dot(U, U)
            U *= U
            p = _row_dot(U, lam)
            U *= w
            g = np.log(p) - np.log(s) - (math.log(r) - math.log(m_sq))
            step = g / (2.0 * a * (_row_dot(U, lam * lam) / p - _row_dot(U, lam) / s))
            above = g > 0.0
            if (above & (x == _X_CAP)).any():
                raise ConvergenceError("failed to bracket the active-constraint multiplier")
            lo, hi, open_cap = np.where(above, x, lo), np.where(above, hi, x), open_cap & above
            done = np.abs(step) <= _XTOL
            take = done | (x + step > lo) & (x + step < hi) & (2.0 * np.abs(step) <= hi - lo)
            x = np.where(take, x + step, np.where(open_cap, _X_CAP, 0.5 * (lo + hi)))
            done |= (hi - lo <= _XTOL) & ~open_cap
            root[rows[done]] = x[done]
            rows, x, lo, hi, open_cap = (v[~done] for v in (rows, x, lo, hi, open_cap))
            if not len(rows):
                return np.exp(root)
    raise ConvergenceError(f"multiplier search did not converge in {_MAX_STEPS} steps")


def _sup_rows(C, S, m_tilde, r):
    """max c.theta subject to ||theta|| <= m_tilde and theta' S theta <= r,
    for every row c of C (n x D) against one S.

    Solved on the KKT path theta(a) ~ (I + a S)^{-1} c in the eigenbasis
    of S, decomposed once.  Each row falls in one case, kept as a mask:
    c = 0 gives 0; r = inf, or a ball maximizer m_tilde c/|c| inside the
    ellipsoid (a = 0), gives m_tilde |c|; c in range(S) with the ball slack gives
    the pure-ellipsoid value sqrt(r c'S^+c); otherwise both constraints
    are active at the root a > 0 of `_multiplier`, and the value is the
    dual bound sqrt((m_tilde^2 + a r) c'(I + a S)^{-1} c), stationary there.
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
        q0 = m_sq * _row_dot(CT * CT, lam) / _row_dot(CT, CT)
        tight = q0 > r
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
        a = _multiplier(CT, lam, m_sq, r, q0[both])
        vals[both] = np.sqrt((m_sq + a * r) * _row_dot(CT / (1.0 + a[:, None] * lam), CT))
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


def _aggregates(zeta, X):
    """(1/m) zeta X for sign rows zeta and m x D features X, one product per
    _SLICE samples: OpenBLAS 0.3.31 splits a 484-sample sum at 256 on one
    thread and at 242 on two, but sums a slice in one pass on any count."""
    C = zeta[:, :_SLICE] @ X[:_SLICE]
    for i in range(_SLICE, len(X), _SLICE):
        C += zeta[:, i:i + _SLICE] @ X[i:i + _SLICE]
    return C / len(X)


def _signs(bitgen, n, spare):
    """The n signs 2b - 1 for the bits b of `Generator.integers(0, 2, n)` on
    bitgen, and the half-word left for the next call (`spare`, 0 or 1): for
    int64 output integers(0, 2) keeps the top bit of one half-word per value,
    low half first, rejecting none (Lemire's method at range 2), and keeps a
    spare high half in the generator, which `random_raw` leaves to its caller."""
    halves = bitgen.random_raw((n - spare.size + 1) // 2).astype("<u8", copy=False).view("<u4")
    if spare.size:
        halves = np.concatenate((spare, halves))
    spare, bits = halves[n:].copy(), halves[:n]
    signs = np.multiply(np.right_shift(bits, 31, out=bits), 2.0)
    signs -= 1.0
    return signs, spare


@finite_result
def estimate_lfrc(features_per_task, covers, spec: LinearClassSpec,
                  n_draws: int, seed: int):
    """Monte Carlo estimate of the empirical localized complexity.

    Each draw assigns one Rademacher sign per sample.  Because every
    vertex's cover weights sum to 1, the cover-weighted aggregate for task
    k collapses to c_k = (1/m_k) sum_i zeta_i x_i; the estimate is the
    average over draws of sup_linear(c, spec) / K, with its standard error.
    A cover is only checked for its vertex count.  Draws run in blocks: one
    `random_raw` call gives a block's signs (those `Generator.integers(0, 2)`
    draws in one call per draw and task), and each task's aggregates and
    suprema are formed for the whole block at once.
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
    width = sum(sizes)
    if width == 0:
        raise DomainError("estimate_lfrc needs a sample to sign, but "
                          + ("no task is given" if K == 0 else "every task has zero samples"))
    block = max(1, _SIGN_BLOCK // width)
    bitgen, spare = np.random.default_rng(seed).bit_generator, np.empty(0, dtype="<u4")
    vals = np.zeros(n_draws)
    for start in range(0, n_draws, block):
        stop = min(start + block, n_draws)
        signs, spare = _signs(bitgen, (stop - start) * width, spare)
        # row d holds draw d's signs, task after task, as the per-draw calls drew them
        signs = signs.reshape(stop - start, width)
        tasks = zip(mats, np.split(signs, np.cumsum(sizes)[:-1], axis=1),
                    spec.second_moments)
        for X, zeta, S in tasks:
            vals[start:stop] += _sup_rows(_aggregates(zeta, X), S, spec.m_tilde, spec.r)
    vals /= K
    est = float(vals.mean())
    # The std of vals scaled by 2^-e, e the exponent of max |vals|, scaled
    # back: the powers of two are exact, and the squares cannot overflow.
    scale = math.ldexp(1.0, -math.frexp(float(np.abs(vals).max()))[1])
    stderr = float((vals * scale).std(ddof=1) / scale / math.sqrt(n_draws)) \
        if n_draws > 1 else 0.0
    return est, stderr


# The sub-root grid check spans [r_hi * GRID_SPAN, r_hi] in GRID_POINTS
# log-spaced points; the fixed-point iteration fails after FIXED_POINT_STEPS
# evaluations.
_GRID_SPAN = 1e-12
_GRID_POINTS = 64
_FIXED_POINT_STEPS = 100


def _check_r_hi(r_hi):
    if not (math.isfinite(r_hi) and r_hi * _GRID_SPAN > 0):
        raise DomainError(f"r_hi must be finite and > 0 with a positive grid floor "
                          f"r_hi * {_GRID_SPAN:g}, got {r_hi}")


@dataclass
class SubRootHandle:
    """A candidate sub-root function `fn` and a radius `r_hi`, where
    `fixed_point`'s iteration starts and `grid_check`'s grid ends; the
    fixed point may lie above it.  Both evaluate `fn`.

    Sub-root means nonnegative, nondecreasing, with r -> f(r)/sqrt(r)
    nonincreasing; such a function has a unique positive fixed point.
    The properties are checked on a log-spaced grid, not assumed.
    """

    fn: Callable[[float], float]
    r_hi: float = 1e6

    def __post_init__(self):
        _check_r_hi(self.r_hi)

    def grid_check(self):
        """Verify that fn is finite and sub-root on a grid; DomainError on failure."""
        grid = np.geomspace(self.r_hi * _GRID_SPAN, self.r_hi, _GRID_POINTS)
        vals = np.array([self.fn(r) for r in grid])
        if not np.isfinite(vals).all():
            raise DomainError("function is nan or infinite on the grid; not sub-root")
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

    The iteration r <- f(r), started at r_hi, converges monotonically to
    the fixed point r* from either side, and at least halves |log(r / r*)|
    at each step (f(r) lies between sqrt(r r*) and r*).  It stops at the
    first iterate r with |f(r) - r| <= tol * r / 2 and returns f(r), which
    is then within tol / (2 - tol) of r* relative; tol is in (0, 1).
    An r* outside [1e-300, 1e300] raises InvariantError from any r_hi: an
    iterate outside that range is refused once it stops there or moves
    away from the range, and one still moving back toward it is kept.  A
    nan f(r), such as one beyond the grid, raises DomainError.
    """
    _check_r_hi(handle.r_hi)
    if not 0.0 < tol < 1.0:
        raise DomainError(f"tol must be in (0, 1), got {tol}")
    handle.grid_check()
    r = handle.r_hi
    for _ in range(_FIXED_POINT_STEPS):
        f = handle.fn(r)
        if math.isnan(f):
            raise DomainError(f"function is nan at r = {r!r}; not sub-root")
        done = abs(f - r) <= tol * r / 2.0
        # the iterates move monotonically toward r*: r* lies beyond f, in the
        # direction of the step, or at f once done
        if not (f <= 1e300 or f < r and not done):
            raise InvariantError("no fixed point below 1e300; f does not cross r")
        if not (f >= 1e-300 or f > r and not done):
            raise InvariantError("no fixed point above 1e-300; f may be trivial")
        if done:
            return f
        r = f
    raise ConvergenceError(f"fixed-point iteration did not reach tol in "
                           f"{_FIXED_POINT_STEPS} steps")
