"""Independent oracles used by the tests.

Each oracle re-derives its target quantity by a different algorithm than
the library path it checks: projected gradient ascent with Dykstra
projections for the constrained linear supremum, one eigendecomposition
and one scalar brentq per (draw, task) for the localized complexity
estimate, characteristic-polynomial
root finding for eigenvalues, a Gram spectrum from one dense `eigvalsh`
whatever its rank or from a pivoted Cholesky factor checked against
the whole m x m residual, plain-loop enumeration for the truncation
minima, closed-form quadratics for sub-root fixed points and the
bracket-and-bisect search `lfrc.fixed_point` ran before it iterated, a greedy
coloring that rescans the edge list for every neighbourhood, the rook
graph's edges listed one pair at a time, maximal independent sets by a
scan of every vertex subset, chi_f from scipy's HiGHS, SGD that
trains one label at a time with one scalar step per sampled pair, bound
inputs from one pair transform per label, mlsvm files read one token at
a time, SGD row draws from spawned
`default_rng` streams and their `integers` calls, Macro-AUC from one
`scipy.stats.rankdata` call per label, and Monte Carlo task sums drawn
in one call per side and batch, or added up from the whole (trials, K,
n_pos, n_neg) pair tensor, verify's bundles and supremum class from
the positional (classes, class size, summands) task shape with unit
weights written in and the summand law written out per kernel,
phi in `mpmath` at a precision that outgrows its cancellation, and the
excess-risk bound assemblies as their documented formulas in `mpmath`.
"""

import functools
import itertools
import math
import warnings

import numpy as np
from scipy.optimize import brentq, linprog
from scipy.stats import rankdata

from gdbound.errors import ConfigError, ConvergenceError, DegenerateLabelError, \
    DomainError, FormatError, InvariantError, ModeError, ParseError, StructuralError, \
    UndefinedMetricError, finite_result
from gdbound import mcverify
from gdbound.bounds import _RANK_DIVISOR, SpectrumProfile
from gdbound.concentration import TailBoundInput
from gdbound.graphdep import FractionalCover
from gdbound.lfrc import _EIG_CLIP
from gdbound.macroauc import LAMBDA_GRID, MAX_CELLS, LinearRanker, MultiLabelDataset, \
    TrainConfig, derive_seed, macro_auc, pair_transform


def pga_sup_linear(c, S, m_tilde, r, outer=4000, inner=20000, tol=1e-13):
    """max c.theta over the ball/ellipsoid intersection by projected
    gradient ascent.

    Any fixed point of theta <- P(theta + step * c) is a maximizer of the
    linear objective, so a moderate constant step with an exact projection
    (Dykstra alternating ball and ellipsoid projections) converges to the
    optimum; iteration stops once the value is stable to `tol`.
    """
    return _pga(c, S, m_tilde, r, outer, inner, tol)[0]


def pga_feasible_value(c, S, m_tilde, r):
    """c.theta at the projected-gradient iterate of `pga_sup_linear`, scaled
    down into the constraint set: a lower bound on the supremum."""
    c = np.asarray(c, dtype=float)
    theta = _pga(c, S, m_tilde, r)[1]
    quad = float(theta @ np.asarray(S, dtype=float) @ theta)
    scale = min(1.0, m_tilde / max(float(np.linalg.norm(theta)), 1e-300),
                math.sqrt(r / quad) if quad > 0.0 else 1.0)
    return float(c @ (theta * scale))


def _pga(c, S, m_tilde, r, outer=4000, inner=20000, tol=1e-13):
    """(value, iterate) of the projected gradient ascent in pga_sup_linear."""
    c = np.asarray(c, dtype=float)
    if not math.isfinite(r):
        norm_c = float(np.linalg.norm(c))
        return m_tilde * norm_c, m_tilde * c / norm_c if norm_c > 0.0 else 0.0 * c
    lam, Q = np.linalg.eigh(np.asarray(S, dtype=float))
    lam = np.clip(lam, 0.0, None)
    R = m_tilde

    def proj_ball(z):
        n = np.linalg.norm(z)
        return z if n <= R else z * (R / n)

    def proj_ell(z):
        zt = Q.T @ z
        if float(lam @ (zt * zt)) <= r * (1 + 1e-15):
            return z
        f = lambda nu: float(lam @ ((zt / (1 + nu * lam)) ** 2)) - r
        hi = 1.0
        while f(hi) > 0:
            hi *= 4
        nu = brentq(f, 0.0, hi, xtol=1e-16, rtol=8.9e-16, maxiter=300)
        return Q @ (zt / (1 + nu * lam))

    def project(z):
        x = z.copy()
        p = np.zeros_like(z)
        q = np.zeros_like(z)
        for _ in range(inner):
            y = proj_ell(x + p)
            p = x + p - y
            xn = proj_ball(y + q)
            q = y + q - xn
            if np.linalg.norm(xn - x) <= 1e-16 * max(1.0, np.linalg.norm(xn)):
                return xn
            x = xn
        return x

    norm_c = float(np.linalg.norm(c))
    if norm_c == 0.0:
        return 0.0, np.zeros_like(c)
    step = 20.0 * R / norm_c
    theta = np.zeros_like(c)
    prev = -math.inf
    stable = 0
    for _ in range(outer):
        theta = project(theta + step * c)
        v = float(c @ theta)
        if abs(v - prev) <= tol * max(1.0, abs(v)):
            stable += 1
            if stable >= 3:
                break
        else:
            stable = 0
        prev = v
    return v, theta


def scalar_sup_one(c, S, m_tilde, r):
    """max c.theta subject to ||theta|| <= m_tilde and theta' S theta <= r.

    Solved on the KKT path theta(a) ~ (I + a S)^{-1} c: a = 0 when the
    norm ball alone binds, the pure-ellipsoid solution when the ball is
    slack, otherwise the a > 0 making both constraints active (root of a
    monotone scalar equation in the eigenbasis of S).
    """
    c = np.asarray(c, dtype=float)
    norm_c = float(np.linalg.norm(c))
    if norm_c == 0.0:
        return 0.0
    if not math.isfinite(r):
        return m_tilde * norm_c

    lam, Q = np.linalg.eigh(np.asarray(S, dtype=float))
    if lam[0] < -1e-8 * max(1.0, abs(lam[-1])):
        raise InvariantError(f"second-moment matrix has eigenvalue {lam[0]} < 0")
    lam = np.clip(lam, 0.0, None)
    ct = Q.T @ c

    def quad_on_ball(a):
        # theta(a) scaled onto the ball boundary; returns theta' S theta
        u = ct / (1.0 + a * lam)
        nsq = float(u @ u)
        return m_tilde**2 * float(lam @ (u * u)) / nsq

    if quad_on_ball(0.0) <= r:
        return m_tilde * norm_c

    active = lam > _EIG_CLIP
    if np.all(active | (np.abs(ct) <= _EIG_CLIP * norm_c)):
        # c lives in range(S): pure ellipsoid candidate theta ~ S^+ c
        s1 = float(np.sum(ct[active] ** 2 / lam[active]))
        s2 = float(np.sum(ct[active] ** 2 / lam[active] ** 2))
        if r * s2 / s1 <= m_tilde**2:
            return math.sqrt(r * s1)

    a_hi = 1.0
    while quad_on_ball(a_hi) > r:
        a_hi *= 4.0
        if a_hi > 1e18:
            raise RuntimeError("failed to bracket the active-constraint multiplier")
    a = brentq(lambda x: quad_on_ball(x) - r, 0.0, a_hi, xtol=1e-15, rtol=1e-14)
    u = ct / (1.0 + a * lam)
    theta = m_tilde * u / np.linalg.norm(u)
    return float(ct @ theta)


def loop_estimate_lfrc(features_per_task, covers, spec, n_draws, seed):
    """Monte Carlo estimate of the empirical localized complexity.

    Each draw assigns one Rademacher sign per sample.  Because every
    vertex's cover weights sum to 1, the cover-weighted aggregate for task
    k collapses to c_k = (1/m_k) sum_i zeta_i x_i; the estimate is the
    average over draws of sup_linear(c, spec) / K, with its standard error.
    """
    if n_draws < 1:
        raise DomainError("n_draws must be >= 1")
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
    rng = np.random.default_rng(seed)
    vals = np.empty(n_draws)
    for d in range(n_draws):
        total = 0.0
        for k, X in enumerate(mats):
            zeta = rng.integers(0, 2, size=X.shape[0]) * 2.0 - 1.0
            c = zeta @ X / X.shape[0]
            total += scalar_sup_one(c, spec.second_moments[k], spec.m_tilde, spec.r)
        vals[d] = total / K
    est = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(n_draws)) if n_draws > 1 else 0.0
    return est, stderr


def charpoly_eigenvalues(matrix):
    """Eigenvalues as roots of the characteristic polynomial, with the
    coefficients built from power-sum traces via Newton's identities."""
    A = np.asarray(matrix, dtype=float)
    n = A.shape[0]
    powers = [np.eye(n)]
    for _ in range(n):
        powers.append(powers[-1] @ A)
    p = [float(np.trace(powers[k])) for k in range(n + 1)]  # power sums
    # e_0 = 1; k e_k = sum_{i=1..k} (-1)^{i-1} e_{k-i} p_i
    e = [1.0]
    for k in range(1, n + 1):
        acc = 0.0
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * e[k - i] * p[i]
        e.append(acc / k)
    coeffs = [(-1) ** k * e[k] for k in range(n + 1)]  # x^n - e1 x^{n-1} + ...
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


@finite_result
def eigvalsh_spectrum_from_gram(gram):
    """Eigenvalues of gram/m, nonincreasing, from one dense eigvalsh of the
    whole m x m matrix: `bounds.spectrum_from_gram` before it factored
    low-rank Grams, with its relative PSD rule and its refusal of a
    non-finite Gram."""
    G = np.asarray(gram, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise DomainError("Gram matrix must be square")
    with np.errstate(over="ignore", invalid="ignore"):
        symmetric = np.allclose(G, G.T, atol=1e-8)
    if not symmetric:
        raise DomainError("Gram matrix must be symmetric within 1e-8")
    if not all(math.isfinite(x) for x in G.ravel().tolist()):
        raise DomainError(f"{eigvalsh_spectrum_from_gram.__name__} must be finite, "
                          "but its Gram matrix is not")
    m = G.shape[0]
    eigs = np.linalg.eigvalsh(G / m)
    if eigs.size and eigs.min() < -1e-8 * max(1.0, eigs.max()):
        raise DomainError(f"Gram matrix not PSD: eigenvalue {eigs.min()}")
    return SpectrumProfile(values=np.clip(np.sort(eigs)[::-1], 0.0, None))


@finite_result
def dense_residual_spectrum_from_gram(gram):
    """`bounds.spectrum_from_gram` as it was before it read the Gram in row
    blocks: the symmetry and finiteness checks on the whole matrix, A = G/m
    formed once, and the low-rank path's residual A - R'R as one m x m
    matrix."""
    G = np.asarray(gram, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise DomainError("Gram matrix must be square")
    with np.errstate(over="ignore", invalid="ignore"):
        symmetric = (G == G.T).all() or np.allclose(G, G.T, atol=1e-8)
    if not symmetric:
        raise DomainError("Gram matrix must be symmetric within 1e-8")
    if not np.isfinite(G).all():
        raise DomainError(f"{dense_residual_spectrum_from_gram.__name__} must be finite, "
                          "but its Gram matrix is not")
    m = G.shape[0]
    A = G / m
    eigs = _dense_residual_low_rank_spectrum(A)
    if eigs is None:
        eigs = np.linalg.eigvalsh(A)
    if eigs.size and eigs.min() < -1e-8 * max(1.0, eigs.max()):
        raise DomainError(f"Gram matrix not PSD: eigenvalue {eigs.min()}")
    vals = np.zeros(m)
    vals[:eigs.size] = np.clip(np.sort(eigs)[::-1], 0.0, None)
    return SpectrumProfile(values=vals)


def _dense_residual_low_rank_spectrum(A):
    """The pivoted Cholesky spectrum of A, or None, as in
    `dense_residual_spectrum_from_gram`."""
    m = len(A)
    cap = m // _RANK_DIVISOR
    if cap < 1:
        return None
    d = A.diagonal().copy()
    tol = m * np.finfo(float).eps * d.max()
    if not 0.0 < tol < math.inf:
        return None
    R = np.empty((cap, m))
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
            np.subtract(A[p], row, out=row)
            row /= math.sqrt(pivot)
            d -= np.square(row)
            d[p] = 0.0
        R = R[:k]
        eigs = np.linalg.eigvalsh(R @ R.T)
        E = R.T @ R
        np.subtract(A, E, out=E)
        if not math.sqrt(np.vdot(E, E)) <= 0.5 * m * np.finfo(float).eps * eigs[-1]:
            return None
    return eigs


def brute_force_rstar_kernel(spectra_values, chi_list, m_list, m_tilde, K):
    """Plain-loop re-enumeration of the per-task truncation minimum."""
    total = 0.0
    cuts = []
    for values, chi, m in zip(spectra_values, chi_list, m_list):
        ratio = chi / (K * m)
        best = None
        best_d = None
        for d in range(len(values) + 1):
            tail = sum(values[d:])
            cand = d * ratio + m_tilde * math.sqrt(ratio * tail)
            if best is None or cand < best:
                best, best_d = cand, d
        total += best
        cuts.append(best_d)
    return total, cuts


def brute_force_rstar_linear(values, chi_list, m_list, m_tilde, m_bar, K,
                             factor_two=False, d_max=None):
    """Plain-loop re-enumeration of the shared-cut truncation minimum."""
    hi = len(values) if d_max is None else min(len(values), d_max)
    best = None
    best_d = None
    for d in range(hi + 1):
        tail = sum(values[d:])
        cand = 0.0
        for chi, m in zip(chi_list, m_list):
            ratio = chi / (K * m)
            cand += d / m_bar**2 * ratio + m_tilde * math.sqrt(ratio * tail)
        if best is None or cand < best:
            best, best_d = cand, d
    if factor_two:
        best *= 2.0
    return best, best_d


def sqrt_affine_fixed_point(a, b):
    """Closed-form fixed point of a*sqrt(r) + b: the quadratic in sqrt(r)."""
    s = (a + math.sqrt(a * a + 4.0 * b)) / 2.0
    return s * s


def sqrt_min_sum_fixed_point(c, lams):
    """Closed-form fixed point of sqrt(c sum_j min(r, lam_j)), lam_j > 0.

    At r* the k eigenvalues above it add k r* and the rest their sum T, so
    r*^2 = c (k r* + T), a quadratic in r*.  lam_j lies at or below r*
    exactly when f(lam_j) >= lam_j; where that is a near tie, lam_j ~ r*
    and both choices of side give the same root."""
    def f(r):
        return math.sqrt(c * sum(min(r, lam) for lam in lams))

    below = [lam for lam in lams if f(lam) >= lam]
    ck, T = c * (len(lams) - len(below)), math.fsum(below)
    return (ck + math.sqrt(ck * ck + 4.0 * c * T)) / 2.0


def bisect_fixed_point(fn, r_hi, tol):
    """Fixed point of a sub-root fn by the sign of fn(r) - r: double upward
    from r_hi while fn(r) >= r, halve downward to the lower bracket, then
    bisect until |fn(r) - r| <= tol * max(1, r) and the bracket is as narrow.
    Its floor of 1 on the tolerance leaves r* below about 1e-10 up to 50 %
    off."""
    def gap(r):
        return fn(r) - r

    hi = r_hi
    while gap(hi) >= 0.0:
        hi *= 2.0
        if hi > 1e300:
            raise InvariantError("no fixed point below 1e300; f does not cross r")
    lo = min(r_hi, hi / 2.0)
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


def brute_force_macro_auc(scores, labels):
    """Macro-AUC by full pair enumeration with explicit 0.5 tie credit."""
    n, K = labels.shape
    aucs = []
    for k in range(K):
        pos = [i for i in range(n) if labels[i, k] == 1]
        neg = [i for i in range(n) if labels[i, k] == -1]
        if not pos or not neg:
            continue
        correct = 0.0
        for i in pos:
            for j in neg:
                if scores[i, k] > scores[j, k]:
                    correct += 1.0
                elif scores[i, k] == scores[j, k]:
                    correct += 0.5
        aucs.append(correct / (len(pos) * len(neg)))
    return sum(aucs) / len(aucs)


def rankdata_macro_auc(scores, dataset):
    """Macro-AUC that ranks one label at a time with `scipy.stats.rankdata`
    (a nan score makes its label's ranks nan); the reference for the
    one-pass ranks of `macro_auc`."""
    if isinstance(scores, LinearRanker):
        scores = scores.scores(dataset)
    else:
        scores = np.asarray(scores, dtype=float)
    aucs = []
    for k in range(dataset.n_labels):
        col = dataset.labels[:, k]
        pos = col == 1
        neg = col == -1
        n_pos, n_neg = int(pos.sum()), int(neg.sum())
        if n_pos == 0 or n_neg == 0:
            continue
        ranks = rankdata(scores[:, k], method="average")
        auc = (ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        aucs.append(auc)
    if not aucs:
        raise UndefinedMetricError("every label is degenerate; Macro-AUC undefined")
    return float(np.mean(aucs))


def edge_scan_greedy_cover(graph):
    """Greedy coloring cover that finds each neighbourhood by scanning every
    edge (O(V*E)); the reference for the adjacency-based greedy_cover."""

    def neighbors(v):
        out = set()
        for a, b in graph.edges:
            if a == v:
                out.add(b)
            elif b == v:
                out.add(a)
        return out

    n = graph.n_vertices
    order = sorted(range(n), key=lambda v: (-len(neighbors(v)), v))
    color = {}
    for v in order:
        used = {color[u] for u in neighbors(v) if u in color}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    n_colors = max(color.values()) + 1 if color else 0
    classes = []
    for c in range(n_colors):
        members = frozenset(v for v in range(n) if color[v] == c)
        classes.append((members, 1.0))
    return FractionalCover(classes=tuple(classes), graph=graph)


def rook_edges(n_pos, n_neg):
    """Edges of the bipartite-ranking (rook) graph, one (u, v) pair per
    dependent pair of vertices p * n_neg + q; the reference for the
    neighbour sets that `bipartite_ranking_graph` builds from rows and
    columns."""
    vid = lambda p, q: p * n_neg + q
    edges = []
    for p, q in itertools.product(range(n_pos), range(n_neg)):
        for q2 in range(q + 1, n_neg):
            edges.append((vid(p, q), vid(p, q2)))
        for p2 in range(p + 1, n_pos):
            edges.append((vid(p, q), vid(p2, q)))
    return edges


def subset_scan_maximal_independent_sets(graph):
    """All maximal independent sets by a scan of all 2^n vertex subsets in
    ascending bitmask order; the reference for the vertex-by-vertex growth
    of `graphdep.maximal_independent_sets`."""
    n = graph.n_vertices
    adj_masks = [sum(1 << u for u in nbrs) for nbrs in graph.adjacency]
    full, maximal = (1 << n) - 1, []
    for mask in range(1, 1 << n):
        m, reach = mask, mask
        while m:
            v = (m & -m).bit_length() - 1
            if adj_masks[v] & mask:
                break
            reach |= adj_masks[v]
            m &= m - 1
        else:
            # independent; maximal when every vertex outside has a neighbour inside
            if reach == full:
                maximal.append(frozenset(v for v in range(n) if mask >> v & 1))
    return maximal


def highs_chromatic_fractional(graph):
    """chi_f from scipy's HiGHS on the packing LP over the maximal
    independent sets (max sum y_v s.t. sum_{v in I} y_v <= 1 per set I);
    the reference for the package's own simplex."""
    n = graph.n_vertices
    if n == 0:
        return 0.0
    sets = subset_scan_maximal_independent_sets(graph)
    A = np.array([[v in s for v in range(n)] for s in sets], dtype=float)
    res = linprog(-np.ones(n), A_ub=A, b_ub=np.ones(len(sets)), bounds=(0, None),
                  method="highs")
    if res.status != 0:
        raise AssertionError(f"HiGHS did not solve the packing LP: {res.message}")
    return -float(res.fun)


def loop_train_sgd(dataset, config):
    """Pairwise-hinge SGD one label at a time, one pair per Python step;
    the reference for the lockstep `train_many`."""
    if dataset.n_samples == 0:
        raise DomainError("cannot train on an empty dataset")
    X = dataset.features
    n, d = X.shape
    K = dataset.n_labels
    W = np.zeros((K, d))
    excluded = []
    decay = 1.0 - 2.0 * config.lr * config.weight_decay
    if decay <= 0:
        raise ConfigError("lr * weight_decay too large; update would flip sign")
    streams = np.random.SeedSequence(config.seed).spawn(K)
    for k in range(K):
        try:
            task = pair_transform(dataset, k)
        except DegenerateLabelError:
            excluded.append(k)
            continue
        rng = np.random.default_rng(streams[k])
        w = W[k]
        pos, neg = task.pos_idx, task.neg_idx
        for _ in range(config.epochs):
            pi = pos[rng.integers(0, pos.size, size=n)]
            ni = neg[rng.integers(0, neg.size, size=n)]
            xp_rows = X[pi]
            xn_rows = X[ni]
            for i in range(n):
                diff = xp_rows[i] - xn_rows[i]
                margin = w @ diff
                if decay != 1.0:
                    w *= decay
                if margin < 1.0:
                    w += config.lr * diff
        W[k] = w
    return LinearRanker(weights=W, config=config, excluded_labels=tuple(excluded))


def loop_bound_inputs(dataset):
    """(tau_k per kept label, kept labels, excluded labels, m_bar) of a
    training split, from one `pair_transform` call per label and the row
    norms of the split; the reference for the inputs `report_bounds` reads.
    UndefinedMetricError when every label is degenerate."""
    taus, kept, excluded = [], [], []
    for k in range(dataset.n_labels):
        try:
            task = pair_transform(dataset, k)
        except DegenerateLabelError:
            excluded.append(k)
            continue
        taus.append(task.tau)
        kept.append(k)
    if not taus:
        raise UndefinedMetricError("every label degenerate; no bound to report")
    return taus, kept, excluded, dataset.max_row_norm()


def loop_load_dataset(path):
    """The mlsvm format read one token at a time, as `load_dataset` read
    it before its block parse; the reference that the block parse and its
    fallback must match, array for array and error for error.

    Header: `#samples=<n> #features=<D> #labels=<K>`.  Each following line
    is `l1,l2,...<TAB>f1:v1 f2:v2 ...` where the label list holds the
    0-based positive label indices (may be empty) and features are sparse
    0-based index:value pairs; a repeated index sums.  A header whose
    n*D or n*K exceeds MAX_CELLS is rejected before anything is allocated.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise FormatError("empty dataset file")
    try:
        header = dict(
            part.split("=", 1) for part in lines[0].replace("#", "").split()
        )
        n = int(header["samples"])
        d = int(header["features"])
        k = int(header["labels"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad header line: {lines[0]!r}") from exc
    if n < 0 or d < 1 or k < 1:
        raise FormatError("header counts must be positive")

    body = lines[1:]
    # Trailing blank lines are padding; a lone tab is an all-negative zero
    # row, which `save_dataset` writes.
    while body and not body[-1].strip() and "\t" not in body[-1]:
        body.pop()
    if len(body) != n:
        raise FormatError(f"header promises {n} samples, file has {len(body)}")
    if max(n * d, n * k) > MAX_CELLS:
        raise FormatError(f"header declares {n} samples x {d} features and {k} labels; "
                          f"n*D and n*K must not exceed {MAX_CELLS}")
    labels = -np.ones((n, k), dtype=np.int8)
    rows, cols, vals = [], [], []
    for i, line in enumerate(body):
        lineno = i + 2
        if "\t" in line:
            label_part, feat_part = line.split("\t", 1)
        else:
            label_part, feat_part = line, ""
        label_part = label_part.strip()
        if label_part:
            for tok in label_part.split(","):
                try:
                    li = int(tok)
                except ValueError:
                    raise ParseError(f"bad label token {tok!r}", line=lineno)
                if not (0 <= li < k):
                    raise ParseError(f"label index {li} out of range [0,{k})", line=lineno)
                labels[i, li] = 1
        for tok in feat_part.split():
            if ":" not in tok:
                raise ParseError(f"bad feature token {tok!r}", line=lineno)
            fi_s, fv_s = tok.split(":", 1)
            try:
                fi, fv = int(fi_s), float(fv_s)
            except ValueError:
                raise ParseError(f"bad feature token {tok!r}", line=lineno)
            if not math.isfinite(fv):
                raise ParseError(f"non-finite feature value {tok!r}", line=lineno)
            if not (0 <= fi < d):
                raise ParseError(f"feature index {fi} out of range [0,{d})", line=lineno)
            rows.append(i)
            cols.append(fi)
            vals.append(fv)
    X = np.zeros((n, d))
    np.add.at(X, (rows, cols), vals)
    return MultiLabelDataset(X, labels)


def spawned_block_draws(seed, n_labels, label, sizes, n, blocks):
    """One SGD chain's pool positions as `train_many` drew them with a
    Generator per chain: child `label` of SeedSequence(seed).spawn(n_labels)
    seeds a `default_rng`, and each block of nb epochs in `blocks` is one
    `integers(0, [[n+], [n-]], size=(nb, 2, n))` call, negatives offset by
    n+.  Returns the blocks and the bit generator's final state."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(n_labels)[label])
    high = np.array(sizes, dtype=np.int64).reshape(2, 1)
    drawn = []
    for nb in blocks:
        pick = rng.integers(0, high, size=(nb, 2, n))
        pick[:, 1] += high[0]
        drawn.append(pick)
    return drawn, rng.bit_generator.state


def loop_cv_select(dataset, grid=LAMBDA_GRID, folds=3, config=TrainConfig()):
    """Cross-validation that trains each (lambda, fold) fit, then the chosen
    lambda's final fit, with `loop_train_sgd`; the reference for `cv_select`."""
    if dataset.n_samples < folds:
        raise DomainError(f"need at least {folds} samples for {folds}-fold CV")
    rng = np.random.default_rng(derive_seed(config.seed, 0xF01D))
    perm = rng.permutation(dataset.n_samples)
    fold_idx = np.array_split(perm, folds)
    best_lam, best_auc = None, -math.inf
    for li, lam in enumerate(grid):
        fold_aucs = []
        for fi in range(folds):
            val_idx = np.sort(fold_idx[fi])
            tr_idx = np.sort(np.concatenate([fold_idx[j] for j in range(folds) if j != fi]))
            sub_cfg = TrainConfig(lr=config.lr, epochs=config.epochs,
                                  weight_decay=lam,
                                  seed=derive_seed(config.seed, li, fi))
            ranker = loop_train_sgd(dataset.subset(tr_idx), sub_cfg)
            try:
                fold_aucs.append(macro_auc(ranker, dataset.subset(val_idx)))
            except UndefinedMetricError:
                warnings.warn(f"fold {fi}: all labels degenerate, skipped")
        if not fold_aucs:
            continue
        mean_auc = float(np.mean(fold_aucs))
        if mean_auc > best_auc:
            best_lam, best_auc = lam, mean_auc
    if best_lam is None:
        raise UndefinedMetricError("no usable fold in cross-validation")
    final_cfg = TrainConfig(lr=config.lr, epochs=config.epochs,
                            weight_decay=best_lam, seed=config.seed)
    return best_lam, loop_train_sgd(dataset, final_cfg)


def _one_call_raw(bitgen, sampler, shape):
    """Integer base draws of the given shape from one `random_raw` call:
    for a uniform base the 32-bit halves k of the words, low half first
    (the draw is (k + 1/2) 2^-32); for a two-point base whether each word
    is below ceil(p 2^53) 2^11, i.e. whether its `random()` is below p."""
    n = math.prod(shape)
    if sampler.base == "uniform":
        words = bitgen.random_raw((n + 1) // 2)
        return words.astype("<u8").view("<u4")[:n].reshape(shape)
    below = np.uint64(math.ceil(sampler.base_p * 2.0**53) << 11)
    return (bitgen.random_raw(n) < below).reshape(shape)


def _one_call_base(bitgen, sampler, shape):
    """Base draws of the given shape from one `random_raw` call."""
    return _base_values(sampler, _one_call_raw(bitgen, sampler, shape))


def _base_values(sampler, raw):
    """The base draws that integer draws stand for."""
    if sampler.base == "uniform":
        return (raw + 0.5) * 2.0**-32
    lo, hi = sampler.base_lo, sampler.base_hi
    return lo + (hi - lo) * raw


def _one_call_side(bitgen, sampler, shape, shift, sq_center):
    """Task sums S(draw - shift), and S((draw - sq_center)^2) unless
    sq_center is None, of one side drawn in one call; a uniform task sum
    is (2 sum k + width) 2^-33 and a two-point one (lo - shift) width +
    (hi - lo) B for its count B of hi draws."""
    width = shape[-1]
    raw = _one_call_raw(bitgen, sampler, shape)
    if sampler.base == "uniform":
        sums = (2 * raw.sum(axis=-1, dtype=np.uint64) + width) * 2.0**-33 - width * shift
        if sq_center is None:
            return sums, None
        return sums, (((raw + 0.5) * 2.0**-32 - sq_center) ** 2).sum(axis=-1)
    lo, hi = sampler.base_lo, sampler.base_hi
    counts = raw.sum(axis=-1)
    sums = (lo - shift) * width + (hi - lo) * counts
    if sq_center is None:
        return sums, None
    sq_lo, sq_hi = (lo - sq_center) ** 2, (hi - sq_center) ** 2
    return sums, sq_lo * width + (sq_hi - sq_lo) * counts


def one_call_task_sums(bitgen, sampler, base_mean, size, squares):
    """(size, K) task sums and task sums of squared summands (or None) of
    one batch, from one `random_raw` call per side over the whole batch;
    the reference for the blocked draws of `mcverify._draw_task_sums`."""
    shape = (size, sampler.k_tasks)
    if sampler.structure == "iid_blocks":
        shift = base_mean if sampler.centered else 0.0
        return _one_call_side(bitgen, sampler, shape + (sampler.m,), shift,
                              shift if squares else None)
    sq_center = None
    if squares:
        sq_center = base_mean if sampler.kernel == "centered_product" else 0.0
    su, squ = _one_call_side(bitgen, sampler, shape + (sampler.n_pos,), 0.0, sq_center)
    sw, sqw = _one_call_side(bitgen, sampler, shape + (sampler.n_neg,), 0.0, sq_center)
    n_pos, n_neg = sampler.n_pos, sampler.n_neg
    if sampler.kernel == "centered_product":
        sums = (su - n_pos * base_mean) * (sw - n_neg * base_mean)
    elif sampler.kernel == "product":
        sums = su * sw
    else:
        sums = 0.5 * (n_neg * su + n_pos * sw)
    if not squares:
        return sums, None
    if sampler.kernel == "mean":
        return sums, 0.25 * (n_neg * squ + 2.0 * su * sw + n_pos * sqw)
    return sums, squ * sqw


def _pair_tensor_draw(bitgen, sampler, base_mean, size):
    """(size, K, m) iid summands or (size, K, n_pos, n_neg) pair values,
    with one `random_raw` call per side in the library's order, and their
    (size, K) task sums.  A task adds up its summands, except that an iid
    task on a two-point base is (lo - shift) m + (hi - lo) B for its count
    B of hi draws, as the sampler's law defines it."""
    shape = (size, sampler.k_tasks)
    if sampler.structure == "iid_blocks":
        raw = _one_call_raw(bitgen, sampler, shape + (sampler.m,))
        shift = base_mean if sampler.centered else 0.0
        vals = _base_values(sampler, raw) - shift
        if sampler.base == "uniform":
            return vals, vals.sum(axis=2)
        lo, hi = sampler.base_lo, sampler.base_hi
        return vals, (lo - shift) * sampler.m + (hi - lo) * raw.sum(axis=2)
    u = _one_call_base(bitgen, sampler, shape + (sampler.n_pos,))[..., :, None]
    w = _one_call_base(bitgen, sampler, shape + (sampler.n_neg,))[..., None, :]
    if sampler.kernel == "product":
        vals = u * w
    elif sampler.kernel == "centered_product":
        vals = (u - base_mean) * (w - base_mean)
    else:
        vals = 0.5 * (u + w)
    return vals, vals.sum(axis=(2, 3))


def _pair_tensor_batches(sampler, n_trials, stream_offset, reduce):
    seqs = np.random.SeedSequence(sampler.seed).spawn(
        stream_offset + mcverify._n_batches(n_trials))
    base_mean = mcverify._base_law(sampler).mean
    return [reduce(*_pair_tensor_draw(np.random.PCG64(seq), sampler, base_mean,
                                      min(mcverify.BATCH, n_trials - i * mcverify.BATCH)))
            for i, seq in enumerate(seqs[stream_offset:])]


def pair_tensor_simulate(sampler, n_trials, sup_mode=False, stream_offset=0):
    """Z realizations from the summed pair tensor; with sup_mode, each task
    sum is replaced by |task sum - summands * mean| / amp, amp and mean from
    `summand_law`.  The reference for `mcverify._simulate`."""
    if sup_mode:
        mean, _, lo, hi = summand_law(sampler)
        amp = max(hi - mean, mean - lo)
        shift = task_shape(sampler)[2] * mean

    def reduce(_, task_sums):
        if sup_mode:
            task_sums = np.abs(task_sums - shift) / amp
        return task_sums.sum(axis=1)

    return np.concatenate(_pair_tensor_batches(sampler, n_trials, stream_offset, reduce))


def pair_tensor_calibrate(sampler, n_cal, stream_offset):
    """Pooled (mean, second moment) of every summand of the pair tensor;
    the reference for `mcverify._calibrate`."""
    s1, s2, count = 0.0, 0.0, 0
    for b1, b2, n in _pair_tensor_batches(
            sampler, n_cal, stream_offset,
            lambda vals, _: (float(vals.sum()), float((vals**2).sum()), vals.size)):
        s1 += b1
        s2 += b2
        count += n
    return s1 / count, s2 / count


def summand_law(sampler):
    """(mean, e2, lo, hi) of one summand: the base's moments and range,
    centered for a centered iid task, or those of g(u, w) for the pair
    kernel, written out per structure and kernel; the reference for
    `mcverify._summand_law`."""
    if sampler.base == "uniform":
        mean, e2, lo, hi = 0.5, 1.0 / 3.0, 0.0, 1.0
    else:
        p, lo, hi = sampler.base_p, sampler.base_lo, sampler.base_hi
        mean, e2 = lo + (hi - lo) * p, lo * lo * (1.0 - p) + hi * hi * p
    var = e2 - mean**2
    if sampler.structure == "iid_blocks":
        return (0.0, var, lo - mean, hi - mean) if sampler.centered else (mean, e2, lo, hi)
    return {"product": (mean**2, e2**2, lo * lo, hi * hi),
            "centered_product": (0.0, var**2, -(hi - mean) * (mean - lo),
                                 max((hi - mean) ** 2, (mean - lo) ** 2)),
            "mean": (mean, (e2 + mean**2) / 2.0, lo, hi)}[sampler.kernel]


def task_shape(sampler):
    """(number of cover classes, class size, summands per task): the
    positional task description `mcverify` read before it read covers."""
    if sampler.structure == "iid_blocks":
        return 1, sampler.m, sampler.m
    n_classes = max(sampler.n_pos, sampler.n_neg)
    size = min(sampler.n_pos, sampler.n_neg)
    return n_classes, size, sampler.n_pos * sampler.n_neg


def task_shape_bundle(sampler, mean, e2):
    """(v, sigma^2, W, U) bundle from `task_shape`, every class weight
    written in as 1.0; the reference for `mcverify._bundle`."""
    b = summand_law(sampler)[3]
    n_classes, size, n_summands = task_shape(sampler)
    v_class = (1.0 + b) * (size * mean) + size * e2
    return TailBoundInput(
        b=b,
        EZ=sampler.k_tasks * n_summands * mean,
        sigma_sq=sampler.k_tasks * n_summands * e2,
        chi_list=(float(n_classes),) * sampler.k_tasks,
        blocks=(tuple((1.0, v_class) for _ in range(n_classes)),) * sampler.k_tasks,
    )


def task_shape_sup_class(sampler):
    """(amp, shift, sigma^2) of the supremum class {+f, -f} from
    `summand_law` and `task_shape`: amp = max(hi - mean, mean - lo), shift =
    summands * mean, and sigma^2 summed by its own loop over the unit-weight
    classes, refused as the library refuses it; the reference for
    `mcverify._sup_class`."""
    mean, e2, lo, hi = summand_law(sampler)
    amp = max(hi - mean, mean - lo)
    if amp <= 0.0:
        raise ModeError("degenerate summand: supremum class has no spread")
    if amp * amp == 0.0:
        raise ModeError(f"supremum class spread {amp!r} underflows when squared")
    f_second = (e2 - mean**2) / amp**2
    if f_second < 0.0:
        raise ModeError(f"supremum class variance (E[f^2] - E[f]^2) / amp^2 = {f_second!r} "
                        "is negative: the summand's second moment cancels against its squared "
                        "mean in float arithmetic")
    n_classes, size, n_summands = task_shape(sampler)
    sigma_sq = 0.0
    for _ in range(sampler.k_tasks * n_classes):
        sigma_sq += size * f_second
    return amp, n_summands * mean, sigma_sq


def mp_phi(x):
    """phi(x) = (1 + x) log(1 + x) - x by its closed form in `mpmath`,
    rounded to a float.  The form loses about 2 log10(1/x) digits to
    cancellation (at 50 digits it gives 0 at x = 3.4e-51), so the working
    precision grows with -log10(x)."""
    import mpmath

    digits = 40 + 2 * max(0, math.ceil(-math.log10(x))) if x > 0 else 40
    with mpmath.workdps(digits):
        v = mpmath.mpf(x)
        return float((1 + v) * mpmath.log(1 + v) - v)


def _mp_bound(formula):
    """formula evaluated in `mpmath` at 50 digits on the exact values of its
    float arguments, rounded once to a float (inf beyond the float range,
    a subnormal or 0 below it).  Every term is a product of nonnegative
    factors, so nothing cancels, and the error is that one rounding."""
    @functools.wraps(formula)
    def exact(*args):
        import mpmath

        with mpmath.workdps(50):
            return float(formula(mpmath, *args))
    return exact


@_mp_bound
def mp_excess_general(mp, r, chi_list, m_list, B, t):
    """(704/B) r + (26B + 22)(25/16) sum_k(chi_k/m_k) t / K."""
    ratios = mp.fsum(mp.mpf(chi) / mp.mpf(m) for chi, m in zip(chi_list, m_list))
    B = mp.mpf(B)
    return (704 / B * mp.mpf(r)
            + (26 * B + 22) * mp.mpf(25) / 16 * ratios * mp.mpf(t) / len(chi_list))


@_mp_bound
def mp_bound_ours(mp, rstar, tau_list, n_tilde, mu, t):
    """704 mu r* + (75/K) sum_k(1/tau_k) t / n~."""
    inv_tau = mp.fsum(1 / mp.mpf(tau) for tau in tau_list)
    return (704 * mp.mpf(mu) * mp.mpf(rstar)
            + mp.mpf(75) / len(tau_list) * inv_tau * mp.mpf(t) / mp.mpf(n_tilde))


@_mp_bound
def mp_bound_kernel(mp, rstar, tau_list, n_tilde, B, t):
    """(704/B) r* + (26B + 22)(25/16)(1/n~) sum_k(1/tau_k) t / K."""
    inv_tau = mp.fsum(1 / mp.mpf(tau) for tau in tau_list)
    B = mp.mpf(B)
    return (704 / B * mp.mpf(rstar)
            + (26 * B + 22) * mp.mpf(25) / 16 / mp.mpf(n_tilde) * inv_tau * mp.mpf(t)
            / len(tau_list))


@_mp_bound
def mp_bound_prior(mp, tau_list, n_tilde, mu, m_bar, m_tilde, t):
    """2 [4 mu m_bar m_tilde / sqrt(n~) (1/K) sum_k sqrt(1/tau_k)
          + 3 sqrt((log 2 + t) / (2 n~)) sqrt((1/K) sum_k 1/tau_k)]."""
    K, n = len(tau_list), mp.mpf(n_tilde)
    term1 = (4 * mp.mpf(mu) * mp.mpf(m_bar) * mp.mpf(m_tilde) / mp.sqrt(n)
             * mp.fsum(mp.sqrt(1 / mp.mpf(tau)) for tau in tau_list) / K)
    term2 = (3 * mp.sqrt((mp.log(2) + mp.mpf(t)) / (2 * n))
             * mp.sqrt(mp.fsum(1 / mp.mpf(tau) for tau in tau_list) / K))
    return 2 * (term1 + term2)


@_mp_bound
def mp_rstar_kernel(mp, spectra_values, chi_list, m_list, m_tilde):
    """sum_k min_d [d c_k + m_tilde sqrt(c_k tail_k(d))], c_k = chi_k / (K m_k),
    tail_k(d) the sum of task k's spectrum beyond cut d."""
    K = len(chi_list)
    total = 0
    for values, chi, m in zip(spectra_values, chi_list, m_list):
        c = mp.mpf(chi) / (K * mp.mpf(m))
        total += min(d * c + mp.mpf(m_tilde) * mp.sqrt(c * mp.fsum(map(mp.mpf, values[d:])))
                     for d in range(len(values) + 1))
    return total


@_mp_bound
def mp_rstar_linear(mp, values, chi_list, m_list, m_tilde, m_bar, factor_two, d_max):
    """factor min_d sum_k [d / m_bar^2 c_k + m_tilde sqrt(c_k tail(d))] over
    d <= d_max, c_k = chi_k / (K m_k), factor 2 or 1."""
    K = len(chi_list)
    ratios = [mp.mpf(chi) / (K * mp.mpf(m)) for chi, m in zip(chi_list, m_list)]
    best = min(mp.fsum(d / mp.mpf(m_bar) ** 2 * c + mp.mpf(m_tilde)
                       * mp.sqrt(c * mp.fsum(map(mp.mpf, values[d:]))) for c in ratios)
               for d in range(min(len(values), d_max) + 1))
    return 2 * best if factor_two else best
