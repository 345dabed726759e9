"""Independent oracles used by the tests.

Each oracle re-derives its target quantity by a different algorithm than
the library path it checks: projected gradient ascent with Dykstra
projections for the constrained linear supremum, one eigendecomposition
and one scalar brentq per (draw, task) for the localized complexity
estimate, characteristic-polynomial
root finding for eigenvalues, plain-loop enumeration for the truncation
minima, closed-form quadratics for sub-root fixed points, a greedy
coloring that rescans the edge list for every neighbourhood, the rook
graph's edges listed one pair at a time, maximal independent sets by a
scan of every vertex subset, SGD that
trains one label at a time with one scalar step per sampled pair, bound
inputs from one pair transform per label, mlsvm files read one token at
a time, SGD row draws from spawned
`default_rng` streams and their `integers` calls, Macro-AUC from one
`scipy.stats.rankdata` call per label, and Monte Carlo task sums drawn
in one call per side and batch, or added up from the whole (trials, K,
n_pos, n_neg) pair tensor, and phi in `mpmath` at a precision that
outgrows its cancellation.
"""

import itertools
import math
import warnings

import numpy as np
from scipy.optimize import brentq
from scipy.stats import rankdata

from gdbound.errors import ConfigError, DegenerateLabelError, DomainError, \
    FormatError, InvariantError, ParseError, StructuralError, UndefinedMetricError
from gdbound import mcverify
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
    c = np.asarray(c, dtype=float)
    if not math.isfinite(r):
        return m_tilde * float(np.linalg.norm(c))
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
        return 0.0
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
    return v


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
    ascending bitmask order; the reference for the Bron-Kerbosch listing."""
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


def _one_call_base(rng, sampler, shape):
    """Base draws of the given shape from one `random` call."""
    if sampler.base == "uniform":
        return rng.random(shape)
    lo, hi = sampler.base_lo, sampler.base_hi
    return lo + (hi - lo) * (rng.random(shape) < sampler.base_p)


def one_call_task_sums(rng, sampler, base_mean, size, squares):
    """(size, K) task sums and task sums of squared summands (or None) of
    one batch, from one draw call per side over the whole batch; the
    reference for the blocked, split draws of `mcverify._draw_task_sums`."""
    shape = (size, sampler.k_tasks)
    if sampler.structure == "iid_blocks":
        draws = _one_call_base(rng, sampler, shape + (sampler.m,))
        if sampler.centered:
            draws = draws - base_mean
        return draws.sum(axis=2), (draws * draws).sum(axis=2) if squares else None
    u = _one_call_base(rng, sampler, shape + (sampler.n_pos,))
    w = _one_call_base(rng, sampler, shape + (sampler.n_neg,))
    su, sw = u.sum(axis=2), w.sum(axis=2)
    n_pos, n_neg = sampler.n_pos, sampler.n_neg
    if sampler.kernel == "centered_product":
        sums = (su - n_pos * base_mean) * (sw - n_neg * base_mean)
        u, w = u - base_mean, w - base_mean
    elif sampler.kernel == "product":
        sums = su * sw
    else:
        sums = 0.5 * (n_neg * su + n_pos * sw)
    if not squares:
        return sums, None
    squ, sqw = (u * u).sum(axis=2), (w * w).sum(axis=2)
    if sampler.kernel == "mean":
        return sums, 0.25 * (n_neg * squ + 2.0 * su * sw + n_pos * sqw)
    return sums, squ * sqw


def _pair_tensor_draw(rng, sampler, base_mean, size):
    """(size, K, m) iid summands or (size, K, n_pos, n_neg) pair values,
    drawn with the library's draw calls in the library's order."""
    shape = (size, sampler.k_tasks)
    if sampler.structure == "iid_blocks":
        draws = _one_call_base(rng, sampler, shape + (sampler.m,))
        return draws - base_mean if sampler.centered else draws
    u = _one_call_base(rng, sampler, shape + (sampler.n_pos,))[..., :, None]
    w = _one_call_base(rng, sampler, shape + (sampler.n_neg,))[..., None, :]
    if sampler.kernel == "product":
        return u * w
    if sampler.kernel == "centered_product":
        return (u - base_mean) * (w - base_mean)
    return 0.5 * (u + w)


def _pair_tensor_batches(sampler, n_trials, stream_offset, reduce):
    seqs = np.random.SeedSequence(sampler.seed).spawn(
        stream_offset + mcverify._n_batches(n_trials))
    base_mean = mcverify._base_law(sampler).mean
    return [reduce(_pair_tensor_draw(np.random.default_rng(seq), sampler, base_mean,
                                     min(mcverify.BATCH, n_trials - i * mcverify.BATCH)))
            for i, seq in enumerate(seqs[stream_offset:])]


def pair_tensor_simulate(sampler, n_trials, sup_mode=False, stream_offset=0):
    """Z realizations from the summed pair tensor; the reference for
    `mcverify._simulate`."""
    if sup_mode:
        law = mcverify._summand_law(sampler)
        amp = mcverify._sup_amp(law)
        shift = mcverify._task_shape(sampler)[2] * law.mean

    def reduce(vals):
        task_sums = vals.sum(axis=tuple(range(2, vals.ndim)))
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
            lambda vals: (float(vals.sum()), float((vals**2).sum()), vals.size)):
        s1 += b1
        s2 += b2
        count += n
    return s1 / count, s2 / count


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
