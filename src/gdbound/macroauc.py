"""End-to-end Macro-AUC pipeline: multi-label ingestion, per-label pair
transformation into graph-dependent tasks, SGD training of a regularized
linear ranker, cross-validation, and bound reporting.

Per label k the (positive, negative) index pairs form one task with
tau_k = min(n+, n-) / n~, m_k = n+ * n-, chi_k = max(n+, n-); the pair
dependency structure is the bipartite-ranking rook graph.  The bound
report compares the localized-complexity excess-risk bound against the
prior global-complexity bound on the training split.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .bounds import BoundParams, BoundReport, bound_ours_macroauc, \
    bound_prior_macroauc, rstar_linear, spectrum_from_weights
from .errors import ConfigError, DegenerateLabelError, DomainError, \
    FormatError, ParseError, StateError, UndefinedMetricError, finite_result

LAMBDA_GRID = (1e-4, 1e-3, 1e-2, 1e-1)
T_DEFAULT = math.log(100.0)  # 1 - e^{-t} = 0.99
MAX_CELLS = 10**8  # largest n*D or n*K a dataset header may declare


@dataclass
class MultiLabelDataset:
    """Dense features with a {-1,+1} label matrix; the shape is read from
    the arrays."""

    features: np.ndarray  # (n_samples, n_features), float
    labels: np.ndarray  # (n_samples, n_labels), int8 entries in {-1, +1}

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_labels(self) -> int:
        return self.labels.shape[1]

    def subset(self, idx) -> "MultiLabelDataset":
        return MultiLabelDataset(self.features[idx], self.labels[idx])

    def max_row_norm(self) -> float:
        sq = (self.features * self.features).sum(axis=1)
        return float(np.sqrt(sq.max())) if sq.size else 0.0


def load_dataset(path) -> MultiLabelDataset:
    """Parse the canonical mlsvm text format.

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


def save_dataset(ds: MultiLabelDataset, path):
    """Write a dataset back out in mlsvm format (full precision values)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#samples={ds.n_samples} #features={ds.n_features} "
                 f"#labels={ds.n_labels}\n")
        for x, y in zip(ds.features, ds.labels):
            label_part = ",".join(str(p) for p in np.flatnonzero(y == 1))
            feat_part = " ".join(f"{j}:{float(x[j])!r}" for j in np.flatnonzero(x))
            fh.write(f"{label_part}\t{feat_part}\n")


@dataclass(frozen=True)
class MacroAucTask:
    """One label's pair-transformed task."""

    label: int
    pos_idx: np.ndarray
    neg_idx: np.ndarray
    n_total: int

    @property
    def tau(self) -> float:
        return min(self.pos_idx.size, self.neg_idx.size) / self.n_total

    @property
    def m_pairs(self) -> int:
        return int(self.pos_idx.size) * int(self.neg_idx.size)

    @property
    def chi(self) -> int:
        return max(self.pos_idx.size, self.neg_idx.size)


def pair_transform(dataset: MultiLabelDataset, label: int) -> MacroAucTask:
    """Pair-transform one label; DegenerateLabelError when it has no
    positive or no negative sample."""
    if not (0 <= label < dataset.n_labels):
        raise DomainError(f"label {label} out of range")
    col = dataset.labels[:, label]
    pos = np.flatnonzero(col == 1)
    neg = np.flatnonzero(col == -1)
    if pos.size == 0 or neg.size == 0:
        raise DegenerateLabelError(
            f"label {label}: {pos.size} positives, {neg.size} negatives"
        )
    return MacroAucTask(label=label, pos_idx=pos, neg_idx=neg,
                        n_total=dataset.n_samples)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.05
    epochs: int = 300
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lr) and math.isfinite(self.weight_decay)):
            raise ConfigError("lr and weight_decay must be finite")
        if self.lr <= 0 or self.epochs <= 0:
            raise ConfigError("lr and epochs must be > 0")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")


@dataclass
class LinearRanker:
    """Linear per-label scorer w_k . x with training metadata."""

    weights: np.ndarray  # (K, D)
    config: TrainConfig
    m_bar: float = 0.0          # max ||x||_2 over training rows
    excluded_labels: tuple[int, ...] = ()
    trained: bool = False

    @property
    @finite_result
    def m_tilde(self) -> float:
        return float(np.max(np.linalg.norm(self.weights, axis=1))) if self.weights.size else 0.0

    def scores(self, dataset: MultiLabelDataset) -> np.ndarray:
        return dataset.features @ self.weights.T


def derive_seed(*parts) -> int:
    """Deterministic 64-bit child seed from a tuple of integer parts."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def train_sgd(dataset: MultiLabelDataset, config: TrainConfig) -> LinearRanker:
    """Pairwise-hinge SGD on every row of the dataset: the one-job case of
    `train_many`, whose docstring gives the update rule and seeding."""
    return train_many(dataset, [(np.arange(dataset.n_samples), config)])[0]


def train_many(dataset: MultiLabelDataset, jobs) -> list[LinearRanker]:
    """Train one linear ranker per job, all SGD chains stepped in lockstep.

    jobs: [(rows, TrainConfig), ...]; rows index the dataset's samples and
    are that fit's training rows.  A chain is one (job, label) pair; labels
    with no positive or no negative training row are excluded per job.  Per
    epoch a chain draws n~ = len(rows) uniform (positive, negative) pairs,
    positives first, from its own child stream of SeedSequence(config.seed),
    and takes one step per pair: w <- w - lr (dL + 2 lambda w) with
    L = max(0, 1 - w.(x+ - x-)), the margin read before the decay.

    Step i of every chain's epoch runs together on one (chains x D) weight
    matrix; a chain with fewer rows or epochs sits the extra steps out.
    Each chain's arithmetic is exactly that of a loop over its own steps, so
    a ranker does not depend on which other jobs share the call.
    """
    X = dataset.features
    if not np.isfinite(X).all():
        raise DomainError("features hold a non-finite value")
    fits, chains = [], []
    for j, (rows, config) in enumerate(jobs):
        rows = np.asarray(rows, dtype=np.intp)
        if rows.size == 0:
            raise DomainError("cannot train on an empty dataset")
        if rows.min() < 0 or rows.max() >= dataset.n_samples:
            raise DomainError(f"job rows must lie in [0, {dataset.n_samples})")
        decay = 1.0 - 2.0 * config.lr * config.weight_decay
        if decay <= 0:
            raise ConfigError("lr * weight_decay too large; update would flip sign")
        sub = dataset.subset(rows)
        streams = np.random.SeedSequence(config.seed).spawn(sub.n_labels)
        excluded = []
        for k in range(sub.n_labels):
            try:
                task = pair_transform(sub, k)
            except DegenerateLabelError:
                excluded.append(k)
                continue
            chains.append((rows.size, j, k, rows[task.pos_idx], rows[task.neg_idx],
                           np.random.default_rng(streams[k])))
        fits.append((config, decay, sub.max_row_norm(), tuple(excluded)))

    # Most rows first, so the chains still inside their epoch at step i are
    # always the leading rows W[:width[i]].
    chains.sort(key=lambda chain: -chain[0])
    n_chains, d = len(chains), dataset.n_features
    n_rows = np.array([chain[0] for chain in chains], dtype=np.intp)
    epochs = np.array([fits[chain[1]][0].epochs for chain in chains])
    lr_col = np.array([fits[chain[1]][0].lr for chain in chains])[:, None]
    decays = np.array([fits[chain[1]][1] for chain in chains])
    W = np.zeros((n_chains, d))
    steps = int(n_rows.max(initial=0))
    width = np.searchsorted(-n_rows, -np.arange(steps), side="left")
    # Row draws of one epoch, (steps x chains); int32 holds any row index
    # of a dense feature matrix that fits in memory.
    pos_draw = np.zeros((steps, n_chains), dtype=np.int32)
    neg_draw = np.zeros((steps, n_chains), dtype=np.int32)
    for epoch in range(int(epochs.max(initial=0))):
        live = epoch < epochs
        for c in np.flatnonzero(live):
            n, _, _, pos, neg, rng = chains[c]
            pos_draw[:n, c] = pos[rng.integers(0, pos.size, size=n)]
            neg_draw[:n, c] = neg[rng.integers(0, neg.size, size=n)]
        # The decay spread over (chains x D) makes the per-step decay one
        # elementwise product.  A chain past its epochs decays by 1 and has
        # a hinge threshold of -inf, which no margin falls below, so its
        # weights keep their bits.
        decay = np.repeat(np.where(live, decays, 1.0), d).reshape(n_chains, d)
        hinge = np.where(live, 1.0, -np.inf)[:, None]
        for i in range(steps):
            wide = width[i]
            w = W[:wide]
            diff = np.take(X, pos_draw[i, :wide], axis=0)
            diff -= np.take(X, neg_draw[i, :wide], axis=0)
            # One (1 x D) @ (D x 1) product per chain: the same dot product
            # as w @ diff, bit for bit, which einsum does not promise.
            margin = np.matmul(w[:, None, :], diff[:, :, None])
            w *= decay[:wide]
            # A masked add leaves every entry it skips untouched; adding a
            # zero step instead would turn a -0.0 weight into +0.0.
            diff *= lr_col[:wide]
            np.add(w, diff, out=w, where=margin[:, :, 0] < hinge[:wide])

    weights = [np.zeros((dataset.n_labels, d)) for _ in fits]
    for c, (_, j, k, *_) in enumerate(chains):
        weights[j][k] = W[c]
    return [LinearRanker(weights=w, config=config, m_bar=m_bar,
                         excluded_labels=excluded, trained=True)
            for w, (config, _, m_bar, excluded) in zip(weights, fits)]


def average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks of each column of an (n x K) matrix, tied values sharing
    the mean of their ranks; a column holding a nan is all nan.

    One argsort orders every column; a tie group runs from a sorted position
    where the value changes to the next such position, found with a forward
    running max and a reverse running min.  A group's rank (first + last)/2
    + 1 is a half-integer, so every rank is exact."""
    n = scores.shape[0]
    order = np.argsort(scores, axis=0)
    ordered = np.take_along_axis(scores, order, axis=0)
    change = ordered[1:] != ordered[:-1]
    pos = np.arange(n, dtype=float)[:, None]
    first = np.zeros(scores.shape)
    first[1:] = np.where(change, pos[1:], 0.0)
    np.maximum.accumulate(first, axis=0, out=first)
    last = np.full(scores.shape, n - 1.0)
    last[:-1] = np.where(change, pos[:-1], n - 1.0)
    last = np.minimum.accumulate(last[::-1], axis=0)[::-1]
    ranks = np.empty(scores.shape)
    np.put_along_axis(ranks, order, (first + last) / 2.0 + 1.0, axis=0)
    ranks[:, np.isnan(scores).any(axis=0)] = np.nan
    return ranks


def macro_auc(ranker_or_scores, dataset: MultiLabelDataset) -> float:
    """Mean per-label AUC (fraction of correctly ordered positive/negative
    score pairs, ties counted 0.5) over non-degenerate labels.  Every kept
    label is ranked in one `average_ranks` pass; a label whose scores hold
    a nan gives a nan AUC."""
    if isinstance(ranker_or_scores, LinearRanker):
        scores = ranker_or_scores.scores(dataset)
    else:
        scores = np.asarray(ranker_or_scores, dtype=float)
    pos = dataset.labels == 1
    n_pos = pos.sum(axis=0)
    n_neg = (dataset.labels == -1).sum(axis=0)
    kept = (n_pos > 0) & (n_neg > 0)
    if not kept.any():
        raise UndefinedMetricError("every label is degenerate; Macro-AUC undefined")
    n_pos, n_neg = n_pos[kept], n_neg[kept]
    ranks = average_ranks(scores[:, kept])
    # Mann-Whitney: rank sum of positives minus its minimum, over pair count.
    # The sums hold half-integers, so they are exact in any order.
    rank_sums = np.where(pos[:, kept], ranks, 0.0).sum(axis=0)
    aucs = (rank_sums - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return float(np.mean(aucs))


def _split_rows(n: int, seed: int):
    """Sorted (train, test) row indices of the seeded 2:1 shuffle split."""
    rng = np.random.default_rng(derive_seed(seed, 0xA11C))
    perm = rng.permutation(n)
    n_train = int(round(n * 2 / 3))
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def split_train_test(dataset: MultiLabelDataset, seed: int):
    """Seeded 2:1 train:test shuffle split."""
    train, test = _split_rows(dataset.n_samples, seed)
    return dataset.subset(train), dataset.subset(test)


def _cv_jobs(n: int, grid, folds: int, config: TrainConfig):
    """Cross-validation of a split with n rows as `train_many` jobs: every
    (lambda, fold) fit in grid order, then one final fit on all n rows per
    lambda.  Also returns each (lambda, fold) fit's validation rows."""
    if folds < 2:
        raise ConfigError(f"folds must be >= 2, got {folds}")
    if n < folds:
        raise DomainError(f"need at least {folds} samples for {folds}-fold CV")
    rng = np.random.default_rng(derive_seed(config.seed, 0xF01D))
    fold_idx = np.array_split(rng.permutation(n), folds)
    jobs, val_rows = [], []
    for li, lam in enumerate(grid):
        for fi in range(folds):
            val_rows.append(np.sort(fold_idx[fi]))
            tr_idx = np.sort(np.concatenate([fold_idx[j] for j in range(folds) if j != fi]))
            jobs.append((tr_idx, replace(config, weight_decay=lam,
                                         seed=derive_seed(config.seed, li, fi))))
    for lam in grid:
        jobs.append((np.arange(n), replace(config, weight_decay=lam)))
    return jobs, val_rows


def _cv_pick(dataset: MultiLabelDataset, grid, folds: int, rankers, val_rows):
    """(lambda, final ranker) with the best mean validation Macro-AUC, from
    the rankers trained on `_cv_jobs`; the first lambda wins a tie."""
    best, best_auc = None, -math.inf
    for li in range(len(grid)):
        fold_aucs = []
        for fi in range(folds):
            j = li * folds + fi
            try:
                fold_aucs.append(macro_auc(rankers[j], dataset.subset(val_rows[j])))
            except UndefinedMetricError:
                warnings.warn(f"fold {fi}: all labels degenerate, skipped")
        if not fold_aucs:
            continue
        mean_auc = float(np.mean(fold_aucs))
        if mean_auc > best_auc:
            best, best_auc = li, mean_auc
    if best is None:
        raise UndefinedMetricError("no usable fold in cross-validation")
    return grid[best], rankers[len(grid) * folds + best]


def cv_select(dataset: MultiLabelDataset, grid=LAMBDA_GRID, folds: int = 3,
              config: TrainConfig = TrainConfig()):
    """Pick the weight decay maximizing mean validation Macro-AUC over
    seeded folds and return it with its fit on the full split.

    Every (lambda, fold) fit and the full-split fit of every lambda train in
    one `train_many` call; the chosen lambda's full-split fit is returned.
    Folds in which every label is degenerate are skipped with a warning."""
    jobs, val_rows = _cv_jobs(dataset.n_samples, grid, folds, config)
    return _cv_pick(dataset, grid, folds, train_many(dataset, jobs), val_rows)


def report_bounds(dataset: MultiLabelDataset, ranker: LinearRanker,
                  t: float = T_DEFAULT, rate: float = 1.0) -> BoundReport:
    """Bound report for a trained ranker on its training split.

    Measures m_tilde = max_k ||w_k||, m_bar = max training ||x||, tau_k per
    non-degenerate label, takes the squared-singular-value spectrum of the
    weight matrix, and evaluates the localized bound (doubled minimum over
    the shared integer cut capped at min(D, K) * rate) against the prior
    global bound.
    """
    if not ranker.trained:
        raise StateError("ranker has not been trained")
    if not (math.isfinite(rate) and rate >= 0):
        raise DomainError(f"rate must be finite and >= 0, got {rate}")
    taus, kept = [], []
    for k in range(dataset.n_labels):
        try:
            task = pair_transform(dataset, k)
        except DegenerateLabelError:
            continue
        taus.append(task.tau)
        kept.append(k)
    if not taus:
        raise UndefinedMetricError("every label degenerate; no bound to report")
    params = BoundParams.pair_transformed(
        taus, dataset.n_samples,
        m_tilde=ranker.m_tilde, m_bar=ranker.m_bar, mu=1.0, B=1.0, t=t,
    )
    spectrum = spectrum_from_weights(ranker.weights[kept])
    d_max = int(min(dataset.n_features, len(kept)) * rate)
    r_star, d_star = rstar_linear(spectrum, params, experiment_mode=True, d_max=d_max)
    ours = bound_ours_macroauc(r_star, params)
    prior = bound_prior_macroauc(params)
    return BoundReport(
        bound_ours=ours,
        bound_prior=prior,
        r_star=r_star,
        d_star=d_star,
        params={
            "n_tilde": dataset.n_samples,
            "K": len(kept),
            "tau": taus,
            "m_tilde": ranker.m_tilde,
            "m_bar": ranker.m_bar,
            "mu": 1.0,
            "B": 1.0,
            "t": t,
            "rate": rate,
            "d_max": d_max,
            "weight_decay": ranker.config.weight_decay,
            "seed": ranker.config.seed,
        },
        provenance={
            "mode": "pair_transformed",
            "ours": "704*mu*r_star + (75/K)*sum(1/tau_k)*t/n_tilde",
            "prior": "2*(4*mu*m_bar*m_tilde/sqrt(n)*(1/K)*sum(sqrt(1/tau))"
                     " + 3*sqrt((log2+t)/(2n))*sqrt(sum(1/tau)/K))",
            "r_star": "2*min_d shared-cut truncation bound",
            "excluded_labels": [k for k in range(dataset.n_labels) if k not in kept],
        },
    )


@dataclass
class ExperimentResult:
    """One dataset's multi-seed experiment: per seed, the chosen weight
    decay, the test Macro-AUC and the bound report as a dict."""

    dataset: str
    seeds: list
    lambda_selected: list
    test_macro_auc: list
    reports: list

    def summary(self):
        def ms(xs):
            arr = np.asarray(xs, dtype=float)
            return {"mean": float(arr.mean()),
                    "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0}
        ours = [r["bound_ours"] for r in self.reports]
        prior = [r["bound_prior"] for r in self.reports]
        return {
            "dataset": self.dataset,
            "n_seeds": len(self.seeds),
            "ours": ms(ours),
            "prior": ms(prior),
            "r_star": ms([r["r_star"] for r in self.reports]),
            "test_macro_auc": ms(self.test_macro_auc),
            "smaller_bound": "ours" if np.mean(ours) <= np.mean(prior) else "prior",
        }


def run_experiment(dataset: MultiLabelDataset, name: str = "dataset",
                   seeds=(0, 1, 2, 3, 4), grid=LAMBDA_GRID, folds: int = 3,
                   lr: float = 0.05, epochs: int = 300,
                   t: float = T_DEFAULT, rate: float = 1.0) -> ExperimentResult:
    """Full protocol per seed: 2:1 split, k-fold CV over the decay grid,
    the chosen decay's full-split fit, test Macro-AUC, and bound report on
    the training split.  Every seed's fits index the full dataset, so they
    all train in one `train_many` call."""
    res = ExperimentResult(dataset=name, seeds=list(seeds), lambda_selected=[],
                           test_macro_auc=[], reports=[])
    plans, jobs = [], []
    for seed in seeds:
        train_rows, test_rows = _split_rows(dataset.n_samples, seed)
        cfg = TrainConfig(lr=lr, epochs=epochs, seed=seed)
        cv_jobs, val_rows = _cv_jobs(train_rows.size, grid, folds, cfg)
        jobs += [(train_rows[rows], job_cfg) for rows, job_cfg in cv_jobs]
        plans.append((train_rows, test_rows, val_rows, len(cv_jobs)))
    rankers = train_many(dataset, jobs)
    start = 0
    for train_rows, test_rows, val_rows, n_jobs in plans:
        train = dataset.subset(train_rows)
        lam, ranker = _cv_pick(train, grid, folds, rankers[start:start + n_jobs],
                               val_rows)
        start += n_jobs
        report = report_bounds(train, ranker, t=t, rate=rate)
        res.lambda_selected.append(lam)
        res.test_macro_auc.append(macro_auc(ranker, dataset.subset(test_rows)))
        res.reports.append(report.to_dict())
    return res
