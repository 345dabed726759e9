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

import io
import math
import mmap
import numbers
import os
import threading
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .bounds import BoundParams, BoundReport, bound_ours_macroauc, \
    bound_prior_macroauc, rstar_linear, spectrum_from_weights
from .errors import ConfigError, DegenerateLabelError, DomainError, \
    FormatError, ParseError, UndefinedMetricError, available_cores, check_seed, \
    check_t, finite_result

LAMBDA_GRID = (1e-4, 1e-3, 1e-2, 1e-1)
T_DEFAULT = math.log(100.0)  # 1 - e^{-t} = 0.99
MAX_CELLS = 10**8  # largest n*D or n*K a dataset header may declare
_DRAW_BYTES = 1 << 20  # SGD row draws held at once, in bytes
# The least saving, in chain-feature updates over all epochs, for which a
# `train_many` call forks (`_job_groups`).  On a 2-core x86 VM a fork and its
# child's exit cost 2-3 ms, and two busy processes ran at 1.1-1.5 times the
# speed of one.  There one emotions-shaped experiment seed's 16 fits, whose
# split saves 1.02e6 per epoch, lost time by forking at 1 epoch and gained
# from 2 epochs on.
_FORK_WORK = 1_500_000
_BLOCK_LINES = 64  # mlsvm body lines whose feature text is parsed at once
# what a block's feature text may hold for `_block_features` to read it
_FEATURE_BYTES = b"0123456789.eE+-: \t\n"
_BLANK_TO_NEWLINE = bytes.maketrans(b" \t", b"\n\n")
_TOKEN = np.dtype([("index", np.int64), ("value", np.float64)])


@dataclass
class MultiLabelDataset:
    """Dense features with a {-1,+1} label matrix; the shape is read from
    the arrays."""

    features: np.ndarray  # (n_samples, n_features), float
    labels: np.ndarray  # (n_samples, n_labels), int8 entries in {-1, +1}

    def __post_init__(self):
        if not (np.abs(self.labels) == 1).all():
            raise DomainError("label entries must be -1 or +1")

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
    0-based index:value pairs; a repeated index sums, and a sum past the
    float range is a ParseError.  A header whose n*D or n*K exceeds
    MAX_CELLS is rejected before anything is allocated.

    The body is read in blocks of _BLOCK_LINES lines, each line split once
    into its label text and its feature text.  A block's feature text is
    parsed at once (`_block_features`) and its labels line by line
    (`_read_labels`); a block whose feature text that parse cannot vouch
    for, and only that block, is read one token at a time (`_read_lines`),
    which names the offending line.  The first bad line is the one named.
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
    X = np.zeros((n, d))
    labels = -np.ones((n, k), dtype=np.int8)
    for lo in range(0, n, _BLOCK_LINES):
        parts = [line.partition("\t")[::2] for line in body[lo:lo + _BLOCK_LINES]]
        rows = slice(lo, lo + len(parts))
        if _block_features([feats for _, feats in parts], X[rows]):
            for i, (label_text, _) in enumerate(parts, lo):
                _read_labels(label_text, labels[i], i + 2)
        else:
            _read_lines(parts, X[rows], labels[rows], lo + 2)
    return MultiLabelDataset(X, labels)


def _block_features(feats, out) -> bool:
    """Parse the feature texts of a block of lines into `out`, their rows
    of X; False, with `out` untouched, where the per-token reading of some
    line might differ.

    The text may hold only ASCII digits, `. e E + -`, colons, spaces, tabs
    and the joining newlines.  With every blank turned into a newline, one
    `np.loadtxt` call reads it as index:value rows; it refuses a token
    without exactly two non-empty fields, an index that is not a plain
    integer or a value that is not a decimal float; Python's `int` and
    `float` read every token it takes the same way.  `np.bincount` sums
    each row's values in file order, from +0.0, as `_read_lines` does.
    Indices outside [0, D) and non-finite sums are refused."""
    text = "\n".join(feats)
    if not text.isascii():
        return False
    raw = text.encode("ascii")
    if raw.translate(None, _FEATURE_BYTES):
        return False
    counts = [feat.count(":") for feat in feats]
    if not any(counts):
        return not raw.strip()  # else a token without a colon
    try:
        # a numpy that still reads an integer field such as `1.0`
        # through float warns with a DeprecationWarning; int() refuses it
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            tokens = np.loadtxt(io.StringIO(raw.translate(_BLANK_TO_NEWLINE).decode()),
                                delimiter=":", dtype=_TOKEN, ndmin=1)
    except (ValueError, DeprecationWarning):
        return False
    n, d = out.shape
    index = tokens["index"]
    if index.min() < 0 or index.max() >= d:
        return False
    rows = np.repeat(np.arange(n), counts)
    sums = np.bincount(rows * d + index, weights=tokens["value"], minlength=n * d)
    # a non-finite value makes its cell's sum non-finite, as does a
    # repeated index whose sum overflows; `_read_lines` names the line
    if not np.isfinite(sums).all():
        return False
    out[:] = sums.reshape(n, d)
    return True


def _read_labels(text, row, lineno: int):
    """Set the positive labels that a line's label text lists in its row of
    the label matrix; ParseError names the line."""
    text = text.strip()
    if not text:
        return
    for tok in text.split(","):
        try:
            li = int(tok)
        except ValueError:
            raise ParseError(f"bad label token {tok!r}", line=lineno)
        if not (0 <= li < row.size):
            raise ParseError(f"label index {li} out of range [0,{row.size})", line=lineno)
        row[li] = 1


def _read_lines(parts, rows, labels, first_line: int):
    """Read a block's (label text, feature text) pairs one token at a time
    into its rows of X and of the label matrix; ParseError names the first
    bad line, counting the block's first line as line `first_line`.  On
    each line the labels are read before the features, and a repeated index
    sums in file order, from +0.0, as `np.add.at` sums it; a line whose sum
    overflows is refused at once, naming its smallest such index."""
    d = rows.shape[1]
    for lineno, ((label_text, feat_text), row, label_row) in enumerate(
            zip(parts, rows, labels), first_line):
        _read_labels(label_text, label_row, lineno)
        sums = {}
        for tok in feat_text.split():
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
            sums[fi] = sums.get(fi, 0.0) + fv
        over = [fi for fi, total in sums.items() if not math.isfinite(total)]
        if over:
            raise ParseError(f"repeated feature index {min(over)} sums past the float range",
                             line=lineno)
        row[list(sums)] = list(sums.values())


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
        if isinstance(self.epochs, bool) or not isinstance(self.epochs, numbers.Integral):
            raise ConfigError(f"epochs must be an integer, got {self.epochs!r}")
        for name, value in (("lr", self.lr), ("weight_decay", self.weight_decay)):
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if self.lr <= 0 or self.epochs <= 0:
            raise ConfigError("lr and epochs must be > 0")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")
        check_seed(self.seed)


@dataclass
class LinearRanker:
    """Linear per-label scorer w_k . x: its weights, the config that trained
    it and the labels it excluded, whose weight rows stay zero."""

    weights: np.ndarray  # (K, D)
    config: TrainConfig
    excluded_labels: tuple[int, ...] = ()

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


class _ChainStreams:
    """The row streams of a `train_many` call's chains, bit for bit those
    of `default_rng(SeedSequence(seed).spawn(K)[k]).integers(0, [[n+], [n-]],
    size=(epochs, 2, n~))`, but seeded and drawn for many chains at once.

    Chain c is child k = labels[c] of seqs[jobs[c]]; sizes[c] holds its
    (positive, negative) counts and streams[c] its PCG64.  `draw` maps the
    raw words of a chain to rows with numpy's 32-bit Lemire step until that
    step rejects a word: the chain is then rewound and `by_integers[c]` set,
    and from then on it draws through `Generator(streams[c]).integers`.  The
    flag stays set, because `integers` may leave a half word buffered in the
    bit generator, which raw words would skip.  A chain with a one-row side
    (which `integers` answers without a word) or a side of 2^32 rows or more
    (drawn with 64-bit words) is flagged from the start."""

    def __init__(self, seqs, jobs, labels, sizes):
        class Words(np.random.bit_generator.ISeedSequence):
            def __init__(self, words):
                self.words = words

            def generate_state(self, n_words, dtype=np.uint32):
                return self.words

        self.sizes = sizes
        # (chains, 1, side, 1), to scale a block of (chains, epoch, side, row)
        # words; the Lemire step rejects a word u when the low half of
        # u * high falls below (2^32 - high) % high
        self.highs = sizes.astype(np.uint64)[:, None, :, None]
        self.thresholds = (2**32 - self.highs) % self.highs
        self.streams = [np.random.PCG64(Words(row))
                        for row in self.child_states(seqs, jobs, labels)]
        self.by_integers = (sizes.min(axis=1) == 1) | (sizes.max(axis=1) >= 2**32)

    @staticmethod
    def child_states(seqs, jobs, labels) -> np.ndarray:
        """(chains, 4) uint64: `seqs[j].spawn(K)[k].generate_state(4, uint64)`
        for each chain's (j, k) in zip(jobs, labels).

        A child's entropy is its parent's words, zero-padded to the four-word
        pool, then its spawn key k, so up to k it mixes to the parent's public
        `pool`.  Each hash on the way, 16 plus four per word past the fourth,
        multiplies the hash constant by 0x931E8875.  Mixing in each chain's k
        and generating its state are transcribed from numpy's SeedSequence on
        uint32 arrays, which wrap as numpy's C code does."""
        mask = 0xFFFFFFFF

        def hashmix(value, const):
            value = value ^ const
            const = const * 0x931E8875 & mask
            value = value * const & mask
            return value ^ value >> 16, const

        def mix(x, y):
            x = (0xCA01F9DD * x - 0x4973F715 * y) & mask
            return x ^ x >> 16

        def n_words(entropy):
            # an int is its little-endian 32-bit words, a sequence its items'
            if isinstance(entropy, (int, np.integer)):
                return max(1, -(-int(entropy).bit_length() // 32))
            return sum(map(n_words, entropy))

        jobs = np.asarray(jobs, dtype=np.intp)
        pool = list(np.array([seq.pool for seq in seqs], dtype=np.uint32).reshape(-1, 4)[jobs].T)
        hashes = [16 + 4 * max(0, n_words(seq.entropy) - 4) for seq in seqs]
        const = np.array([0x43B0D7E5 * pow(0x931E8875, h, 2**32) & mask for h in hashes],
                         dtype=np.uint32)[jobs]
        key = np.asarray(labels, dtype=np.uint32)
        for dst in range(4):
            h, const = hashmix(key, const)
            pool[dst] = mix(pool[dst], h)
        const, state = 0x8B51F9DD, []
        for i in range(8):
            value = pool[i % 4] ^ const
            const = const * 0x58F38DED & mask
            value = value * const & mask
            state.append(value ^ value >> 16)
        # word pairs read as little-endian uint64s, as generate_state does
        return np.stack(state, axis=-1).astype("<u4").view("<u8").astype(np.uint64)

    def draw(self, chains, nb, n) -> np.ndarray:
        """Pool positions of the next nb epochs of n (positive, negative)
        draws of each chain in `chains`, (len(chains), nb, 2, n) int64: the
        values of `integers(0, [[n+], [n-]], size=(nb, 2, n))`, negatives
        offset by the positive count, with each stream left where that call
        leaves it."""
        chains = np.asarray(chains)
        picks = np.empty((len(chains), nb, 2, n), dtype=np.int64)
        fresh = ~self.by_integers[chains]
        if fresh.any():
            cs = chains[fresh]
            raw = np.array([self.streams[c].random_raw(nb * n) for c in cs])
            # 2 nb n uint32 words, the low half of each raw word first, as
            # PCG64 hands them out; the count is even, so no half word is
            # left buffered
            words = raw.astype("<u8", copy=False).view("<u4").reshape(len(cs), nb, 2, n)
            scaled = words * self.highs[cs]
            rejected = cs[((scaled & 0xFFFFFFFF) < self.thresholds[cs]).any(axis=(1, 2, 3))]
            scaled >>= 32
            picks[fresh] = scaled
            for c in rejected:
                # a Python int: PCG64 wraps a numpy integer's negative step
                # with a 128-bit mask that numpy cannot convert
                self.streams[c].advance(-int(nb * n))
            self.by_integers[rejected] = True
        for g in np.flatnonzero(self.by_integers[chains]):
            c = chains[g]
            picks[g] = np.random.Generator(self.streams[c]).integers(
                0, self.sizes[c, :, None], size=(nb, 2, n))
        picks[:, :, 1] += self.sizes[chains, :1, None]  # negatives follow the positives
        return picks


def train_many(dataset: MultiLabelDataset, jobs) -> list[LinearRanker]:
    """Train one linear ranker per job, all SGD chains stepped in lockstep.

    jobs: [(rows, TrainConfig), ...]; rows index the dataset's samples and
    are that fit's training rows; the jobs share lr and epochs (else
    ConfigError).  A chain is one (job, label) pair; labels with no positive
    or no negative training row are excluded per job.  Per epoch a chain
    draws n~ = len(rows) uniform (positive, negative) pairs, positives
    first, from its own child stream of SeedSequence(config.seed), and takes
    one step per pair: w <- w - lr (dL + 2 lambda w) with L = max(0, 1 -
    w.(x+ - x-)), the margin read before the decay.

    Chain k of a job draws the stream of `default_rng(SeedSequence(
    config.seed).spawn(K)[k]).integers(0, [[n+], [n-]], size=(epochs, 2,
    n~))`, bit for bit, a block of epochs at a time.  `_ChainStreams` seeds
    every chain at once from its job's `SeedSequence.pool` and draws the
    block of all chains of one n~ in a few array operations, through numpy's
    32-bit Lemire step on their raw PCG64 words.  Step i of every chain's
    epoch runs together on one (chains x D) weight matrix; a chain with
    fewer rows sits the extra steps out.  Each chain's arithmetic is exactly
    that of a loop over its own steps, so a ranker does not depend on which
    other jobs share the call.

    The jobs are split across the cores this process may use: `_job_groups`
    cuts them into groups of equal work, the first group trains in this
    process and every other group in a forked child, which sends back only
    its weights, through a shared mapping that is read only on the child's
    exit status 0 (`_train_groups`).
    Since a ranker does not depend on the jobs it trains with, the rankers,
    and every report built from them, do not depend on the core count.
    """
    X = dataset.features
    if not np.isfinite(X).all():
        raise DomainError("features hold a non-finite value")
    schedules = {(config.lr, config.epochs) for _, config in jobs}
    if len(schedules) > 1:
        raise ConfigError("the jobs of one train_many call must share lr and epochs, "
                          f"got {sorted(schedules)}")
    lr, epochs = schedules.pop() if schedules else (0.0, 0)
    # Row indices are held in the narrowest type that holds any of them.
    row_type = np.min_scalar_type(max(dataset.n_samples - 1, 0))
    fits, chains, seqs, n_rows, n_chains = [], [], [], [], []
    for j, (rows, config) in enumerate(jobs):
        rows = np.asarray(rows, dtype=np.intp)
        if rows.size == 0:
            raise DomainError("cannot train on an empty dataset")
        if rows.min() < 0 or rows.max() >= dataset.n_samples:
            raise DomainError(f"job rows must lie in [0, {dataset.n_samples})")
        decay = 1.0 - 2.0 * lr * config.weight_decay
        if decay <= 0:
            raise ConfigError("lr * weight_decay too large; update would flip sign")
        # Per label, the job's positive rows and then its negative rows, each
        # in row order: the pools `pair_transform` would give.
        negative = dataset.labels[rows].T != 1
        pools = rows.astype(row_type)[np.argsort(negative, axis=1, kind="stable")]
        n_neg = negative.sum(axis=1)
        seqs.append(np.random.SeedSequence(config.seed))
        excluded = []
        for k in range(dataset.n_labels):
            if n_neg[k] in (0, rows.size):
                excluded.append(k)
                continue
            chains.append((rows.size, j, k, pools[k], rows.size - n_neg[k], decay))
        fits.append((config, tuple(excluded)))
        n_rows.append(rows.size)
        n_chains.append(dataset.n_labels - len(excluded))

    # Most rows first: `_lockstep` takes its chains in this order, and a
    # group's chains keep it.
    chains.sort(key=lambda chain: -chain[0])
    groups = _job_groups(n_rows, n_chains, dataset.n_features, epochs)
    parts = [[chain for chain in chains if groups[chain[1]] == g]
             for g in range(groups.max(initial=0) + 1)]
    weights = [np.zeros((dataset.n_labels, dataset.n_features)) for _ in fits]
    trained = _train_groups(parts, dataset.n_features,
                            lambda part: _lockstep(X, part, seqs, lr, epochs, row_type))
    for part, W in zip(parts, trained):
        for (_, j, k, *_), w in zip(part, W):
            weights[j][k] = w
    return [LinearRanker(w, config, excluded) for w, (config, excluded) in zip(weights, fits)]


def _job_groups(n_rows, n_chains, d: int, epochs: int) -> np.ndarray:
    """The group of each job of a `train_many` call: at most one group per
    core this process may use, cut into runs of equal work.

    A job's work per epoch and feature is its chains times its rows.  The
    jobs with a chain, most rows first, join run floor(cores * (the work
    before them + half their own) / the total work), and the runs are
    numbered from 0 with no gaps; run g is group g.  So a group holds jobs
    of neighbouring row counts, and no group holds more than total / cores
    plus one job's work.  Every job is in group 0 when there is one core,
    when this process cannot fork safely, or when the split saves fewer than
    _FORK_WORK chain-feature updates over all epochs (epochs * d * (the
    total work - the largest group's)).  A job with no chain is always in
    group 0."""
    n_rows = np.asarray(n_rows, dtype=np.int64)
    busy = np.flatnonzero(n_chains)
    groups = np.zeros(n_rows.size, dtype=np.intp)
    order = busy[np.argsort(-n_rows[busy], kind="stable")]
    cores = min(available_cores(), order.size)
    # A fork copies only the calling thread, so a lock that another Python
    # thread holds would stay held in the child; threads outside Python,
    # such as a BLAS pool, are left to their libraries' fork handlers.
    if cores < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return groups
    work = np.asarray(n_chains, dtype=np.int64)[order] * n_rows[order]
    total = int(work.sum())
    runs = np.unique(cores * (2 * np.cumsum(work) - work) // (2 * total),
                     return_inverse=True)[1]
    if epochs * d * (total - np.bincount(runs, work).max()) < _FORK_WORK:
        return groups
    groups[order] = runs
    return groups


def _train_groups(parts, d: int, train) -> list:
    """[train(part) for part in parts], each a (len(part), d) float64 array.

    parts[0] trains in this process and every other part in its own forked
    child, which sends back only its weights: it writes them into its rows
    of one anonymous shared mapping, made before the forks, and only then
    leaves by os._exit(0).  A child's rows are read only when it exited
    with status 0.  Every child is reaped before this returns or raises;
    when this process's own share raises, the children are killed first.
    A part whose child could not be forked or did not exit with status 0,
    for whatever reason, is trained again here: the same bits, and a real
    error is raised here.  The returned arrays are copies, so the mapping
    is released when this returns."""
    # Part i > 0 owns rows[i], part 0 none; mmap refuses a length of 0.
    n = [0, *map(len, parts[1:])]
    shared = mmap.mmap(-1, max(8 * d * sum(n), 1))
    rows = np.split(np.ndarray((sum(n), d), buffer=shared), np.cumsum(n[:-1]))
    out = [None] * len(parts)
    children = []  # (part index, pid)
    try:
        for i in range(1, len(parts)):
            pid = _fork(train, parts[i], rows[i])
            if pid is not None:
                children.append((i, pid))
        out[0] = train(parts[0])
    except BaseException:
        import signal  # loaded only where a call fails

        for _, pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for i, pid in children:
            if os.waitpid(pid, 0)[1] == 0:
                out[i] = rows[i].copy()
    return [train(part) if W is None else W for part, W in zip(parts, out)]


def _fork(train, part, out):
    """The pid of a forked child that writes train(part) into `out`, its
    rows of a shared mapping, and then leaves by os._exit(0), or by
    os._exit(1) if anything raises; None when the fork fails.

    Python 3.12 and later warn, in the parent, on every fork of a process
    with more than one thread, BLAS's idle pool included.  `_job_groups` has
    ruled out other Python threads, so that one warning is ignored here."""
    parent, pid, status = os.getpid(), None, 1
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            out[...] = train(part)
            status = 0
    except OSError:  # the fork failed
        pass
    finally:
        # whatever it raised, a child runs none of its parent's code past
        # here; its pid tells it apart, as a signal may raise before the
        # fork's result is stored
        if os.getpid() != parent:
            os._exit(status)
    return pid


def _lockstep(X, chains, seqs, lr, epochs, row_type) -> np.ndarray:
    """The (len(chains), D) weights of `chains`, most rows first, trained in
    lockstep as `train_many` describes."""
    # Most rows first, so the chains still inside their epoch at step i are
    # always the leading rows W[:width[i]], and the chains of one n~ are one
    # run W[start:stop].
    n_chains, d = len(chains), X.shape[1]
    n_rows = np.array([chain[0] for chain in chains], dtype=np.intp)
    starts = np.unique(-n_rows, return_index=True)[1]
    runs = list(zip(starts, [*starts[1:], n_chains]))
    # The decay spread over (chains x D) makes the per-step decay one
    # elementwise product.
    decay = np.repeat([chain[5] for chain in chains], d).reshape(n_chains, d)
    W = np.zeros((n_chains, d))
    steps = int(n_rows.max(initial=0))
    width = np.searchsorted(-n_rows, -np.arange(steps), side="left")
    # Width changes only where a group of chains ends its epoch.  Each run of
    # steps of one width gets its views of W and the decay once, shaped so
    # that a step makes none: rows W[:wide] as (1 x D) for the margin and as
    # (D x 1) for the update, which `X_col.take` rows match.
    cuts = [0, *(np.flatnonzero(width[1:] != width[:-1]) + 1), steps]
    spans = [(lo, hi, W[:width[lo], None, :], W[:width[lo], :, None],
              decay[:width[lo], :, None]) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
    X_col = X[:, :, None]

    # Chain c draws from pools[c, :n~]: its positive rows, then its negative
    # rows.
    pools = np.zeros((n_chains, steps), dtype=row_type)
    sizes = np.zeros((n_chains, 2), dtype=np.int64)
    for c, (n, _, _, pool, n_pos, _) in enumerate(chains):
        pools[c, :n] = pool
        sizes[c] = n_pos, n - n_pos
    streams = _ChainStreams(seqs, [chain[1] for chain in chains],
                            [chain[2] for chain in chains], sizes)

    # Row draws of a block of epochs, (block x side x steps x chains); the
    # block is as many epochs as fit in _DRAW_BYTES, at least one.
    epoch_bytes = 2 * steps * n_chains * row_type.itemsize
    block = max(1, min(epochs, _DRAW_BYTES // max(epoch_bytes, 1)))
    draws = np.zeros((block, 2, steps, n_chains), dtype=row_type)
    for epoch in range(epochs):
        b = epoch % block
        if b == 0:
            nb = min(block, epochs - epoch)
            for start, stop in runs:
                n = n_rows[start]
                # a chunk's raw words take 1/32 of _DRAW_BYTES; its
                # temporaries, some seven times as many bytes, stay below it
                per_chunk = max(1, _DRAW_BYTES // 32 // (8 * nb * n))
                for lo in range(start, stop, per_chunk):
                    part = np.arange(lo, min(lo + per_chunk, stop))
                    picks = streams.draw(part, nb, n)
                    picks += (part * steps)[:, None, None, None]  # flat in pools
                    draws[:nb, :, :n, part] = np.take(pools, picks).transpose(1, 2, 3, 0)
        pos_draw, neg_draw = draws[b]
        for lo, hi, w_row, w, dec in spans:
            wide = w.shape[0]
            for pos, neg in zip(pos_draw[lo:hi, :wide], neg_draw[lo:hi, :wide]):
                # the method, not np.take, which adds a Python-level wrapper
                diff = X_col.take(pos, axis=0)
                diff -= X_col.take(neg, axis=0)
                # One (1 x D) @ (D x 1) product per chain: the same dot
                # product as w @ diff, bit for bit, which einsum does not
                # promise.
                margin = np.matmul(w_row, diff)
                w *= dec
                # A masked add leaves every entry it skips untouched; adding
                # a zero step instead would turn a -0.0 weight into +0.0.
                diff *= lr
                np.add(w, diff, out=w, where=margin < 1.0)

    return W


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
    n_pos, n_neg = _label_counts(dataset.labels)
    kept = np.minimum(n_pos, n_neg) > 0
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


def _label_counts(labels: np.ndarray):
    """(n+, n-) per label column; entries are +-1, so n- = n - n+."""
    n_pos = (labels == 1).sum(axis=0)
    return n_pos, labels.shape[0] - n_pos


def _pair_params(labels: np.ndarray, t: float, **norms):
    """(kept mask, pair-transformed `BoundParams`) of a split's labels: a label
    is kept when it has a positive and a negative row; tau_k = min(n+, n-) / n~."""
    least = np.minimum(*_label_counts(labels))
    kept = least > 0
    if not kept.any():
        raise UndefinedMetricError("every label degenerate; no bound to report")
    n = labels.shape[0]
    return kept, BoundParams.pair_transformed((least[kept] / n).tolist(), n, t=t, **norms)


def _cv_jobs(labels: np.ndarray, grid, folds: int, config: TrainConfig):
    """Cross-validation of a split with label matrix `labels` as
    `train_many` jobs: the (lambda, fold) fit of every usable fold in grid
    order, then one final fit on all rows per lambda.  Also returns each
    fold's validation rows, or None for a fold that is not usable: its rows
    hold no label with both a positive and a negative, so `macro_auc` is
    undefined on it whatever the fit.  Such a fold is skipped with one
    warning."""
    n = labels.shape[0]
    if folds < 2:
        raise ConfigError(f"folds must be >= 2, got {folds}")
    if n < folds:
        raise DomainError(f"need at least {folds} samples for {folds}-fold CV")
    rng = np.random.default_rng(derive_seed(config.seed, 0xF01D))
    fold_idx = np.array_split(rng.permutation(n), folds)
    val_rows = [np.sort(idx) if np.minimum(*_label_counts(labels[idx])).any() else None
                for idx in fold_idx]
    for fi, rows in enumerate(val_rows):
        if rows is None:
            warnings.warn(f"fold {fi}: all labels degenerate, skipped")
    train_rows = [np.sort(np.concatenate(fold_idx[:fi] + fold_idx[fi + 1:]))
                  for fi in range(folds)]
    jobs = [(train_rows[fi], replace(config, weight_decay=lam,
                                     seed=derive_seed(config.seed, li, fi)))
            for li, lam in enumerate(grid) for fi in range(folds)
            if val_rows[fi] is not None]
    jobs += [(np.arange(n), replace(config, weight_decay=lam)) for lam in grid]
    return jobs, val_rows


def _cv_pick(dataset: MultiLabelDataset, grid, rankers, val_rows):
    """(lambda, final ranker) with the best mean validation Macro-AUC over
    the usable folds, from the rankers trained on `_cv_jobs`; the first
    lambda wins a tie, and a lambda whose mean is nan never wins."""
    val_sets = [dataset.subset(rows) for rows in val_rows if rows is not None]
    fits = iter(rankers)
    means = [np.mean([macro_auc(next(fits), val) for val in val_sets])
             for _ in grid] if val_sets else []
    if np.isnan(means).all():
        raise UndefinedMetricError("no usable fold in cross-validation")
    best = int(np.nanargmax(means))
    return grid[best], rankers[len(rankers) - len(grid) + best]


def cv_select(dataset: MultiLabelDataset, grid=LAMBDA_GRID, folds: int = 3,
              config: TrainConfig = TrainConfig()):
    """Pick the weight decay maximizing mean validation Macro-AUC over
    seeded folds and return it with its fit on the full split.

    Every (lambda, fold) fit and the full-split fit of every lambda train in
    one `train_many` call; the chosen lambda's full-split fit is returned.
    A fold in which every label is degenerate is skipped with one warning,
    and its fits are not trained."""
    jobs, val_rows = _cv_jobs(dataset.labels, grid, folds, config)
    return _cv_pick(dataset, grid, train_many(dataset, jobs), val_rows)


def report_bounds(dataset: MultiLabelDataset, ranker: LinearRanker,
                  t: float = T_DEFAULT, rate: float = 1.0) -> BoundReport:
    """Bound report for a ranker on its training split.

    Reads from the split m_bar = max ||x|| and, counting each label's
    positive and negative rows, tau_k = min(n+, n-) / n~ per non-degenerate
    label; measures m_tilde = max_k ||w_k||, takes the squared-singular-value
    spectrum of the kept labels' weights, and evaluates the localized bound
    (doubled minimum over the shared integer cut capped at min(D, K) * rate)
    against the prior global bound.
    """
    m_tilde, m_bar = ranker.m_tilde, dataset.max_row_norm()
    kept, params = _pair_params(dataset.labels, t, m_tilde=m_tilde, m_bar=m_bar)
    d_max = int(_cut_cap(dataset.n_features, params.K, rate))
    spectrum = spectrum_from_weights(ranker.weights[kept])
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
            "K": params.K,
            "tau": list(params.tau_list),
            "m_tilde": m_tilde,
            "m_bar": m_bar,
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
            "excluded_labels": np.flatnonzero(~kept).tolist(),
        },
    )


def _cut_cap(n_features: int, n_kept: int, rate: float) -> float:
    """The cap min(D, K) * rate on the shared cut of K kept labels;
    DomainError unless rate >= 0 and the cap is finite."""
    cap = min(n_features, n_kept) * rate
    if not (math.isfinite(cap) and rate >= 0):
        raise DomainError(f"rate must be >= 0 and keep min(D, K) * rate finite, got {rate}")
    return cap


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
    all train in one `train_many` call.  An empty seed list, a bad t, and in
    any seed's training split no kept label, a rate that `_cut_cap` refuses
    or an overflowing t-term of `bound_ours_macroauc` (it reads only the
    tau_k) are refused before any training."""
    seeds = list(seeds)
    if not seeds:
        raise ConfigError("run_experiment needs at least one seed")
    check_t(t)
    res = ExperimentResult(dataset=name, seeds=seeds, lambda_selected=[],
                           test_macro_auc=[], reports=[])
    plans, jobs = [], []
    for seed in seeds:
        train_rows, test_rows = _split_rows(dataset.n_samples, seed)
        train_labels = dataset.labels[train_rows]
        params = _pair_params(train_labels, t)[1]
        _cut_cap(dataset.n_features, params.K, rate)
        bound_ours_macroauc(0.0, params)
        cfg = TrainConfig(lr=lr, epochs=epochs, seed=seed)
        cv_jobs, val_rows = _cv_jobs(train_labels, grid, folds, cfg)
        jobs += [(train_rows[rows], job_cfg) for rows, job_cfg in cv_jobs]
        plans.append((train_rows, test_rows, val_rows, len(cv_jobs)))
    rankers = train_many(dataset, jobs)
    start = 0
    for train_rows, test_rows, val_rows, n_jobs in plans:
        train = dataset.subset(train_rows)
        lam, ranker = _cv_pick(train, grid, rankers[start:start + n_jobs], val_rows)
        start += n_jobs
        report = report_bounds(train, ranker, t=t, rate=rate)
        res.lambda_selected.append(lam)
        res.test_macro_auc.append(macro_auc(ranker, dataset.subset(test_rows)))
        res.reports.append(report.to_dict())
    return res
