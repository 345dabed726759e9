"""Synthetic multi-graph dependent generators and empirical tail checks
for the concentration inequalities.

Generators produce K independent task blocks, each described by its
cover: the (weight, class size) pairs of a fractional cover of its
dependency graph, whose weight sum is chi_f and sum w * size the summand
count.  An `iid_blocks` task sums m independent base draws (edgeless
graph, one class of m); a `bipartite_ranking` task draws n_pos + n_neg
latent values and sums one bounded pair variable g(u_p, w_q) per
(positive, negative) pair: the rook graph, whose cover has
max(n_pos, n_neg) unit classes of min(n_pos, n_neg) pairs.  All summands
are bounded, as the tail bounds need.

One summand is described by a single `SummandLaw` (mean, second moment,
range) derived from the base and the kernel; the (v, sigma^2, W, U)
bundle, the almost-sure bound b = hi and the Talagrand supremum class
(`_sup_class`: amp, shift, sigma^2) are all read from it and the cover.

Every kernel's pair task sum factorizes over the task's draws u and w
(for the product kernel, sum_pq u_p w_q = (sum u)(sum w)), so a task sum
and its sum of squared summands cost O(n_pos + n_neg), not
O(n_pos * n_neg), and no pair array is ever formed.

Reproducibility: trials are simulated in fixed-size batches; batch i uses
the i-th child stream of numpy's SeedSequence(master_seed), read as raw
PCG64 words.  A uniform base draw is the midpoint (k + 1/2) 2^-32 of one
32-bit half k of a word, low half first; its grid has mean exactly 1/2
and second moment 1/3 - 2^-64/12, which rounds to 1/3, so the declared
law is exact.  A two-point draw takes a whole word and is hi exactly when
`Generator.random() < p` would be.  Task sums come from integers: the sum
of a row's halves k, or its count of hi draws.  (Uniform draws were once
`Generator.random()` doubles, one word each.)  Every draw goes through
one batch loop that reduces each batch to its (trials, K) per-task sums
before drawing the next.  Within a batch, each side's draws (the iid
draws, or a pair task's u and then w) are drawn and reduced in row
blocks of about 1 MiB from one generator, in the calling thread.  So one
block and the batch's task sums are held in memory, whatever the trial
count or task width, and every draw is the one a single `random_raw`
call per side would give.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import concentration as conc
from .concentration import TailBoundInput
from .errors import ConfigError, DomainError, ModeError, check_seed, check_t

BATCH = 1 << 16
_DRAW_BYTES = 1 << 20  # base draws held at once, in bytes
# Rows of fewer draws are summed column by column: numpy's row sum has a
# fixed cost per row.  A uniform side cost 7.4, 3.1 and 2.3 ns per draw at
# widths 2, 10 and 24 by row sums, against 2.7, 2.4 and 2.3 by columns
# (two-point: 9.3, 4.9, 3.4 against 4.3, 4.2, 4.4; 2-core x86 VM).
_COLUMN_SUM_WIDTH = 16

INEQUALITIES = ("bennett_general", "bennett_refined", "lower_tail", "talagrand")


@dataclass(frozen=True)
class DependentSampler:
    """Seeded generator of Z = sum of multi-graph dependent block sums.

    structure 'iid_blocks': K tasks of m independent summands each.
    structure 'bipartite_ranking': K tasks of n_pos * n_neg pair variables
    g(u_p, w_q); kernel is one of 'product', 'centered_product', 'mean'.
    base is 'uniform' on [0,1] or 'two_point' taking base_hi with
    probability base_p and base_lo otherwise (base_lo = base_hi gives a
    point mass).  centered subtracts the mean from each iid summand
    (iid_blocks only).
    """

    structure: str
    k_tasks: int = 1
    m: int = 0
    n_pos: int = 0
    n_neg: int = 0
    base: str = "uniform"
    base_p: float = 0.5
    base_lo: float = 0.0
    base_hi: float = 1.0
    kernel: str = "product"
    centered: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.structure not in ("iid_blocks", "bipartite_ranking"):
            raise ConfigError(f"unknown structure {self.structure!r}")
        if self.structure == "iid_blocks" and self.m < 1:
            raise ConfigError("iid_blocks needs m >= 1")
        if self.structure == "bipartite_ranking" and (self.n_pos < 1 or self.n_neg < 1):
            raise ConfigError("bipartite_ranking needs n_pos, n_neg >= 1")
        if self.base not in ("uniform", "two_point"):
            raise ConfigError(f"unknown base {self.base!r}")
        if self.base == "two_point":
            if not (0.0 < self.base_p < 1.0):
                raise ConfigError("two_point base needs 0 < base_p < 1")
            if not (0.0 <= self.base_lo <= self.base_hi <= 1.0):
                raise ConfigError("two_point base needs 0 <= lo <= hi <= 1")
        if self.kernel not in ("product", "centered_product", "mean"):
            raise ConfigError(f"unknown kernel {self.kernel!r}")
        if self.k_tasks < 1:
            raise ConfigError("k_tasks must be >= 1")
        check_seed(self.seed)


@dataclass(frozen=True)
class SummandLaw:
    """Mean, second moment and almost-sure range [lo, hi] of one bounded
    variable; hi is the bound b of the tail-bound bundle."""

    mean: float
    e2: float
    lo: float
    hi: float


def _base_law(sampler):
    if sampler.base == "uniform":
        return SummandLaw(0.5, 1.0 / 3.0, 0.0, 1.0)
    p, lo, hi = sampler.base_p, sampler.base_lo, sampler.base_hi
    return SummandLaw(lo + (hi - lo) * p, lo * lo * (1.0 - p) + hi * hi * p, lo, hi)


def _summand_law(sampler) -> SummandLaw:
    """Law of one summand: an iid draw, or one pair variable g(u, w)."""
    base = _base_law(sampler)
    mean, e2, lo, hi = base.mean, base.e2, base.lo, base.hi
    if sampler.structure == "iid_blocks":
        if sampler.centered:
            return SummandLaw(0.0, e2 - mean**2, lo - mean, hi - mean)
        return base
    if sampler.kernel == "product":
        return SummandLaw(mean**2, e2**2, lo * lo, hi * hi)
    if sampler.kernel == "centered_product":
        return SummandLaw(0.0, (e2 - mean**2) ** 2, -(hi - mean) * (mean - lo),
                          max((hi - mean) ** 2, (mean - lo) ** 2))
    # mean kernel (u + w) / 2
    return SummandLaw(mean, (e2 + mean**2) / 2.0, lo, hi)


def _cover(sampler):
    """A task's cover as (weight, class size) pairs: one class of the m iid
    draws, or the rook cover of a pair task."""
    if sampler.structure == "iid_blocks":
        return ((1.0, sampler.m),)
    return ((1.0, min(sampler.n_pos, sampler.n_neg)),) * max(sampler.n_pos, sampler.n_neg)


def _n_summands(cover):
    return sum(w * size for w, size in cover)  # a cover weighs each summand 1 in all


def _chi_list(sampler):
    """chi_f of each task's dependency graph: its cover's weight sum."""
    return (float(sum(w for w, _ in _cover(sampler))),) * sampler.k_tasks


def _bundle(sampler, mean, e2):
    """(v, sigma^2, W, U) bundle, one (w, v_kj) block per cover class, for
    summands with the given mean and second moment; the almost-sure bound
    b is structural (it cannot be estimated)."""
    b, cover = _summand_law(sampler).hi, _cover(sampler)
    n, k = _n_summands(cover), sampler.k_tasks
    blocks = tuple((w, (1.0 + b) * (size * mean) + size * e2) for w, size in cover)
    return TailBoundInput(b=b, EZ=k * n * mean, sigma_sq=k * n * e2,
                          chi_list=_chi_list(sampler), blocks=(blocks,) * k)


def analytic_input(sampler) -> TailBoundInput:
    """Closed-form (v, sigma^2, W, U) bundle for the declared distribution."""
    law = _summand_law(sampler)
    return _bundle(sampler, law.mean, law.e2)


def _n_batches(n_trials):
    return (n_trials + BATCH - 1) // BATCH


def _calibration_run(n_trials):
    """(trials, first batch stream) of the calibration run of a run of
    n_trials: a tenth as many, at least 1000, on the streams after its own."""
    return max(1000, n_trials // 10), _n_batches(n_trials)


def _column_sums(rows, out):
    """out = the uint64 row sums of rows, added one column at a time."""
    np.copyto(out, rows[:, 0])
    for j in range(1, rows.shape[1]):
        np.add(out, rows[:, j], out=out)


def _side_sums(bitgen, sampler, shape, width, shift=0.0, sq_center=None):
    """Per-row sums S(x) over `shape` rows of `width` base draws each, with
    x = draw - shift, and S((draw - sq_center)^2) unless sq_center is None.

    The side's draws are those of one `random_raw` call on the PCG64
    `bitgen` from its current word on; row r holds draws r * width onward,
    and a uniform side that ends mid-word leaves bitgen at the next word.
    A uniform draw is the midpoint (k + 1/2) 2^-32 of one 32-bit half k of
    a word, low half first, so a word holds two draws and a row that
    starts mid-word takes that word's high half.  A row sums to the exact
    integer sum of its k, scaled once: (2 sum k + width) 2^-33.  A
    two-point draw takes a whole word and is hi when the word is below
    ceil(p 2^53) 2^11, which is `Generator.random() < p` bit for bit; a
    row sums to (lo - shift) width + (hi - lo) B from its count B of hi
    draws, so rows with equal counts get bit-equal sums.

    Rows are drawn and reduced in blocks of about _DRAW_BYTES, each block
    starting on a word.
    """
    two_point = sampler.base == "two_point"
    sums = np.empty(shape)
    sq = None if sq_center is None else np.empty(shape)
    rows = sums.size
    # a uniform block that starts on an even row starts on a word
    step = 1 if two_point or width % 2 == 0 else 2
    # bytes held per draw: a word and its flag, or half a word and, for
    # squares, a double
    draw_bytes = 9 if two_point else 4 + (8 if sq is not None else 0)
    block = max(step, _DRAW_BYTES // (draw_bytes * width) // step * step)
    # a row sums to scale * (its integer sum) + offset; on a uniform base,
    # with shift 0 or 1/2, both terms are multiples of 2^-33, so the sum is
    # exact below 2^20 draws per row
    lo, hi = sampler.base_lo, sampler.base_hi
    if two_point:
        below = np.uint64(math.ceil(sampler.base_p * 2.0**53) << 11)
        scale, offset = hi - lo, (lo - shift) * width
    else:
        scale, offset = 2.0**-32, (2.0**-33 - shift) * width
    if sq is not None:
        sq_lo, sq_hi = (lo - sq_center) ** 2, (hi - sq_center) ** 2
    counts = np.empty(min(block, rows), dtype=np.uint64)
    x = np.empty(counts.size * width) if sq is not None and not two_point else None
    for start in range(0, rows, block):
        stop = min(start + block, rows)
        n = (stop - start) * width
        if two_point:
            draws = bitgen.random_raw(n) < below
        else:
            draws = bitgen.random_raw((n + 1) // 2).astype("<u8", copy=False)
            draws = draws.view("<u4")[:n]
        c = counts[:stop - start]
        if width < _COLUMN_SUM_WIDTH:
            _column_sums(draws.reshape(-1, width), c)
        else:
            draws.reshape(-1, width).sum(axis=1, dtype=np.uint64, out=c)
        out = sums.reshape(-1)[start:stop]
        np.multiply(c, scale, out=out)
        out += offset
        if sq is not None:
            out_sq = sq.reshape(-1)[start:stop]
            if two_point:
                np.multiply(c, sq_hi - sq_lo, out=out_sq)
                out_sq += sq_lo * width
            else:
                t = x[:n]
                np.add(draws, 0.5, out=t)
                t *= 2.0**-32
                t -= sq_center
                t *= t
                t.reshape(-1, width).sum(axis=1, out=out_sq)
        del draws  # frees this block's draws before the next block's are made
    return sums, sq


def _draw_task_sums(seq, sampler, base_mean, size, squares):
    """(size, K) task sums of one batch drawn from stream seq, and with
    squares=True also the (size, K) task sums of squared summands (None
    otherwise).

    An iid task sums its m draws (less the base mean when centered).  A
    pair task sum factorizes over its draws u (n_pos) and w (n_neg), so
    no (n_pos, n_neg) pair array is formed:
        product           sum g = Su * Sw,
                          sum g^2 = S(u^2) * S(w^2);
        centered_product  sum g = (Su - n_pos mu) (Sw - n_neg mu),
                          sum g^2 = S((u-mu)^2) * S((w-mu)^2);
        mean              sum g = (n_neg Su + n_pos Sw) / 2,
                          sum g^2 = (n_neg S(u^2) + 2 Su Sw + n_pos S(w^2)) / 4.
    The centered sum subtracts n_pos mu from Su rather than summing u - mu,
    so trials with equal (Su, Sw) get bit-equal task sums: on a two-point
    base, every trial at a lattice point that ties a threshold falls on
    the same side of it.  The stream holds every u, then from the next
    word every w, each in (trial, task, draw) order.
    """
    shape = (size, sampler.k_tasks)
    bitgen = np.random.PCG64(seq)
    if sampler.structure == "iid_blocks":
        shift = base_mean if sampler.centered else 0.0
        return _side_sums(bitgen, sampler, shape, sampler.m, shift,
                          shift if squares else None)
    n_pos, n_neg = sampler.n_pos, sampler.n_neg
    sq_center = None
    if squares:
        sq_center = base_mean if sampler.kernel == "centered_product" else 0.0
    su, squ = _side_sums(bitgen, sampler, shape, n_pos, sq_center=sq_center)
    sw, sqw = _side_sums(bitgen, sampler, shape, n_neg, sq_center=sq_center)
    if sampler.kernel == "mean":
        return (0.5 * (n_neg * su + n_pos * sw),
                0.25 * (n_neg * squ + 2.0 * su * sw + n_pos * sqw) if squares else None)
    if sampler.kernel == "centered_product":
        su, sw = su - n_pos * base_mean, sw - n_neg * base_mean
    return su * sw, squ * sqw if squares else None


def _reduce_batches(sampler, n_trials, stream_offset, reduce, squares=False):
    """[reduce(task sums, task square sums) of batch i] over the batches of
    n_trials trials; batch i draws from child stream stream_offset + i of
    SeedSequence(seed).  Each batch is reduced before the next is drawn."""
    base_mean = _base_law(sampler).mean
    return [reduce(*_draw_task_sums(
                np.random.SeedSequence(sampler.seed, spawn_key=(stream_offset + i,)),
                sampler, base_mean, min(BATCH, n_trials - i * BATCH), squares))
            for i in range(_n_batches(n_trials))]


def _simulate(sampler, n_trials, sup_class=None, stream_offset=0):
    """Z realizations; given a `_sup_class` (amp, shift, sigma^2), each task
    sum is replaced by its supremum over that class, |task sum - shift| / amp."""
    if n_trials < 1:
        raise DomainError("n_trials must be >= 1")

    def reduce(task_sums, _):
        if sup_class is not None:
            task_sums = np.abs(task_sums - sup_class[1]) / sup_class[0]
        return task_sums.sum(axis=1)

    return np.concatenate(_reduce_batches(sampler, n_trials, stream_offset, reduce))


def _sup_class(sampler):
    """(amp, shift, sigma^2) of the centered two-function class {+f, -f}:
    amp = sup |summand - E[summand]| scales the class into [-1, 1], a task
    sum less shift = summand count * E[summand] is centered, and sigma^2 =
    sum w sigma_kj^2 over every task's cover, with sigma_kj^2 = class size *
    sup_f E[f^2].  The law and the cover fix all three, so a class with no
    spread or with a variance that cancels below 0 is refused before any draw."""
    law, cover = _summand_law(sampler), _cover(sampler)
    amp = max(law.hi - law.mean, law.mean - law.lo)
    if amp <= 0.0:
        raise ModeError("degenerate summand: supremum class has no spread")
    if amp * amp == 0.0:  # sigma^2 divides by it
        raise ModeError(f"supremum class spread {amp!r} underflows when squared")
    f_second = (law.e2 - law.mean**2) / amp**2  # sup_f E[f^2] per summand
    if f_second < 0.0:
        raise ModeError(f"supremum class variance (E[f^2] - E[f]^2) / amp^2 = {f_second!r} "
                        "is negative: the summand's second moment cancels against its squared "
                        "mean in float arithmetic")
    # one (w, sigma_kj^2) block per cover class, added one by one: a product moves v by ulps
    blocks = [[(w, size * f_second) for w, size in cover]] * sampler.k_tasks
    return amp, _n_summands(cover) * law.mean, conc.talagrand_v(blocks, 0.0)


@dataclass
class SampleResult:
    z: np.ndarray
    inp: TailBoundInput


def sample_Z(sampler: DependentSampler, n_trials: int,
             moments: str = "analytic") -> SampleResult:
    """Simulate Z and return realizations plus the tail-bound bundle.

    moments='analytic' computes (E[Z], sigma^2, v) from the declared base
    and kernel; moments='plugin' estimates the summand moments from a
    calibration run one tenth the size (separate seed stream).  A base
    that is 0 a.s. makes that estimate of v 0, so it is refused first.
    """
    if moments not in ("analytic", "plugin"):
        raise ConfigError(f"unknown moments mode {moments!r}")
    if moments == "plugin" and sampler.base == "two_point" and sampler.base_hi == 0.0:
        _bundle(sampler, 0.0, 0.0)  # every calibrated moment is 0: refuses v = 0
    z = _simulate(sampler, n_trials)
    if moments == "analytic":
        return SampleResult(z=z, inp=analytic_input(sampler))
    mean_hat, e2_hat = _calibrate(sampler, *_calibration_run(n_trials))
    inp = _bundle(sampler, mean_hat, max(e2_hat, mean_hat**2))
    return SampleResult(z=z, inp=inp)


def _calibrate(sampler, n_cal, stream_offset):
    """Pooled empirical (mean, second moment) of one summand, from a
    calibration run on separate seed streams."""
    s1, s2 = 0.0, 0.0
    for b1, b2 in _reduce_batches(
            sampler, n_cal, stream_offset,
            lambda sums, sq: (float(sums.sum()), float(sq.sum())), squares=True):
        s1 += b1
        s2 += b2
    count = n_cal * sampler.k_tasks * _n_summands(_cover(sampler))
    return s1 / count, s2 / count


def empirical_tail(samples, threshold: float):
    """(frequency of samples >= threshold, binomial standard error)."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise DomainError("empirical_tail needs a nonempty sample")
    freq = float((arr >= threshold).mean())
    stderr = math.sqrt(freq * (1.0 - freq) / arr.size)
    return freq, stderr


@dataclass
class TailReport:
    """Empirical-vs-bound comparison over a grid of confidence exponents;
    the field order is the key order of its report."""

    config: dict
    inequality: str
    form: str
    moments_mode: str
    n_trials: int
    t_grid: list
    rows: list = field(default_factory=list)

    @property
    def violations(self):
        return [row["t"] for row in self.rows if row["violation"]]

    def as_dict(self):
        return {**asdict(self), "violations": self.violations}

    def to_table(self):
        header = f"{'t':>10} {'threshold':>14} {'empirical':>12} {'stderr':>12} {'bound':>12} {'viol':>5}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r['t']:>10.4g} {r['threshold']:>14.6g} {r['empirical']:>12.6g} "
                f"{r['stderr']:>12.6g} {r['bound']:>12.6g} {'YES' if r['violation'] else 'no':>5}"
            )
        return "\n".join(lines)


def _bound_at(inequality, inp, t):
    """Probability-form bound at deviation t for the chosen inequality."""
    if inequality == "bennett_general":
        return conc.bennett_tail_general(inp, t)[0]
    if inequality == "bennett_refined":
        return conc.bennett_tail_refined(inp, t)
    if inequality == "lower_tail":
        return conc.bennett_lower_tail(inp, t)
    return conc.bennett_tail_general(inp, t)[1]  # talagrand: the simple form


def _bernstein_constant(inequality, chi_list):
    """The deviation constant c matching the inequality."""
    return (conc.refined_bernstein_constant if inequality == "bennett_refined"
            else conc.general_bernstein_constant)(chi_list)


def _levels(inequality, form, inp, t_grid):
    """(t, threshold, bound) of each grid row, from the bundle alone: the
    threshold lies the deviation beyond E[Z], below it for the lower tail."""
    c_dev = _bernstein_constant(inequality, inp.chi_list)
    levels = []
    for t in t_grid:
        if form == "probability":
            dev, bound = t, _bound_at(inequality, inp, t)
        else:
            dev, bound = conc.bernstein_deviation(c_dev, inp.v, t), math.exp(-t)
        threshold = inp.EZ - dev if inequality == "lower_tail" else inp.EZ + dev
        levels.append((float(t), float(threshold), float(bound)))
    return levels


def verify_inequality(sampler: DependentSampler, inequality: str, t_grid,
                      n_trials: int, form: str = "probability",
                      moments: str = "analytic") -> TailReport:
    """Compare empirical tails against one inequality over a t grid.

    form='probability' checks P(Z >= E[Z] + t) (or <= E[Z] - t for the
    lower tail) against the inequality's probability bound at each grid t.
    form='deviation' checks P(Z >= E[Z] + d(t)) against exp(-t), with
    d(t) = sqrt(2 c v t) + 2 c t / 3 and c the constant matching the mode.
    A row is flagged as a violation only when the empirical frequency
    exceeds the bound by more than three Monte Carlo standard errors.  At
    t = 0 every bound is 1 and the row measures P(Z >= E[Z]).  Every grid t
    passes `check_t`, and with analytic moments every row is evaluated, before
    any draw; plugin moments and the Talagrand E[Z] depend on a calibration
    run, so their rows follow the draws.  A deviation grows with v, and its
    term 2ct/3 reads only c, which chi_f fixes: on those two paths each
    deviation row is first evaluated at the least v > 0, so a row that
    overflows at every v is refused before any draw.
    """
    if inequality not in INEQUALITIES:
        raise ConfigError(f"unknown inequality {inequality!r}; choose from {INEQUALITIES}")
    if form not in ("probability", "deviation"):
        raise ConfigError(f"unknown form {form!r}")
    for t in t_grid:
        check_t(t)
    if form == "deviation" and (inequality == "talagrand" or moments != "analytic"):
        c_dev = _bernstein_constant(inequality, _chi_list(sampler))
        for t in t_grid:
            conc.bernstein_deviation(c_dev, math.ulp(0.0), t)  # at the least v > 0

    if inequality == "talagrand":
        sup_class = _sup_class(sampler)  # refused before any draw
        z = _simulate(sampler, n_trials, sup_class)
        n_cal, offset = _calibration_run(n_trials)
        ez = float(_simulate(sampler, n_cal, sup_class, stream_offset=offset).mean())
        # the supremum process scaled into [-1, 1] (b = 1): v = sum w sigma_kj^2 + 2 E[Z]
        inp = TailBoundInput(b=1.0, EZ=ez, sigma_sq=sup_class[2], chi_list=_chi_list(sampler))
        levels = _levels(inequality, form, inp, t_grid)
        moments = "plugin"  # E[Z] is estimated, whatever was asked
    elif moments == "analytic":
        levels = _levels(inequality, form, analytic_input(sampler), t_grid)
        z = sample_Z(sampler, n_trials).z
    else:
        result = sample_Z(sampler, n_trials, moments=moments)
        z, levels = result.z, _levels(inequality, form, result.inp, t_grid)

    report = TailReport(
        config=asdict(sampler), inequality=inequality, form=form,
        moments_mode=moments, n_trials=n_trials, t_grid=list(t_grid),
    )
    z, sign = (-z, -1.0) if inequality == "lower_tail" else (z, 1.0)  # Z <= x: -Z >= -x
    for t, threshold, bound in levels:
        freq, stderr = empirical_tail(z, sign * threshold)
        report.rows.append({
            "t": t, "threshold": threshold, "empirical": freq, "stderr": stderr,
            "bound": bound, "violation": bool(freq - 3.0 * stderr > bound),
        })
    return report

