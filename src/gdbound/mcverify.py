"""Synthetic multi-graph dependent generators and empirical tail checks
for the concentration inequalities.

Generators produce K independent task blocks.  An `iid_blocks` task is a
sum of m independent base draws (edgeless dependency graph, chi_f = 1); a
`bipartite_ranking` task draws n_pos + n_neg latent values, forms one
bounded pair variable g(u_p, w_q) per (positive, negative) pair, and sums
them, which realizes the rook dependency graph with chi_f =
max(n_pos, n_neg).  All summands are bounded so the unit increment
condition behind the tail bounds holds.

One summand is described by a single `SummandLaw` (mean, second moment,
range) derived from the base and the kernel; the (v, sigma^2, W, U)
bundle, the almost-sure bound b = hi and the Talagrand amplitude are all
read from it.

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
`Generator.random()` doubles, one word each; the move to half-words moved
every uniform-base report once, and no option keeps the old draw.
Two-point streams did not move.)  Every draw goes through one batch loop
that reduces each batch to its (trials, K) per-task sums before drawing
the next.  Within a batch, each side's draws (the iid draws, or a pair
task's u and then w) are drawn and reduced in row blocks of about 1 MiB,
split across the available cores: one worker thread per contiguous range
of rows, each on a generator advanced to its first word.  So one block
per worker and the batch's task sums are held in memory, whatever the
trial count or task width, and every draw is the one a single
`random_raw` call per side would give.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import concentration as conc
from .concentration import TailBoundInput
from .errors import ConfigError, DomainError, ModeError, available_cores, check_seed

BATCH = 1 << 16
_DRAW_BYTES = 1 << 20  # base draws held at once per worker thread, in bytes
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


def _task_shape(sampler):
    """(number of cover classes, class size, summands per task, chi_f)."""
    if sampler.structure == "iid_blocks":
        return 1, sampler.m, sampler.m, 1.0
    n_classes = max(sampler.n_pos, sampler.n_neg)
    size = min(sampler.n_pos, sampler.n_neg)
    return n_classes, size, sampler.n_pos * sampler.n_neg, float(n_classes)


def _bundle(sampler, mean, e2):
    """(v, sigma^2, W, U) bundle for summands with the given mean and second
    moment; the almost-sure bound b is structural (it cannot be estimated)."""
    b = _summand_law(sampler).hi
    n_classes, size, n_summands, chi = _task_shape(sampler)
    v_class = (1.0 + b) * (size * mean) + size * e2
    return TailBoundInput(
        b=b,
        EZ=sampler.k_tasks * n_summands * mean,
        sigma_sq=sampler.k_tasks * n_summands * e2,
        chi_list=(chi,) * sampler.k_tasks,
        blocks=(tuple((1.0, v_class) for _ in range(n_classes)),) * sampler.k_tasks,
    )


def analytic_input(sampler) -> TailBoundInput:
    """Closed-form (v, sigma^2, W, U) bundle for the declared distribution."""
    law = _summand_law(sampler)
    return _bundle(sampler, law.mean, law.e2)


def _n_batches(n_trials):
    return (n_trials + BATCH - 1) // BATCH


def _side_words(sampler, n_draws):
    """Stream words taken by n_draws base draws: a uniform draw takes half a
    word and a two-point draw a whole one."""
    return n_draws if sampler.base == "two_point" else (n_draws + 1) // 2


def _column_sums(rows, out):
    """out = the uint64 row sums of rows, added one column at a time."""
    np.copyto(out, rows[:, 0])
    for j in range(1, rows.shape[1]):
        np.add(out, rows[:, j], out=out)


def _side_sums(seq, word, sampler, shape, width, shift=0.0, sq_center=None):
    """Per-row sums S(x) over `shape` rows of `width` base draws each, with
    x = draw - shift, and S((draw - sq_center)^2) unless sq_center is None.

    The side's draws are those of one `random_raw` call on the PCG64
    stream `seq` from word `word` on; row r holds draws r * width onward.
    A uniform draw is the midpoint (k + 1/2) 2^-32 of one 32-bit half k of
    a word, low half first, so a word holds two draws and a row that
    starts mid-word takes that word's high half.  A row sums to the exact
    integer sum of its k, scaled once: (2 sum k + width) 2^-33.  A
    two-point draw takes a whole word and is hi when the word is below
    ceil(p 2^53) 2^11, which is `Generator.random() < p` bit for bit; a
    row sums to (lo - shift) width + (hi - lo) B from its count B of hi
    draws, so rows with equal counts get bit-equal sums.

    Rows are drawn and reduced in blocks of about _DRAW_BYTES, each block
    starting on a word; a side of at least two blocks per core is split
    into contiguous row ranges, one per worker thread, each on its own
    PCG64 advanced to its first word.
    """
    two_point = sampler.base == "two_point"
    sums = np.empty(shape)
    sq = None if sq_center is None else np.empty(shape)
    rows = sums.size
    # a uniform block or row range that starts on an even row starts on a word
    step = 1 if two_point or width % 2 == 0 else 2
    # bytes held per draw: a word and its flag, or half a word and, for
    # squares, a double
    draw_bytes = 9 if two_point else 4 + (8 if sq is not None else 0)
    block = max(step, _DRAW_BYTES // (draw_bytes * width) // step * step)
    n_workers = max(1, min(available_cores(), -(-rows // block) // 2))
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

    # Workers only draw and sum, which cannot overflow: numpy's errstate is
    # a context variable that worker threads do not inherit.
    def work(first, last):
        bitgen = np.random.PCG64(seq).advance(word + _side_words(sampler, first * width))
        counts = np.empty(min(block, last - first), dtype=np.uint64)
        x = np.empty(counts.size * width) if sq is not None and not two_point else None
        for start in range(first, last, block):
            stop = min(start + block, last)
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

    bounds = [rows * i // n_workers // step * step for i in range(n_workers)] + [rows]
    if n_workers == 1:
        work(0, rows)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(n_workers - 1) as pool:
            futures = [pool.submit(work, bounds[i], bounds[i + 1])
                       for i in range(1, n_workers)]
            work(bounds[0], bounds[1])
            for future in futures:
                future.result()
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
    if sampler.structure == "iid_blocks":
        shift = base_mean if sampler.centered else 0.0
        return _side_sums(seq, 0, sampler, shape, sampler.m, shift,
                          shift if squares else None)
    n_pos, n_neg = sampler.n_pos, sampler.n_neg
    sq_center = None
    if squares:
        sq_center = base_mean if sampler.kernel == "centered_product" else 0.0
    su, squ = _side_sums(seq, 0, sampler, shape, n_pos, sq_center=sq_center)
    sw, sqw = _side_sums(seq, _side_words(sampler, size * sampler.k_tasks * n_pos),
                         sampler, shape, n_neg, sq_center=sq_center)
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


def _simulate(sampler, n_trials, sup_mode=False, stream_offset=0):
    """Z realizations; sup_mode replaces each task sum by the supremum of
    the two-function centered class {+f, -f} (|centered task sum| / amp)."""
    if n_trials < 1:
        raise DomainError("n_trials must be >= 1")
    if sup_mode:
        law = _summand_law(sampler)
        amp = _sup_amp(law)
        shift = _task_shape(sampler)[2] * law.mean

    def reduce(task_sums, _):
        if sup_mode:
            task_sums = np.abs(task_sums - shift) / amp
        return task_sums.sum(axis=1)

    return np.concatenate(_reduce_batches(sampler, n_trials, stream_offset, reduce))


def _sup_amp(law):
    """sup |summand - E[summand]|, the scaling putting the class in [-1, 1]."""
    amp = max(law.hi - law.mean, law.mean - law.lo)
    if amp <= 0.0:
        raise ModeError("degenerate summand: supremum class has no spread")
    return amp


@dataclass
class SampleResult:
    z: np.ndarray
    inp: TailBoundInput


def sample_Z(sampler: DependentSampler, n_trials: int,
             moments: str = "analytic") -> SampleResult:
    """Simulate Z and return realizations plus the tail-bound bundle.

    moments='analytic' computes (E[Z], sigma^2, v) from the declared base
    and kernel; moments='plugin' estimates the summand moments from a
    calibration run one tenth the size (separate seed stream).
    """
    if moments not in ("analytic", "plugin"):
        raise ConfigError(f"unknown moments mode {moments!r}")
    z = _simulate(sampler, n_trials)
    if moments == "analytic":
        return SampleResult(z=z, inp=analytic_input(sampler))
    n_cal = max(1000, n_trials // 10)
    mean_hat, e2_hat = _calibrate(sampler, n_cal, stream_offset=_n_batches(n_trials))
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
    count = n_cal * sampler.k_tasks * _task_shape(sampler)[2]
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


def verify_inequality(sampler: DependentSampler, inequality: str, t_grid,
                      n_trials: int, form: str = "probability",
                      moments: str = "analytic") -> TailReport:
    """Compare empirical tails against one inequality over a t grid.

    form='probability' checks P(Z >= E[Z] + t) (or <= E[Z] - t for the
    lower tail) against the inequality's probability bound at each grid t.
    form='deviation' checks P(Z >= E[Z] + d(t)) against exp(-t), with
    d(t) = sqrt(2 c v t) + 2 c t / 3 and c the constant matching the mode.
    A row is flagged as a violation only when the empirical frequency
    exceeds the bound by more than three Monte Carlo standard errors.
    """
    if inequality not in INEQUALITIES:
        raise ConfigError(f"unknown inequality {inequality!r}; choose from {INEQUALITIES}")
    if form not in ("probability", "deviation"):
        raise ConfigError(f"unknown form {form!r}")
    if not all(math.isfinite(t) and t >= 0 for t in t_grid):
        raise DomainError("t grid entries must be finite and >= 0")

    if inequality == "talagrand":
        z = _simulate(sampler, n_trials, sup_mode=True)
        n_cal = max(1000, n_trials // 10)
        ez = float(_simulate(sampler, n_cal, sup_mode=True,
                             stream_offset=_n_batches(n_trials)).mean())
        inp = _talagrand_input(sampler, ez)
        moments = "plugin"  # E[Z] is estimated, whatever was asked
    else:
        result = sample_Z(sampler, n_trials, moments=moments)
        z, inp = result.z, result.inp
        if not inp.unit_weights and inequality == "bennett_refined":
            raise ModeError("refined mode requires unit cover weights")

    if inequality == "bennett_refined":
        c_dev = conc.refined_bernstein_constant(inp.chi_list)
    else:
        c_dev = conc.general_bernstein_constant(inp.chi_list)

    report = TailReport(
        config=asdict(sampler), inequality=inequality, form=form,
        moments_mode=moments, n_trials=n_trials, t_grid=list(t_grid),
    )
    lower = inequality == "lower_tail"
    for t in t_grid:
        if t == 0.0:
            row = {"t": 0.0, "threshold": inp.EZ, "empirical": 1.0,
                   "stderr": 0.0, "bound": 1.0, "violation": False}
            report.rows.append(row)
            continue
        if form == "probability":
            dev = t
            bound = _bound_at(inequality, inp, t)
        else:
            dev = conc.bernstein_deviation(c_dev, inp.v, t)
            bound = math.exp(-t)
        if lower:
            threshold = inp.EZ - dev
            freq, stderr = empirical_tail(-z, -threshold)
        else:
            threshold = inp.EZ + dev
            freq, stderr = empirical_tail(z, threshold)
        violation = freq - 3.0 * stderr > bound
        report.rows.append({
            "t": float(t), "threshold": float(threshold), "empirical": freq,
            "stderr": stderr, "bound": float(bound), "violation": bool(violation),
        })
    return report


def _talagrand_input(sampler, ez_estimate):
    """Bundle for the supremum process: v = sum w sigma_kj^2 + 2 E[Z].

    The class is scaled into [-1, 1], so b = 1 is its envelope and
    (1 + b) E[Z] + sigma^2 is the Talagrand v with sigma^2 = sum over the
    unit-weight classes of size * sup_f E[f^2]."""
    law = _summand_law(sampler)
    f_second = (law.e2 - law.mean**2) / _sup_amp(law) ** 2  # sup_f E[f^2] per summand
    n_classes, size, _, chi = _task_shape(sampler)
    sigma_sq = 0.0  # sum_kj w_kj sigma_kj^2, block by block: a product moves v by ulps
    for _ in range(sampler.k_tasks * n_classes):
        sigma_sq += size * f_second
    return TailBoundInput(b=1.0, EZ=ez_estimate, sigma_sq=sigma_sq,
                          chi_list=(chi,) * sampler.k_tasks, blocks=None)
