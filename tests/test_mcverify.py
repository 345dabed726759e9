import concurrent.futures
import itertools
import json
import math
import threading
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gdbound import mcverify
from gdbound.concentration import TailBoundInput
from gdbound.errors import ConfigError, DomainError, GdboundError, ModeError
from gdbound.graphdep import DependencyGraph, bipartite_ranking_graph, \
    chromatic_fractional_exact
from gdbound.mcverify import (
    DependentSampler,
    analytic_input,
    empirical_tail,
    sample_Z,
    verify_inequality,
)
from oracles import one_call_task_sums, pair_tensor_calibrate, pair_tensor_simulate, \
    summand_law, task_shape_bundle, task_shape_sup_class


def bipartite(n_pos, n_neg, seed=0, **kw):
    return DependentSampler(structure="bipartite_ranking", n_pos=n_pos,
                            n_neg=n_neg, seed=seed, **kw)


def iid(m, seed=0, **kw):
    return DependentSampler(structure="iid_blocks", m=m, seed=seed, **kw)


class TestSamplerConfig:
    def test_unknown_structure(self):
        with pytest.raises(ConfigError):
            DependentSampler(structure="markov_chain")

    def test_bad_sizes(self):
        with pytest.raises(ConfigError):
            iid(0)
        with pytest.raises(ConfigError):
            bipartite(0, 3)

    def test_bad_base(self):
        with pytest.raises(ConfigError):
            iid(5, base="gaussian")
        with pytest.raises(ConfigError):
            iid(5, base="two_point", base_p=0.0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True])
    def test_bad_seed(self, seed):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            iid(5, seed=seed)


# Hand-derived (mean, e2, lo, hi) of one summand.  The two-point base takes
# 1 with probability 1/4 and 1/2 otherwise: mean 5/8, e2 7/16, var 3/64.
TWO_POINT = dict(base="two_point", base_p=0.25, base_lo=0.5, base_hi=1.0)
SUMMAND_LAWS = {
    ("iid", "uniform", "raw"): (F(1, 2), F(1, 3), 0, 1),
    ("iid", "uniform", "centered"): (0, F(1, 12), F(-1, 2), F(1, 2)),
    ("iid", "two_point", "raw"): (F(5, 8), F(7, 16), F(1, 2), 1),
    ("iid", "two_point", "centered"): (0, F(3, 64), F(-1, 8), F(3, 8)),
    ("bip", "uniform", "product"): (F(1, 4), F(1, 9), 0, 1),
    ("bip", "uniform", "centered_product"): (0, F(1, 144), F(-1, 4), F(1, 4)),
    ("bip", "uniform", "mean"): (F(1, 2), F(7, 24), 0, 1),
    ("bip", "two_point", "product"): (F(25, 64), F(49, 256), F(1, 4), 1),
    ("bip", "two_point", "centered_product"): (0, F(9, 4096), F(-3, 64), F(9, 64)),
    ("bip", "two_point", "mean"): (F(5, 8), F(53, 128), F(1, 2), 1),
}


@pytest.mark.parametrize("structure,base,kernel,centered", itertools.product(
    ("iid", "bip"), ("uniform", "two_point"),
    ("product", "centered_product", "mean"), (False, True)))
def test_summand_law_table(structure, base, kernel, centered):
    # iid summands ignore the kernel; pair variables ignore `centered`
    base_kw = TWO_POINT if base == "two_point" else {}
    if structure == "iid":
        s = iid(4, kernel=kernel, centered=centered, **base_kw)
        key = (structure, base, "centered" if centered else "raw")
    else:
        s = bipartite(3, 2, kernel=kernel, centered=centered, **base_kw)
        key = (structure, base, kernel)
    mean, e2, lo, hi = (float(x) for x in SUMMAND_LAWS[key])
    law = mcverify._summand_law(s)
    assert (law.mean, law.e2, law.lo, law.hi) == pytest.approx(
        (mean, e2, lo, hi), rel=1e-14, abs=1e-15)
    assert analytic_input(s).b == pytest.approx(hi, rel=1e-14)
    assert mcverify._sup_class(s)[0] == pytest.approx(max(hi - mean, mean - lo), rel=1e-14)


class TestSampleZ:
    def test_point_mass_degenerate(self):
        # a two-point base with equal endpoints is a point mass: Z is constant
        s = DependentSampler(structure="iid_blocks", m=1, base="two_point",
                             base_p=0.5, base_lo=0.5, base_hi=0.5, seed=1)
        res = sample_Z(s, 500)
        assert np.all(res.z == 0.5)
        assert res.inp.EZ == pytest.approx(0.5)
        assert res.z.var() == 0.0

    def test_bipartite_product_pair_mean(self):
        # E[u * w] = 1/4 per pair for independent uniforms
        s = bipartite(2, 2, seed=3, kernel="product")
        res = sample_Z(s, 100000)
        n_pairs = 4
        per_pair = res.z.mean() / n_pairs
        stderr = res.z.std(ddof=1) / math.sqrt(res.z.size) / n_pairs
        assert abs(per_pair - 0.25) <= 3.0 * stderr
        assert res.inp.EZ == pytest.approx(1.0)

    def test_seed_determinism(self):
        a = sample_Z(bipartite(3, 2, seed=9), 4096).z
        b = sample_Z(bipartite(3, 2, seed=9), 4096).z
        assert np.array_equal(a, b)
        c = sample_Z(bipartite(3, 2, seed=10), 4096).z
        assert not np.array_equal(a, c)

    def test_batched_equals_unbatched_prefix(self):
        # trial batches use spawned child streams, so a longer run extends
        # a shorter one without changing its prefix
        s = iid(7, seed=5)
        short = sample_Z(s, 1000).z
        long = sample_Z(s, 2000).z
        assert np.array_equal(short, long[:1000])

    def test_analytic_bundle_consistency(self):
        # weighted block v_kj's must reproduce v = (1+b)EZ + sigma^2
        for s in (iid(20, seed=1, base="two_point", base_p=0.3),
                  bipartite(4, 3, seed=2, kernel="centered_product"),
                  bipartite(3, 5, seed=3, kernel="mean", k_tasks=2)):
            inp = analytic_input(s)
            block_sum = sum(w * v for task in inp.blocks for w, v in task)
            assert block_sum == pytest.approx(inp.v, rel=1e-12)
            assert inp.W >= inp.chi_list[0]

    def test_analytic_moments_match_empirical(self):
        for s in (iid(30, seed=6, base="uniform"),
                  iid(30, seed=6, base="uniform", centered=True),
                  bipartite(5, 4, seed=6, kernel="product"),
                  bipartite(5, 4, seed=6, kernel="centered_product",
                            base="two_point", base_p=0.3),
                  bipartite(4, 4, seed=6, kernel="mean", k_tasks=3)):
            res = sample_Z(s, 60000)
            se = res.z.std(ddof=1) / math.sqrt(res.z.size)
            assert abs(res.z.mean() - res.inp.EZ) <= 4.0 * se, s

    def test_plugin_mode_close_to_analytic(self):
        s = bipartite(4, 3, seed=12, kernel="product")
        res_a = sample_Z(s, 20000, moments="analytic")
        res_p = sample_Z(s, 20000, moments="plugin")
        assert res_p.inp != res_a.inp  # the plugin bundle is estimated, not analytic
        assert res_p.inp.EZ == pytest.approx(res_a.inp.EZ, rel=0.05)
        assert res_p.inp.v == pytest.approx(res_a.inp.v, rel=0.05)

    def test_trial_count_validated(self):
        with pytest.raises(DomainError):
            sample_Z(iid(5), 0)


def _classes(cover):
    return sorted((w, len(members)) for members, w in cover.classes)


class TestCover:
    @pytest.mark.parametrize("n_pos,n_neg", [*itertools.product(range(1, 7), repeat=2),
                                             (1, 9), (9, 1), (1, 40), (40, 1)])
    def test_bipartite_task_reads_the_rook_cover(self, n_pos, n_neg):
        cover = bipartite_ranking_graph(n_pos, n_neg)[1]
        assert sorted(mcverify._cover(bipartite(n_pos, n_neg))) == _classes(cover)
        assert mcverify._chi_list(bipartite(n_pos, n_neg, k_tasks=2)) == \
            (cover.total_weight,) * 2

    @pytest.mark.parametrize("m", range(1, 13))
    def test_iid_task_reads_the_edgeless_graphs_cover(self, m):
        chi, cover = chromatic_fractional_exact(DependencyGraph(m, (frozenset(),) * m))
        assert list(mcverify._cover(iid(m))) == _classes(cover) == [(1.0, m)]
        assert mcverify._chi_list(iid(m)) == (chi,)

    @staticmethod
    def outcome(build, *args):
        """The built bundle, or the type and message of what refused it."""
        try:
            return build(*args)
        except GdboundError as exc:
            return type(exc), str(exc)

    FLOATS = st.floats(allow_nan=False, allow_infinity=False)
    SAMPLERS = st.builds(
        lambda shape, base, kernel, centered, k_tasks: DependentSampler(
            **shape, **base, kernel=kernel, centered=centered, k_tasks=k_tasks),
        st.one_of(st.integers(1, 10**4).map(lambda m: dict(structure="iid_blocks", m=m)),
                  st.tuples(st.integers(1, 300), st.integers(1, 300)).map(
                      lambda s: dict(structure="bipartite_ranking", n_pos=s[0], n_neg=s[1]))),
        st.one_of(st.just({}), st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                                         st.floats(1e-9, 1.0, exclude_max=True)).map(
            lambda b: dict(base="two_point", base_lo=min(b[:2]), base_hi=max(b[:2]),
                           base_p=b[2]))),
        st.sampled_from(("product", "centered_product", "mean")), st.booleans(),
        st.integers(1, 4))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(sampler=SAMPLERS, moments=st.one_of(st.none(), st.tuples(FLOATS, FLOATS)))
    def test_bundles_equal_the_task_shape_bundles(self, sampler, moments):
        # analytic moments, or any (mean, e2) a calibration run could give
        law = mcverify._summand_law(sampler)
        mean, e2 = (law.mean, law.e2) if moments is None else moments
        assert self.outcome(mcverify._bundle, sampler, mean, e2) == \
            self.outcome(task_shape_bundle, sampler, mean, e2)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(sampler=SAMPLERS)
    def test_sup_class_equals_the_task_shape_class(self, sampler):
        # amp, shift and sigma^2 bit for bit, or the same refusal
        law = mcverify._summand_law(sampler)
        assert (law.mean, law.e2, law.lo, law.hi) == summand_law(sampler)
        assert self.outcome(mcverify._sup_class, sampler) == \
            self.outcome(task_shape_sup_class, sampler)


BASES = {
    "uniform": {},
    "two_point_01": dict(base="two_point", base_p=0.3, base_lo=0.0, base_hi=1.0),
    "two_point_27": dict(base="two_point", base_p=0.4, base_lo=0.2, base_hi=0.7),
    "point_mass": dict(base="two_point", base_p=0.5, base_lo=0.5, base_hi=0.5),
}


@pytest.mark.parametrize("structure,base,kernel,centered,k_tasks,trials", itertools.product(
    ("iid", "bip"), BASES, ("product", "centered_product", "mean"), (False, True),
    (1, 3), (257, mcverify.BATCH + 3)))
def test_task_sums_match_pair_tensor_oracle(structure, base, kernel, centered,
                                            k_tasks, trials):
    # iid summands ignore the kernel; pair variables ignore `centered`
    kw = dict(kernel=kernel, centered=centered, k_tasks=k_tasks, seed=41, **BASES[base])
    s = iid(5, **kw) if structure == "iid" else bipartite(4, 3, **kw)
    law = mcverify._summand_law(s)
    # cancellation in centered sums: absolute error on the scale of |Z|'s range
    n_summands = mcverify._n_summands(mcverify._cover(s))
    scale = k_tasks * n_summands * max(abs(law.lo), abs(law.hi))
    z = mcverify._simulate(s, trials)
    ref = pair_tensor_simulate(s, trials)
    if structure == "iid":
        assert np.array_equal(z, ref)
    np.testing.assert_allclose(z, ref, rtol=1e-12, atol=1e-12 * scale)

    if law.hi == law.lo:
        with pytest.raises(ModeError):
            mcverify._sup_class(s)
    else:
        sup_class = mcverify._sup_class(s)
        sup = mcverify._simulate(s, trials, sup_class, stream_offset=2)
        sup_ref = pair_tensor_simulate(s, trials, sup_mode=True, stream_offset=2)
        np.testing.assert_allclose(sup, sup_ref, rtol=1e-12,
                                   atol=1e-12 * scale / sup_class[0])

    moments = mcverify._calibrate(s, trials, stream_offset=1)
    moments_ref = pair_tensor_calibrate(s, trials, stream_offset=1)
    np.testing.assert_allclose(moments, moments_ref, rtol=1e-12,
                               atol=1e-12 * max(abs(law.lo), abs(law.hi)) ** 2)


def test_lattice_task_sums_tie_exactly():
    # On a {0, 1} base a centered-product task sum depends on the draws only
    # through (sum u, sum w), so Z takes at most (n_pos + 1)(n_neg + 1) values
    s = bipartite(6, 5, seed=16, base="two_point", base_p=0.3,
                  kernel="centered_product")
    assert np.unique(mcverify._simulate(s, 20000)).size <= 7 * 6


class TestBlockDraws:
    """`_draw_task_sums` draws each side in row blocks; its task sums must
    be those of one `random_raw` call per side."""

    @pytest.mark.parametrize("skip, n", [(0, 1), (0, 700), (3, 5), (700, 1), (699, 301)])
    def test_advanced_generator_continues_the_stream(self, skip, n):
        seq = np.random.SeedSequence(41, spawn_key=(3,))
        one_call = np.random.PCG64(seq)
        expected = one_call.random_raw(skip + n)[skip:]
        advanced = np.random.PCG64(seq).advance(skip)
        message = ("numpy's PCG64.advance no longer skips raw words, or a '<u4' view no "
                   "longer puts each word's low half first; the half-word draws of "
                   "mcverify._side_sums and their tests rely on both")
        got = advanced.random_raw(n)
        assert got.tobytes() == expected.tobytes(), message
        assert advanced.state == one_call.state, message
        halves = got.astype("<u8", copy=False).view("<u4")
        assert np.array_equal(halves[0::2], got & 0xFFFFFFFF), message
        assert np.array_equal(halves[1::2], got >> 32), message

    SAMPLERS = {
        "iid-uniform": lambda: iid(5, k_tasks=2),
        "iid-uniform-centered": lambda: iid(5, k_tasks=2, centered=True),
        "iid-two-point-centered": lambda: iid(5, k_tasks=2, centered=True,
                                              **BASES["two_point_27"]),
        "iid-wide-two-point": lambda: iid(40, k_tasks=2, **BASES["two_point_01"]),
        "iid-odd-uniform-centered": lambda: iid(7, k_tasks=3, centered=True),
        "bip-odd-uniform-mean": lambda: bipartite(5, 31, k_tasks=3, kernel="mean"),
        **{f"bip-{base}-{kernel}": (lambda base=base, kernel=kernel: bipartite(
            4, 30, k_tasks=2, kernel=kernel, **BASES[base]))
           for base in ("uniform", "two_point_27")
           for kernel in ("product", "centered_product", "mean")},
    }

    @pytest.mark.parametrize("draw_bytes", [8, 200, mcverify._DRAW_BYTES])
    @pytest.mark.parametrize("squares", [False, True])
    @pytest.mark.parametrize("name", SAMPLERS)
    def test_blocked_sums_equal_one_call_draw(self, monkeypatch, name, squares, draw_bytes):
        # 8-byte blocks hold the least rows a block may: one, or two rows
        # of an odd uniform width.  200-byte blocks: a few rows of 4, 5 or
        # 7 draws (37 trials x 2 or 3 tasks end in a partial block; every
        # other row of 7 starts mid-word), and one or two rows of 30 to 40
        # draws, which exceed a block; default blocks hold each side whole.
        # The 555 u draws of bip-odd leave its last u word half used.
        monkeypatch.setattr(mcverify, "_DRAW_BYTES", draw_bytes)
        s = self.SAMPLERS[name]()
        base_mean = mcverify._base_law(s).mean
        seq = np.random.SeedSequence(7, spawn_key=(2,))
        sums, sq = mcverify._draw_task_sums(seq, s, base_mean, 37, squares)
        ref_sums, ref_sq = one_call_task_sums(np.random.PCG64(seq), s, base_mean, 37,
                                              squares)
        assert sums.tobytes() == ref_sums.tobytes()
        if squares:
            assert sq.tobytes() == ref_sq.tobytes()
        else:
            assert sq is None and ref_sq is None

    @pytest.mark.parametrize("name", ["iid-odd-uniform-centered", "bip-odd-uniform-mean",
                                      "bip-two_point_27-centered_product"])
    def test_report_bytes_do_not_depend_on_block_size(self, monkeypatch, name):
        reports = set()
        for draw_bytes in (8, 200, mcverify._DRAW_BYTES):
            monkeypatch.setattr(mcverify, "_DRAW_BYTES", draw_bytes)
            report = verify_inequality(self.SAMPLERS[name](), "bennett_general", [0.5, 2.0],
                                       3000, moments="plugin")
            reports.add(json.dumps(report.as_dict()))
        assert len(reports) == 1


class TestDrawLaw:
    """The base law `_side_sums` draws, computed here from the raw words."""

    @pytest.mark.parametrize("draw_bytes", [8, 200, mcverify._DRAW_BYTES])
    @pytest.mark.parametrize("width, word", [(1, 0), (5, 3), (7, 0), (8, 1), (31, 2)])
    def test_uniform_row_sums_are_the_exact_half_word_sums(self, monkeypatch, width, word,
                                                           draw_bytes):
        # (sum of the row's uint32 halves + width / 2) 2^-32, in Python ints,
        # over one- or two-row blocks, blocks of a few rows and one block
        monkeypatch.setattr(mcverify, "_DRAW_BYTES", draw_bytes)
        seq = np.random.SeedSequence(5, spawn_key=(width,))
        shape = (37, 3)
        sums, _ = mcverify._side_sums(np.random.PCG64(seq).advance(word), iid(width),
                                      shape, width)
        n = math.prod(shape) * width
        words = np.random.PCG64(seq).advance(word).random_raw((n + 1) // 2).tolist()
        halves = [h for w in words for h in (w & 0xFFFFFFFF, w >> 32)]
        want = [float((F(sum(halves[r * width:(r + 1) * width])) + F(width, 2)) / 2**32)
                for r in range(math.prod(shape))]
        assert sums.ravel().tolist() == want

    @pytest.mark.parametrize("width", range(1, 41))
    def test_row_sums_are_python_int_sums_at_every_width(self, monkeypatch, width):
        # both row-sum paths (column by column below _COLUMN_SUM_WIDTH, one
        # row sum above it), over blocks of a few rows: the uniform halves k
        # and the two-point hit counts B summed in Python ints
        assert mcverify._COLUMN_SUM_WIDTH in range(2, 41)
        monkeypatch.setattr(mcverify, "_DRAW_BYTES", 40 * 9 * 3)
        seq = np.random.SeedSequence(8, spawn_key=(width,))
        shape = (23,)
        n = shape[0] * width
        sums, _ = mcverify._side_sums(np.random.PCG64(seq).advance(1), iid(width),
                                      shape, width)
        words = np.random.PCG64(seq).advance(1).random_raw((n + 1) // 2).tolist()
        halves = [h for w in words for h in (w & 0xFFFFFFFF, w >> 32)]
        want = [float((F(sum(halves[r * width:(r + 1) * width])) + F(width, 2)) / 2**32)
                for r in range(shape[0])]
        assert sums.tolist() == want
        s = iid(width, base="two_point", base_p=0.3)
        hits, _ = mcverify._side_sums(np.random.PCG64(seq), s, shape, width)
        below = math.ceil(0.3 * 2.0**53) << 11
        flags = [w < below for w in np.random.PCG64(seq).random_raw(n).tolist()]
        counts = [sum(flags[r * width:(r + 1) * width]) for r in range(shape[0])]
        lo, hi = s.base_lo, s.base_hi
        assert hits.tolist() == [c * (hi - lo) + lo * width for c in counts]

    def test_base_law_is_the_grid_law(self):
        # draws (k + 1/2) 2^-32, k = 0 .. 2^32 - 1: mean 1/2 and second moment
        # (sum of (k + 1/2)^2) / 2^96 = 1/3 - 2^-64 / 12
        n = 2**32
        mean = F(n * n, 2) / n**2
        e2 = F((n - 1) * n * (2 * n - 1), 6) + F(n * (n - 1), 2) + F(n, 4)
        e2 /= n**3
        assert mean == F(1, 2) and e2 == F(1, 3) - F(1, 12 * 2**64)
        law = mcverify._base_law(iid(1))
        assert (law.mean, law.e2, law.lo, law.hi) == (float(mean), float(e2), 0.0, 1.0)

    @pytest.mark.parametrize("draw_bytes", [8 * 4096, mcverify._DRAW_BYTES])
    @pytest.mark.parametrize("p", [0.3, 0.4, 1e-9, 1.0 - 2.0**-53])
    def test_two_point_draws_are_random_below_p(self, monkeypatch, p, draw_bytes):
        # 13 blocks of 4096 draws, or the whole side in one block
        monkeypatch.setattr(mcverify, "_DRAW_BYTES", draw_bytes)
        seq = np.random.SeedSequence(9, spawn_key=(1,))
        s = iid(1, base="two_point", base_p=p)
        hits, _ = mcverify._side_sums(np.random.PCG64(seq), s, (50_000,), 1)
        want = np.random.default_rng(seq).random(50_000) < p
        assert hits.tobytes() == want.astype(float).tobytes()


def test_iid_batch_memory_stays_small():
    # One (BATCH, 3, 200) draw array would take 315 MB; blocks of about
    # 1 MiB keep the whole call near the size of its outputs.
    threads = threading.active_count()
    tracemalloc.start()
    try:
        mcverify._simulate(iid(200, k_tasks=3), mcverify.BATCH + 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert threading.active_count() == threads


def test_verify_starts_no_thread(monkeypatch):
    # perfbench's bip60x50 case: the 60-draw u side of one batch spans 15
    # blocks of _DRAW_BYTES, at least two blocks per core on up to 7 cores
    def refuse(*args, **kwargs):
        raise AssertionError("verify started a thread")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    s = bipartite(60, 50, seed=3)
    assert mcverify.BATCH * 60 * 4 == 15 * mcverify._DRAW_BYTES
    report = verify_inequality(s, "bennett_general", [0.5, 2.0], 100_000)
    assert report.n_trials == 100_000 and not report.violations


class TestEmpiricalTail:
    def test_half(self):
        freq, stderr = empirical_tail([1, 2, 3, 4], 2.5)
        assert freq == 0.5
        assert stderr == pytest.approx(math.sqrt(0.25 / 4))

    def test_none_above(self):
        assert empirical_tail([1, 1, 1], 2)[0] == 0.0

    def test_all_above_inclusive(self):
        assert empirical_tail([0, 1], 0)[0] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            empirical_tail([], 0.0)


class TestVerifyInequality:
    def test_refined_classical_iid_no_violations(self):
        report = verify_inequality(iid(50, seed=21), "bennett_refined",
                                   [0.5, 1.0, 2.0], 100000)
        assert report.violations == []

    def test_bipartite_general_no_violations(self):
        report = verify_inequality(bipartite(5, 4, seed=22), "bennett_general",
                                   [0.5, 1.0, 2.0, 4.0], 100000)
        assert report.violations == []

    @pytest.mark.parametrize("inequality, form", [
        ("bennett_general", "probability"), ("lower_tail", "probability"),
        ("bennett_general", "deviation"), ("talagrand", "probability")])
    def test_t_zero_row_is_measured(self, inequality, form):
        # threshold E[Z], bound 1, and the frequency measured on the same draws
        n = 10000
        if inequality == "talagrand":
            sampler = bipartite(4, 3, seed=30)
            sup_class = mcverify._sup_class(sampler)
            z = mcverify._simulate(sampler, n, sup_class)
            n_cal, offset = mcverify._calibration_run(n)
            ez = float(mcverify._simulate(sampler, n_cal, sup_class,
                                          stream_offset=offset).mean())
        else:
            sampler = iid(10, seed=1)
            z, ez = sample_Z(sampler, n).z, analytic_input(sampler).EZ
        report = verify_inequality(sampler, inequality, [0.0, 1.0], n, form=form)
        freq, stderr = empirical_tail(-z, -ez) if inequality == "lower_tail" \
            else empirical_tail(z, ez)
        assert report.rows[0] == {"t": 0.0, "threshold": ez, "empirical": freq,
                                  "stderr": stderr, "bound": 1.0, "violation": False}
        assert 0.0 < freq < 1.0 and stderr > 0.0

    def test_lower_tail_thresholds_below_mean(self):
        report = verify_inequality(bipartite(3, 3, seed=4), "lower_tail",
                                   [0.5, 1.0], 20000)
        for row in report.rows:
            assert row["threshold"] < 2.25  # EZ = 9/4

    def test_deviation_form_uses_exp_minus_t(self):
        report = verify_inequality(iid(40, seed=2), "bennett_general",
                                   [0.5, 1.0], 20000, form="deviation")
        for row in report.rows:
            assert row["bound"] == pytest.approx(math.exp(-row["t"]))
            assert not row["violation"]

    def test_talagrand_no_violations(self):
        report = verify_inequality(bipartite(4, 3, seed=30), "talagrand",
                                   [0.5, 1.0, 2.0], 50000)
        assert report.moments_mode == "plugin"
        assert report.violations == []

    def test_unknown_inequality(self):
        with pytest.raises(ConfigError):
            verify_inequality(iid(5), "hoeffding", [1.0], 100)

    def test_negative_t_rejected(self):
        with pytest.raises(DomainError):
            verify_inequality(iid(5), "bennett_general", [-1.0], 100)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_t_rejected(self, bad):
        with pytest.raises(DomainError):
            verify_inequality(iid(5), "bennett_general", [1.0, bad], 100)

    def test_report_deterministic_bytes(self):
        a = json.dumps(verify_inequality(bipartite(3, 2, seed=5), "bennett_general",
                                         [1.0, 2.0], 30000).as_dict(), indent=2)
        b = json.dumps(verify_inequality(bipartite(3, 2, seed=5), "bennett_general",
                                         [1.0, 2.0], 30000).as_dict(), indent=2)
        assert a == b
        parsed = json.loads(a)
        assert parsed["config"]["seed"] == 5

    def test_table_renders(self):
        report = verify_inequality(iid(10, seed=1), "bennett_refined",
                                   [1.0], 5000)
        table = report.to_table()
        assert "threshold" in table and "viol" in table


def halve_v(monkeypatch):
    """Fault injection: the analytic bundle reports half its true v, with
    sigma^2 and every block v_kj rescaled so the bundle stays consistent."""
    honest = mcverify.analytic_input

    def broken(sampler):
        inp = honest(sampler)
        half = inp.v / 2.0
        return TailBoundInput(
            b=inp.b, EZ=inp.EZ, sigma_sq=half - (1.0 + inp.b) * inp.EZ,
            chi_list=inp.chi_list,
            blocks=tuple(tuple((w, vk * 0.5) for w, vk in task) for task in inp.blocks))

    monkeypatch.setattr(mcverify, "analytic_input", broken)


class TestBrokenBoundDetection:
    def test_halved_v_flagged_where_bound_is_tight(self, monkeypatch):
        # The refined bound on a centered two-point iid block (W = 1) is
        # exponent-tight in the Gaussian regime, so halving v is detectable.
        s = iid(200, seed=11, base="two_point", base_p=0.5, centered=True)
        honest = verify_inequality(s, "bennett_refined", [15.0, 20.0, 25.0],
                                   100000)
        assert honest.violations == []
        halve_v(monkeypatch)
        broken = verify_inequality(s, "bennett_refined", [15.0, 20.0, 25.0],
                                   100000)
        assert len(broken.violations) >= 1

    def test_halved_v_not_detectable_on_loose_bipartite_bound(self, monkeypatch):
        # For bipartite(5,4) the probability bound is conservative by a
        # factor that halving v cannot overcome at any observable t; the
        # harness correctly reports no violations rather than false alarms.
        s = bipartite(5, 4, seed=11, kernel="centered_product")
        halve_v(monkeypatch)
        broken = verify_inequality(s, "bennett_general",
                                   [0.1, 0.25, 0.5, 1.0, 2.0, 4.0], 100000)
        assert broken.violations == []

    def test_no_violations_across_seeded_configs(self):
        # smaller-n companion of the acceptance sweep
        configs = [
            iid(25, seed=101),
            iid(25, seed=102, base="two_point", base_p=0.25),
            bipartite(3, 2, seed=103, kernel="product"),
            bipartite(2, 3, seed=104, kernel="mean"),
            bipartite(3, 3, seed=105, kernel="centered_product", k_tasks=2),
        ]
        for s in configs:
            for ineq in ("bennett_general", "bennett_refined", "lower_tail"):
                report = verify_inequality(s, ineq, [0.25, 1.0, 4.0], 20000)
                assert report.violations == [], (s, ineq)
