import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gdbound import bounds
from gdbound.bounds import (
    BoundParams,
    SpectrumProfile,
    bound_kernel_macroauc,
    bound_ours_macroauc,
    bound_prior_macroauc,
    excess_bound_general,
    rstar_kernel,
    rstar_linear,
    spectrum_from_gram,
    spectrum_from_weights,
)
from gdbound.errors import DomainError, GdboundError, InvariantError

from oracles import (
    brute_force_rstar_kernel,
    brute_force_rstar_linear,
    charpoly_eigenvalues,
    dense_residual_spectrum_from_gram,
    eigvalsh_spectrum_from_gram,
    mp_bound_kernel,
    mp_bound_ours,
    mp_bound_prior,
    mp_excess_general,
    mp_rstar_kernel,
    mp_rstar_linear,
)

LN100 = math.log(100.0)
EPS = np.finfo(float).eps


def pair_features(rng, n_pos, n_neg, dim):
    """Rows x_p - x_q of one pair-transformed task, one per (positive,
    negative) pair: their Gram has rank at most min(dim, n_pos + n_neg - 1)."""
    pos = rng.normal(size=(n_pos, dim))
    neg = rng.normal(size=(n_neg, dim))
    return (pos[:, None, :] - neg[None, :, :]).reshape(n_pos * n_neg, dim)


@st.composite
def drawn_grams(draw, max_rows=120):
    """(A A', s): m <= max_rows rows of any rank, some of them zero and some
    repeated, and a scale exponent s; the Gram to test is A A' 4^s.  Column
    scales down to 10^-spread put some eigenvalues near the rank cut-off."""
    m = draw(st.integers(1, max_rows))
    rank = draw(st.one_of(st.integers(0, m // 8), st.integers(0, m)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([0.0, 4.0, 10.0]))
    A = rng.normal(size=(m, rank)) * 10.0 ** -rng.uniform(0.0, spread, rank)
    A[rng.choice(m, draw(st.integers(0, m // 4)), replace=False)] = 0.0
    repeats = draw(st.integers(0, m // 4))
    A[rng.integers(0, m, repeats)] = A[rng.integers(0, m, repeats)]
    return A @ A.T, draw(st.integers(-100, 100))


# fixed before the assemblies were merged: 1e-13 relative, or one smallest
# normal times it where the exact value is subnormal or 0
ORACLE_REL_TOL = 1e-13
# log-uniform on [1e-300, 1e300]
WIDE = st.integers(-300 * 2**20, 300 * 2**20).map(lambda e: 10.0 ** (e / 2**20))
WIDE_OR_ZERO = st.integers(0, 9).flatmap(lambda i: WIDE if i else st.just(0.0))


@st.composite
def pair_inputs(draw):
    """(tau_list, n~) as a dataset gives them: n~ >= 2 rows (at most 1e150,
    so that m_k = n~^2 tau_k (1 - tau_k) is finite) and tau_k in [1/n~, 1/2]."""
    n = 10.0 ** draw(st.floats(math.log10(2.0), 150.0))
    lo, hi = math.log(1.0 / n), math.log(0.5)
    us = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    return [min(0.5, max(1.0 / n, math.exp(lo + u * (hi - lo)))) for u in us], n


def assert_near_oracle(name, call, exact):
    """call() lies within ORACLE_REL_TOL of exact, or raises the DomainError
    of the entry point name because its float arithmetic overflows."""
    try:
        got = call()
    except DomainError as exc:
        assert str(exc).startswith(f"{name} must be finite"), exc
        return
    assert abs(got - exact) <= ORACLE_REL_TOL * max(exact, sys.float_info.min), (got, exact)


DEFECTS = ["asymmetric", "negative diagonal", "indefinite block", "inf", "-inf", "nan",
           "inf diagonal", "one-sided inf"]


def with_defect(G, place, defect):
    """G with one defect written at entry (i, j) = (place % m, place // m % m)."""
    m = len(G)
    i, j = place % m, place // m % m
    big = 1.0 + np.abs(G).max()
    if defect in ("asymmetric", "indefinite block", "one-sided inf"):
        assume(i != j)
    if defect == "asymmetric":
        G[i, j] += big
    elif defect == "negative diagonal":
        G[i, i] = -big
    elif defect == "inf diagonal":
        G[i, i] = math.inf
    elif defect == "one-sided inf":
        G[i, j] = math.inf
    elif defect == "indefinite block":  # zero diagonal, [[0, big], [big, 0]]
        G[[i, j]] = 0.0
        G[:, [i, j]] = 0.0
        G[i, j] = G[j, i] = big
    else:
        G[i, j] = G[j, i] = float(defect)
    return G


def certify_gram():
    """The certify task's Gram: 22 x 22 pairs of 72 features, rank 43 of 484 rows."""
    X = pair_features(np.random.default_rng(1), 22, 22, 72)
    return X @ X.T


def spread_gram(m):
    """m A for A = e1 e1' + lam v v', lam = 10 m eps, v spread over rows
    2..m: every residual diagonal lam / (m - 1) lies below the pivot
    threshold m eps."""
    lam = 10 * m * EPS
    v = np.r_[0.0, np.full(m - 1, 1.0 / math.sqrt(m - 1))]
    return m * (np.outer(np.eye(m)[0], np.eye(m)[0]) + lam * np.outer(v, v))


def indefinite_gram():
    G = np.zeros((16, 16))
    G[3, 9] = G[9, 3] = 1.0
    return G


def close_one_way_gram(lower):
    """A 2 x 2 Gram whose off-diagonal pair is close within 1e-8 + 1e-5 |y|
    as isclose(x, y) but not as isclose(y, x): refused, as allclose(G, G')
    reads both; lower puts the larger entry below the diagonal."""
    big = 1.0 + 1.001005e-5
    G = np.array([[2.0, 1.0], [1.0, 2.0]])
    G[(1, 0) if lower else (0, 1)] = big
    return G


def rbf_gram(m):
    Z = np.random.default_rng(2).normal(size=(m, 5))
    return np.exp(-0.5 * ((Z[:, None, :] - Z[None, :, :]) ** 2).sum(axis=2))


def outcome(fn, G):
    """fn's spectrum as bytes, or the type and message of its GdboundError."""
    try:
        return fn(G).values.tobytes()
    except GdboundError as exc:
        return type(exc), str(exc).replace(fn.__name__, spectrum_from_gram.__name__)


def assert_as_dense_residual_oracle(G, rows):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounds, "_ROWS", rows)
        got = outcome(spectrum_from_gram, G)
    assert got == outcome(dense_residual_spectrum_from_gram, G)


# one row, a few rows (484 = 69 * 7 + 1 ends in a one-row block) and the default
BLOCK_ROWS = [1, 7, bounds._ROWS]


class TestSpectrumFromGram:
    def test_identity(self):
        m = 6
        spec = spectrum_from_gram(np.eye(m))
        assert np.allclose(spec.values, np.full(m, 1.0 / m), atol=1e-14)

    def test_rank_one(self):
        m = 5
        x = np.full(m, 1.0)  # ||x||^2 = m
        spec = spectrum_from_gram(np.outer(x, x))
        assert spec.values[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(spec.values[1:], 0.0, atol=1e-12)

    def test_against_charpoly_roots(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            A = rng.normal(size=(5, 5))
            G = A @ A.T
            spec = spectrum_from_gram(G)
            oracle = charpoly_eigenvalues(G / 5.0)
            assert np.allclose(spec.values, np.clip(oracle, 0, None), atol=1e-8)

    def test_asymmetric_rejected(self):
        G = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(DomainError):
            spectrum_from_gram(G)

    def test_huge_asymmetric_rejected_as_asymmetric(self):
        # G - G' overflows inside the symmetry check
        G = np.array([[0.0, 1e308], [-1e308, 0.0]])
        with pytest.raises(DomainError, match="^Gram matrix must be symmetric within 1e-8$"):
            spectrum_from_gram(G)

    def test_non_psd_rejected(self):
        G = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(DomainError):
            spectrum_from_gram(G)

    def test_small_negatives_clamped(self):
        G = np.diag([1.0, -1e-10])
        spec = spectrum_from_gram(G)
        assert (spec.values >= 0.0).all()

    @pytest.mark.parametrize("n_pos, n_neg, dim, scale", [
        (22, 22, 72, 1e4), (22, 22, 72, 1e8), (3, 4, 5, 1e4), (3, 4, 5, 1e8)])
    def test_large_psd_gram_accepted(self, n_pos, n_neg, dim, scale):
        # roundoff leaves eigenvalues near -1e-16 lambda_max, far below -1e-8 here
        X = pair_features(np.random.default_rng(0), n_pos, n_neg, dim)
        small = spectrum_from_gram(X @ X.T).values
        big = spectrum_from_gram((X * scale) @ (X * scale).T).values
        assert np.abs(big / scale**2 - small).max() <= 1e-12 * small[0]

    @pytest.fixture
    def eigvalsh_shapes(self, monkeypatch):
        """The shape of every matrix np.linalg.eigvalsh decomposes."""
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        return shapes

    def test_pair_gram_decomposes_its_rank(self, eigvalsh_shapes):
        spec = spectrum_from_gram(certify_gram())
        assert eigvalsh_shapes == [(43, 43)]
        assert spec.values.shape == (484,)
        assert (spec.values[43:] == 0.0).all() and spec.values[42] > 0.0

    def test_full_rank_gram_falls_back(self, eigvalsh_shapes):
        spectrum_from_gram(rbf_gram(120))
        assert eigvalsh_shapes == [(120, 120)]

    def test_indefinite_block_falls_back_and_is_refused(self, eigvalsh_shapes):
        with pytest.raises(DomainError, match="^Gram matrix not PSD: eigenvalue -0.0625$"):
            spectrum_from_gram(indefinite_gram())
        assert eigvalsh_shapes == [(16, 16)]

    @pytest.mark.parametrize("m, shape", [(m, (m, m)) for m in range(1, 8)] + [(8, (1, 1))])
    def test_gram_below_the_cap_is_not_factored(self, m, shape, eigvalsh_shapes):
        spectrum_from_gram(np.ones((m, m)))  # rank 1; the cap is m // 8 pivots
        assert eigvalsh_shapes == [shape]

    @pytest.mark.parametrize("m", [16, 64, 120])
    def test_an_eigenvalue_spread_below_the_pivot_threshold_is_kept(self, m):
        # lam = 10 m eps is ten times the accuracy the spectrum promises
        got = spectrum_from_gram(spread_gram(m)).values
        assert np.abs(got - eigvalsh_spectrum_from_gram(spread_gram(m)).values).max() <= m * EPS
        assert got[1] == pytest.approx(10 * m * EPS, rel=0.1)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(drawn=drawn_grams())
    def test_matches_the_eigvalsh_oracle(self, drawn):
        G, s = drawn
        m = len(G)
        want = eigvalsh_spectrum_from_gram(G * 4.0**s).values
        got = spectrum_from_gram(G * 4.0**s).values
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= m * EPS * want[0]
        for other in (-100, 0, 100):  # a PSD Gram is accepted at every scale
            spectrum_from_gram(G * 4.0**other)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(drawn=drawn_grams(), place=st.integers(0, 2**16), defect=st.sampled_from(DEFECTS))
    def test_bad_input_raises_as_the_oracle_does(self, drawn, place, defect):
        G, s = drawn
        G = with_defect(G * 4.0**s, place, defect)
        # a non-finite entry is refused before any decomposition
        with pytest.raises(DomainError) as want:
            eigvalsh_spectrum_from_gram(G)
        with pytest.raises(DomainError) as got:
            spectrum_from_gram(G)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value).replace(
            eigvalsh_spectrum_from_gram.__name__, spectrum_from_gram.__name__)

    @pytest.mark.parametrize("rows", BLOCK_ROWS)
    @pytest.mark.parametrize("name, gram", [
        ("certify pair Gram", certify_gram),
        ("full rank", lambda: rbf_gram(120)),
        ("indefinite block", indefinite_gram),
        ("close one way, larger entry below", lambda: close_one_way_gram(True)),
        ("close one way, larger entry above", lambda: close_one_way_gram(False)),
        *[(f"spread below the pivot threshold, m = {m}", lambda m=m: spread_gram(m))
          for m in (16, 64, 120)],
        *[(f"ones, m = {m}", lambda m=m: np.ones((m, m))) for m in (7, 8, 130)],
    ])
    def test_row_blocks_give_the_dense_residual_bytes(self, rows, name, gram):
        assert_as_dense_residual_oracle(gram(), rows)

    @pytest.mark.parametrize("rows", BLOCK_ROWS)
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(drawn=drawn_grams(max_rows=200), place=st.integers(0, 2**16),
           defect=st.sampled_from([None, *DEFECTS]))
    def test_drawn_row_blocks_give_the_dense_residual_bytes(self, rows, drawn, place, defect):
        G, s = drawn
        G = G * 4.0**s
        assert_as_dense_residual_oracle(G if defect is None else with_defect(G, place, defect),
                                        rows)

    def test_peak_memory_stays_below_one_gram(self):
        G = certify_gram()
        tracemalloc.start()
        try:
            spectrum_from_gram(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < G.nbytes  # 484 x 484 float64: 1.87e6 bytes


class TestSpectrumFromWeights:
    def test_diagonal(self):
        spec = spectrum_from_weights(np.diag([3.0, 2.0]))
        assert np.allclose(spec.values, [9.0, 4.0], atol=1e-12)

    def test_zero_matrix(self):
        spec = spectrum_from_weights(np.zeros((3, 4)))
        assert np.allclose(spec.values, 0.0)

    def test_matches_gram_eigenvalues(self):
        rng = np.random.default_rng(8)
        T = rng.normal(size=(3, 4))
        spec = spectrum_from_weights(T)
        oracle = np.sort(np.linalg.eigvalsh(T @ T.T))[::-1]
        assert np.allclose(spec.values, oracle, atol=1e-10)

    def test_sorted_invariant_enforced(self):
        with pytest.raises(InvariantError):
            SpectrumProfile(values=np.array([0.1, 0.5]))


class TestRstarKernel:
    def test_worked_example(self):
        # chi=1, m=100, spectrum (0.5, 0.25): candidates
        # d=0: sqrt(0.0075), d=1: 0.01+sqrt(0.0025), d=2: 0.02
        spec = SpectrumProfile(values=np.array([0.5, 0.25]))
        params = BoundParams(K=1, m_list=(100.0,), chi_list=(1.0,))
        r_star, cuts = rstar_kernel([spec], params)
        assert cuts == [2]
        assert r_star == pytest.approx(0.02, abs=1e-15)
        # frozen intermediate candidates
        assert math.sqrt(0.0075) == pytest.approx(0.08660254037844387, rel=1e-12)
        assert 0.01 + math.sqrt(0.0025) == pytest.approx(0.06, rel=1e-12)

    def test_zero_spectrum(self):
        spec = SpectrumProfile(values=np.zeros(4))
        params = BoundParams(K=1, m_list=(50.0,), chi_list=(1.0,))
        r_star, cuts = rstar_kernel([spec], params)
        assert r_star == 0.0 and cuts == [0]

    def test_rank_limited_halves_with_doubled_m(self):
        spec = SpectrumProfile(values=np.array([0.5, 0.25]))
        p1 = BoundParams(K=1, m_list=(100.0,), chi_list=(1.0,))
        p2 = BoundParams(K=1, m_list=(200.0,), chi_list=(1.0,))
        r1, _ = rstar_kernel([spec], p1)
        r2, _ = rstar_kernel([spec], p2)
        assert r2 == pytest.approx(r1 / 2.0, rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            K = int(rng.integers(1, 4))
            spectra, chis, ms = [], [], []
            for _ in range(K):
                vals = np.sort(rng.uniform(0, 1, size=int(rng.integers(1, 9))))[::-1]
                spectra.append(SpectrumProfile(values=vals))
                chis.append(float(rng.uniform(1, 6)))
                ms.append(float(rng.uniform(10, 1e5)))
            m_tilde = float(rng.uniform(0.1, 4))
            params = BoundParams(K=K, m_list=tuple(ms), chi_list=tuple(chis),
                                 m_tilde=m_tilde)
            got, cuts = rstar_kernel(spectra, params)
            want, want_cuts = brute_force_rstar_kernel(
                [list(s.values) for s in spectra], chis, ms, m_tilde, K)
            assert got == pytest.approx(want, rel=1e-12)
            assert cuts == want_cuts

    def test_monotone_in_m_and_m_tilde(self):
        spec = SpectrumProfile(values=np.array([0.9, 0.4, 0.1, 0.02]))
        base = dict(K=1, chi_list=(2.0,))
        vals_m = [rstar_kernel([spec], BoundParams(m_list=(m,), **base))[0]
                  for m in (10.0, 100.0, 1000.0, 10000.0)]
        assert all(b <= a + 1e-15 for a, b in zip(vals_m, vals_m[1:]))
        vals_M = [rstar_kernel([spec], BoundParams(m_list=(100.0,),
                                                   m_tilde=mt, **base))[0]
                  for mt in (0.1, 0.5, 1.0, 5.0)]
        assert all(b >= a - 1e-15 for a, b in zip(vals_M, vals_M[1:]))


class TestRstarLinear:
    def test_worked_example(self):
        spec = SpectrumProfile(values=np.array([0.5, 0.25]))
        params = BoundParams(K=1, m_list=(100.0,), chi_list=(1.0,),
                             m_bar=1.0, m_tilde=1.0)
        r_star, cut = rstar_linear(spec, params)
        assert r_star == pytest.approx(0.02, abs=1e-15)
        assert cut == 2

    def test_zero_weights(self):
        spec = spectrum_from_weights(np.zeros((2, 3)))
        params = BoundParams(K=2, m_list=(10.0, 10.0), chi_list=(1.0, 1.0))
        r_star, cut = rstar_linear(spec, params)
        assert r_star == 0.0 and cut == 0

    def test_pair_transformed_ratio_identity(self):
        # chi_k / m_k = 1 / (tau_k n~) in pair-transformed mode
        params = BoundParams.pair_transformed([0.5, 0.25, 0.1], 1000.0)
        for tau, ratio in zip(params.tau_list, params.chi_over_m):
            assert ratio == pytest.approx(1.0 / (tau * 1000.0), rel=1e-12)

    def test_experiment_mode_doubles_and_caps(self):
        vals = np.sort(np.random.default_rng(0).uniform(0, 1, 8))[::-1]
        spec = SpectrumProfile(values=vals)
        params = BoundParams.pair_transformed([0.3, 0.4], 500.0, m_bar=2.0,
                                              m_tilde=1.5)
        plain, _ = rstar_linear(spec, params)
        doubled, cut = rstar_linear(spec, params, experiment_mode=True)
        assert doubled >= plain  # capped grid can only increase the minimum
        got, want_cut = brute_force_rstar_linear(
            list(vals), params.chi_list, params.m_list, 1.5, 2.0, 2,
            factor_two=True)
        assert doubled == pytest.approx(got, rel=1e-12)
        assert cut == want_cut
        capped, cut_c = rstar_linear(spec, params, experiment_mode=True, d_max=2)
        got_c, want_c = brute_force_rstar_linear(
            list(vals), params.chi_list, params.m_list, 1.5, 2.0, 2,
            factor_two=True, d_max=2)
        assert capped == pytest.approx(got_c, rel=1e-12)
        assert cut_c == want_c <= 2

    def test_negative_cut_cap_rejected(self):
        spec = SpectrumProfile(values=np.array([0.5, 0.25]))
        params = BoundParams(K=1, m_list=(100.0,), chi_list=(1.0,))
        with pytest.raises(DomainError, match="d_max"):
            rstar_linear(spec, params, d_max=-1)
        assert rstar_linear(spec, params, d_max=0)[1] == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            K = int(rng.integers(1, 4))
            vals = np.sort(rng.uniform(0, 2, size=int(rng.integers(1, 9))))[::-1]
            spec = SpectrumProfile(values=vals)
            chis = [float(rng.uniform(1, 6)) for _ in range(K)]
            ms = [float(rng.uniform(10, 1e5)) for _ in range(K)]
            m_tilde = float(rng.uniform(0.1, 4))
            m_bar = float(rng.uniform(0.5, 4))
            params = BoundParams(K=K, m_list=tuple(ms), chi_list=tuple(chis),
                                 m_tilde=m_tilde, m_bar=m_bar)
            got, cut = rstar_linear(spec, params)
            want, want_cut = brute_force_rstar_linear(
                list(vals), chis, ms, m_tilde, m_bar, K)
            assert got == pytest.approx(want, rel=1e-12)
            assert cut == want_cut


class TestExcessBoundGeneral:
    def test_worked_example(self):
        # B=1, r=0.001, chi/m = 0.01, t=1: 0.704 + 48*(25/16)*0.01 = 1.454
        params = BoundParams(K=1, m_list=(100.0,), chi_list=(1.0,), B=1.0, t=1.0)
        assert excess_bound_general(0.001, params) == pytest.approx(1.454, abs=1e-12)

    def test_zero_limits(self):
        params = BoundParams(K=1, m_list=(100.0,), chi_list=(1.0,), B=1.0, t=0.0)
        assert excess_bound_general(0.0, params) == 0.0

    def test_t_increment_constant(self):
        # with B = 1, t -> t + dt adds exactly 75 * sum(chi/m) * dt / K
        params1 = BoundParams(K=2, m_list=(50.0, 80.0), chi_list=(2.0, 3.0),
                              B=1.0, t=1.0)
        params2 = BoundParams(K=2, m_list=(50.0, 80.0), chi_list=(2.0, 3.0),
                              B=1.0, t=2.0)
        delta = excess_bound_general(0.01, params2) - excess_bound_general(0.01, params1)
        expect = 75.0 * (2.0 / 50.0 + 3.0 / 80.0) / 2.0
        assert delta == pytest.approx(expect, rel=1e-12)

    def test_negative_r_rejected(self):
        params = BoundParams(K=1, m_list=(10.0,), chi_list=(1.0,))
        with pytest.raises(DomainError):
            excess_bound_general(-0.1, params)

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_radius_rejected(self, r):
        general = BoundParams(K=1, m_list=(10.0,), chi_list=(1.0,))
        pair = BoundParams.pair_transformed([0.3], 100.0)
        for bound, params in ((excess_bound_general, general),
                              (bound_ours_macroauc, pair), (bound_kernel_macroauc, pair)):
            with pytest.raises(DomainError, match="must be finite"):
                bound(r, params)

    @pytest.mark.parametrize("name, call", [
        # an infinite entry has no finite eigenvalue
        ("spectrum_from_gram", lambda: spectrum_from_gram(np.array([[np.inf, 0.0],
                                                                    [0.0, 1.0]]))),
        ("spectrum_from_weights", lambda: spectrum_from_weights(np.diag([1e200, 1.0]))),
        ("rstar_kernel", lambda: rstar_kernel(  # chi / m overflows: 0 * inf at d = 0
            [SpectrumProfile(values=np.array([1.0]))],
            BoundParams(K=1, m_list=(1e-10,), chi_list=(1e300,)))),
        ("rstar_linear", lambda: rstar_linear(  # both candidates overflow
            SpectrumProfile(values=np.array([1e300])),
            BoundParams(K=1, m_list=(1.0,), chi_list=(1e300,), m_tilde=1e10, m_bar=1e-10))),
        ("excess_bound_general", lambda: excess_bound_general(
            1e308, BoundParams(K=1, m_list=(10.0,), chi_list=(1.0,), B=1e-10))),
        ("bound_ours_macroauc", lambda: bound_ours_macroauc(
            1e308, BoundParams.pair_transformed([0.3], 100.0, mu=10.0))),
        ("bound_prior_macroauc", lambda: bound_prior_macroauc(
            BoundParams.pair_transformed([0.3], 100.0, mu=1e300, m_bar=1e300))),
        ("bound_kernel_macroauc", lambda: bound_kernel_macroauc(
            1e308, BoundParams.pair_transformed([0.3], 100.0, B=1e-10))),
    ])
    def test_overflow_names_the_entry_point(self, name, call):
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            call()

    @pytest.mark.parametrize("name", ["m_tilde", "m_bar", "mu", "B", "t"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_constant_rejected(self, name, value):
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            BoundParams(K=1, m_list=(10.0,), chi_list=(1.0,), **{name: value})

    @pytest.mark.parametrize("field", ["m_list", "chi_list"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_non_finite_or_zero_m_chi_rejected(self, field, value):
        kw = {"m_list": (10.0, 20.0), "chi_list": (1.0, 2.0)}
        kw[field] = (10.0, value)
        with pytest.raises(DomainError, match="m_k and chi_k"):
            BoundParams(K=2, **kw)


class TestMacroAucBounds:
    def test_ours_worked_example(self):
        params = BoundParams.pair_transformed([0.5, 0.25], 1000.0, mu=1.0, t=LN100)
        val = bound_ours_macroauc(0.001, params)
        expect = 0.704 + (75.0 / 2.0) * 6.0 * LN100 / 1000.0
        assert val == pytest.approx(expect, rel=1e-14)
        assert val == pytest.approx(1.7401632918473206, rel=1e-12)

    def test_ours_zero_limit(self):
        params = BoundParams.pair_transformed([0.5], 100.0, t=0.0)
        assert bound_ours_macroauc(0.0, params) == 0.0

    def test_prior_worked_example(self):
        params = BoundParams.pair_transformed([0.25], 100.0, mu=1.0, m_bar=1.0,
                                              m_tilde=1.0, t=LN100)
        val = bound_prior_macroauc(params)
        expect = 2.0 * (0.8 + 3.0 * math.sqrt((math.log(2.0) + LN100) / 200.0) * 2.0)
        assert val == pytest.approx(expect, rel=1e-14)
        assert val == pytest.approx(3.5531483568624753, rel=1e-12)

    def test_prior_vanishes_with_n(self):
        small = bound_prior_macroauc(
            BoundParams.pair_transformed([0.5], 1e12, m_bar=1.0, m_tilde=1.0))
        assert small < 1e-4

    def test_kernel_worked_example(self):
        params = BoundParams.pair_transformed([0.25], 100.0, B=1.0, t=1.0)
        assert bound_kernel_macroauc(0.001, params) == pytest.approx(3.704, abs=1e-12)

    def test_kernel_zero_limit(self):
        params = BoundParams.pair_transformed([0.25], 100.0, B=1.0, t=0.0)
        assert bound_kernel_macroauc(0.0, params) == 0.0

    def test_kernel_equals_ours_at_unit_constants(self):
        # (26*1 + 22) * 25/16 = 75, so the two assemblies agree at mu = B = 1
        params = BoundParams.pair_transformed([0.3, 0.45], 700.0, mu=1.0,
                                              B=1.0, t=LN100)
        r_star = 3e-4
        assert bound_kernel_macroauc(r_star, params) == bound_ours_macroauc(r_star, params)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(pair=pair_inputs(), r=st.floats(0.0, 1e100), B=st.floats(1e-100, 1e100),
           t=st.floats(0.0, 1e100))
    def test_kernel_and_ours_are_the_general_assembly(self, pair, r, B, t):
        # bit for bit: one body computes all three
        params = BoundParams.pair_transformed(*pair, B=B, t=t)
        assert bound_kernel_macroauc(r, params) == excess_bound_general(r, params)
        unit = BoundParams.pair_transformed(*pair, t=t)
        assert bound_ours_macroauc(r, unit) == bound_kernel_macroauc(r, unit)

    @pytest.mark.parametrize("name, call", [
        ("bound_ours_macroauc", lambda p: bound_ours_macroauc(1e-3, p)),
        ("bound_kernel_macroauc", lambda p: bound_kernel_macroauc(1e-3, p)),
        ("prior bound", bound_prior_macroauc),
    ])
    def test_pair_assemblies_refuse_general_params(self, name, call):
        params = BoundParams(K=1, m_list=(100.0,), chi_list=(1.0,))
        with pytest.raises(InvariantError, match=f"^{name} needs pair-transformed"):
            call(params)

    def test_ours_strictly_increasing(self):
        base = BoundParams.pair_transformed([0.4, 0.3], 500.0, t=1.0)
        v0 = bound_ours_macroauc(1e-4, base)
        assert bound_ours_macroauc(2e-4, base) > v0
        assert bound_ours_macroauc(1e-4, BoundParams.pair_transformed(
            [0.4, 0.3], 500.0, t=2.0)) > v0
        assert bound_ours_macroauc(1e-4, BoundParams.pair_transformed(
            [0.2, 0.3], 500.0, t=1.0)) > v0

    def test_degenerate_tau_rejected(self):
        with pytest.raises(DomainError):
            BoundParams.pair_transformed([0.0, 0.3], 100.0)
        with pytest.raises(DomainError):
            BoundParams.pair_transformed([0.6], 100.0)

    def test_pair_transform_identities(self):
        params = BoundParams.pair_transformed([0.25], 200.0)
        assert params.m_list[0] == pytest.approx(200.0**2 * 0.25 * 0.75)
        assert params.chi_list[0] == pytest.approx(0.75 * 200.0)


class TestAssemblyOracles:
    """Every excess-risk assembly against its documented formula in mpmath.
    Each draws the constants it ignores too, so reading one shows up."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(pair=pair_inputs(), rstar=WIDE_OR_ZERO, mu=WIDE, B=WIDE, t=WIDE_OR_ZERO)
    def test_ours(self, pair, rstar, mu, B, t):
        taus, n = pair
        params = BoundParams.pair_transformed(taus, n, mu=mu, B=B, t=t)
        assert_near_oracle("bound_ours_macroauc", lambda: bound_ours_macroauc(rstar, params),
                           mp_bound_ours(rstar, taus, n, mu, t))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(pair=pair_inputs(), rstar=WIDE_OR_ZERO, mu=WIDE, B=WIDE, t=WIDE_OR_ZERO)
    def test_kernel(self, pair, rstar, mu, B, t):
        taus, n = pair
        params = BoundParams.pair_transformed(taus, n, mu=mu, B=B, t=t)
        assert_near_oracle("bound_kernel_macroauc", lambda: bound_kernel_macroauc(rstar, params),
                           mp_bound_kernel(rstar, taus, n, B, t))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(chi=st.lists(WIDE.map(lambda x: max(x, 1.0 / x)), min_size=1, max_size=4),
           m=st.lists(WIDE, min_size=4, max_size=4), r=WIDE_OR_ZERO, mu=WIDE, B=WIDE,
           t=WIDE_OR_ZERO)
    def test_general(self, chi, m, r, mu, B, t):
        m = m[:len(chi)]
        params = BoundParams(K=len(chi), m_list=tuple(m), chi_list=tuple(chi), mu=mu, B=B, t=t)
        assert_near_oracle("excess_bound_general", lambda: excess_bound_general(r, params),
                           mp_excess_general(r, chi, m, B, t))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(pair=pair_inputs(), mu=WIDE, m_bar=WIDE, m_tilde=WIDE_OR_ZERO, B=WIDE,
           t=WIDE_OR_ZERO)
    def test_prior(self, pair, mu, m_bar, m_tilde, B, t):
        taus, n = pair
        params = BoundParams.pair_transformed(taus, n, mu=mu, m_bar=m_bar, m_tilde=m_tilde,
                                              B=B, t=t)
        assert_near_oracle("bound_prior_macroauc", lambda: bound_prior_macroauc(params),
                           mp_bound_prior(taus, n, mu, m_bar, m_tilde, t))


# [1e-300, 1e300] by a float exponent, which hypothesis spreads over the
# whole range (WIDE's integer exponents stay mostly near 0)
SPREAD = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
SPREAD_OR_ZERO = st.integers(0, 9).flatmap(lambda i: SPREAD if i else st.just(0.0))
# a nonincreasing spectrum of up to 6 entries, each 0 or in [1e-300, 1e300]
SPECTRA = st.lists(SPREAD_OR_ZERO, min_size=1, max_size=6).map(
    lambda v: sorted(v, reverse=True))


def assert_exact_to_rounding(name, call, exact):
    """call() lies within ORACLE_REL_TOL of exact, or raises the DomainError
    of the entry point name where exact lies beyond the float range."""
    if exact == math.inf:
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            call()
        return
    got = call()[0]
    assert abs(got - exact) <= ORACLE_REL_TOL * max(exact, sys.float_info.min), (got, exact)


class TestRstarOracles:
    """r* against its candidate minimum in mpmath, for chi_k / (K m_k) and
    spectra from 1e-300 to 1e300, where chi_k / (K m_k) times a tail sum
    over- or underflows while its root does not."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(spectra=st.lists(SPECTRA, min_size=1, max_size=3),
           coefs=st.lists(SPREAD, min_size=3, max_size=3), m_tilde=SPREAD_OR_ZERO)
    def test_kernel(self, spectra, coefs, m_tilde):
        K = len(spectra)
        chi, m = tuple(coefs[:K]), (1.0 / K,) * K
        params = BoundParams(K=K, m_list=m, chi_list=chi, m_tilde=m_tilde)
        assert_exact_to_rounding(
            "rstar_kernel", lambda: rstar_kernel([SpectrumProfile(np.array(v)) for v in spectra],
                                                 params),
            mp_rstar_kernel(spectra, chi, m, m_tilde))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(values=SPECTRA, coefs=st.lists(SPREAD, min_size=1, max_size=3),
           m_tilde=SPREAD_OR_ZERO, m_bar=SPREAD, factor_two=st.booleans(),
           d_max=st.integers(0, 6))
    # m_bar^2 is subnormal, so d / m_bar^2 overflows at d >= 1 while the
    # head term of cut 2, 2e10, is the minimum
    @example(values=[1.0, 0.25], coefs=[1e-300], m_tilde=1e300, m_bar=1e-155,
             factor_two=False, d_max=6)
    # m_bar^2 overflows and underflows
    @example(values=[1e300, 1e-300], coefs=[1e300], m_tilde=1.0, m_bar=1e200,
             factor_two=False, d_max=6)
    @example(values=[1.0, 0.25], coefs=[1e-300], m_tilde=1e300, m_bar=1e-300,
             factor_two=True, d_max=6)
    def test_linear(self, values, coefs, m_tilde, m_bar, factor_two, d_max):
        K = len(coefs)
        chi, m = tuple(coefs), (1.0 / K,) * K
        params = BoundParams(K=K, m_list=m, chi_list=chi, m_tilde=m_tilde, m_bar=m_bar)
        assert_exact_to_rounding(
            "rstar_linear", lambda: rstar_linear(SpectrumProfile(np.array(values)), params,
                                                 experiment_mode=factor_two, d_max=d_max),
            mp_rstar_linear(values, chi, m, m_tilde, m_bar, factor_two, d_max))
