import math

import numpy as np
import pytest

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
from gdbound.errors import DomainError, InvariantError

from oracles import (
    brute_force_rstar_kernel,
    brute_force_rstar_linear,
    charpoly_eigenvalues,
)

LN100 = math.log(100.0)


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

    def test_non_psd_rejected(self):
        G = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(DomainError):
            spectrum_from_gram(G)

    def test_small_negatives_clamped(self):
        G = np.diag([1.0, -1e-10])
        spec = spectrum_from_gram(G)
        assert (spec.values >= 0.0).all()


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
        # G - G' overflows in the symmetry check
        ("spectrum_from_gram", lambda: spectrum_from_gram(np.array([[0.0, 1e308],
                                                                    [-1e308, 0.0]]))),
        ("spectrum_from_weights", lambda: spectrum_from_weights(np.diag([1e200, 1.0]))),
        ("rstar_kernel", lambda: rstar_kernel(  # chi / m overflows: 0 * inf at d = 0
            [SpectrumProfile(values=np.array([1.0]))],
            BoundParams(K=1, m_list=(1e-10,), chi_list=(1e300,)))),
        ("rstar_linear", lambda: rstar_linear(  # m_bar^2 overflows
            SpectrumProfile(values=np.array([1.0])),
            BoundParams(K=1, m_list=(10.0,), chi_list=(1.0,), m_bar=1e300))),
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
        assert bound_kernel_macroauc(r_star, params) == pytest.approx(
            bound_ours_macroauc(r_star, params), rel=1e-14)

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
