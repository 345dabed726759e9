import math
import sys

import numpy as np
import pytest

from gdbound.concentration import (
    TailBoundInput,
    bennett_lower_tail,
    bennett_tail_general,
    bennett_tail_refined,
    bernstein_deviation,
    general_bernstein_constant,
    phi,
    refined_bernstein_constant,
    talagrand_v,
)
from gdbound.errors import DomainError, InvariantError, ModeError

from oracles import mp_phi


def single_block_input(v=1.0, b=0.0, EZ=0.5, sigma_sq=0.5, chi=1.0):
    return TailBoundInput(b=b, EZ=EZ, sigma_sq=sigma_sq, chi_list=(chi,),
                          blocks=(((1.0, v),),))


def random_valid_input(rng):
    """Consistent bundle: blocks drawn first (per-task weights in (0,1]
    summing to at least 1), then (EZ, sigma^2) split so that
    (1+b)EZ + sigma^2 equals the weighted block sum exactly."""
    K = int(rng.integers(1, 4))
    b = float(rng.uniform(0.0, 1.0))
    blocks = []
    chi_list = []
    total = 0.0
    for _ in range(K):
        while True:
            J = int(rng.integers(2, 6))
            w = rng.uniform(0.25, 1.0, size=J)
            if w.sum() >= 1.0:
                break
        v_kj = rng.uniform(0.05, 3.0, size=J)
        blocks.append(tuple((float(wi), float(vi)) for wi, vi in zip(w, v_kj)))
        chi_list.append(float(w.sum()))
        total += float(np.dot(w, v_kj))
    alpha = float(rng.uniform(0.0, 0.95))
    EZ = alpha * total / (1.0 + b)
    sigma_sq = (1.0 - alpha) * total
    return TailBoundInput(b=b, EZ=EZ, sigma_sq=sigma_sq,
                          chi_list=tuple(chi_list), blocks=tuple(blocks))


class TestPhiPsi:
    def test_phi_zero(self):
        assert phi(0.0) == 0.0

    def test_phi_one_closed_form(self):
        assert phi(1.0) == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=1e-15)

    def test_phi_at_infinity(self):
        # an overflowing argument must give an infinite exponent, not nan
        assert phi(math.inf) == math.inf

    def test_phi_domain(self):
        with pytest.raises(DomainError):
            phi(-0.1)

    def test_phi_within_4_ulp_of_mpmath_oracle(self):
        # log-uniform over [1e-300, 1e300], and the points where the closed
        # form failed: 18 % off at 1e-15, 0 at 3.4e-51 when taken at 50
        # digits, 7 ulp near 1; where phi is subnormal or 0, the tolerance
        # is 4 subnormal steps
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(10)
        xs = list(10.0 ** rng.uniform(-300, 300, 600)) + list(10.0 ** rng.uniform(-20, 1, 600)) \
            + list(rng.uniform(0.5, 4.0, 600)) + [1e-15, 3.4e-51, 1e-7, 1e-160, 5e-324, 1.0, 2.0]
        misses = []
        for x in map(float, xs):
            exact, got = mp_phi(x), phi(x)
            if abs(got - exact) > 4 * math.ulp(max(exact, sys.float_info.min)):
                misses.append((x, got, exact))
        assert not misses, misses[:5]

    def test_phi_quadratic_lower_bound(self):
        for x in np.geomspace(1e-8, 1e4, 200):
            assert phi(x) >= x * x / (2.0 + 2.0 * x / 3.0) - 1e-15


class TestBennettGeneral:
    def test_worked_example(self):
        # K=1, one unit-weight block with v_11 = v = 1, t = 1:
        # U = W = 1 so p_tight = exp(-phi(1)), p_simple = exp(-phi(4/5)).
        inp = single_block_input()
        assert inp.v == 1.0 and inp.W == 1.0 and inp.U == 1.0
        p_tight, p_simple = bennett_tail_general(inp, 1.0)
        assert p_tight == pytest.approx(math.exp(-phi(1.0)), rel=1e-14)
        assert p_tight == pytest.approx(0.6795704571147613, rel=1e-12)
        assert p_simple == pytest.approx(math.exp(-phi(0.8)), rel=1e-14)
        assert p_simple == pytest.approx(0.7725828731359727, rel=1e-12)

    def test_small_t_limit(self):
        inp = single_block_input()
        p_tight, p_simple = bennett_tail_general(inp, 1e-14)
        assert p_tight == pytest.approx(1.0, abs=1e-12)
        assert p_simple == pytest.approx(1.0, abs=1e-12)

    def test_t_domain(self):
        # phi(0) = 0, so t = 0 gives the trivial bound; a t below 0 is refused
        assert bennett_tail_general(single_block_input(), 0.0) == (1.0, 1.0)
        with pytest.raises(DomainError, match="^t must be >= 0$"):
            bennett_tail_general(single_block_input(), -1e-300)

    def test_tight_not_looser_than_simple_random(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            inp = random_valid_input(rng)
            t = float(rng.uniform(0.01, 20.0))
            p_tight, p_simple = bennett_tail_general(inp, t)
            assert p_tight <= p_simple * (1.0 + 1e-12)
            assert 0.0 < p_tight <= 1.0 and 0.0 < p_simple <= 1.0
            assert inp.U <= 1.25 * inp.W + 1e-12

    def test_nonincreasing_in_t(self):
        rng = np.random.default_rng(1)
        inp = random_valid_input(rng)
        grid = np.linspace(0.01, 30.0, 50)
        vals = [bennett_tail_general(inp, t) for t in grid]
        for (a1, a2), (b1, b2) in zip(vals, vals[1:]):
            assert b1 <= a1 + 1e-15 and b2 <= a2 + 1e-15

    def test_default_U_when_blocks_missing(self):
        inp = TailBoundInput(b=0.0, EZ=0.5, sigma_sq=0.5, chi_list=(2.0,))
        assert inp.U == pytest.approx(1.25 * inp.W)
        p_tight, p_simple = bennett_tail_general(inp, 2.0)
        assert p_tight == pytest.approx(p_simple, rel=1e-14)

    def test_invariant_violations_rejected(self):
        with pytest.raises(InvariantError):
            TailBoundInput(b=0.0, EZ=-1.0, sigma_sq=0.5, chi_list=(1.0,))
        with pytest.raises(InvariantError):
            TailBoundInput(b=0.0, EZ=1.0, sigma_sq=0.0, chi_list=(0.5,))
        with pytest.raises(InvariantError):
            # weighted block sum inconsistent with v
            TailBoundInput(b=0.0, EZ=1.0, sigma_sq=0.0, chi_list=(1.0,),
                           blocks=(((1.0, 5.0),),))

    def test_weights_within_the_tolerance_are_accepted(self):
        # the weights sum 5e-10 below chi_f, inside the 1e-9 relative
        # tolerance; U is then below W = chi_f, but each term w max(1, .)
        # is at least w, so U >= sum w holds exactly and is not refused
        blocks = (((1.0, 2.0), (0.9999999995, 2.0)),)
        inp = TailBoundInput(b=1.0, EZ=1.0, sigma_sq=2.0, chi_list=(2.0,), blocks=blocks)
        assert inp.U == 1.0 + 0.9999999995 < inp.W
        with pytest.raises(InvariantError, match="task 0: block weights sum to"):
            TailBoundInput(b=1.0, EZ=1.0, sigma_sq=2.0, chi_list=(2.0,),
                           blocks=(((1.0, 2.0), (0.99999999, 2.0)),))


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["b", "EZ", "sigma_sq", "chi"])
    def test_non_finite_fields_rejected(self, field, bad):
        kw = dict(b=0.0, EZ=0.5, sigma_sq=0.5, chi_list=(1.0,))
        if field == "chi":
            kw["chi_list"] = (1.0, bad)
        else:
            kw[field] = bad
        with pytest.raises(DomainError):
            TailBoundInput(**kw)

    def test_non_finite_block_v_rejected(self):
        with pytest.raises(DomainError):
            single_block_input(v=math.nan)

    # bennett_tail_refined has no case: exp(-v phi(t / (v W))) holds no
    # inf - inf or inf / inf, so finite inputs give a value in [0, 1]
    @pytest.mark.parametrize("name, call", [
        # t W and U v both overflow, so phi's argument is inf / inf
        ("bennett_tail_general", lambda: bennett_tail_general(
            TailBoundInput(b=0.0, EZ=1e300, sigma_sq=0.0, chi_list=(1e10,)), 1e300)),
        ("bennett_lower_tail", lambda: bennett_lower_tail(  # 4t / (5v) is inf / inf
            TailBoundInput(b=0.0, EZ=1e308, sigma_sq=0.0, chi_list=(1.0,)), 1e308)),
        ("bernstein_deviation", lambda: bernstein_deviation(1e300, 1e300, 1.0)),
        ("talagrand_v", lambda: talagrand_v([[(1.0, 1e308)]], 1e308)),
    ])
    def test_overflow_names_the_entry_point(self, name, call):
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            call()

    def test_overflowing_v_rejected(self):
        # (1 + b) E[Z] overflows to inf, which would turn the bound into nan
        with pytest.raises(DomainError):
            TailBoundInput(b=1.0, EZ=1e308, sigma_sq=1e308, chi_list=(1.0,))

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_t_rejected(self, t):
        inp = single_block_input()
        for tail in (lambda: bennett_tail_general(inp, t),
                     lambda: bennett_tail_refined(inp, t),
                     lambda: bennett_lower_tail(inp, t)):
            with pytest.raises(DomainError):
                tail()

    def test_every_tail_is_one_at_t_zero(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            inp = random_valid_input(rng)
            unit = TailBoundInput(b=inp.b, EZ=inp.EZ, sigma_sq=inp.sigma_sq,
                                  chi_list=inp.chi_list)
            assert bennett_tail_general(inp, 0.0) == (1.0, 1.0)
            assert bennett_tail_refined(unit, 0.0) == 1.0
            assert bennett_lower_tail(inp, 0.0) == 1.0
            for c in (general_bernstein_constant(inp.chi_list),
                      refined_bernstein_constant(inp.chi_list)):
                assert bernstein_deviation(c, inp.v, 0.0) == 0.0

    def test_subnormal_v_gives_zero_not_nan(self):
        inp = TailBoundInput(b=0.0, EZ=1e-320, sigma_sq=0.0, chi_list=(1.0,))
        assert bennett_tail_general(inp, 1.0) == (0.0, 0.0)
        assert bennett_tail_refined(inp, 1.0) == 0.0


class TestBernsteinDeviation:
    def test_unit_example(self):
        assert bernstein_deviation(1.0, 1.0, 1.0) == pytest.approx(
            math.sqrt(2.0) + 2.0 / 3.0, rel=1e-15)

    def test_general_constant_example(self):
        # c = 25/16 (K = 1, chi_f = 1): sqrt(25/8) + 25/24
        val = bernstein_deviation(25.0 / 16.0, 1.0, 1.0)
        assert val == pytest.approx(math.sqrt(25.0 / 8.0) + 25.0 / 24.0, rel=1e-15)
        assert val == pytest.approx(2.8094336196330354, rel=1e-12)

    def test_t_zero_limit(self):
        assert bernstein_deviation(1.0, 1.0, 0.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            bernstein_deviation(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            bernstein_deviation(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            bernstein_deviation(1.0, 1.0, -1.0)

    @pytest.mark.parametrize("args", [(math.nan, 1.0, 1.0), (1.0, math.inf, 1.0),
                                      (1.0, 1.0, math.inf), (math.inf, 1.0, 1.0),
                                      (1.0, 1.0, math.nan)])
    def test_non_finite_rejected(self, args):
        with pytest.raises(DomainError):
            bernstein_deviation(*args)

    def test_inversion_consistency(self):
        # plugging d(t) into the simple probability form with W = (16/25)c
        # must give a probability at most e^{-t}
        rng = np.random.default_rng(5)
        for _ in range(300):
            W = float(rng.uniform(1.0, 8.0))
            v = float(rng.uniform(0.05, 30.0))
            t = float(rng.uniform(0.01, 15.0))
            c = 25.0 / 16.0 * W
            d = bernstein_deviation(c, v, t)
            p = math.exp(-(v / W) * phi(4.0 * d / (5.0 * v)))
            assert p <= math.exp(-t) * (1.0 + 1e-12)

    def test_constants_helpers(self):
        assert general_bernstein_constant((1.0, 2.0)) == pytest.approx(75.0 / 16.0)
        assert refined_bernstein_constant((1.0, 2.0)) == 3.0


class TestBennettRefined:
    def test_unit_variance_example(self):
        # v = 1, W = 1, t = e - 1: phi(e-1) = 1 so the bound is 1/e
        inp = TailBoundInput(b=0.0, EZ=0.0, sigma_sq=1.0, chi_list=(1.0,))
        assert bennett_tail_refined(inp, math.e - 1.0) == pytest.approx(
            1.0 / math.e, rel=1e-14)

    def test_two_graph_example(self):
        # v = 1, W = 2, t = 1 -> exp(-phi(0.5)); phi(0.5) = 1.5 ln 1.5 - 1/2
        inp = TailBoundInput(b=0.0, EZ=0.0, sigma_sq=1.0, chi_list=(2.0,))
        expect = math.exp(-(1.5 * math.log(1.5) - 0.5))
        assert bennett_tail_refined(inp, 1.0) == pytest.approx(expect, rel=1e-14)
        assert expect == pytest.approx(0.8974501869529803, rel=1e-12)

    def test_small_t_limit(self):
        inp = TailBoundInput(b=0.0, EZ=0.0, sigma_sq=1.0, chi_list=(1.0,))
        assert bennett_tail_refined(inp, 1e-14) == pytest.approx(1.0, abs=1e-12)

    def test_classical_reduction_small_grid(self):
        # K = 1 and chi_f = 1 is the classical i.i.d. Bennett bound
        for v in np.geomspace(0.1, 50, 8):
            for t in np.geomspace(0.01, 40, 8):
                inp = TailBoundInput(b=0.0, EZ=0.0, sigma_sq=float(v),
                                     chi_list=(1.0,))
                classical = math.exp(-v * phi(t / v))
                assert abs(bennett_tail_refined(inp, float(t)) - classical) <= 1e-12

    def test_non_unit_weights_rejected(self):
        inp = TailBoundInput(b=0.0, EZ=0.0, sigma_sq=1.0, chi_list=(1.0,),
                             blocks=(((0.5, 1.0), (0.5, 1.0)),))
        with pytest.raises(ModeError):
            bennett_tail_refined(inp, 1.0)


class TestLowerTail:
    def test_mirrors_simple_form(self):
        inp = single_block_input()
        _, p_simple = bennett_tail_general(inp, 1.0)
        assert bennett_lower_tail(inp, 1.0) == p_simple

    def test_small_t_limit(self):
        assert bennett_lower_tail(single_block_input(), 1e-14) == pytest.approx(
            1.0, abs=1e-12)


class TestTalagrandV:
    def test_two_block_example(self):
        assert talagrand_v([[(1.0, 0.5), (1.0, 0.5)]], 1.0) == pytest.approx(3.0)

    def test_degenerate_zero(self):
        assert talagrand_v([[(1.0, 0.0)]], 0.0) == 0.0
        with pytest.raises(DomainError):
            bernstein_deviation(1.0, 0.0, 1.0)  # degenerate v has no deviation form

    def test_fractional_weight_example(self):
        assert talagrand_v([[(0.5, 2.0)]], 0.25) == pytest.approx(1.5)

    def test_negative_variance_rejected(self):
        with pytest.raises(DomainError):
            talagrand_v([[(1.0, -0.5)]], 0.0)
        with pytest.raises(DomainError):
            talagrand_v([[(1.0, 0.5)]], -1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            talagrand_v([[(1.0, math.nan)]], 0.0)
        with pytest.raises(DomainError):
            talagrand_v([[(1.0, 0.5)]], math.inf)
