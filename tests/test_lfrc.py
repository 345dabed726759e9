import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from gdbound import lfrc
from gdbound.errors import ConfigError, ConvergenceError, DomainError, InvariantError, \
    StructuralError
from gdbound.graphdep import bipartite_ranking_graph
from gdbound.lfrc import (
    LinearClassSpec,
    SubRootHandle,
    estimate_lfrc,
    fixed_point,
    second_moment_matrix,
    sup_linear,
)

from oracles import bisect_fixed_point, loop_estimate_lfrc, pga_feasible_value, \
    pga_sup_linear, scalar_sup_one, sqrt_affine_fixed_point, sqrt_min_sum_fixed_point


def spec_for(S_list, m_tilde=1.0, r=math.inf):
    return LinearClassSpec(m_tilde=m_tilde, second_moments=tuple(S_list), r=r)


class TestSupLinear:
    def test_ball_only(self):
        spec = spec_for([np.zeros((2, 2))], m_tilde=2.0)
        assert sup_linear([np.array([1.0, 0.0])], spec) == pytest.approx(2.0)

    def test_variance_binds_rank_one(self):
        # single sample x = (1,0): the constraint |theta.x| <= sqrt(r) caps
        # the value at 1 even though the ball allows 2
        x = np.array([1.0, 0.0])
        spec = spec_for([np.outer(x, x)], m_tilde=2.0, r=1.0)
        assert sup_linear([x], spec) == pytest.approx(1.0, rel=1e-12)

    def test_zero_aggregate(self):
        spec = spec_for([np.eye(3)], m_tilde=2.0, r=1.0)
        assert sup_linear([np.zeros(3)], spec) == 0.0

    def test_nested_constraint_cases(self):
        # S = I: value = m_tilde*|c| when r >= m_tilde^2, else sqrt(r)|c|
        c = np.array([3.0, 4.0])
        spec_loose = spec_for([np.eye(2)], m_tilde=1.0, r=4.0)
        assert sup_linear([c], spec_loose) == pytest.approx(5.0)
        spec_tight = spec_for([np.eye(2)], m_tilde=1.0, r=0.25)
        assert sup_linear([c], spec_tight) == pytest.approx(2.5)

    def test_sums_over_tasks(self):
        c = np.array([1.0, 0.0])
        spec = spec_for([np.zeros((2, 2))] * 3, m_tilde=1.5)
        assert sup_linear([c, c, c], spec) == pytest.approx(4.5)

    def test_task_count_mismatch(self):
        spec = spec_for([np.zeros((2, 2))])
        with pytest.raises(StructuralError):
            sup_linear([np.zeros(2), np.zeros(2)], spec)

    def test_non_psd_rejected(self):
        S = np.array([[1.0, 0.0], [0.0, -0.5]])
        with pytest.raises(InvariantError):
            sup_linear([np.array([1.0, 1.0])], spec_for([S], r=1.0))

    def test_against_pga_oracle_small_batch(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            D = int(rng.integers(1, 6))
            c = rng.normal(size=D)
            A = rng.normal(size=(D, D))
            S = A.T @ A / D
            m_tilde = float(rng.uniform(0.5, 3.0))
            r = float(rng.uniform(0.05, 2.0))
            ours = sup_linear([c], spec_for([S], m_tilde=m_tilde, r=r))
            oracle = pga_sup_linear(c, S, m_tilde, r)
            assert ours == pytest.approx(oracle, rel=1e-8, abs=1e-10)

    def test_null_space_component(self):
        # c has a component outside range(S): ellipsoid alone cannot bind it
        S = np.diag([1.0, 0.0])
        c = np.array([1.0, 1.0])
        val = sup_linear([c], spec_for([S], m_tilde=1.0, r=0.01))
        oracle = pga_sup_linear(c, S, 1.0, 0.01)
        assert val == pytest.approx(oracle, rel=1e-8)


eig = lfrc._decompose  # the (lam, Q) of S that _sup_rows reads in place of S


def scalar_rows(C, S, m_tilde, r):
    return np.array([scalar_sup_one(c, S, m_tilde, r) for c in C])


def pair_features(rng, n_pos, n_neg, d):
    """Pair-differenced features: rank n_pos + n_neg - 1 when d exceeds it,
    with a spread spectrum, as in a pair-transformed Macro-AUC task."""
    scales = np.geomspace(0.05, 1.5, d)
    pos = rng.normal(size=(n_pos, d)) * scales + 0.2 * scales
    neg = rng.normal(size=(n_neg, d)) * scales
    return (pos[:, None, :] - neg[None, :, :]).reshape(n_pos * n_neg, d)


def aggregates(rng, X, n):
    zeta = rng.integers(0, 2, size=(n, X.shape[0])) * 2.0 - 1.0
    return zeta @ X / X.shape[0]


class TestBatchSolver:
    """The batch solver row by row against the scalar per-draw solver."""

    def test_ball_only(self):
        # every aggregate leans on the small eigenvalues, so the ball alone
        # meets the ellipsoid: value m_tilde |c|
        rng = np.random.default_rng(1)
        S = np.diag([1e-3, 2e-3, 4.0])
        C = rng.normal(size=(40, 3)) * [1.0, 1.0, 1e-3]
        got = lfrc._sup_rows(C, eig(S), 1.5, 0.5)
        np.testing.assert_allclose(got, 1.5 * np.linalg.norm(C, axis=1), rtol=1e-12)
        # m_tilde |c| is one product on both paths: equal, not just close
        assert np.array_equal(got, scalar_rows(C, S, 1.5, 0.5))

    def test_pure_ellipsoid(self):
        # c in range(S) and r small: the ball is slack, value sqrt(r c'S^-1 c)
        rng = np.random.default_rng(2)
        A = rng.normal(size=(5, 5))
        S = A.T @ A / 5 + 0.1 * np.eye(5)
        C = rng.normal(size=(40, 5))
        r = 1e-4
        got = lfrc._sup_rows(C, eig(S), 2.0, r)
        closed = np.sqrt(r * np.einsum("ij,ij->i", C, np.linalg.solve(S, C.T).T))
        np.testing.assert_allclose(got, closed, rtol=1e-10)
        np.testing.assert_allclose(got, scalar_rows(C, S, 2.0, r), rtol=1e-12, atol=0)

    def test_huge_m_tilde_gives_ellipsoid_value(self):
        # m_tilde^2 overflows to inf: the ball never binds
        rng = np.random.default_rng(8)
        X = pair_features(rng, 4, 3, 5)
        S = second_moment_matrix(X)
        C = aggregates(rng, X, 20)
        r = 0.3
        closed = np.sqrt(r * np.einsum("ij,ij->i", C, (np.linalg.pinv(S) @ C.T).T))
        with np.errstate(over="ignore"):
            got = lfrc._sup_rows(C, eig(S), 1e300, r)
        np.testing.assert_allclose(got, closed, rtol=1e-9)

    def test_both_active(self):
        rng = np.random.default_rng(3)
        X = pair_features(rng, 6, 5, 12)
        S = second_moment_matrix(X)
        C = aggregates(rng, X, 60)
        r = 0.5 * np.trace(S) / 12
        got = lfrc._sup_rows(C, eig(S), 1.0, r)
        # both constraints bind: each row lies strictly below the ball-only
        # value m_tilde |c| and the ellipsoid-only value sqrt(r c'S^+c)
        ellipsoid = np.sqrt(r * np.einsum("ij,ij->i", C, (np.linalg.pinv(S) @ C.T).T))
        assert (got < np.minimum(np.linalg.norm(C, axis=1), ellipsoid) * (1 - 1e-9)).all()
        np.testing.assert_allclose(got, scalar_rows(C, S, 1.0, r), rtol=1e-12, atol=0)

    def test_zero_rows_and_infinite_r(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(9, 4))
        S = second_moment_matrix(X)
        C = aggregates(rng, X, 10)
        C[[0, 3, 7]] = 0.0
        for r in (0.05, math.inf):
            got = lfrc._sup_rows(C, eig(S), 1.3, r)
            assert (got[[0, 3, 7]] == 0.0).all()
            np.testing.assert_allclose(got, scalar_rows(C, S, 1.3, r), rtol=1e-12, atol=0)
        assert (lfrc._sup_rows(np.zeros((4, 4)), eig(S), 1.3, 0.05) == 0.0).all()

    @pytest.mark.parametrize("radius", [0.002, 0.02, 0.2, 2.0, 20.0])
    def test_rank_deficient_every_regime(self, radius):
        # D = 30 > rank 19: every aggregate lies in range(S); the radii move
        # the rows from pure ellipsoid through both active to ball only
        rng = np.random.default_rng(5)
        X = pair_features(rng, 5, 4, 30)
        S = second_moment_matrix(X)
        assert np.linalg.matrix_rank(S) < 30
        C = aggregates(rng, X, 80)
        r = radius * np.trace(S) / 30
        np.testing.assert_allclose(lfrc._sup_rows(C, eig(S), 1.0, r), scalar_rows(C, S, 1.0, r),
                                   rtol=1e-12, atol=0)

    def test_mixed_regimes_in_one_batch(self):
        # one batch holding zero, ball-only, pure-ellipsoid, both-active
        # and out-of-range rows; each row must get its own case
        S = np.diag([0.0, 1e-3, 0.5, 2.0])
        C = np.array([
            [0.0, 0.0, 0.0, 0.0],      # zero
            [1.0, 0.0, 0.0, 0.0],      # null space only: ball
            [0.0, 1.0, 0.0, 0.0],      # small eigenvalue: ball
            [0.0, 0.0, 1e-3, 1e-3],    # in range, r large relative: ball
            [0.0, 0.0, 1.0, 1.0],      # in range
            [0.0, 0.3, 1.0, 0.2],      # in range
            [1.0, 0.0, 1.0, 1.0],      # outside range(S)
            [0.2, 0.1, 0.0, 3.0],      # outside range(S)
        ])
        for m_tilde in (0.3, 1.0, 7.0):
            for r in (1e-5, 1e-3, 0.05, 0.4):
                got = lfrc._sup_rows(C, eig(S), m_tilde, r)
                want = scalar_rows(C, S, m_tilde, r)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
                # the same rows one at a time: a row does not see the others
                single = np.array([lfrc._sup_rows(c[None], eig(S), m_tilde, r)[0] for c in C])
                assert np.array_equal(got, single)

    def test_multiplier_is_the_scalar_brent_root(self):
        # random spectra over six decades and aggregates over four: rows take
        # different numbers of Newton and bisection steps.  Every row's
        # multiplier is within XTOL = 1e-8 relative of a scalar Brent search
        # on that row alone (1.8e-12 at worst when written), and its dual
        # value within 1e-12 of the primal value c.theta at the Brent root.
        rows = 0
        for seed in range(80):
            rng = np.random.default_rng(seed)
            D = int(rng.integers(2, 8))
            lam = np.sort(10.0 ** rng.uniform(-4, 2, D))
            CT = rng.normal(size=(40, D)) * 10.0 ** rng.uniform(-2, 2, (40, D))
            r = float(10.0 ** rng.uniform(-3, 1)) * lam.mean()

            def quad(ct, a):
                u = ct / (1.0 + a * lam)
                return 1.0 * float(lam @ (u * u)) / float(u @ u)

            want, keep = [], []
            for ct in CT:
                a_hi = 1.0
                while quad(ct, 0.0) > r and quad(ct, a_hi) > r and a_hi <= 1e18:
                    a_hi *= 4.0
                if quad(ct, 0.0) > r and a_hi <= 1e18:
                    keep.append(True)
                    want.append(brentq(lambda a: quad(ct, a) - r, 0.0, a_hi,
                                       xtol=1e-15, rtol=1e-14))
                else:
                    keep.append(False)
            if want:
                C = CT[keep]
                got = lfrc._multiplier(C, lam, 1.0, r, np.array([quad(c, 0.0) for c in C]))
                np.testing.assert_allclose(got, want, rtol=lfrc._XTOL, atol=0)
                dual = [math.sqrt((1.0 + a * r) * float(c @ (c / (1.0 + a * lam))))
                        for c, a in zip(C, got)]
                primal = []
                for c, a in zip(C, want):
                    u = c / (1.0 + a * lam)
                    primal.append(float(c @ (u / np.linalg.norm(u))))
                np.testing.assert_allclose(dual, primal, rtol=1e-12, atol=0)
                rows += len(want)
        assert rows > 500

    def test_per_class_rows_of_a_rook_cover(self):
        # aggregates over one rook class (22 of the 484 pairs) of a 22 x 22
        # pair task: on one of these rows plain Newton steps stay inside the
        # bracket and cycle between its ends, which the half-bracket rule stops
        X = pair_features(np.random.default_rng(7), 22, 22, 72)
        S = second_moment_matrix(X)
        r = 0.2 * float(np.trace(S)) / 72
        signs = np.random.default_rng(7).integers(0, 2, size=(500, 484)) * 2.0 - 1.0
        members = np.array([p * 22 + (p + 11) % 22 for p in range(22)])
        C = signs[:, members] @ X[members] / 484
        np.testing.assert_allclose(lfrc._sup_rows(C, eig(S), 1.0, r), scalar_rows(C, S, 1.0, r),
                                   rtol=1e-12, atol=0)

    def test_outside_range_of_rank_deficient_S(self):
        rng = np.random.default_rng(6)
        B = rng.normal(size=(6, 3))
        S = B @ B.T / 3  # rank 3 in dimension 6
        C = rng.normal(size=(50, 6))
        for r in (1e-3, 0.1, 1.0):
            np.testing.assert_allclose(lfrc._sup_rows(C, eig(S), 1.2, r),
                                       scalar_rows(C, S, 1.2, r), rtol=1e-12, atol=0)

    def test_non_psd_rejected_like_scalar(self):
        S = np.array([[1.0, 0.0], [0.0, -0.5]])
        C = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(InvariantError, match="eigenvalue -0.5 < 0"):
            scalar_sup_one(C[1], S, 1.0, 1.0)
        # r finite: the spec refuses S when it is built, whatever rows follow,
        # zero rows among them (the scalar oracle returns 0 for c = 0 unread)
        with pytest.raises(InvariantError, match="eigenvalue -0.5 < 0"):
            spec_for([S], r=1.0)
        with pytest.raises(InvariantError, match="eigenvalue -0.5 < 0"):
            eig(S)
        assert scalar_sup_one(C[0], S, 1.0, 1.0) == 0.0
        # r = inf: the class is the ball, S is never decomposed, in either solver
        spec = spec_for([S], r=math.inf)
        assert spec.eigen == (None,)
        assert lfrc._sup_rows(C, None, 1.0, math.inf)[1] == scalar_sup_one(C[1], S, 1.0, math.inf)
        assert sup_linear([C[1]], spec) == scalar_sup_one(C[1], S, 1.0, math.inf)

    def test_unbracketable_multiplier_raises(self):
        # c almost orthogonal to range(S) and a tiny r: the root lies past
        # a = 1e18, in both solvers
        S = np.diag([1.0, 0.0])
        c = np.array([1.0, 1e-3])
        with pytest.raises(RuntimeError, match="bracket"):
            scalar_sup_one(c, S, 1.0, 1e-40)
        with pytest.raises(ConvergenceError, match="bracket"):
            lfrc._sup_rows(c[None], eig(S), 1.0, 1e-40)

    def test_sup_linear_is_one_row_case(self):
        rng = np.random.default_rng(7)
        X = pair_features(rng, 4, 3, 8)
        S = second_moment_matrix(X)
        c_list = list(aggregates(rng, X, 3))
        spec = spec_for([S] * 3, m_tilde=1.0, r=0.3 * np.trace(S) / 8)
        want = sum(scalar_sup_one(c, S, spec.m_tilde, spec.r) for c in c_list)
        assert sup_linear(c_list, spec) == pytest.approx(want, rel=1e-12, abs=0)


class TestEstimateLfrc:
    def test_single_sample_norm_ball(self):
        # |zeta| = 1, so every draw gives exactly m_tilde * |x|
        X = np.array([[1.0, 0.0]])
        spec = spec_for([second_moment_matrix(X)], m_tilde=2.0, r=math.inf)
        est, stderr = estimate_lfrc([X], [None], spec, n_draws=16, seed=0)
        assert est == pytest.approx(2.0, abs=1e-14)
        assert stderr == pytest.approx(0.0, abs=1e-14)

    def test_zero_features(self):
        X = np.zeros((5, 3))
        spec = spec_for([second_moment_matrix(X)], m_tilde=2.0, r=1.0)
        est, _ = estimate_lfrc([X], [None], spec, n_draws=8, seed=1)
        assert est == 0.0

    @pytest.mark.parametrize("tasks, cause", [(0, "no task is given"),
                                              (1, "every task has zero samples"),
                                              (2, "every task has zero samples")])
    def test_no_sample_is_a_domain_error(self, tasks, cause):
        spec = spec_for([np.eye(2)] * tasks, m_tilde=1.0)
        with pytest.raises(DomainError, match=cause):
            estimate_lfrc([np.zeros((0, 2))] * tasks, [None] * tasks, spec, 2, 0)

    def test_two_identical_single_sample_tasks_match_one(self):
        # with one sample per task the supremum is sign-invariant, so the
        # two-task average equals the single-task value exactly
        X = np.array([[0.6, 0.8]])
        S = second_moment_matrix(X)
        spec1 = spec_for([S], m_tilde=2.0)
        spec2 = spec_for([S, S], m_tilde=2.0)
        est1, _ = estimate_lfrc([X], [None], spec1, n_draws=16, seed=3)
        est2, _ = estimate_lfrc([X, X], [None, None], spec2, n_draws=16, seed=3)
        assert est2 == pytest.approx(est1, rel=1e-14)

    def test_monotone_in_r_and_m_tilde_same_draws(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(12, 3))
        S = second_moment_matrix(X)
        vals_r = []
        for r in (0.01, 0.1, 1.0, 10.0):
            est, _ = estimate_lfrc([X], [None], spec_for([S], m_tilde=2.0, r=r),
                                   n_draws=32, seed=7)
            vals_r.append(est)
        assert all(b >= a - 1e-12 for a, b in zip(vals_r, vals_r[1:]))
        vals_m = []
        for m_tilde in (0.5, 1.0, 2.0, 4.0):
            est, _ = estimate_lfrc([X], [None],
                                   spec_for([S], m_tilde=m_tilde, r=1.0),
                                   n_draws=32, seed=7)
            vals_m.append(est)
        assert all(b >= a - 1e-12 for a, b in zip(vals_m, vals_m[1:]))

    def test_global_complexity_closed_form(self):
        # r = inf reduces to the norm-ball complexity m_tilde * E|aggregate|;
        # replay the same sign draws through the closed form
        rng = np.random.default_rng(5)
        X = rng.normal(size=(10, 4))
        m_tilde = 1.7
        spec = spec_for([second_moment_matrix(X)], m_tilde=m_tilde, r=math.inf)
        n_draws, seed = 64, 13
        est, _ = estimate_lfrc([X], [None], spec, n_draws=n_draws, seed=seed)
        rng2 = np.random.default_rng(seed)
        vals = []
        for _ in range(n_draws):
            zeta = rng2.integers(0, 2, size=X.shape[0]) * 2.0 - 1.0
            vals.append(m_tilde * np.linalg.norm(zeta @ X / X.shape[0]))
        assert est == pytest.approx(float(np.mean(vals)), rel=1e-14)

    def test_cover_size_mismatch_rejected(self):
        X = np.zeros((3, 2))
        _, cover = bipartite_ranking_graph(2, 2)  # graph on 4 vertices
        spec = spec_for([second_moment_matrix(X)])
        with pytest.raises(StructuralError):
            estimate_lfrc([X], [cover], spec, n_draws=1, seed=0)

    def test_matching_cover_accepted(self):
        g, cover = bipartite_ranking_graph(2, 2)
        X = np.ones((4, 2))
        spec = spec_for([second_moment_matrix(X)], m_tilde=1.0)
        est, _ = estimate_lfrc([X], [cover], spec, n_draws=4, seed=0)
        assert est >= 0.0

    def test_draw_count_validated(self):
        X = np.ones((2, 2))
        spec = spec_for([second_moment_matrix(X)])
        with pytest.raises(DomainError):
            estimate_lfrc([X], [None], spec, n_draws=0, seed=0)

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(8, 3))
        spec = spec_for([second_moment_matrix(X)], m_tilde=1.0, r=0.5)
        a = estimate_lfrc([X], [None], spec, n_draws=16, seed=42)
        b = estimate_lfrc([X], [None], spec, n_draws=16, seed=42)
        assert a == b


    @pytest.mark.parametrize("r", [0.05, 0.5, math.inf])
    @pytest.mark.parametrize("with_covers", [False, True])
    def test_matches_loop_oracle_three_tasks_across_blocks(self, monkeypatch, r, with_covers):
        # odd m_k = 9, 5, 7 (rook graphs 3x3, 1x5, 1x7), 7 draws per
        # block, 20 draws: blocks of 7, 7 and 6
        monkeypatch.setattr(lfrc, "_SIGN_BLOCK", 7 * 21)
        rng = np.random.default_rng(31)
        shapes = [(3, 3), (1, 5), (1, 7)]
        feats = [pair_features(rng, p, q, 4) for p, q in shapes]
        covers = ([bipartite_ranking_graph(p, q)[1] for p, q in shapes] if with_covers
                  else [None] * 3)
        spec = spec_for([second_moment_matrix(X) for X in feats], m_tilde=1.1, r=r)
        got = estimate_lfrc(feats, covers, spec, n_draws=20, seed=5)
        want = loop_estimate_lfrc(feats, covers, spec, n_draws=20, seed=5)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n_draws", [1, 2, 3])
    def test_matches_loop_oracle_one_draw_per_block(self, n_draws):
        # m = 2^17 + 1 samples: the sign block holds one draw, so every
        # draw is its own block with the real block constant
        rng = np.random.default_rng(32)
        X = rng.normal(size=(2**17 + 1, 2)) * [1.0, 0.1]
        assert lfrc._SIGN_BLOCK // X.shape[0] == 1
        spec = spec_for([second_moment_matrix(X)], m_tilde=1.0, r=0.002)
        got = estimate_lfrc([X], [None], spec, n_draws=n_draws, seed=9)
        want = loop_estimate_lfrc([X], [None], spec, n_draws=n_draws, seed=9)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("radius", [0.02, 0.2, 2.0])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_certify_shape_is_bit_identical(self, seed, radius):
        # a pair-transformed task with a rank-deficient second moment; the
        # radii put the rows in the pure-ellipsoid case, split them between
        # it and the both-active case, and add ball-only rows.  Once bit for
        # bit, now to 1e-12: the aggregates come from matrix products, not
        # per-draw vector products, and both-active rows take the dual value.
        rng = np.random.default_rng(seed)
        X = pair_features(rng, 9, 8, 24)
        S = second_moment_matrix(X)
        spec = spec_for([S], m_tilde=1.0, r=radius * float(np.trace(S)) / 24)
        _, cover = bipartite_ranking_graph(9, 8)
        got = estimate_lfrc([X], [cover], spec, n_draws=120, seed=seed)
        want = loop_estimate_lfrc([X], [cover], spec, n_draws=120, seed=seed)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_sign_draws_stay_within_the_block(self, monkeypatch):
        # each random_raw call draws the words of at most _SIGN_BLOCK signs
        # (one draw's worth when a single draw is larger), whatever K and
        # n_draws are; an odd block leaves a half-word for the next one
        sizes = []
        make_rng = np.random.default_rng

        class SpyBits:
            def __init__(self, bitgen):
                self.bitgen = bitgen

            def random_raw(self, size):
                sizes.append(size)
                return self.bitgen.random_raw(size)

        class Spy:
            def __init__(self, seed):
                self.bit_generator = SpyBits(make_rng(seed).bit_generator)

        monkeypatch.setattr(np.random, "default_rng", Spy)
        monkeypatch.setattr(lfrc, "_SIGN_BLOCK", 100)
        rng = make_rng(4)
        feats = [rng.normal(size=(m, 2)) for m in (7, 13, 5)]
        spec = spec_for([second_moment_matrix(X) for X in feats], r=0.5)
        estimate_lfrc(feats, [None] * 3, spec, n_draws=9, seed=1)
        assert sizes == [50, 50, 13]
        sizes.clear()
        # blocks of 75 signs: 38 words leave a half for the next block, which
        # then takes 37
        monkeypatch.setattr(lfrc, "_SIGN_BLOCK", 75)
        estimate_lfrc(feats, [None] * 3, spec, n_draws=9, seed=1)
        assert sizes == [38, 37, 38]

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
    def test_bad_seed(self, seed):
        X = np.ones((2, 2))
        spec = spec_for([second_moment_matrix(X)])
        with pytest.raises(ConfigError, match="seed"):
            estimate_lfrc([X], [None], spec, n_draws=2, seed=seed)

    @pytest.mark.parametrize("name, call", [
        ("second_moment_matrix", lambda: second_moment_matrix(np.full((2, 2), 1e200))),
        # the aggregate norm overflows
        ("estimate_lfrc", lambda: estimate_lfrc(
            [np.full((1, 4), 1e154)], [None], spec_for([np.full((4, 4), 1e308)]),
            n_draws=2, seed=0)),
    ])
    def test_overflow_names_the_entry_point(self, name, call):
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            call()

    def test_overflowing_supremum_rejected(self):
        # finite features whose aggregate norm overflows
        X = np.full((1, 4), 1e154)
        spec = spec_for([second_moment_matrix(X)], m_tilde=1.0)
        with pytest.raises(DomainError, match="overflow"), np.errstate(over="ignore"):
            estimate_lfrc([X], [None], spec, n_draws=2, seed=0)


class TestRawSigns:
    """The signs estimate_lfrc builds from raw words are the ones
    `Generator.integers(0, 2)` draws on the same stream."""

    def test_signs_are_integers_draws(self):
        # odd and even counts in turn: an odd count leaves a half-word,
        # which the next call takes first
        bitgen = np.random.default_rng(17).bit_generator
        twin = np.random.default_rng(17)
        spare = np.empty(0, dtype="<u4")
        drawn = 0
        for n in (1, 2, 3, 7, 8, 1, 1, 64, 1025, 4, 5, 2**17 + 1):
            signs, spare = lfrc._signs(bitgen, n, spare)
            drawn += n
            assert spare.size == drawn % 2
            assert np.array_equal(signs, twin.integers(0, 2, size=n) * 2.0 - 1.0)

    @pytest.mark.parametrize("sign_block, sizes, n_draws", [
        (7 * 21, (9, 5, 7), 20),     # odd blocks of 147 signs: blocks 7, 7, 6
        (2 * 25, (7, 13, 5), 5),     # even blocks of 50 signs, then one draw
        (1, (2**17 + 1,), 3),        # one odd draw per block
    ])
    def test_block_signs_are_the_per_draw_integers_calls(self, monkeypatch, sign_block,
                                                         sizes, n_draws):
        monkeypatch.setattr(lfrc, "_SIGN_BLOCK", sign_block)
        zetas = []
        aggregates = lfrc._aggregates

        def spy(zeta, X):
            zetas.append(zeta.copy())
            return aggregates(zeta, X)

        monkeypatch.setattr(lfrc, "_aggregates", spy)
        rng = np.random.default_rng(3)
        feats = [rng.normal(size=(m, 2)) for m in sizes]
        spec = spec_for([second_moment_matrix(X) for X in feats], r=0.5)
        estimate_lfrc(feats, [None] * len(sizes), spec, n_draws=n_draws, seed=11)
        twin = np.random.default_rng(11)
        want = [[] for _ in sizes]
        for _ in range(n_draws):
            for k, m in enumerate(sizes):
                want[k].append(twin.integers(0, 2, size=m) * 2.0 - 1.0)
        for k in range(len(sizes)):
            got = np.vstack(zetas[k::len(sizes)])
            assert np.array_equal(got, np.array(want[k]))


class TestMultiplierSearch:
    def test_certify_shape_takes_few_evaluations(self, monkeypatch):
        # 22 x 22 pairs, D = 72, 500 draws, r = 0.2 tr(S) / D: nearly every
        # row is in the both-active case, and the Newton search evaluates a
        # row about 6 times on average (Brent with its bracketing ladder
        # took about 20).  An evaluation takes four row dots.
        rows, dots = [], []
        row_dot, multiplier = lfrc._row_dot, lfrc._multiplier

        def counting_dot(A, B):
            dots.append(len(A))
            return row_dot(A, B)

        def counting_multiplier(CT, *args):
            rows.append(len(CT))
            dots.clear()
            root = multiplier(CT, *args)
            rows.append(sum(dots) / 4)
            return root

        monkeypatch.setattr(lfrc, "_row_dot", counting_dot)
        monkeypatch.setattr(lfrc, "_multiplier", counting_multiplier)
        X = pair_features(np.random.default_rng(7), 22, 22, 72)
        S = second_moment_matrix(X)
        spec = spec_for([S], m_tilde=1.0, r=0.2 * float(np.trace(S)) / 72)
        estimate_lfrc([X], [None], spec, n_draws=500, seed=7)
        assert rows[0] > 400
        assert rows[1] / rows[0] <= 10.0

    def test_estimate_does_not_depend_on_the_blas_thread_count(self):
        # A single product over the task's 484 samples is summed in chunks
        # that depend on the OpenBLAS thread count, and the estimates below
        # then differ in their last bits between 1 and 2 threads.
        code = (
            "import math, numpy as np\n"
            "from gdbound import lfrc\n"
            "for seed in range(4):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    scales = np.geomspace(0.05, 1.5, 72)\n"
            "    pos = rng.normal(size=(22, 72)) * scales + 0.2 * scales\n"
            "    neg = rng.normal(size=(22, 72)) * scales\n"
            "    X = (pos[:, None, :] - neg[None, :, :]).reshape(484, 72)\n"
            "    S = lfrc.second_moment_matrix(X)\n"
            "    for r in (0.2 * float(np.trace(S)) / 72, math.inf):\n"
            "        for n in (30, 500):\n"
            "            spec = lfrc.LinearClassSpec(1.0, (S,), r)\n"
            "            est = lfrc.estimate_lfrc([X], [None], spec, n_draws=n, seed=seed)\n"
            "            print(*map(float.hex, est))\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, check=True, env=env)
            outputs.append(proc.stdout)
        assert len(outputs[0].splitlines()) == 16
        assert outputs[0] == outputs[1]


class TestDualitySandwich:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), rank=st.integers(0, 4),
           s_exp=st.integers(-6, 6), c_exp=st.integers(-6, 6), m_exp=st.integers(-3, 3),
           r_exp=st.integers(-4, 1))
    def test_value_lies_between_a_feasible_point_and_every_dual_bound(
            self, seed, d, rank, s_exp, c_exp, m_exp, r_exp):
        # S = B B' of rank min(rank, d), its spectrum spread over four
        # decades; the value is at most sqrt((m^2 + a r) c'(I + a S)^-1 c)
        # for every a >= 0 (weak duality) and at least c.theta at the
        # projected-gradient iterate scaled into the constraint set
        rng = np.random.default_rng(seed)
        k = min(rank, d)
        B = rng.normal(size=(d, k)) * 10.0 ** rng.uniform(-1, 1, size=k)
        S = 10.0**s_exp * (B @ B.T)
        c = 10.0**c_exp * rng.normal(size=d)
        m_tilde = 10.0**m_exp
        r = 10.0**r_exp * 10.0**s_exp * (max(float(np.trace(B @ B.T)), 1.0) / d)
        value = lfrc._sup_rows(c[None], eig(S), m_tilde, r)[0]
        lam, Q = np.linalg.eigh(S)
        lam = np.clip(lam, 0.0, None)
        ct = Q.T @ c
        for a in np.concatenate(([0.0], 10.0 ** rng.uniform(-8, 8, 12) / 10.0**s_exp)):
            bound = math.sqrt((m_tilde**2 + a * r) * float(np.sum(ct**2 / (1.0 + a * lam))))
            assert value <= bound * (1 + 1e-14)
        assert value >= pga_feasible_value(c, S, m_tilde, r) * (1 - 1e-14)


class TestStderr:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 9), d=st.integers(1, 4),
           n_draws=st.integers(2, 40), shift=st.integers(0, 1000))
    def test_stderr_is_the_std_and_scales_exactly(self, seed, m, d, n_draws, shift):
        # With r = inf each per-draw value is m_tilde |c| / K, so
        # m_tilde = 2^shift scales every value, the estimate and the stderr
        # by exactly 2^shift, also where the squares of the values overflow;
        # at m_tilde = 1 the stderr is the oracle's plain vals.std(ddof=1),
        # to 1e-12 (the aggregates come from a matrix product, the oracle's
        # from one vector product per draw).
        X = np.random.default_rng(seed).normal(size=(m, d))
        S = [second_moment_matrix(X)]
        est, stderr = estimate_lfrc([X], [None], spec_for(S), n_draws=n_draws, seed=seed)
        want = loop_estimate_lfrc([X], [None], spec_for(S), n_draws=n_draws, seed=seed)
        np.testing.assert_allclose((est, stderr), want, rtol=1e-12, atol=0)
        scaled = estimate_lfrc([X], [None], spec_for(S, m_tilde=2.0**shift),
                               n_draws=n_draws, seed=seed)
        assert scaled == (math.ldexp(est, shift), math.ldexp(stderr, shift))


class TestFixedPoint:
    def test_pure_sqrt(self):
        h = SubRootHandle(fn=math.sqrt)
        assert fixed_point(h) == pytest.approx(1.0, abs=1e-9)

    def test_affine_sqrt_closed_form(self):
        h = SubRootHandle(fn=lambda r: 2.0 * math.sqrt(r) + 3.0)
        r_star = fixed_point(h)
        assert r_star == pytest.approx(9.0, abs=1e-9)
        assert r_star == pytest.approx(sqrt_affine_fixed_point(2.0, 3.0), abs=1e-9)

    def test_scaled_sqrt(self):
        h = SubRootHandle(fn=lambda r: 0.5 * math.sqrt(r))
        assert fixed_point(h) == pytest.approx(0.25, abs=1e-10)

    def test_residual_tolerance_contract(self):
        h = SubRootHandle(fn=lambda r: 3.3 * math.sqrt(r) + 0.7)
        tol = 1e-10
        r = fixed_point(h, tol=tol)
        assert abs(h.fn(r) - r) <= tol * max(1.0, r)

    def test_lemma_directions_on_grid(self):
        # f(r) >= r below the fixed point, f(r) <= r above it
        a, b = 1.3, 2.1
        h = SubRootHandle(fn=lambda r: a * math.sqrt(r) + b)
        r_star = fixed_point(h)
        for r in np.geomspace(r_star * 1e-4, r_star * 0.999, 25):
            assert h.fn(r) >= r
        for r in np.geomspace(r_star * 1.001, r_star * 1e4, 25):
            assert h.fn(r) <= r

    def test_non_sub_root_rejected(self):
        with pytest.raises(DomainError):
            fixed_point(SubRootHandle(fn=lambda r: r * r, r_hi=10.0))

    def test_trivial_zero_rejected(self):
        with pytest.raises(DomainError):
            fixed_point(SubRootHandle(fn=lambda r: 0.0))

    def test_decreasing_rejected(self):
        with pytest.raises(DomainError):
            fixed_point(SubRootHandle(fn=lambda r: 1.0 / (1.0 + r), r_hi=10.0))

    NOT_FINITE = {"nan": lambda r: math.nan, "inf": lambda r: math.inf,
                  "nan above 1": lambda r: math.sqrt(r) if r < 1.0 else math.nan}

    @pytest.mark.parametrize("name", NOT_FINITE)
    def test_non_finite_grid_value_rejected(self, name):
        # nan fails every comparison, so each sub-root test would pass it
        handle = SubRootHandle(fn=self.NOT_FINITE[name], r_hi=10.0)
        with pytest.raises(DomainError, match="nan or infinite on the grid"):
            handle.grid_check()
        with pytest.raises(DomainError, match="nan or infinite on the grid"):
            fixed_point(handle)

    def test_nan_beyond_the_grid_rejected(self):
        # f(10) = 316.2 lies above the grid, where f is nan
        handle = SubRootHandle(fn=lambda r: 100.0 * math.sqrt(r) if r <= 20.0 else math.nan,
                               r_hi=10.0)
        handle.grid_check()
        with pytest.raises(DomainError, match=r"function is nan at r = 316\.2"):
            fixed_point(handle)

    def test_reused_handle_is_checked_again(self):
        # a handle solved once is checked again after its function changes
        h = SubRootHandle(fn=math.sqrt)
        assert fixed_point(h) == pytest.approx(1.0, abs=1e-9)
        h.fn = lambda r: 1.0 / (1.0 + r)
        with pytest.raises(DomainError, match="decreasing"):
            fixed_point(h)

    def test_large_fixed_point_beyond_r_hi(self):
        # the iteration climbs from r_hi past it to r*
        h = SubRootHandle(fn=lambda r: 2e4 * math.sqrt(r), r_hi=1e3)
        assert fixed_point(h) == pytest.approx(4e8, rel=1e-9)

    @pytest.mark.parametrize("r_hi", [1e90, 1e200, 1e300])
    def test_fixed_point_far_below_r_hi(self, r_hi):
        # each step of r <- sqrt(r) halves log r, so the iteration reaches
        # r* = 1 within log2(log(r_hi) / tol) steps after the grid check
        calls = []

        def fn(r):
            calls.append(r)
            return math.sqrt(r)

        r = fixed_point(SubRootHandle(fn=fn, r_hi=r_hi))
        assert abs(r - 1.0) <= 1e-10
        assert len(calls) <= lfrc._GRID_POINTS + math.log2(r_hi) + 60

    @pytest.mark.parametrize("r_hi", [1e-310, 1e-302, 1e-298, 1e290, 1e299, 1e302, 1e308])
    def test_range_refusal_does_not_depend_on_r_hi(self, r_hi):
        # r* = a^2: found inside [1e-300, 1e300] from every start, refused
        # outside it from every start
        for a, found in [(1e-149, True), (1e149, True), (1e-151, False), (1e151, False)]:
            handle = SubRootHandle(fn=lambda r: a * math.sqrt(r), r_hi=r_hi)
            if found:
                assert fixed_point(handle) == pytest.approx(a * a, rel=1e-10)
            else:
                with pytest.raises(InvariantError, match="no fixed point"):
                    fixed_point(handle)

    @pytest.mark.parametrize("r_hi", [math.nan, math.inf, 0.0, -1.0, 1e-320])
    def test_bad_r_hi_rejected(self, r_hi):
        with pytest.raises(DomainError, match="r_hi"):
            SubRootHandle(fn=math.sqrt, r_hi=r_hi)
        handle = SubRootHandle(fn=math.sqrt)
        handle.r_hi = r_hi
        with pytest.raises(DomainError, match="r_hi"):
            fixed_point(handle)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10, 1.0, 10.0])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(DomainError, match="tol"):
            fixed_point(SubRootHandle(fn=math.sqrt), tol=tol)


def _powers(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


class TestFixedPointIteration:
    """`fixed_point` on two families with a closed-form r*: a sqrt(r) + b, and
    the certify workload's sqrt(c sum_j min(r, lam_j))."""

    TOLS = st.sampled_from([1e-10, 1e-6, 1e-2])
    R_HI = _powers(-10, 250)

    @staticmethod
    def check(fn, r_hi, tol, exact):
        calls = []

        def counted(r):
            calls.append(r)
            return fn(r)

        r = fixed_point(SubRootHandle(fn=counted, r_hi=r_hi), tol=tol)
        steps = np.diff(calls[lfrc._GRID_POINTS:])
        assert (steps >= 0).all() or (steps <= 0).all(), "iterates not monotone"
        assert abs(fn(r) - r) <= tol * r / 2
        assert abs(r - exact) <= tol * exact
        assert len(calls) <= lfrc._GRID_POINTS + 50
        # the replaced search, within its own tolerance
        assert abs(r - bisect_fixed_point(fn, r_hi, tol)) <= 2 * tol * max(1.0, exact)

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(a=_powers(-12, 6), b=st.one_of(st.just(0.0), _powers(-24, 8)), r_hi=R_HI,
           tol=TOLS)
    def test_sqrt_affine(self, a, b, r_hi, tol):
        self.check(lambda r: a * math.sqrt(r) + b, r_hi, tol, sqrt_affine_fixed_point(a, b))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(c=_powers(-6, 2), lams=st.lists(_powers(-12, 6), min_size=1, max_size=12),
           r_hi=R_HI, tol=TOLS)
    def test_sqrt_min_sum(self, c, lams, r_hi, tol):
        lam = np.array(lams)
        self.check(lambda r: math.sqrt(c * float(np.minimum(r, lam).sum())), r_hi, tol,
                   sqrt_min_sum_fixed_point(c, lams))


class TestLinearClassSpec:
    @pytest.mark.parametrize("m_tilde", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_m_tilde(self, m_tilde):
        with pytest.raises(DomainError, match="m_tilde"):
            spec_for([np.eye(2)], m_tilde=m_tilde)

    @pytest.mark.parametrize("r", [math.nan, 0.0, -1.0, -math.inf])
    def test_bad_radius(self, r):
        with pytest.raises(DomainError, match="radius"):
            spec_for([np.eye(2)], r=r)

    def test_infinite_radius_allowed(self):
        assert spec_for([np.eye(2)], r=math.inf).r == math.inf

    def test_non_finite_second_moment(self):
        with pytest.raises(DomainError, match="non-finite"):
            spec_for([np.array([[1.0, np.inf], [np.inf, 1.0]])])

    @pytest.mark.parametrize("r", [0.05, math.inf])
    def test_one_decomposition_per_task_per_spec(self, monkeypatch, r):
        # two tasks of 9 and 5 samples, 4 draws per block, 11 draws: three
        # blocks, then three sup_linear calls; eigh runs once per task when
        # the spec is built with r finite, and never with r = inf, and the
        # blocked estimate equals the one-block run bit for bit
        rng = np.random.default_rng(36)
        feats = [pair_features(rng, 3, 3, 4), pair_features(rng, 1, 5, 4)]
        whole = estimate_lfrc(feats, [None] * 2, spec_for(
            [second_moment_matrix(X) for X in feats], m_tilde=1.1, r=r), n_draws=11, seed=3)
        calls = []

        def counted(a, *args, **kw):
            calls.append(a.shape)
            return eigh(a, *args, **kw)

        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", counted)
        monkeypatch.setattr(lfrc, "_SIGN_BLOCK", 4 * 14)
        spec = spec_for([second_moment_matrix(X) for X in feats], m_tilde=1.1, r=r)
        blocked = estimate_lfrc(feats, [None] * 2, spec, n_draws=11, seed=3)
        for c_list in zip(*(aggregates(rng, X, 3) for X in feats)):
            sup_linear(list(c_list), spec)
        assert calls == ([(4, 4)] * 2 if math.isfinite(r) else [])
        assert blocked == whole

    def test_decomposition_is_float64(self):
        # a float32 S is decomposed in float64, as every supremum reads it
        S = np.diag([2.0, 1.0, 0.5]).astype(np.float32)
        lam, Q = LinearClassSpec(m_tilde=1.0, second_moments=(S,), r=0.1).eigen[0]
        assert lam.dtype == Q.dtype == np.float64
        assert lam.tolist() == [0.5, 1.0, 2.0]

    def test_width_must_match_the_second_moment(self, monkeypatch):
        # S comes from X in every CLI command, so only a library caller can
        # pair a task's rows with an S of another order; both entry points
        # refuse it, naming the task, before any sign is drawn
        monkeypatch.setattr(lfrc, "_signs", None)
        X = np.ones((10, 3))
        spec = spec_for([np.eye(3), np.eye(4)], r=0.1)
        with pytest.raises(StructuralError, match=r"task 1: rows of shape \(3,\)"):
            estimate_lfrc([X, X], [None] * 2, spec, n_draws=5, seed=0)
        with pytest.raises(StructuralError, match=r"task 1: rows of shape \(3,\)"):
            sup_linear([np.ones(3), np.ones(3)], spec)


def test_import_does_not_load_scipy_optimize():
    code = ("import sys, gdbound.lfrc; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"
