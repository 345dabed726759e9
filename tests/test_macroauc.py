import math

import numpy as np
import pytest

from gdbound.errors import (
    ConfigError,
    DegenerateLabelError,
    DomainError,
    FormatError,
    ParseError,
    StateError,
    UndefinedMetricError,
)
from gdbound import macroauc
from gdbound.graphdep import bipartite_ranking_graph, validate_cover
from gdbound.macroauc import (
    LinearRanker,
    MultiLabelDataset,
    TrainConfig,
    cv_select,
    load_dataset,
    average_ranks,
    macro_auc,
    pair_transform,
    report_bounds,
    run_experiment,
    save_dataset,
    split_train_test,
    train_many,
    train_sgd,
)

from scipy.stats import rankdata

from oracles import brute_force_macro_auc, loop_cv_select, loop_train_sgd, \
    rankdata_macro_auc
from synthdata import cal500_like, emotions_like, linear_teacher_dataset, small_separable


def make_dataset(X, Y):
    return MultiLabelDataset(np.asarray(X, dtype=float), np.asarray(Y, dtype=np.int8))


TOY = """#samples=2 #features=2 #labels=1
0\t0:1.0 1:2.0
\t1:0.5
"""


class TestLoadDataset:
    def test_toy_file(self, tmp_path):
        path = tmp_path / "toy.mlsvm"
        path.write_text(TOY)
        ds = load_dataset(path)
        assert ds.n_samples == 2 and ds.n_features == 2 and ds.n_labels == 1
        assert ds.labels[0, 0] == 1
        assert ds.labels[1, 0] == -1  # empty label field means all negative
        assert ds.features[0, 1] == 2.0
        assert ds.features[1, 1] == 0.5

    def test_feature_index_out_of_range(self, tmp_path):
        path = tmp_path / "bad.mlsvm"
        path.write_text("#samples=1 #features=2 #labels=1\n0\t2:1.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path)

    def test_label_index_out_of_range(self, tmp_path):
        path = tmp_path / "bad.mlsvm"
        path.write_text("#samples=1 #features=2 #labels=1\n1\t0:1.0\n")
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_sample_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.mlsvm"
        path.write_text("#samples=3 #features=2 #labels=1\n0\t0:1.0\n")
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_malformed_feature_token(self, tmp_path):
        path = tmp_path / "bad.mlsvm"
        path.write_text("#samples=1 #features=2 #labels=1\n0\t0=1.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.mlsvm"
        path.write_text("#rows=1 #features=2 #labels=1\n")
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_header_without_equals(self, tmp_path):
        path = tmp_path / "bad.mlsvm"
        path.write_text("# samples 1 #features=2 #labels=1\n0\t0:1.0\n")
        with pytest.raises(FormatError, match="bad header line"):
            load_dataset(path)

    def test_missing_file_names_path(self, tmp_path):
        path = tmp_path / "absent.mlsvm"
        with pytest.raises(FormatError, match="absent.mlsvm"):
            load_dataset(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_feature_value(self, tmp_path, value):
        path = tmp_path / "bad.mlsvm"
        path.write_text(f"#samples=2 #features=2 #labels=1\n0\t0:1.0\n\t1:{value}\n")
        with pytest.raises(ParseError, match="line 3"):
            load_dataset(path)

    def test_repeated_feature_index_sums(self, tmp_path):
        path = tmp_path / "rep.mlsvm"
        path.write_text("#samples=1 #features=2 #labels=1\n0\t0:1.0 0:2.0\n")
        ds = load_dataset(path)
        assert ds.features[0, 0] == 3.0 and ds.features[0, 1] == 0.0

    def test_header_wider_than_indices_used(self, tmp_path):
        path = tmp_path / "wide.mlsvm"
        path.write_text("#samples=2 #features=5 #labels=1\n0\t0:1.0\n\t1:2.0\n")
        ds = load_dataset(path)
        assert ds.n_features == 5
        assert all(ds.features[i, j] == 0.0 for i in range(2) for j in range(2, 5))

    def test_empty_feature_part_is_a_zero_row(self, tmp_path):
        path = tmp_path / "empty.mlsvm"
        path.write_text("#samples=3 #features=2 #labels=2\n0,1\n1\t\n\t1:4.0\n")
        ds = load_dataset(path)
        assert ds.n_samples == 3 and ds.labels[0].tolist() == [1, 1]
        assert all(ds.features[i, j] == 0.0 for i in range(2) for j in range(2))
        assert ds.features[2, 1] == 4.0

    @pytest.mark.parametrize("d, k, ok", [(3, 1, True), (1, 3, True),
                                          (4, 1, False), (1, 4, False)])
    def test_header_cells_capped(self, tmp_path, monkeypatch, d, k, ok):
        monkeypatch.setattr(macroauc, "MAX_CELLS", 6)
        path = tmp_path / "cap.mlsvm"
        path.write_text(f"#samples=2 #features={d} #labels={k}\n0\t0:1.0\n\t0:2.0\n")
        if ok:
            ds = load_dataset(path)
            assert (ds.n_samples, ds.n_features, ds.n_labels) == (2, d, k)
        else:
            with pytest.raises(FormatError, match="must not exceed 6"):
                load_dataset(path)

    def test_trailing_all_negative_zero_row_round_trips(self, tmp_path):
        # save_dataset writes the last sample as a lone tab
        ds = make_dataset([[1.0, 0.0], [0.0, 0.0]], [[1], [-1]])
        path = tmp_path / "zero_tail.mlsvm"
        save_dataset(ds, path)
        assert path.read_text().endswith("\n\t\n")
        back = load_dataset(path)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.features, ds.features)

    def test_trailing_blank_lines_are_padding(self, tmp_path):
        path = tmp_path / "padded.mlsvm"
        path.write_text("#samples=2 #features=1 #labels=1\n0\t0:1.0\n\t0:2.0\n\n  \n\n")
        ds = load_dataset(path)
        assert ds.n_samples == 2 and ds.features[:, 0].tolist() == [1.0, 2.0]

    def test_round_trip(self, tmp_path):
        ds = small_separable(n=15, d=4, k=3, seed=2)
        path = tmp_path / "rt.mlsvm"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(back.labels, ds.labels)
        assert np.allclose(back.features, ds.features)


class TestPairTransform:
    def test_counts_example(self):
        Y = -np.ones((10, 1), dtype=np.int8)
        Y[:3, 0] = 1
        ds = make_dataset(np.zeros((10, 2)), Y)
        task = pair_transform(ds, 0)
        assert task.tau == pytest.approx(0.3)
        assert task.m_pairs == 21
        assert task.chi == 7
        # m_k = n~^2 tau (1 - tau)
        assert task.m_pairs == pytest.approx(100 * 0.3 * 0.7)
        assert task.chi == pytest.approx((1 - task.tau) * 10)

    def test_minimal_example(self):
        Y = np.array([[1], [-1]], dtype=np.int8)
        ds = make_dataset(np.zeros((2, 1)), Y)
        task = pair_transform(ds, 0)
        assert task.tau == 0.5 and task.m_pairs == 1 and task.chi == 1

    def test_all_positive_excluded(self):
        Y = np.ones((4, 1), dtype=np.int8)
        ds = make_dataset(np.zeros((4, 1)), Y)
        with pytest.raises(DegenerateLabelError):
            pair_transform(ds, 0)

    def test_dependency_graph_matches_counts(self):
        Y = -np.ones((5, 1), dtype=np.int8)
        Y[:2, 0] = 1
        ds = make_dataset(np.zeros((5, 1)), Y)
        task = pair_transform(ds, 0)
        graph, cover = bipartite_ranking_graph(task.pos_idx.size, task.neg_idx.size)
        assert graph.n_vertices == task.m_pairs
        assert cover.total_weight == task.chi
        assert validate_cover(graph, cover).ok

    def test_identities_hold_on_synthetic_labels(self):
        ds = small_separable(n=40, d=3, k=4, seed=9)
        for k in range(ds.n_labels):
            task = pair_transform(ds, k)
            n_pos = (ds.labels[:, k] == 1).sum()
            n_neg = 40 - n_pos
            assert task.m_pairs == n_pos * n_neg
            assert task.chi == max(n_pos, n_neg)
            assert task.m_pairs == pytest.approx(
                40**2 * task.tau * (1 - task.tau))


class TestTrainSgd:
    def test_two_updates_on_single_pair(self):
        # diff = (1, 0): margin stays < 1 for both sampled pairs in the
        # epoch, so w gains lr * diff twice
        X = np.array([[1.0, 0.0], [0.0, 0.0]])
        Y = np.array([[1], [-1]], dtype=np.int8)
        ds = make_dataset(X, Y)
        ranker = train_sgd(ds, TrainConfig(lr=0.05, epochs=1, weight_decay=0.0,
                                           seed=0))
        assert np.allclose(ranker.weights[0], [0.1, 0.0])

    def test_update_stops_at_margin(self):
        # diff = (10, 0): the first update reaches margin 5 >= 1, the second
        # sampled pair leaves w unchanged
        X = np.array([[10.0, 0.0], [0.0, 0.0]])
        Y = np.array([[1], [-1]], dtype=np.int8)
        ds = make_dataset(X, Y)
        ranker = train_sgd(ds, TrainConfig(lr=0.05, epochs=1, seed=0))
        assert np.allclose(ranker.weights[0], [0.5, 0.0])

    def test_margin_of_exactly_one_stops_updates(self):
        # lr = 0.5, diff = (1, 0): w reaches (1, 0) after two steps, the
        # margin is then exactly 1 and the last two steps leave w alone
        X = np.array([[1.0, 0.0], [0.0, 0.0]])
        Y = np.array([[1], [-1]], dtype=np.int8)
        ranker = train_sgd(make_dataset(X, Y), TrainConfig(lr=0.5, epochs=2, seed=0))
        assert np.array_equal(ranker.weights[0], [1.0, 0.0])

    def test_zero_data_stays_zero_with_decay(self):
        X = np.zeros((4, 3))
        Y = np.array([[1], [1], [-1], [-1]], dtype=np.int8)
        ds = make_dataset(X, Y)
        ranker = train_sgd(ds, TrainConfig(lr=0.05, epochs=3, weight_decay=0.1,
                                           seed=1))
        assert np.allclose(ranker.weights, 0.0)

    def test_single_step_never_increases_pair_loss(self):
        # the update rule applied to the pair it just saw cannot increase
        # that pair's hinge loss (lambda = 0, lr = 0.05)
        rng = np.random.default_rng(3)
        lr = 0.05
        for _ in range(200):
            d = int(rng.integers(1, 6))
            w = rng.normal(size=d)
            diff = rng.normal(size=d)
            margin = w @ diff
            w_next = w + lr * diff if margin < 1.0 else w.copy()
            loss_before = max(0.0, 1.0 - margin)
            loss_after = max(0.0, 1.0 - w_next @ diff)
            assert loss_after <= loss_before + 1e-12

    def test_degenerate_labels_recorded(self):
        X = np.ones((3, 2))
        Y = np.array([[1, 1], [1, -1], [1, 1]], dtype=np.int8)
        ds = make_dataset(X, Y)
        ranker = train_sgd(ds, TrainConfig(epochs=1, seed=0))
        assert ranker.excluded_labels == (0,)
        assert np.allclose(ranker.weights[0], 0.0)

    def test_determinism(self):
        ds = small_separable(n=30, d=5, k=2, seed=4)
        cfg = TrainConfig(epochs=5, weight_decay=1e-3, seed=17)
        w1 = train_sgd(ds, cfg).weights
        w2 = train_sgd(ds, cfg).weights
        assert np.array_equal(w1, w2)

    def test_config_validation(self):
        with pytest.raises(Exception):
            TrainConfig(lr=0.0)
        with pytest.raises(Exception):
            TrainConfig(epochs=0)

    def test_m_bar_measured_on_training_rows(self):
        X = np.array([[3.0, 4.0], [1.0, 0.0]])
        Y = np.array([[1], [-1]], dtype=np.int8)
        ranker = train_sgd(make_dataset(X, Y), TrainConfig(epochs=1, seed=0))
        assert ranker.m_bar == pytest.approx(5.0)


def _shaped(shape, seed):
    return emotions_like(seed=seed) if shape == "emotions" else cal500_like(seed=seed)


def _assert_same_ranker(ranker, oracle):
    assert np.array_equal(ranker.weights, oracle.weights)
    assert ranker.m_bar == oracle.m_bar
    assert ranker.excluded_labels == oracle.excluded_labels
    assert ranker.config == oracle.config


class TestTrainMany:
    """The lockstep engine against the one-label-at-a-time loop it replaced,
    bit for bit."""

    @pytest.mark.parametrize("shape", ["emotions", "cal500"])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3, 0.1])
    def test_train_sgd_matches_loop_oracle(self, shape, weight_decay):
        ds = _shaped(shape, seed=1)
        for seed in (0, 7):
            cfg = TrainConfig(epochs=2, weight_decay=weight_decay, seed=seed)
            _assert_same_ranker(train_sgd(ds, cfg), loop_train_sgd(ds, cfg))

    @pytest.mark.parametrize("shape", ["emotions", "cal500"])
    def test_ragged_jobs_match_loop_oracle(self, shape):
        # row counts, epochs, lr and decay all differ between jobs, so
        # chains leave the lockstep at different steps and epochs
        ds = _shaped(shape, seed=2)
        n = ds.n_samples
        rng = np.random.default_rng(5)
        specs = [(n, 2, 0.0, 0.05, 1), (2 * n // 3, 3, 1e-2, 0.05, 2),
                 (n // 2, 1, 1e-4, 0.1, 3), (4, 2, 0.1, 0.05, 4),
                 (n // 3 + 1, 2, 0.0, 0.02, 5)]
        jobs = [(np.sort(rng.permutation(n)[:rows]),
                 TrainConfig(lr=lr, epochs=epochs, weight_decay=wd, seed=seed))
                for rows, epochs, wd, lr, seed in specs]
        rankers = train_many(ds, jobs)
        assert len(rankers) == len(jobs)
        for (rows, cfg), ranker in zip(jobs, rankers):
            _assert_same_ranker(ranker, loop_train_sgd(ds.subset(rows), cfg))
        if shape == "cal500":
            assert any(r.excluded_labels for r in rankers)

    def test_degenerate_label_excluded_per_job(self):
        X = np.arange(12.0).reshape(6, 2)
        Y = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1], [1, 1], [-1, 1]],
                     dtype=np.int8)
        ds = make_dataset(X, Y)
        cfg = TrainConfig(epochs=3, weight_decay=1e-2, seed=9)
        # label 1 is all positive on rows 0, 2, 4 and all negative on rows
        # 1, 3; label 0 is all positive on rows 0, 1, 4
        jobs = [(np.array([0, 2, 4, 1]), cfg), (np.array([0, 2, 4]), cfg),
                (np.array([1, 3]), cfg), (np.array([0, 1, 4]), cfg),
                (np.arange(6), cfg)]
        rankers = train_many(ds, jobs)
        assert [r.excluded_labels for r in rankers] == [(), (1,), (1,), (0,), ()]
        for (rows, _), ranker in zip(jobs, rankers):
            _assert_same_ranker(ranker, loop_train_sgd(ds.subset(rows), cfg))

    @pytest.mark.parametrize("shape, seed", [("emotions", 0), ("emotions", 3),
                                             ("cal500", 1), ("cal500", 4)])
    def test_cv_select_matches_loop_oracle(self, shape, seed):
        ds = _shaped(shape, seed=seed)
        cfg = TrainConfig(epochs=2, seed=seed)
        lam, ranker = cv_select(ds, grid=(0.0, 1e-3, 0.1), folds=3, config=cfg)
        oracle_lam, oracle = loop_cv_select(ds, grid=(0.0, 1e-3, 0.1), folds=3,
                                            config=cfg)
        assert lam == oracle_lam
        _assert_same_ranker(ranker, oracle)

    def test_skipped_folds_warn_as_the_oracle_does(self):
        # one label with two positives in twelve rows: at least two of the
        # four validation folds hold no positive and are skipped
        X = np.random.default_rng(4).normal(size=(12, 3))
        Y = -np.ones((12, 1), dtype=np.int8)
        Y[[1, 7]] = 1
        ds = make_dataset(X, Y)
        cfg = TrainConfig(epochs=3, seed=6)
        with pytest.warns(UserWarning) as caught:
            lam, ranker = cv_select(ds, grid=(1e-3, 1e-2), folds=4, config=cfg)
        with pytest.warns(UserWarning) as oracle_caught:
            oracle_lam, oracle = loop_cv_select(ds, grid=(1e-3, 1e-2), folds=4,
                                                config=cfg)
        messages = [str(w.message) for w in caught]
        assert messages == [str(w.message) for w in oracle_caught]
        assert len(messages) >= 4 and all("skipped" in m for m in messages)
        assert lam == oracle_lam
        _assert_same_ranker(ranker, oracle)

    @pytest.mark.parametrize("shape", ["emotions", "cal500"])
    def test_run_experiment_matches_loop_pipeline(self, shape):
        # all seeds train in one call; each must equal its own split,
        # looped CV and report
        ds = _shaped(shape, seed=3)
        res = run_experiment(ds, seeds=(0, 1), epochs=2)
        for i, seed in enumerate((0, 1)):
            train, test = split_train_test(ds, seed)
            lam, ranker = loop_cv_select(train, config=TrainConfig(epochs=2, seed=seed))
            assert res.lambda_selected[i] == lam
            assert res.reports[i] == report_bounds(train, ranker).to_dict()
            assert res.test_macro_auc[i] == macro_auc(ranker, test)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_raises_domain_error(self, value):
        X = np.ones((4, 2))
        X[2, 1] = value
        ds = make_dataset(X, [[1], [-1], [1], [-1]])
        with pytest.raises(DomainError, match="non-finite"):
            train_sgd(ds, TrainConfig(epochs=1))
        with pytest.raises(DomainError, match="non-finite"):
            cv_select(ds, grid=(1e-3,), folds=2, config=TrainConfig(epochs=1))

    @pytest.mark.parametrize("rows", [[], [0, -1], [3, 10]])
    def test_empty_or_out_of_range_job_rejected(self, rows):
        ds = small_separable(n=10, d=2, k=1, seed=0)
        with pytest.raises(DomainError):
            train_many(ds, [(np.arange(10), TrainConfig(epochs=1)),
                            (np.array(rows, dtype=int), TrainConfig(epochs=1))])

    def test_no_jobs(self):
        assert train_many(small_separable(n=10, d=2, k=1, seed=0), []) == []

    @pytest.mark.parametrize("kw", [dict(lr=math.nan), dict(lr=math.inf),
                                    dict(weight_decay=math.nan),
                                    dict(weight_decay=math.inf)])
    def test_config_rejects_non_finite(self, kw):
        with pytest.raises(ConfigError, match="finite"):
            TrainConfig(**kw)

    @pytest.mark.parametrize("folds", [-1, 0, 1])
    def test_cv_needs_two_folds(self, folds):
        ds = small_separable(n=10, d=2, k=1, seed=0)
        with pytest.raises(ConfigError, match="folds"):
            cv_select(ds, folds=folds, config=TrainConfig(epochs=1))


class TestMacroAuc:
    def test_perfect_separation(self):
        Y = np.array([[1], [1], [-1], [-1]], dtype=np.int8)
        scores = np.array([[4.0], [3.0], [2.0], [1.0]])
        ds = make_dataset(np.zeros((4, 1)), Y)
        assert macro_auc(scores, ds) == 1.0

    def test_reversed_scores(self):
        Y = np.array([[1], [1], [-1], [-1]], dtype=np.int8)
        scores = np.array([[1.0], [2.0], [3.0], [4.0]])
        ds = make_dataset(np.zeros((4, 1)), Y)
        assert macro_auc(scores, ds) == 0.0

    def test_all_ties(self):
        Y = np.array([[1], [-1], [1], [-1]], dtype=np.int8)
        scores = np.zeros((4, 1))
        ds = make_dataset(np.zeros((4, 1)), Y)
        assert macro_auc(scores, ds) == 0.5

    def test_degenerate_labels_skipped(self):
        Y = np.array([[1, 1], [1, -1]], dtype=np.int8)
        scores = np.array([[0.0, 2.0], [0.0, 1.0]])
        ds = make_dataset(np.zeros((2, 1)), Y)
        assert macro_auc(scores, ds) == 1.0  # only label 1 counted

    def test_all_degenerate_rejected(self):
        Y = np.ones((3, 2), dtype=np.int8)
        ds = make_dataset(np.zeros((3, 1)), Y)
        with pytest.raises(UndefinedMetricError):
            macro_auc(np.zeros((3, 2)), ds)

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n, K = int(rng.integers(5, 50)), int(rng.integers(1, 4))
            Y = np.where(rng.random((n, K)) < 0.4, 1, -1).astype(np.int8)
            # quantized scores force ties
            scores = np.round(rng.normal(size=(n, K)) * 2) / 2.0
            ds = make_dataset(np.zeros((n, 1)), Y)
            try:
                got = macro_auc(scores, ds)
            except UndefinedMetricError:
                continue
            assert got == pytest.approx(brute_force_macro_auc(scores, Y),
                                        rel=1e-12)

    def test_nan_score_gives_nan(self):
        Y = np.array([[1, 1], [-1, 1], [1, -1], [-1, -1]], dtype=np.int8)
        scores = np.array([[1.0, 0.0], [2.0, 1.0], [np.nan, 3.0], [0.0, 2.0]])
        ds = make_dataset(np.zeros((4, 1)), Y)
        assert math.isnan(macro_auc(scores, ds))
        assert math.isnan(rankdata_macro_auc(scores, ds))


def _tie_heavy_matrices():
    """Score matrices that stress tie handling: integer values with many
    ties, constant columns, a single row, +-inf, mixed -0.0/+0.0, nans."""
    rng = np.random.default_rng(31)
    for case in range(600):
        n, k = int(rng.integers(1, 41)), int(rng.integers(1, 9))
        s = rng.integers(-3, 4, size=(n, k)).astype(float)
        kind = case % 6
        if kind == 1:
            s[:, rng.integers(k)] = 2.0
        elif kind == 2:
            s[rng.random((n, k)) < 0.2] = np.inf
            s[rng.random((n, k)) < 0.2] = -np.inf
        elif kind == 3:
            zero = s == 0
            s[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
        elif kind == 4:
            s[rng.random((n, k)) < 0.1] = np.nan
        elif kind == 5:
            s = s[:1]
        yield s


class TestAverageRanks:
    """The one-pass ranks against column-wise scipy `rankdata`, and
    `macro_auc` against the per-label rankdata loop it replaced, bit for bit."""

    def test_matches_columnwise_rankdata(self):
        for s in _tie_heavy_matrices():
            ref = np.column_stack([rankdata(s[:, j], method="average")
                                   for j in range(s.shape[1])])
            assert average_ranks(s).tobytes() == ref.tobytes(), s

    def test_all_equal_and_empty(self):
        assert average_ranks(np.full((5, 2), 7.0)).tolist() == [[3.0, 3.0]] * 5
        assert average_ranks(np.zeros((0, 3))).shape == (0, 3)

    def test_macro_auc_matches_rankdata_oracle(self):
        rng = np.random.default_rng(8)
        for s in _tie_heavy_matrices():
            n, k = s.shape
            # label rates of 0 and 1 make degenerate labels
            rate = rng.choice([0.0, 0.3, 0.5, 1.0], size=k)
            Y = np.where(rng.random((n, k)) < rate, 1, -1).astype(np.int8)
            ds = make_dataset(np.zeros((n, 1)), Y)
            try:
                want = rankdata_macro_auc(s, ds)
            except UndefinedMetricError:
                with pytest.raises(UndefinedMetricError):
                    macro_auc(s, ds)
                continue
            assert np.float64(macro_auc(s, ds)).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("shape", ["emotions", "cal500"])
    def test_ranker_scores_match_rankdata_oracle(self, shape):
        ds = _shaped(shape, seed=4)
        ranker = train_sgd(ds, TrainConfig(epochs=1, weight_decay=1e-3, seed=4))
        assert macro_auc(ranker, ds) == rankdata_macro_auc(ranker, ds)


class TestSplitAndCv:
    def test_split_ratio(self):
        ds = small_separable(n=60, d=4, k=2, seed=1)
        train, test = split_train_test(ds, seed=0)
        assert train.n_samples == 40 and test.n_samples == 20

    def test_split_deterministic_and_disjoint(self):
        ds = small_separable(n=30, d=4, k=2, seed=1)
        t1, _ = split_train_test(ds, seed=5)
        t2, _ = split_train_test(ds, seed=5)
        assert np.allclose(t1.features, t2.features)

    def test_single_value_grid_selected(self):
        ds = small_separable(n=30, d=4, k=2, seed=3)
        lam, ranker = cv_select(ds, grid=(1e-3,), folds=3,
                                config=TrainConfig(epochs=5, seed=0))
        assert lam == 1e-3
        assert ranker.trained

    def test_selects_fitting_lambda_on_separable_data(self):
        # tiny feature scale: heavy decay collapses the weights and hurts
        # validation AUC, so the small decay must win
        ds = linear_teacher_dataset(n=90, d=6, k=2, seed=8, scale=0.05,
                                    pos_rate=(0.4, 0.5), margin_boost=0.02)
        lam, _ = cv_select(ds, grid=(1e-4, 1e-1), folds=3,
                           config=TrainConfig(epochs=40, seed=2))
        assert lam == 1e-4

    def test_seed_reproducibility(self):
        ds = small_separable(n=30, d=4, k=2, seed=3)
        cfg = TrainConfig(epochs=5, seed=11)
        lam1, r1 = cv_select(ds, grid=(1e-3, 1e-2), folds=3, config=cfg)
        lam2, r2 = cv_select(ds, grid=(1e-3, 1e-2), folds=3, config=cfg)
        assert lam1 == lam2
        assert np.array_equal(r1.weights, r2.weights)

    def test_too_few_samples_rejected(self):
        ds = small_separable(n=2, d=2, k=1, seed=0)
        with pytest.raises(DomainError):
            cv_select(ds, folds=3, config=TrainConfig(epochs=1, seed=0))


class TestReportBounds:
    def test_zero_weights_reduce_to_tail_term(self):
        ds = small_separable(n=24, d=4, k=2, seed=5)
        ranker = LinearRanker(weights=np.zeros((2, 4)),
                              config=TrainConfig(epochs=1, seed=0),
                              m_bar=ds.max_row_norm(), trained=True)
        t = math.log(100.0)
        report = report_bounds(ds, ranker, t=t)
        assert report.r_star == 0.0
        taus = [pair_transform(ds, k).tau for k in range(2)]
        expect = (75.0 / 2.0) * sum(1.0 / tau for tau in taus) * t / 24
        assert report.bound_ours == pytest.approx(expect, rel=1e-12)

    def test_overflowing_weight_norm_names_m_tilde(self):
        ranker = LinearRanker(weights=np.full((1, 2), 1e200), config=TrainConfig())
        with pytest.raises(DomainError, match="^m_tilde must be finite"):
            ranker.m_tilde

    def test_untrained_rejected(self):
        ds = small_separable(n=12, d=3, k=1, seed=5)
        ranker = LinearRanker(weights=np.zeros((1, 3)),
                              config=TrainConfig(epochs=1, seed=0))
        with pytest.raises(StateError):
            report_bounds(ds, ranker)

    def test_deterministic(self):
        ds = small_separable(n=30, d=4, k=2, seed=6)
        ranker = train_sgd(ds, TrainConfig(epochs=5, seed=3))
        r1 = report_bounds(ds, ranker)
        r2 = report_bounds(ds, ranker)
        assert r1.to_dict() == r2.to_dict()

    def test_doubling_n_decreases_both_bounds(self):
        # duplicate every sample: same taus, same norms, doubled n~
        ds = small_separable(n=24, d=4, k=2, seed=7)
        X = ds.features
        Y = ds.labels
        ds2 = make_dataset(np.vstack([X, X]), np.vstack([Y, Y]))
        ranker = train_sgd(ds, TrainConfig(epochs=5, seed=1))
        r1 = report_bounds(ds, ranker)
        r2 = report_bounds(ds2, ranker)
        assert r2.bound_ours < r1.bound_ours
        assert r2.bound_prior < r1.bound_prior

    def test_degenerate_labels_excluded_and_reported(self):
        X = np.random.default_rng(0).normal(size=(12, 3))
        Y = np.where(np.random.default_rng(1).random((12, 2)) < 0.5, 1, -1)
        Y[:, 1] = 1  # degenerate
        ds = make_dataset(X, Y.astype(np.int8))
        ranker = train_sgd(ds, TrainConfig(epochs=2, seed=0))
        report = report_bounds(ds, ranker)
        assert report.provenance["excluded_labels"] == [1]
        assert report.params["K"] == 1


class TestRunExperiment:
    def test_summary_shape_and_determinism(self):
        ds = small_separable(n=36, d=4, k=2, seed=10)
        r1 = run_experiment(ds, seeds=(0, 1), epochs=4, folds=3)
        r2 = run_experiment(ds, seeds=(0, 1), epochs=4, folds=3)
        assert r1.summary() == r2.summary()
        s = r1.summary()
        assert s["n_seeds"] == 2
        assert s["smaller_bound"] in ("ours", "prior")
