import importlib.util
import itertools
import math
import os
import re
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gdbound.errors import (
    ConfigError,
    DegenerateLabelError,
    DomainError,
    FormatError,
    ParseError,
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

from oracles import brute_force_macro_auc, loop_bound_inputs, loop_cv_select, \
    loop_load_dataset, loop_train_sgd, rankdata_macro_auc, spawned_block_draws
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


def _ingest(load, path):
    """What `load` makes of a file: its arrays' shapes and bytes, or its
    error's type, message and line; and the warnings it raised on the way,
    such as numpy's overflow warning for a sum past the float range."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ds = load(path)
            made = (ds.features.shape, ds.features.tobytes(),
                    ds.labels.shape, ds.labels.tobytes())
        except (FormatError, ParseError) as exc:
            made = type(exc), str(exc), getattr(exc, "line", None)
    return made, [(w.category, str(w.message)) for w in caught]


def _loop_ingest(path):
    """`_ingest` of the per-line loop oracle, with one difference that
    `load_dataset` makes on purpose: a row whose repeated feature index sums
    past the float range, which the loop loads as inf with numpy's overflow
    warning, is a ParseError naming that row's line, raised without a
    warning; and it is named even where a later line holds the loop's
    error, since `load_dataset` reads the lines in order."""
    made, caught = _ingest(loop_load_dataset, path)
    if made[0] is ParseError:
        # the oracle's reading of the lines before its error line
        header, *body = path.read_text(encoding="utf-8").splitlines()[:made[2] - 1]
        while body and not body[-1].strip() and "\t" not in body[-1]:
            body.pop()
        before = path.with_suffix(".before")
        before.write_text("\n".join([re.sub(r"samples=[-+0-9]+", f"samples={len(body)}",
                                             header), *body]) + "\n", encoding="utf-8")
        made_before, _ = _loop_ingest(before)
        if made_before[0] is ParseError:
            return made_before, []
    if isinstance(made[0], type):  # the loop's error
        return made, caught
    features = np.frombuffer(made[1]).reshape(made[0])
    bad = np.argwhere(~np.isfinite(features))
    if not bad.size:
        return made, caught
    i, j = bad[0]
    line = int(i) + 2
    return (ParseError, f"line {line}: repeated feature index {j} sums past the float range",
            line), []


def _benchmark_file(tmp_path, shape):
    """An mlsvm file as the benchmark writes it: `perfbench/inputs.py`'s
    emotions- or cal500-shaped data at 6 significant digits."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    path = tmp_path / f"{shape}.mlsvm"
    path.write_text(inputs.mlsvm_text(*getattr(inputs, f"{shape}_shaped")(
        np.random.default_rng(101))))
    return path


# A body line of a 3-feature, 2-label file: labels, in-range feature tokens,
# the blank between tokens, a tab even with no feature, and the line break.
INGEST_VALUE = st.one_of(
    st.sampled_from(["1", "0", "-0", "-0.0", "2.5", "-3.25e-2", "1E5", "+.5", "7."]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr))
INGEST_LINE = st.tuples(
    st.lists(st.sampled_from(["0", "1"]), max_size=2),
    st.lists(st.builds("{}:{}".format, st.integers(0, 2), INGEST_VALUE), max_size=5),
    st.sampled_from([" ", "\t", "  "]), st.booleans(),
    st.sampled_from(["\n", "\r\n", "\r", "\x1c", "\x85", "\f", "\v", "\u2028"]))
# Tokens the block parse leaves to the per-line loop: bad ones, and good ones
# that only Python's int, float or str.split read as the loop does.
INGEST_TRAPS = (
    [("feature", tok) for tok in [
        "1_0:1", "0:1_0", "1.5:2", "1e0:1", "0:nan", "0:inf", "0:-inf", "0:1e999", "3",
        "0:1:2", ":1", "0:", "3:1", "-1:1", "+1:2", "-0:1", "00:1", "0:0x1", "0:1.5.2",
        "\u0663:1", "0:\u0661", "0:1\x1f1:2", "0\x1f:1", "0:\x1f1", "0:1\xa01:2",
        "0:1\u30001:2"]]
    + [("label", tok) for tok in ["2", "-1", "x", " 1", "1_0", "", "+0", "\u0660"]])


class TestBlockParse:
    """`load_dataset`'s block parse and its fallback against the per-line
    loop they replaced: the same arrays, byte for byte, or the same error."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(INGEST_LINE, max_size=12),
           trap=st.one_of(st.none(),
                          st.tuples(st.integers(0, 11), st.sampled_from(INGEST_TRAPS))),
           off=st.sampled_from([0, 0, 0, -1]),
           padding=st.sampled_from(["", "\n", "\n\n", " \n\n"]),
           block=st.sampled_from([1, 2, 5, 64]))
    def test_drawn_files_read_as_the_loop_reads_them(self, tmp_path, lines, trap, off,
                                                     padding, block):
        lines = [(list(labels), list(feats), blank, tab, end)
                 for labels, feats, blank, tab, end in lines]
        if trap and lines:
            at, (part, tok) = trap
            labels, feats = lines[at % len(lines)][:2]
            (labels if part == "label" else feats).append(tok)
        body = "".join(",".join(labels) + ("\t" + blank.join(feats) if feats or tab else "")
                       + end for labels, feats, blank, tab, end in lines)
        path = tmp_path / "drawn.mlsvm"
        path.write_bytes((f"#samples={len(lines) + off} #features=3 #labels=2\n"
                          + body + padding).encode())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(macroauc, "_BLOCK_LINES", block)
            assert _ingest(load_dataset, path) == _loop_ingest(path)

    @pytest.mark.parametrize("part, tok", INGEST_TRAPS)
    def test_each_trap_reads_as_the_loop_reads_it(self, tmp_path, monkeypatch, part, tok):
        # the trap's line is a block of its own, after a block that parses
        monkeypatch.setattr(macroauc, "_BLOCK_LINES", 2)
        line = f"0,1\t{tok}" if part == "feature" else f"0,{tok}\t0:1 2:-0 0:2.5"
        path = tmp_path / "trap.mlsvm"
        path.write_text(f"#samples=3 #features=3 #labels=2\n1\t1:1 1:2\n\t\n{line}\n")
        assert _ingest(load_dataset, path) == _ingest(loop_load_dataset, path)

    @pytest.mark.parametrize("block", [1, 2, 64])
    def test_an_overflowing_repeated_index_is_a_parse_error(self, tmp_path, monkeypatch,
                                                            block):
        # the loop loads this row as inf with numpy's overflow warning
        monkeypatch.setattr(macroauc, "_BLOCK_LINES", block)
        path = tmp_path / "overflow.mlsvm"
        path.write_text("#samples=3 #features=2 #labels=1\n0\t0:1\n"
                        "0\t1:8.988465674311579e+307 1:8.98846567431158e+307\n\t0:2\n")
        made, caught = _ingest(loop_load_dataset, path)
        assert np.isinf(np.frombuffer(made[1])).any()
        assert [category for category, _ in caught] == [RuntimeWarning]
        assert _ingest(load_dataset, path) == (
            (ParseError, "line 3: repeated feature index 1 sums past the float range", 3), [])

    @pytest.mark.parametrize("block", [1, 2, 64])
    def test_an_overflowing_row_is_named_before_a_later_bad_line(self, tmp_path,
                                                                 monkeypatch, block):
        # the loop oracle names line 4, whose token it reads before it sums
        monkeypatch.setattr(macroauc, "_BLOCK_LINES", block)
        path = tmp_path / "overflow.mlsvm"
        path.write_text("#samples=3 #features=2 #labels=1\n"
                        "0\t1:8.988465674311579e+307 1:8.98846567431158e+307\n\t0:1\n0\t1:x\n")
        assert _ingest(loop_load_dataset, path)[0][1] == "line 4: bad feature token '1:x'"
        expected = ((ParseError, "line 2: repeated feature index 1 sums past the float range",
                     2), [])
        assert _loop_ingest(path) == expected
        assert _ingest(load_dataset, path) == expected

    def test_only_a_refused_block_is_read_token_by_token(self, tmp_path, monkeypatch):
        # `0:1_0` is 10.0 to Python's float and a refusal to the block parse
        monkeypatch.setattr(macroauc, "_BLOCK_LINES", 2)
        lines = [f"{i % 2}\t0:{i} 2:-{i}.5" for i in range(10)]
        lines[6] += " 1:1_0"
        path = tmp_path / "trap.mlsvm"
        path.write_text("#samples=10 #features=3 #labels=2\n" + "\n".join(lines) + "\n")
        calls = []
        read_lines = macroauc._read_lines

        def spy(parts, rows, labels, first_line):
            calls.append((list(parts), first_line))
            return read_lines(parts, rows, labels, first_line)

        monkeypatch.setattr(macroauc, "_read_lines", spy)
        assert _ingest(load_dataset, path) == _ingest(loop_load_dataset, path)
        assert calls == [([("0", "0:6 2:-6.5 1:1_0"), ("1", "0:7 2:-7.5")], 8)]

    def test_a_failing_load_peaks_as_a_clean_one(self, tmp_path):
        # tracemalloc peaks on the emotions-shaped body repeated 10 times
        # (5.3 MB): 10.5 MiB for the clean load, and as much when its last
        # line is bad, against 26.0 MiB for a whole-body token-by-token reread
        header, *body = _benchmark_file(tmp_path, "emotions").read_text().splitlines()
        body *= 10
        header = re.sub(r"samples=\d+", f"samples={len(body)}", header)
        clean, bad = tmp_path / "clean.mlsvm", tmp_path / "bad.mlsvm"
        clean.write_text("\n".join([header, *body]) + "\n")
        bad.write_text("\n".join([header, *body]) + " 1:x\n")

        def failing_load(path):
            with pytest.raises(ParseError) as info:
                load_dataset(path)
            assert str(info.value) == f"line {len(body) + 1}: bad feature token '1:x'"

        load_dataset(clean)  # numpy's lazy set-up stays out of the peaks
        peaks = []
        for load, path in ((load_dataset, clean), (failing_load, bad)):
            tracemalloc.start()
            try:
                load(path)
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], f"failing {peaks[1]:.2f} MiB, clean {peaks[0]:.2f} MiB"

    @pytest.mark.parametrize("shape", ["emotions", "cal500"])
    def test_benchmark_files_take_the_block_parse(self, tmp_path, monkeypatch, shape):
        path = _benchmark_file(tmp_path, shape)
        expected = _ingest(loop_load_dataset, path)

        def refuse(*args):
            raise AssertionError("fell back to the per-line loop")

        monkeypatch.setattr(macroauc, "_read_lines", refuse)
        assert _ingest(load_dataset, path) == expected

    def test_memory_stays_below_the_loop_oracle(self, tmp_path):
        # tracemalloc peaks on this 533 KB file: 1.50 MiB in blocks of 64
        # lines, 3.85 MiB for the loop, 5.25 MiB with the body as one block
        path = _benchmark_file(tmp_path, "emotions")
        peaks = []
        for load in (load_dataset, loop_load_dataset):
            load(path)  # numpy's lazy set-up stays out of the peak
            tracemalloc.start()
            try:
                load(path)
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1], f"load_dataset {peaks[0]:.2f} MiB, loop {peaks[1]:.2f} MiB"


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
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    def test_m_bar_measured_on_training_rows(self):
        X = np.array([[3.0, 4.0], [1.0, 0.0]])
        Y = np.array([[1], [-1]], dtype=np.int8)
        ds = make_dataset(X, Y)
        ranker = train_sgd(ds, TrainConfig(epochs=1, seed=0))
        assert report_bounds(ds, ranker).params["m_bar"] == pytest.approx(5.0)


def _shaped(shape, seed):
    return emotions_like(seed=seed) if shape == "emotions" else cal500_like(seed=seed)


def _assert_same_ranker(ranker, oracle):
    assert np.array_equal(ranker.weights, oracle.weights)
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
        # row counts, decays and seeds differ between jobs, so chains leave
        # the lockstep at different steps; each call has one schedule
        lr, epochs = {"emotions": (0.05, 2), "cal500": (0.1, 3)}[shape]
        ds = _shaped(shape, seed=2)
        n = ds.n_samples
        rng = np.random.default_rng(5)
        specs = [(n, 0.0, 1), (2 * n // 3, 1e-2, 2), (n // 2, 1e-4, 3), (4, 0.1, 4),
                 (n // 3 + 1, 0.0, 5)]
        jobs = [(np.sort(rng.permutation(n)[:rows]),
                 TrainConfig(lr=lr, epochs=epochs, weight_decay=wd, seed=seed))
                for rows, wd, seed in specs]
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

    def test_skipped_folds_warn_as_the_oracle_does(self, monkeypatch):
        # one label with two positives in twelve rows: two of the four
        # validation folds hold no positive, which is known before training
        X = np.random.default_rng(4).normal(size=(12, 3))
        Y = -np.ones((12, 1), dtype=np.int8)
        Y[[1, 7]] = 1
        ds = make_dataset(X, Y)
        cfg = TrainConfig(epochs=3, seed=6)
        trained = []

        def counting(dataset, jobs):
            trained.append(len(jobs))
            return train_many(dataset, jobs)

        monkeypatch.setattr(macroauc, "train_many", counting)
        with pytest.warns(UserWarning) as caught:
            lam, ranker = cv_select(ds, folds=4, config=cfg)
        with pytest.warns(UserWarning) as oracle_caught:
            oracle_lam, oracle = loop_cv_select(ds, folds=4, config=cfg)
        # the oracle warns once per (lambda, fold), cv_select once per fold
        messages = [str(w.message) for w in caught]
        assert messages == list(dict.fromkeys(str(w.message) for w in oracle_caught))
        grid = macroauc.LAMBDA_GRID
        assert len(messages) == 2 and all("skipped" in m for m in messages)
        # the fits of the two usable folds and the final fits, no more
        assert trained == [2 * len(grid) + len(grid)]
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

    @pytest.mark.parametrize("kw", [dict(lr=0.1), dict(epochs=3),
                                    dict(lr=0.1, epochs=3)])
    def test_mixed_schedules_rejected(self, kw):
        ds = small_separable(n=10, d=2, k=1, seed=0)
        jobs = [(np.arange(10), TrainConfig(epochs=2, seed=1)),
                (np.arange(5), TrainConfig(epochs=2, weight_decay=1e-3, seed=2)),
                (np.arange(10), TrainConfig(**{"epochs": 2, "seed": 3, **kw}))]
        with pytest.raises(ConfigError, match="share lr and epochs"):
            train_many(ds, jobs)

    @pytest.mark.parametrize("kw, match", [
        (dict(lr=math.nan), "finite"), (dict(lr=math.inf), "finite"),
        (dict(weight_decay=math.nan), "finite"), (dict(weight_decay=math.inf), "finite"),
        (dict(epochs=2.5), "integer"), (dict(epochs="3"), "integer"),
        (dict(epochs=True), "integer"), (dict(epochs=np.float64(3.0)), "integer"),
        (dict(lr="0.05"), "lr must be a finite number"),
        (dict(weight_decay=None), "weight_decay must be a finite number"),
        (dict(lr=True), "lr must be a finite number"),
        (dict(seed=True), "seed must be a non-negative integer"),
        (dict(seed=-1), "seed must be a non-negative integer"),
        (dict(seed=1.5), "seed must be a non-negative integer")])
    def test_config_rejects_bad_values(self, kw, match):
        with pytest.raises(ConfigError, match=match):
            TrainConfig(**kw)

    def test_config_takes_a_numpy_integer_epochs(self):
        assert TrainConfig(epochs=np.int64(3)).epochs == 3

    @pytest.mark.parametrize("folds", [-1, 0, 1])
    def test_cv_needs_two_folds(self, folds):
        ds = small_separable(n=10, d=2, k=1, seed=0)
        with pytest.raises(ConfigError, match="folds"):
            cv_select(ds, folds=folds, config=TrainConfig(epochs=1))


class TestBlockDraws:
    """A chain's block of epochs in `train_many` is the stream of one
    `integers` call with a broadcast `high` (`spawned_block_draws`); that
    must be the stream of the two calls per epoch that `loop_train_sgd`
    makes."""

    @pytest.mark.parametrize("n_pos, n_neg, n, epochs", [
        (20, 33, 53, 10), (1, 5, 6, 3), (3, 4, 7, 5), (2**31, 5, 9, 2),
        (40, 60, 100, 300), (1, 1, 2, 4)])
    def test_broadcast_integers_is_the_per_call_stream(self, n_pos, n_neg, n, epochs):
        stream = np.random.SeedSequence(17).spawn(2)[1]
        block, per_call = np.random.default_rng(stream), np.random.default_rng(stream)
        drawn = block.integers(0, np.array([[n_pos], [n_neg]]), size=(epochs, 2, n))
        expected = [[per_call.integers(0, size, size=n) for size in (n_pos, n_neg)]
                    for _ in range(epochs)]
        message = ("numpy's Generator.integers with a broadcast high no longer gives "
                   "the per-call stream that train_many's block draw relies on")
        assert np.array_equal(drawn, expected), message
        assert block.bit_generator.state == per_call.bit_generator.state, message

    @pytest.mark.parametrize("n", [256, 257])  # row indices fit uint8, then uint16
    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_multi_block_jobs_match_loop_oracle(self, monkeypatch, n, block):
        rng = np.random.default_rng(n)
        Y = -np.ones((n, 3), dtype=np.int8)
        Y[:, 0] = np.where(rng.random(n) < 0.4, 1, -1)
        Y[n - 1, 1] = 1  # one positive, in the last row; label 2 has none
        ds = make_dataset(rng.normal(size=(n, 3)), Y)
        # 7 epochs end inside a block of 2 or 3; the last job drops the lone
        # positive, so it excludes label 1
        jobs = [(np.arange(n), TrainConfig(epochs=7, lr=0.1, seed=1)),
                (np.sort(rng.permutation(n)[:n // 2]),
                 TrainConfig(epochs=7, lr=0.1, weight_decay=1e-2, seed=2)),
                (np.arange(n - 1), TrainConfig(epochs=7, lr=0.1, seed=3))]
        # One epoch's row draws: 2 sides x n steps x chains, one byte or two each.
        chains = sum(int(((ds.labels[rows] == 1).any(axis=0)
                          & (ds.labels[rows] == -1).any(axis=0)).sum()) for rows, _ in jobs)
        epoch_bytes = 2 * n * chains * np.min_scalar_type(n - 1).itemsize
        monkeypatch.setattr(macroauc, "_DRAW_BYTES", block * epoch_bytes)
        rankers = train_many(ds, jobs)
        assert [r.excluded_labels for r in rankers][-1] == (1, 2)
        for (rows, cfg), ranker in zip(jobs, rankers):
            _assert_same_ranker(ranker, loop_train_sgd(ds.subset(rows), cfg))


def _state(state):
    """What of a PCG64 state dict decides the stream: its 128-bit state and
    increment, and the buffered half word if one is held.  `uinteger`
    keeps the last half word it held after it is used (has_uint32 = 0),
    and nothing reads it then."""
    return state["state"], state["has_uint32"], state["uinteger"] * state["has_uint32"]


class TestChainStreams:
    """`_ChainStreams` seeds and draws every chain at once; each chain's
    stream must stay that of its own spawned `default_rng` and its
    `integers` calls, values and final state, bit for bit."""

    SPAWN = ("numpy's SeedSequence no longer mixes a spawned child's entropy "
             "the way _ChainStreams.child_states transcribes it")
    LEMIRE = ("numpy's Generator.integers no longer maps PCG64's raw words, low "
              "half first, through the 32-bit Lemire step that "
              "_ChainStreams.draw transcribes")

    # 2^128 and above take the extra-entropy step for the seed's own words;
    # a sequence seed is its items' words in turn
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128, 2**128 + 12345, 2**200 + 3,
             [3, 2**40, 0], np.uint64(2**64 - 1), [2**70, 0, 5, 2**33 + 7]]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_child_states_are_the_spawned_states(self, seed):
        K = 70
        seqs = [np.random.SeedSequence(seed)]
        got = macroauc._ChainStreams.child_states(seqs, [0] * K, range(K))
        want = [child.generate_state(4, np.uint64)
                for child in np.random.SeedSequence(seed).spawn(K)]
        assert np.array_equal(got, want), self.SPAWN

    def test_mixed_seeds_in_one_call(self):
        # seeds of one, two, five and seven words share one call
        seeds = [5, 2**40 + 1, 2**130 + 9, 2**200 + 3]
        jobs = [j for j in range(len(seeds)) for _ in range(6)]
        labels = [k for _ in seeds for k in range(6)]
        sizes = np.full((len(jobs), 2), 4, dtype=np.int64)
        streams = macroauc._ChainStreams([np.random.SeedSequence(s) for s in seeds],
                                         jobs, labels, sizes)
        for stream, j, k in zip(streams.streams, jobs, labels):
            child = np.random.SeedSequence(seeds[j]).spawn(6)[k]
            assert stream.state == np.random.PCG64(child).state, self.SPAWN

    def test_lemire_draw_is_the_integers_stream(self):
        # chains of one draw call: Lemire rejections rare (high 20, 33, ...),
        # about one word in two (2^31 + 1, so the block falls back), a
        # one-row side (no word), a side of 2^32 rows (integers' unbounded
        # 32-bit path) and one of 2^33 (its 64-bit path)
        sizes = [(20, 33), (2**31 + 1, 5), (7, 2**31 + 1), (1, 9), (3, 1),
                 (1000, 2**20), (2**32, 3), (2**33, 2)]
        n, blocks, seed = 10, [3, 1, 4, 2], 23
        C = len(sizes)
        streams = macroauc._ChainStreams(
            [np.random.SeedSequence(seed)], [0] * C, range(C),
            np.array(sizes, dtype=np.int64))
        drawn = [streams.draw(list(range(C)), nb, n) for nb in blocks]
        for c, chain_sizes in enumerate(sizes):
            want, state = spawned_block_draws(seed, C, c, chain_sizes, n, blocks)
            for got_block, want_block in zip(drawn, want):
                assert np.array_equal(got_block[c], want_block), (c, self.LEMIRE)
            assert _state(streams.streams[c].state) == _state(state), (c, self.LEMIRE)
        # the array path ran, and the rejecting chains left it
        assert streams.by_integers[:3].tolist() == [False, True, True]

    # train_many passes its row count as a numpy integer
    @pytest.mark.parametrize("n", [1, np.intp(1)])
    def test_exactly_the_chains_with_a_rejected_word_fall_back(self, n):
        # an even high takes few low halves: u * 3 * 2^30 mod 2^32 is one of
        # {0, 1, 2, 3} * 2^30 and is rejected below (2^32 - high) % high =
        # 2^30, so a threshold one too high (or <= for <) rejects a second
        # quarter of the words; 5 * 2^28 likewise by sixteenths, 2^31 + 1
        # about one word in two, and 20 or 33 almost never
        sizes = [(3 * 2**30, 20), (20, 3 * 2**30), (5 * 2**28, 33), (2**31 + 1, 7),
                 (33, 1000)] * 12
        seed, blocks = 41, [1, 2]
        C = len(sizes)
        streams = macroauc._ChainStreams([np.random.SeedSequence(seed)], [0] * C,
                                         range(C), np.array(sizes, dtype=np.int64))
        for nb in blocks:
            streams.draw(list(range(C)), nb, n)
        got = set(np.flatnonzero(streams.by_integers).tolist())
        # a chain keeps its raw stream until a block rejects, so it falls
        # back iff any of its blocks' words, read from the start, is rejected
        want = set()
        for c, child in enumerate(np.random.SeedSequence(seed).spawn(C)):
            raw = np.random.PCG64(child).random_raw(sum(blocks) * n)
            words = [int(w) >> shift & 0xFFFFFFFF for w in raw for shift in (0, 32)]
            # a block's words run (epoch, side, row): side = index // n % 2
            for i, u in enumerate(words):
                high = sizes[c][i // n % 2]
                if u * high % 2**32 < (2**32 - high) % high:
                    want.add(c)
        assert got == want, ("_ChainStreams.draw's rejection threshold differs from "
                             "numpy's 32-bit Lemire step", sorted(got ^ want))
        assert 0 < len(want) < C

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_train_many_matches_loop_oracle_on_drawn_labels(self, data):
        # few rows, so labels with one positive or one negative (one-row
        # sides) and excluded labels are common; the draw budget runs from
        # one epoch per block and one chain per chunk to all epochs at once,
        # so the last block is often partial
        n = data.draw(st.integers(2, 9))
        k = data.draw(st.integers(1, 4))
        Y = np.where(data.draw(st.lists(st.lists(st.booleans(), min_size=k, max_size=k),
                                        min_size=n, max_size=n)), 1, -1)
        X = np.random.default_rng(data.draw(st.integers(0, 99))).normal(size=(n, 2))
        ds = make_dataset(X, Y)
        lr = data.draw(st.sampled_from([0.05, 0.3]))
        epochs = data.draw(st.integers(1, 5))
        jobs = []
        for _ in range(data.draw(st.integers(1, 3))):
            rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
            cfg = TrainConfig(lr=lr, epochs=epochs,
                              weight_decay=data.draw(st.sampled_from([0.0, 1e-2])),
                              seed=data.draw(st.sampled_from([0, 7, 2**64 - 1, 2**130 + 1])))
            jobs.append((np.sort(rows), cfg))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(macroauc, "_DRAW_BYTES", 1 << data.draw(st.integers(0, 16)))
            rankers = train_many(ds, jobs)
        for (rows, cfg), ranker in zip(jobs, rankers):
            _assert_same_ranker(ranker, loop_train_sgd(ds.subset(rows), cfg))

    # tracemalloc peaks of the per-chain `integers` draw this replaced, on
    # the experiment's jobs: 2.44 MiB (cal500-like, 5 epochs) and 1.28 MiB
    # (emotions-like, 10 epochs)
    @pytest.mark.parametrize("shape, epochs, before", [("cal500", 5, 2.44),
                                                       ("emotions", 10, 1.28)])
    def test_memory_stays_within_a_mib_of_the_per_chain_draw(self, monkeypatch, shape, epochs,
                                                              before):
        ds = _shaped(shape, seed=0)
        jobs = _experiment_jobs(ds, epochs)
        # one core, so every chain trains in this process, where tracemalloc
        # sees it
        monkeypatch.setattr(macroauc, "available_cores", lambda: 1)
        train_many(ds, jobs)  # numpy's lazy set-up stays out of the peak
        tracemalloc.start()
        try:
            train_many(ds, jobs)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak <= before + 1.0, f"train_many peak {peak:.2f} MiB"


def _experiment_jobs(ds, epochs):
    """The jobs of one experiment seed (seed 0, default grid, 3 folds)."""
    train_rows, _ = macroauc._split_rows(ds.n_samples, 0)
    cv_jobs, _ = macroauc._cv_jobs(ds.labels[train_rows], macroauc.LAMBDA_GRID, 3,
                                   TrainConfig(epochs=epochs, seed=0))
    return [(train_rows[rows], cfg) for rows, cfg in cv_jobs]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _forced_workers(patch, cores, fork_work=0):
    """Patch `cores` cores and a fork threshold of `fork_work` (0: every
    call with two jobs that train takes the worker path); returns the list
    of the pids that train_many forks."""
    patch.setattr(macroauc, "_FORK_WORK", fork_work)
    patch.setattr(macroauc, "available_cores", lambda: cores)
    forked, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    patch.setattr(os, "fork", recording_fork)
    return forked


class TestTrainManyWorkers:
    """`train_many` on forked workers: the bits of one process, and no child
    process left after the call."""

    @pytest.mark.parametrize("shape", ["emotions", "cal500"])
    def test_split_calls_give_the_one_process_bits(self, monkeypatch, shape):
        ds = _shaped(shape, seed=4)
        # and a 6-row fit, which excludes labels on the cal500 shape
        jobs = _experiment_jobs(ds, epochs=2) + [(np.arange(6), TrainConfig(epochs=2, seed=9))]
        monkeypatch.setattr(macroauc, "available_cores", lambda: 1)
        one = train_many(ds, jobs)
        for (rows, cfg), ranker in zip(jobs, one):
            _assert_same_ranker(ranker, loop_train_sgd(ds.subset(rows), cfg))
        for cores in (1, 2, 3):
            forked = _forced_workers(monkeypatch, cores)
            rankers = train_many(ds, jobs)
            _assert_no_child_left()
            assert len(forked) == cores - 1
            for ranker, want in zip(rankers, one):
                _assert_same_ranker(ranker, want)
        if shape == "cal500":
            assert any(r.excluded_labels for r in one)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_drawn_labels_give_the_loop_bits_on_workers(self, data):
        # few rows: one-row sides and excluded labels are common, and a job
        # may have no chain at all
        n = data.draw(st.integers(2, 9))
        k = data.draw(st.integers(1, 4))
        Y = np.where(data.draw(st.lists(st.lists(st.booleans(), min_size=k, max_size=k),
                                        min_size=n, max_size=n)), 1, -1)
        X = np.random.default_rng(data.draw(st.integers(0, 99))).normal(size=(n, 2))
        ds = make_dataset(X, Y)
        epochs = data.draw(st.integers(1, 4))
        jobs = [(np.sort(data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))),
                 TrainConfig(epochs=epochs, weight_decay=data.draw(st.sampled_from([0.0, 1e-2])),
                             seed=data.draw(st.sampled_from([0, 7, 2**64 - 1]))))
                for _ in range(data.draw(st.integers(1, 5)))]
        with pytest.MonkeyPatch.context() as patch:
            forked = _forced_workers(patch, data.draw(st.sampled_from([2, 3])))
            rankers = train_many(ds, jobs)
        _assert_no_child_left()
        busy = sum(len(r.excluded_labels) < k for r in rankers)
        assert (len(forked) > 0) == (busy > 1)
        for (rows, cfg), ranker in zip(jobs, rankers):
            _assert_same_ranker(ranker, loop_train_sgd(ds.subset(rows), cfg))

    def test_only_a_call_that_saves_a_fork_forks(self, monkeypatch):
        ds = _shaped("emotions", seed=7)
        jobs = _experiment_jobs(ds, epochs=10)
        forked = _forced_workers(monkeypatch, 2, macroauc._FORK_WORK)
        # the four full-split fits share their 395 steps: two groups would
        # save a fifth of one epoch's modelled cost per epoch
        train_many(ds, [(rows, replace(cfg, epochs=1)) for rows, cfg in jobs[-4:]])
        assert forked == []
        # the experiment's fits: the CV fits take two thirds of the steps
        train_many(ds, jobs)
        assert len(forked) == 1
        _assert_no_child_left()

    def test_groups_minimize_the_costliest_run(self):
        # against every cut of the jobs, most rows first, into at most
        # `cores` runs
        rng = np.random.default_rng(11)
        for _ in range(200):
            J = int(rng.integers(1, 8))
            n_rows = rng.integers(1, 400, size=J)
            n_chains = rng.integers(0, 4, size=J) * rng.integers(0, 2, size=J)
            d, cores = int(rng.integers(1, 80)), int(rng.integers(1, 4))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(macroauc, "_FORK_WORK", 0)
                patch.setattr(macroauc, "available_cores", lambda: cores)
                groups = macroauc._job_groups(n_rows, n_chains, d, 1)

            def cost(members):
                members = [j for j in members if n_chains[j]]
                return (macroauc._STEP_COST * max(n_rows[members], default=0)
                        + (macroauc._CHAIN_COST + d) * sum(n_chains[members] * n_rows[members]))

            busy = [j for j in sorted(range(J), key=lambda j: -n_rows[j]) if n_chains[j]]
            assert all(groups[j] == 0 for j in range(J) if not n_chains[j])
            got = max(cost(np.flatnonzero(groups == g)) for g in range(groups.max() + 1))
            best = min(max(cost([busy[i] for i in range(len(busy)) if lo <= i < hi])
                           for lo, hi in zip((0, *cut), (*cut, len(busy))))
                       for r in range(min(cores, max(len(busy), 1)))
                       for cut in itertools.combinations(range(1, len(busy)), r))
            assert got == best
            assert groups.max() < max(cores, 1)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_a_raising_own_share_kills_and_reaps_the_children(self, monkeypatch, error):
        ds = _shaped("emotions", seed=5)
        jobs = _experiment_jobs(ds, epochs=1)
        forked = _forced_workers(monkeypatch, 3)
        parent, lockstep = os.getpid(), macroauc._lockstep

        def failing(*args):
            if os.getpid() == parent:
                raise error("own share failed")
            time.sleep(60)  # a child outlives the call unless it is killed
            return lockstep(*args)

        monkeypatch.setattr(macroauc, "_lockstep", failing)
        start = time.perf_counter()
        with pytest.raises(error, match="own share failed"):
            train_many(ds, jobs)
        assert time.perf_counter() - start < 30
        assert len(forked) == 2
        _assert_no_child_left()

    def test_a_child_that_exits_early_is_retrained_here(self, monkeypatch):
        ds = _shaped("cal500", seed=6)
        jobs = _experiment_jobs(ds, epochs=2)
        monkeypatch.setattr(macroauc, "available_cores", lambda: 1)
        one = train_many(ds, jobs)
        forked = _forced_workers(monkeypatch, 3)
        parent, lockstep = os.getpid(), macroauc._lockstep

        def exiting(*args):
            if os.getpid() != parent:
                os._exit(1)
            return lockstep(*args)

        monkeypatch.setattr(macroauc, "_lockstep", exiting)
        rankers = train_many(ds, jobs)
        assert len(forked) == 2
        _assert_no_child_left()
        for ranker, want in zip(rankers, one):
            _assert_same_ranker(ranker, want)


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
                              config=TrainConfig(epochs=1, seed=0))
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

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_bound_inputs_match_the_pair_transform_loop(self, data):
        # each column is drawn mixed, all positive or all negative, so
        # excluded labels and all-degenerate splits are common
        n = data.draw(st.integers(1, 12))
        k = data.draw(st.integers(1, 5))
        columns = []
        for _ in range(k):
            kind = data.draw(st.sampled_from(["mixed", "positive", "negative"]))
            if kind == "mixed":
                columns.append(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
            else:
                columns.append([kind == "positive"] * n)
        Y = np.where(np.array(columns, dtype=bool).T, 1, -1)
        rng = np.random.default_rng(data.draw(st.integers(0, 99)))
        d = data.draw(st.integers(1, 3))
        ds = make_dataset(rng.normal(size=(n, d)), Y)
        ranker = LinearRanker(weights=rng.normal(size=(k, d)), config=TrainConfig())
        try:
            taus, kept, excluded, m_bar = loop_bound_inputs(ds)
        except UndefinedMetricError as exc:
            with pytest.raises(UndefinedMetricError, match=f"^{re.escape(str(exc))}$"):
                report_bounds(ds, ranker)
            return
        report = report_bounds(ds, ranker)
        assert report.params["tau"] == taus
        assert report.params["K"] == len(kept)
        assert report.params["m_bar"] == m_bar
        assert report.provenance["excluded_labels"] == excluded

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
