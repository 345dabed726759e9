"""Property test for the lockstep SGD engine's masked step.

`train_many` steps every chain at once and adds each chain's step only
where its hinge is active.  On drawn datasets and jobs (row subsets and
weight decays, 0 included, and seeds per job; learning rate and epochs per
call), every ranker must equal the one-label-at-a-time `loop_train_sgd` on
its rows bit for bit, sign of zero included.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from gdbound.macroauc import MultiLabelDataset, TrainConfig, train_many
from oracles import loop_train_sgd


@st.composite
def datasets_and_jobs(draw):
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # Small integer features make exact ties, zero margins and zero steps.
    X = rng.integers(-2, 3, size=(n, d)).astype(float)
    Y = np.where(rng.random((n, k)) < draw(st.sampled_from([0.2, 0.5, 0.8])), 1, -1)
    lr = draw(st.sampled_from([0.01, 0.05, 0.3, 1.0]))
    epochs = draw(st.integers(1, 3))
    jobs = []
    for _ in range(draw(st.integers(1, 4))):
        rows = np.flatnonzero(rng.random(n) < draw(st.sampled_from([0.5, 0.8, 1.0])))
        if rows.size == 0:
            rows = np.arange(n)
        config = TrainConfig(lr=lr, epochs=epochs,
                             weight_decay=draw(st.sampled_from([0.0, 1e-4, 1e-2, 0.4])),
                             seed=draw(st.integers(0, 1000)))
        jobs.append((rows, config))
    return MultiLabelDataset(X, Y.astype(np.int8)), jobs


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(case=datasets_and_jobs())
def test_train_many_matches_loop_oracle_bit_for_bit(case):
    dataset, jobs = case
    for (rows, config), ranker in zip(jobs, train_many(dataset, jobs)):
        oracle = loop_train_sgd(dataset.subset(rows), config)
        assert ranker.weights.tobytes() == oracle.weights.tobytes()
        assert ranker.excluded_labels == oracle.excluded_labels
