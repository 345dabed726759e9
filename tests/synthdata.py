"""Synthetic multi-label dataset generators for pipeline tests.

`emotions_like` mimics the shape and scale regime of a small audio-feature
benchmark: a few hundred samples, ~70 features, 6 moderately balanced
labels generated by a clean linear teacher, with a handful of fixed-norm
outlier rows so the max feature norm is stable across splits.
`cal500_like` produces the many-labels/few-samples regime (K >= n/2).
"""

import numpy as np

from gdbound.macroauc import MultiLabelDataset


def linear_teacher_dataset(n, d, k, seed, scale=1.0, pos_rate=(0.3, 0.45),
                           outliers=0, outlier_norm=None, label_noise=0.0,
                           margin_boost=0.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(scale=scale, size=(n, d))
    if outliers:
        idx = rng.choice(n, size=outliers, replace=False)
        for i in idx:
            row = rng.normal(size=d)
            X[i] = row / np.linalg.norm(row) * outlier_norm
    teachers = rng.normal(size=(k, d))
    teachers /= np.linalg.norm(teachers, axis=1, keepdims=True)
    raw = X @ teachers.T
    rates = rng.uniform(pos_rate[0], pos_rate[1], size=k)
    Y = np.empty((n, k), dtype=np.int8)
    for j in range(k):
        cut = np.quantile(raw[:, j], 1.0 - rates[j])
        Y[:, j] = np.where(raw[:, j] > cut, 1, -1)
        if label_noise > 0:
            flip = rng.random(n) < label_noise
            Y[flip, j] *= -1
        # guard against degenerate labels after noise
        if (Y[:, j] == 1).sum() == 0:
            Y[rng.integers(n), j] = 1
        if (Y[:, j] == -1).sum() == 0:
            Y[rng.integers(n), j] = -1
    if margin_boost > 0:
        # bound the per-label pair gap away from zero so hinge training
        # settles at a modest weight norm
        X = X + (Y.astype(float) * margin_boost) @ teachers
    return MultiLabelDataset(X, Y)


def emotions_like(seed=0):
    return linear_teacher_dataset(
        n=593, d=72, k=6, seed=seed, scale=0.4,
        pos_rate=(0.3, 0.45), outliers=9, outlier_norm=12.0,
        margin_boost=0.25,
    )


def cal500_like(seed=0):
    return linear_teacher_dataset(
        n=120, d=20, k=60, seed=seed, scale=0.55,
        pos_rate=(0.12, 0.35), margin_boost=0.2,
    )


def midsize_separable(seed=1):
    """200 x 20 x 4: the K << n regime where the localized bound wins."""
    return linear_teacher_dataset(n=200, d=20, k=4, seed=seed, scale=2.0,
                                  pos_rate=(0.3, 0.45), margin_boost=0.3)


def small_separable(n=60, d=8, k=2, seed=0, scale=1.0):
    return linear_teacher_dataset(n=n, d=d, k=k, seed=seed, scale=scale,
                                  pos_rate=(0.35, 0.5))
