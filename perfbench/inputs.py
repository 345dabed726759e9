"""Seeded input generators.  The program sees only what these produce:
mlsvm text files, edge-list files, CLI argument lists and arrays.

Every generator takes a numpy Generator, so one benchmark seed fixes
every input of a run.
"""

from __future__ import annotations

import numpy as np

# ------------------------------------------------------------ multi-label data


def _teacher_labels(rng, X, rates):
    """{-1,+1} labels from random unit teachers, label k positive on the
    top rates[k] share of X @ teacher_k; returns (labels, teachers)."""
    k = len(rates)
    teachers = rng.normal(size=(k, X.shape[1]))
    teachers /= np.linalg.norm(teachers, axis=1, keepdims=True)
    scores = X @ teachers.T
    Y = -np.ones((X.shape[0], k), dtype=np.int8)
    for j, rate in enumerate(rates):
        n_pos = max(1, int(round(rate * X.shape[0])))
        Y[np.argsort(-scores[:, j], kind="stable")[:n_pos], j] = 1
    return Y, teachers


def emotions_shaped(rng):
    """593 x 72 dense features, 6 labels with 30-45 % positives.

    Label rates are fixed, not drawn, so SGD work per op varies little
    from seed to seed.  Nine rows are rescaled to norm 12 so the largest
    row norm (m_bar in the bound report) does not depend on the split;
    positives are shifted along their teacher so hinge training settles
    at a moderate norm.
    """
    n, d, k = 593, 72, 6
    X = rng.normal(scale=0.4, size=(n, d))
    rows = rng.choice(n, size=9, replace=False)
    X[rows] *= 12.0 / np.linalg.norm(X[rows], axis=1, keepdims=True)
    Y, teachers = _teacher_labels(rng, X, np.linspace(0.30, 0.45, k))
    return X + 0.25 * Y @ teachers, Y


def cal500_shaped(rng):
    """120 x 20 dense features, 60 labels (K >= n/2).

    Most labels have 12-35 % positives; six, placed at random, have only
    one to three positives, so training splits and CV folds see
    degenerate labels and the exclusion paths run.
    """
    n, d, k = 120, 20, 60
    X = rng.normal(scale=0.55, size=(n, d))
    rates = rng.permutation(np.linspace(0.12, 0.35, k))
    rates[rng.choice(k, size=6, replace=False)] = np.array([1, 1, 2, 2, 3, 3]) / n
    Y, teachers = _teacher_labels(rng, X, rates)
    return X + 0.2 * Y @ teachers, Y


def mlsvm_text(X, Y):
    """mlsvm text: `#samples=n #features=D #labels=K`, then one
    `l1,l2<TAB>j:x ...` line per row with 6 significant digits."""
    n, d = X.shape
    lines = [f"#samples={n} #features={d} #labels={Y.shape[1]}"]
    for i in range(n):
        labels = ",".join(str(j) for j in np.flatnonzero(Y[i] == 1))
        feats = " ".join(f"{j}:{X[i, j]:.6g}" for j in range(d))
        lines.append(f"{labels}\t{feats}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ verify mix

TRIALS = 100_000

# (key, structure flags).  Sampler seeds are drawn per run.
VERIFY_MIX = (
    ("bip60x50-product-bennett_general",
     ["--structure", "bipartite:60,50", "--kernel", "product",
      "--ineq", "bennett_general"]),
    ("bip30x20-centered-K2-plugin-deviation",
     ["--structure", "bipartite:30,20", "--kernel", "centered_product",
      "--k", "2", "--moments", "plugin", "--form", "deviation",
      "--ineq", "bennett_general"]),
    ("bip12x10-talagrand",
     ["--structure", "bipartite:12,10", "--ineq", "talagrand"]),
    ("bip20x20-twopoint-mean-lower_tail",
     ["--structure", "bipartite:20,20", "--base", "two_point",
      "--base-p", "0.3", "--base-lo", "0.0", "--base-hi", "1.0",
      "--kernel", "mean", "--ineq", "lower_tail"]),
    ("iid200-K3-bennett_refined",
     ["--structure", "iid:200", "--k", "3", "--ineq", "bennett_refined"]),
)


def verify_ops(rng, trials=TRIALS):
    """One (key, argv) per mix entry; each gets its own sampler seed."""
    seeds = rng.integers(0, 2**31 - 1, size=len(VERIFY_MIX))
    return [(key, ["verify", *flags, "--trials", str(trials),
                   "--seed", str(int(seed))])
            for (key, flags), seed in zip(VERIFY_MIX, seeds)]


# ------------------------------------------------------------ certify


def rook_edges_text(n_pos, n_neg):
    """Edge-list text of the rook graph on n_pos x n_neg pairs (vertex
    p * n_neg + q), written here so the CLI parses it from a file."""
    edges = []
    for p in range(n_pos):
        for q in range(n_neg):
            v = p * n_neg + q
            edges += [(v, p * n_neg + q2) for q2 in range(q + 1, n_neg)]
            edges += [(v, p2 * n_neg + q) for p2 in range(p + 1, n_pos)]
    return "\n".join([str(n_pos * n_neg)] + [f"{u} {v}" for u, v in sorted(edges)]) + "\n"


def random_graph_text(rng, n=12, p=0.3):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return "\n".join([str(n)] + [f"{u} {v}" for u, v in pairs]) + "\n"


def pair_task(rng, n_pos, n_neg, d):
    """Pair-transformed features x_p - x_q of one label, one row per
    (positive, negative) pair in rook-vertex order.  Feature scales span
    0.05-1.5 so the second-moment spectrum is spread and the localized
    supremum takes its two-constraint (root-finding) branch."""
    scales = np.geomspace(0.05, 1.5, d)
    pos = rng.normal(size=(n_pos, d)) * scales + 0.2 * scales
    neg = rng.normal(size=(n_neg, d)) * scales
    return (pos[:, None, :] - neg[None, :, :]).reshape(n_pos * n_neg, d)
