"""Dependency graphs, fractional independent vertex covers and fractional
chromatic numbers.

A graph is stored as the neighbour set of each vertex, its one representation.
A fractional independent vertex cover of a graph G is a family
{(I_j, w_j)} of independent sets with weights w_j in (0, 1] such that for
every vertex v the weights of the classes containing v sum exactly to 1.
The fractional chromatic number chi_f(G) is the minimum total weight over
such covers.  The one construction needed in closed form is the
bipartite-ranking (rook) graph on positive x negative index pairs, whose
chi_f equals max(n_pos, n_neg); its neighbour sets are built from its rows
and columns.  Exact chi_f on small graphs comes from the covering LP over
the maximal independent sets, solved by the module's own dense-tableau
simplex (Bland's rule); larger graphs get a greedy coloring cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, InvariantError, ParseError, SizeError, \
    StructuralError

COVER_SUM_TOL = 1e-12  # per-vertex weight sums must hit 1 to this tolerance
MAX_VERTICES = 10**7  # largest vertex count a graph file may declare
MAX_EXACT_VERTICES = 12  # largest graph `chromatic_fractional_exact` solves
MAX_VERTEX_LINES = 10  # bad vertex sums listed one by one in a cover report
_LP_TOL = 1e-9


@dataclass(frozen=True)
class DependencyGraph:
    """Undirected simple graph on vertices 0..n-1; edges connect dependent pairs.

    Stored as its neighbour sets `adjacency[v]` alone, the one representation;
    `edges` is derived from them.  `from_edges` checks outside input."""

    n_vertices: int
    adjacency: tuple[frozenset[int], ...] = field(repr=False)

    @classmethod
    def from_edges(cls, n_vertices, edge_iter):
        """Build a graph, normalizing edge orientation and dropping duplicates."""
        if n_vertices < 0:
            raise DomainError("n_vertices must be nonnegative")
        nbrs: dict[int, list[int]] = {}
        for u, v in frozenset((min(u, v), max(u, v)) for u, v in edge_iter):
            if u == v:
                raise StructuralError(f"self-loop at vertex {u}")
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise StructuralError(f"edge ({u},{v}) outside vertex range")
            nbrs.setdefault(u, []).append(v)
            nbrs.setdefault(v, []).append(u)
        isolated = frozenset()  # shared, so a large edgeless graph stays small
        return cls(n_vertices, tuple(frozenset(nbrs[v]) if v in nbrs else isolated
                                     for v in range(n_vertices)))

    @property
    def edges(self):
        """The (u, v) pairs with u < v, derived from the neighbour sets."""
        return frozenset((u, v) for u, nbrs in enumerate(self.adjacency)
                         for v in nbrs if u < v)

    def is_independent(self, vertices):
        vs = set(vertices)
        return all(self.adjacency[v].isdisjoint(vs) for v in vs)

    def to_text(self):
        """Edge-list format: n_vertices on line 1, one `u v` pair per line."""
        lines = [str(self.n_vertices)]
        lines.extend(f"{u} {v}" for u, v in sorted(self.edges))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text, exact=False):
        """Parse `to_text` output; ParseError names the first bad line.  With
        `exact`, a vertex count above MAX_EXACT_VERTICES raises the SizeError
        of `chromatic_fractional_exact` before any neighbour set is built."""
        rows = [(k, ln.split()) for k, ln in enumerate(text.splitlines(), start=1)
                if ln.strip()]
        if not rows:
            raise StructuralError("empty graph text")
        (n,) = _ints(rows[0][1], 1, rows[0][0])
        if n > MAX_VERTICES:
            raise ParseError(f"vertex count {n} exceeds {MAX_VERTICES}", line=rows[0][0])
        edges = [_ints(tokens, 2, k) for k, tokens in rows[1:]]
        if exact:
            _check_exact_size(n)
        return cls.from_edges(n, edges)


def _check_exact_size(n):
    if n > MAX_EXACT_VERTICES:
        raise SizeError(f"exact mode handles at most {MAX_EXACT_VERTICES} vertices "
                        f"(got {n}); use greedy_cover")


def _ints(tokens, count, line):
    """The `count` integer tokens of one input line, or ParseError."""
    if len(tokens) != count:
        raise ParseError(f"expected {count} integer(s), got {' '.join(tokens)!r}",
                         line=line)
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise ParseError(f"bad integer in {' '.join(tokens)!r}", line=line) from None


@dataclass(frozen=True)
class FractionalCover:
    """Weighted family of independent sets covering every vertex with weight 1."""

    classes: tuple[tuple[frozenset[int], float], ...]
    graph: DependencyGraph

    @property
    def total_weight(self):
        return float(sum(w for _, w in self.classes))

    def to_text(self):
        """One `weight: v1 v2 ...` line per class."""
        lines = []
        for vs, w in self.classes:
            lines.append(f"{w!r}: " + " ".join(str(v) for v in sorted(vs)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text, graph):
        """Parse `to_text` output; ParseError names the first bad line."""
        classes = []
        for k, ln in enumerate(text.splitlines(), start=1):
            if not ln.strip():
                continue
            if ":" not in ln:
                raise ParseError(f"expected `weight: v1 v2 ...`, got {ln!r}", line=k)
            w_part, vs_part = ln.split(":", 1)
            try:
                w = float(w_part)
            except ValueError:
                raise ParseError(f"bad weight {w_part.strip()!r}", line=k) from None
            if not math.isfinite(w):
                raise ParseError(f"non-finite weight {w_part.strip()!r}", line=k)
            tokens = vs_part.split()
            vs = frozenset(_ints(tokens, len(tokens), k))
            classes.append((vs, w))
        return cls(classes=tuple(classes), graph=graph)


@dataclass
class CoverReport:
    ok: bool
    violations: list[str] = field(default_factory=list)


def validate_cover(graph: DependencyGraph, cover: FractionalCover) -> CoverReport:
    """Check a fractional cover against its graph.

    Violations reported: a class that is not an independent set, a class
    weight outside (0, 1], and a vertex whose class weights do not sum to 1
    (tolerance COVER_SUM_TOL; the first MAX_VERTEX_LINES such vertices are
    listed, the rest counted in one line).
    """
    if cover.graph.n_vertices != graph.n_vertices:
        raise StructuralError(
            f"cover built for {cover.graph.n_vertices} vertices, graph has "
            f"{graph.n_vertices}"
        )
    violations, sums = [], np.zeros(graph.n_vertices)
    for idx, (vs, w) in enumerate(cover.classes):
        for v in vs:
            if not (0 <= v < graph.n_vertices):
                raise StructuralError(f"class {idx} contains vertex {v} out of range")
            sums[v] += w
        if not (0.0 < w <= 1.0):
            violations.append(f"class {idx}: weight {w} outside (0, 1]")
        if not graph.is_independent(vs):
            violations.append(f"class {idx}: not an independent set")
    bad = np.flatnonzero(np.abs(sums - 1.0) > COVER_SUM_TOL)
    violations += [f"vertex {v}: weight sum {float(sums[v])!r} != 1"
                   for v in bad[:MAX_VERTEX_LINES]]
    if bad.size > MAX_VERTEX_LINES:
        violations.append(f"... and {bad.size - MAX_VERTEX_LINES} more vertices "
                          "with weight sum != 1")
    if graph.n_vertices > 0 and cover.total_weight < 1.0 - COVER_SUM_TOL:
        violations.append(f"total weight {cover.total_weight} < 1")
    return CoverReport(ok=not violations, violations=violations)


def bipartite_ranking_graph(n_pos: int, n_neg: int):
    """Dependency graph of all (positive, negative) index pairs, plus an
    optimal equitable cover.

    Vertices are pairs (p, q) flattened as p * n_neg + q; two pairs are
    dependent iff they share p or q, so the neighbours of (p, q) are row p
    and column q less (p, q) itself.  The returned cover has
    max(n_pos, n_neg) unit-weight classes, each a maximum independent set
    (a partial matching), so total weight equals chi_f = max(n_pos, n_neg).
    """
    if n_pos < 1 or n_neg < 1:
        raise DomainError("n_pos and n_neg must be >= 1")
    n = n_pos * n_neg
    vid = lambda p, q: p * n_neg + q
    rows = [frozenset(range(p * n_neg, (p + 1) * n_neg)) for p in range(n_pos)]
    cols = [frozenset(range(q, n, n_neg)) for q in range(n_neg)]
    graph = DependencyGraph(n, tuple((rows[p] | cols[q]) - {vid(p, q)}
                                     for p in range(n_pos) for q in range(n_neg)))

    classes = []
    for c in range(max(n_pos, n_neg)):
        if n_pos >= n_neg:
            members = frozenset(vid((q + c) % n_pos, q) for q in range(n_neg))
        else:
            members = frozenset(vid(p, (p + c) % n_neg) for p in range(n_pos))
        classes.append((members, 1.0))
    return graph, FractionalCover(classes=tuple(classes), graph=graph)


def maximal_independent_sets(graph: DependencyGraph):
    """All maximal independent sets, ascending by vertex bitmask.  Every
    independent set is grown one vertex at a time, so exact mode's size cap
    (SizeError) is checked first."""
    n = graph.n_vertices
    _check_exact_size(n)
    # (set, set plus its neighbours) masks; a copy grown by v sits above every
    # earlier mask, so the list stays ascending
    grown = [(0, 0)]
    for v, nbrs in enumerate(graph.adjacency):
        near = sum(1 << u for u in nbrs)
        grown += [(s | 1 << v, c | 1 << v | near) for s, c in grown if not s & near]
    full = (1 << n) - 1
    return [frozenset(v for v in range(n) if s >> v & 1)
            for s, c in grown if n and c == full]


def _exactify(classes, n_vertices):
    """Reduce a >=1 covering to an exact =1 cover of equal total weight.

    Excess coverage at a vertex v is shed by fractionally splitting classes
    containing v into (I, w - d) and (I \\ {v}, d); subsets of independent
    sets stay independent and every other vertex keeps its coverage.
    """
    classes = [(set(vs), float(w)) for vs, w in classes if w > _LP_TOL]
    for v in range(n_vertices):
        excess = sum(w for vs, w in classes if v in vs) - 1.0
        if excess <= _LP_TOL:
            continue
        new_classes = []
        for vs, w in classes:
            if v in vs and excess > _LP_TOL:
                d = min(w, excess)
                excess -= d
                if w - d > _LP_TOL:
                    new_classes.append((vs, w - d))
                reduced = vs - {v}
                if reduced:
                    new_classes.append((reduced, d))
            else:
                new_classes.append((vs, w))
        classes = new_classes
    merged: dict[frozenset[int], float] = {}
    for vs, w in classes:
        key = frozenset(vs)
        merged[key] = merged.get(key, 0.0) + w
    out = [(vs, min(w, 1.0)) for vs, w in sorted(merged.items(), key=lambda kv: sorted(kv[0]))
           if w > _LP_TOL]
    return tuple(out)


def _simplex_max(A):
    """max 1'y s.t. A y <= 1, y >= 0, by a dense tableau simplex.

    A is nonnegative, so the slack basis is feasible.  Bland's rule picks the
    entering column (the smallest index of negative reduced cost) and, among
    the rows of least ratio, the leaving row of smallest basis index, so the
    method cannot cycle.  A pivot is one rank-1 update of the tableau.
    Returns (optimum, row duals): the duals are the slack columns' reduced
    costs.  ConvergenceError when the LP is unbounded.
    """
    m, n = A.shape
    # tableau: [A | I | 1] over the constraint rows, [-1 | 0 | 0] objective row
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = 1.0
    T[m, :n] = -1.0
    basis = np.arange(n, n + m)
    while True:
        entering = np.flatnonzero(T[m, :-1] < -_LP_TOL)
        if not entering.size:
            return float(T[m, -1]), T[m, n:n + m].copy()
        j = entering[0]
        rows = np.flatnonzero(T[:m, j] > _LP_TOL)
        if not rows.size:
            raise ConvergenceError("packing LP is unbounded")
        ratios = T[rows, -1] / T[rows, j]
        tied = rows[ratios == ratios.min()]
        i = tied[np.argmin(basis[tied])]
        T[i] /= T[i, j]
        factors = T[:, j].copy()
        factors[i] = 0.0
        T -= np.outer(factors, T[i])
        basis[i] = j


def chromatic_fractional_exact(graph: DependencyGraph):
    """Exact chi_f via the covering LP over all maximal independent sets.

    Solves the dual packing LP (max sum y_v s.t. sum_{v in I} y_v <= 1 per
    maximal independent set I) with `_simplex_max`; the constraint
    multipliers are optimal cover weights (on a degenerate LP, the optimal
    cover at the vertex Bland's rule reaches).  Exact mode is limited to
    MAX_EXACT_VERTICES vertices; larger graphs should use greedy_cover.
    ConvergenceError when the simplex fails, InvariantError when its answer
    fails a self-check.
    """
    n = graph.n_vertices
    if n == 0:
        return 0.0, FractionalCover(classes=(), graph=graph)
    sets = maximal_independent_sets(graph)  # refuses a graph above the cap
    A = np.array([[v in s for v in range(n)] for s in sets], dtype=float)
    chi, duals = _simplex_max(A)
    raw = [(sets[i], duals[i]) for i in range(len(sets)) if duals[i] > _LP_TOL]
    # strong duality sanity check: primal cover weight equals packing optimum
    total = sum(w for _, w in raw)
    if abs(total - chi) > 1e-7 * max(1.0, chi):
        raise InvariantError(f"LP duality gap: cover weight {total} vs optimum {chi}")
    if (A.T @ np.where(duals > _LP_TOL, duals, 0.0) < 1.0 - 1e-7).any():
        raise InvariantError("LP duals do not cover every vertex")
    cover = FractionalCover(classes=_exactify(raw, n), graph=graph)
    report = validate_cover(graph, cover)
    if not report.ok:
        raise InvariantError(f"exact cover failed validation: {report.violations}")
    return chi, cover


def greedy_cover(graph: DependencyGraph) -> FractionalCover:
    """Integer-weight cover from greedy proper coloring.

    Vertices are colored in largest-degree-first order (ties by vertex id)
    with the smallest color unused among neighbors; each color class gets
    weight 1.  Total weight is an upper bound on chi_f.
    """
    adj = graph.adjacency
    order = sorted(range(graph.n_vertices), key=lambda v: (-len(adj[v]), v))
    color = [-1] * graph.n_vertices  # -1: not colored yet, never a used color
    members: list[set[int]] = []
    for v in order:
        used = {color[u] for u in adj[v]}
        c = 0
        while c in used:
            c += 1
        color[v] = c
        if c == len(members):
            members.append(set())
        members[c].add(v)
    return FractionalCover(classes=tuple((frozenset(vs), 1.0) for vs in members),
                           graph=graph)
