import itertools
import time

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gdbound import graphdep
from gdbound.errors import ConvergenceError, DomainError, ParseError, SizeError, \
    StructuralError
from gdbound.graphdep import (
    DependencyGraph,
    FractionalCover,
    bipartite_ranking_graph,
    chromatic_fractional_exact,
    greedy_cover,
    maximal_independent_sets,
    validate_cover,
)
from oracles import edge_scan_greedy_cover, highs_chromatic_fractional, rook_edges, \
    subset_scan_maximal_independent_sets


def empty_graph(n):
    return DependencyGraph.from_edges(n, [])


def complete_graph(n):
    return DependencyGraph.from_edges(n, itertools.combinations(range(n), 2))


def cycle_graph(n):
    return DependencyGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def cover_of(graph, classes):
    return FractionalCover(classes=tuple((frozenset(vs), w) for vs, w in classes),
                           graph=graph)


class TestValidateCover:
    def test_empty_graph_full_class_passes(self):
        g = empty_graph(4)
        report = validate_cover(g, cover_of(g, [({0, 1, 2, 3}, 1.0)]))
        assert report.ok

    def test_edge_inside_class_fails(self):
        g = complete_graph(2)
        report = validate_cover(g, cover_of(g, [({0, 1}, 1.0)]))
        assert not report.ok
        assert any("not an independent set" in v for v in report.violations)

    def test_singleton_classes_pass_with_weight_two(self):
        g = complete_graph(2)
        cover = cover_of(g, [({0}, 1.0), ({1}, 1.0)])
        assert validate_cover(g, cover).ok
        assert cover.total_weight == 2.0

    def test_uncovered_vertex_flagged(self):
        g = empty_graph(3)
        report = validate_cover(g, cover_of(g, [({0, 1}, 1.0)]))
        assert not report.ok
        assert any("vertex 2" in v for v in report.violations)

    def test_bad_vertex_lines_capped(self):
        g = empty_graph(200_000)
        report = validate_cover(g, cover_of(g, [({0}, 1.0)]))
        assert report.violations == [
            *(f"vertex {v}: weight sum 0.0 != 1" for v in range(1, 11)),
            "... and 199989 more vertices with weight sum != 1"]

    def test_partial_weight_flagged(self):
        g = empty_graph(2)
        report = validate_cover(g, cover_of(g, [({0, 1}, 0.5)]))
        assert not report.ok

    def test_weight_out_of_range_flagged(self):
        g = empty_graph(1)
        report = validate_cover(g, cover_of(g, [({0}, 0.5), ({0}, 0.5)]))
        assert report.ok
        bad = FractionalCover(classes=((frozenset({0}), 1.5),), graph=g)
        report = validate_cover(g, bad)
        assert any("outside (0, 1]" in v for v in report.violations)

    def test_vertex_count_mismatch_is_structural(self):
        g = empty_graph(3)
        other = empty_graph(4)
        cover = cover_of(other, [({0, 1, 2, 3}, 1.0)])
        with pytest.raises(StructuralError):
            validate_cover(g, cover)


class TestGraphBasics:
    def test_self_loop_rejected(self):
        with pytest.raises(StructuralError):
            DependencyGraph.from_edges(2, [(1, 1)])

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(StructuralError):
            DependencyGraph.from_edges(2, [(0, 2)])

    def test_text_round_trip(self):
        g = cycle_graph(5)
        assert DependencyGraph.from_text(g.to_text()).edges == g.edges

    def test_cover_text_round_trip(self):
        g, cover = bipartite_ranking_graph(3, 2)
        back = FractionalCover.from_text(cover.to_text(), g)
        assert validate_cover(g, back).ok
        assert back.total_weight == cover.total_weight

    def test_adjacency_matches_edges(self):
        g, _ = bipartite_ranking_graph(3, 4)
        for v in range(g.n_vertices):
            assert g.adjacency[v] == {u for u in range(g.n_vertices) if g.has_edge(u, v)}
            assert len(g.adjacency[v]) == 5
        back = DependencyGraph.from_text(g.to_text())
        assert back == g and hash(back) == hash(g)
        assert "adjacency" not in repr(g)

    @pytest.mark.parametrize("text, line", [
        ("3\n0 x\n", 2),            # non-integer token
        ("3\n0 1 2\n", 2),          # three tokens on an edge line
        ("3\n\n0 1\n1\n", 4),      # one token on an edge line
        ("three\n", 1),              # non-integer vertex count
        ("3 4\n0 1\n", 1),          # two tokens on the count line
        ("\n10000001\n", 2),        # vertex count above MAX_VERTICES
    ])
    def test_malformed_graph_text_is_parse_error(self, text, line):
        with pytest.raises(ParseError) as info:
            DependencyGraph.from_text(text)
        assert info.value.line == line

    @pytest.mark.parametrize("text, error, message", [
        ("", StructuralError, "empty graph text"),
        ("3\n0 x\n", ParseError, "line 2: bad integer in '0 x'"),
        ("3\n0 1.5\n", ParseError, "line 2: bad integer in '0 1.5'"),
        ("3\n\n0 1\n1\n", ParseError, "line 4: expected 2 integer(s), got '1'"),
        ("3 4\n0 1\n", ParseError, "line 1: expected 1 integer(s), got '3 4'"),
        ("\n10000001\n", ParseError, "line 2: vertex count 10000001 exceeds 10000000"),
        ("3\n1 1\n", StructuralError, "self-loop at vertex 1"),
        ("3\n0 3\n", StructuralError, "edge (0,3) outside vertex range"),
        ("3\n-1 2\n", StructuralError, "edge (-1,2) outside vertex range"),
        ("3\n2 5\n0 0\n", StructuralError, "edge (2,5) outside vertex range"),
        ("-1\n0 0\n", DomainError, "n_vertices must be nonnegative"),
    ])
    def test_graph_text_error_messages(self, text, error, message):
        with pytest.raises(error) as info:
            DependencyGraph.from_text(text)
        assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize("text, canonical", [
        ("2\n0 1\n1 0\n0 1\n", "2\n0 1\n"),     # orientation and duplicates dropped
        ("4\n\n3 0\n 2  1 \n", "4\n0 3\n1 2\n"),
        ("0\n", "0\n"),
        ("5\n", "5\n"),
    ])
    def test_graph_text_round_trip(self, text, canonical):
        g = DependencyGraph.from_text(text)
        assert g.to_text() == canonical
        assert DependencyGraph.from_text(canonical) == g
        assert repr(g) == f"DependencyGraph(n_vertices={g.n_vertices})"

    @pytest.mark.parametrize("text, line", [
        ("1.0: 0 1\n1.0 2\n", 2),   # no colon
        ("1.0: 0 x\n", 1),           # non-integer vertex
        ("heavy: 0\n", 1),           # non-numeric weight
        ("nan: 0\n", 1),             # non-finite weight
    ])
    def test_malformed_cover_text_is_parse_error(self, text, line):
        g = empty_graph(3)
        with pytest.raises(ParseError) as info:
            FractionalCover.from_text(text, g)
        assert info.value.line == line


class TestBipartiteRankingGraph:
    def test_3_2_shape_and_weight(self):
        g, cover = bipartite_ranking_graph(3, 2)
        assert g.n_vertices == 6
        assert cover.total_weight == 3.0
        assert validate_cover(g, cover).ok

    def test_1_1_single_vertex(self):
        g, cover = bipartite_ranking_graph(1, 1)
        assert g.n_vertices == 1
        assert cover.total_weight == 1.0
        assert validate_cover(g, cover).ok

    def test_4_4_equitable_classes(self):
        # every class holds 4 pairwise-disjoint pairs; checked exhaustively
        g, cover = bipartite_ranking_graph(4, 4)
        assert g.n_vertices == 16
        assert cover.total_weight == 4.0
        assert validate_cover(g, cover).ok
        for vs, w in cover.classes:
            assert w == 1.0
            assert len(vs) == 4
            ps = [v // 4 for v in vs]
            qs = [v % 4 for v in vs]
            assert len(set(ps)) == 4 and len(set(qs)) == 4

    def test_edges_are_shared_row_or_column(self):
        g, _ = bipartite_ranking_graph(3, 3)
        for u, v in g.edges:
            pu, qu = divmod(u, 3)
            pv, qv = divmod(v, 3)
            assert pu == pv or qu == qv

    def test_zero_counts_rejected(self):
        with pytest.raises(DomainError):
            bipartite_ranking_graph(0, 3)
        with pytest.raises(DomainError):
            bipartite_ranking_graph(2, 0)


ROOK_SHAPES = ([(p, q) for p in range(1, 9) for q in range(1, 9)]
               + [(1, 17), (1, 40), (17, 1), (40, 1), (22, 22)])


class TestRookNeighbourSets:
    """`bipartite_ranking_graph` builds its neighbour sets from rows and
    columns; the graph must be the one `from_edges` makes of the oracle's
    edge list, in every view and cover that reads it."""

    @pytest.mark.parametrize("shape", ROOK_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_rook_graph_equals_the_edge_list_graph(self, shape):
        n_pos, n_neg = shape
        g, cover = bipartite_ranking_graph(n_pos, n_neg)
        edges = rook_edges(n_pos, n_neg)
        ref = DependencyGraph.from_edges(n_pos * n_neg, edges)
        assert g == ref and hash(g) == hash(ref)
        assert g.to_text() == ref.to_text()
        assert g.edges == ref.edges == frozenset(edges)
        assert DependencyGraph.from_text(g.to_text()) == g
        for v in range(g.n_vertices):
            assert g.adjacency[v] == ref.adjacency[v]
            assert len(g.adjacency[v]) == len(ref.adjacency[v]) == n_pos + n_neg - 2
        probes = range(g.n_vertices) if g.n_vertices <= 64 else range(0, g.n_vertices, 23)
        for v in probes:
            assert [g.has_edge(u, v) for u in range(g.n_vertices)] == \
                [ref.has_edge(u, v) for u in range(g.n_vertices)]
        assert greedy_cover(g).to_text() == greedy_cover(ref).to_text()
        for c in (cover, greedy_cover(ref)):
            assert validate_cover(g, c) == validate_cover(ref, c)
            assert validate_cover(g, c).ok

    def test_has_edge_outside_the_vertex_range_is_false(self):
        g, _ = bipartite_ranking_graph(2, 3)
        assert not g.has_edge(-1, 0) and not g.has_edge(6, 0) and not g.has_edge(0, 6)
        assert g.has_edge(0, 1) and g.has_edge(0, 3) and not g.has_edge(0, 0)


@st.composite
def small_graphs(draw):
    """Graphs of 0-12 vertices, each pair an edge with a drawn density p."""
    n = draw(st.integers(0, 12))
    p = draw(st.sampled_from([0.0, 0.15, 0.3, 0.5, 0.8, 1.0]))
    bits = draw(st.lists(st.floats(0, 1, exclude_max=True),
                         min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    pairs = itertools.combinations(range(n), 2)
    return DependencyGraph.from_edges(n, [e for e, b in zip(pairs, bits) if b < p])


class TestMaximalIndependentSets:
    """Pivoting Bron-Kerbosch must list what the subset scan listed, in its
    ascending-bitmask order, so that the LP and its cover stay the same."""

    def test_every_graph_up_to_7_vertices(self):
        # networkx's atlas: every graph on 0-7 vertices up to isomorphism
        for atlas_graph in nx.graph_atlas_g():
            g = DependencyGraph.from_edges(atlas_graph.number_of_nodes(), atlas_graph.edges)
            assert maximal_independent_sets(g) == subset_scan_maximal_independent_sets(g), \
                g.to_text()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(g=small_graphs())
    def test_drawn_graphs_up_to_12_vertices(self, g):
        assert maximal_independent_sets(g) == subset_scan_maximal_independent_sets(g)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(g=small_graphs())
    def test_complement_cliques_of_networkx(self, g):
        graph = nx.empty_graph(g.n_vertices)
        graph.add_edges_from(g.edges)
        cliques = sorted((frozenset(c) for c in nx.find_cliques(nx.complement(graph))),
                         key=lambda s: sum(1 << v for v in s))
        assert maximal_independent_sets(g) == cliques

    def test_exact_cover_as_with_the_subset_scan(self, monkeypatch):
        rng = np.random.default_rng(29)
        graphs = [cycle_graph(5), complete_graph(4), empty_graph(3),
                  bipartite_ranking_graph(3, 4)[0]]
        for _ in range(12):
            n = int(rng.integers(1, 13))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]
            graphs.append(DependencyGraph.from_edges(n, edges))
        got = [chromatic_fractional_exact(g) for g in graphs]
        monkeypatch.setattr(graphdep, "maximal_independent_sets",
                            subset_scan_maximal_independent_sets)
        for g, (chi, cover) in zip(graphs, got):
            want_chi, want = chromatic_fractional_exact(g)
            assert (chi, cover.to_text()) == (want_chi, want.to_text())


class TestChromaticExact:
    def test_complete_graph(self):
        chi, cover = chromatic_fractional_exact(complete_graph(4))
        assert chi == pytest.approx(4.0, abs=1e-9)
        assert validate_cover(complete_graph(4), cover).ok

    def test_empty_graph(self):
        chi, _ = chromatic_fractional_exact(empty_graph(5))
        assert chi == pytest.approx(1.0, abs=1e-12)

    def test_five_cycle(self):
        g = cycle_graph(5)
        chi, cover = chromatic_fractional_exact(g)
        assert chi == pytest.approx(2.5, abs=1e-9)
        assert validate_cover(g, cover).ok

    def test_size_limit(self):
        with pytest.raises(SizeError, match="greedy_cover"):
            chromatic_fractional_exact(empty_graph(13))

    def test_odd_cycles(self):
        # chi_f(C_{2k+1}) = 2 + 1/k
        for n, expect in ((5, 2.5), (7, 7.0 / 3.0), (9, 2.25)):
            chi, _ = chromatic_fractional_exact(cycle_graph(n))
            assert chi == pytest.approx(expect, abs=1e-9)

    def test_petersen_fragment_random_graphs_valid(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.4]
            g = DependencyGraph.from_edges(n, edges)
            chi, cover = chromatic_fractional_exact(g)
            assert validate_cover(g, cover).ok
            assert abs(cover.total_weight - chi) <= 1e-9
            # sandwich: n/alpha <= chi_f <= greedy colors
            alpha = max(len(s) for s in maximal_independent_sets(g))
            assert chi >= n / alpha - 1e-9
            assert chi <= greedy_cover(g).total_weight + 1e-9

    def test_monotone_under_edge_addition(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(3, 11))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.3]
            g = DependencyGraph.from_edges(n, edges)
            missing = [(i, j) for i in range(n) for j in range(i + 1, n)
                       if not g.has_edge(i, j)]
            if not missing:
                continue
            extra = missing[int(rng.integers(len(missing)))]
            g2 = DependencyGraph.from_edges(n, list(g.edges) + [extra])
            chi1, _ = chromatic_fractional_exact(g)
            chi2, _ = chromatic_fractional_exact(g2)
            assert chi2 >= chi1 - 1e-9


class TestSimplexAgainstHighs:
    """The package's simplex against scipy's HiGHS, the solver it replaced:
    chi_f equal to 1e-12 relative, and a cover that validates with total
    weight chi_f to 1e-9."""

    @staticmethod
    def check(g):
        chi, cover = chromatic_fractional_exact(g)
        assert chi == pytest.approx(highs_chromatic_fractional(g), rel=1e-12, abs=0), \
            g.to_text()
        assert validate_cover(g, cover).ok, g.to_text()
        assert abs(cover.total_weight - chi) <= 1e-9, g.to_text()

    def test_graph_atlas(self):
        # networkx's atlas: every graph on 0-7 vertices up to isomorphism
        for atlas_graph in nx.graph_atlas_g():
            self.check(DependencyGraph.from_edges(atlas_graph.number_of_nodes(),
                                                  atlas_graph.edges))

    def test_rook_shapes_and_cycles(self):
        for n_pos, n_neg in itertools.product(range(1, 13), repeat=2):
            if n_pos * n_neg <= 12:
                self.check(bipartite_ranking_graph(n_pos, n_neg)[0])
        for n in range(3, 13):
            self.check(cycle_graph(n))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(g=small_graphs())
    def test_drawn_graphs_up_to_12_vertices(self, g):
        self.check(g)

    def test_unbounded_lp_is_a_convergence_error(self):
        # the second column appears in no row, so y_1 grows without bound
        with pytest.raises(ConvergenceError, match="unbounded"):
            graphdep._simplex_max(np.array([[1.0, 0.0]]))


class TestGreedyCover:
    def test_empty_graph_single_class(self):
        cover = greedy_cover(empty_graph(100))
        assert cover.total_weight == 1.0
        assert validate_cover(empty_graph(100), cover).ok

    def test_complete_graph(self):
        cover = greedy_cover(complete_graph(10))
        assert cover.total_weight == 10.0
        assert validate_cover(complete_graph(10), cover).ok

    def test_bipartite_5_3_at_least_chi(self):
        g, optimal = bipartite_ranking_graph(5, 3)
        cover = greedy_cover(g)
        assert validate_cover(g, cover).ok
        assert cover.total_weight >= optimal.total_weight

    @pytest.mark.parametrize("shape", [(22, 22), (5, 3)])
    def test_rook_matches_edge_scan_oracle(self, shape):
        g, _ = bipartite_ranking_graph(*shape)
        assert greedy_cover(g).to_text() == edge_scan_greedy_cover(g).to_text()

    def test_random_graphs_match_edge_scan_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(0, 41))
            p = rng.random()
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < p]
            g = DependencyGraph.from_edges(n, edges)
            assert greedy_cover(g).to_text() == edge_scan_greedy_cover(g).to_text()

    def test_rook_40_40_under_a_second(self):
        # was 23.7 s when every neighbourhood rescanned all 62k edges
        g, optimal = bipartite_ranking_graph(40, 40)
        start = time.perf_counter()
        cover = greedy_cover(g)
        assert time.perf_counter() - start < 1.0
        assert validate_cover(g, cover).ok
        assert cover.total_weight >= optimal.total_weight

    def test_rook_40_40_builds_in_under_50_ms(self):
        # was 0.14 s when the 62k edge tuples were formed and checked one by
        # one; the best of three builds, so that one descheduling is not read
        # as the build's cost
        times = []
        for _ in range(3):
            start = time.perf_counter()
            bipartite_ranking_graph(40, 40)
            times.append(time.perf_counter() - start)
        assert min(times) < 0.05, times

    def test_greedy_upper_bounds_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.5]
            g = DependencyGraph.from_edges(n, edges)
            chi, _ = chromatic_fractional_exact(g)
            assert greedy_cover(g).total_weight >= chi - 1e-9


class TestBipartiteMatchesExactLP:
    def test_all_small_shapes(self):
        for n_pos in range(1, 13):
            for n_neg in range(1, 13):
                if n_pos * n_neg > 12:
                    continue
                g, cover = bipartite_ranking_graph(n_pos, n_neg)
                chi, _ = chromatic_fractional_exact(g)
                assert cover.total_weight == pytest.approx(chi, abs=1e-9), \
                    (n_pos, n_neg)
                assert chi == pytest.approx(max(n_pos, n_neg), abs=1e-9)
