import itertools
import time

import numpy as np
import pytest

from gdbound.errors import DomainError, ParseError, SizeError, StructuralError
from gdbound.graphdep import (
    DependencyGraph,
    FractionalCover,
    bipartite_ranking_graph,
    chromatic_fractional_exact,
    greedy_cover,
    maximal_independent_sets,
    validate_cover,
)
from oracles import edge_scan_greedy_cover


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
            assert g.neighbors(v) == {u for u in range(g.n_vertices) if g.has_edge(u, v)}
            assert g.degree(v) == 5
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
