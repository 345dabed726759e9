"""Property test for the graph commands on arbitrary short input files.

`graph chi` and `graph cover-check` must answer every edge and cover file
with a documented exit code (0 ok, 1 failed check, 2 usage, 3 parse) and
must never print `nan`.  The CLI runs in-process, so an uncaught exception
(what a user would see as a traceback) escapes `run_cli` and fails the test.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from test_cli import run_cli

COUNT = st.integers(-1, 13).map(str)
VERTEX = st.one_of(st.integers(0, 4), st.sampled_from([-1, 13])).map(str)
WEIGHT = st.sampled_from(["1.0", "0.5", "0.25", "1", "2", "0", "-1", "1e3",
                          "nan", "inf", "-inf", "x", ""])
edge_line = st.lists(VERTEX, min_size=2, max_size=2).map(" ".join)
cover_line = st.tuples(WEIGHT, st.lists(VERTEX, max_size=4).map(" ".join)).map(": ".join)
junk_line = st.lists(st.one_of(VERTEX, st.sampled_from(
    ["x", ":", "1.5", "nan", "#", "0.5:", "--", "1:2"])), max_size=4).map(" ".join)


def lines(first, rest):
    return st.tuples(first, st.lists(rest, max_size=7)).map(
        lambda parts: "\n".join([parts[0], *parts[1]]))


edges_text = st.one_of(lines(COUNT, edge_line),
                       lines(st.one_of(COUNT, junk_line), st.one_of(edge_line, junk_line)))
cover_text = st.one_of(lines(cover_line, cover_line),
                       lines(cover_line, st.one_of(cover_line, junk_line)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edges_text=edges_text, cover_text=cover_text)
def test_graph_commands_fail_cleanly(tmp_path, edges_text, cover_text):
    edges, cover = tmp_path / "g.txt", tmp_path / "cover.txt"
    edges.write_text(edges_text)
    cover.write_text(cover_text)
    for argv in (["graph", "chi", "--edges", str(edges)],
                 ["graph", "cover-check", "--edges", str(edges), "--cover", str(cover)]):
        code, out, err = run_cli(argv)
        assert code in (0, 1, 2, 3), (argv[1], code, err)
        assert "Traceback" not in err
        assert "nan" not in out
