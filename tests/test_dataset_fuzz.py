"""Property test for `load_dataset` through `experiment`.

Whatever an mlsvm file's header declares and its body holds, `experiment`
must answer with a documented exit code (0 ok, 1 failed check, 2 usage,
3 parse) and print no traceback.  Headers declare 1-20 or 10**11-10**12
features and labels, and a sample count equal to the body's line count or
one off; body lines mix repeated, out-of-range, non-numeric and `nan`
tokens.  The CLI runs in-process, so an uncaught exception (a MemoryError
from a header that asks for terabytes, say) fails the test.  The one
warning it may raise is cross-validation's skipped-fold warning.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from test_cli import run_experiment_cli

NARROW, WIDE = st.integers(1, 20), st.integers(10**11, 10**12)
# Lines of in-range tokens (a repeated feature index sums), into which at
# most one bad token is spliced, so that a good share of the files load.
LINE = st.tuples(st.lists(st.sampled_from(["0", "1"]), max_size=2, unique=True),
                 st.lists(st.tuples(st.sampled_from(["0", "1", "2"]),
                                    st.sampled_from(["1.0", "-0.5", "2", "0.25", "-3"]))
                          .map(":".join), min_size=1, max_size=4))
BAD = st.sampled_from([("label", "x"), ("label", "-1"), ("label", "25"),
                       ("feature", "20:1"), ("feature", "-1:1"), ("feature", "x:1"),
                       ("feature", "0:x"), ("feature", "0:nan"), ("feature", "1.5:2"),
                       ("feature", "3"), ("feature", ":")])


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(d=NARROW, k=NARROW, huge=WIDE, wide=st.sampled_from(["", "", "d", "k"]),
       body=st.lists(LINE, min_size=2, max_size=12),
       off=st.sampled_from([0, 0, 0, -1, 1]),
       bad=st.one_of(st.none(), st.tuples(st.integers(0, 11), BAD)))
def test_experiment_on_drawn_mlsvm_files_fails_cleanly(tmp_path, d, k, huge, wide, body,
                                                        off, bad):
    # half the headers declare one count of 10**11 or more
    d, k = (huge if wide == "d" else d), (huge if wide == "k" else k)
    body = [(list(labels), list(feats)) for labels, feats in body]
    if bad:
        line, (part, token) = bad
        labels, feats = body[line % len(body)]
        (labels if part == "label" else feats).append(token)
    data = tmp_path / "drawn.mlsvm"
    data.write_text("\n".join([f"#samples={len(body) + off} #features={d} #labels={k}",
                               *(",".join(labels) + "\t" + " ".join(feats)
                                 for labels, feats in body)]) + "\n")
    code, _, err = run_experiment_cli(["experiment", "--data", str(data), "--seeds", "0",
                                       "--epochs", "1", "--folds", "2"])
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err
