"""sha256 pins of the bytes the CLI writes, on fixed inputs.

Each pin is the digest of one report file or one stdout of a command run
in-process on inputs built here: `experiment` on the emotions-like and
cal500-like data of `synthdata`, `verify` on every configuration of the
benchmark's verify mix, `bound` for every formula, and `lfrc estimate`,
`rstar kernel` and `rstar linear` on small matrix files.  A change that
moves output bytes updates the pins it moves in the same commit and says
in CHANGES.md which moved and why.

The pins are keyed by numpy version: the SGD row streams transcribe
numpy's SeedSequence and its Lemire step, and every Monte Carlo draw comes
from numpy's generators.  A numpy version with no pins fails, naming the
version.  `python tests/test_golden.py` (with `src` on PYTHONPATH) prints
the digests of the installed numpy in the layout of `PINS`.
"""

import contextlib
import hashlib
import importlib.util
import io
import os
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from gdbound.cli import BOUND_FORMULAS, main
from gdbound.macroauc import save_dataset

from synthdata import cal500_like, emotions_like

ROOT = Path(__file__).resolve().parents[1]


def _verify_mix():
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.VERIFY_MIX


VERIFY_MIX = _verify_mix()
VERIFY_TRIALS = 10_000

# formula: its options, each formula at a point where every value it reports
# is finite and away from its edge cases
BOUND_ARGS = {
    "bernstein": ["--c", "1.5", "--v", "2", "--t", "ln100"],
    "bennett-general": ["--ez", "0.5", "--sigma2", "0.75", "--chi", "1,2.5", "--t", "1.25"],
    "bennett-refined": ["--ez", "0.25", "--sigma2", "1", "--chi", "2", "--t", "0.75"],
    "lower-tail": ["--ez", "2", "--sigma2", "0.5", "--chi", "1.5,3", "--t", "0.5"],
    "talagrand-v": ["--sigma2", "0.3", "--ez", "1.7"],
    "ours-macroauc": ["--rstar", "0.001", "--K", "2", "--tau", "0.5,0.25", "--n", "1000",
                      "--t", "ln100", "--mu", "1"],
    "prior-macroauc": ["--K", "3", "--tau", "0.3,0.2,0.45", "--n", "500", "--t", "ln20",
                       "--mbar", "3.5", "--mtilde", "1.25"],
    "kernel-macroauc": ["--rstar", "0.02", "--K", "2", "--tau", "0.4,0.1", "--n", "300",
                        "--t", "2", "--B", "2"],
    "excess-general": ["--r", "0.05", "--chi", "2,3", "--m", "40,60", "--t", "1",
                       "--B", "1.5", "--mu", "0.5"],
}

SKIPPED_FOLD = r"fold \d+: all labels degenerate, skipped"


def _int_matrix(rows, cols, salt):
    """A small integer matrix from a fixed formula: no random generator, so
    the files written from it do not depend on numpy."""
    i, j = np.ogrid[:rows, :cols]
    return (i * 7 + j * 3 + salt) % 11 - 5


def _write_matrix(path, matrix):
    Path(path).write_text("".join(" ".join(map(str, row)) + "\n" for row in matrix.tolist()),
                          encoding="utf-8")


def _write_inputs():
    """The input files of every command, in the working directory."""
    save_dataset(emotions_like(seed=0), "emotions.mlsvm")
    save_dataset(cal500_like(seed=0), "cal500.mlsvm")
    for k, (rows, salt) in enumerate([(18, 0), (25, 4)]):
        _write_matrix(f"features{k}.txt", _int_matrix(rows, 5, salt))
        A = _int_matrix(rows, 4, salt)
        _write_matrix(f"gram{k}.txt", A @ A.T)  # integer, so exactly PSD
    _write_matrix("weights.txt", _int_matrix(4, 9, 2))


def _commands():
    """(name, argv, {output name: file written}) of every pinned run."""
    runs = [("experiment", ["experiment", "--data", "emotions.mlsvm", "--data", "cal500.mlsvm",
                            "--seeds", "0,1", "--epochs", "4", "--out", "exp"],
             {"emotions.report.json": "exp/emotions.report.json",
              "cal500.report.json": "exp/cal500.report.json",
              "comparison.txt": "exp/comparison.txt"})]
    for i, (key, flags) in enumerate(VERIFY_MIX):
        runs.append((f"verify/{key}", ["verify", *flags, "--trials", str(VERIFY_TRIALS),
                                       "--seed", str(1009 + 17 * i), "--out", f"{key}.json"],
                     {"report.json": f"{key}.json"}))
    for formula, args in BOUND_ARGS.items():
        runs.append((f"bound/{formula}", ["bound", formula, *args, "--out", f"{formula}.json"],
                     {"report.json": f"{formula}.json"}))
    features = ["--features", "features0.txt", "--features", "features1.txt"]
    runs += [
        ("lfrc-estimate/unlocalized", ["lfrc", "estimate", *features, "--draws", "60",
                                       "--seed", "5"], {}),
        ("lfrc-estimate/r=0.5", ["lfrc", "estimate", *features, "--r", "0.5", "--mtilde", "2",
                                 "--draws", "40", "--seed", "11"], {}),
        ("rstar-kernel", ["rstar", "kernel", "--gram", "gram0.txt", "--gram", "gram1.txt",
                          "--chi", "2,3", "--m", "18,25", "--mtilde", "1.5"], {}),
        ("rstar-linear/tasks", ["rstar", "linear", "--weights", "weights.txt", "--chi",
                                "1,2,2,4", "--m", "30,30,40,50", "--mbar", "2"], {}),
        ("rstar-linear/experiment-mode", ["rstar", "linear", "--weights", "weights.txt",
                                          "--tau", "0.3,0.25,0.4,0.5", "--n", "200",
                                          "--experiment-mode", "true", "--d-max", "3"], {}),
    ]
    return runs


def run_all():
    """{pin name: output bytes} of every run, in a fresh working directory."""
    outputs = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the reports embed --data as given: a relative path
        try:
            _write_inputs()
            for name, argv, files in _commands():
                out = io.StringIO()
                with warnings.catch_warnings(record=True) as caught, \
                        contextlib.redirect_stdout(out):
                    warnings.filterwarnings("always", SKIPPED_FOLD, UserWarning)
                    code = main(argv)
                for w in caught:
                    assert w.category is UserWarning, w
                    assert re.fullmatch(SKIPPED_FOLD, str(w.message)), w
                assert code == 0, (name, out.getvalue())
                outputs[f"{name}/stdout"] = out.getvalue().encode("utf-8")
                for label, path in files.items():
                    outputs[f"{name}/{label}"] = Path(path).read_bytes()
        finally:
            os.chdir(cwd)
    return outputs


PINS = {
    '2.4.6': {
        'experiment/stdout': 'c9b0c8219707ebf16525ea3bc398d315cff3fdf0302154c8dd5c9744e5abd55a',
        'experiment/emotions.report.json': 'f75d858ff78a4a5422675689bfd128a51c7d0fda9f56011f3021436cb2546891',
        'experiment/cal500.report.json': '79f9d73ce3013a1ce2992fb927e19102167146fa7b5661bb66423d4c938b1096',
        'experiment/comparison.txt': 'c9b0c8219707ebf16525ea3bc398d315cff3fdf0302154c8dd5c9744e5abd55a',
        'verify/bip60x50-product-bennett_general/stdout': 'cb44ed37db508ca166a5e9bdea507a4c0fa734eb4421e31eea3ccd56536944ad',
        'verify/bip60x50-product-bennett_general/report.json': '819e2c29be125c5a064410123957e6282c917e96f7b305ad5233237bcc53d6fe',
        'verify/bip30x20-centered-K2-plugin-deviation/stdout': '452a815c37667ebe1bd650cd5899feceee6045fd71bf58d16480255b8edf906e',
        'verify/bip30x20-centered-K2-plugin-deviation/report.json': 'f52306e316856a5d1816a576a80164930fe97daca7a81db3956c06e327bf4c90',
        'verify/bip12x10-talagrand/stdout': 'ef97bac92f19bd6bfbbda72669c67a93b467d7c7c63fd16f05da91e4016ca561',
        'verify/bip12x10-talagrand/report.json': 'a939aaf18ddeeb20f3e05c1280c220c92e4642945ef77183b067b66508853923',
        'verify/bip20x20-twopoint-mean-lower_tail/stdout': 'c67dc736a4a98dab63a742df9c42119084bd36b7cdac079809681c8450a02b19',
        'verify/bip20x20-twopoint-mean-lower_tail/report.json': '07183bb47f6f42a18b71476bca84e28bf701746523b84b00cf588741670c65ed',
        'verify/iid200-K3-bennett_refined/stdout': '2c1f6a696d6ac3ba4c37a4ced65c2ba9d8aa6b5870f2eab3bf6f65df8987ea6f',
        'verify/iid200-K3-bennett_refined/report.json': '06a88909ec22613de9db86337bfd02f9ea98cee31c9852b60486bae8318161a5',
        'bound/bernstein/stdout': 'c7822822b46d26030a79c7dc228a79b79c12ba70ba3f4dd80c18601bad76f35f',
        'bound/bernstein/report.json': 'f5e9e7ec4226e3e4a47e758947bc14b8867e2ea463c921bcb994067af384e2e8',
        'bound/bennett-general/stdout': 'e01e487614419bf8aad747c67a155da4a3e323f0414e7ecabab7a091e825c46f',
        'bound/bennett-general/report.json': 'ae586a7f0974c30afa02a44b18176bfe6b727d12bfc35f14256ff1bd687906e5',
        'bound/bennett-refined/stdout': '2851787d0f9ee1cd84db83c03f414bba62bf323797ea047150c6d603ec237dd1',
        'bound/bennett-refined/report.json': '4b29394c4e1a83bf9d57415ff81f9c9e2316262338279ebf1e65997bb4e8ce0e',
        'bound/lower-tail/stdout': '3ea828ca1323e3b09e296496e541f8bc338e3468dcc47cb7bf01f35698766679',
        'bound/lower-tail/report.json': '2ed472950f77abce6418c8486712e0fbc0ade12668e916022da22d97013a1c41',
        'bound/talagrand-v/stdout': '77d7c2c6a0ae0e1c556220119f62983844a1d3aa2e5c2e63df97b24cc92b542b',
        'bound/talagrand-v/report.json': '2caf8346ad1ff760620f70b6d6b78032b1680fa7ee1c2f3f7c7a4cebb2b838c5',
        'bound/ours-macroauc/stdout': '8d04d65f62dbca33875bbc1b128db6a500bb6be2e6e7282c639c42faaa7e33f3',
        'bound/ours-macroauc/report.json': 'ae7b07d84e6b816623033051a4ba6e4b92f2535283ff5f3dbd1af8ecaa0d72d3',
        'bound/prior-macroauc/stdout': 'e35100e8f81ac209b677552214153e25c1d99f1bc0efa43bf2c4132ab7d1fdbd',
        'bound/prior-macroauc/report.json': 'f4640b100c9b8b467165fed0ee509e85727e09de668949ef5b07cb6fd72d8109',
        'bound/kernel-macroauc/stdout': '1b5a4d37d596bf02ec5d65a290caf2a0b7928e7115dcbdcfeff3d9f159c034a2',
        'bound/kernel-macroauc/report.json': 'e15faeaf83670b3e62691e3ea44789f70be0d064f385dca10bf15adf2dbcbd3c',
        'bound/excess-general/stdout': 'a3e3033911b2df717e8a97b0a0ec9a68fbf7295270296f89fc60b79e2e83217c',
        'bound/excess-general/report.json': '178c5d990d4174c5618978d77f39d10de1a6dac5d4d0d648065f8df4ecb69082',
        'lfrc-estimate/unlocalized/stdout': 'e2a6df8edae555f9f12b1eec09c6e42d2d0f71d9bc7c06ba23a5b11996d1fcef',
        'lfrc-estimate/r=0.5/stdout': '805039cd252d75e34701054ba68e93a9bad3708506bab22a2854e6ea975968fb',
        'rstar-kernel/stdout': 'dcf1aade5976204f24bba943b209bff171850d7bdd8f205a51107529909b95f3',
        'rstar-linear/tasks/stdout': '9c3174f723d0b7319345e6afd7e4adea3d738c4e917520c84278b98f82d4fc6b',
        'rstar-linear/experiment-mode/stdout': '6990f88680ea348a7d4a9980ba6481979a7b9aca78fcc8437c340c3cc4100e31',
    },
}


@pytest.fixture(scope="module")
def digests():
    return {name: hashlib.sha256(data).hexdigest() for name, data in run_all().items()}


def installed_pins():
    """The pins of the installed numpy; a version with none fails the test."""
    if np.__version__ not in PINS:
        pytest.fail(f"no golden pins for numpy {np.__version__} (pinned: "
                    f"{', '.join(sorted(PINS))}); record them with "
                    f"`python tests/test_golden.py`")
    return PINS[np.__version__]


def test_every_bound_formula_is_pinned():
    assert set(BOUND_ARGS) == set(BOUND_FORMULAS)


def test_every_output_is_pinned(digests):
    assert sorted(digests) == sorted(installed_pins())


def test_outputs_match_their_pins(digests):
    pins = installed_pins()
    moved = sorted(name for name in pins if digests.get(name) != pins[name])
    assert not moved, f"outputs moved from their pins: {moved}"


if __name__ == "__main__":
    print(f"    {np.__version__!r}: {{")
    for name, data in run_all().items():
        print(f"        {name!r}: {hashlib.sha256(data).hexdigest()!r},")
    print("    },")
