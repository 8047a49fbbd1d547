"""Command-line surface: outputs, exit codes, schema conformance.

Everything runs in-process through main(argv) except the smoke test for
the installed console script and the timed refusals, whose process exit
status and stderr are checked.  Every JSON report is validated
against the shipped schema.
"""

import hashlib
import importlib.resources
import json
import resource
import subprocess
import sys
import time

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from infker import cli
from infker.cli import _json_indented, main
from infker.exterior import parse
from infker.symplectic import SymplecticSpace, gamma, x_plus


@pytest.fixture(scope="module")
def schema():
    ref = importlib.resources.files("infker").joinpath(
        "schemas/report.schema.json")
    return json.loads(ref.read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, schema, *argv):
    code, out, err = run_cli(capsys, *argv)
    blob = json.loads(out)
    jsonschema.validate(blob, schema)
    return code, blob, err


def test_quotient_basis_example(capsys, schema):
    code, blob, _ = run_json(
        capsys, schema, "quotient-basis", "-p", "2", "-m", "3", "-r", "4")
    assert code == 0
    assert blob["dim"] == 1
    assert blob["basis"] == ["x2^x3^y2^y3"]


def test_sl2_check_example(capsys, schema):
    code, blob, _ = run_json(capsys, schema, "sl2-check", "-p", "5", "-m", "2")
    assert code == 0
    assert blob["ok"] is True
    assert blob["sigma"] == -1


def test_nonprime_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "theorem1", "-p", "4", "-m", "2")
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ("decompose", "-p", "5", "-m", "2", "--class", "x1^"),
    ("decompose", "-p", "5", "-m", "2", "--class", "x9^y1"),
    ("quotient-basis", "-p", "5", "-m", "2", "-r", "9"),
    ("ladder", "-p", "5", "-m", "2", "--class", ""),
    ("bogus-subcommand",),
    (),
])
def test_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2


def test_catalog_refusal_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "isotropic", "-p", "31", "-m", "3", "--dim", "3")
    assert code == 3
    assert "917116928" in err or "917,116,928" in err or "refus" in err


@pytest.mark.parametrize("argv", [
    ("theorem1", "-p", "2", "-m", "7"),
    ("vanishing-space", "-p", "2", "-m", "7", "-r", "2"),
    ("counterexample", "-p", "2", "-m", "7"),
], ids=lambda argv: argv[0])
def test_closure_refusal_beyond_m_6(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "3432 degree-7 wedge coordinates" in err


def test_vanishing_refusal_before_any_map():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "infker", "theorem1", "-p", "3", "-m", "7"],
        capture_output=True, text=True)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "3432 degree-7 wedge coordinates" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv,noun", [
    (("vanishing-space", "-p", "2", "-m", "7", "-r", "8"), "3003 degree-8 wedge coordinates"),
    (("ideal-basis", "-p", "2", "-m", "7", "-r", "7"), "3432 degree-7 wedge coordinates"),
], ids=["vanishing-space", "ideal-basis"])
def test_dense_basis_refusal_before_allocating(argv, noun):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "infker", *argv],
                          capture_output=True, text=True)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert noun in proc.stderr
    assert "Traceback" not in proc.stderr


def test_narrow_degrees_answer_past_m_6(capsys, schema):
    code, blob, _ = run_json(capsys, schema, "ideal-basis", "-p", "2", "-m", "8", "-r", "2")
    assert code == 0
    assert blob["dim"] == 1


#: Reports whose bytes were fixed while the vanishing spaces still came
#: from the orbit closure.
PINNED_DIGESTS = {
    "theorem1 -p 2 -m 4":
        "373c67dbc4d61fd80d472bbc3c0123f80c1d77a36dfad29046df436a1fd550d6",
    "theorem1 -p 3 -m 4":
        "30b7ae8dad02a873407a459190a3da5a6ce7b2d7a663c54ce2b6f878166e3ff8",
    "theorem1 -p 2 -m 5":
        "cd93ba0ffce5ac6fc48aa206d1188ef43673c90052a6f968b30f573e0952d85b",
    "theorem1 -p 3 -m 5":
        "895e8ff61fbd0160316938644e36dde244189987b9ffc7ff6b728c9cefb1800b",
    "counterexample -p 2 -m 5":
        "3077d2e5f4de1c9eadbd3681435d8ff0b26bc2c5ddf5d337ecee3cb387109d96",
    "vanishing-space -p 2 -m 5 -r 5":
        "602927921bc9eaba9eb7b262ce2e939570d9616bdb2f6eb09a38bbf55336b9cf",
    "certificate -p 3 -m 3 --class x2^x3^y2^y3":
        "2668c9131db4cd4fbe208f5d539880aa90ea7f8064cb20a8c8f1b8e9350a6fb9",
    "certificate -p 2 -m 4 --class x2^x3^x4^y2^y3^y4":
        "2f858f63d7303f7a27a640bdc17f1339463bf7b9c811fada07c29b2e7214efee",
    # fixed while ideal, vanishing space, gap classes and primitive pieces
    # were still eliminated over full C(2m, r)-wide rows
    "theorem1 -p 2 -m 6":
        "fa9519950e7308eef004ca780f34dfa1386b6556305be01922d0835591697cff",
    "ideal-basis -p 2 -m 4 -r 4":
        "07ec04b273522fc7ab649b32827f356bad57702a3ae6a0fe785f8b9ee88da3b9",
    "quotient-basis -p 2 -m 4 -r 5":
        "b6d512a0946367c2c6514ed92b9b7a897c86fac8b740316a2241cee8e48af977",
    "decompose -p 5 -m 3 --class x1^y1+x2^y2":
        "22cced7aaba4de3b6f62fc37d359f508b59618855475a21748cd6b96872cd08c",
    # fixed while theorem1 still wrote its block results into colex rows and
    # read them back per block; odd p and degrees above m, where signs matter
    "theorem1 -p 3 -m 6":
        "86848a4c70dc651ac9049a5efbaf34ad047bf9d289ea59602cdadde1583e1532",
    "counterexample -p 3 -m 6":
        "8f1a613e618dfd17491cd595de148fb2253012e03ddb499874853e720518ff0f",
    "vanishing-space -p 3 -m 5 -r 7":
        "6699c025c1aa40da565565656847e040a8e677a3c1d7174c415a56dbd1e77370",
    # fixed while each perp was a kernel and its radical split came from the
    # kernel of its Gram matrix; odd p, where phi_f != 1 and signs matter
    "certificate -p 5 -m 2 --class x1^x2+3*y1^y2+4*x1^y2":
        "56ba3bbdc88e65d466123ed2c71f25d540f2f85484c15d221ecaac4ad2fd2e5a",
    "certificate -p 7 -m 2 --class x1^x2^y1+3*x2^y1^y2":
        "d9ec90e8d6c10c3dbb5f7ca03631e8ee97171742077b2561ffffc943375e6637",
    # fixed while each point's restriction and annihilator wedges were taken
    # by minors; at odd p the restricted monomials contain f, so signs matter
    "certificate -p 2 -m 3 --class x2^x3^y2^y3":
        "ca88a5ae0f5b109ed8a53db8ea86a8d09b0781d4c96ef8c23f4ac40a17e92e89",
    "certificate -p 2 -m 3 --class x2^x3^y2^y3 --format text":
        "58d31d82c6d6b3ac8ac127d4c700e774efafe53b970f3199af8c482d2ef121f8",
    "certificate -p 3 -m 3 --class x1^x2^x3^y1+2*x2^y2^y3^y1":
        "479abcf2daa70acc368bf84618fad00210da044265c5ce1418f5607012bfb006",
    "certificate -p 2 -m 4 --class x1^x2^y3^y4+x1^y1^x3^y3":
        "62614b5af5d846559082cfd84a6b278dbc4fcc640819403ec5f22af7dd7851fd",
}


json_scalars = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=True, allow_infinity=True) | st.text())
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(st.integers(), min_size=1, max_size=6)  # the writer's int-list path
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20)


@given(json_values)
@settings(max_examples=300)
def test_json_renderer_matches_json_dumps(value):
    """Floats, NaN and infinities, non-ASCII text and escapes included."""
    assert _json_indented(value) == json.dumps(value, indent=2, sort_keys=True)


@given(st.data())
@settings(max_examples=200)
def test_json_renderer_matches_json_dumps_on_shared_objects(data):
    """One dict or list object met at several places and depths, as the
    records of a certificate share their witnesses, renders as ``json``
    renders each copy."""
    shared = data.draw(st.dictionaries(st.text(max_size=4), json_values, min_size=1, max_size=3)
                       | st.lists(json_values, min_size=1, max_size=3))
    around = data.draw(st.recursive(
        st.just(shared) | json_scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                    max_size=4),
        max_leaves=12))
    value = [around, shared, {"a": shared, "b": [shared, {"c": shared}]}]
    assert _json_indented(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    {"é\n\"\\": [float("nan"), float("-inf"), -0.0, 1e300, "\u2603\U0001f600\x00"]},
    ({"b": (), "a": {}},),
    True, None, -2 ** 70, 0.1, {3: 0.5, 1: True, 2.5: None},
    # the int-list path: bools in the list, big ints, nested int lists
    [True, 1, 0, False], [2 ** 70, -1, 0], [[1, 2], [3]],
])
def test_json_renderer_frozen_cases(value):
    assert _json_indented(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("command", sorted(PINNED_DIGESTS))
def test_stdout_digests_pinned(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS[command]


def test_one_parser_serves_every_call(capsys):
    """Commands, usage errors and help through the parser that ``main``
    keeps for the process give what a freshly built parser gives."""
    runs = [("theorem1", "-p", "2", "-m", "3"),
            ("theorem1", "-p", "4", "-m", "2"),
            ("decompose", "-p", "5", "-m", "3", "--class", "x1^y1+x2^y2"),
            ("vanishing-space", "-p", "2", "-m", "2"),
            ("--help",),
            ("ideal-basis", "--help"),
            ("quotient-basis", "-p", "3", "-m", "2", "-r", "2", "--format", "text"),
            ("group", "-p", "2", "-m", "1", "--op", "nope"),
            ("theorem1", "-p", "2", "-m", "3")]
    kept = [run_cli(capsys, *argv) for argv in runs]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in runs:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert kept == fresh
    assert [code for code, _, _ in kept] == [0, 2, 0, 2, 0, 0, 0, 2, 0]
    assert kept[0] == kept[-1]


def test_sl2_check_past_dense_products(capsys, schema):
    code, blob, _ = run_json(capsys, schema, "sl2-check", "-p", "3", "-m", "6")
    assert code == 0
    assert blob["ok"] is True


def run_capped(*argv):
    """The CLI in a subprocess capped at 1.5 GB of address space and 30 s,
    so a refusal that comes after an allocation fails the test instead of
    exhausting the machine."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))
    return subprocess.run([sys.executable, "-m", "infker", *argv], capture_output=True,
                          text=True, timeout=30, preexec_fn=cap)


def with_unit_rows(argv, tmp_path):
    """``argv`` with each "UNIT<n>" replaced by a file holding the n unit
    rows of F_p^n, a ``--subspace`` that is the whole space."""
    out = []
    for arg in argv:
        if arg.startswith("UNIT"):
            n, arg = int(arg[4:]), tmp_path / f"{arg}.json"
            arg.write_text(json.dumps([[int(i == j) for j in range(n)] for i in range(n)]))
        out.append(str(arg))
    return out


def wedge_of_x(m):
    return "^".join(f"x{i}" for i in range(1, m + 1))


@pytest.mark.parametrize("argv,noun", [
    (("theorem1", "-p", "2", "-m", "100000"), "at least 2^14004 degree-100000 wedge coordinates"),
    (("counterexample", "-p", "2", "-m", "100000"), "at least 2^14004 degree-100000"),
    (("theorem1", "-p", "2", "-m", "7"), "3432 degree-7 wedge coordinates"),
    (("quotient-basis", "-p", "2", "-m", "12", "-r", "12"), "2704156 degree-12 wedge coordinates"),
    (("quotient-basis", "-p", "2", "-m", "9", "-r", "9"), "48620 degree-9 wedge coordinates"),
    (("ideal-basis", "-p", "2", "-m", "100000", "-r", "3"), "1333313333400000 degree-3"),
    (("sl2-check", "-p", "2", "-m", "100000"), "at least 2^14004 degree-100000 wedge coordinates"),
    # p ** 2m - 1 is refused by its bit length, never built
    (("certificate", "-p", "2", "-m", "1000000000", "--class", "x1^y1"),
     "at least 2^1999999999 vectors, more than the supported 1000000"),
    (("certificate", "-p", "3", "-m", "1000000000", "--class", "x1^y1"),
     "at least 2^3169925001 vectors"),
    # so is the group order p ** (2m + 1), whether scanned or printed
    (("group", "-p", "2", "-m", "100000000", "--op", "type"),
     "at least 2^200000001 group elements, more than the supported 1000000"),
    (("group", "-p", "2", "-m", "100000000", "--op", "order"),
     "at least 2^200000001 group elements, more than the supported 2^14000"),
    (("group", "-p", "3", "-m", "100000000", "--op", "order"),
     "at least 2^316992501 group elements"),
    # the top degree's one coordinate passes, but its key (m, m) would list
    # the m subsets of size m - 1
    (("ideal-basis", "-p", "2", "-m", "100000", "-r", "200000"),
     "10000000000 subset positions, more than the supported 1000000"),
    (("quotient-basis", "-p", "2", "-m", "100000", "-r", "200000"),
     "10000000000 subset positions, more than the supported 1000000"),
    # the pullback's widest wedge table holds C(n, min(r - 1, n // 2)) n entries
    (("restrict", "-p", "2", "-m", "20", "--class", wedge_of_x(20), "--subspace", "UNIT40"),
     "5251296336000 wedge-table entries, more than the supported 1000000"),
    (("restrict", "-p", "2", "-m", "11", "--class", wedge_of_x(11), "--subspace", "UNIT22"),
     "14226212 wedge-table entries, more than the supported 1000000"),
    # a product past 14,000 bits is refused as it passes them
    (("premet-suprunenko", "-p", "3", "-m", "2000", "-r", "1000"),
     "at least 2^14002 as the product, more than the supported 2^14000"),
    (("premet-suprunenko", "-p", "2", "-m", "100000", "-r", "100000"),
     "at least 2^14005 as the product, more than the supported 2^14000"),
    (("premet-suprunenko", "-p", "2", "-m", "100000", "-r", "50000"),
     "at least 2^14001 as the product, more than the supported 2^14000"),
    # the subspace count is sized by a lower bound on its bit length
    (("isotropic", "-p", "2", "-m", "100000000", "--dim", "1"),
     "at least 2^199999999 subspaces, more than the supported 1000000"),
], ids=lambda arg: " ".join(arg) if isinstance(arg, tuple) else None)
def test_oversized_input_refused_before_allocating(argv, noun, tmp_path):
    argv = with_unit_rows(argv, tmp_path)
    start = time.perf_counter()
    proc = run_capped(*argv)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert noun in proc.stderr
    assert "Traceback" not in proc.stderr


OVERSIZED = [
    (("certificate", "-p", "2", "-m", "100000", "--class", "x1^y1"),
     "at least 2^199999 vectors, more than the supported 1000000"),
    (("isotropic", "-p", "2", "-m", "100000", "--dim", "1"), "at least 2^199999 subspaces"),
    (("isotropic", "-p", "2", "-m", "100000", "--dim", "1", "--count-only"),
     "at least 2^199999 subspaces, more than the supported 2^14000"),
    (("group", "-p", "2", "-m", "100000", "--op", "type"), "at least 2^200001 group elements"),
    (("group", "-p", "2", "-m", "100000", "--op", "center"), "at least 2^200001 group elements"),
    (("group", "-p", "2", "-m", "100000", "--op", "order"),
     "at least 2^200001 group elements, more than the supported 2^14000"),
    (("group", "-p", "2", "-m", "100000", "--op", "commutator-form"),
     "40000000000 element pairs, more than the supported 1000000"),
    (("quotient-basis", "-p", "2", "-m", "100000", "-r", "0"), ("basis", ["1"])),
    # an order of 14,000 bits still prints; one more pair is refused
    (("group", "-p", "2", "-m", "6999", "--op", "order"), ("order", 2 ** 13999)),
    (("group", "-p", "2", "-m", "7000", "--op", "order"), "at least 2^14001 group elements"),
    # degree 0 lists no monomial pool and no torus weight, which costs O(m)
    (("ideal-basis", "-p", "2", "-m", "1000000000", "-r", "0"), ("basis", [])),
    (("quotient-basis", "-p", "2", "-m", "1000000000", "-r", "0"), ("basis", ["1"])),
    (("decompose", "-p", "2", "-m", "100000", "--class", "x1^y1"),
     "19999900000 degree-2 wedge coordinates, more than the supported 12870"),
    # below degree 2 a class is its own primitive part: no weight, no gamma
    (("decompose", "-p", "2", "-m", "100000000", "--class", "1"), ("e", "1")),
    (("decompose", "-p", "3", "-m", "100000000", "--class", "2"), ("beta", "0")),
    (("ladder", "-p", "2", "-m", "100000", "--class", "x1"),
     "2666533335666650000040000 degree-5 wedge coordinates"),
    # C(16, 7) 16 = 183,040 wedge-table entries are under the budget
    (("restrict", "-p", "2", "-m", "8", "--class", wedge_of_x(8), "--subspace", "UNIT16"),
     ("terms", [{"monomial": "^".join(f"e{i}" for i in range(1, 9)), "coeff": 1}])),
    (("isotropic", "-p", "2", "-m", "100000000", "--dim", "1", "--count-only"),
     "at least 2^199999999 subspaces, more than the supported 2^14000"),
]


@pytest.mark.parametrize("argv,expect", OVERSIZED, ids=[" ".join(argv) for argv, _ in OVERSIZED])
def test_oversized_space_answers_or_refuses_without_its_form(argv, expect, tmp_path):
    """The 2m x 2m Gram matrix is built only when read, refusal counts past
    14,000 bits are stated as a power of two, and exact answers past that
    are refused: each command ends in an answer (``expect`` is a key of
    the report and its value) or in exit 3 (``expect`` is in the message),
    within the 1.5 GB cap and in seconds."""
    argv = with_unit_rows(argv, tmp_path)
    start = time.perf_counter()
    proc = run_capped(*argv)
    assert time.perf_counter() - start < 5
    assert "Traceback" not in proc.stderr
    if isinstance(expect, str):
        assert (proc.returncode, proc.stdout) == (3, "")
        assert expect in proc.stderr
    else:
        key, value = expect
        assert proc.returncode == 0
        assert json.loads(proc.stdout)[key] == value


def test_zero_subspace_is_listed_without_the_form():
    """The zero subspace is isotropic with no form to check, so the one
    subspace of dimension 0 is listed at m = 100000 within the cap."""
    start = time.perf_counter()
    proc = run_capped("isotropic", "-p", "2", "-m", "100000", "--dim", "0")
    assert time.perf_counter() - start < 2
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(lines) == 2 and lines[0] == {"basis": []}
    assert (lines[1]["m"], lines[1]["count"]) == (100000, 1)


def test_quotient_basis_answers_up_to_the_limit(capsys, schema):
    # C(12, 6) = 924 coordinates, the most any basis report serves
    code, blob, _ = run_json(capsys, schema, "quotient-basis", "-p", "2", "-m", "6", "-r", "6")
    assert code == 0
    assert blob["dim"] == 924 - 430  # minus the ideal's dimension


def test_sl2_check_refusal_beyond_m_8():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "infker", "sl2-check", "-p", "2", "-m", "9"],
        capture_output=True, text=True)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "48620 degree-9 wedge coordinates" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_certificate_refusal_beyond_the_vector_budget():
    # 7^8 - 1 nonzero vectors: refused before the first perp is built
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "infker", "certificate", "-p", "7", "-m", "4",
         "--class", "x1^y1"],
        capture_output=True, text=True)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "5764800 vectors" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_closure_answers_past_the_lagrangian_catalog(capsys, schema):
    # the (11,3) Lagrangian catalog holds over 10^6 subspaces
    code, blob, _ = run_json(capsys, schema, "theorem1", "-p", "11", "-m", "3")
    assert code == 0
    assert blob["max_gap"] == 0


def test_count_only_avoids_refusal(capsys, schema):
    code, blob, _ = run_json(
        capsys, schema,
        "isotropic", "-p", "31", "-m", "3", "--dim", "3", "--count-only")
    assert code == 0
    assert blob["count"] == 917116928
    assert blob["enumerated"] is False


def test_decomposition_defect_is_invariant_failure(capsys):
    code, out, err = run_cli(
        capsys, "decompose", "-p", "3", "-m", "3", "--class", "x1^y1")
    assert code == 1


def test_decompose_round_trip(capsys, schema):
    code, blob, _ = run_json(
        capsys, schema, "decompose", "-p", "5", "-m", "2",
        "--class", "x1^y1")
    assert code == 0
    assert blob["e"] == "3*x1^y1 + 2*x2^y2"
    assert blob["beta"] == "3"
    assert blob["degree"] == 2


def test_decompose_answers_in_the_middle_degree_at_m_8():
    """Degree 8 at m = 8 has 12,870 coordinates; a two-term class touches
    two torus-weight blocks, and only those are solved."""
    cls = "x1^x2^x3^x4^x5^x6^x7^x8 + 3*x1^y1^x2^y2^x3^y3^x4^y4"
    start = time.perf_counter()
    proc = run_capped("decompose", "-p", "11", "-m", "8", "--class", cls)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    space = SymplecticSpace(11, 8)
    e, beta = parse(blob["e"], 11, 8), parse(blob["beta"], 11, 8)
    assert x_plus(space, e).is_zero()
    assert e + gamma(space).wedge(beta) == parse(cls, 11, 8)


def test_isotropic_stream_shape(capsys, schema):
    code, out, _ = run_cli(
        capsys, "isotropic", "-p", "2", "-m", "2", "--dim", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 16
    for line in lines[:-1]:
        blob = json.loads(line)
        jsonschema.validate(blob, schema)
        assert len(blob["basis"]) == 2
    summary = json.loads(lines[-1])
    jsonschema.validate(summary, schema)
    assert summary["count"] == 15
    assert "complete" not in summary
    assert summary["enumerated"] is True


@pytest.mark.parametrize("op", ["center", "order", "commutator-form", "type"])
def test_group_subcommand_schema(capsys, schema, op):
    code, blob, _ = run_json(
        capsys, schema, "group", "-p", "3", "-m", "1", "--op", op)
    assert code == 0
    if op == "order":
        assert blob["order"] == 27
    if op == "type":
        assert blob["type"] == "+"
        assert blob["exponent"] == 3


def test_group_type_arf_present_for_p2(capsys, schema):
    code, blob, _ = run_json(
        capsys, schema, "group", "-p", "2", "-m", "1", "--op", "type")
    assert code == 0
    assert blob["arf"] == 0
    assert blob["type"] == "+"


def test_theorem1_report(capsys, schema):
    code, blob, _ = run_json(capsys, schema, "theorem1", "-p", "2", "-m", "3")
    assert code == 0
    assert blob["collapse_expected"] is False
    assert blob["max_gap"] == 1
    gaps = {row["degree"]: row["gap"] for row in blob["degrees"]}
    assert gaps[4] == 1 and gaps[2] == 0


def test_counterexample_report(capsys, schema):
    code, blob, _ = run_json(
        capsys, schema, "counterexample", "-p", "2", "-m", "3")
    assert code == 0
    assert blob["found"] is True
    assert blob["class"] == "x2^x3^y2^y3"

    code, blob, _ = run_json(
        capsys, schema, "counterexample", "-p", "5", "-m", "2")
    assert code == 0
    assert blob["found"] is False


def test_certificate_exit_zero_even_on_negative_answer(capsys, schema):
    code, blob, _ = run_json(
        capsys, schema, "certificate", "-p", "2", "-m", "3",
        "--class", "x2^x3^y2^y3")
    assert code == 0
    assert blob["overall"] is True
    assert blob["checked"] == 63


def test_ladder_report(capsys, schema):
    code, blob, _ = run_json(
        capsys, schema, "ladder", "-p", "5", "-m", "2", "--class", "1")
    assert code == 0
    assert blob["length"] == 3
    assert blob["weight"] == 2
    assert blob["entries"] == ["1", "4*x1^y1 + 4*x2^y2", "4*x1^x2^y1^y2"]


def test_premet_report(capsys, schema):
    code, blob, _ = run_json(
        capsys, schema, "premet-suprunenko", "-p", "2", "-m", "3", "-r", "2")
    assert code == 0
    assert blob["irreducible"] is True


def test_restrict_end_to_end(capsys, schema, tmp_path):
    sub = tmp_path / "subspace.json"
    sub.write_text(json.dumps([
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
    ]))
    code, blob, _ = run_json(
        capsys, schema, "restrict", "-p", "2", "-m", "3",
        "--class", "x1^x2 + y1^y2", "--subspace", str(sub))
    assert code == 0
    assert blob["zero"] is False
    assert blob["terms"] == [{"monomial": "e1^e2", "coeff": 1}]


def test_restrict_to_lagrangian_kills_the_form(capsys, schema, tmp_path):
    sub = tmp_path / "lagrangian.json"
    sub.write_text(json.dumps([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ]))
    code, blob, _ = run_json(
        capsys, schema, "restrict", "-p", "3", "-m", "2",
        "--class", "x1^y1 + x2^y2", "--subspace", str(sub))
    assert code == 0
    assert blob["zero"] is True


def test_restrict_missing_file_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "restrict", "-p", "3", "-m", "2",
        "--class", "x1^y1", "--subspace", str(tmp_path / "absent.json"))
    assert code == 2


@pytest.mark.parametrize("entry", [0.5, "a", True], ids=["float", "string", "bool"])
def test_restrict_non_integer_entry_is_usage_error(capsys, tmp_path, entry):
    sub = tmp_path / "subspace.json"
    sub.write_text(json.dumps([[1, 0, 0, 0], [0, entry, 0, 0]]))
    code, out, err = run_cli(
        capsys, "restrict", "-p", "3", "-m", "2",
        "--class", "x1^y1", "--subspace", str(sub))
    assert code == 2
    assert out == ""
    assert "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("modulus,code", [
    ("318665857834031151167461", 2),   # strong pseudoprime to bases 2..37
    ("3317044064679887385961981", 2),  # strong pseudoprime to bases 2..41
    (str(2 ** 61 - 1), 0),
])
def test_moduli_near_the_primality_bound(capsys, modulus, code):
    got, _, err = run_cli(
        capsys, "premet-suprunenko", "-p", modulus, "-m", "1", "-r", "0")
    assert got == code
    assert "Traceback" not in err


def test_ideal_and_vanishing_reports(capsys, schema):
    code, blob, _ = run_json(
        capsys, schema, "ideal-basis", "-p", "2", "-m", "3", "-r", "4")
    assert code == 0
    assert blob["dim"] == 14

    code, blob, _ = run_json(
        capsys, schema, "vanishing-space", "-p", "2", "-m", "3", "-r", "4")
    assert code == 0
    assert blob["dim"] == 15


def test_output_is_deterministic(capsys):
    argv = ("theorem1", "-p", "2", "-m", "3")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_verify_all_small_grid(capsys, schema):
    code, blob, _ = run_json(
        capsys, schema, "verify-all", "--grid", "small")
    assert code == 0
    assert blob["ok"] is True
    assert len(blob["criteria"]) == 12
    for row in blob["criteria"]:
        assert row["ok"] is True
        assert "seconds" not in row


def test_verify_all_output_is_byte_identical(capsys):
    argv = ("verify-all", "--grid", "small")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_text_format_smoke(capsys):
    code, out, _ = run_cli(
        capsys, "ladder", "-p", "5", "-m", "2", "--class", "1",
        "--format", "text")
    assert code == 0
    assert "command: ladder" in out
    json_fail = True
    try:
        json.loads(out)
        json_fail = False
    except json.JSONDecodeError:
        pass
    assert json_fail


def test_console_script_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "infker", "sl2-check", "-p", "3", "-m", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert blob["ok"] is True
