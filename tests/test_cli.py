"""Command-line surface: formats, round trips, determinism, exit codes."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kustinmiller.cli import InputFile, main, serialize_complex
from kustinmiller.complexes import betti
from kustinmiller.gb import FreeModuleMap
from kustinmiller.resolutions import koszul_complex
from kustinmiller import make_ring

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parents[1] / "src"

O7_GRID = """\
       0 1  2 3 4
total: 1 9 16 9 1
    0: 1 .  . . .
    1: . 9 16 9 .
    2: . .  . . 1"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_cli_process(*argv, **env):
    """Run the CLI in a fresh interpreter that imports this checkout's src/,
    with `env` added to the environment."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "kustinmiller.cli", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, **env))


def test_km_golden_grid(capsys):
    code, out, _ = run_cli(capsys, "km",
                           "--ideal-I", str(DATA / "segre_pfaffians.txt"),
                           "--ideal-J", str(DATA / "segre_koszul_j.txt"),
                           "--new-var", "T")
    assert code == 0
    assert out.rstrip("\n") == O7_GRID


def test_km_with_user_phi_matches(capsys):
    code1, out1, _ = run_cli(capsys, "km",
                             "--ideal-I", str(DATA / "segre_pfaffians.txt"),
                             "--ideal-J", str(DATA / "segre_koszul_j.txt"))
    code2, out2, _ = run_cli(capsys, "km",
                             "--ideal-I", str(DATA / "segre_pfaffians.txt"),
                             "--ideal-J", str(DATA / "segre_koszul_j.txt"),
                             "--phi", str(DATA / "segre_phi.txt"))
    assert code1 == code2 == 0
    assert out1 == out2


def test_resbe_prints_pfaffians(capsys):
    code, out, _ = run_cli(capsys, "resbe", "--matrix", str(DATA / "segre_b2.txt"))
    assert code == 0
    first = out.splitlines()[0]
    assert first == ("z_2*z_3 - z_1*z_4, -x_4*z_3 + x_3*z_4, x_4*z_1 - x_3*z_2, "
                     "x_2*z_2 - x_1*z_4, -x_2*z_1 + x_1*z_3")
    assert "total: 1 5 5 1" in out


def test_resbe_mixed_degree_columns(tmp_path, capsys):
    """A graded skew matrix whose columns mix entry degrees is resolved, and
    `verify` accepts the written complex against the printed Pfaffians."""
    matrix = DATA / "skew_mixed_degrees.txt"
    out_path = tmp_path / "be.cplx"
    code, out, _ = run_cli(capsys, "resbe", "--matrix", str(matrix), "--out", str(out_path))
    assert code == 0
    assert "total: 1 5 5 1" in out
    ideal = tmp_path / "pfaffians.txt"
    ring = matrix.read_text().split("[matrix]")[0]
    ideal.write_text(ring + "[ideal]\n" + out.splitlines()[0].replace(", ", "\n") + "\n")
    code, out, _ = run_cli(capsys, "verify", "--complex", str(out_path), "--ideal", str(ideal))
    assert code == 0, out


@pytest.mark.parametrize("rows, code", [
    ([], 2),
    (["0, x, $", "-x, 0, y", "-$, -y, 0"], 2),
    (["0, x, y", "-x, 0", "-y, 0, 0"], 2),
    (["x, x, y", "-x, 0, z", "-y, -z, 0"], 2),
    (["0, x, y", "-x, 0, z", "-y, z, 0"], 2),
    (["0, x + y^2, y", "-x - y^2, 0, z", "-y, -z, 0"], 2),
    (["target_twists = 0 0 0", "0, x, y", "-x, 0, z", "-y, -z, 0"], 2),
    (["source_twists = 1 1 1", "0, x, y", "-x, 0, z", "-y, -z, 0"], 2),
    (["0, x", "-x, 0"], 3),
    (["0, x, 0", "-x, 0, 0", "0, 0, 0"], 3),
    (["0, x, y", "-x, 0, z", "-y, -z, 0"], 0),
], ids=["empty", "bad-cell", "ragged", "diagonal", "not-skew", "inhomogeneous",
        "target-twists", "source-twists", "even-size", "vanishing-pfaffian", "ok"])
def test_resbe_exit_codes(tmp_path, capsys, rows, code):
    f = tmp_path / "skew.txt"
    f.write_text("[ring]\nvariables = x y z\n\n[matrix]\n" + "\n".join(rows) + "\n")
    got, _, err = run_cli(capsys, "resbe", "--matrix", str(f))
    assert got == code, err
    if code == 2:
        assert f"{f}: " in err and "[matrix]" in err


def test_koszul_command(tmp_path, capsys):
    f = tmp_path / "elems.txt"
    f.write_text("[ring]\nvariables = x y\n\n[ideal]\nx\ny\n")
    code, out, _ = run_cli(capsys, "koszul", "--elements", str(f))
    assert code == 0
    assert "total: 1 2 1" in out


def test_resolve_command(capsys):
    code, out, _ = run_cli(capsys, "resolve",
                           "--ideal", str(DATA / "segre_pfaffians.txt"))
    assert code == 0
    assert "total: 1 5 5 1" in out


def test_unproject_prints_ideal(capsys):
    code, out, _ = run_cli(capsys, "unproject",
                           "--ideal-I", str(DATA / "segre_pfaffians.txt"),
                           "--ideal-J", str(DATA / "segre_koszul_j.txt"))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert "-x_1*x_3 + z_1*T" in lines


def test_serialize_roundtrip(tmp_path):
    R = make_ring(["x", "y", "z"], [1, 1, 2])
    C = koszul_complex([R.var("x"), R.var("y"), R.var("z")])
    path = tmp_path / "k.cplx"
    path.write_text(serialize_complex(C))
    loaded = InputFile(str(path)).complex()
    assert loaded == C


def test_out_and_verify_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "cu.cplx"
    code, _, _ = run_cli(capsys, "km",
                         "--ideal-I", str(DATA / "segre_pfaffians.txt"),
                         "--ideal-J", str(DATA / "segre_koszul_j.txt"),
                         "--out", str(out_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "unproject",
                           "--ideal-I", str(DATA / "segre_pfaffians.txt"),
                           "--ideal-J", str(DATA / "segre_koszul_j.txt"))
    assert code == 0
    ideal_path = tmp_path / "u.txt"
    ring_lines = ("[ring]\nvariables = x_1 x_2 x_3 x_4 z_1 z_2 z_3 z_4 T\n"
                  "field = qq\norder = grevlex\n")
    ideal_path.write_text(ring_lines + "\n[ideal]\n" + out)
    code, out, _ = run_cli(capsys, "verify",
                           "--complex", str(out_path),
                           "--ideal", str(ideal_path))
    assert code == 0
    assert out.startswith("ok")


def test_cyclic_and_stellar_commands(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "stellar",
                           "--facets", str(DATA / "octahedron.txt"),
                           "--face", "x_1 x_3 x_5",
                           "--new-vertex", "x_7")
    assert code == 0
    assert "total: 1 7 12 7 1" in out


def test_cyclic_and_stellar_honour_field(capsys, tmp_path):
    commands = (
        (["cyclic", "--dim", "4", "--vertices", "8"], "total: 1 16 30 16 1"),
        (["cyclic", "--dim", "6", "--vertices", "10"], "total: 1 25 48 25 1"),
        (["stellar", "--facets", str(DATA / "octahedron.txt"), "--face", "x_1 x_3 x_5",
          "--new-vertex", "x_7"], "total: 1 7 12 7 1"),
        (["stellar", "--facets", str(DATA / "octahedron.txt"), "--face", "x_1 x_3"],
         "total: 1 7 12 7 1"),
        (["stellar", "--facets", str(DATA / "cross_polytope_4.txt"), "--face", "x_1 x_3"],
         "total: 1 9 20 20 9 1"),
    )
    for argv, totals in commands:
        code, out_qq, _ = run_cli(capsys, *argv)
        assert code == 0
        out_path = tmp_path / f"{argv[0]}.cplx"
        code, out_fp, _ = run_cli(capsys, "--field", "fp:32003", *argv, "--out", str(out_path))
        assert code == 0
        assert totals in out_fp
        assert out_fp == out_qq
        assert "field = fp:32003" in out_path.read_text()


def test_cyclic_and_stellar_flags_not_ignored(capsys, monkeypatch):
    import kustinmiller.simplicial as simplicial
    seen = []
    real = simplicial.unproject

    def spy(*args, **kwargs):
        seen.append(kwargs["strict"])
        return real(*args, **kwargs)

    monkeypatch.setattr(simplicial, "unproject", spy)
    code, out, _ = run_cli(capsys, "--strict", "cyclic", "--dim", "4", "--vertices", "8")
    assert code == 0 and "total: 1 16 30 16 1" in out
    assert seen == [True]
    for argv in (["cyclic", "--dim", "4", "--vertices", "8"],
                 ["stellar", "--facets", str(DATA / "octahedron.txt"), "--face", "x_1 x_3 x_5"]):
        code, out, err = run_cli(capsys, "--order", "lex", *argv)
        assert code == 2
        assert out == ""
        assert "--order lex" in err
    assert seen == [True]


def test_km_strict_golden_grid(capsys):
    code, out, _ = run_cli(capsys, "--strict", "km",
                           "--ideal-I", str(DATA / "segre_pfaffians.txt"),
                           "--ideal-J", str(DATA / "segre_koszul_j.txt"))
    assert code == 0
    assert out.rstrip("\n") == O7_GRID


def test_determinism_byte_identical(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "km",
                               "--ideal-I", str(DATA / "segre_pfaffians.txt"),
                               "--ideal-J", str(DATA / "segre_koszul_j.txt"))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_determinism_across_processes(tmp_path):
    """Byte-identical serialized output under different hash seeds."""
    outs = []
    for seed in ("1", "2"):
        out_path = tmp_path / f"cu_{seed}.cplx"
        r = run_cli_process("km",
                            "--ideal-I", str(DATA / "segre_pfaffians.txt"),
                            "--ideal-J", str(DATA / "segre_koszul_j.txt"),
                            "--out", str(out_path), PYTHONHASHSEED=seed)
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout + out_path.read_text())
    assert outs[0] == outs[1]


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    for field, poly in (("qq", "x + $"),
                        ("qq", "1/0*x"),     # zero denominator
                        ("fp:7", "1/7*x"),   # denominator vanishes in GF(7)
                        ("qq", "x^99999999"),  # exponent above the cap
                        ("qq", "(" * 2000 + "x" + ")" * 2000),  # nesting too deep
                        ("qq", "-" * 2000 + "x")):
        bad.write_text(f"[ring]\nvariables = x\nfield = {field}\n\n[ideal]\n{poly}\n")
        code, _, err = run_cli(capsys, "resolve", "--ideal", str(bad))
        assert code == 2
        assert "error" in err
        assert "Traceback" not in err


_COMPLEX_HEAD = "[ring]\nvariables = x y\n\n[complex]\n"


@pytest.mark.parametrize("text, where", [
    (_COMPLEX_HEAD + "length = 1\ntwists_0 = 0\ntwists_1 = 1 1\n\n[matrix 1]\nx^2, y\n",
     "[matrix 1]"),
    (_COMPLEX_HEAD + "length = 1\ntwists_0 = 0\ntwists_1 = 1 1\n\n[matrix 1]\nx, $\n",
     "[matrix 1]"),
    (_COMPLEX_HEAD + "length = one\ntwists_0 = 0\ntwists_1 = 1 1\n\n[matrix 1]\nx, y\n",
     "length"),
    (_COMPLEX_HEAD + "length = 1\ntwists_0 = 0\ntwists_1 = 1 y\n\n[matrix 1]\nx, y\n",
     "twists_1"),
], ids=["wrong-degree", "bad-cell", "bad-length", "bad-twists"])
def test_bad_complex_file_names_file_and_section(tmp_path, capsys, text, where):
    cplx = tmp_path / "bad.cplx"
    cplx.write_text(text)
    ideal = tmp_path / "i.txt"
    ideal.write_text("[ring]\nvariables = x y\n\n[ideal]\nx\ny\n")
    code, out, err = run_cli(capsys, "verify", "--complex", str(cplx), "--ideal", str(ideal))
    assert code == 2
    assert out == ""
    assert f"{cplx}: " in err and where in err
    assert "Traceback" not in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "resolve", "--ideal", "/nonexistent/file.txt")
    assert code == 2


def test_hypothesis_error_exit_code(tmp_path, capsys):
    # J = I gives deg_t = 0: a hypothesis failure, exit 3
    code, _, err = run_cli(capsys, "km",
                           "--ideal-I", str(DATA / "segre_pfaffians.txt"),
                           "--ideal-J", str(DATA / "segre_pfaffians.txt"))
    assert code == 3


def test_stellar_empty_face_exits_2(capsys):
    code, out, err = run_cli(capsys, "stellar", "--facets", str(DATA / "octahedron.txt"),
                             "--face", "")
    assert code == 2
    assert out == ""
    assert err == "error: cannot subdivide at the empty face\n"


def test_threads_env_validation(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("UNPROJ_THREADS", "zebra")
    code, _, err = run_cli(capsys, "resolve",
                           "--ideal", str(DATA / "segre_pfaffians.txt"))
    assert code == 2
    monkeypatch.setenv("UNPROJ_THREADS", "2")
    code, out, _ = run_cli(capsys, "resolve",
                           "--ideal", str(DATA / "segre_pfaffians.txt"))
    assert code == 0


def test_facets_file_vertex_order(tmp_path):
    f = tmp_path / "c.txt"
    f.write_text("[facets]\nb c\na b\n")
    C = InputFile(str(f)).facets()
    assert C.vertices == ("b", "c", "a")


def test_fp_field_roundtrip(tmp_path, capsys):
    f = tmp_path / "i.txt"
    f.write_text("[ring]\nvariables = x y\nfield = fp:7\n\n[ideal]\nx^2 + 3*y^2\n")
    code, out, _ = run_cli(capsys, "resolve", "--ideal", str(f))
    assert code == 0
    # a characteristic near 10^18 is decided at once
    g = tmp_path / "j.txt"
    g.write_text("[ring]\nvariables = x y\n\n[ideal]\nx^2 + 3*y^2\nx*y\n")
    code, out, _ = run_cli(capsys, "--field", "fp:1000000000000000003", "resolve",
                           "--ideal", str(g))
    assert code == 0 and "total: 1 2 1" in out


def test_bad_global_flag_exits_2(tmp_path, capsys):
    for flag in (["--order", "foo"], ["--field", "gf"], ["--field", "fp:4"],
                 ["--field", f"fp:{2**89 - 1}"]):
        r = run_cli_process(*flag, "cyclic", "--dim", "4", "--vertices", "8")
        assert r.returncode == 2, (flag, r.stderr)
        assert r.stdout == ""
        assert "Traceback" not in r.stderr
        assert f"argument {flag[0]}:" in r.stderr.splitlines()[-1]
    # the same names inside an input file are a ParseError naming the value
    bad = tmp_path / "bad.txt"
    for key, value in (("order", "foo"), ("field", "gf")):
        bad.write_text(f"[ring]\nvariables = x\n{key} = {value}\n\n[ideal]\nx\n")
        code, out, err = run_cli(capsys, "resolve", "--ideal", str(bad))
        assert code == 2
        assert out == ""
        assert f"unknown {key} {value!r}" in err


@pytest.mark.parametrize("ring_lines, message", [
    ("variables = x\nfield = gf\n", "unknown field 'gf' (use qq or fp:<p>)"),
    ("variables = x\norder = foo\n", "unknown order 'foo' (use grevlex or lex)"),
    ("field = qq\n", "[ring] section needs a 'variables =' line"),
    ("variables = x x\n", "duplicate variable names"),
], ids=["field", "order", "no-variables", "duplicate-variables"])
def test_ring_section_errors_name_the_file(tmp_path, capsys, ring_lines, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"[ring]\n{ring_lines}\n[ideal]\nx\n")
    code, out, err = run_cli(capsys, "resolve", "--ideal", str(bad))
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}: {message}\n"


SEGRE_PAIR = ["--ideal-I", str(DATA / "segre_pfaffians.txt"),
              "--ideal-J", str(DATA / "segre_koszul_j.txt")]
OCTAHEDRON_EDGE = ["--facets", str(DATA / "octahedron.txt"), "--face", "x_1 x_3"]


@pytest.mark.parametrize("argv, problem", [
    (["km", *SEGRE_PAIR, "--new-var", "x_1"], "'x_1' is already a variable of the ring"),
    (["stellar", *OCTAHEDRON_EDGE, "--new-vertex", "z"], "'z' is already a variable of the ring"),
    (["km", *SEGRE_PAIR, "--new-var", "1x"], "'1x' is not a valid variable name"),
    (["stellar", *OCTAHEDRON_EDGE, "--new-vertex", "1x"], "'1x' is not a valid variable name"),
], ids=["km-new-var", "stellar-auxiliary-z", "km-bad-name", "stellar-bad-name"])
def test_new_variable_clash_exits_2_before_resolving(capsys, monkeypatch, argv, problem):
    import kustinmiller.km as km

    def no_resolution(I):
        raise AssertionError("resolved an ideal before checking the new variable")

    monkeypatch.setattr(km, "minimal_free_resolution", no_resolution)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: the new variable {problem}\n"


def test_golden_out_files(tmp_path, capsys):
    """`--out` files of the cyclic, stellar, given-phi km, resolve, resbe and
    koszul commands match the stored goldens byte for byte."""
    commands = (
        ("cyclic_4_8.cplx", ["cyclic", "--dim", "4", "--vertices", "8"]),
        ("octahedron_stellar.cplx", ["stellar", "--facets", str(DATA / "octahedron.txt"),
                                     "--face", "x_1 x_3 x_5", "--new-vertex", "x_7"]),
        ("segre_km_phi.cplx", ["km", "--ideal-I", str(DATA / "segre_pfaffians.txt"),
                               "--ideal-J", str(DATA / "segre_koszul_j.txt"),
                               "--phi", str(DATA / "segre_phi.txt")]),
        ("sr_cyclic_4_8.cplx", ["resolve", "--ideal", str(DATA / "sr_cyclic_4_8.txt")]),
        ("segre_b2_resbe.cplx", ["resbe", "--matrix", str(DATA / "segre_b2.txt")]),
        ("koszul_mixed_degrees.cplx",
         ["koszul", "--elements", str(DATA / "koszul_mixed_degrees.txt")]),
        # g = 5 and g = 6: the only goldens whose assembly has a third block row
        ("cross_polytope_4_stellar.cplx",
         ["stellar", "--facets", str(DATA / "cross_polytope_4.txt"),
          "--face", "x_1 x_3 x_5 x_7", "--new-vertex", "x_9"]),
        ("cross_polytope_5_stellar.cplx",
         ["stellar", "--facets", str(DATA / "cross_polytope_5.txt"),
          "--face", "x_1 x_3 x_5 x_7 x_9", "--new-vertex", "x_11"]),
    )
    for golden, argv in commands:
        out_path = tmp_path / golden
        code, _, _ = run_cli(capsys, *argv, "--out", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == (DATA / golden).read_bytes(), golden


def test_no_command_reads_the_dense_view(tmp_path, capsys, monkeypatch):
    """Every subcommand runs, and writes its `--out` file, from the sparse
    columns alone: reading `FreeModuleMap.entries` fails the run."""
    def dense_view(m):
        raise AssertionError("read the dense FreeModuleMap.entries view")

    monkeypatch.setattr(FreeModuleMap, "entries", property(dense_view))
    out = str(tmp_path / "out.cplx")
    resbe_out = str(tmp_path / "resbe.cplx")
    commands = (
        ["resolve", "--ideal", str(DATA / "segre_pfaffians.txt"), "--out", out],
        ["resbe", "--matrix", str(DATA / "segre_b2.txt"), "--out", resbe_out],
        ["koszul", "--elements", str(DATA / "koszul_mixed_degrees.txt"), "--out", out],
        ["unproject", *SEGRE_PAIR],
        ["km", *SEGRE_PAIR],
        ["km", *SEGRE_PAIR, "--phi", str(DATA / "segre_phi.txt"), "--out", out],
        ["cyclic", "--dim", "4", "--vertices", "8", "--out", out],
        ["stellar", "--facets", str(DATA / "octahedron.txt"), "--face", "x_1 x_3 x_5",
         "--out", out],
        ["verify", "--complex", resbe_out, "--ideal", str(DATA / "segre_pfaffians.txt")],
    )
    for argv in commands:
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (argv[0], err)


# -- fuzzing the file grammar and the global flags ------------------------------

_VARS = ("x", "y", "z")
_JUNK = ("$", "[", "]", "=", "#", "/", "^", "(", ")", "*", "+", "-", "0", "1/0", ",",
         "x^", "^9", "[ideal]", "[ring]", "variables =", "weights = 0", "2/3", "q")


@st.composite
def _monomial_text(draw, degree):
    exps = [0] * len(_VARS)
    for _ in range(degree):
        exps[draw(st.integers(0, len(_VARS) - 1))] += 1
    parts = [v if e == 1 else f"{v}^{e}" for v, e in zip(_VARS, exps) if e]
    coeff = draw(st.sampled_from(["", "2*", "-", "3/2*", "0*", "(1)*"]))
    return coeff + ("*".join(parts) or "1")


@st.composite
def _polynomial_text(draw):
    """One to three monomials, of one degree (homogeneous) or of random degrees."""
    if draw(st.booleans()):
        monomials = _monomial_text(draw(st.integers(0, 3)))
    else:
        monomials = st.integers(0, 3).flatmap(_monomial_text)
    return " + ".join(draw(st.lists(monomials, min_size=1, max_size=3)))


def _with_junk(draw, tokens):
    tokens = list(tokens)
    for _ in range(draw(st.integers(0, 2))):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(_JUNK)))
    return tokens


@st.composite
def _input_file(draw):
    names = draw(st.lists(st.sampled_from(_VARS), min_size=0, max_size=3, unique=True))
    ring = ["[ring]", "variables = " + " ".join(names)]
    if draw(st.booleans()):
        ring.append("weights = " + " ".join(str(draw(st.integers(0, 2))) for _ in names))
    if draw(st.booleans()):
        ring.append("field = " + draw(st.sampled_from(["qq", "fp:7", "fp:32003", "fp:4", "gf"])))
    if draw(st.booleans()):
        ring.append("order = " + draw(st.sampled_from(["grevlex", "lex", "foo"])))
    ideal = ["[ideal]"] + draw(st.lists(_polynomial_text(), min_size=0, max_size=3))
    lines = ring + [""] + ideal
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(lines) - 1))
        words = _with_junk(draw, lines[i].split(" "))
        lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


_FLAG_VALUE = st.one_of(st.sampled_from(["qq", "QQ", "fp:7", "fp:2", "fp:1", "fp:", "fp:-3",
                                         "grevlex", "lex", "foo", ""]),
                        st.text(max_size=6))


@settings(max_examples=200, deadline=None)
@given(_input_file(),
       st.sampled_from(["resolve", "koszul"]),
       st.lists(st.tuples(st.sampled_from(["--field", "--order"]), _FLAG_VALUE), max_size=2))
def test_cli_fuzz_exit_codes(text, command, flags):
    import contextlib
    import io
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.txt")
        with open(path, "w") as fh:
            fh.write(text)
        key = "--ideal" if command == "resolve" else "--elements"
        argv = [a for flag in flags for a in flag] + [command, key, path]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse rejects a flag: a usage error
                code = e.code
    assert code in range(5), (argv, text, stderr.getvalue())


_TWIST = st.integers(-1, 3).map(str)
_CELL = st.one_of(_polynomial_text(), st.sampled_from(["0", "x", "y*z"]))


@st.composite
def _complex_file(draw):
    """A complex file in x, y, z.  Its length is sometimes negative or not an
    integer; its twists_i lines and [matrix i] bodies mostly agree in shape,
    but some are missing and some carry junk such as non-integer twists."""
    if draw(st.integers(0, 4)):
        length = draw(st.integers(-2, 3))
    else:
        length = draw(st.sampled_from(["1.5", "one", "", "2 3"]))
    n = max(length, 0) if isinstance(length, int) else 2
    ranks = draw(st.lists(st.integers(0, 3), min_size=n + 2, max_size=n + 2))

    def junk(tokens):
        return _with_junk(draw, tokens) if draw(st.integers(0, 3)) == 0 else tokens

    lines = ["[ring]", "variables = x y z", "", "[complex]", f"length = {length}"]
    for i, r in enumerate(ranks):  # one twists line past the end
        if draw(st.integers(0, 7)):
            twists = draw(st.lists(_TWIST, min_size=r, max_size=r))
            lines.append(f"twists_{i} = " + " ".join(junk(twists)))
    for i in range(1, n + 2):
        if draw(st.integers(0, 7)):
            lines += ["", f"[matrix {i}]"]
            for _ in range(draw(st.sampled_from([ranks[i - 1]] * 3 + [1]))):
                cells = draw(st.lists(_CELL, min_size=ranks[i], max_size=ranks[i]))
                lines.append(", ".join(junk(cells)))
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(_complex_file(), st.lists(_CELL, max_size=2))
def test_cli_fuzz_verify_complex_exit_codes(text, ideal):
    """`verify --complex` on a malformed or random complex file exits with a
    documented code, never with an exception."""
    import contextlib
    import io
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        cplx, ideal_path = os.path.join(tmp, "c.cplx"), os.path.join(tmp, "i.txt")
        with open(cplx, "w") as fh:
            fh.write(text)
        with open(ideal_path, "w") as fh:
            fh.write("[ring]\nvariables = x y z\n\n[ideal]\n" + "\n".join(ideal) + "\n")
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["verify", "--complex", cplx, "--ideal", ideal_path])
    assert code in range(5), (text, ideal, stderr.getvalue())
