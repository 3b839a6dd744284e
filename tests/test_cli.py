"""Command-line surface: formats, round trips, determinism, exit codes."""
from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kustinmiller.cli import InputFile, main, serialize_complex
from kustinmiller.complexes import betti
from kustinmiller.resolutions import koszul_complex
from kustinmiller import make_ring

DATA = Path(__file__).parent / "data"

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
        (["stellar", "--facets", str(DATA / "octahedron.txt"), "--face", "x_1 x_3 x_5",
          "--new-vertex", "x_7"], "total: 1 7 12 7 1"),
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
    import subprocess
    import sys
    outs = []
    for seed in ("1", "2"):
        out_path = tmp_path / f"cu_{seed}.cplx"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        r = subprocess.run(
            [sys.executable, "-m", "kustinmiller.cli", "km",
             "--ideal-I", str(DATA / "segre_pfaffians.txt"),
             "--ideal-J", str(DATA / "segre_koszul_j.txt"),
             "--out", str(out_path)],
            capture_output=True, text=True, env=env)
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


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "resolve", "--ideal", "/nonexistent/file.txt")
    assert code == 2


def test_hypothesis_error_exit_code(tmp_path, capsys):
    # J = I gives deg_t = 0: a hypothesis failure, exit 3
    code, _, err = run_cli(capsys, "km",
                           "--ideal-I", str(DATA / "segre_pfaffians.txt"),
                           "--ideal-J", str(DATA / "segre_pfaffians.txt"))
    assert code == 3


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
    import subprocess
    import sys
    for flag in (["--order", "foo"], ["--field", "gf"], ["--field", "fp:4"],
                 ["--field", f"fp:{2**89 - 1}"]):
        r = subprocess.run([sys.executable, "-m", "kustinmiller.cli", *flag,
                            "cyclic", "--dim", "4", "--vertices", "8"],
                           capture_output=True, text=True)
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


def test_golden_out_files(tmp_path, capsys):
    """`--out` files of the cyclic and stellar commands match the stored goldens byte for byte."""
    commands = (
        ("cyclic_4_8.cplx", ["cyclic", "--dim", "4", "--vertices", "8"]),
        ("octahedron_stellar.cplx", ["stellar", "--facets", str(DATA / "octahedron.txt"),
                                     "--face", "x_1 x_3 x_5", "--new-vertex", "x_7"]),
    )
    for golden, argv in commands:
        out_path = tmp_path / golden
        code, _, _ = run_cli(capsys, *argv, "--out", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == (DATA / golden).read_bytes(), golden


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
