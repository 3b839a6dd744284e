"""Command-line surface: formats, round trips, determinism, exit codes."""
from __future__ import annotations

import os
from pathlib import Path

import pytest

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
                        ("fp:7", "1/7*x")):  # denominator vanishes in GF(7)
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
