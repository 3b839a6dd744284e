"""Smoke tests of the benchmark itself: every workload at a tiny size.

Run with ``python -m pytest perfbench`` from the root of the checkout.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def smoke(workload, trace, seed=7):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def check_metrics(result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        s["name"]: s["unit"] for s in specs}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_smoke(workload):
    details, result = smoke(workload, 0)
    check_metrics(result, SPEC["end_to_end"])
    assert result["metrics"]["setup_s"]["value"] > 0
    assert details["fail_ratio"]["value"] == 0
    assert details["env"]["seed"] == 7 and details["env"]["nproc"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke(workload):
    details, result = smoke(workload, 1)
    check_metrics(result, SPEC["per_layer"])
    assert details["missing"] == [] and details["counts_repeat"]
    m = {n: v["value"] for n, v in result["metrics"].items()}
    if workload == "segre-phi-fp":
        assert m["unproj.hom_module.calls"] == 0
    if workload == "resolve-sr":
        assert not [s for s in details["fired"] if s.startswith(("unproj.", "km."))]
    _, again = smoke(workload, 1)
    counts = [s["name"] for s in SPEC["per_layer"] if s["unit"] == "count"]
    assert {n: again["metrics"][n]["value"] for n in counts} == {n: m[n] for n in counts}


@pytest.fixture(scope="module")
def lib():
    sys.path.insert(0, str(HERE))
    import run
    return run.load_library()


def test_segre_instances_follow_the_seed(lib, tmp_path):
    from workloads import SegreWorkload

    def ideal_file(seed, sub):
        (tmp_path / sub).mkdir()
        wl = SegreWorkload(lib, str(ROOT), seed, True, str(tmp_path / sub))
        return Path(wl.instances[0][0]["I"][0]).read_text()

    assert ideal_file(1, "a") == ideal_file(1, "b") != ideal_file(2, "c")


def test_missing_span_is_reported(lib, monkeypatch):
    import tracing
    monkeypatch.setitem(tracing.SPANS, "gb.renamed", ("gb", "renamed", "all"))
    original = lib.gb.syzygies
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == ["gb.renamed"]
        assert lib.gb.syzygies is not original and lib.resolutions.syzygies is not original
    finally:
        tracer.uninstall()
    assert lib.gb.syzygies is original and lib.resolutions.syzygies is original


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "__pycache__", ".work"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
