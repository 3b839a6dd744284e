"""Benchmark of the kustinmiller pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cyclic-4-9 --seed 1 --seconds 40 --trace 0

Workloads (see README.md for why each was chosen): cyclic-4-9, segre-phi-fp,
resolve-sr.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  ``--smoke`` runs the workload at a tiny
size for one pass (two when traced).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
details: environment, samples, fail_ratio and the spans seen.

The library is imported from ``src/`` of the checkout; the benchmark exits
with code 2 when it is not there and with code 1 when an operation fails.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9

sys.path.insert(0, str(HERE))
from tracing import COUNTS, SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_library():
    """Import kustinmiller, with its cli module, from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "kustinmiller" / "__init__.py").is_file():
        print(f"perfbench: no kustinmiller sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import kustinmiller
    import kustinmiller.cli  # noqa: F401  (binds kustinmiller.cli)
    if Path(kustinmiller.__file__).resolve().parent != (src / "kustinmiller").resolve():
        print(f"perfbench: kustinmiller was imported from {kustinmiller.__file__}",
              file=sys.stderr)
        sys.exit(2)
    return kustinmiller


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {"python": platform.python_version(), "git_sha": git_sha(), "nproc": os.cpu_count(),
            "seed": seed, "loadavg": os.getloadavg(), "platform": platform.platform()}


def probe_setup(args, n: int) -> list[float]:
    """Time n fresh processes from start until their inputs are ready.

    Each is this script with ``--setup-probe``: it sets up, prints "ready"
    and exits."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(n):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = perf_counter() - t0
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"perfbench: setup probe failed with code {proc.returncode}")
        samples.append(ready)
    return samples


def run_passes(wl, seconds: float, tracer: Tracer | None, smoke: bool):
    """Time passes over the workload's instances until the next one would end
    after ``seconds``.  With a tracer, passes alternate untraced and traced,
    starting untraced, and there are at least two.  Checks run between
    operations, outside the timing; only the run's first operation gets the
    workload's costly check."""
    min_passes = 1 if tracer is None else 2
    passes = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        rec = {"wall": 0.0, "ops": [], "attempted": 0, "failed": 0, "rank_sum": 0,
               "traced": traced}
        if traced:
            tracer.reset()
            tracer.install()
        try:
            for k, inst in enumerate(wl.instances):
                rec["attempted"] += 1
                if traced:
                    tracer.on = True
                t0 = perf_counter()
                try:
                    result = wl.run(inst)
                    raised = False
                except Exception as e:  # an operation that raises counts as failed
                    print(f"perfbench: {wl.name} operation raised {type(e).__name__}: {e}",
                          file=sys.stderr)
                    raised = True
                dt = perf_counter() - t0
                if traced:
                    tracer.on = False
                rec["wall"] += dt
                rec["ops"].append(dt)
                ok = False
                if not raised:
                    try:
                        ok, rank_sum = wl.check(inst, result, not passes and k == 0)
                        rec["rank_sum"] += rank_sum
                    except Exception as e:
                        print(f"perfbench: {wl.name} check raised {type(e).__name__}: {e}",
                              file=sys.stderr)
                if not ok:
                    rec["failed"] += 1
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            rec["calls"] = dict(tracer.calls)
            rec["total"] = dict(tracer.total)
            rec["self"] = dict(tracer.self_time)
            rec["counts"] = dict(tracer.counts, **{"out.rank_sum": rec["rank_sum"]})
        passes.append(rec)
        if len(passes) < min_passes:
            continue
        elapsed = perf_counter() - start
        if smoke or elapsed + statistics.median(p["wall"] for p in passes) > seconds:
            return passes


def metric(value, unit):
    return {"value": value, "unit": unit}


def quantile(samples, q: int) -> float:
    """q-th percentile, interpolated between the samples."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(passes, setup_samples) -> tuple[dict, dict]:
    walls = [p["wall"] for p in passes]
    ops = [t for p in passes for t in p["ops"]]
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "op_p50_s": metric(quantile(ops, 50), "s"),
        "op_p90_s": metric(quantile(ops, 90), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": metric(statistics.median(setup_samples), "s"),
    }
    details = {"wall_s_samples": walls, "op_samples": len(ops),
               "setup_s_samples": setup_samples}
    return metrics, details


def per_layer(wl, passes, tracer) -> tuple[dict, dict]:
    traced = [p for p in passes if p["traced"]]
    first = traced[0]
    fired = sorted(n for n in SPANS if first["calls"][n])
    missing = sorted(set(tracer.missing) | (wl.expected_spans - set(fired)))
    metrics = {}
    for n in SPANS:
        metrics[f"{n}.calls"] = metric(first["calls"][n], "count")
        metrics[f"{n}.total_s"] = metric(statistics.median(p["total"][n] for p in traced), "s")
        metrics[f"{n}.self_s"] = metric(statistics.median(p["self"][n] for p in traced), "s")
    for n in COUNTS:
        metrics[n] = metric(first["counts"][n], "count")
    traced_wall = statistics.median(p["wall"] for p in traced)
    untraced_wall = statistics.median(p["wall"] for p in passes if not p["traced"])
    metrics["trace.wall_s"] = metric(traced_wall, "s")
    metrics["trace.untraced_wall_s"] = metric(untraced_wall, "s")
    metrics["trace.overhead"] = metric(traced_wall / untraced_wall, "ratio")
    metrics["trace.missing_spans"] = metric(len(missing), "count")
    details = {"fired": fired, "missing": missing,
               "counts_repeat": all(p["calls"] == first["calls"] and p["counts"] == first["counts"]
                                    for p in traced),
               "traced_passes": len(traced)}
    return metrics, details


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, one pass (two when traced)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    lib = load_library()
    workroot = HERE / ".work"
    workroot.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=workroot)
    try:
        wl = WORKLOADS[args.workload](lib, str(ROOT), args.seed, args.smoke, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        details = {"workload": wl.name, "size": wl.size, "smoke": args.smoke,
                   "env": environment(args.seed)}
        if args.trace:
            tracer = Tracer()
            passes = run_passes(wl, args.seconds, tracer, args.smoke)
            metrics, more = per_layer(wl, passes, tracer)
        else:
            start = perf_counter()
            setup_samples = probe_setup(args, 1 if args.smoke else SETUP_PROBES)
            passes = run_passes(wl, args.seconds - (perf_counter() - start), None, args.smoke)
            metrics, more = end_to_end(passes, setup_samples)
        attempted = sum(p["attempted"] for p in passes)
        failed = sum(p["failed"] for p in passes)
        details.update(more, passes=len(passes), fail_ratio=metric(failed / attempted, "1"))
        print(json.dumps({"details": details}))
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # not empty while a setup probe's parent runs
            workroot.rmdir()


if __name__ == "__main__":
    sys.exit(main())
