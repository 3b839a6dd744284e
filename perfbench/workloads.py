"""The three workloads: inputs made from a seed, one timed operation, and an
independent check of each output.

``lib`` is the imported ``kustinmiller`` package.  Library functions are
looked up on it at call time, so the spans of a traced run see the calls.

A pass is the unit the benchmark times: one operation for ``cyclic-4-9`` and
``resolve-sr``, one sweep over the seeded instances for ``segre-phi-fp``.
Every pass does the same work, so per-pass counts repeat exactly.
"""
from __future__ import annotations

import contextlib
import io
import os
import random

P = 32003  # prime of the GF(p) workload
SEGRE_TOTALS = [1, 9, 16, 9, 1]
SR_TOTALS = {(6, 12): [1, 105, 384, 560, 384, 105, 1], (4, 9): [1, 30, 81, 81, 30, 1]}

# Spans each workload fires at the seed commit; one that stops firing is
# reported as missing.
_PIPELINE = {"gb.syzygies", "gb.FreeModuleMap.init", "gb.FreeModuleMap.map_ring",
             "gb.FreeModuleMap.compose", "gb.lift_through", "km.alpha", "km.beta",
             "km.homotopy", "km.dd_check", "km.kustin_miller_complex",
             "resolutions.minimal_free_resolution", "gb.minimal_column_generators",
             "complexes.minimize", "unproj.unprojection_ideal"}


def betti_totals(text: str) -> list[int] | None:
    """Totals row of a rendered Betti grid."""
    for line in text.splitlines():
        if line.strip().startswith("total:"):
            return [int(x) for x in line.split()[1:]]
    return None


def _det_mod_p(m, p) -> int:
    m = [row[:] for row in m]
    n = len(m)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] % p), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], p - 2, p)
        for r in range(c + 1, n):
            f = m[r][c] * inv % p
            if f:
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[c])]
    return det % p


def random_invertible(rng: random.Random, n: int, p: int) -> list[list[int]]:
    """Uniform n x n matrix over GF(p), redrawn until it is nonsingular."""
    while True:
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if _det_mod_p(m, p):
            return m


class CyclicWorkload:
    """``cyclic_resolution(d, n)`` over QQ, the paper's headline application."""

    name = "cyclic-4-9"
    expected_spans = _PIPELINE | {"unproj.hom_module", "unproj.select_phi",
                                  "complexes.eliminate_variable"}

    def __init__(self, lib, root, seed, smoke, workdir):
        self.lib = lib
        self.d, self.n = (4, 8) if smoke else (4, 9)
        self.size = f"cyclic({self.d}, {self.n})"
        R = lib.make_ring([f"x_{i}" for i in range(1, self.n + 1)], [1] * self.n)
        self.ideal = lib.stanley_reisner_ideal(lib.cyclic_polytope_boundary(self.d, self.n), R)
        self._reference = None
        self.instances = [(self.d, self.n)]

    def run(self, inst):
        return self.lib.cyclic_resolution(*inst)

    def check(self, inst, C, first):
        """Betti grid of a direct resolution of the SR ideal, and exactness
        (about 0.3 s, so every output is verified)."""
        lib = self.lib
        if self._reference is None:
            self._reference = lib.betti(lib.minimal_free_resolution(self.ideal))
        ok = (C.ring == self.ideal.ring and lib.betti(C) == self._reference
              and lib.verify_resolution(C, self.ideal))
        return ok, sum(lib.betti(C).totals())


class SegreWorkload:
    """``cli.main(["km", ..., "--phi", F])`` on seeded coordinate changes of
    the golden Segre pair over GF(32003).

    Setup finds phi once on the golden pair with ``select_phi`` and carries
    it to every instance by the same substitution, so no operation searches
    for phi and ``hom_module`` never runs in the timed region.
    """

    name = "segre-phi-fp"
    expected_spans = _PIPELINE | {"unproj.transport_lifts",
                                  "unproj.unprojection_data_from_lifts",
                                  "rings.parse", "cli.serialize"}
    instances_per_pass = 8

    def __init__(self, lib, root, seed, smoke, workdir):
        self.lib = lib
        count = 1 if smoke else self.instances_per_pass
        self.size = f"{count} instances over GF({P})"
        golden = os.path.join(root, "tests", "data")
        fi = lib.cli.InputFile(os.path.join(golden, "segre_pfaffians.txt"))
        fj = lib.cli.InputFile(os.path.join(golden, "segre_koszul_j.txt"))
        names = fi.ring.names
        R = lib.make_ring(names, [1] * len(names), lib.CoefficientField.prime_field(P))
        I = lib.Ideal(R, [R.parse(s) for s in fi.section("ideal")])
        J = lib.Ideal(R, [R.parse(s) for s in fj.section("ideal")])
        c_i = lib.minimal_free_resolution(I)
        c_j = lib.minimal_free_resolution(J)
        u = lib.Ideal(R, list(c_j.differential(1).entries[0]))
        data = lib.select_phi(lib.hom_module(u, I), I, u, lib.deg_T(c_i, c_j))
        xs = [v for v in names if v.startswith("x")]
        zs = [v for v in names if v.startswith("z")]
        rng = random.Random(seed)
        ring_text = ("[ring]\nvariables = " + " ".join(names)
                     + f"\nfield = fp:{P}\norder = grevlex\n")
        self.instances = []
        for k in range(count):
            sigma = {}
            for block in (xs, zs):
                m = random_invertible(rng, len(block), P)
                for v, row in zip(block, m):
                    img = R.zero
                    for c, w in zip(row, block):
                        img = img + R.var(w).scale(c)
                    sigma[v] = img
            d = os.path.join(workdir, f"segre_{k}")
            os.mkdir(d)
            files = {}
            for tag, polys in (("I", I.gens), ("J", data.gens), ("phi", data.lifts)):
                lines = [str(p.substitute(sigma, R)) for p in polys]
                files[tag] = (os.path.join(d, f"{tag}.txt"), lines)
                with open(files[tag][0], "w") as fh:
                    fh.write(ring_text + "\n[ideal]\n" + "\n".join(lines) + "\n")
            self.instances.append((files, os.path.join(d, "out.txt")))

    def run(self, inst):
        files, out = inst
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.lib.cli.main(["km", "--ideal-I", files["I"][0], "--ideal-J", files["J"][0],
                                    "--phi", files["phi"][0], "--out", out])
        return rc, buf.getvalue()

    def check(self, inst, result, first):
        """Exit code and Betti totals; on the first operation of a run also
        exactness against U built from the inputs (about 4.5 s)."""
        files, out = inst
        rc, stdout = result
        totals = betti_totals(stdout)
        ok = rc == 0 and totals == SEGRE_TOTALS
        if ok and first:
            lib = self.lib
            fc = lib.cli.InputFile(out)
            big = fc.ring
            T = big.var(big.names[-1])
            gens = [big.parse(s) for s in files["I"][1]]
            gens += [T * big.parse(u) - big.parse(l)
                     for u, l in zip(files["J"][1], files["phi"][1])]
            ok = lib.verify_resolution(fc.complex(), lib.Ideal(big, gens))
        return ok, sum(totals or [])


class ResolveWorkload:
    """``minimal_free_resolution`` of the Stanley-Reisner ideal of C(6, 12):
    the direct route, with no unprojection code."""

    name = "resolve-sr"
    expected_spans = {"gb.syzygies", "gb.FreeModuleMap.init", "gb.minimal_column_generators",
                      "complexes.minimize", "resolutions.minimal_free_resolution"}

    def __init__(self, lib, root, seed, smoke, workdir):
        self.lib = lib
        self.d, self.n = (4, 9) if smoke else (6, 12)
        self.size = f"SR ideal of C({self.d}, {self.n})"
        R = lib.make_ring([f"x_{i}" for i in range(1, self.n + 1)], [1] * self.n)
        self.ideal = lib.stanley_reisner_ideal(lib.cyclic_polytope_boundary(self.d, self.n), R)
        self.instances = [self.ideal]

    def run(self, ideal):
        # a fresh Ideal, so no Groebner basis cached by an earlier pass is reused
        return self.lib.minimal_free_resolution(self.lib.Ideal(ideal.ring, ideal.gens))

    def check(self, ideal, C, first):
        totals = self.lib.betti(C).totals()
        ok = totals == SR_TOTALS[(self.d, self.n)] and totals == totals[::-1]
        return ok, sum(totals)


WORKLOADS = {w.name: w for w in (CyclicWorkload, SegreWorkload, ResolveWorkload)}

