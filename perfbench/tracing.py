"""Per-layer spans recorded from outside the library.

Each span wraps one function of ``kustinmiller``.  A function imported with
``from .x import f`` is bound under its name in every importing module, so a
span replaces the function at every module attribute that holds the very same
object; a call through any import site is then recorded.  Methods are wrapped
on their class.  A span whose function cannot be found is reported as
missing instead of as zero calls, so a refactor that renames or moves a
traced function stays visible.

Self time is a span's duration minus the time of the spans it directly
encloses.  Total time counts only the outermost activation of a span, so a
recursive call is not counted twice.
"""
from __future__ import annotations

import functools
import sys
from time import perf_counter

PKG = "kustinmiller"

# name -> (module, attribute path, scope).  Scope "all" wraps the function at
# every module of the package that binds it; "site" wraps only the named
# module attribute (the d*d check is verify_complex as called from km).
SPANS = {
    "unproj.hom_module": ("unproj", "hom_module", "all"),
    "gb.syzygies": ("gb", "syzygies", "all"),
    "gb.FreeModuleMap.init": ("gb", "FreeModuleMap.__init__", "all"),
    "gb.FreeModuleMap.map_ring": ("gb", "FreeModuleMap.map_ring", "all"),
    "gb.FreeModuleMap.compose": ("gb", "FreeModuleMap.compose", "all"),
    "complexes.eliminate_variable": ("complexes", "eliminate_variable", "all"),
    "gb.lift_through": ("gb", "lift_through", "all"),
    "km.alpha": ("km", "_build_alpha", "all"),
    "km.beta": ("km", "compute_beta", "all"),
    "km.homotopy": ("km", "compute_homotopy", "all"),
    "km.dd_check": ("km", "verify_complex", "site"),
    "km.kustin_miller_complex": ("km", "kustin_miller_complex", "all"),
    "resolutions.minimal_free_resolution": ("resolutions", "minimal_free_resolution", "all"),
    "gb.minimal_column_generators": ("gb", "minimal_column_generators", "all"),
    "complexes.minimize": ("complexes", "minimize", "all"),
    "unproj.select_phi": ("unproj", "select_phi", "all"),
    "unproj.unprojection_ideal": ("unproj", "unprojection_ideal", "all"),
    "unproj.transport_lifts": ("unproj", "transport_lifts", "all"),
    "unproj.unprojection_data_from_lifts": ("unproj", "unprojection_data_from_lifts", "all"),
    "rings.parse": ("rings", "PolyRing.parse", "all"),
    "cli.serialize": ("cli", "serialize_complex", "all"),
}

COUNTS = ("gb.FreeModuleMap.cells", "gb.FreeModuleMap.nonzero",
          "unproj.hom_module.gens", "resolutions.betti_total", "out.rank_sum")


def _count_matrix(tracer, args, _result):
    m = args[0]
    tracer.counts["gb.FreeModuleMap.cells"] += len(m.entries) * len(m.source_twists)
    tracer.counts["gb.FreeModuleMap.nonzero"] += sum(
        1 for row in m.entries for e in row if e.terms)


def _count_hom(tracer, _args, result):
    tracer.counts["unproj.hom_module.gens"] += len(result)


def _count_betti(tracer, _args, result):
    tracer.counts["resolutions.betti_total"] += sum(len(tw) for tw in result.twists)


COUNT_HOOKS = {
    "gb.FreeModuleMap.init": _count_matrix,
    "unproj.hom_module": _count_hom,
    "resolutions.minimal_free_resolution": _count_betti,
}


class Tracer:
    """Wraps the spans from install() to uninstall(); records only while
    ``on`` is true."""

    def __init__(self):
        self.on = False
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.calls = {name: 0 for name in SPANS}
        self.total = {name: 0.0 for name in SPANS}
        self.self_time = {name: 0.0 for name in SPANS}
        self.counts = {name: 0 for name in COUNTS}
        self._depth = {name: 0 for name in SPANS}
        self._stack: list[list[float]] = []

    def _wrap(self, name, fn):
        hook = COUNT_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            frame = [0.0]  # time spent in directly enclosed spans
            tracer._stack.append(frame)
            tracer._depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._stack.pop()
                tracer._depth[name] -= 1
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                tracer.calls[name] += 1
                tracer.self_time[name] += dt - frame[0]
                if tracer._depth[name] == 0:
                    tracer.total[name] += dt
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every span at each site that binds it; note the missing ones."""
        self.missing = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PKG or n.startswith(PKG + "."))]
        for name, (modname, attr, scope) in SPANS.items():
            home = sys.modules.get(f"{PKG}.{modname}")
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(home, owner, None) if owner else home
            fn = None if holder is None else vars(holder).get(leaf)
            if not callable(fn):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn)
            if owner or scope == "site":
                sites = [(holder, leaf)]
            else:
                sites = [(m, a) for m in modules for a, v in vars(m).items() if v is fn]
            for obj, a in sites:
                self._patched.append((obj, a, vars(obj)[a]))
                setattr(obj, a, wrapper)

    def uninstall(self):
        for obj, a, original in reversed(self._patched):
            setattr(obj, a, original)
        self._patched.clear()
