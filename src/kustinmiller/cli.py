"""Command-line surface: structured text input, Macaulay-style Betti grids,
and deterministic serialization of complexes.

File format: '#' comments; sections headed by [ring], [ideal], [matrix],
[complex], [matrix k] and [facets].  Polynomials use the canonical syntax of
the ring layer; matrix rows are comma-separated.
"""
from __future__ import annotations

import argparse
import os
import sys

from .complexes import ChainComplex, betti, minimize, verify_resolution
from .gb import FreeModuleMap, Ideal, NotLiftable
from .km import unproject
from .resolutions import SkewMatrix, buchsbaum_eisenbud_complex, koszul_complex, minimal_free_resolution
from .rings import GREVLEX, LEX, QQ, CoefficientField, PolyRing, make_ring
from .simplicial import SimplicialComplex, cyclic_resolution, stellar_resolution
from .unproj import HypothesisFailed

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_LIFTING = 4


class ParseError(Exception):
    pass


# ---------------------------------------------------------------------------
# sectioned text files


def split_sections(text: str) -> list[tuple[str, list[str]]]:
    sections = []
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        s = line.strip()
        if s.startswith("[") and s.endswith("]"):
            current = (s[1:-1].strip(), [])
            sections.append(current)
            continue
        if current is None:
            raise ParseError(f"content before any section header: {s!r}")
        current[1].append(s)
    return sections


def _keyvals(lines):
    out = {}
    rest = []
    for line in lines:
        if "=" in line:
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
        else:
            rest.append(line)
    return out, rest


def parse_field(text: str) -> CoefficientField:
    t = text.strip().lower()
    if t == "qq":
        return QQ
    if t.startswith("fp:"):
        return CoefficientField.prime_field(int(t[3:]))
    raise ParseError(f"unknown field {text!r} (use qq or fp:<p>)")


def parse_order(text: str):
    t = text.strip().lower()
    if t == "grevlex":
        return GREVLEX
    if t == "lex":
        return LEX
    raise ParseError(f"unknown order {text!r} (use grevlex or lex)")


def ring_from_section(lines, default_field=QQ, default_order=GREVLEX) -> PolyRing:
    kv, rest = _keyvals(lines)
    if rest:
        raise ParseError(f"unexpected line in [ring] section: {rest[0]!r}")
    if "variables" not in kv:
        raise ParseError("[ring] section needs a 'variables =' line")
    names = kv["variables"].split()
    weights = [int(w) for w in kv["weights"].split()] if "weights" in kv else [1] * len(names)
    field = parse_field(kv["field"]) if "field" in kv else default_field
    order = parse_order(kv["order"]) if "order" in kv else default_order
    try:
        return make_ring(names, weights, field, order)
    except ValueError as e:
        raise ParseError(str(e)) from None


class InputFile:
    """One parsed input file; sections are fetched by name."""

    def __init__(self, path: str, default_field=QQ, default_order=GREVLEX):
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as e:
            raise ParseError(f"cannot read {path}: {e}") from None
        self.path = path
        try:
            self.sections = split_sections(text)
        except ParseError as e:
            raise ParseError(f"{path}: {e}") from None
        self._ring = None
        self._default_field = default_field
        self._default_order = default_order

    def section(self, name: str, required=True):
        for sec, lines in self.sections:
            if sec == name:
                return lines
        if required:
            raise ParseError(f"{self.path}: missing [{name}] section")
        return None

    @property
    def ring(self) -> PolyRing:
        if self._ring is None:
            self._ring = ring_from_section(self.section("ring"),
                                           self._default_field, self._default_order)
        return self._ring

    def polynomials(self, section="ideal"):
        lines = self.section(section)
        out = []
        for line in lines:
            try:
                out.append(self.ring.parse(line))
            except ValueError as e:
                raise ParseError(f"{self.path}: bad polynomial {line!r}: {e}") from None
        return out

    def ideal(self) -> Ideal:
        try:
            return Ideal(self.ring, self.polynomials())
        except ValueError as e:
            raise ParseError(f"{self.path}: {e}") from None

    def matrix_rows(self, name="matrix"):
        kv, rows = _keyvals(self.section(name))
        parsed = []
        for line in rows:
            parsed.append([self.ring.parse(cell.strip()) for cell in line.split(",")])
        return kv, parsed

    def matrix(self, name="matrix") -> FreeModuleMap:
        kv, rows = self.matrix_rows(name)
        if not rows:
            raise ParseError(f"{self.path}: empty [{name}] section")
        tgt = [int(t) for t in kv["target_twists"].split()] if "target_twists" in kv else None
        src = [int(t) for t in kv["source_twists"].split()] if "source_twists" in kv else None
        try:
            return FreeModuleMap.from_rows(self.ring, rows, tgt, src)
        except ValueError as e:
            raise ParseError(f"{self.path}: {e}") from None

    def complex(self) -> ChainComplex:
        kv, rest = _keyvals(self.section("complex"))
        if rest:
            raise ParseError(f"{self.path}: unexpected line in [complex]: {rest[0]!r}")
        if "length" not in kv:
            raise ParseError(f"{self.path}: [complex] needs 'length ='")
        length = int(kv["length"])
        twists = []
        for i in range(length + 1):
            key = f"twists_{i}"
            if key not in kv:
                raise ParseError(f"{self.path}: [complex] needs '{key} ='")
            twists.append(tuple(int(t) for t in kv[key].split()))
        diffs = []
        for i in range(1, length + 1):
            kvm, rows = self.matrix_rows(f"matrix {i}")
            if kvm:
                raise ParseError(f"{self.path}: [matrix {i}] takes no keys")
            want_rows = len(twists[i - 1])
            if len(rows) != want_rows and not (want_rows == 0 and rows == []):
                raise ParseError(f"{self.path}: [matrix {i}] has {len(rows)} rows, "
                                 f"twists say {want_rows}")
            diffs.append(FreeModuleMap(self.ring, rows, twists[i - 1], twists[i]))
        try:
            return ChainComplex(self.ring, twists, diffs)
        except ValueError as e:
            raise ParseError(f"{self.path}: {e}") from None

    def facets(self) -> SimplicialComplex:
        lines = self.section("facets")
        kv, rows = _keyvals(lines)
        facets = [line.split() for line in rows]
        if "vertices" in kv:
            vertices = kv["vertices"].split()
        else:
            vertices = []
            for f in facets:
                for v in f:
                    if v not in vertices:
                        vertices.append(v)
        try:
            return SimplicialComplex(vertices, facets)
        except ValueError as e:
            raise ParseError(f"{self.path}: {e}") from None


# ---------------------------------------------------------------------------
# serialization


def serialize_ring(ring: PolyRing) -> str:
    lines = ["[ring]", "variables = " + " ".join(ring.names)]
    if not all(w == 1 for w in ring.weights):
        lines.append("weights = " + " ".join(str(w) for w in ring.weights))
    lines.append("field = " + ("qq" if ring.field.kind == "QQ" else f"fp:{ring.field.p}"))
    lines.append("order = " + ring.order.kind)
    return "\n".join(lines)


def serialize_complex(C: ChainComplex) -> str:
    parts = [serialize_ring(C.ring), ""]
    parts.append("[complex]")
    parts.append(f"length = {C.length}")
    for i, tw in enumerate(C.twists):
        parts.append(f"twists_{i} = " + " ".join(str(t) for t in tw))
    for i in range(1, C.length + 1):
        parts.append("")
        parts.append(f"[matrix {i}]")
        for row in C.differential(i).entries:
            parts.append(", ".join(str(e) for e in row))
    return "\n".join(parts) + "\n"


def _write_out(path: str | None, C: ChainComplex):
    if path:
        with open(path, "w") as fh:
            fh.write(serialize_complex(C))


# ---------------------------------------------------------------------------
# commands


def _threads_from_env():
    raw = os.environ.get("UNPROJ_THREADS")
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ParseError(f"UNPROJ_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ParseError(f"UNPROJ_THREADS must be positive, got {n}")
    return n


def _read_pair(args):
    """Shared by `km` and `unproject`: the ideals I and J, and the lifts of
    phi on J's generators if a phi file is given."""
    fi = InputFile(args.ideal_I, args.field, args.order)
    fj = InputFile(args.ideal_J, args.field, args.order)
    if fi.ring != fj.ring:
        raise ParseError("the two ideal files declare different rings")
    I = fi.ideal()
    J = fj.ideal()
    phi = None
    if args.phi:
        fphi = InputFile(args.phi, args.field, args.order)
        if fphi.ring != fi.ring:
            raise ParseError("the phi file declares a different ring")
        phi = fphi.polynomials()
        if len(phi) != len(J.gens):
            raise ParseError("phi file must give one lift per generator of J")
    return I, J, phi


def cmd_resolve(args):
    I = InputFile(args.ideal, args.field, args.order).ideal()
    C = minimal_free_resolution(I)
    print(betti(C).render())
    _write_out(args.out, C)
    return EXIT_OK


def cmd_resbe(args):
    f = InputFile(args.matrix, args.field, args.order)
    try:
        skew = SkewMatrix(f.ring, f.matrix().entries)
        C = buchsbaum_eisenbud_complex(skew)
    except ValueError as e:
        raise HypothesisFailed(str(e)) from None
    print(", ".join(str(e) for e in C.differential(1).entries[0]))
    print(betti(C).render())
    _write_out(args.out, C)
    return EXIT_OK


def cmd_koszul(args):
    f = InputFile(args.elements, args.field, args.order)
    C = koszul_complex(f.polynomials())
    print(betti(C).render())
    _write_out(args.out, C)
    return EXIT_OK


def cmd_unproject(args):
    I, J, phi = _read_pair(args)
    out = unproject(I, J, phi=phi, t_name=args.new_var, strict=args.strict)
    for g in out.ideal.gens:
        print(g)
    return EXIT_OK


def cmd_km(args):
    I, J, phi = _read_pair(args)
    out = unproject(I, J, phi=phi, t_name=args.new_var, strict=args.strict)
    C = minimize(out.complex) if args.minimize else out.complex
    print(betti(C).render())
    _write_out(args.out, C)
    return EXIT_OK


def cmd_cyclic(args):
    C = cyclic_resolution(args.dim, args.vertices, field=args.field)
    print(betti(C).render())
    _write_out(args.out, C)
    return EXIT_OK


def cmd_stellar(args):
    cx = InputFile(args.facets, args.field, args.order).facets()
    face = args.face.split()
    try:
        C = stellar_resolution(cx, face, new_vertex=args.new_vertex, strict=args.strict,
                               field=args.field)
    except ValueError as e:
        raise ParseError(str(e)) from None
    print(betti(C).render())
    _write_out(args.out, C)
    return EXIT_OK


def cmd_verify(args):
    fc = InputFile(args.complex, args.field, args.order)
    fi = InputFile(args.ideal, args.field, args.order)
    if fc.ring != fi.ring:
        raise ParseError("complex and ideal files declare different rings")
    C = fc.complex()
    M = Ideal(fc.ring, fi.polynomials())
    if verify_resolution(C, M):
        print("ok: the complex is a free resolution of the quotient by the ideal")
        return EXIT_OK
    print("FAILED: the complex is not a resolution of the quotient by the ideal")
    return EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kustinmiller",
        description="Exact unprojection resolutions and the supporting "
                    "Groebner/syzygy toolkit.")
    p.add_argument("--field", type=parse_field, default=QQ,
                   help="default coefficient field for files without one (qq or fp:<p>)")
    p.add_argument("--order", type=parse_order, default=GREVLEX,
                   help="default monomial order (grevlex or lex)")
    p.add_argument("--strict", action="store_true",
                   help="run the palindromic-Betti Gorenstein necessary check")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("resolve", help="minimal free resolution of an ideal")
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_resolve)

    sp = sub.add_parser("resbe", help="Buchsbaum-Eisenbud complex of a skew matrix")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_resbe)

    sp = sub.add_parser("koszul", help="Koszul complex on a list of elements")
    sp.add_argument("--elements", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_koszul)

    sp = sub.add_parser("unproject", help="print the unprojection ideal")
    sp.add_argument("--ideal-I", dest="ideal_I", required=True)
    sp.add_argument("--ideal-J", dest="ideal_J", required=True)
    sp.add_argument("--phi", help="file with user-supplied lifts, one per J generator")
    sp.add_argument("--new-var", dest="new_var", default="T")
    sp.set_defaults(func=cmd_unproject)

    sp = sub.add_parser("km", help="resolution of the unprojection ring")
    sp.add_argument("--ideal-I", dest="ideal_I", required=True)
    sp.add_argument("--ideal-J", dest="ideal_J", required=True)
    sp.add_argument("--phi")
    sp.add_argument("--new-var", dest="new_var", default="T")
    sp.add_argument("--minimize", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_km)

    sp = sub.add_parser("cyclic", help="cyclic polytope resolution step")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--vertices", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_cyclic)

    sp = sub.add_parser("stellar", help="stellar subdivision resolution")
    sp.add_argument("--facets", required=True)
    sp.add_argument("--face", required=True, help="space-separated vertices")
    sp.add_argument("--new-vertex", dest="new_vertex")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_stellar)

    sp = sub.add_parser("verify", help="check a complex resolves a quotient")
    sp.add_argument("--complex", required=True)
    sp.add_argument("--ideal", required=True)
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _threads_from_env()
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except NotLiftable as e:
        print(f"lifting error: {e}", file=sys.stderr)
        return EXIT_LIFTING
    except HypothesisFailed as e:
        print(f"hypothesis error: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
