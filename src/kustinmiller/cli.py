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
    """A bad input.  A message about an input file names the file, and the
    line at fault when there is one (`InputFile.error`)."""


# ---------------------------------------------------------------------------
# sectioned text files


class Line(str):
    """The text of one input line, and `n`, its line number in the file."""

    def __new__(cls, text: str, n: int):
        line = super().__new__(cls, text)
        line.n = n
        return line


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


def _flag_type(parse):
    """argparse type for a global flag: a bad value is a usage error (exit 2)
    naming the flag, not an exception escaping argument parsing."""
    def convert(text):
        try:
            return parse(text)
        except (ParseError, ValueError) as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return convert


class InputFile:
    """One parsed input file; sections are fetched by name, and every error
    about the file is raised through `error`."""

    def __init__(self, path: str, default_field=QQ, default_order=GREVLEX):
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ParseError(f"cannot read {path}: {e}") from None
        except UnicodeDecodeError as e:
            n = e.object.count(b"\n", 0, e.start) + 1
            raise ParseError(f"cannot read {path}: not UTF-8 text: line {n} has "
                             f"the byte 0x{e.object[e.start]:02x}") from None
        self.path = path
        self.sections: list[tuple[str, list[Line]]] = []  # (name, its lines)
        current = None
        for n, raw in enumerate(text.splitlines(), 1):
            s = raw.split("#", 1)[0].strip()
            if not s:
                continue
            line = Line(s, n)
            if s.startswith("[") and s.endswith("]"):
                current = (s[1:-1].strip(), [])
                if any(name == current[0] for name, _lines in self.sections):
                    raise self.error(f"repeated section header {s}", line)
                self.sections.append(current)
            elif current is None:
                raise self.error(f"content before any section header: {s!r}", line)
            else:
                current[1].append(line)
        self._ring = None
        self._default_field = default_field
        self._default_order = default_order

    def error(self, message, line=None) -> ParseError:
        """A ParseError naming the file, and the line number when the
        message is about one line."""
        return ParseError(f"{self.path}{'' if line is None else f':{line.n}'}: {message}")

    def keyvals(self, name, known=None):
        """The `key = value` lines of [name] as {key: value line}, and the
        other lines.  A key given twice, or one outside `known` when given,
        is an error about its line."""
        out = {}
        rest = []
        for line in self.section(name):
            if "=" in line:
                k, v = (part.strip() for part in line.split("=", 1))
                if known is not None and k not in known:
                    raise self.error(f"[{name}]: unknown key {k!r}", line)
                if k in out:
                    raise self.error(f"[{name}]: key {k!r} given twice", line)
                out[k] = Line(v, line.n)
            else:
                rest.append(line)
        return out, rest

    def section(self, name: str, required=True):
        for sec, lines in self.sections:
            if sec == name:
                return lines
        if required:
            raise self.error(f"missing [{name}] section")
        return None

    @property
    def ring(self) -> PolyRing:
        if self._ring is not None:
            return self._ring
        kv, rest = self.keyvals("ring", ("variables", "weights", "field", "order"))
        if rest:
            raise self.error(f"unexpected line in [ring] section: {rest[0]!r}", rest[0])
        if "variables" not in kv:
            raise self.error("[ring] section needs a 'variables =' line")

        def value(key, parse, default):   # a bad value is blamed on its line
            if key not in kv:
                return default
            try:
                return parse(kv[key])
            except (ParseError, ValueError) as e:
                raise self.error(e, kv[key]) from None

        names = kv["variables"].split()
        weights = value("weights", lambda v: [int(w) for w in v.split()], [1] * len(names))
        field = value("field", parse_field, self._default_field)
        order = value("order", parse_order, self._default_order)
        self._ring = value("variables", lambda _v: make_ring(names, weights, field, order), None)
        return self._ring

    def polynomials(self, section="ideal", inhomogeneous=None, nonzero=False):
        """The polynomials of [section], one a line.  Given `inhomogeneous`,
        a message, an inhomogeneous polynomial is an error about its line,
        and with `nonzero` so is 0."""
        out = []
        for line in self.section(section):
            try:
                p = self.ring.parse(line)
            except ValueError as e:
                raise self.error(f"bad polynomial {line!r}: {e}", line) from None
            if inhomogeneous and (not p.is_homogeneous() or nonzero and not p):
                raise self.error(f"{inhomogeneous} {p}", line)
            out.append(p)
        return out

    def ideal(self) -> Ideal:
        return Ideal(self.ring, self.polynomials(inhomogeneous="inhomogeneous ideal generator"))

    def matrix_rows(self, name="matrix", twists=None):
        """The rows of [name].  A `key = value` line, a bad or inhomogeneous
        entry, or one whose degree the twists (target, source), when given,
        do not demand, is an error about its line."""
        _kv, rows = self.keyvals(name, ())
        parsed = []
        for r, line in enumerate(rows):
            try:
                row = [self.ring.parse(cell.strip()) for cell in line.split(",")]
            except ValueError as e:
                raise self.error(f"[{name}]: bad entry in {line!r}: {e}", line) from None
            for c, e in enumerate(row):
                if not e.is_homogeneous():
                    raise self.error(f"[{name}]: inhomogeneous entry at ({r}, {c}): {e}", line)
                if twists and e and r < len(twists[0]) and c < len(twists[1]) \
                        and e.degree() != twists[1][c] - twists[0][r]:
                    raise self.error(f"[{name}]: entry at ({r}, {c}) has degree {e.degree()}, "
                                     f"twists demand {twists[1][c] - twists[0][r]}", line)
            parsed.append(row)
        return parsed

    def _ints(self, section, kv, key):
        """The integers listed by `key =` in [section]."""
        try:
            return [int(t) for t in kv[key].split()]
        except ValueError:
            raise self.error(f"[{section}]: {key} must list integers, got {kv[key]!r}",
                             kv[key]) from None

    def skew_matrix(self) -> SkewMatrix:
        """The [matrix] section as a skew matrix; its rows fix no twists."""
        rows = self.matrix_rows()
        if not rows:
            raise self.error("empty [matrix] section")
        try:
            return SkewMatrix(self.ring, rows)
        except ValueError as e:
            raise self.error(f"[matrix]: {e}") from None

    def complex(self) -> ChainComplex:
        kv, rest = self.keyvals("complex")
        if rest:
            raise self.error(f"unexpected line in [complex]: {rest[0]!r}", rest[0])
        if "length" not in kv:
            raise self.error("[complex] needs 'length ='")
        try:
            length = int(kv["length"])
        except ValueError:
            raise self.error(f"[complex]: length must be an integer, got {kv['length']!r}",
                             kv["length"]) from None
        known = {"length", *(f"twists_{i}" for i in range(length + 1))}
        for key, value in kv.items():
            if key not in known:
                raise self.error(f"[complex]: unknown key {key!r}", value)
        twists = []
        for i in range(length + 1):
            key = f"twists_{i}"
            if key not in kv:
                raise self.error(f"[complex] needs '{key} ='")
            twists.append(tuple(self._ints("complex", kv, key)))
        diffs = []
        for i in range(1, length + 1):
            rows = self.matrix_rows(f"matrix {i}", twists[i - 1:i + 1])
            want_rows = len(twists[i - 1])
            if len(rows) != want_rows:
                raise self.error(f"[matrix {i}] has {len(rows)} rows, twists say {want_rows}")
            try:
                diffs.append(FreeModuleMap.from_rows(self.ring, rows, twists[i - 1], twists[i]))
            except ValueError as e:
                raise self.error(f"[matrix {i}]: {e}") from None
        try:
            return ChainComplex(self.ring, twists, diffs)
        except ValueError as e:
            raise self.error(e) from None

    def facets(self) -> SimplicialComplex:
        kv, rows = self.keyvals("facets", ("vertices",))
        facets = [line.split() for line in rows]
        for line, f in zip(rows, facets):
            if len(set(f)) < len(f):
                raise self.error(f"[facets]: facet {line!r} names a vertex twice", line)
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
            raise self.error(e) from None


# ---------------------------------------------------------------------------
# serialization


def serialize_ring(ring: PolyRing) -> str:
    lines = ["[ring]", "variables = " + " ".join(ring.names)]
    if not all(w == 1 for w in ring.weights):
        lines.append("weights = " + " ".join(str(w) for w in ring.weights))
    lines.append("field = " + ring.field.spec)
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
        d = C.differential(i)
        cols = [d.column(c) for c in range(d.cols)]
        for r in range(d.rows):
            parts.append(", ".join(str(col[r]) for col in cols))
    return "\n".join(parts) + "\n"


def _check_out(path: str):
    """Reject an --out path that cannot be written, before any work is done."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        problem = "it is a directory"
    elif not os.path.isdir(folder):
        problem = f"there is no directory {folder}"
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        problem = "permission denied"
    else:
        return
    raise ParseError(f"cannot write {path}: {problem}")


def _report(args, C: ChainComplex) -> int:
    """Print the Betti grid of C and write C to --out, if given."""
    print(betti(C).render())
    path = args.out
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(serialize_complex(C))
        except OSError as e:
            raise ParseError(f"cannot write {path}: {e.strerror}") from None
    return EXIT_OK


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
        raise ParseError("the two ideal files declare different rings: "
                         f"{args.ideal_I} and {args.ideal_J}")
    I = fi.ideal()
    J = fj.ideal()
    phi = None
    if args.phi:
        fphi = InputFile(args.phi, args.field, args.order)
        if fphi.ring != fi.ring:
            raise ParseError(f"the phi file {args.phi} declares a different ring "
                             f"from {args.ideal_I}")
        phi = fphi.polynomials(inhomogeneous="[ideal]: inhomogeneous lift")
        if len(phi) != len(J.gens):
            raise fphi.error("phi file must give one lift per generator of J: "
                             f"it gives {len(phi)}, J has {len(J.gens)}")
    return I, J, phi


def _reject_strict(args):
    """--strict adds a check only where an unprojection is built."""
    if args.strict:
        raise ParseError(f"--strict is not supported by the {args.command} command, "
                         "which builds no unprojection")


def cmd_resolve(args):
    _reject_strict(args)
    I = InputFile(args.ideal, args.field, args.order).ideal()
    C = minimal_free_resolution(I)
    return _report(args, C)


def cmd_resbe(args):
    _reject_strict(args)
    skew = InputFile(args.matrix, args.field, args.order).skew_matrix()
    try:
        C = buchsbaum_eisenbud_complex(skew)
    except ValueError as e:
        raise HypothesisFailed(str(e)) from None
    print(", ".join(str(e) for e in C.differential(1).row(0)))
    return _report(args, C)


def cmd_koszul(args):
    _reject_strict(args)
    f = InputFile(args.elements, args.field, args.order)
    try:
        C = koszul_complex(f.polynomials(
            inhomogeneous="[ideal]: not a nonzero homogeneous polynomial:", nonzero=True))
    except ValueError as e:
        raise f.error(f"[ideal]: {e}") from None
    return _report(args, C)


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
    return _report(args, C)


def _reject_order(args):
    """cyclic and stellar build their own rings, always under grevlex."""
    if args.order != GREVLEX:
        raise ParseError(f"--order {args.order.kind} is not supported by the "
                         f"{args.command} command, which always uses grevlex")


def cmd_cyclic(args):
    _reject_order(args)
    C = cyclic_resolution(args.dim, args.vertices, strict=args.strict, field=args.field)
    return _report(args, C)


def cmd_stellar(args):
    _reject_order(args)
    cx = InputFile(args.facets, args.field, args.order).facets()
    C = stellar_resolution(cx, args.face.split(), new_vertex=args.new_vertex,
                           strict=args.strict, field=args.field)
    return _report(args, C)


def cmd_verify(args):
    _reject_strict(args)
    fc = InputFile(args.complex, args.field, args.order)
    fi = InputFile(args.ideal, args.field, args.order)
    if fc.ring != fi.ring:
        raise ParseError("complex and ideal files declare different rings: "
                         f"{args.complex} and {args.ideal}")
    C = fc.complex()
    if verify_resolution(C, fi.ideal()):
        print("ok: the complex is a free resolution of the quotient by the ideal")
        return EXIT_OK
    print("FAILED: the complex is not a resolution of the quotient by the ideal")
    return EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kustinmiller",
        description="Exact unprojection resolutions and the supporting "
                    "Groebner/syzygy toolkit.")
    p.add_argument("--field", type=_flag_type(parse_field), default=QQ,
                   help="default coefficient field for files without one (qq or fp:<p>)")
    p.add_argument("--order", type=_flag_type(parse_order), default=GREVLEX,
                   help="default monomial order (grevlex or lex)")
    p.add_argument("--strict", action="store_true",
                   help="run the palindromic-Betti Gorenstein necessary check "
                        "(unproject, km, cyclic and stellar only) and the "
                        "f-vector check (cyclic and stellar)")
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
        if getattr(args, "out", None):
            _check_out(args.out)
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
