"""Hom modules of Gorenstein ideal pairs and the unprojection ideal.

For I inside J with R/I, R/J Gorenstein, the module Hom_{R/I}(J, R/I) is
generated by the inclusion and one extra homomorphism phi; adjoining a new
variable T with the relations T*u - phi(u) for u running over J's generators
yields the unprojection ideal.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .gb import FreeModuleMap, Ideal, NotLiftable, _Engine, lift_through, normal_form, syzygies
from .rings import Polynomial, PolyRing


class HypothesisFailed(Exception):
    """Input violates the Gorenstein-pair hypotheses of the construction."""


class FinalIdentityFails(HypothesisFailed):
    """The homotopy cannot close with its last component forced to zero."""


@dataclass(frozen=True)
class UnprojectionData:
    """Everything the complex assembly needs to know about phi.

    gens are the chosen generators u_1..u_t of J (the entries of the first
    differential of J's resolution); lifts are polynomials representing
    phi(u_i); hat_lifts (filled during the chain-map stage) represent phi on
    the generators read off the top differential.  deg_t is the degree of the
    new variable.
    """

    ring: PolyRing
    ideal_i: Ideal
    ideal_j: Ideal
    gens: tuple[Polynomial, ...]
    lifts: tuple[Polynomial, ...]
    deg_t: int
    t_name: str = "T"
    hat_lifts: tuple[Polynomial, ...] | None = None

    def with_hat_lifts(self, hat_lifts) -> "UnprojectionData":
        return replace(self, hat_lifts=tuple(hat_lifts))


def _syzygies_mod(I: Ideal, J: Ideal) -> list[list[Polynomial]]:
    """Columns generating the syzygies of J's generators over R/I, reduced
    mod I.  J must contain I, so that J is an R/I-module."""
    for g in I.gens:
        if not J.contains(g):
            raise HypothesisFailed(f"ideal containment fails: {g} is not in J")
    ring = I.ring
    row = FreeModuleMap.from_rows(ring, [list(J.gens) + list(I.gens)], [0])
    Z = syzygies(row)
    t = len(J.gens)
    G = I.groebner()
    cols = []
    for c in range(Z.cols):
        col = [normal_form(Z.entry(j, c), G) for j in range(t)]
        if any(not e.is_zero() for e in col):
            cols.append(col)
    return cols


def _vector_engine(I: Ideal, gen_degrees, vectors) -> _Engine:
    """Membership engine for the span of `vectors` + I * R^t over R."""
    ring = I.ring
    t = len(gen_degrees)
    eng = _Engine(ring, t, tuple(-d for d in gen_degrees), track=False)
    for k in range(t):
        for f in I.gens:
            eng.add_input({(k, mono): c for mono, c in f.terms.items()})
    for v in vectors:
        vec = _vec_of(v)
        if vec:
            eng.add_input(vec)
    eng.complete()
    return eng


def _vec_of(v) -> dict:
    vec = {}
    for k, e in enumerate(v):
        for mono, c in e.terms.items():
            vec[(k, mono)] = c
    return vec


def hom_module(J: Ideal, I: Ideal) -> list[tuple[Polynomial, ...]]:
    """Generators of Hom_{R/I}(J, R/I) as image vectors on J's generators.

    Every returned vector v satisfies v . S = 0 mod I for the syzygy matrix
    S of J's generators over R/I.  The inclusion (u_1, ..., u_t) is always
    the first entry.

    The candidates are the kernel of [S^T | I-blocks] projected onto its
    first t coordinates: one tracked engine gives a representation unit to
    the t columns of S^T only, so each syzygy it records is already that
    projection and the rest of the kernel is never built.
    """
    if J.ring != I.ring:
        raise ValueError("ideals live in different rings")
    ring = I.ring
    u = list(J.gens)
    t = len(u)
    u_deg = [g.homogeneous_degree() for g in u]
    S = _syzygies_mod(I, J)
    inclusion = tuple(u)
    if not S:
        # no constraints: J mod I is free, Hom is everything
        units = [tuple(ring.one if k == j else ring.zero for k in range(t))
                 for j in range(t)]
        return [inclusion] + units
    s_deg = []
    for col in S:
        j = next(j for j, e in enumerate(col) if not e.is_zero())
        s_deg.append(col[j].homogeneous_degree() + u_deg[j])
    # kernel of S^T over R/I: components indexed by syzygies
    eng = _Engine(ring, len(S), [-d for d in s_deg], track=True)
    for j in range(t):
        eng.add_input(_vec_of(col[j] for col in S))
    for k in range(len(S)):
        for f in I.gens:
            eng.add_input({(k, m): c for m, c in f.terms.items()}, tracked=False)
    eng.complete()
    G = I.groebner()
    K = ring.field
    cands = []
    seen = set()
    for syz in eng.syzygies:
        rep = eng.rep_of_remainder(syz)
        # monic under the engine order, as syzygies() scales the full vector,
        # whose leading term lies in these first t coordinates
        inv = K.inv(rep[max(rep, key=lambda cm: eng._key(*cm))])
        parts = [{} for _ in range(t)]
        for (j, m), c in rep.items():
            parts[j][m] = K.mul(c, inv)
        v = tuple(normal_form(Polynomial(ring, p), G) for p in parts)
        if all(e.is_zero() for e in v):
            continue
        delta = next(e.homogeneous_degree() - u_deg[j]
                     for j, e in enumerate(v) if not e.is_zero())
        key = tuple(str(e) for e in v)
        if key not in seen:
            seen.add(key)
            cands.append((delta, v))
    cands.sort(key=lambda dv: (dv[0], [sorted(e.terms.items()) for e in dv[1]]))
    # greedily prune to a small generating set over R/I, inclusion first
    eng = _vector_engine(I, u_deg, [inclusion])
    out = [inclusion]
    for _delta, v in cands:
        vec = _vec_of(v)
        if not eng.has_value(eng.reduce(vec)):
            continue
        out.append(v)
        eng.add_input(vec)
        eng.complete()
    return out


def _uniform_degree(v, u_deg) -> int | None:
    offs = {e.homogeneous_degree() - u_deg[j] for j, e in enumerate(v)
            if not e.is_zero()}
    if len(offs) != 1:
        return None
    return offs.pop()


def select_phi(hom_gens, I: Ideal, J: Ideal, deg_t: int,
               t_name: str = "T") -> UnprojectionData:
    """Pick a homomorphism of degree deg_t completing the inclusion to a
    generating pair of the Hom module; deterministic among candidates."""
    u = list(J.gens)
    u_deg = [g.homogeneous_degree() for g in u]
    inclusion = tuple(u)
    incl_engine = _vector_engine(I, u_deg, [inclusion])
    for v in hom_gens:
        if _uniform_degree(v, u_deg) != deg_t:
            continue
        # canonical representative mod (inclusion multiples + I)
        rem = incl_engine.reduce(_vec_of(v))
        if not incl_engine.has_value(rem):
            continue  # a multiple of the inclusion, useless as phi
        lm = max(((c, m) for (c, m) in rem), key=lambda cm: incl_engine._key(*cm))
        inv = I.ring.field.inv(rem[lm])
        vec = {k: I.ring.field.mul(c, inv) for k, c in rem.items()}
        phi = tuple(
            Polynomial(I.ring, {m: c for (k2, m), c in vec.items() if k2 == k})
            for k in range(len(u)))
        # verify {phi, inclusion} generate the whole Hom module
        eng = _vector_engine(I, u_deg, [inclusion, phi])
        if all(not eng.has_value(eng.reduce(_vec_of(w))) for w in hom_gens):
            return _make_data(I, J, phi, deg_t, t_name)
    raise HypothesisFailed(
        f"no homomorphism of degree {deg_t} completes the inclusion "
        "to a generating pair of Hom(J, R/I)")


def _make_data(I: Ideal, J: Ideal, lifts, deg_t: int, t_name: str) -> UnprojectionData:
    u = tuple(J.gens)
    lifts = tuple(lifts)
    if len(lifts) != len(u):
        raise ValueError("need one lift per generator of J")
    for g, l in zip(u, lifts):
        if l.is_zero():
            continue
        if not l.is_homogeneous() or l.homogeneous_degree() != g.homogeneous_degree() + deg_t:
            raise HypothesisFailed(
                f"lift {l} is not homogeneous of degree {g.homogeneous_degree() + deg_t}")
    return UnprojectionData(I.ring, I, J, u, lifts, deg_t, t_name)


def unprojection_data_from_lifts(I: Ideal, J: Ideal, lifts, deg_t: int | None = None,
                                 t_name: str = "T") -> UnprojectionData:
    """Accept a user-supplied phi as lifts of its images on J's generators.

    The homomorphism property is verified against the syzygies of J's
    generators over R/I.
    """
    u = list(J.gens)
    u_deg = [g.homogeneous_degree() for g in u]
    lifts = tuple(lifts)
    if deg_t is None:
        deg_t = _uniform_degree(lifts, u_deg)
        if deg_t is None:
            raise HypothesisFailed("supplied lifts are not of uniform degree")
    for col in _syzygies_mod(I, J):
        pairing = I.ring.zero
        for s, l in zip(col, lifts):
            pairing = pairing + s * l
        if not I.contains(pairing):
            raise HypothesisFailed(
                "supplied lifts do not define a homomorphism: a syzygy of J's "
                "generators pairs to a nonzero element mod I")
    return _make_data(I, J, lifts, deg_t, t_name)


def transport_lifts(I: Ideal, J_from: Ideal, lifts, to_gens) -> tuple[Polynomial, ...]:
    """Re-express a homomorphism given on one generating set of J on another.

    Each target generator is written as a combination of the original ones;
    applying the homomorphism columnwise and reducing mod I gives its lifts
    on the new generators.  The degree of the homomorphism is read off its
    nonzero lifts, and the lift on u_j is taken to have degree deg(u_j) plus
    that degree, so zero lifts are allowed.
    """
    ring = I.ring
    from_row = FreeModuleMap.from_rows(ring, [J_from.gens], [0])
    to_row = FreeModuleMap.from_rows(ring, [to_gens], [0])
    try:
        X = lift_through(from_row, to_row)
    except NotLiftable as e:
        raise HypothesisFailed(
            f"target generators do not lie in the span of the given ones: {e}") from None
    u_deg = from_row.source_twists
    lifts = tuple(lifts)
    deg_phi = _uniform_degree(lifts, u_deg)
    if deg_phi is None:
        if any(lifts):
            raise HypothesisFailed("supplied lifts are not of uniform degree")
        deg_phi = 0
    l_row = FreeModuleMap.from_rows(ring, [lifts], [0], [d + deg_phi for d in u_deg])
    G = I.groebner()
    return tuple(normal_form(e, G) for e in l_row.compose(X).row(0))


def unprojection_ideal(data: UnprojectionData) -> Ideal:
    """The ideal (I, T*u - phi(u)) in R[T], T of degree deg_t."""
    big = data.ring.extended([data.t_name], [data.deg_t])
    T = big.var(data.t_name)
    gens = [g.substitute({}, big) for g in data.ideal_i.gens]
    for u, l in zip(data.gens, data.lifts):
        rel = T * u.substitute({}, big) - l.substitute({}, big)
        if not rel.is_homogeneous():
            raise HypothesisFailed(f"inhomogeneous unprojection relation {rel}")
        gens.append(rel)
    return Ideal(big, gens)
