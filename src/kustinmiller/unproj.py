"""Hom modules of Gorenstein ideal pairs and the unprojection ideal.

For I inside J with R/I, R/J Gorenstein, the module Hom_{R/I}(J, R/I) is
generated by the inclusion and one extra homomorphism phi; adjoining a new
variable T with the relations T*u - phi(u) for u running over J's generators
yields the unprojection ideal.
"""
from __future__ import annotations

from dataclasses import dataclass

from .gb import (FreeModuleMap, Ideal, NotLiftable, keep_independent, lift_through,
                 projected_syzygies)
from .rings import Polynomial, PolyRing


class HypothesisFailed(Exception):
    """Input violates the Gorenstein-pair hypotheses of the construction."""


class FinalIdentityFails(HypothesisFailed):
    """The homotopy cannot close with its last component forced to zero."""


@dataclass(frozen=True)
class UnprojectionData:
    """Everything the complex assembly needs to know about phi.

    gens are generators u_1..u_t of J, the entries of the first differential
    of J's resolution once `unproject` has carried phi to them; lifts are
    polynomials representing phi(u_i), each of degree deg(u_i) + deg_t,
    where deg_t is the degree of phi and of the new variable.  hat_lifts,
    set by `kustin_miller_complex`, represent phi on the generators read off
    the top differential of J's resolution.
    """

    ring: PolyRing
    ideal_i: Ideal
    ideal_j: Ideal
    gens: tuple[Polynomial, ...]
    lifts: tuple[Polynomial, ...]
    deg_t: int
    t_name: str = "T"
    hat_lifts: tuple[Polynomial, ...] | None = None


def _nonzero_columns_mod(m: FreeModuleMap, I: Ideal) -> FreeModuleMap:
    """m reduced mod I entry by entry, without the columns that vanish."""
    m = I.reduce(m)
    return m.submatrix(range(m.rows), m.nonzero_columns())


def _syzygies_mod(I: Ideal, J: Ideal) -> FreeModuleMap:
    """Columns generating the syzygies of J's generators over R/I, reduced
    mod I.  J must contain I, so that J is an R/I-module."""
    for g in I.gens:
        if not J.contains(g):
            raise HypothesisFailed(f"ideal containment fails: {g} is not in J")
    row = FreeModuleMap.from_rows(I.ring, [list(J.gens) + list(I.gens)], [0])
    return _nonzero_columns_mod(projected_syzygies(row, len(J.gens)), I)


def _ideal_blocks(I: Ideal, twists) -> FreeModuleMap:
    """I * R^n in R^n with the given twists: a column f * e_k for each k
    and each nonzero generator f of I, in that order."""
    cols, src = [], []
    for k, tw in enumerate(twists):
        for f in I.gens:
            if f:
                cols.append({k: f})
                src.append(f.homogeneous_degree() + tw)
    return FreeModuleMap.from_columns(I.ring, cols, twists, src)


def _membership_base(I: Ideal, J: Ideal) -> FreeModuleMap:
    """[I * R^t | inclusion], the inclusion being the column (u_1, ..., u_t)
    in R^t twisted by minus the degrees of J's generators."""
    inclusion = J.as_row().transpose()
    return FreeModuleMap.block([[_ideal_blocks(I, inclusion.target_twists), inclusion]])


def hom_module(J: Ideal, I: Ideal) -> list[tuple[Polynomial, ...]]:
    """Generators of Hom_{R/I}(J, R/I) as image vectors on J's generators.

    Every returned vector v satisfies v . S = 0 mod I for the syzygy matrix
    S of J's generators over R/I.  The inclusion (u_1, ..., u_t) is always
    the first entry.

    The candidates are the kernel of [S^T | I-blocks] projected onto its
    first t coordinates, so the rest of that kernel is never built.
    """
    if J.ring != I.ring:
        raise ValueError("ideals live in different rings")
    t = len(J.gens)
    inclusion = tuple(J.gens)
    S = _syzygies_mod(I, J)
    if not S.cols:
        # no constraints: J mod I is free, Hom is everything
        units = [tuple(I.ring.one if k == j else I.ring.zero for k in range(t))
                 for j in range(t)]
        return [inclusion] + units
    ST = S.transpose()
    Z = _nonzero_columns_mod(
        projected_syzygies(FreeModuleMap.block([[ST, _ideal_blocks(I, ST.target_twists)]]), t),
        I)
    # greedily prune to a small generating set over R/I, inclusion first
    kept, _forms = keep_independent(_membership_base(I, J), Z)
    return [inclusion] + [Z.column(i) for i in kept]


def select_phi(hom_gens, I: Ideal, J: Ideal, deg_t: int,
               t_name: str = "T") -> UnprojectionData:
    """Pick a homomorphism of degree deg_t completing the inclusion to a
    generating pair of the Hom module; deterministic among candidates.

    For each candidate v of degree deg_t, one membership test in
    inclusion * R + I * R^t runs over [v | hom_gens]: v is accepted when it
    is the one column kept, so that v and the inclusion generate every
    vector of hom_gens, and phi is v's monic normal form, which is unique."""
    base = _membership_base(I, J)
    t = base.rows
    H = FreeModuleMap.from_rows(I.ring, [[w[k] for w in hom_gens] for k in range(t)],
                                base.target_twists)
    for i in H.nonzero_columns():
        if H.source_twists[i] != deg_t:
            continue
        kept, forms = keep_independent(base, H.submatrix(range(t), [i, *range(H.cols)]))
        if kept == [0]:
            return _make_data(I, J, forms.column(0), deg_t, t_name)
    raise HypothesisFailed(
        f"no homomorphism of degree {deg_t} completes the inclusion "
        "to a generating pair of Hom(J, R/I)")


def _make_data(I: Ideal, J: Ideal, lifts, deg_t: int, t_name: str) -> UnprojectionData:
    u = tuple(J.gens)
    lifts = tuple(lifts)
    if len(lifts) != len(u):
        raise ValueError("need one lift per generator of J")
    for k, (g, l) in enumerate(zip(u, lifts), 1):
        if l.is_zero():
            continue
        lift = f"lift {k} of {len(u)} in phi"
        if g.is_zero():
            raise HypothesisFailed(f"{lift} is nonzero on a zero generator of J: {l}")
        if not l.is_homogeneous():
            raise HypothesisFailed(f"{lift} is not homogeneous: {l}")
        want = g.homogeneous_degree() + deg_t
        if l.homogeneous_degree() != want:
            raise HypothesisFailed(f"{lift} has degree {l.homogeneous_degree()}, not {want}: {l}")
    return UnprojectionData(I.ring, I, J, u, lifts, deg_t, t_name)


def unprojection_data_from_lifts(I: Ideal, J: Ideal, lifts, deg_t: int,
                                 t_name: str = "T") -> UnprojectionData:
    """Accept a user-supplied phi of degree deg_t as lifts of its images on
    J's generators.

    The lifts' degrees are checked first, a zero generator taking only a
    zero lift; then the homomorphism property,
    as one product of the lifts row with the syzygies S of J's generators
    over R/I, reduced mod I.
    """
    data = _make_data(I, J, lifts, deg_t, t_name)
    S = _syzygies_mod(I, J)
    row = FreeModuleMap.from_rows(I.ring, [data.lifts], [0],
                                  [d + deg_t for d in S.target_twists])
    if not I.reduce(row.compose(S)).is_zero():
        raise HypothesisFailed(
            "supplied lifts do not define a homomorphism: a syzygy of J's "
            "generators pairs to a nonzero element mod I")
    return data


def transport_lifts(data: UnprojectionData, to_gens) -> tuple[Polynomial, ...]:
    """phi, given by data on data.gens, re-expressed on other generators of J.

    Each target generator is written as a combination of data.gens;
    applying phi columnwise and reducing mod data.ideal_i gives its lifts on
    the new generators.  The lift on u_j has degree deg(u_j) + data.deg_t,
    so zero lifts are allowed.
    """
    ring = data.ring
    from_row = FreeModuleMap.from_rows(ring, [data.gens], [0])
    to_row = FreeModuleMap.from_rows(ring, [to_gens], [0])
    try:
        X = lift_through(from_row, to_row)
    except NotLiftable as e:
        raise HypothesisFailed(
            f"target generators do not lie in the span of the given ones: {e}") from None
    l_row = FreeModuleMap.from_rows(ring, [data.lifts], [0],
                                    [d + data.deg_t for d in from_row.source_twists])
    return data.ideal_i.reduce(l_row.compose(X)).row(0)


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
