"""Assembly of the unprojection resolution from a pair of resolutions.

Given minimal graded free resolutions C_I (length g-1) and C_J (length g) of
a Gorenstein pair I inside J, two chain maps and a homotopy are computed by
repeated lifting, and the block differentials of the resolution of the
unprojection ring over R[T] are assembled from them.  `unproject` runs the
whole procedure, from the two ideals to the assembled resolution.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .complexes import (ChainComplex, ChainMap, betti, dualize, extend_to_chain_map,
                        verify_complex)
from .gb import FreeModuleMap, Ideal, NotLiftable, lift_through, shared_engines
from .resolutions import minimal_free_resolution
from .rings import VARIABLE_NAME, Polynomial
from .unproj import (FinalIdentityFails, HypothesisFailed, UnprojectionData, hom_module,
                     select_phi, transport_lifts, unprojection_data_from_lifts,
                     unprojection_ideal)


@dataclass(frozen=True)
class KMInput:
    c_i: ChainComplex
    c_j: ChainComplex
    data: UnprojectionData
    g: int


@dataclass(frozen=True)
class KMOutput:
    complex: ChainComplex
    alpha: ChainMap
    beta: ChainMap
    homotopy: tuple[FreeModuleMap, ...]
    beta_top_scalar: object
    data: UnprojectionData
    ideal: Ideal


def deg_T(c_i: ChainComplex, c_j: ChainComplex) -> int:
    """Degree of the new variable: top twist of C_I minus top twist of C_J.

    First checks the shape the construction relies on: C_J has length
    g >= 4, C_I has length g - 1, and both start with one generator in
    degree 0 and end in a rank-one module.
    """
    g = c_j.length
    if g < 4:
        raise HypothesisFailed(
            f"codimension {g} is too small: only g >= 4 is implemented")
    if c_i.length != g - 1:
        raise HypothesisFailed(
            f"resolution lengths must differ by one, got {c_i.length} and {g}")
    for C, name in ((c_i, "C_I"), (c_j, "C_J")):
        if C.twists[0] != (0,):
            raise HypothesisFailed(f"{name} must start with one generator in degree 0")
        if C.rank(C.length) != 1:
            raise HypothesisFailed(f"{name} must end in a rank-one module")
    d = c_i.twists[-1][0] - c_j.twists[-1][0]
    if d <= 0:
        raise HypothesisFailed(f"new variable would have non-positive degree {d}")
    return d


def km_input(c_i: ChainComplex, c_j: ChainComplex, data: UnprojectionData) -> KMInput:
    """Validate the shapes the construction relies on."""
    dt = deg_T(c_i, c_j)
    if data.deg_t != dt:
        raise HypothesisFailed(
            f"deg_t = {data.deg_t} disagrees with the resolutions' "
            f"grading, which gives {dt}")
    if c_j.differential(1).row(0) != data.gens:
        raise HypothesisFailed(
            "phi is given on generators that differ from the first "
            "differential of C_J; recompute it on those generators")
    return KMInput(c_i, c_j, data, c_j.length)


def unproject(I: Ideal, J: Ideal, *, phi=None, t_name: str = "T",
              strict: bool = False) -> KMOutput:
    """Resolution of the unprojection ring of the Gorenstein pair I inside J.

    Resolves R/I and R/J, checks the shape of the pair (with `strict`, also
    that both Betti total rows are palindromic, a necessary condition for
    Gorenstein) and reads the degree of T off the resolutions.  Without
    `phi`, the homomorphism is chosen in Hom_{R/I}(J, R/I); otherwise `phi`
    gives its images on J's generators, in order, and is checked as a
    homomorphism of degree deg T on those generators, raising
    HypothesisFailed if it is not one.  The output works on the generators
    of the first differential of the resolution of R/J, to which a given
    `phi` is carried by `transport_lifts`.
    Raises ValueError, before any work, if `t_name` is not a valid variable
    name or names a variable of the ring, and HypothesisFailed, also before
    any work, if a lift in `phi` is not homogeneous.  R/J is resolved
    first and the rest runs in one `gb.shared_engines` block, so the lifts
    of beta and the homotopy through C_I's differentials reuse the engines
    that resolved R/I, and the block keeps no engine of C_J, which no lift
    reads.
    """
    if not VARIABLE_NAME.fullmatch(t_name):
        raise ValueError(f"the new variable {t_name!r} is not a valid variable name")
    if t_name in I.ring.names:
        raise ValueError(f"the new variable {t_name!r} is already a variable of the ring")
    if phi is not None:
        phi = tuple(phi)
        for k, lift in enumerate(phi, 1):
            if not lift.is_homogeneous():
                raise HypothesisFailed(f"lift {k} of {len(phi)} in phi is not "
                                       f"homogeneous: {lift}")
    c_j = minimal_free_resolution(J)
    with shared_engines():
        c_i = minimal_free_resolution(I)
        dt = deg_T(c_i, c_j)
        if strict:
            for C, name in ((c_i, "R/I"), (c_j, "R/J")):
                totals = betti(C).totals()
                if totals != totals[::-1]:
                    raise HypothesisFailed(
                        f"{name} fails the Gorenstein necessary check: Betti totals "
                        f"{totals} are not palindromic")
        u = Ideal(I.ring, c_j.differential(1).row(0))
        if phi is None:
            data = select_phi(hom_module(u, I), I, u, dt, t_name=t_name)
        else:
            given = unprojection_data_from_lifts(I, J, phi, dt, t_name=t_name)
            data = replace(given, ideal_j=u, gens=u.gens,
                           lifts=transport_lifts(given, u.gens))
        return kustin_miller_complex(km_input(c_i, c_j, data))


def _build_alpha(inp: KMInput) -> tuple[ChainMap, tuple[Polynomial, ...]]:
    c_i, c_j = inp.c_i, inp.c_j
    ring = c_i.ring
    g = inp.g
    # the top column a_g(1) of C_J has entries in J, so phi carries over to them
    ag = c_j.differential(g)
    lhats = transport_lifts(inp.data, [ag.entry(r, 0) for r in range(ag.rows)])
    ci_dual = dualize(c_i)
    cj_dual = dualize(c_j)
    f0 = FreeModuleMap.from_rows(ring, [lhats], ci_dual.twists[0], cj_dual.twists[1])
    try:
        star = extend_to_chain_map(f0, cj_dual, ci_dual, shift=1)
    except NotLiftable as e:
        raise HypothesisFailed(f"dual chain map does not extend: {e}") from None
    tilde = {j: star.component(g - j).transpose() for j in range(g)}
    unit = tilde[0].entry(0, 0)
    if unit.is_zero() or not unit.is_constant():
        raise HypothesisFailed(
            f"the degree-zero corner of the dualized chain map is {unit}, not a unit")
    scale = ring.constant(ring.field.inv(unit.constant_value()))
    alpha = ChainMap(c_i, c_j, 0, {j: m.scaled_by(scale) for j, m in tilde.items()})
    if not alpha.verify():
        raise HypothesisFailed("alpha does not commute with the differentials")
    return alpha, lhats


def compute_alpha(inp: KMInput) -> ChainMap:
    """Chain map C_I -> C_J with identity in position zero."""
    return _build_alpha(inp)[0]


def compute_beta(inp: KMInput) -> ChainMap:
    """Chain map C_J -> C_I shifted by one, extending e_i -> -phi(u_i)."""
    c_i, c_j, data = inp.c_i, inp.c_j, inp.data
    ring = c_i.ring
    a1 = c_j.differential(1)
    f0 = FreeModuleMap.from_rows(ring, [data.lifts], c_i.twists[0],
                                 [tw + data.deg_t for tw in a1.source_twists])
    try:
        beta = extend_to_chain_map(-f0, c_j, c_i, shift=1)
    except NotLiftable as e:
        raise HypothesisFailed(f"beta does not extend: {e}") from None
    if not beta.verify():
        raise HypothesisFailed("beta does not commute with the differentials")
    return beta


def compute_homotopy(alpha: ChainMap, beta: ChainMap,
                     c_i: ChainComplex) -> list[FreeModuleMap]:
    """Maps h_i with beta_i alpha_i = h_(i-1) b_i + b_i h_i, h_0 = h_(g-1) = 0.

    The last component is forced to zero and the residual identity at g-1 is
    verified; failure is reported, never patched.
    """
    g = beta.source.length
    deg_t = beta.degree
    ring = c_i.ring
    h: list[FreeModuleMap] = [FreeModuleMap.zero(
        ring, c_i.twists[0], [t + deg_t for t in c_i.twists[0]])]
    for i in range(1, g - 1):
        b_i = c_i.differential(i)
        rhs = beta.component(i).compose(alpha.component(i)) - h[i - 1].compose(b_i)
        try:
            h.append(lift_through(b_i, rhs))
        except NotLiftable as e:
            raise NotLiftable(f"homotopy fails to lift at position {i}: {e}") from None
    top = g - 1
    residual = (beta.component(top).compose(alpha.component(top))
                - h[top - 1].compose(c_i.differential(top)))
    if not residual.is_zero():
        raise FinalIdentityFails(
            f"homotopy identity at position {top} has nonzero residual "
            "with the last component forced to zero")
    h.append(FreeModuleMap.zero(
        ring, c_i.twists[top], [t + deg_t for t in c_i.twists[top]]))
    return h


def kustin_miller_complex(inp: KMInput) -> KMOutput:
    """The resolution of R[T]/U assembled from alpha, beta and the homotopy."""
    c_i, c_j, data, g = inp.c_i, inp.c_j, inp.data, inp.g
    deg_t = data.deg_t
    alpha, lhats = _build_alpha(inp)
    beta = compute_beta(inp)
    h = compute_homotopy(alpha, beta, c_i)
    beta_top = beta.component(g)
    top_entry = beta_top.entry(0, 0)
    if top_entry.is_zero() or not top_entry.is_constant():
        raise HypothesisFailed(
            f"the top component of beta is {top_entry}, not a nonzero scalar")
    beta_scalar = top_entry.constant_value()

    big = data.ring.extended([data.t_name], [deg_t])
    T = big.var(data.t_name)
    s = deg_t
    b = {i: c_i.differential(i).map_ring(big) for i in range(1, g)}
    a = {i: c_j.differential(i).map_ring(big) for i in range(1, g + 1)}
    al = {i: alpha.component(i).map_ring(big) for i in range(1, g)}
    be = {i: beta.component(i).map_ring(big) for i in range(1, g)}
    hh = {i: h[i].map_ring(big) for i in range(1, g - 1)}

    # F_i = B_i + A_i(-s) + B_(i-1)(-s), except that F_0 = B_0, F_1 has no
    # B_0 summand, F_(g-1) no B_(g-1) summand and F_g = B_(g-1)(-s); the
    # blocks carry these twists.  None is a zero block.
    # f_1 = (b_1 | beta_1 + T a_1)
    diffs = [FreeModuleMap.block([[b[1], be[1] + a[1].scaled_by(T)]])]
    for i in range(2, g):
        t_block = FreeModuleMap.identity(big, c_i.twists[i - 1]).scaled_by(
            T if i % 2 == 0 else -T)
        grid = [[b[i], be[i], hh[i - 1] + t_block],
                [None, -a[i].shifted(s), -al[i - 1].shifted(s)],
                [None, None, b[i - 1].shifted(s)]]
        if i == 2:
            grid = grid[:2]
        if i == g - 1:
            grid = [row[1:] for row in grid]
        diffs.append(FreeModuleMap.block(grid))
    # f_g = (-alpha_(g-1) + (-1)^g T a_g / beta_g ; b_(g-1))
    scalar = data.ring.field.inv(beta_scalar)
    if g % 2 != 0:
        scalar = data.ring.field.neg(scalar)
    top = -al[g - 1] + a[g].scaled_by(T.scale(scalar))
    diffs.append(FreeModuleMap.block([[top.shifted(s)], [b[g - 1].shifted(s)]]))
    cu = ChainComplex.from_differentials(big, diffs)
    if not verify_complex(cu):
        raise HypothesisFailed("assembled complex fails d*d = 0")
    data = replace(data, hat_lifts=lhats)
    U = unprojection_ideal(data)
    return KMOutput(cu, alpha, beta, tuple(h), beta_scalar, data, U)
