"""Assembly of the unprojection resolution from a pair of resolutions.

Given minimal graded free resolutions C_I (length g-1) and C_J (length g) of
a Gorenstein pair I inside J, two chain maps and a homotopy are computed by
repeated lifting, and the block differentials of the resolution of the
unprojection ring over R[T] are assembled from them.  `unproject` runs the
whole procedure, from the two ideals to the assembled resolution.
"""
from __future__ import annotations

from dataclasses import dataclass

from .complexes import (ChainComplex, ChainMap, betti, dualize, extend_to_chain_map,
                        verify_complex)
from .gb import FreeModuleMap, Ideal, NotLiftable, lift_through, normal_form
from .resolutions import minimal_free_resolution
from .rings import Polynomial
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
    a1 = c_j.differential(1)
    if tuple(a1.entries[0]) != data.gens:
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
    gives its images on J's generators, in order.  The output works on the
    generators of the first differential of the resolution of R/J.
    """
    c_i = minimal_free_resolution(I)
    c_j = minimal_free_resolution(J)
    dt = deg_T(c_i, c_j)
    if strict:
        for C, name in ((c_i, "R/I"), (c_j, "R/J")):
            totals = betti(C).totals()
            if totals != totals[::-1]:
                raise HypothesisFailed(
                    f"{name} fails the Gorenstein necessary check: Betti totals "
                    f"{totals} are not palindromic")
    u = Ideal(I.ring, list(c_j.differential(1).entries[0]))
    if phi is None:
        data = select_phi(hom_module(u, I), I, u, dt, t_name=t_name)
    else:
        lifts = transport_lifts(I, J, phi, u.gens)
        data = unprojection_data_from_lifts(I, u, lifts, dt, t_name=t_name)
    return kustin_miller_complex(km_input(c_i, c_j, data))


def _hat_lifts(inp: KMInput) -> tuple[Polynomial, ...]:
    """Lifts of phi on the generators read off the top differential of C_J.

    The top column a_g(1) has entries in J, so it factors through a_1 by a
    square matrix Q; applying phi columnwise gives the hat lifts.
    """
    c_j, data = inp.c_j, inp.data
    ring = c_j.ring
    g = inp.g
    a1 = c_j.differential(1)
    ag = c_j.differential(g)
    chat = [ag.entries[r][0] for r in range(ag.rows)]
    chat_row = FreeModuleMap.from_rows(ring, [chat], [0])
    try:
        Q = lift_through(a1, chat_row)
    except NotLiftable as e:
        raise HypothesisFailed(
            f"top differential entries do not lie in J: {e}") from None
    l_row = FreeModuleMap.from_rows(ring, [list(data.lifts)], [0],
                                    [tw + data.deg_t for tw in a1.source_twists])
    lhat_row = l_row.compose(Q)
    G = data.ideal_i.groebner()
    return tuple(normal_form(lhat_row.entries[0][c], G) for c in range(lhat_row.cols))


def _build_alpha(inp: KMInput) -> tuple[ChainMap, tuple[Polynomial, ...]]:
    c_i, c_j = inp.c_i, inp.c_j
    ring = c_i.ring
    g = inp.g
    lhats = _hat_lifts(inp)
    ci_dual = dualize(c_i)
    cj_dual = dualize(c_j)
    f0 = FreeModuleMap(ring, [list(lhats)], ci_dual.twists[0], cj_dual.twists[1])
    try:
        star = extend_to_chain_map(f0, cj_dual, ci_dual, shift=1)
    except NotLiftable as e:
        raise HypothesisFailed(f"dual chain map does not extend: {e}") from None
    tilde = {j: star.component(g - j).transpose() for j in range(g)}
    unit = tilde[0].entries[0][0]
    if unit.is_zero() or not unit.is_constant():
        raise HypothesisFailed(
            f"the degree-zero corner of the dualized chain map is {unit}, not a unit")
    scale = ring.field.inv(unit.constant_value())
    comps = {}
    for j, m in tilde.items():
        ent = [[e.scale(scale) for e in row] for row in m.entries]
        comps[j] = FreeModuleMap(ring, ent, m.target_twists, m.source_twists)
    alpha = ChainMap(c_i, c_j, 0, comps)
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
    f0 = FreeModuleMap(ring, [list(data.lifts)], c_i.twists[0],
                       [tw + data.deg_t for tw in a1.source_twists])
    try:
        plus = extend_to_chain_map(f0, c_j, c_i, shift=1)
    except NotLiftable as e:
        raise HypothesisFailed(f"beta does not extend: {e}") from None
    beta = plus.negated()
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
    top_entry = beta_top.entries[0][0]
    if top_entry.is_zero() or not top_entry.is_constant():
        raise HypothesisFailed(
            f"the top component of beta is {top_entry}, not a nonzero scalar")
    beta_scalar = top_entry.constant_value()

    big = data.ring.extended([data.t_name], [deg_t])
    T = big.var(data.t_name)

    def lift_map(m: FreeModuleMap) -> FreeModuleMap:
        return m.map_ring(big)

    def b(i):
        return lift_map(c_i.differential(i))

    def a(i):
        return lift_map(c_j.differential(i))

    def al(i):
        return lift_map(alpha.component(i))

    def be(i):
        return lift_map(beta.component(i))

    def hh(i):
        return lift_map(h[i])

    def t_identity(i):
        twists = tuple(c_i.twists[i])
        return FreeModuleMap.identity(big, twists).scaled_by(T)

    def zero(tgt, src):
        return FreeModuleMap.zero(big, tgt, src)

    sh = deg_t
    b_tw = [tuple(t) for t in c_i.twists] + [()]
    a_tw = [tuple(t) for t in c_j.twists]
    f_tw = {0: b_tw[0]}
    f_tw[1] = b_tw[1] + tuple(t + sh for t in a_tw[1])
    for i in range(2, g - 1):
        f_tw[i] = b_tw[i] + tuple(t + sh for t in a_tw[i]) + tuple(t + sh for t in b_tw[i - 1])
    f_tw[g - 1] = tuple(t + sh for t in a_tw[g - 1]) + tuple(t + sh for t in b_tw[g - 2])
    f_tw[g] = tuple(t + sh for t in b_tw[g - 1])

    diffs = []
    # f_1 = (b_1 | beta_1 + T a_1)
    diffs.append(FreeModuleMap.block([[b(1), be(1) + a(1).scaled_by(T)]]))
    # f_2 = ((b_2, beta_2, h_1 + T I_1), (0, -a_2, -alpha_1))
    row1 = [b(2), be(2), hh(1) + t_identity(1)]
    row2 = [zero(tuple(t + sh for t in a_tw[1]), b_tw[2]),
            -a(2).shifted(sh), -al(1).shifted(sh)]
    diffs.append(FreeModuleMap.block([row1, row2]))
    # middle range picks up a lower-right b block and a sign on the T block
    for i in range(3, g - 1):
        sign_t = t_identity(i - 1) if i % 2 == 0 else -t_identity(i - 1)
        row1 = [b(i), be(i), hh(i - 1) + sign_t]
        row2 = [zero(tuple(t + sh for t in a_tw[i - 1]), b_tw[i]),
                -a(i).shifted(sh), -al(i - 1).shifted(sh)]
        row3 = [zero(tuple(t + sh for t in b_tw[i - 2]), b_tw[i]),
                zero(tuple(t + sh for t in b_tw[i - 2]), tuple(t + sh for t in a_tw[i])),
                b(i - 1).shifted(sh)]
        diffs.append(FreeModuleMap.block([row1, row2, row3]))
    # f_(g-1): two columns, three block rows
    sign_t = t_identity(g - 2) if (g - 1) % 2 == 0 else -t_identity(g - 2)
    row1 = [be(g - 1), hh(g - 2) + sign_t]
    row2 = [-a(g - 1).shifted(sh), -al(g - 2).shifted(sh)]
    row3 = [zero(tuple(t + sh for t in b_tw[g - 3]), tuple(t + sh for t in a_tw[g - 1])),
            b(g - 2).shifted(sh)]
    diffs.append(FreeModuleMap.block([row1, row2, row3]))
    # f_g: single column
    scalar = data.ring.field.inv(beta_scalar)
    if g % 2 != 0:
        scalar = data.ring.field.neg(scalar)
    top_block = -al(g - 1).shifted(sh) + a(g).scaled_by(
        T.scale(scalar)).shifted(sh)
    diffs.append(FreeModuleMap.block([[top_block], [b(g - 1).shifted(sh)]]))

    twists = [f_tw[i] for i in range(g + 1)]
    cu = ChainComplex(big, twists, diffs)
    if not verify_complex(cu):
        raise HypothesisFailed("assembled complex fails d*d = 0")
    data = data.with_hat_lifts(lhats)
    U = unprojection_ideal(data)
    return KMOutput(cu, alpha, beta, tuple(h), beta_scalar, data, U)
