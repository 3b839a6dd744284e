"""Exact Kustin-Miller unprojection with a self-contained Groebner kernel."""

from .rings import (
    QQ,
    GREVLEX,
    LEX,
    CoefficientField,
    MonomialOrder,
    PolyRing,
    Polynomial,
    make_ring,
)
from .gb import (
    FreeModuleMap,
    GroebnerBasis,
    Ideal,
    NotLiftable,
    groebner,
    ideal_equal,
    ideal_quotient,
    lift_through,
    minimal_generators,
    normal_form,
    syzygies,
)
from .complexes import (
    BettiTable,
    ChainComplex,
    ChainMap,
    betti,
    dualize,
    eliminate_variable,
    extend_to_chain_map,
    minimize,
    verify_complex,
    verify_resolution,
)
from .resolutions import (
    SkewMatrix,
    buchsbaum_eisenbud_complex,
    koszul_complex,
    minimal_free_resolution,
    pfaffian,
)
from .unproj import (
    FinalIdentityFails,
    HypothesisFailed,
    UnprojectionData,
    hom_module,
    select_phi,
    transport_lifts,
    unprojection_data_from_lifts,
    unprojection_ideal,
)
from .km import (
    KMInput,
    KMOutput,
    compute_alpha,
    compute_beta,
    compute_homotopy,
    deg_T,
    km_input,
    kustin_miller_complex,
    unproject,
)
from .simplicial import (
    SimplicialComplex,
    cyclic_polytope_boundary,
    cyclic_resolution,
    link,
    stanley_reisner_ideal,
    stellar_resolution,
    stellar_subdivide,
)

__all__ = [
    "QQ", "GREVLEX", "LEX", "CoefficientField", "MonomialOrder", "PolyRing",
    "Polynomial", "make_ring",
    "FreeModuleMap", "GroebnerBasis", "Ideal", "NotLiftable", "groebner",
    "ideal_equal", "ideal_quotient", "lift_through", "minimal_generators",
    "normal_form", "syzygies",
    "BettiTable", "ChainComplex", "ChainMap", "betti", "dualize",
    "eliminate_variable", "extend_to_chain_map", "minimize", "verify_complex",
    "verify_resolution",
    "SkewMatrix", "buchsbaum_eisenbud_complex", "koszul_complex",
    "minimal_free_resolution", "pfaffian",
    "FinalIdentityFails", "HypothesisFailed", "UnprojectionData", "hom_module",
    "select_phi", "transport_lifts", "unprojection_data_from_lifts",
    "unprojection_ideal",
    "KMInput", "KMOutput", "compute_alpha", "compute_beta", "compute_homotopy",
    "deg_T", "km_input", "kustin_miller_complex", "unproject",
    "SimplicialComplex", "cyclic_polytope_boundary", "cyclic_resolution",
    "link", "stanley_reisner_ideal", "stellar_resolution", "stellar_subdivide",
]
