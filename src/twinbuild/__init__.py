"""Exact computations in the spherical building of SL_n(C) and the twin
building of SL_n over Laurent polynomials.

The high-traffic names are re-exported here; the full APIs live in the
submodules:

- :mod:`twinbuild.exactalg`  — Gaussian rationals, Laurent polynomials,
  exact matrices
- :mod:`twinbuild.coxeter`   — words, lengths, Bruhat order, coset
  representatives (finite and affine type A)
- :mod:`twinbuild.lattice`   — lattice classes, vertex types, incidence
- :mod:`twinbuild.building`  — chambers, Weyl distance/codistance,
  gates, cell coordinates
- :mod:`twinbuild.veronese`  — projector embeddings of flags and
  vertices, the gauge action
- :mod:`twinbuild.cells`     — cell dimensions and Poincaré series
- :mod:`twinbuild.verify`    — seeded self-check suites (also behind
  ``twinbuild verify`` on the command line)
"""

from .errors import (
    DomainError,
    NotInImageError,
    NotInvertibleError,
    TwinbuildError,
    VerificationError,
)
from .exactalg import (
    GaussRat,
    LaurentPoly,
    LMat,
    Z,
    parse_poly,
    parse_scalar,
    poly_to_str,
    scalar_to_str,
)
from .coxeter import (
    AffineWeylElt,
    CoxeterMatrix,
    affine_to_word,
    bruhat_leq,
    coxeter_matrix,
    longest_element,
    min_coset_reps,
    reduce_word,
    word_length,
    word_to_affine,
)
from .lattice import INF, Lattice, LatticeClass, canonical_class, incident, type_of
from .building import (
    Chamber,
    Simplex,
    chamber_from_basis,
    codelta,
    codelta_word,
    decode_coords,
    delta,
    delta_word,
    encode_coords,
    opposite,
    panel_chamber,
    project,
    project_twin,
    standard_chamber,
    weyl_matrix,
)
from .veronese import (
    SubspaceFlag,
    affine_veronese_vertex,
    barycentric_affine_veronese,
    caveat_check,
    gauge,
    pi_tls,
    recover_flag,
    sl_loop_pair,
    spherical_veronese,
    unitary_loop,
)
from .cells import (
    PoincareSeries,
    bott_equivalence_check,
    cell_dim,
    loop_poincare,
    schubert_poincare,
)
from .verify import available_suites, run_all, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "TwinbuildError",
    "DomainError",
    "NotInvertibleError",
    "NotInImageError",
    "VerificationError",
    # exact arithmetic
    "GaussRat",
    "LaurentPoly",
    "LMat",
    "Z",
    "parse_poly",
    "poly_to_str",
    "parse_scalar",
    "scalar_to_str",
    # Coxeter combinatorics
    "CoxeterMatrix",
    "coxeter_matrix",
    "reduce_word",
    "word_length",
    "bruhat_leq",
    "min_coset_reps",
    "longest_element",
    "AffineWeylElt",
    "word_to_affine",
    "affine_to_word",
    # lattices
    "INF",
    "Lattice",
    "LatticeClass",
    "canonical_class",
    "type_of",
    "incident",
    # buildings
    "Chamber",
    "Simplex",
    "chamber_from_basis",
    "standard_chamber",
    "weyl_matrix",
    "delta",
    "codelta",
    "delta_word",
    "codelta_word",
    "opposite",
    "project",
    "project_twin",
    "panel_chamber",
    "encode_coords",
    "decode_coords",
    # Veronese embeddings
    "SubspaceFlag",
    "spherical_veronese",
    "recover_flag",
    "unitary_loop",
    "sl_loop_pair",
    "gauge",
    "pi_tls",
    "affine_veronese_vertex",
    "barycentric_affine_veronese",
    "caveat_check",
    # cell counting
    "PoincareSeries",
    "cell_dim",
    "schubert_poincare",
    "loop_poincare",
    "bott_equivalence_check",
    # self checks
    "available_suites",
    "run_suite",
    "run_all",
]
