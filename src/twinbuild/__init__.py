"""Exact computations in the spherical building of SL_n(C) and the twin
building of SL_n over Laurent polynomials.

The high-traffic names are exported here; the full APIs live in the
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

``import twinbuild`` loads none of them.  Each exported name, and each
submodule named as an attribute (``twinbuild.building``), loads its
submodule on first use (PEP 562) and is then cached here, so a command
that needs only Coxeter words never compiles the matrix layers.
"""

import importlib

__version__ = "0.1.0"

# Where each exported name lives; ``__all__`` lists them in this order.
_EXPORTS = {
    "errors": (
        "TwinbuildError",
        "DomainError",
        "NotInvertibleError",
        "NotInImageError",
        "VerificationError",
    ),
    "exactalg": (
        "GaussRat",
        "LaurentPoly",
        "LMat",
        "Z",
        "parse_poly",
        "poly_to_str",
        "parse_scalar",
        "scalar_to_str",
    ),
    "coxeter": (
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
    ),
    "lattice": ("INF", "LatticeClass", "type_of", "incident"),
    "building": (
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
    ),
    "veronese": (
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
    ),
    "cells": (
        "PoincareSeries",
        "cell_dim",
        "schubert_poincare",
        "loop_poincare",
        "bott_equivalence_check",
    ),
    "verify": ("available_suites", "run_suite", "run_all"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["__version__", *_HOME]
_SUBMODULES = frozenset(_EXPORTS) | {"record", "samples"}


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
