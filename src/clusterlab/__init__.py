"""Exact computation with affine type-A cluster algebras and annulus triangulations."""

from .laurent import LaurentPoly, coordinates, div_exact, format_poly, substitute, try_div_exact
from .quiver import Quiver, TypeLabel, classify_tilde_A, mutation_class, tilde_A_canonical
from .engine import (
    ExchangeGraph,
    Seed,
    check_automorphism_candidate,
    denominator_vector,
    exchange_graph,
    infer_exchange_quiver,
    initial_seed,
    is_algebraically_independent,
    mutate_seed,
    variables_up_to_depth,
)
from .annulus import (
    Arc,
    MarkedAnnulus,
    Triangulation,
    arc_check,
    classify_arc,
    crossing_number,
    flip,
    initial_triangulation,
    make_arc,
    quiver_of,
    triangles,
    variable_of_arc,
    verify_cover_flip,
)

__all__ = [name for name in dir() if not name.startswith("_")]
