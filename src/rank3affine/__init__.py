"""Rank three graphs from one-dimensional affine groups.

Constructs the Paley, generalized Paley (Van Lint-Schrijver) and Peisert
connection sets over GF(q), builds their Cayley graphs with exact
strong-regularity checks, and verifies exhaustively that these families are
the only two-orbit partitions arising from subgroups of Z_n x| <alpha> and
of GammaL(1, q).
"""

from .classify import (ClassificationReport, ClassifiedPartition, classify_field,
                       gammal1_context, prime_powers_up_to, verify_theorem)
from .families import (ConnectionSet, GeneralizedPaley, Paley, Peisert, Unmatched,
                       latin_square_tag, paley_connection_set,
                       peisert_connection_set, vls_connection_set)
from .fields import FiniteField, build_field
from .graphs import (CayleyGraph, NotStronglyRegular, SrgParams, build_cayley,
                     export_edge_list, export_graph6, paley_parameter_formula,
                     srg_params)
from .znaction import (AffineActionContext, AffineMapZn, Case1, Case2,
                       OrbitPartition, Violation, classify_partition, orbits,
                       two_orbit_partitions_with_generators, verify_lemma)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "AffineActionContext", "AffineMapZn", "Case1", "Case2", "CayleyGraph",
    "ClassificationReport", "ClassifiedPartition", "ConnectionSet",
    "FiniteField", "GeneralizedPaley", "NotStronglyRegular", "OrbitPartition",
    "Paley", "Peisert", "SrgParams", "Unmatched", "Violation",
    "build_cayley", "build_field", "classify_field", "classify_partition",
    "errors", "export_edge_list", "export_graph6", "gammal1_context",
    "latin_square_tag", "orbits", "paley_connection_set",
    "paley_parameter_formula", "peisert_connection_set", "prime_powers_up_to",
    "srg_params", "two_orbit_partitions_with_generators",
    "verify_lemma", "verify_theorem", "vls_connection_set",
]
