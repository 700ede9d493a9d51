"""Good semigroup ideals of Z^r.

Finite canonical representations, membership and axiom validation, fibers and
maximal points, CD-difference and fiber-formula duals, canonical ideals and
Gorenstein symmetry, and executable checks of the duality and symmetry
pairing results, with a brute-force oracle certifying every fast path.
"""

from .constructors import from_small_elements, node, numerical, product, random_good
from .duality import (
    bidual,
    canonical_ideal,
    cd_difference,
    fiber_dual,
    is_canonical,
    is_gorenstein,
)
from .errors import (
    DimensionMismatch,
    GsiError,
    InvalidIndexSet,
    ParseError,
    SoundnessError,
    ValidationError,
)
from .fiber import (
    MaximalInfo,
    MaximalKind,
    fiber_empty,
    fiber_witness,
    is_maximal,
    maximals,
    p_value,
    q_value,
)
from .gsi_format import emit_gsi, parse_gsi
from .ideal import (
    RegionSet,
    SmallRep,
    conductor,
    contains,
    equals,
    frobenius,
    is_subset,
    members,
    min_elem,
    translate,
    validate,
)
from .lattice import Box, Cmp, Point, leq, meet, partial_cmp, project, unit_vector
from .report import CheckReport
from .theorems import (
    check_all,
    check_duality,
    check_fibra,
    check_length_pairing,
    check_maximal_symmetry,
    check_rho,
    check_sum,
    length_step,
    rho,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "CheckReport",
    "Cmp",
    "DimensionMismatch",
    "GsiError",
    "InvalidIndexSet",
    "MaximalInfo",
    "MaximalKind",
    "ParseError",
    "Point",
    "RegionSet",
    "SmallRep",
    "SoundnessError",
    "ValidationError",
    "bidual",
    "canonical_ideal",
    "cd_difference",
    "check_all",
    "check_duality",
    "check_fibra",
    "check_length_pairing",
    "check_maximal_symmetry",
    "check_rho",
    "check_sum",
    "conductor",
    "contains",
    "emit_gsi",
    "equals",
    "fiber_dual",
    "fiber_empty",
    "fiber_witness",
    "frobenius",
    "from_small_elements",
    "is_canonical",
    "is_gorenstein",
    "is_maximal",
    "is_subset",
    "length_step",
    "leq",
    "maximals",
    "meet",
    "members",
    "min_elem",
    "node",
    "numerical",
    "p_value",
    "parse_gsi",
    "partial_cmp",
    "product",
    "project",
    "q_value",
    "random_good",
    "rho",
    "translate",
    "unit_vector",
    "validate",
]
