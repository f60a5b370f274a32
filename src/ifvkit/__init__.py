"""Ordered algebra of intuitionistic and q-rung orthopair fuzzy values.

The package implements the full ordered-algebraic structure of the IFV space:
two linear orders and their comparators, lattice operations with a closed-form
finite inf/sup oracle, a strong negation turning the space into a Kleene
algebra, the order isomorphism between the two orders, rung transport and
operator lifting for q-rung orthopair values, and an admissible similarity
measure applied to pattern classification.
"""

from .core import (
    BOTTOM,
    DEFAULT_POLICY,
    TOP,
    Ifv,
    NumericPolicy,
    OrderKind,
    Ordering,
    accuracy,
    cmp,
    indeterminacy,
    make_ifv,
    score,
    similarity_l,
)
from .errors import (
    BadParameter,
    DomainViolation,
    EmptyCollection,
    EmptyPatternSet,
    EmptySamples,
    IfvkitError,
    InconsistentScan,
    LengthMismatch,
    NonTotalMap,
    RungMismatch,
    UniverseMismatch,
)
from .ifs import Ifs, decompose_check, level_set, pointwise_leq, zadeh_extend
from .isomorphism import xy_to_zx, zx_to_xy
from .lattice import (
    LatticeScan,
    inf_finite,
    inf_from_scan,
    join2,
    meet2,
    scan_of,
    sup_finite,
    sup_from_scan,
)
from .negation import kleene_check, negate, negate_xy, negate_zx
from .ops import (
    add,
    complement_bar,
    ifwa,
    ifwg,
    intersect,
    mul,
    power,
    scalar_mul,
    union_,
)
from .qrofn import (
    QOrderKind,
    Qrofn,
    QrofnScores,
    from_ifv,
    lift,
    make_qrofn,
    negate_lw,
    negate_wu,
    qcmp,
    qrofwa,
    qrofwg,
    scores,
    to_ifv,
)
from .similarity import (
    ClassificationResult,
    WeightVector,
    classify,
    distance,
    equal_weights,
    rho,
    similarity,
)

__version__ = "0.1.0"
