"""Decide and witness full realizability of abelian groups as unit groups
of characteristic-2 rings."""

from .algebra import (
    Algebra,
    AlgebraElement,
    Ideal,
    QuotientRing,
    augmentation,
    field_algebra,
    find_inverse,
    group_algebra,
    ideal_span,
    is_unit,
    multiplicative_order,
    present_over,
    product_algebra,
    product_element,
    unit_count,
    unit_group_invariants,
    units,
)
from .constructions import (
    ClassificationVerdict,
    Reason,
    SearchReport,
    a24_ideal,
    bounded_ideal_search,
    chain_ring_ideals,
    classify,
    construct_witness,
    ring_from_recipe,
    star_ideal,
)
from .endo import (
    RealizabilityReport,
    count_preserving,
    fully_realizes,
    preserves_ideal,
    ring_endos,
    ring_endos_oracle,
)
from .errors import (
    BudgetExceededError,
    FuchslabError,
    GroupSyntaxError,
    InfiniteGroupError,
    NotRealizableError,
    OrderMismatchError,
    UnitGroupMismatchError,
    ZeroRingError,
)
from .groups import (
    GroupElement,
    GroupHom,
    GroupSpec,
    canonicalize,
    element_order,
    elements,
    endo_count,
    enumerate_endos,
    identity_hom,
    order_profile,
    parse_group,
    render_group,
)

__version__ = "0.1.0"
