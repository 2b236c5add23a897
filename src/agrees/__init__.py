"""agrees: exact almost-Gorenstein classification for Rees algebras R[It].

Ideals live in k[x,y] localized at (x,y); all arithmetic is symbolic over
exact rationals or a large prime field.
"""

from .engine import (
    AGReport,
    AGWitness,
    ClassifyConfig,
    ReductionData,
    RefutationData,
    Verdict,
    canonical_colon,
    certificate_search,
    classify,
    find_reduction,
    is_stable,
    necessary_bound,
    validate_report,
    verify_witness,
)
from .families import coordinate_twin, make_family
from .fields import QQ, PrimeField, RationalField, field_from_config
from .groebner import (
    GroebnerBasis,
    Ideal,
    colength,
    ideal_colon,
    ideal_equal,
    ideal_intersection,
    ideal_order,
    ideal_product,
    minimal_generators,
    normal_form,
)
from .parse import parse_ideal_spec, parse_polynomial
from .poly import (
    BASE_RING,
    GREVLEX,
    BlockElimination,
    Polynomial,
    Ring,
    rees_ring,
)
from .rees import ReesPresentation, rees_defining_ideal
from .report import VERSION
from .staircase import (
    Staircase,
    is_contracted,
    mono_colength,
    newton_closure,
    render_staircase,
    staircase_colon,
    staircase_intersection,
    staircase_normalize,
    staircase_product,
)

__version__ = VERSION
