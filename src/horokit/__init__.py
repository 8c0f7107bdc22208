"""horokit: metric functionals, boundary restrictions of Cayley graphs,
1-Lipschitz extension, and spectral invariants of semi-contractions."""

from .boundary import (
    DriftMeasure,
    LimitRestrictionSet,
    ZFunctional,
    act_on_rows,
    drift_audit,
    limit_restrictions,
    reduced_classify_z,
    reduced_fixed_point_audit,
    sphere_restrictions,
    unboundedness_check,
)
from .dynamics import (
    MoebiusMap,
    OrbitSpace,
    SelfMap,
    almost_fixed_invariant_functional,
    disk_parabolic_horocycle_audit,
    distorted_compactification_check,
    group_translation,
    half_plane_translation,
    minimal_displacement,
    parabolic_orbit_functional,
    random_hyperbolic_pair,
    spectral_principle_witness,
    tracial_check,
    translation_number,
)
from .errors import (
    BudgetError,
    HorokitError,
    InvalidDistortionError,
    InvalidParameterError,
    InvalidPointError,
    InvalidSpaceError,
    NotMonotoneError,
    PreconditionError,
    ResourceLimitError,
    UnsupportedError,
)
from .extension import (
    HahnBanachResult,
    McShaneExtension,
    PartialFunctional,
    PigeonholeLimit,
    euclidean_zero_nonmembership_check,
    hahn_banach_extend,
    spoke_ray_failure_witness,
    star_tree_failure_witness,
)
from .functionals import (
    BallFunctional,
    DiskBusemann,
    HalfPlaneBusemannInfinity,
    Linear,
    LpMu,
    LpZC,
    RealizedFunctional,
    ZdLinear,
    Zero,
    distance_recovery_check,
    eval_functional,
    functional_norm_estimate,
    lipschitz_check,
    lp_limit_convergence_check,
    midpoint_convexity_check,
)
from .groups import (
    CayleyBall,
    CayleyGraphSpace,
    FiniteGroup,
    FreeGroup,
    GeneratingSet,
    Heisenberg,
    Zd,
    cayley_ball,
    cyclic_group,
    word_length,
)
from .metric import (
    FiniteMetricSpace,
    MetricSpace,
    validate_metric,
)
from .spaces import (
    DISTORTIONS,
    DistortedLine,
    LpSpace,
    PoincareDisk,
    SpokeRaySpace,
    StarTreeSpace,
    UpperHalfPlane,
    cayley_to_disk,
    cayley_to_half_plane,
    distorted_line_validate,
)

__version__ = "0.1.0"
