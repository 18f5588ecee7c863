"""Curvature verification for submanifolds of generalized S-space-forms.

Models pointwise data of a submanifold tangent to both structure vector
fields of a metric f-manifold with two structure vectors, evaluates the
seven-function curvature model, and verifies the Chen-type Ricci and
scalar-curvature bounds together with their equality characterizations.
"""

from .ambient import (
    MAX_M,
    AmbientModel,
    StructureFunctions,
    ambient_curvature,
    canonical_model,
    frame_sectional,
    preset_structure_functions,
)
from .config import DEFAULT, Tolerances
from .errors import (
    BadConfig,
    BadDimension,
    BadK,
    BadShape,
    DependentInput,
    DimensionMismatch,
    GssfError,
    NonFinite,
    NotInL,
    NotMinimal,
    NotOrthonormal,
    NotTangent,
    NotUnitVector,
    SchemaViolation,
    UsageError,
    VariantPreconditionViolated,
    XiNotTangent,
)
from .frames import Basis, Vec, as_vec, complete_basis, gram_schmidt
from .generators import (
    GeneratorConfig,
    anti_invariant_frame,
    random_instance,
    random_sff,
    slant_frame,
)
from .inequalities import (
    BoundReport,
    CFormEqualityReport,
    ChenLemmaReport,
    FrameSweep,
    GlobalDeltaReport,
    PlaneInfimum,
    RicciEqualityDiagnosis,
    ShapeMatchResult,
    ShapeOperatorForm,
    c_form_equality_classifier,
    chen_lemma_check,
    delta_bound,
    delta_equality_shape_check,
    equality_instance,
    frame_sweep,
    global_delta_bounds,
    minimize_sectional_plane,
    ricci_bound,
    ricci_equality_diagnosis,
)
from .submanifold import (
    InvariantReport,
    PointFlags,
    ScalarIdentityReport,
    SecondFundamentalForm,
    SffClassification,
    SlantResult,
    SubmanifoldPoint,
    attach_point,
    classify_sff,
    induced_curvature,
    invariant_report,
    relative_null_space,
    scalar_identity_check,
    slant_probe,
)

__version__ = "0.1.0"
