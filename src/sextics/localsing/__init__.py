"""Local analysis of plane curve singularities."""

from .points import (
    AlgebraicPoint,
    NotSquarefreeError,
    singular_points,
    translate_to_origin,
    specialize_x,
    point_on_curve,
)
from .germs import (
    InfiniteIntersectionError,
    intersection_multiplicity_origin,
    milnor_number_origin,
)
from .resolve import Resolution, UnresolvedGermError, resolve
from .classify import (
    ConsistencyError,
    LocalSingularity,
    SingType,
    analyze_germ,
    analyze_point,
    build_signature_table,
    classify_germ,
    classify_signature,
    delta_invariant,
    dual_branch,
    normal_form_germ,
    recognition_types,
)
