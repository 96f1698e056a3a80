"""Exact arithmetic of binary quadratic form classes at a congruence level.

The package keeps three pictures of the same finite group in sync and
cross-checks them against each other: reduced positive definite forms up to
level-structured equivalence, invertible modules of an imaginary quadratic
order up to ray-type principality, and signed point classes on the associated
moduli curves, together with the p-adic tower sitting above an odd prime.
"""

from .forms import (
    IDENTITY,
    QuadForm,
    SignedForm,
    UnimodMatrix,
    reduce_form,
    reduced_forms,
    require_discriminant,
    sl2_equivalent,
)
from .congruence import CongKind, class_index, cong_equivalent, coset_reps, in_gamma, lift_matrix
from .ideals import (
    OIdeal,
    extend_to_order,
    form_to_ideal,
    fundamental_part,
    principal_generator,
    ray_class_count,
    ray_class_equal,
    residue_units,
    unit_group,
)
from .classgroup import (
    ClassGroupTable,
    CompositionBoundError,
    GroupAxiomError,
    PMGroup,
    class_group_table,
    class_of_ideal,
    class_surjection,
    compose,
    conj_class,
    inverse_class,
    order_change_map,
    same_class,
)
from .cm import cm_class_set, equivalent_points, point_json
from .tower import (
    MatrixSeq,
    act_padic,
    base_point_set,
    correspondence_report,
    kernel_reps,
    limits_agree,
    random_compliant_pair,
    random_matrix_seq,
    seq_conditions_hold,
)

__version__ = "0.1.0"
