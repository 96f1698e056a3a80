"""Points as exact data and the form-class/point-class dictionary."""

import pytest

from _helpers import QuadIrrational, cm_from_value, point, root
from formclass.cm import cm_class_set, curve_kind, equivalent_points, point_json
from formclass.congruence import CongKind, class_index, lift_matrix
from formclass.forms import QuadForm, SignedForm, UnimodMatrix, is_member


def conjugate_point(p: SignedForm) -> SignedForm:
    """Complex conjugation: same form, other half-plane."""
    return SignedForm(p.form, -p.sign)


def test_curve_kind_names():
    assert curve_kind("y1") is CongKind.UPPER_UNIPOTENT
    assert curve_kind("y") is CongKind.FULL_LEVEL
    with pytest.raises(ValueError):
        curve_kind("y0")


def test_point_invariants():
    p = point(2, 1, 3)
    assert p.discriminant() == -23
    assert is_member(p.form, -23, 3) and not is_member(p.form, -23, 2)
    assert point_json(p)["tau"]["half_plane"] == "upper"
    q = conjugate_point(p)
    assert point_json(q)["tau"]["half_plane"] == "lower"
    assert conjugate_point(q) == p
    assert q.discriminant() == -23


def test_tau_reconstruction_roundtrip():
    for a, b, c in ((1, 1, 6), (2, 1, 3), (2, -1, 3), (4, 3, 2), (1, 0, 6)):
        for sign in (1, -1):
            p = point(a, b, c, sign)
            assert cm_from_value(root(p)) == p


def test_reconstruction_normalizes_presentation():
    # the same value presented with a non-fundamental radicand must
    # reconstruct the primitive polynomial and its own discriminant
    t = QuadIrrational(-2, 1, -92, 8)  # equals (-1 + sqrt(-23))/4
    p = cm_from_value(t)
    assert p.discriminant() == -23
    assert p.form == QuadForm(2, 1, 3)


def test_point_json_shape():
    doc = point_json(point(2, 1, 3))
    assert doc["form"] == [2, 1, 3, 1]
    assert doc["tau"] == {"num": -1, "den": 4, "disc": -23, "half_plane": "upper"}


@pytest.mark.parametrize(
    "d,n,curve,count",
    [
        (-23, 1, "y1", 6),
        (-23, 1, "y", 6),
        (-23, 3, "y1", 12),
        (-23, 3, "y", 36),
        (-15, 2, "y1", 4),
        (-15, 2, "y", 8),
    ],
)
def test_class_set_counts(d, n, curve, count):
    assert len(cm_class_set(d, n, curve).reps) == count


def test_class_set_counts_match_signed_class_index():
    # the point classes are the signed form classes, not a second list
    for d, n in ((-23, 2), (-23, 3), (-20, 3), (-24, 5)):
        for curve in ("y1", "y"):
            assert cm_class_set(d, n, curve) is class_index(d, n, curve_kind(curve), signed=True)


def test_locate_is_inverse_of_enumeration():
    cs = cm_class_set(-23, 3, "y1")
    for i, p in enumerate(cs.reps):
        assert cs.locate(p) == i
    # a transported point lands in the same class
    mover = UnimodMatrix(1, 1, 0, 1)
    for i, p in enumerate(cs.reps):
        assert cs.locate(p.transform(mover)) == i


def test_locate_rejects_foreign_points():
    cs = cm_class_set(-23, 3, "y1")
    with pytest.raises(LookupError):
        cs.locate(point(1, 0, 1))  # disc -4
    with pytest.raises(LookupError):
        cs.locate(point(3, 1, 2))  # not primitive mod 3


def test_equivalence_respects_curve_kind():
    # the level-3 unipotent witness pair is inequivalent at the full kind
    p = point(1, -1, 6)
    q = point(1, 1, 6)
    assert equivalent_points(p, q, 3, "y1")
    assert not equivalent_points(p, q, 3, "y")
    assert not equivalent_points(p, point(1, 0, 1), 3, "y1")


def test_half_planes_never_mix():
    p = point(1, 1, 6)
    assert not equivalent_points(p, conjugate_point(p), 1, "y")
    assert equivalent_points(p, p, 1, "y")


def test_conjugation_transports_classes():
    # conjugate points of equivalent points are equivalent
    cs = cm_class_set(-23, 3, "y1")
    g = lift_matrix(1, 0, 3, 1, 3)
    for p in cs.reps:
        moved = p.transform(g)
        assert equivalent_points(conjugate_point(p), conjugate_point(moved), 3, "y1")
