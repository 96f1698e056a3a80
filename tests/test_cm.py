"""Points as exact data and the form-class/point-class dictionary."""

import pytest

from _helpers import QuadIrrational, cm_from_value, point, point_key, root
from formclass.cm import cm_class_set, curve_kind, equivalent_points, point_json
from formclass.congruence import CongKind, class_index, class_key, lift_matrix
from formclass.forms import QuadForm, SignedForm, UnimodMatrix, is_member

UPPER = CongKind.UPPER_UNIPOTENT


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
    assert len(cm_class_set(d, n, curve)) == count


def test_class_set_keys_are_the_unsigned_keys_with_each_sign():
    # the point classes are the unsigned form classes taken with each sign,
    # plus first: pairwise distinct keys, in index order, and nothing else;
    # -3, -4 and -23 have six, four and two automorphs
    for d in (-3, -4, -23):
        for n in (1, 2, 3, 4, 5):
            for curve in ("y1", "y"):
                kind = curve_kind(curve)
                keys = [point_key(f, n, kind) for f in cm_class_set(d, n, curve)]
                assert len(set(keys)) == len(keys), (d, n, curve)
                unsigned = list(class_index(d, n, kind).by_key)  # in index order
                assert keys == [(key, sign) for sign in (1, -1) for key in unsigned], (d, n, curve)


def test_locate_is_inverse_of_enumeration():
    points = cm_class_set(-23, 3, "y1")
    keys = [point_key(p, 3, UPPER) for p in points]
    assert len(set(keys)) == len(points)
    # the index locates the forms of each half, in the same order
    idx = class_index(-23, 3, UPPER)
    h = len(idx.reps)
    assert [idx.locate(p.form) for p in points] == list(range(h)) * 2
    # a transported point lands in the same class
    mover = UnimodMatrix(1, 1, 0, 1)
    for p, key in zip(points, keys):
        assert point_key(p.transform(mover), 3, UPPER) == key


def test_locate_rejects_foreign_points():
    keys = {point_key(p, 3, UPPER) for p in cm_class_set(-23, 3, "y1")}
    idx = class_index(-23, 3, UPPER)
    for foreign in (point(1, 0, 1), point(3, 1, 2), point(3, 1, 2, -1)):  # disc -4; not primitive mod 3
        assert point_key(foreign, 3, UPPER) not in keys, foreign
        assert class_key(foreign.form, 3, UPPER) not in idx.by_key, foreign
        with pytest.raises(LookupError):
            idx.locate(foreign.form)


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


def test_non_members_are_refused_whatever_the_signs():
    # (3, 1, 2) has a leading coefficient that shares the level 3: refused as
    # cong_equivalent refuses it, also against a member of the opposite sign
    for curve in ("y1", "y"):
        for s in (1, -1):
            for t in (1, -1):
                for f, g in ((point(3, 1, 2, s), point(1, 1, 6, t)), (point(1, 1, 6, s), point(3, 1, 2, t)),
                             (point(3, 1, 2, s), point(3, 1, 2, t))):
                    with pytest.raises(ValueError, match="leading coefficient prime to 3"):
                        equivalent_points(f, g, 3, curve)


def test_conjugation_transports_classes():
    # conjugate points of equivalent points are equivalent
    cs = cm_class_set(-23, 3, "y1")
    g = lift_matrix(1, 0, 3, 1, 3)
    for p in cs:
        moved = p.transform(g)
        assert equivalent_points(conjugate_point(p), conjugate_point(moved), 3, "y1")
