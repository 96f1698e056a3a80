"""CM points on the signed modular curves, as exact data.

A point is the signed form whose root it is — never a floating complex
number, and no second object: `point_json` writes its value from the
coefficients.  So the classes of points on the level-N curve are the signed
form classes of `congruence.class_index`, located by the same exact key, and
two points coincide exactly when `cong_equivalent` finds a witness.  The sign
selects the half-plane: + is the root (-b + sqrt(D))/(2a) in the upper
half-plane, - its complex conjugate below the real axis.
"""

from __future__ import annotations

from .congruence import ClassIndex, CongKind, class_index, cong_equivalent
from .forms import SignedForm

CURVES = ("y1", "y")

_KIND_OF_CURVE = {"y1": CongKind.UPPER_UNIPOTENT, "y": CongKind.FULL_LEVEL}


def curve_kind(curve: str) -> CongKind:
    if curve not in _KIND_OF_CURVE:
        raise ValueError(f"curve must be one of {CURVES}, got {curve!r}")
    return _KIND_OF_CURVE[curve]


def point_json(f: SignedForm) -> dict:
    """The point at the root of f, tau = (num + sign*sqrt(disc))/den, and its form.

    num = -b, den = 2a and disc = D: den > 0 and den divides num^2 - disc = 4ac,
    so the value is exact and its Moebius images stay integral.
    """
    a, b, _ = f.form
    return {
        "tau": {"num": -b, "den": 2 * a, "disc": f.discriminant(), "half_plane": "upper" if f.sign == 1 else "lower"},
        "form": f.to_json(),
    }


def equivalent_points(f: SignedForm, g: SignedForm, n: int, curve: str) -> bool:
    """Whether the points of two signed forms coincide on the level-n curve ("y1" or "y")."""
    if f.discriminant() != g.discriminant():
        return False
    return cong_equivalent(f, g, n, curve_kind(curve)) is not None


def cm_class_set(d: int, n: int, curve: str) -> ClassIndex:
    """Every class of discriminant-d points on the signed level-n curve, one
    signed form per class, with exact lookup (`ClassIndex.locate`)."""
    return class_index(d, n, curve_kind(curve), signed=True)
