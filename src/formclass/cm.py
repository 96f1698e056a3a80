"""CM points on the signed modular curves, as exact data.

A point is the signed form whose root it is — never a floating complex
number, and no second object: `point_json` writes its value from the
coefficients.  The sign selects the half-plane: + is the root
(-b + sqrt(D))/(2a) in the upper half-plane, - its complex conjugate below
the real axis.  The group action never moves it, so the classes of points on
the level-N curve are the form classes of `congruence`, each taken with both
signs (`cm_class_set`).  `equivalent_points` is the one place that compares
signs: two points coincide when their signs agree and `cong_equivalent`
finds a witness between their forms.
"""

from __future__ import annotations

from .congruence import CongKind, cong_equivalent, unsigned_class_reps
from .forms import SignedForm, is_member

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
    """Whether the points of two signed forms coincide on the level-n curve
    ("y1" or "y"); different discriminants or signs skip the witness search,
    and a form that is no member at n is refused whatever the signs."""
    if f.discriminant() != g.discriminant():
        return False
    if not all(is_member(x.form, x.discriminant(), n) for x in (f, g)):
        raise ValueError(f"forms must have leading coefficient prime to {n}")
    return f.sign == g.sign and cong_equivalent(f.form, g.form, n, curve_kind(curve)) is not None


def cm_class_set(d: int, n: int, curve: str) -> tuple[SignedForm, ...]:
    """One point per class of discriminant-d points on the signed level-n
    curve: the class representatives of `congruence` with the sign +1, then
    the same representatives with the sign -1."""
    reps = unsigned_class_reps(d, n, curve_kind(curve))
    return tuple(SignedForm(q, sign) for sign in (1, -1) for q in reps)
