"""CM points on the signed modular curves, as exact data.

A point is stored as the signed form whose root it is — never as a floating
complex number — so the dictionary between classes of forms and classes of
points is a by-construction bijection and every claim about it is tested
through the exact equivalence predicates.  The sign selects the half-plane:
+ is the root (-b + sqrt(D))/(2a) in the upper half-plane, - its complex
conjugate below the real axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .congruence import CongKind, class_index, cong_equivalent
from .forms import QuadIrrational, SignedForm

CURVES = ("y1", "y")

_KIND_OF_CURVE = {"y1": CongKind.UPPER_UNIPOTENT, "y": CongKind.FULL_LEVEL}


def curve_kind(curve: str) -> CongKind:
    if curve not in _KIND_OF_CURVE:
        raise ValueError(f"curve must be one of {CURVES}, got {curve!r}")
    return _KIND_OF_CURVE[curve]


@dataclass(frozen=True)
class CMPoint:
    """An exact CM point, carried by the signed form it is a root of."""

    carrier: SignedForm

    @property
    def disc(self) -> int:
        """The point's own discriminant: that of the primitive form vanishing at it."""
        return self.carrier.discriminant()

    def tau(self) -> QuadIrrational:
        return self.carrier.root()

    def primitive_mod(self, n: int) -> bool:
        return math.gcd(self.carrier.form.a, n) == 1

    def to_json(self) -> dict:
        t = self.tau()
        return {
            "tau": {
                "num": t.num,
                "den": t.den,
                "disc": t.disc,
                "half_plane": "upper" if t.in_upper_half_plane() else "lower",
            },
            "form": self.carrier.to_json(),
        }


def class_of_point(p: CMPoint, n: int) -> SignedForm:
    """The signed form class of a point on a level-n curve; `CMPoint(f)` is the
    point of the class of f, read on representatives.

    ValueError if the point is not primitive mod n (it lies on no level-n
    curve in this family).
    """
    if not p.primitive_mod(n):
        raise ValueError(f"point of discriminant {p.disc} is not primitive mod {n}")
    return p.carrier


def equivalent_points(p: CMPoint, q: CMPoint, n: int, curve: str) -> bool:
    """Whether two points coincide on the level-n curve ("y1" or "y")."""
    if p.disc != q.disc:
        return False
    return cong_equivalent(p.carrier, q.carrier, n, curve_kind(curve)) is not None


@dataclass(frozen=True)
class CMClassSet:
    """One representative point per class of the level-n curve at a discriminant."""

    disc: int
    level: int
    curve: str
    classes: tuple[CMPoint, ...]

    def locate(self, p: CMPoint) -> int:
        """Index of the class of p; ValueError if p is not primitive mod the level."""
        if p.disc != self.disc:
            raise LookupError(f"point has discriminant {p.disc}, set has {self.disc}")
        idx = class_index(self.disc, self.level, curve_kind(self.curve), signed=True)
        return idx.locate(class_of_point(p, self.level))


def cm_class_set(d: int, n: int, curve: str) -> CMClassSet:
    """Every class of discriminant-d points on the signed level-n curve."""
    reps = class_index(d, n, curve_kind(curve), signed=True).reps
    return CMClassSet(d, n, curve, tuple(CMPoint(f) for f in reps))
