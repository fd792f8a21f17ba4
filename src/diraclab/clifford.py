"""Real Clifford algebra with generators that square to -1.

Basis blades are encoded as bitmasks: bit i set means generator e_{i+1} is
present, and a blade's generators are always kept in increasing index order.
The empty mask is the scalar unit. Products carry a sign from reordering
generators into canonical order plus a factor -1 for every repeated generator.
"""

from __future__ import annotations

from typing import Mapping

from .errors import InvalidArgumentError, _integer

__all__ = ["Multivector", "mv_mul"]


def _reorder_sign(a: int, b: int) -> int:
    """Sign from moving the generators of mask b past those of mask a.

    Counts, for every generator in a, how many generators of b it must jump
    over to reach canonical (increasing) order in the concatenation a then b.
    """
    count = 0
    a >>= 1
    while a:
        count += (a & b).bit_count()
        a >>= 1
    return -1 if count % 2 else 1


class Multivector:
    """A finite real combination of basis blades, stored sparsely by mask."""

    __slots__ = ("d", "coeffs")

    def __init__(self, d: int, coeffs: Mapping[int, float] | None = None):
        self.d = d = _integer("number of generators d", d, 1)
        self.coeffs: dict[int, float] = {}
        if coeffs:
            for mask, c in coeffs.items():
                mask = _integer("blade mask", mask, 0, 1 << d)
                if c != 0.0:
                    self.coeffs[mask] = float(c)

    @classmethod
    def scalar(cls, d: int, value: float) -> "Multivector":
        return cls(d, {0: value})

    @classmethod
    def basis_vector(cls, d: int, j: int) -> "Multivector":
        """The generator e_j, 1-based."""
        j = _integer("generator index", j, 1, d + 1)
        return cls(d, {1 << (j - 1): 1.0})

    def component(self, mask: int) -> float:
        return self.coeffs.get(mask, 0.0)

    def norm(self) -> float:
        """Euclidean norm of the coefficient vector."""
        return sum(c * c for c in self.coeffs.values()) ** 0.5

    def _check_same(self, other: "Multivector"):
        if not isinstance(other, Multivector):
            raise InvalidArgumentError(f"expected Multivector, got {type(other)!r}")
        if self.d != other.d:
            raise InvalidArgumentError(
                f"multivector dimensions differ: {self.d} vs {other.d}"
            )

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check_same(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0.0) + c
        return Multivector(self.d, out)

    def __sub__(self, other: "Multivector") -> "Multivector":
        self._check_same(other)
        return self + -other

    def __neg__(self) -> "Multivector":
        return Multivector(self.d, {m: -c for m, c in self.coeffs.items()})

    def scale(self, value: float) -> "Multivector":
        return Multivector(self.d, {m: value * c for m, c in self.coeffs.items()})

    def __mul__(self, other: "Multivector") -> "Multivector":
        return mv_mul(self, other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Multivector)
            and self.d == other.d
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"Multivector(d={self.d}, 0)"
        parts = []
        for m in sorted(self.coeffs):
            gens = "".join(f"e{i + 1}" for i in range(self.d) if m >> i & 1) or "1"
            parts.append(f"{self.coeffs[m]!r}*{gens}")
        return f"Multivector(d={self.d}, {' + '.join(parts)})"


def mv_mul(x: Multivector, y: Multivector) -> Multivector:
    """Bilinear extension of the blade product."""
    x._check_same(y)
    out: dict[int, float] = {}
    for ma, ca in x.coeffs.items():
        for mb, cb in y.coeffs.items():
            sign = _reorder_sign(ma, mb)
            if (ma & mb).bit_count() % 2:
                sign = -sign
            m = ma ^ mb
            out[m] = out.get(m, 0.0) + sign * ca * cb
    return Multivector(x.d, out)
