"""Generic integer polynomial and matrix arithmetic, kept beside the
tests as independent oracles for ``srgddg.exact``: the package itself
certifies spectra from bit rows and never needs them."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, coefficients in ascending degree order."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = self.coeffs
        if len(c) > 1 and c[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def synthetic_div(self, root: int) -> tuple["IntPoly", int]:
        """Divide by (x - root); returns (quotient, remainder)."""
        out = []
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * root + c
            out.append(acc)
        rem = out.pop()
        out.reverse()
        if not out:
            out = [0]
        return IntPoly(tuple(out)), rem

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return IntPoly(tuple(out))


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Exact matrix product of nested lists of ints."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
