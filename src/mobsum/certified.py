"""Certified floating-point arithmetic: doubles paired with absolute error bounds.

A :class:`CertifiedFloat` carries a computed double ``value`` together with a
sound absolute bound ``err``, so that the true mathematical quantity is
guaranteed to lie in ``[value - err, value + err]``.

Error model
-----------
The floor-quotient run sums of ``mobsum.summatory`` (h, the tail and the
rearranged h - 1, per x by ``np.add.reduceat``) and F(p, x) add with a
summation tree they do not fix (NumPy's pairwise sums), and publish the
cheap worst-case estimate

    err <= (number of float additions) * EPS * (sum of |terms|) + input errors

where EPS is the double-precision machine epsilon (2^-52).  This bound is
valid for *any* summation order and dominates the true error by orders of
magnitude.

The prefix lanes of ``mobsum.summatory.SummatoryTables`` (g, f, theta, H, h
and the tail) add strictly left to right with ``np.cumsum``, which a test
checks, so they publish Wilkinson's running bound instead: under
round-to-nearest an add whose result is s errs by at most u * |s|, with
u = EPS/2, so a prefix value is charged u times the sum of the |partial
sums| before it, plus its input errors (see ``_prefix_with_err``).  The
scalars ``g_float``, ``f_value``, ``theta`` and ``harmonic`` stream the same
kernel block by block and return the lane's entry bit for bit.

Per-term input errors account for inexact term construction: platform
logarithms are assumed correct to 1 ulp and are charged 2 ulp each; a
division is charged 1 ulp unless it is exact.

A sum of zero or one terms involves no float addition, so its rounding error
is exactly zero; only input errors survive.  This keeps trivially exact
quantities (empty sums, single exact terms) certified at +/- 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

EPS = 2.0 ** -52

# Correctly rounded double of the Euler-Mascheroni constant
# 0.57721566490153286060651209008240243...; cross-checked at test time
# against the harmonic-minus-log limit, Euler-Maclaurin accelerated.
EULER_GAMMA = 0.5772156649015329

# Relative headroom absorbing second-order effects (rounding of the error
# accounting itself; sound up to ~10^8 accumulated operations, and for the
# prefix lanes up to blocks of 2^28 terms, ``summatory.MAX_PREFIX_BLOCK``).
# Keeps exact zeros exactly zero.
_HEADROOM = 1.0 + 2.0 ** -24


@dataclass(frozen=True)
class CertifiedFloat:
    """A double plus a sound absolute error bound."""

    value: float
    err: float

    def __post_init__(self) -> None:
        if self.err < 0.0 or math.isnan(self.err):
            raise ValueError(f"error bound must be non-negative, got {self.err}")

    def __neg__(self) -> "CertifiedFloat":
        return CertifiedFloat(-self.value, self.err)

    def add(self, other: "CertifiedFloat") -> "CertifiedFloat":
        v = self.value + other.value
        return CertifiedFloat(v, (self.err + other.err + EPS * abs(v)) * _HEADROOM)

    def add_exact(self, c: float) -> "CertifiedFloat":
        """Add an exactly representable constant (e.g. an integer, 1.0)."""
        v = self.value + c
        return CertifiedFloat(v, (self.err + EPS * abs(v)) * _HEADROOM)

    def mul(self, other: "CertifiedFloat") -> "CertifiedFloat":
        v = self.value * other.value
        e = (
            abs(self.value) * other.err
            + abs(other.value) * self.err
            + self.err * other.err
            + EPS * abs(v)
        )
        return CertifiedFloat(v, e * _HEADROOM)

    def div_exact(self, d: float) -> "CertifiedFloat":
        """Divide by an exactly representable nonzero constant."""
        v = self.value / d
        return CertifiedFloat(v, (self.err / abs(d) + EPS * abs(v)) * _HEADROOM)


ZERO = CertifiedFloat(0.0, 0.0)


def from_exact(q) -> CertifiedFloat:
    """Certify an exact number (int or Fraction) as its nearest double.

    ``float(Fraction)`` and int->float conversion are correctly rounded, so
    the conversion error is at most half an ulp.
    """
    v = float(q)
    if v == q:
        return CertifiedFloat(v, 0.0)
    return CertifiedFloat(v, EPS * abs(v))
