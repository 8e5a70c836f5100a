"""Certified floating-point arithmetic: doubles paired with absolute error bounds.

A :class:`CertifiedFloat` carries a computed double ``value`` together with a
sound absolute bound ``err``, so that the true mathematical quantity is
guaranteed to lie in ``[value - err, value + err]``.

Error model
-----------
The prefix lanes of ``mobsum.summatory.SummatoryTables`` (g, f, theta, H,
h, the tail, E, P and T) compute the rounding error of their sums instead
of bounding it.  ``np.cumsum`` adds strictly left to right, which a test
checks, and Knuth's TwoSum gives the exact error of each of its adds under
round-to-nearest.  A prefix is therefore published with the bound |D| + E:
D is the float sum of those signed errors, together with the signed
residuals that some terms carry (1/k in g and H, ``_reciprocals``), and E is
the sum of the terms' input errors plus a charge for D's own rounding
(``_prefix_step``).  The scalars ``g_float``, ``f_value``, ``theta`` and
``harmonic`` stream the same kernel block by block and return the lane's
entry bit for bit.  The g recursion sums each of its table parts T_k the
same way (``summatory._corrected_sum``).

The floor-quotient run sums of ``mobsum.summatory`` (h, the tail and the
rearranged h - 1, per x by ``np.add.reduceat``) and F(p, x) add with a
summation tree they do not fix (NumPy's pairwise sums).  They publish the
cheap worst-case estimate

    err <= (number of float additions) * EPS * (sum of |terms|) + input errors

where EPS is the double-precision machine epsilon (2^-52).  This bound is
valid for *any* summation order and dominates the true error by orders of
magnitude.

Per-term input errors account for inexact term construction: platform
logarithms are assumed correct to 1 ulp and are charged 2 ulp each; a
division is charged 1 ulp unless it is exact or its exact residual is
carried.  All of this assumes round-to-nearest double arithmetic without
overflow or underflow.

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
# accounting itself; sound up to ~10^8 accumulated operations).  In the
# prefix kernel it covers the float sum of the magnitudes, within 2^-25 (1 +
# 2^-24) of itself for blocks up to 2^28 terms (``summatory.MAX_PREFIX_BLOCK``),
# and the rounding of the last add and of a carry add.  Keeps exact zeros
# exactly zero.
_HEADROOM = 1.0 + 2.0 ** -24


@dataclass(frozen=True)
class CertifiedFloat:
    """A double plus a sound absolute error bound."""

    value: float
    err: float

    def __post_init__(self) -> None:
        if self.err < 0.0 or math.isnan(self.err):
            raise ValueError(f"error bound must be non-negative, got {self.err}")

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
