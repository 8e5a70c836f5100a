import pytest

from mobsum.certified import EPS, EULER_GAMMA, CertifiedFloat, from_exact


def test_negative_err_rejected():
    with pytest.raises(ValueError):
        CertifiedFloat(1.0, -1e-20)


def test_interval_arithmetic():
    a = CertifiedFloat(1.0, 0.25)
    b = CertifiedFloat(2.0, 0.5)
    s = a.add(b)
    assert s.value == 3.0 and s.err >= 0.75
    p = a.mul(b)
    assert p.value == 2.0
    assert p.err >= 1.0 * 0.5 + 2.0 * 0.25
    d = b.div_exact(4.0)
    assert d.value == 0.5 and d.err >= 0.125


def test_from_exact_is_tight():
    from fractions import Fraction

    assert from_exact(Fraction(1, 2)) == CertifiedFloat(0.5, 0.0)
    third = from_exact(Fraction(1, 3))
    assert abs(third.value - 1 / 3) == 0.0
    assert 0 < third.err <= EPS


def test_gamma_constant_digits():
    # correctly rounded double of 0.57721566490153286060...
    assert EULER_GAMMA == 0.5772156649015329
