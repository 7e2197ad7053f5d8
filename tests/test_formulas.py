import pytest
from fractions import Fraction
from itertools import product
from math import prod
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from crossdimer import formulas
from crossdimer.formulas import (
    RECURRENCES, FactoredCount, HypothesisViolated, NotInteger, alpha_fn,
    alpha_w, beta_fn, beta_w, exponent_table, factor_small, g_fn, phi,
    phi_value, psi, psi_value, q_fn, recurrence_check, recurrence_holds,
    reflection_check, tau_fn, thm_TA, thm_TB, thm_TR,
)


def test_g_q_examples():
    assert g_fn(9, 8, 2) == 10
    assert g_fn(9, 8, 3) == 7
    for a, b, c in ((4, 4, 3), (7, 3, -3), (2, 5, 3)):
        if a - b + c in (-1, 0, 1):
            assert q_fn(a, b, c) == 0
    assert q_fn(9, 8, 2) == 2


def test_alpha_beta_cases():
    assert alpha_fn(9, 8, 2) == 2 and beta_fn(9, 8, 2) == 3
    assert alpha_fn(5, 8, 4) == 2 and beta_fn(5, 8, 4) == 3
    assert alpha_fn(2, 2, 0) == 1 and beta_fn(2, 2, 0) == 1
    for a in range(10):
        for b in range(10):
            for c in range(10):
                al, be = alpha_fn(a, b, c), beta_fn(a, b, c)
                assert al * be in (1, 6)
                assert (al, be) in ((1, 1), (2, 3), (3, 2))


def test_tau_examples():
    assert tau_fn(4, 3) == 2
    assert tau_fn(1, 1) == 0
    assert tau_fn(2, 2) == 2
    assert tau_fn(1, 4) == 2


def test_phi_psi_examples():
    assert phi_value(1, 9, 8, 2) == 302_500_000_000
    assert psi_value(1, 5, 8, 4) == 48_000_000_000_000


def test_factored_count_value_matches_fractions():
    # ints when no exponent is negative, Fractions otherwise; same values
    for args in product((1, -3), (0, 5, -1), (0, 2), (0, -2), (0, 1)):
        fc = FactoredCount(*args)
        want = args[0] * prod(Fraction(b) ** e
                              for b, e in zip((2, 3, 5, 11), args[1:]))
        assert fc.value() == want
        if not fc.has_negative:
            assert type(fc.value()) is int


def test_factored_count_negative_exponent():
    fc = phi(2, 0, 2, 0)
    if fc.has_negative:
        assert isinstance(fc.value(), Fraction)
    v = FactoredCount(1, -1).value()
    assert v == Fraction(1, 2)


def test_thm_tr_values():
    assert thm_TR(1, 2).value() == thm_TR(1, 9).value() == 100
    assert thm_TR(2, 4).value() == 10 ** 8 * 11 ** 2
    with pytest.raises(HypothesisViolated):
        thm_TR(2, 3)


def test_thm_ta_tb():
    fc = thm_TA(5, 7, 4, 3)
    assert fc.value() == 1_125_000_000
    fac = factor_small(fc.value())
    assert fac["cofactor"] == 1
    assert factor_small(thm_TB(5, 7, 4, 3).value())["cofactor"] == 1
    with pytest.raises(HypothesisViolated):
        thm_TA(5, 7, 1, 1)


def test_recurrences_small_box():
    fns = [lambda a, b, c, i=i: phi(i, a, b, c).value() for i in (1, 2, 3)]
    fns += [lambda a, b, c, i=i: psi(i, a, b, c).value() for i in (1, 2, 3)]
    for r in ("R1", "R2", "R4"):
        for fn in fns:
            for a in range(0, 9, 2):
                for b in range(0, 9, 2):
                    for c in range(0, 9, 2):
                        assert recurrence_check(r, fn, None, a, b, c)["equal"]


def test_recurrence_r3_r6():
    phi1 = lambda a, b, c: phi(1, a, b, c).value()
    psi1 = lambda a, b, c: psi(1, a, b, c).value()
    for a in range(0, 10):
        for b in range(0, 10):
            assert recurrence_check("R3", phi1, None, a, b, 0)["equal"]
            assert recurrence_check("R3", psi1, None, a, b, 0)["equal"]
    phi2 = lambda a, b, c: phi(2, a, b, c).value()
    phi3 = lambda a, b, c: phi(3, a, b, c).value()
    for a in range(0, 8):
        for b in range(0, 8):
            assert recurrence_check("R6", phi2, phi3, a, b, 0)["equal"]
            assert recurrence_check("R6", phi3, phi2, a, b, 0)["equal"]


def test_recurrence_r5_pairing():
    for i in (1, 2, 3):
        s = lambda a, b, c, i=i: phi(i, a, b, c).value()
        d = lambda a, b, c, i=i: psi(4 - i, a, b, c).value()
        assert recurrence_check("R5", s, d, 9, 8, 2)["equal"]
        assert recurrence_check("R5", d, s, 9, 8, 2)["equal"]


def test_recurrence_requires_pair():
    with pytest.raises(ValueError):
        recurrence_check("R5", lambda *t: 1, None, 1, 1, 1)


def test_exponents_fold_the_prefactor():
    fc = FactoredCount(np.array([1, 2, 3]), np.array([0, 1, -2]), 0, 5, 0)
    assert fc.exponents().tolist() == [[0, 2, -2], [0, 0, 1], [5, 5, 5],
                                       [0, 0, 0]]
    with pytest.raises(ValueError, match="prefactor"):
        FactoredCount(np.array([1, 4]), 0).exponents()


def _mutant_g(a, b, c):
    """g_fn with // 4 for // 3, under which the recurrences fail."""
    return (b - a) * (b - c) + (a - c) ** 2 // 4


CLOSED_FORMS = [(f, i) for f in (phi, psi) for i in (1, 2, 3)]


# Coordinates up to 100: the scalar reference computes every value in
# full, and at 10^3 a single power 5^g takes half a second or more.
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(RECURRENCES)), st.sampled_from(CLOSED_FORMS),
       st.sampled_from(CLOSED_FORMS),
       st.tuples(*[st.integers(-100, 100)] * 3))
@example("R3", (phi, 1), (phi, 1), (0, 6, 0))
def test_recurrence_holds_matches_recurrence_check(r, star, diamond, point):
    # under the mutant the identities fail, and far from the origin the
    # sides exceed an int64 and are compared in Python ints
    with mock.patch.object(formulas, "g_fn", _mutant_g):
        want = recurrence_check(r, *(
            lambda *t, f=f, i=i: f(i, *t).value() for f, i in (star, diamond)),
            *point)["equal"]
        got = recurrence_holds(r, *(
            exponent_table(f, i, 0, 0) for f, i in (star, diamond)),
            tuple((x, x) for x in point))
    assert got.shape == (1, 1, 1) and got.item() == want


def test_recurrence_holds_decides_big_sides_in_python_ints(monkeypatch):
    # math.prod serves only the Python-int comparison of recurrence_holds
    monkeypatch.setattr(formulas, "g_fn", _mutant_g)
    phi1, table = lambda *t: phi(1, *t).value(), exponent_table(phi, 1, 0, 0)
    for (a, b), big in (((-30, -30), False), ((0, 6), True)):
        assert not recurrence_check("R3", phi1, None, a, b, 0)["equal"]
        sides = []
        with mock.patch.object(formulas, "prod",
                               lambda xs: sides.append(prod(xs)) or sides[-1]):
            box = ((a, a), (b, b), (0, 0))
            assert not recurrence_holds("R3", table, None, box).item()
        assert len(sides) == (3 if big else 0)
        assert not big or max(sides).bit_length() > 62


def test_reflection_examples():
    assert reflection_check("vertical", 1, 5, 8, 4)
    assert reflection_check("horizontal", 2, 9, 8, 2)
    assert reflection_check("switch", 2, 5, 8, 4)
    flat = ((2, 2, 0), (3, 4, 2), (5, 8, 4), (1, 2, 1))
    tall = ((9, 8, 2), (3, 2, 0), (2, 2, 1))
    for i in (1, 2, 3):
        for t in flat:
            assert reflection_check("vertical", i, *t), ("vertical", i, t)
        for t in tall:
            assert reflection_check("horizontal", i, *t), ("horizontal", i, t)
        for t in flat + tall:
            assert reflection_check("switch", i, *t), ("switch", i, t)


def test_phi1_shift_identity():
    for a in range(0, 12):
        for b in range(0, 12):
            assert phi_value(1, a - 2, b - 2, -1) \
                == phi_value(1, 3 * b - 2 * a, 2 * b - a, 1)


def test_factor_small():
    f = factor_small(12_100_000_000)
    assert (f["exp2"], f["exp5"], f["exp11"], f["cofactor"]) == (8, 8, 2, 1)
    f = factor_small(1)
    assert f["cofactor"] == 1 and f["exp2"] == 0
    f = factor_small(98)
    assert f["exp2"] == 1 and f["cofactor"] == 49
    with pytest.raises(NotInteger):
        factor_small(Fraction(1, 2))
    with pytest.raises(NotInteger):
        factor_small(0)


def test_weighted_prefactors_unit_point():
    for a in range(8):
        for b in range(8):
            for c in range(8):
                assert alpha_w(a, b, c, (1, 1, 1)) == alpha_fn(a, b, c)
                assert beta_w(a, b, c, (1, 1, 1)) == beta_fn(a, b, c)


def test_weighted_prefactor_forms():
    # residue 1 (mod 6): alpha_w = (x + yz)/x, beta_w = (x + 2yz)/yz
    a, b, c = 9, 8, 2
    assert (3 * b + a - c) % 6 == 1
    x, y, z = Fraction(2), Fraction(3), Fraction(5)
    assert alpha_w(a, b, c, (x, y, z)) == (x + y * z) / x
    assert beta_w(a, b, c, (x, y, z)) == (x + 2 * y * z) / (y * z)
