"""Closed-form matching counts and their recurrence/reflection identities.

Everything here is pure exact arithmetic on integer triples.  The six
product formulas phi(i, .) / psi(i, .) are total functions of Z^3: outside
the geometrically valid domain an exponent may go negative, in which case
values fall back to exact rationals and the factored form is flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import NamedTuple

import numpy as np

from .errors import CrossdimerError


class InvalidParams(CrossdimerError):
    pass


class HypothesisViolated(CrossdimerError):
    pass


class NonIntegerTau(CrossdimerError):
    pass


class NotInteger(CrossdimerError):
    pass


class FamilyParams(NamedTuple):
    a: int
    b: int
    c: int
    d: int
    e: int
    f: int
    perimeter: int
    case_tall: bool


def derive_params(a, b, c):
    """Validate (a, b, c) and attach the derived side lengths.

    d = 2b - a - 2c and e = 3b - 2a - 2c must be non-negative and b >= 2;
    f = |2a - 2b + c| closes the contour.
    """
    if a < 0 or b < 0 or c < 0:
        raise InvalidParams(f"negative parameter in {(a, b, c)}")
    if b < 2:
        raise InvalidParams(f"b={b} < 2")
    d = 2 * b - a - 2 * c
    e = 3 * b - 2 * a - 2 * c
    f = abs(2 * a - 2 * b + c)
    if d < 0:
        raise InvalidParams(f"d={d} < 0 for {(a, b, c)}")
    if e < 0:
        raise InvalidParams(f"e={e} < 0 for {(a, b, c)}")
    tall = a > c + d
    return FamilyParams(a, b, c, d, e, f, a + b + c + d + e + f, tall)


def g_fn(a, b, c):
    return (b - a) * (b - c) + (a - c) ** 2 // 3


def q_fn(a, b, c):
    return (a - b + c) ** 2 // 4


def alpha_fn(a, b, c):
    r = (3 * b + a - c) % 6
    return 1 + (r == 1) + 2 * (r == 5)


def beta_fn(a, b, c):
    r = (3 * b + a - c) % 6
    return 1 + 2 * (r == 1) + (r == 5)


def tau_fn(u, v):
    """Power of 3 contributed by the cut-off corner pieces.

    Cases follow the parities of the arguments themselves; each selected
    half is integral by construction of the case split.
    """
    ue, ve = u % 2 == 0, v % 2 == 0
    if ue and ve:
        val = u + v
    elif ue:
        val = u
    elif ve:
        val = v
    else:
        return 0
    if val % 2:
        raise NonIntegerTau(f"tau({u},{v}) selects a non-even half")
    return val // 2


@dataclass(frozen=True)
class FactoredCount:
    """A count in the shape prefactor * 2^x * 3^t * 5^y * 11^z."""

    prefactor: int
    exp2: int
    exp3: int = 0
    exp5: int = 0
    exp11: int = 0

    @property
    def has_negative(self):
        return min(self.exp2, self.exp3, self.exp5, self.exp11) < 0

    def value(self):
        """Exact value; an int unless some exponent is negative."""
        if not self.has_negative:
            return (self.prefactor * 2 ** self.exp2 * 3 ** self.exp3
                    * 5 ** self.exp5 * 11 ** self.exp11)
        v = Fraction(self.prefactor)
        for base, e in ((2, self.exp2), (3, self.exp3),
                        (5, self.exp5), (11, self.exp11)):
            v *= Fraction(base) ** e
        if v.denominator == 1:
            return int(v)
        return v

    def exponents(self):
        """The exponents of 2, 3, 5 and 11 of a count of int arrays, shape
        (4, ...), with the prefactor (1, 2 or 3) folded into the first two."""
        p = np.asarray(self.prefactor)
        if not np.isin(p, (1, 2, 3)).all():
            raise ValueError(f"prefactor outside 1, 2, 3 in {self}")
        return np.array(np.broadcast_arrays(
            self.exp2 + (p == 2), self.exp3 + (p == 3), self.exp5, self.exp11))

    def as_dict(self):
        return {"prefactor": self.prefactor, "2": self.exp2, "3": self.exp3,
                "5": self.exp5, "11": self.exp11,
                "value": str(self.value())}


def phi(i, a, b, c):
    """Closed form for the matching count of the i-th A-family graph."""
    al = alpha_fn(a, b, c)
    e5 = g_fn(a, b, c)
    e11 = q_fn(a, b, c)
    if i == 1:
        e2 = g_fn(a, b, c + 1)
    elif i == 2:
        e2 = g_fn(a, b, c - 1) - (a - c + 1) // 3 + (a - b)
    elif i == 3:
        e2 = g_fn(a, b, c - 1) - (a - c + 1) // 3
    else:
        raise ValueError(f"family index {i} not in 1..3")
    return FactoredCount(al, e2, 0, e5, e11)


def psi(i, a, b, c):
    """Closed form for the matching count of the i-th F-family graph."""
    be = beta_fn(a, b, c)
    e5 = g_fn(a, b, c)
    e11 = q_fn(a, b, c)
    if i == 1:
        e2 = g_fn(a, b, c - 1)
    elif i == 2:
        e2 = g_fn(a, b, c + 1) + (a - c + 1) // 3 - (a - b)
    elif i == 3:
        e2 = g_fn(a, b, c + 1) + (a - c + 1) // 3
    else:
        raise ValueError(f"family index {i} not in 1..3")
    return FactoredCount(be, e2, 0, e5, e11)


def phi_value(i, a, b, c):
    return phi(i, a, b, c).value()


def psi_value(i, a, b, c):
    return psi(i, a, b, c).value()


# -- theorem right-hand sides -------------------------------------------------

def trim_rect_triple(m, n, h1, h2, variant):
    """The family triple that the trimmed-rectangle theorem maps (m, n, h1,
    h2) onto, as calibration resolved it: the triple of the source's
    statement for the even rectangles (variant TA), and that triple
    shifted by one for the odd, west-anchored ones (TB)."""
    s1 = (h1 + 1) // 2
    shift = 1 if variant == "TA" else 0
    return (m - s1 + shift, n - s1 + shift, (h2 + 1) // 2)


def check_trim_constraint(m, n, h1, h2):
    if (h1 + 1) // 2 + (h2 + 1) // 2 != 2 * (n - m):
        raise HypothesisViolated(
            f"floor((h1+1)/2)+floor((h2+1)/2) != 2(n-m) for {(m, n, h1, h2)}")


def thm_TR(a, b):
    """Count for the trimmed augmented rectangle: 10^(2a^2) 11^(a^2//2)."""
    if a < 1 or b < 2 * a:
        raise HypothesisViolated(f"need a >= 1 and b >= 2a, got {(a, b)}")
    return FactoredCount(1, 2 * a * a, 0, 2 * a * a, a * a // 2)


def thm_TA(m, n, h1, h2):
    check_trim_constraint(m, n, h1, h2)
    a, b, c = trim_rect_triple(m, n, h1, h2, "TA")
    return FactoredCount(alpha_fn(a, b, c), g_fn(a, b, c + 1),
                         tau_fn(h1, h2), g_fn(a, b, c), q_fn(a, b, c))


def thm_TB(m, n, h1, h2):
    check_trim_constraint(m, n, h1, h2)
    a, b, c = trim_rect_triple(m, n, h1, h2, "TB")
    return FactoredCount(beta_fn(a, b, c), g_fn(a, b, c - 1),
                         tau_fn(h1 + 1, h2 + 1), g_fn(a, b, c), q_fn(a, b, c))


# -- recurrences ---------------------------------------------------------------

ID3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
C0 = ((1, 0, 0), (0, 1, 0), (0, 0, 0))      # (a, b, 0)
SWAP = ((0, 0, 1), (0, 1, 0), (1, 0, 0))    # (c, b, a)
FOLD = ((-2, 3, 0), (-1, 2, 0), (0, 0, 0))  # (3b - 2a, 2b - a, 0)

# Each recurrence lhs = rhs1 + rhs2 as its three sides, each the product of
# two terms (f, lin, shift): the star (f = 0) or the diamond (f = 1) at
# lin (a, b, c) + shift.
RECURRENCES = {
    "R1": (((0, ID3, (0, 0, 0)), (0, ID3, (-3, -3, -2))),
           ((0, ID3, (-2, -1, 0)), (0, ID3, (-1, -2, -2))),
           ((0, ID3, (-1, -1, -1)), (0, ID3, (-2, -2, -1)))),
    "R2": (((0, ID3, (0, 0, 0)), (0, ID3, (-2, -2, 0))),
           ((0, ID3, (-1, -1, 0)), (0, ID3, (-1, -1, 0))),
           ((0, ID3, (0, 0, 1)), (0, ID3, (-2, -2, -1)))),
    "R3": (((0, C0, (0, 0, 0)), (0, C0, (-2, -2, 0))),
           ((0, C0, (-1, -1, 0)), (0, C0, (-1, -1, 0))),
           ((0, C0, (0, 0, 1)), (0, FOLD, (0, 0, 1)))),
    "R4": (((0, ID3, (0, 0, 0)), (0, ID3, (-2, -3, -2))),
           ((0, ID3, (-1, -1, 0)), (0, ID3, (-1, -2, -2))),
           ((0, ID3, (-2, -2, -1)), (0, ID3, (0, -1, -1)))),
    "R5": (((0, ID3, (0, 0, 0)), (0, ID3, (-2, -3, -2))),
           ((1, SWAP, (0, -1, -1)), (0, ID3, (-1, -2, -2))),
           ((0, ID3, (-2, -2, -1)), (0, ID3, (0, -1, -1)))),
    "R6": (((0, C0, (0, 0, 0)), (0, C0, (-2, -2, 0))),
           ((0, C0, (-1, -1, 0)), (0, C0, (-1, -1, 0))),
           ((0, C0, (0, 0, 1)), (1, FOLD, (0, 0, 1)))),
}


def _args(lin, shift, a, b, c):
    return tuple(sum(x * v for x, v in zip(row, (a, b, c)) if x) + k
                 for row, k in zip(lin, shift))


def _sides(r, star, diamond):
    if r not in RECURRENCES:
        raise ValueError(f"unknown recurrence {r!r}")
    if diamond is None and any(f for side in RECURRENCES[r] for f, *_ in side):
        raise ValueError(f"{r} needs a (star, diamond) pair")
    return RECURRENCES[r], (star, diamond)


def recurrence_check(r, star, diamond=None, a=0, b=0, c=0):
    """Evaluate one recurrence at (a, b, c) exactly.

    star/diamond are total functions Z^3 -> exact numbers.  R5 and R6 take
    the pair; checking the mirrored second identity is done by swapping the
    arguments at the call site.
    """
    sides, fns = _sides(r, star, diamond)
    lhs, rhs1, rhs2 = (prod(fns[f](*_args(lin, k, a, b, c))
                            for f, lin, k in side) for side in sides)
    return {"lhs": lhs, "rhs": rhs1 + rhs2, "equal": lhs == rhs1 + rhs2}


def exponent_table(f, i, lo, hi):
    """f(i, ., ., .) tabulated on the cube [lo, hi]^3, as a function
    term(lin, shift, box) of its exponents (FactoredCount.exponents) at lin
    p + shift for each point p of the box ((a0, a1), (b0, b1), (c0, c1)).
    A translation (lin ID3, or C0 with c at one value) within the cube is
    a slice of the table; any other term is evaluated."""
    n = hi - lo + 1
    tab = f(i, *np.indices((n, n, n)) + lo).exponents()

    def term(lin, shift, box):
        cut = [slice(k - lo + p0 * row[j], k - lo + p1 * row[j] + 1)
               for j, (row, k, (p0, p1)) in enumerate(zip(lin, shift, box))]
        if lin in (ID3, C0) and all(0 <= s.start and s.stop <= n
                                    for s in cut):
            return tab[(slice(None), *cut)]
        p = np.ogrid[tuple(slice(p0, p1 + 1) for p0, p1 in box)]
        return f(i, *_args(lin, shift, *p)).exponents()
    return term


def recurrence_holds(r, star, diamond, box):
    """Whether recurrence r holds exactly at each point of the box, as a
    bool array; star and diamond are term functions of exponent_table.

    The sides are divided by their common minimum power of each prime.  A
    side then fits an int64 where 2^x 3^y 5^z 11^w < 2^(x + 2y + 3z + 4w)
    <= 2^61; the rare points where that fails are compared in Python ints.
    """
    sides, fns = _sides(r, star, diamond)
    e = np.array(np.broadcast_arrays(*(
        sum(fns[f](lin, k, box) for f, lin, k in side) for side in sides)))
    e = (e - e.min(0)).reshape(3, 4, -1)
    fits = (e * [[1], [2], [3], [4]]).sum(1).max(0) <= 61
    v = (np.array([[2], [3], [5], [11]]) ** np.minimum(e, 61)).prod(1)
    holds = fits & (v[0] == v[1] + v[2])
    for j in np.flatnonzero(~fits).tolist():
        lhs, rhs1, rhs2 = (prod(p ** x for p, x in zip((2, 3, 5, 11), side))
                           for side in e[:, :, j].tolist())
        holds[j] = lhs == rhs1 + rhs2
    return holds.reshape([p1 - p0 + 1 for p0, p1 in box])


def reflection_check(kind, i, a, b, c):
    """Exact equality of a formula pair under one of the mirror identities
    of the family graphs on the valid triple (a, b, c)."""
    p = derive_params(a, b, c)
    if kind == "vertical":
        return (phi_value(i, a, b, c) == psi_value(4 - i, p.f, p.e, p.d)
                and psi_value(i, a, b, c) == phi_value(4 - i, p.f, p.e, p.d))
    if kind == "horizontal":
        j = {1: 1, 2: 3, 3: 2}[i]
        return (phi_value(i, a, b, c) == phi_value(j, b, a, p.f)
                and psi_value(i, a, b, c) == psi_value(j, b, a, p.f))
    if kind == "switch":
        return (psi_value(i, a - 1, b - 1, c)
                == phi_value(4 - i, c, b - 1, a - 1)
                and phi_value(i, a - 1, b - 1, c)
                == psi_value(4 - i, c, b - 1, a - 1))
    raise ValueError(f"unknown reflection kind {kind!r}")


# -- factorization over the conjectured prime basis ---------------------------


def factor_small(n):
    """Split n into 2^a 3^b 5^c 11^d * cofactor.

    Only 2, 3, 5 and 11 are divided out: any factor of 7 (or anything
    else below or above 13) is deliberately left in the cofactor so the
    small-prime claim is checked honestly.
    """
    if isinstance(n, Fraction):
        if n.denominator != 1:
            raise NotInteger(f"{n} is not an integer")
        n = int(n)
    if n <= 0 or n != int(n):
        raise NotInteger(f"{n} is not a positive integer")
    n = int(n)
    out = {}
    for p in (2, 3, 5, 11):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out[f"exp{p}"] = e
    out["cofactor"] = n
    return out


# -- weighted prefactors -------------------------------------------------------


def alpha_w(a, b, c, w):
    """The weighted alpha prefactor at the integer point w, as (num, den)."""
    x, y, z = w
    r = (3 * b + a - c) % 6
    if r == 5:
        return (x + 2 * y * z) * y * z, x * x
    if r == 3:
        return y * z, x
    if r == 1:
        return x + y * z, x
    return 1, 1


def beta_w(a, b, c, w):
    """The weighted beta prefactor at the integer point w, as (num, den)."""
    x, y, z = w
    r = (3 * b + a - c) % 6
    if r == 1:
        return x + 2 * y * z, y * z
    if r == 3:
        return x, y * z
    if r == 5:
        return (x + y * z) * x, y * y * z * z
    return 1, 1
