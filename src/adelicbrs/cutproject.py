"""Cut-and-project model for the box sets built in :mod:`.brs`.

The ambient space is a pair of adelic vectors (x, y).  The physical
line is E = {(x, -x*alpha)}, the internal line is F = {(0, y)}.
Selecting the lattice pairs (gamma1, gamma2) whose internal part
gamma2 + gamma1*alpha lands inside a window box reproduces, with
multiplicity, exactly the lift counts that the brs module computes for
the projected set.

The counting here deliberately takes a different route from the lift
counts of brs: the admissible coset's base point is the negated sum of
p-adic fractional parts, not a CRT solution, so the agreement of the two
is a meaningful end-to-end check rather than a tautology.  Only the real
edge shares a helper with brs, the exact floor that test_exact checks
against a bisection.  correspondence_check runs the window count against
the closed-form orbit kernel behind verify's discrepancy series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import brs
from .brs import AdelicBox, WeightedBoxSet
from .errors import FieldMismatch
from .exact import (RationalLike, _floor_a_plus_b_sqrt_d,
                    padic_fractional_part)
from .solenoid import AdeleVector, zero_point


def window_multiplicity(window: AdelicBox, alpha: AdeleVector,
                        gamma1: RationalLike) -> int:
    """Number of lattice rationals gamma2 with gamma2 + gamma1*alpha in
    the window box.

    The p-adic conditions say (gamma2 + w_p)/s is p-integral for every p,
    where s = prod_p p**(-f_p) collects the ball radii; summing the
    fractional parts of w_p/s produces one admissible base point, and
    admissible gamma2 form base + s*Z.  With x = gamma1*alpha_real, those
    in [lo - x, hi - x) are base + j*s for ceil((lo - x - base)/s) <= j <
    ceil((hi - x - base)/s), each ceiling one exact floor on integers.
    """
    g1 = Fraction(gamma1)
    radii = [(ball.p, ball.radius_exponent) for ball in window.balls]
    s = Fraction(math.prod(p ** -f for p, f in radii if f < 0),
                 math.prod(p ** f for p, f in radii if f > 0))
    eta = Fraction(0)  # base = s * eta
    for ball in window.balls:
        w = g1 * alpha.part(ball.p) - ball.center
        eta -= padic_fractional_part(w / s, ball.p)
    a, lo, hi = alpha.real, window.lo, window.hi
    d = a.d if g1 and a.b else lo.d or hi.d
    for end in (lo, hi):
        if end.b and end.d != d:
            raise FieldMismatch(f"cannot mix sqrt({end.d}) with sqrt({d})")
    # -ceil((end - x - base)/s) = floor((x - end)/s + eta), put over one
    # denominator with x, end = X/r, E/r, s = num/den and eta = e/q
    step = g1.denominator * a.c
    r = math.lcm(step, lo.c, hi.c)
    xa, xb = (g1.numerator * v * (r // step) for v in (a.a, a.b))
    num, den, e, q = s.numerator, s.denominator, eta.numerator, eta.denominator
    neg_lo, neg_hi = (_floor_a_plus_b_sqrt_d(
        (xa - end.a * (r // end.c)) * den * q + e * r * num,
        (xb - end.b * (r // end.c)) * den * q, r * num * q, d)
        for end in (lo, hi))
    return max(0, neg_lo - neg_hi)


@dataclass(frozen=True, slots=True)
class CutPoint:
    gamma1: Fraction
    multiplicity: int


def generate_cutproject(alpha: AdeleVector, window: AdelicBox,
                        candidates: Iterable[RationalLike]) -> list[CutPoint]:
    """Scan candidate gamma1 values and keep those selected by the
    window, with multiplicity."""
    return [CutPoint(g1, m) for g1 in map(Fraction, candidates)
            if (m := window_multiplicity(window, alpha, g1)) > 0]


def correspondence_check(boxset: WeightedBoxSet, alpha: AdeleVector,
                         n: int) -> bool:
    """Compare, for gamma1 = 0..n-1 and every box of the set, the
    cut-and-project multiplicity against the lift count brs computes at
    the projected orbit point.  True iff they agree everywhere."""
    boxes = [box for box, _ in boxset.terms]
    counts = brs._lift_counts(boxes, alpha, zero_point(alpha.primes), n)
    return all(window_multiplicity(box, alpha, g1) == count
               for g1, terms in enumerate(counts)
               for box, count in zip(boxes, terms))
