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
against a bisection.  window_multiplicity counts one gamma1 from
scratch and is the tests' oracle.  correspondence_check counts the
integer candidates gamma1 = 0..n-1 incrementally, taking the fractional
parts once per box, so a candidate costs one integer residue and two
exact floors per box; it compares those counts in one pass with the
closed-form orbit kernel behind verify's discrepancy series.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from . import brs
from .brs import AdelicBox, WeightedBoxSet
from .exact import (RationalLike, _common_radicand, _floor_a_plus_b_sqrt_d,
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
    d = _common_radicand(a, lo, hi) if g1 else _common_radicand(lo, hi)
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
    return neg_lo - neg_hi  # never negative, as lo < hi


def _window_counts(window: AdelicBox, alpha: AdeleVector,
                   n: int) -> Iterator[int]:
    """Yield window_multiplicity(window, alpha, k) for k = 0, ..., n-1.

    Only eta mod 1 moves the count, and for an integer k
    {k*x + y}_p = k*{x}_p + {y}_p mod 1.  So with F0 = sum_p {-c_p/s}_p and
    F1 = sum_p {alpha_p/s}_p over one p-power denominator q, the k-th base
    point is eta_k = -(F0 + k*F1) mod 1, one integer residue, and
    x = k*alpha_real moves both edge numerators by a fixed integer pair.
    """
    radii = [(ball.p, ball.radius_exponent) for ball in window.balls]
    num = math.prod(p ** -f for p, f in radii if f < 0)
    den = math.prod(p ** f for p, f in radii if f > 0)
    s = Fraction(num, den)
    f0 = sum(padic_fractional_part(-ball.center / s, ball.p)
             for ball in window.balls)
    f1 = sum(padic_fractional_part(alpha.part(ball.p) / s, ball.p)
             for ball in window.balls)
    q = math.lcm(f0.denominator, f1.denominator)
    e0, e1 = (f.numerator * (q // f.denominator) for f in (f0, f1))
    a, lo, hi = alpha.real, window.lo, window.hi
    # floor((x - end)/s + e/q) over the denominator r*num*q, as in
    # window_multiplicity, with x, end = X/r, E/r
    r = math.lcm(a.c, lo.c, hi.c)
    step_a, step_b = (v * den * q * (r // a.c) for v in (a.a, a.b))
    lo_a, lo_b, hi_a, hi_b = (-v * den * q * (r // end.c)
                              for end in (lo, hi) for v in (end.a, end.b))
    rn, c = r * num, r * num * q
    d = _common_radicand(lo, hi)  # k = 0 puts no sqrt into x
    for k in range(n):
        if k == 1:
            d = _common_radicand(a, lo, hi)
        xa = k * step_a + -(e0 + k * e1) % q * rn
        xb = k * step_b
        yield (_floor_a_plus_b_sqrt_d(lo_a + xa, lo_b + xb, c, d)
               - _floor_a_plus_b_sqrt_d(hi_a + xa, hi_b + xb, c, d))


def correspondence_check(boxset: WeightedBoxSet, alpha: AdeleVector,
                         n: int) -> tuple[list[int], bool]:
    """Count, for gamma1 = 0..n-1 and every box of the set, the
    cut-and-project multiplicity and compare it with the lift count brs
    computes at the projected orbit point, in one pass.

    Returns the primary (first) box's multiplicity at each gamma1 (empty
    for an empty set), and whether the two counts agree everywhere.
    """
    boxes = [box for box, _ in boxset.terms]
    x0 = zero_point(alpha.primes)
    lifts = zip(*(brs._lift_totals([(box, 1)], alpha, x0, n)
                  for box in boxes))
    windows = zip(*(_window_counts(box, alpha, n) for box in boxes))
    primary, agrees = [], True
    for terms, counts in zip(lifts, windows):
        agrees = agrees and terms == counts
        primary.append(counts[0])
    return primary, agrees
