"""Cut-and-project model for the box sets built in :mod:`.brs`.

The ambient space is a pair of adelic vectors (x, y).  The physical
line is E = {(x, -x*alpha)}, the internal line is F = {(0, y)}.
Selecting the lattice pairs (gamma1, gamma2) whose internal part
gamma2 + gamma1*alpha lands inside a window box reproduces, with
multiplicity, exactly the lift counts that the brs module computes for
the projected set.

The counting here is deliberately implemented on a different code path
from the lift counts of brs (pieced-together p-adic fractional parts and
a linear scan instead of CRT plus a ceiling formula), so the agreement
of the two is a meaningful end-to-end check rather than a tautology.
correspondence_check runs the window scan against the closed-form orbit
kernel that verify's discrepancy series uses, so it cross-checks that
kernel too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import brs
from .brs import AdelicBox, WeightedBoxSet
from .exact import RationalLike, padic_fractional_part
from .solenoid import AdeleVector, zero_point


def window_multiplicity(window: AdelicBox, alpha: AdeleVector,
                        gamma1: RationalLike) -> int:
    """Number of lattice rationals gamma2 with gamma2 + gamma1*alpha in
    the window box.

    The p-adic conditions say (gamma2 + w_p)/s is p-integral for every p,
    where s = prod_p p**(-f_p) collects the ball radii; summing the
    fractional parts of w_p/s produces one admissible base point, and
    admissible gamma2 form base + s*Z.  The real edge is then counted by
    stepping through the coset.
    """
    g1 = Fraction(gamma1)
    s = Fraction(1)
    for ball in window.balls:
        s *= Fraction(ball.p) ** (-ball.radius_exponent)
    eta = Fraction(0)
    for ball in window.balls:
        w = g1 * alpha.part(ball.p) - ball.center
        eta -= padic_fractional_part(w / s, ball.p)
    base = s * eta

    shift = alpha.real * g1
    lo = window.lo - shift
    hi = window.hi - shift
    j = ((lo - base) / s).floor()
    while base + j * s < lo:
        j += 1
    count = 0
    while base + j * s < hi:
        count += 1
        j += 1
    return count


@dataclass(frozen=True, slots=True)
class CutPoint:
    gamma1: Fraction
    multiplicity: int


def generate_cutproject(alpha: AdeleVector, window: AdelicBox,
                        candidates: Iterable[RationalLike]) -> list[CutPoint]:
    """Scan candidate gamma1 values and keep those selected by the
    window, with multiplicity."""
    out = []
    for g1 in candidates:
        g1 = Fraction(g1)
        m = window_multiplicity(window, alpha, g1)
        if m > 0:
            out.append(CutPoint(g1, m))
    return out


def correspondence_check(boxset: WeightedBoxSet, alpha: AdeleVector,
                         n: int) -> bool:
    """Compare, for gamma1 = 0..n-1 and every box of the set, the
    cut-and-project multiplicity against the lift count brs computes at
    the projected orbit point.  True iff they agree everywhere."""
    boxes = [box for box, _ in boxset.terms]
    counts = brs._lift_counts(boxes, alpha, zero_point(alpha.primes), n)
    for g1, terms in enumerate(counts):
        for box, count in zip(boxes, terms):
            if window_multiplicity(box, alpha, g1) != count:
                return False
    return True
