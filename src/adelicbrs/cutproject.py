"""Cut-and-project model for the box sets built in :mod:`.brs`.

The ambient space is a pair of adelic vectors (x, y).  The physical
line is E = {(x, -x*alpha)}, the internal line is F = {(0, y)}.
Selecting the lattice pairs (gamma1, gamma2) whose internal part
gamma2 + gamma1*alpha lands inside a window box reproduces, with
multiplicity, exactly the lift counts that the brs module computes for
the projected set.

The admissible p-adic coset is found independently of brs: its base
point is the negated sum of p-adic fractional parts, not a CRT
solution, so the agreement of the two counts checks the correspondence
rather than restating it.  The real edge is shared: given the coset, a
count is two floors of linear functions of gamma1 whose arguments
differ by the window's scaled width W, so it is floor(W), plus one when
a point rotating on the unit circle lies below the fractional part of
W; one brs._walk_arc stage walks it, on the fixed-point arc
(brs._arc_walk) that verify walks for each box too.
window_multiplicity counts one gamma1 from scratch and is the tests'
oracle; correspondence_check walks gamma1 = 0..n-1 for every box and
compares those counts, list by list, with the lift counts brs walks
(brs._chain over brs._arcs).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator

from . import brs
from .brs import AdelicBox, WeightedBoxSet
from .exact import RationalLike, _common_radicand, padic_fractional_part
from .solenoid import AdeleVector, zero_point


def _spacing(window: AdelicBox) -> Fraction:
    """s = prod_p p**(-f_p), the spacing of the window's admissible coset."""
    return math.prod(Fraction(ball.p) ** -ball.radius_exponent
                     for ball in window.balls)


def window_multiplicity(window: AdelicBox, alpha: AdeleVector,
                        gamma1: RationalLike) -> int:
    """Number of lattice rationals gamma2 with gamma2 + gamma1*alpha in
    the window box.

    With w_p = gamma1*alpha_p - c_p, the p-adic conditions say
    (gamma2 + w_p)/s is p-integral for every p, where s = _spacing(window)
    collects the ball radii.  The fractional parts of the w_p/s sum to
    one admissible base point s*eta, eta = -sum_p {w_p/s}_p, so the
    admissible gamma2 form s*(eta + Z).  With x = gamma1*alpha_real,
    those in [lo - x, hi - x) number

        floor((x - lo)/s + eta) - floor((x - hi)/s + eta).
    """
    _common_radicand(alpha.real, window.lo, window.hi)
    g1 = Fraction(gamma1)
    s = _spacing(window)
    eta = -sum(padic_fractional_part(
        (g1 * alpha.part(ball.p) - ball.center) / s, ball.p)
        for ball in window.balls)
    x = alpha.real * g1
    return (((x - window.lo) / s + eta).floor()
            - ((x - window.hi) / s + eta).floor())


def _window_counts(window: AdelicBox, alpha: AdeleVector,
                   n: int) -> Iterator[int]:
    """Yield window_multiplicity(window, alpha, k) for k = 0, ..., n-1.

    For an integer k, {k*x + y}_p = k*{x}_p + {y}_p mod 1, so with
    F0 = sum_p {-c_p/s}_p and F1 = sum_p {alpha_p/s}_p the k-th eta is
    y_k - floor(y_k) for y_k = -(F0 + k*F1).  The integer floor(y_k)
    moves both floors of the count alike, so with t = alpha_real/s - F1
    the count is floor(-lo/s - F0 + k*t) - floor(-hi/s - F0 + k*t): one
    brs._walk_arc stage of weight 1, start -lo/s - F0, step t and width
    (hi - lo)/s, seeded with zeros, which adds floor((hi - lo)/s) to each
    and walks the rest as a rotating point.
    """
    s = _spacing(window)
    f0 = sum(padic_fractional_part(-ball.center / s, ball.p)
             for ball in window.balls)
    f1 = sum(padic_fractional_part(alpha.part(ball.p) / s, ball.p)
             for ball in window.balls)
    t = alpha.real / s - f1
    return brs._walk_arc(itertools.repeat(0, n), 1, -window.lo / s - f0, t,
                         (window.hi - window.lo) / s, n)


def correspondence_check(boxset: WeightedBoxSet, alpha: AdeleVector,
                         n: int) -> tuple[list[int], bool]:
    """Count, for gamma1 = 0..n-1 and every box of the set, the
    cut-and-project multiplicity and compare it with the lift count brs
    computes at the projected orbit point.

    Each box's lift counts are walked by brs._chain over its brs._arcs,
    and its window counts by _window_counts; the two lists must be equal
    for every box.  Returns the primary (first) box's window counts
    (empty for an empty set), and whether they agree.
    """
    x0 = zero_point(alpha.primes)
    lifts = [list(brs._chain(*brs._arcs([(box, 1)], alpha, x0), n))
             for box, _ in boxset.terms]
    windows = [list(_window_counts(box, alpha, n))
               for box, _ in boxset.terms]
    return (windows[0] if windows else []), lifts == windows
