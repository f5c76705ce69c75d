"""Shared oracles and helpers for the test suite.

Every oracle here recomputes results by brute force or by a visibly
different algorithm than the package uses, so agreement is evidence
rather than tautology.  Oracles work on plain ints and Fractions and
stay deliberately slow and simple.
"""

from fractions import Fraction
from random import Random

from hypothesis import settings

from adelicbrs import (AdelicBox, AdeleVector, ExactReal, PAdicBall,
                       PrimeSet, WeightedBoxSet)

# One fixed example sequence per test: reproducible on any machine, and
# no wall-clock deadline, because timings on a shared host are noisy.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("deterministic")


def val(x, p: int):
    """p-adic valuation by repeated division, no package code."""
    x = Fraction(x)
    if x == 0:
        return float("inf")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def frac_part_oracle(x, p: int) -> Fraction:
    """{x}_p by exhaustive search: the unique j/p**k in [0, 1) with
    x - j/p**k p-integral, k = -v_p(x)."""
    x = Fraction(x)
    k = val(x, p)
    if k >= 0:
        return Fraction(0)
    q = p ** (-k)
    hits = [Fraction(j, q) for j in range(q) if val(x - Fraction(j, q), p) >= 0]
    assert len(hits) == 1, f"expected one representative, got {hits}"
    return hits[0]


def coset_oracle(constraints):
    """All solutions of a p-adic ball system inside one fundamental
    window, by scanning a fine grid.

    Returns (solutions_in_[0, delta), delta) where delta is the coarsest
    step so that solutions form solutions + delta*Z.  The scan covers
    [0, delta) in steps of the finest conceivable denominator.
    """
    radius: dict[int, int] = {}
    powers: dict[int, int] = {}
    for p, h, r in constraints:
        radius[p] = min(radius.get(p, h), h)
        need = max(h, 0)
        rv = val(Fraction(r), p)
        if rv != float("inf") and rv < 0:
            need = max(need, -rv)
        powers[p] = max(powers.get(p, 0), need)
    delta = Fraction(1)
    for p, h in radius.items():
        delta *= Fraction(p) ** (-h)
    step = Fraction(1)
    for p, e in powers.items():
        step /= p ** e
    sols = []
    t = Fraction(0)
    while t < delta:
        if all(val(t - Fraction(r), p) >= -h for p, h, r in constraints):
            sols.append(t)
        t += step
    return sols, delta


def lift_count_oracle(box, x) -> int:
    """Number of lattice gamma with x + gamma in the box, by direct
    enumeration of every candidate rational in the real window."""
    denom = 1
    for ball in box.balls:
        p = ball.p
        e = max(ball.radius_exponent, 0)
        gap = val(ball.center - x.part(p), p)
        if gap != float("inf") and gap < 0:
            e = max(e, -gap)
        denom *= p ** e
    lo = (box.lo - x.real) * denom
    hi = (box.hi - x.real) * denom
    j = lo.floor()
    count = 0
    while j < hi:
        if j >= lo:
            g = Fraction(j, denom)
            if all(val(g + x.part(b.p) - b.center, b.p) >= -b.radius_exponent
                   for b in box.balls):
                count += 1
        j += 1
    return count


def multiplicity_oracle(boxset, x) -> int:
    return sum(w * lift_count_oracle(box, x) for box, w in boxset.terms)


def with_extra_primes(shape, primes):
    """A box or weighted box set seen inside a larger solenoid: each new
    prime gets the unit ball Z_p, which changes neither volume nor lift
    counts."""
    if isinstance(shape, WeightedBoxSet):
        return WeightedBoxSet(
            tuple((with_extra_primes(box, primes), w)
                  for box, w in shape.terms),
            shape.claimed_volume, shape.certificate, shape.source_gamma,
            shape.source_n)
    balls = {ball.p: ball for ball in shape.balls}
    for p in primes:
        balls.setdefault(p, PAdicBall(p, Fraction(0), 0))
    return AdelicBox(shape.lo, shape.hi,
                     tuple(balls[p] for p in sorted(balls)))


SQUAREFREE = (2, 3, 5, 6, 7, 10, 11, 13)


def random_irrational(rng: Random) -> ExactReal:
    d = rng.choice(SQUAREFREE)
    b = rng.choice((1, -1, 2, -2, 3))
    a = rng.randint(-6, 6)
    c = rng.randint(1, 5)
    return ExactReal(a, b, c, d)


def random_padic_part(rng: Random, p: int) -> Fraction:
    e = rng.randint(0, 2)
    num = rng.randint(-3 * p ** e, 3 * p ** e)
    return Fraction(num, p ** e)


def random_alpha(rng: Random, max_primes: int = 2) -> AdeleVector:
    pool = [2, 3, 5]
    rng.shuffle(pool)
    primes = PrimeSet(pool[:rng.randint(0, max_primes)])
    parts = {p: random_padic_part(rng, p) for p in primes}
    return AdeleVector(primes, random_irrational(rng), parts)


def diagonal(gamma, primes) -> AdeleVector:
    """The lattice rational gamma embedded at every place."""
    return AdeleVector(primes, ExactReal.from_rational(gamma),
                       {p: gamma for p in primes})


def random_gamma(rng: Random, primes) -> Fraction:
    den = 1
    for p in primes:
        den *= p ** rng.randint(0, 2)
    num = rng.randint(-4 * den, 4 * den)
    return Fraction(num, den)
