"""Points and dynamics on a p-adic solenoid.

A solenoid here is the quotient of (R x prod_p Q_p) over a finite prime
set Q by the diagonally embedded ring Z[1/p : p in Q].  Points are kept
as exact coordinate vectors; the strict fundamental domain is
[0, 1) x prod_p Z_p, so every group element has exactly one reduced
representative and orbit computations never drift.

Q may be empty, in which case everything degenerates to the circle R/Z.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import Iterator, Mapping

from .errors import PrimeSetMismatch, ZeroGamma
from .exact import (ExactReal, PrimeSet, RationalLike, padic_fractional_part,
                    padic_valuation)


def as_lattice(gamma: RationalLike, primes: PrimeSet) -> Fraction:
    """gamma as a lattice rational of the solenoid over primes, whose
    diagonal translations it indexes: no denominator prime outside the
    set.  The set's primes are divided out, so nothing is factorized."""
    g = Fraction(gamma)
    rest = g.denominator
    for p in primes:
        while rest % p == 0:
            rest //= p
    if rest > 1:
        raise PrimeSetMismatch(
            f"{g} has a denominator prime outside prime set {primes}")
    return g


class AdeleVector:
    """A vector with one exact real coordinate and one rational p-adic
    coordinate per prime of Q.  Immutable; supports the affine
    operations the dynamics needs."""

    __slots__ = ("primes", "real", "parts")

    def __init__(self, primes: PrimeSet, real: ExactReal,
                 parts: Mapping[int, RationalLike] | None = None):
        primes = PrimeSet(primes)
        if not isinstance(real, ExactReal):
            real = ExactReal.from_rational(real)
        parts = dict(parts or {})
        for p in parts:
            if p not in primes:
                raise PrimeSetMismatch(
                    f"coordinate at {p} outside prime set {primes}")
        filled = tuple((p, Fraction(parts.get(p, 0))) for p in primes)
        object.__setattr__(self, "primes", primes)
        object.__setattr__(self, "real", real)
        object.__setattr__(self, "parts", filled)

    def __setattr__(self, *_):
        raise AttributeError("AdeleVector is immutable")

    def part(self, p: int) -> Fraction:
        for q, x in self.parts:
            if q == p:
                return x
        raise PrimeSetMismatch(f"no coordinate at {p} in {self.primes}")

    def _check(self, other: "AdeleVector") -> None:
        if self.primes != other.primes:
            raise PrimeSetMismatch(f"{self.primes} != {other.primes}")

    def __add__(self, other: "AdeleVector") -> "AdeleVector":
        self._check(other)
        return AdeleVector(
            self.primes, self.real + other.real,
            {p: x + y for (p, x), (_, y) in zip(self.parts, other.parts)})

    def __eq__(self, other):
        if not isinstance(other, AdeleVector):
            return NotImplemented
        return (self.primes == other.primes and self.real == other.real
                and self.parts == other.parts)

    def __hash__(self):
        return hash((self.primes, self.real, self.parts))

    def __repr__(self):
        coords = ", ".join(f"{p}: {x}" for p, x in self.parts)
        return f"AdeleVector({self.real.exact_str()}; {{{coords}}})"


class SolenoidPoint(AdeleVector):
    """An AdeleVector lying in the strict fundamental domain:
    real coordinate in [0, 1), every p-adic coordinate p-integral."""

    __slots__ = ()

    def __init__(self, primes, real, parts=None):
        super().__init__(primes, real, parts)
        if not (0 <= self.real < 1):
            raise ValueError(f"real coordinate {self.real} outside [0, 1)")
        for p, x in self.parts:
            if x != 0 and padic_valuation(x, p) < 0:
                raise ValueError(f"coordinate at {p} not p-integral: {x}")


def zero_point(primes: PrimeSet) -> SolenoidPoint:
    return SolenoidPoint(primes, ExactReal(0))


def fractional_sum(gamma: RationalLike, x: AdeleVector) -> Fraction:
    """sum_p {gamma*x_p}_p, the p-adic part of the character phase and
    of the allowable volumes."""
    return sum((padic_fractional_part(gamma * xp, p) for p, xp in x.parts),
               Fraction(0))


def reduce_to_fundamental(x: AdeleVector) -> tuple[SolenoidPoint, Fraction]:
    """Unique representation x = point + diagonal(gamma) with the point
    in the fundamental domain and gamma a lattice rational.

    First the p-adic fractional parts are stripped (making every p-adic
    coordinate integral), then an integer shift puts the real coordinate
    into [0, 1).  Uniqueness follows because the domain is strict.
    """
    g = fractional_sum(1, x)
    real = x.real - g
    n = real.floor()
    gamma = g + n
    point = SolenoidPoint(x.primes, real - n,
                          {p: xp - gamma for p, xp in x.parts})
    return point, gamma


def rotate(x: SolenoidPoint, alpha: AdeleVector) -> SolenoidPoint:
    """One step of the rotation by alpha."""
    return reduce_to_fundamental(x + alpha)[0]


def orbit(alpha: AdeleVector, x0: SolenoidPoint,
          n: int | None = None) -> Iterator[SolenoidPoint]:
    """Yield x0, x0 + alpha, x0 + 2*alpha, ... reduced; n terms if given.

    Iterated stepping agrees with one-shot reduction of x0 + k*alpha
    exactly, because each reduction is the unique one.
    """
    cur = x0
    k = 0
    while n is None or k < n:
        yield cur
        cur = rotate(cur, alpha)
        k += 1


def is_minimal(alpha: AdeleVector) -> bool:
    """A rotation is minimal (every orbit dense) exactly when its real
    coordinate is irrational."""
    return not alpha.real.is_rational()


def character_phase(gamma: RationalLike, x: AdeleVector) -> ExactReal:
    """Exact phase in [0, 1) of the character indexed by gamma at the
    point x: (-gamma*x_real + sum_p {gamma*x_p}_p) mod 1; the character
    value is e(phase).

    Characters with lattice index are trivial on the lattice, which is
    what makes them well defined on the solenoid.
    """
    g = as_lattice(gamma, x.primes)
    return (x.real * (-g) + fractional_sum(g, x)).mod1()


def weyl_sum(gamma: RationalLike, alpha: AdeleVector, n: int) -> complex:
    """Average (1/n) * sum_{k=1..n} e(k*theta) for the character phase
    theta of gamma along the rotation alpha.

    The phases k*theta are reduced mod 1 exactly before any floating
    point enters; the average itself is evaluated in float64 via the
    geometric series closed form.
    """
    if n < 1:
        raise ValueError("n must be positive")
    g = as_lattice(gamma, alpha.primes)
    if g == 0:
        raise ZeroGamma("gamma = 0 averages the constant 1")
    if not is_minimal(alpha):
        raise ValueError("rotation is not minimal; Weyl averages degenerate")
    theta = character_phase(g, alpha)
    t1 = theta.to_float()
    tn = (theta * n).mod1().to_float()
    e1 = cmath.exp(2j * cmath.pi * t1)
    en = cmath.exp(2j * cmath.pi * tn)
    return e1 * (en - 1) / (e1 - 1) / n
