import cmath
from fractions import Fraction
from random import Random

import pytest

from adelicbrs import (AdeleVector, ExactReal, PrimeSet, PrimeSetMismatch,
                       SolenoidPoint, ZeroGamma, as_lattice, character_phase,
                       is_minimal, reduce_to_fundamental, weyl_sum,
                       zero_point)
from adelicbrs.solenoid import orbit, rotate
from conftest import diagonal, random_alpha, random_gamma

P2 = PrimeSet([2])
SQRT2 = ExactReal.sqrt(2)
ALPHA = AdeleVector(P2, SQRT2, {2: Fraction(1, 2)})


def test_lattice_element_validation():
    assert as_lattice(Fraction(3, 4), P2) == Fraction(3, 4)
    with pytest.raises(PrimeSetMismatch):
        as_lattice(Fraction(1, 3), P2)
    assert as_lattice(2, PrimeSet()) == 2
    with pytest.raises(PrimeSetMismatch):
        as_lattice(Fraction(1, 2), PrimeSet())


def test_adele_vector_algebra():
    v = AdeleVector(P2, SQRT2, {2: Fraction(1, 2)})
    w = AdeleVector(P2, ExactReal(1), {2: Fraction(1, 4)})
    s = v + w
    assert s.real == SQRT2 + 1 and s.part(2) == Fraction(3, 4)
    assert v.scale(Fraction(3, 2)).part(2) == Fraction(3, 4)
    with pytest.raises(PrimeSetMismatch):
        v + AdeleVector(PrimeSet([3]), ExactReal(0), {3: Fraction(0)})
    with pytest.raises(PrimeSetMismatch):
        v.part(3)
    with pytest.raises(PrimeSetMismatch):
        AdeleVector(P2, ExactReal(0), {3: Fraction(1, 3)})


def test_points_are_immutable():
    v = AdeleVector(P2, SQRT2, {2: Fraction(1, 2)})
    x = SolenoidPoint(P2, ExactReal(1, 0, 2), {2: Fraction(3)})
    for point in (v, x):
        for name, value in [("real", ExactReal(0)), ("parts", ()),
                            ("primes", PrimeSet()), ("extra", 1)]:
            with pytest.raises(AttributeError):
                setattr(point, name, value)
        assert point.real != 0 and point.primes == P2


def test_adele_vector_eq_hash():
    v = AdeleVector(P2, SQRT2, {2: Fraction(1, 2)})
    w = AdeleVector(P2, ExactReal(0, 2, 2, 2), {2: Fraction(1, 2)})
    assert v == w and hash(v) == hash(w)
    assert v != AdeleVector(P2, SQRT2, {2: Fraction(3, 2)})


def test_solenoid_point_domain():
    SolenoidPoint(P2, ExactReal(0, 1, 2, 2), {2: Fraction(3)})
    with pytest.raises(ValueError):
        SolenoidPoint(P2, ExactReal(1), {2: Fraction(0)})
    with pytest.raises(ValueError):
        SolenoidPoint(P2, ExactReal(0), {2: Fraction(1, 2)})
    with pytest.raises(ValueError):
        SolenoidPoint(P2, -ExactReal(0, 1, 2, 2), {2: Fraction(0)})
    assert zero_point(P2).real == 0


def test_reduce_worked_orbit():
    # orbit of 0 under alpha = (sqrt2, 1/2): first step subtracts the
    # lattice point 1/2, second step subtracts 2
    x1, g1 = reduce_to_fundamental(ALPHA)
    assert g1 == Fraction(1, 2)
    assert x1.real == SQRT2 - Fraction(1, 2)
    assert x1.part(2) == 0
    two_alpha = ALPHA + ALPHA
    x2, g2 = reduce_to_fundamental(two_alpha)
    assert g2 == 2
    assert x2.real == 2 * SQRT2 - 2
    assert x2.part(2) == -1


def test_reduce_is_projection_seeded():
    rng = Random(21)
    for _ in range(150):
        alpha = random_alpha(rng)
        x, g = reduce_to_fundamental(alpha)
        assert isinstance(x, SolenoidPoint)
        # x + diagonal(g) reassembles the input
        assert x + diagonal(g, alpha.primes) == alpha
        # reducing twice changes nothing
        y, g2 = reduce_to_fundamental(x)
        assert y == x and g2 == 0
        # shifting by a lattice element lands on the same point
        gamma = random_gamma(rng, alpha.primes)
        z, _ = reduce_to_fundamental(alpha + diagonal(gamma, alpha.primes))
        assert z == x


def test_rotate_and_orbit():
    x0 = zero_point(P2)
    pts = list(orbit(ALPHA, x0, 5))
    assert len(pts) == 5
    assert pts[0] == x0
    assert pts[1] == rotate(x0, ALPHA)
    # orbit point k equals the reduction of k*alpha
    for k, x in enumerate(pts):
        direct, _ = reduce_to_fundamental(ALPHA.scale(k))
        assert x == direct


def test_is_minimal():
    assert is_minimal(ALPHA)
    assert not is_minimal(AdeleVector(P2, ExactReal(3, 0, 2),
                                      {2: Fraction(1, 2)}))


def test_character_phase_worked_value():
    # gamma = 1/2 against alpha itself: -sqrt2/2 + {1/4}_2 mod 1
    ph = character_phase(Fraction(1, 2), ALPHA)
    assert ph == ExactReal(5, -2, 4, 2)


def test_character_phase_is_character_seeded():
    rng = Random(22)
    for _ in range(120):
        alpha = random_alpha(rng)
        x, _ = reduce_to_fundamental(alpha.scale(rng.randint(-3, 3)))
        g1 = random_gamma(rng, alpha.primes)
        g2 = random_gamma(rng, alpha.primes)
        # trivial on the lattice: shifting x by a lattice diagonal
        # leaves the phase unchanged
        shifted = x + diagonal(random_gamma(rng, alpha.primes), alpha.primes)
        assert character_phase(g1, shifted) == character_phase(g1, x)
        # additive in the index
        lhs = character_phase(g1 + g2, x)
        rhs = (character_phase(g1, x) + character_phase(g2, x)).mod1()
        assert lhs == rhs
        # zero index is the trivial character
        assert character_phase(Fraction(0), x) == 0


def test_character_phase_orbit_is_arithmetic():
    # along the orbit the phase advances by the fixed step theta(alpha)
    step = character_phase(Fraction(1, 2), ALPHA)
    x0 = zero_point(P2)
    acc = ExactReal(0)
    for k, x in enumerate(orbit(ALPHA, x0, 12)):
        assert character_phase(Fraction(1, 2), x) == acc
        acc = (acc + step).mod1()


def test_weyl_sum_against_direct_sum():
    rng = Random(23)
    for _ in range(25):
        alpha = random_alpha(rng)
        g = random_gamma(rng, alpha.primes)
        if g == 0:
            continue
        n = rng.randint(1, 60)
        theta = character_phase(g, alpha)
        direct = sum(cmath.exp(2j * cmath.pi
                               * (theta * k).mod1().to_float())
                     for k in range(1, n + 1)) / n
        assert abs(weyl_sum(g, alpha, n) - direct) < 1e-9


def test_weyl_sum_matches_orbit_characters():
    # the average of e(phase) over orbit points 1..N equals the closed
    # form; ties the character machinery to the dynamics
    n = 40
    pts = list(orbit(ALPHA, zero_point(P2), n + 1))[1:]
    direct = sum(cmath.exp(2j * cmath.pi
                           * character_phase(Fraction(1, 2), x).to_float())
                 for x in pts) / n
    assert abs(weyl_sum(Fraction(1, 2), ALPHA, n) - direct) < 1e-9


def test_weyl_sum_guards():
    with pytest.raises(ZeroGamma):
        weyl_sum(Fraction(0), ALPHA, 10)
    with pytest.raises(ValueError):
        weyl_sum(Fraction(1, 2), ALPHA, 0)
    rational = AdeleVector(P2, ExactReal(1, 0, 3), {2: Fraction(1, 2)})
    with pytest.raises(ValueError):
        weyl_sum(Fraction(1, 2), rational, 10)
