from fractions import Fraction
from random import Random

from adelicbrs import (AdelicBox, AdeleVector, ExactReal, PAdicBall,
                       PrimeSet, box_lift_count, choose_n,
                       construct_witness, correspondence_check,
                       generate_cutproject, orbit, window_multiplicity,
                       zero_point)
from conftest import lift_count_oracle, random_alpha, random_gamma

P2 = PrimeSet([2])
SQRT2 = ExactReal.sqrt(2)
ALPHA = AdeleVector(P2, SQRT2, {2: Fraction(1, 2)})


def test_window_multiplicity_against_enumeration():
    rng = Random(43)
    w = construct_witness(ALPHA, Fraction(1, 2), 1)
    box = w.result.terms[0][0]
    for g1 in range(-40, 40):
        direct = _count_direct(box, ALPHA, g1)
        assert window_multiplicity(box, ALPHA, g1) == direct
    for _ in range(60):
        alpha = random_alpha(rng)
        balls = tuple(PAdicBall(p, Fraction(rng.randint(-3, 3),
                                            p ** rng.randint(0, 1)),
                                rng.randint(-2, 1))
                      for p in alpha.primes)
        lo = ExactReal(rng.randint(-3, 3), 0, rng.randint(1, 2))
        box = AdelicBox(lo, lo + ExactReal(rng.randint(1, 9), 0,
                                           rng.randint(1, 2)), balls)
        g1 = random_gamma(rng, alpha.primes)
        assert window_multiplicity(box, alpha, g1) == \
            _count_direct(box, alpha, g1)


def _count_direct(box, alpha, gamma1):
    """Enumerate gamma2 with gamma2 + gamma1*alpha in the box, naively.

    Reuses the lift-count enumeration oracle with gamma1*alpha in the
    role of the point; the real edge and every ball are checked per
    candidate there.
    """
    return lift_count_oracle(box, alpha.scale(Fraction(gamma1)))


def test_generate_cutproject_scans_candidates():
    w = construct_witness(ALPHA, Fraction(1, 2), 1)
    box = w.result.terms[0][0]
    pts = generate_cutproject(ALPHA, box, range(10))
    assert [(p.gamma1, p.multiplicity) for p in pts] == \
        [(0, 1), (1, 1), (3, 1), (5, 1), (7, 1), (9, 1)]
    # multiplicities are always positive in the emitted list
    assert all(p.multiplicity > 0 for p in pts)


def test_cutproject_counts_match_lift_counts_along_orbit():
    w = construct_witness(ALPHA, Fraction(1, 2), 1)
    box = w.result.terms[0][0]
    for g1, x in enumerate(orbit(ALPHA, zero_point(P2), 120)):
        assert window_multiplicity(box, ALPHA, g1) == box_lift_count(box, x)


def test_correspondence_check_worked_example():
    w = construct_witness(ALPHA, Fraction(1, 2), 1)
    assert correspondence_check(w.result, ALPHA, 150)
    w2 = construct_witness(ALPHA, Fraction(3, 2), 2)
    assert correspondence_check(w2.result, ALPHA, 60)


def test_correspondence_check_seeded_constructions():
    rng = Random(44)
    done = 0
    while done < 12:
        alpha = random_alpha(rng)
        gamma = random_gamma(rng, alpha.primes)
        if gamma == 0:
            continue
        n = choose_n(alpha, gamma)
        w = construct_witness(alpha, gamma, n)
        assert correspondence_check(w.result, alpha, 25)
        done += 1


def test_full_domain_window_selects_one_companion_each():
    # the fundamental domain catches exactly one gamma2 per gamma1;
    # this is the uniqueness behind reduce_to_fundamental, recovered
    # here purely by strip counting
    full = AdelicBox.full_domain(P2)
    for g1 in range(-10, 10):
        assert window_multiplicity(full, ALPHA, Fraction(g1, 2)) == 1
