"""Acceptance gate: one test per headline claim, one printed verdict
line per criterion.

These tests intentionally re-derive everything through the library
and compare against frozen exact values or against the package's own
independent counting route.  Horizon-limited claims (boundedness,
growth) are evaluated at the documented checkpoints with exact
arithmetic; nothing here trusts floating point for a decision except
the Weyl averages, whose bound carries an explicit epsilon.
"""

import math
from fractions import Fraction
from random import Random

from adelicbrs import (AdelicBox, AdeleVector, ExactReal, PAdicBall,
                       PrimeSet, WeightedBoxSet, factorize,
                       allowable_volume, character_phase,
                       character_volume_identity, choose_n, construct_brs,
                       construct_witness, correspondence_check,
                       discrepancy_series, padic_abs, reduce_to_finite,
                       reduce_to_fundamental, weyl_sum, zero_point)
from adelicbrs.brs import multiplicity
from conftest import diagonal, random_alpha, random_gamma, with_extra_primes

P2 = PrimeSet([2])
SQRT2 = ExactReal.sqrt(2)
ALPHA = AdeleVector(P2, SQRT2, {2: Fraction(1, 2)})
CIRCLE = AdeleVector(PrimeSet(), SQRT2, {})


def check(num: int, desc: str, ok: bool) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_worked_example_construction():
    w = construct_witness(ALPHA, Fraction(1, 2), 1)
    box = w.base_box
    window = abs(Fraction(w.lam) + ALPHA.real) \
        * padic_abs(Fraction(w.lam) + ALPHA.part(2), 2)
    d1 = discrepancy_series(w.result, ALPHA, zero_point(P2), [1])
    ok = (
        w.lam1 == Fraction(5, 4)
        and w.lam2 == Fraction(-1, 2)
        and w.lam == Fraction(-5, 2)
        and w.box_scale == 1
        and w.xi == ExactReal(5, -2, 4, 2)
        and box.lo == 0
        and box.hi == ExactReal(5, -2, 2, 2)
        and box.balls == (PAdicBall(2, Fraction(0), -1),)
        and box.volume() == w.xi
        and window * w.box_scale == w.xi
        and w.result.serialize() == "1 | 0 | 5/2 - sqrt(2) | 2:0:-1"
        and multiplicity(w.result, zero_point(P2)) == 1
        and d1.records[0].value == ExactReal(-1, 2, 4, 2)
    )
    check(1, "worked example construction matches the frozen exact data", ok)


def test_criterion_2_brs_discrepancy_plateau():
    w = construct_witness(ALPHA, Fraction(1, 2), 1)
    s = discrepancy_series(w.result, ALPHA, zero_point(P2),
                           [10000, 100000])
    sup4, sup5 = (r.running_sup for r in s.records)
    ok = ExactReal(0) < sup4 and sup5 * 10 <= sup4 * 11
    check(2, "BRS running sup at 1e5 stays within 1.1x of its 1e4 value", ok)


def test_criterion_3_control_box_growth():
    control = AdelicBox(ExactReal(0), ExactReal(1, 0, 2),
                        (PAdicBall(2, Fraction(0), 0),))
    boxset = WeightedBoxSet(((control, 1),), control.volume(), 0)
    s = discrepancy_series(boxset, ALPHA, zero_point(P2),
                           [1000, 10000, 100000])
    s3, s4, s5 = (r.running_sup for r in s.records)
    ok = s3 < s4 < s5
    check(3, "non-BRS control box discrepancy grows through 1e3/1e4/1e5", ok)


def test_criterion_4_circle_specialization():
    w = construct_witness(CIRCLE, Fraction(1), 2)
    s = discrepancy_series(w.result, CIRCLE, zero_point(PrimeSet()),
                           [10000, 100000])
    sup4, sup5 = (r.running_sup for r in s.records)
    brs_ok = (w.base_box.hi == ExactReal(2, -1, 1, 2)
              and w.base_box.balls == ()
              and sup5 * 10 <= sup4 * 11)
    control = AdelicBox(ExactReal(0), ExactReal(1, 0, 2), ())
    boxset = WeightedBoxSet(((control, 1),), control.volume(), 0)
    sc = discrepancy_series(boxset, CIRCLE, zero_point(PrimeSet()),
                            [1000, 10000, 100000])
    c3, c4, c5 = (r.running_sup for r in sc.records)
    ok = brs_ok and c3 < c4 < c5
    check(4, "empty prime set degenerates to the circle: BRS [0, 2-sqrt2) "
             "plateaus, control [0, 1/2) grows", ok)


def test_criterion_5_cut_and_project_correspondence():
    _, agrees = correspondence_check(construct_witness(
        ALPHA, Fraction(1, 2), 1).result, ALPHA, 1000)
    ok = agrees is True
    rng = Random(51)
    done = 0
    while done < 20 and ok:
        alpha = random_alpha(rng)
        gamma = random_gamma(rng, alpha.primes)
        if gamma == 0:
            continue
        n = choose_n(alpha, gamma) + rng.randint(0, 1)
        w = construct_witness(alpha, gamma, n)
        _, agrees = correspondence_check(w.result, alpha, 40)
        ok = ok and agrees is True
        done += 1
    check(5, "cut-and-project counts equal lift counts (worked example at "
             "N=1000 plus 20 seeded constructions)", ok)


def test_criterion_6_exact_identity_suites():
    rng = Random(52)
    ok = True
    # product formula over prime sets covering the support
    for _ in range(1000):
        x = Fraction(rng.randint(1, 999) * rng.choice((1, -1)),
                     rng.randint(1, 999))
        primes = PrimeSet([*factorize(abs(x.numerator)),
                           *factorize(x.denominator)])
        product = abs(x)
        for p in primes:
            product *= padic_abs(x, p)
        ok = ok and product == 1
    # characters: additive in the index, trivial on the lattice
    for _ in range(1000):
        alpha = random_alpha(rng)
        x, _ = reduce_to_fundamental(alpha.scale(rng.randint(-4, 4)))
        g1 = random_gamma(rng, alpha.primes)
        g2 = random_gamma(rng, alpha.primes)
        lhs = character_phase(g1 + g2, x)
        rhs = (character_phase(g1, x) + character_phase(g2, x)).mod1()
        ok = ok and lhs == rhs
        shifted = x + diagonal(random_gamma(rng, alpha.primes), alpha.primes)
        ok = ok and character_phase(g1, shifted) == character_phase(g1, x)
    # claimed volumes satisfy the character volume identity
    done = 0
    while done < 1000:
        alpha = random_alpha(rng)
        gamma = random_gamma(rng, alpha.primes)
        n = rng.randint(-2, 5)
        if gamma == 0:
            if n >= 0:
                ok = ok and character_volume_identity(
                    construct_brs(alpha, gamma, n), alpha)
                done += 1
            continue
        if allowable_volume(alpha, gamma, n) < 0:
            continue
        ok = ok and character_volume_identity(
            construct_brs(alpha, gamma, n), alpha)
        done += 1
    # volume decomposition reconstructs the target exactly
    done = 0
    while done < 1000:
        alpha = random_alpha(rng)
        gamma = random_gamma(rng, alpha.primes)
        n = rng.randint(-2, 6)
        if gamma == 0 or allowable_volume(alpha, gamma, n) < 0:
            continue
        w = construct_witness(alpha, gamma, n)
        xi0 = allowable_volume(alpha, w.gamma, w.n)
        ok = ok and allowable_volume(alpha, gamma, n) == \
            xi0 * w.copies + w.surplus
        ok = ok and xi0 >= 0 and w.copies >= 1
        ok = ok and w.gamma == w.sign * Fraction(
            1, math.prod(alpha.primes) ** w.ell)
        done += 1
    check(6, "identity suites (product formula, characters, volume "
             "identity, decomposition), 1000 exact cases each", ok)


def test_criterion_7_weyl_average_bound():
    rng = Random(53)
    ok = True
    done = 0
    while done < 50:
        alpha = random_alpha(rng)
        gamma = random_gamma(rng, alpha.primes)
        if gamma == 0:
            continue
        t = character_phase(gamma, alpha)
        norm = min(t, 1 - t)
        for n in (100, 1000, 10000):
            bound = (norm * (2 * n)).inverse().to_float()
            ok = ok and abs(weyl_sum(gamma, alpha, n)) <= bound + 1e-12
        done += 1
    check(7, "50 seeded characters meet |S_N| <= 1/(2N||theta||) at "
             "N=1e2,1e3,1e4", ok)


def test_criterion_8_infinite_support_reduction():
    parts = {2: Fraction(1, 2), 3: Fraction(5)}
    small = reduce_to_finite(SQRT2, parts, Fraction(1, 2))
    primes = small.primes
    w = construct_witness(small, Fraction(1, 2), 1)
    checkpoints = [100, 1000]
    s_small = discrepancy_series(w.result, small, zero_point(primes),
                                 checkpoints)
    big_primes = PrimeSet([2, 3])
    big = AdeleVector(big_primes, SQRT2, parts)
    wide = with_extra_primes(w.result, [3])
    s_big = discrepancy_series(wide, big, zero_point(big_primes),
                               checkpoints)
    ok = primes == P2 and small == ALPHA
    for r1, r2 in zip(s_small.records, s_big.records):
        ok = ok and r1.value == r2.value and r1.running_sup == r2.running_sup
    check(8, "integral coordinates reduce away: Q'={2} run equals the "
             "enlarged {2,3} run exactly", ok)
