import math
import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adelicbrs import brs, cutproject
from adelicbrs import (AdelicBox, AdeleVector, ExactReal, FieldMismatch,
                       NegativeIndicator, NegativeVolume, PAdicBall,
                       PrimeSet, SolenoidPoint, WeightedBoxSet, ZeroGamma,
                       allowable_volume, character_volume_identity, choose_n,
                       construct_brs, construct_witness, crt_coset,
                       discrepancy_series, enumerate_volumes, padic_abs,
                       padic_fractional_part, reduce_to_finite,
                       reduce_to_fundamental, witness_flags, zero_point)
from adelicbrs.brs import box_lift_count, count_coset_in_interval, multiplicity
from adelicbrs.solenoid import orbit
from conftest import (lift_count_oracle, multiplicity_oracle, random_alpha,
                      random_gamma, val, with_extra_primes)

P2 = PrimeSet([2])
SQRT2 = ExactReal.sqrt(2)
ALPHA = AdeleVector(P2, SQRT2, {2: Fraction(1, 2)})


def brute_choose_n(alpha, gamma):
    """Smallest n with nonnegative volume whose lambda_1 avoids the
    excluded directions, by plain scan.

    The scan window is seeded by a float estimate of the break-even n;
    every candidate is then checked exactly, so the float only has to
    land within a few dozen of the right spot.
    """
    g = Fraction(gamma)
    est = float(g) * alpha.real.to_float()
    for p, ap in alpha.parts:
        est -= float(padic_fractional_part(g * ap, p))
    lo = int(est) - 4
    for n in range(lo, lo + 40):
        xi = allowable_volume(alpha, gamma, n)
        if xi < 0:
            continue
        g = Fraction(gamma)
        lam1 = ExactReal(n)
        for p, ap in alpha.parts:
            lam1 = lam1 + padic_fractional_part(g * ap, p)
        if any(lam1 == g * ap for p, ap in alpha.parts):
            continue
        return n
    raise AssertionError("no feasible n in scan range")


# --- geometry ---------------------------------------------------------------


def test_ball_contains_and_measure():
    ball = PAdicBall(2, Fraction(1, 2), -1)
    assert ball.measure() == Fraction(1, 2)
    assert PAdicBall(3, Fraction(0), 2).measure() == 9


def test_box_validation_and_volume():
    box = AdelicBox(ExactReal(0), ExactReal(5, -2, 2, 2),
                    (PAdicBall(2, Fraction(0), -1),))
    assert box.volume() == ExactReal(5, -2, 4, 2)
    with pytest.raises(ValueError):
        AdelicBox(ExactReal(1), ExactReal(1), ())
    with pytest.raises(ValueError):
        AdelicBox(ExactReal(0), ExactReal(1),
                  (PAdicBall(3, Fraction(0), 0), PAdicBall(2, Fraction(0), 0)))
    full = AdelicBox.full_domain(PrimeSet([2, 3]))
    assert full.volume() == 1


def test_box_serialize():
    box = AdelicBox(ExactReal(0), ExactReal(5, -2, 2, 2),
                    (PAdicBall(2, Fraction(0), -1),))
    assert box.serialize(1) == "1 | 0 | 5/2 - sqrt(2) | 2:0:-1"
    full = AdelicBox.full_domain(PrimeSet([2, 3]))
    assert full.serialize(-2) == "-2 | 0 | 1 | 2:0:0 3:0:0"


def test_box_with_extra_primes():
    box = AdelicBox(ExactReal(0), ExactReal(1, 0, 2),
                    (PAdicBall(3, Fraction(1, 3), -1),))
    wide = with_extra_primes(box, [2, 5])
    assert wide.volume() == box.volume()
    assert wide.balls[0].p == 2 and wide.balls[0].radius_exponent == 0


def test_weighted_box_set_guards():
    full = AdelicBox.full_domain(P2)
    assert not WeightedBoxSet(((full, -1),), ExactReal(0), 0).certified()
    with pytest.raises(NegativeVolume):
        WeightedBoxSet(((full, 1),), ExactReal(-1), 0)
    ok = WeightedBoxSet(((full, 2), (full, -1)), ExactReal(1), 1)
    assert ok.volume_consistent() and ok.certified()
    assert not WeightedBoxSet(((full, 1),), ExactReal(3, 0, 2),
                              0).volume_consistent()


# --- volumes ----------------------------------------------------------------


def test_allowable_volume_worked_values():
    assert allowable_volume(ALPHA, Fraction(1, 2), 1) == \
        ExactReal(5, -2, 4, 2)
    assert allowable_volume(ALPHA, Fraction(0), 3) == 3
    assert allowable_volume(ALPHA, Fraction(1), 1) == ExactReal(3, -2, 2, 2)


def test_special_gamma():
    # the reduced index +-(p_1*...*p_k)**(-ell) a witness is built from
    two = AdeleVector(PrimeSet([2, 3]), ExactReal(1, 1, 2, 5),
                      {2: Fraction(3, 4), 3: Fraction(2, 3)})
    circle = AdeleVector(PrimeSet(), SQRT2, {})
    for alpha, gamma, reduced, ell in [
            (ALPHA, Fraction(1, 2), Fraction(1, 2), 1),
            (ALPHA, Fraction(-1, 4), Fraction(-1, 4), 2),
            (two, Fraction(1, 36), Fraction(1, 36), 2),
            (circle, Fraction(1), 1, 1),
            (circle, Fraction(-1), -1, 1)]:
        w = construct_witness(alpha, gamma, choose_n(alpha, gamma))
        assert w.gamma == reduced and w.ell == ell


def test_choose_n_matches_brute_scan():
    rng = Random(31)
    assert choose_n(ALPHA, Fraction(1, 2)) == 1
    for _ in range(200):
        alpha = random_alpha(rng)
        gamma = random_gamma(rng, alpha.primes)
        if gamma == 0:
            continue
        assert choose_n(alpha, gamma) == brute_choose_n(alpha, gamma)


def test_enumerate_volumes():
    els = enumerate_volumes(ALPHA, 2)
    vals = [e.value for e in els]
    assert vals == sorted(vals)
    assert all(0 <= e.value <= 2 for e in els)
    # every entry satisfies the defining identity
    for e in els:
        assert allowable_volume(ALPHA, e.gamma, e.n) == e.value
    # no duplicate (gamma, n) pairs
    keys = [(e.gamma, e.n) for e in els]
    assert len(keys) == len(set(keys))
    # the worked example value is present
    assert any(e.gamma == Fraction(1, 2) and e.n == 1
               and e.value == ExactReal(5, -2, 4, 2) for e in els)
    # volumes are dense enough to include an irrational below 1
    assert any(0 < e.value < 1 for e in els)


# --- construction -----------------------------------------------------------


def test_construct_base_worked_example():
    base = construct_witness(ALPHA, Fraction(1, 2), 1)
    assert base.gamma == Fraction(1, 2)
    assert base.lam1 == Fraction(5, 4)
    assert base.lam2 == Fraction(-1, 2)
    assert base.lam == Fraction(-5, 2)
    assert base.box_scale == 1
    assert base.xi == ExactReal(5, -2, 4, 2)
    box = base.base_box
    assert box.lo == 0
    assert box.hi == ExactReal(5, -2, 2, 2)
    assert box.balls == (PAdicBall(2, Fraction(0), -1),)
    assert box.volume() == base.xi
    # window identity: |lam + alpha_real| * |lam + alpha_2|_2 = xi / M
    window = abs(Fraction(base.lam) + ALPHA.real) * Fraction(1, 2)
    assert window * base.box_scale == base.xi


def test_construct_base_box_scale_above_one():
    # alpha_2 = 8 with gamma = -1/2: n0 = 0 and lam = 0, lam + alpha_2 = 8
    # has 2-adic size 1/8, and the box scale comes out to 4
    alpha = AdeleVector(P2, SQRT2, {2: Fraction(8)})
    base = construct_witness(alpha, Fraction(-1, 2), 0)
    assert base.n == 0
    assert base.lam == 0
    assert base.box_scale == 4
    ball = base.base_box.balls[0]
    assert ball.radius_exponent == -3
    assert base.base_box.hi == ExactReal(0, 4, 1, 2)
    assert base.base_box.volume() == base.xi
    assert base.xi == ExactReal(0, 1, 2, 2)


def test_construct_witness_skips_vetoed_n():
    # with alpha_2 = 2 and gamma = 1/2, n = 1 would give lam1 = gamma *
    # alpha_2, so lam + alpha_2 would vanish: choose_n skips it
    alpha = AdeleVector(P2, SQRT2, {2: Fraction(2)})
    w = construct_witness(alpha, Fraction(1, 2), 1)
    assert w.n == 2
    assert w.lam == -4
    assert all(witness_flags(alpha, w.result, w).values())


def test_construct_base_rejects_negative_volume():
    with pytest.raises(NegativeVolume):
        construct_witness(ALPHA, Fraction(1, 2), 0)


def _decomposition(w):
    return w.sign, w.ell, w.n, w.copies, w.surplus


def test_decompose_volume_worked_example():
    sign, ell, n0, copies, surplus = _decomposition(
        construct_witness(ALPHA, Fraction(3, 2), 2))
    assert (sign, ell, n0, copies, surplus) == (1, 1, 1, 3, -1)
    sign, ell, n0, copies, surplus = _decomposition(
        construct_witness(ALPHA, Fraction(1, 2), 1))
    assert (sign, ell, n0, copies, surplus) == (1, 1, 1, 1, 0)


def test_decompose_volume_round_trip_seeded():
    rng = Random(32)
    done = 0
    while done < 120:
        alpha = random_alpha(rng)
        gamma = random_gamma(rng, alpha.primes)
        if gamma == 0:
            continue
        n = rng.randint(-3, 6)
        xi = allowable_volume(alpha, gamma, n)
        if xi < 0:
            with pytest.raises(NegativeVolume):
                construct_witness(alpha, gamma, n)
            continue
        w = construct_witness(alpha, gamma, n)
        sign, ell, n0, copies, surplus = _decomposition(w)
        gs = w.gamma
        assert gamma == copies * gs or alpha.primes == PrimeSet()
        assert copies >= 1
        xi0 = allowable_volume(alpha, gs, n0)
        assert xi == xi0 * copies + surplus
        done += 1


def test_decompose_volume_guards():
    with pytest.raises(ZeroGamma):
        construct_witness(ALPHA, Fraction(0), 1)
    with pytest.raises(NegativeVolume):
        construct_witness(ALPHA, Fraction(1, 2), -1)


def test_construct_brs_gamma_zero():
    with pytest.raises(NegativeVolume):
        construct_brs(ALPHA, Fraction(0), -1)
    empty = construct_brs(ALPHA, Fraction(0), 0)
    assert empty.terms == () and empty.claimed_volume == 0
    full3 = construct_brs(ALPHA, Fraction(0), 3)
    assert full3.claimed_volume == 3
    assert full3.volume_consistent()
    # integer-volume sets built from full domains have zero discrepancy
    s = discrepancy_series(full3, ALPHA, zero_point(P2), [1, 7, 40])
    assert s.records[-1].running_sup == 0


def test_construct_witness_worked_example():
    w = construct_witness(ALPHA, Fraction(1, 2), 1)
    assert w.result.volume_consistent()
    assert w.result.claimed_volume == ExactReal(5, -2, 4, 2)
    assert w.result.certificate == 0
    assert len(w.result.terms) == 1
    assert character_volume_identity(w.result, ALPHA)
    assert multiplicity(w.result, zero_point(P2)) == 1


def test_construct_witness_negative_surplus_certificate():
    w = construct_witness(ALPHA, Fraction(3, 2), 2)
    assert w.copies == 3 and w.surplus == -1
    assert w.result.certificate == 1
    fused = w.result.terms[0][0]
    assert fused.volume().floor() == 1
    assert w.result.volume_consistent()
    assert character_volume_identity(w.result, ALPHA)
    # indicator stays nonnegative along an orbit stretch
    for x in _orbit_points(ALPHA, 50):
        assert multiplicity(w.result, x) >= 0


def _orbit_points(alpha, n):
    return orbit(alpha, zero_point(alpha.primes), n)


def test_construct_witness_seeded_properties():
    rng = Random(33)
    done = 0
    while done < 60:
        alpha = random_alpha(rng)
        gamma = random_gamma(rng, alpha.primes)
        if gamma == 0:
            continue
        n = choose_n(alpha, gamma) + rng.randint(0, 2)
        w = construct_witness(alpha, gamma, n)
        assert w.result.volume_consistent()
        assert character_volume_identity(w.result, alpha)
        assert w.result.claimed_volume == allowable_volume(alpha, gamma, n)
        # window identity for the base construction
        window = abs(Fraction(w.lam) + alpha.real)
        for p, ap in alpha.parts:
            window = window * padic_abs(Fraction(w.lam) + ap, p)
        assert window * w.box_scale == w.xi
        assert w.box_scale >= 1
        assert all(witness_flags(alpha, w.result, w).values())
        done += 1


def test_construct_witness_keeps_lambda_nondegenerate_seeded():
    # construct_witness relies on this without checking it: choose_n
    # keeps lam1 + lam2*alpha_p away from 0, and each of its terms
    # {g0*alpha_q}_q (q != p), n0 and {g0*alpha_p}_p - g0*alpha_p is
    # p-integral, so box_scale is a product of nonnegative prime powers
    rng = Random(19)
    done = 0
    while done < 200:
        alpha = random_alpha(rng)
        gamma = random_gamma(rng, alpha.primes)
        if gamma == 0:
            continue
        n = choose_n(alpha, gamma) + rng.randint(0, 2)
        assert allowable_volume(alpha, gamma, n) >= 0
        w = construct_witness(alpha, gamma, n)
        for p, ap in alpha.parts:
            z = w.lam1 + w.lam2 * ap
            assert z != 0 and val(z, p) >= 0, (alpha, gamma, p)
        done += 1


# --- counting ---------------------------------------------------------------


def test_count_coset_in_interval_table():
    assert count_coset_in_interval(Fraction(0), Fraction(1), 0, 3) == 3
    assert count_coset_in_interval(Fraction(1, 2), Fraction(1, 3), 0, 1) == 3
    assert count_coset_in_interval(Fraction(0), Fraction(1), 0,
                                   ExactReal.sqrt(2)) == 2
    assert count_coset_in_interval(Fraction(5), Fraction(2), 0, 2) == 1
    assert count_coset_in_interval(Fraction(0), Fraction(1), 2, 2) == 0
    with pytest.raises(ValueError):
        count_coset_in_interval(Fraction(0), Fraction(0), 0, 1)


def test_count_coset_half_open_convention():
    # hi is excluded, lo included
    assert count_coset_in_interval(Fraction(0), Fraction(1, 2), 0, 1) == 2
    assert count_coset_in_interval(Fraction(0), Fraction(1, 2),
                                   Fraction(1, 2), 1) == 1


def test_count_coset_brute_seeded():
    rng = Random(34)
    for _ in range(300):
        c = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
        delta = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        lo = Fraction(rng.randint(-10, 10), rng.randint(1, 4))
        hi = lo + Fraction(rng.randint(0, 12), rng.randint(1, 4))
        expected = 0
        k = -200
        while c + k * delta < hi:
            if c + k * delta >= lo:
                expected += 1
            k += 1
        assert count_coset_in_interval(c, delta, lo, hi) == expected


def test_box_lift_count_against_enumeration():
    rng = Random(35)
    # worked example box first
    w = construct_witness(ALPHA, Fraction(1, 2), 1)
    box = w.result.terms[0][0]
    for x in _orbit_points(ALPHA, 80):
        assert box_lift_count(box, x) == lift_count_oracle(box, x)
    # then random boxes at random reduced points
    for _ in range(120):
        alpha = random_alpha(rng)
        balls = tuple(PAdicBall(p, Fraction(rng.randint(-4, 4),
                                            p ** rng.randint(0, 1)),
                                rng.randint(-2, 1))
                      for p in alpha.primes)
        lo = ExactReal(rng.randint(-4, 4), 0, rng.randint(1, 3))
        box = AdelicBox(lo, lo + ExactReal(rng.randint(1, 12), 0,
                                           rng.randint(1, 3)), balls)
        from adelicbrs import reduce_to_fundamental
        x, _ = reduce_to_fundamental(alpha.scale(rng.randint(-5, 5)))
        assert box_lift_count(box, x) == lift_count_oracle(box, x)


def test_multiplicity_negative_indicator():
    # a lying certificate gets caught at evaluation time
    small = AdelicBox(ExactReal(0), ExactReal(1, 0, 100),
                      (PAdicBall(2, Fraction(0), 0),))
    bad = WeightedBoxSet(((small, 1), (AdelicBox.full_domain(P2), -1)),
                         small.volume() - 1 + 1, 1)
    x, _ = _reduce(ALPHA)
    with pytest.raises(NegativeIndicator):
        multiplicity(bad, x)
    # the series starts inside the small box and fails one step later, at
    # x, and names the total and the step rather than the reduced point
    with pytest.raises(NegativeIndicator) as series:
        discrepancy_series(bad, ALPHA, zero_point(P2), [10])
    assert str(series.value) == "indicator -1 at step 1"


def _reduce(v):
    from adelicbrs import reduce_to_fundamental
    return reduce_to_fundamental(v)


# --- discrepancy ------------------------------------------------------------


def test_discrepancy_series_worked_example_prefix():
    w = construct_witness(ALPHA, Fraction(1, 2), 1)
    s = discrepancy_series(w.result, ALPHA, zero_point(P2), [1, 2, 3, 35])
    assert s.records[0].value == ExactReal(-1, 2, 4, 2)
    # D_2 = 2 - 2*xi
    assert s.records[1].value == ExactReal(2) - w.xi * 2
    assert s.sup_at == 35
    assert s.records[-1].running_sup == ExactReal(-95, 70, 4, 2)


def test_discrepancy_series_matches_brute_force():
    w = construct_witness(ALPHA, Fraction(3, 2), 2)
    boxset = w.result
    checkpoints = list(range(1, 41))
    s = discrepancy_series(boxset, ALPHA, zero_point(P2), checkpoints)
    acc = 0
    sup = ExactReal(0)
    for k, x in enumerate(_orbit_points(ALPHA, 40)):
        acc += multiplicity_oracle(boxset, x)
        d = ExactReal(acc) - boxset.claimed_volume * (k + 1)
        sup = max(sup, abs(d))
        assert s.records[k].value == d
        assert s.records[k].running_sup == sup


def _scalar_series(boxset, alpha, x0, checkpoints, count=multiplicity):
    """discrepancy_series by the scalar route: orbit plus a lift count
    per point, with ExactReal arithmetic throughout."""
    marks = set(checkpoints)
    acc, sup, sup_at, records = 0, ExactReal(0), 0, []
    for k, x in enumerate(orbit(alpha, x0, max(checkpoints))):
        acc += count(boxset, x)
        d = boxset.claimed_volume * -(k + 1) + acc
        if abs(d) > sup:
            sup, sup_at = abs(d), k + 1
        if k + 1 in marks:
            records.append((k + 1, d.exact_str(), sup.exact_str()))
    return records, sup.exact_str(), sup_at


def _kernel_series(boxset, alpha, x0, checkpoints):
    s = discrepancy_series(boxset, alpha, x0, checkpoints)
    return ([(r.n, r.value.exact_str(), r.running_sup.exact_str())
             for r in s.records], s.records[-1].running_sup.exact_str(),
            s.sup_at)


def _random_start(rng, alpha):
    """A reduced start point; p-adic parts may carry foreign primes."""
    if rng.random() < 0.5:
        real = ExactReal.from_rational(Fraction(rng.randrange(1000), 1000))
    else:
        real = ExactReal(rng.randint(-9, 9), rng.randint(-3, 3),
                         rng.randint(1, 7), alpha.real.d)
    parts = {p: Fraction(rng.randint(-300, 300),
                         rng.choice((1, 3, 5, 7, p, p * p, 7 * p)))
             for p in alpha.primes}
    return reduce_to_fundamental(AdeleVector(alpha.primes, real, parts))[0]


def _random_boxset(rng, alpha):
    """A construction (possibly with negative surplus) or a control set
    of one or two random boxes with positive weights."""
    if rng.random() < 0.5:
        gamma = random_gamma(rng, alpha.primes)
        if gamma != 0:
            n = choose_n(alpha, gamma) + rng.randint(0, 2)
            return construct_witness(alpha, gamma, n).result
    terms = []
    for _ in range(rng.randint(1, 2)):
        balls = tuple(PAdicBall(p, Fraction(rng.randint(-4, 4),
                                            p ** rng.randint(0, 1)),
                                rng.randint(-3, 1))
                      for p in alpha.primes)
        lo = ExactReal(rng.randint(-4, 4), 0, rng.randint(1, 3))
        hi = lo + ExactReal(rng.randint(1, 12), 0, rng.randint(1, 3))
        if rng.random() < 0.5:
            hi = hi + abs(alpha.real)
        terms.append((AdelicBox(lo, hi, balls), rng.randint(1, 2)))
    volume = sum((box.volume() * w for box, w in terms), ExactReal(0))
    return WeightedBoxSet(tuple(terms), volume, 0)


def _random_case(seed, nprimes):
    """A rotation over nprimes primes, a box set, a start point and up to
    four checkpoints up to 150, all drawn from seed."""
    rng = Random(seed)
    alpha = random_alpha(rng)
    while len(alpha.primes) != nprimes:
        alpha = random_alpha(rng)
    boxset = _random_boxset(rng, alpha)
    x0 = _random_start(rng, alpha)
    goal = rng.randint(1, 150)
    checkpoints = sorted({goal, *rng.sample(range(1, goal + 1),
                                           min(goal, 3))})
    return alpha, boxset, x0, checkpoints


@pytest.mark.parametrize("nprimes", [0, 1, 2])
@given(seed=st.integers(0, 2 ** 32))
def test_discrepancy_series_matches_scalar_route(nprimes, seed):
    alpha, boxset, x0, checkpoints = _random_case(seed, nprimes)
    got = _kernel_series(boxset, alpha, x0, checkpoints)
    assert got == _scalar_series(boxset, alpha, x0, checkpoints)
    if checkpoints[-1] <= 12:
        assert got == _scalar_series(boxset, alpha, x0, checkpoints,
                                     multiplicity_oracle)


@pytest.mark.parametrize("alpha,gamma,n", [
    (AdeleVector(PrimeSet(), SQRT2, {}), Fraction(1), 2),
    (ALPHA, Fraction(3, 2), 2),  # negative surplus
    (AdeleVector(PrimeSet([2, 3]), ExactReal(1, 1, 2, 5),
                 {2: Fraction(3, 4), 3: Fraction(2, 3)}), Fraction(5, 6), 2),
])
def test_discrepancy_series_matches_scalar_route_long(alpha, gamma, n):
    boxset = construct_brs(alpha, gamma, n)
    x0 = _random_start(Random(61), alpha)
    checkpoints = [1, 10, 100, 1000, 2000]
    assert _kernel_series(boxset, alpha, x0, checkpoints) == \
        _scalar_series(boxset, alpha, x0, checkpoints)


def test_lift_counts_solves_each_coset_once(monkeypatch):
    # the two_primes construction: a 2**2 * 3**3 box, 108 residue classes
    alpha = AdeleVector(PrimeSet([2, 3]), ExactReal(1, 1, 2, 5),
                        {2: Fraction(3, 4), 3: Fraction(2, 3)})
    boxset = construct_brs(alpha, Fraction(5, 6), 2)
    calls = []

    def counting(constraints):
        calls.append(constraints)
        return crt_coset(constraints)

    monkeypatch.setattr(brs, "crt_coset", counting)
    counts = []
    for n in (10, 2000):
        calls.clear()
        discrepancy_series(boxset, alpha, zero_point(alpha.primes), [n])
        counts.append(len(calls))
    assert counts[0] == counts[1] <= len(boxset.terms) + 1


def _calls(monkeypatch, name="_floor_a_plus_b_sqrt_d"):
    """The argument tuples of every later call of brs.<name>, except the
    floor of sqrt(d) * 2**P that brs._fixed_point takes once per stage: the
    calls counted are the per-step exact fallbacks."""
    calls = []
    run = getattr(brs, name)

    def counting(*args):
        if sys._getframe(1).f_code is not brs._fixed_point.__code__:
            calls.append(args)
        return run(*args)

    monkeypatch.setattr(brs, name, counting)
    return calls


def _scalar_totals(terms, alpha, x0, n):
    return [sum(w * box_lift_count(box, x) for box, w in terms)
            for x in orbit(alpha, x0, n)]


ALPHA23 = AdeleVector(PrimeSet([2, 3]), ExactReal(1, 1, 2, 5),
                      {2: Fraction(3, 4), 3: Fraction(2, 3)})


def _spaced_box(alpha, a, k, delta):
    """[a, a + k*delta) times the 2-adic ball of coset spacing delta."""
    exponent = -(delta.bit_length() - 1)
    balls = tuple(PAdicBall(p, Fraction(1, 3) if p == 2 else Fraction(0),
                            exponent if p == 2 else 0)
                  for p in alpha.primes)
    return AdelicBox(ExactReal.from_rational(a),
                     ExactReal.from_rational(a + k * delta), balls)


@pytest.mark.parametrize("seed", range(4))
def test_lift_totals_constant_terms_match_scalar_route(monkeypatch, seed):
    rng = Random(seed)
    n = 60
    walked = construct_brs(ALPHA23, Fraction(5, 6), 2).terms[0]
    for alpha in (ALPHA, ALPHA23):
        x0 = _random_start(rng, alpha)
        full = AdelicBox.full_domain(alpha.primes)
        sets = [[(full, w)] for w in (1, -3, 2)]
        sets += [[(_spaced_box(alpha, Fraction(rng.randint(-20, 20),
                                               rng.randint(1, 9)), k, delta),
                   rng.choice((1, -3, 2)))]
                 for k in (1, 2, 4) for delta in (1, 2, 4)]
        for terms in sets:  # every term has a constant count: no floor
            calls = _calls(monkeypatch)
            got = list(brs._lift_totals(terms, alpha, x0, n))
            assert calls == []
            assert got == _scalar_totals(terms, alpha, x0, n)
            assert len(set(got)) == 1
        # a length of 5/4 coset spacings is rational and is walked: the
        # fixed-point floors fall back to the exact one only on a tie, an
        # end whose sqrt(d) coefficient is 0 landing on an integer
        box = _spaced_box(alpha, Fraction(1, 3), Fraction(5, 4), 2)
        mixed = [(box, 2), (full, -3), (full, 1)]
        calls = _calls(monkeypatch)
        got = list(brs._lift_totals(mixed, alpha, x0, n))
        assert len(calls) <= 2
        assert all(b == 0 for _, b, _, _ in calls)
        assert got == _scalar_totals(mixed, alpha, x0, n)
        if alpha is ALPHA23:
            terms = [walked, (full, -3), (full, 2)]
            assert list(brs._lift_totals(terms, alpha, x0, n)) == \
                _scalar_totals(terms, alpha, x0, n)


def test_fixed_point_root_is_the_integer_square_root():
    # S = floor(sqrt(d) * 2**P) comes from the exact floor, and is the
    # integer square root of d * 4**P
    for d in (2, 3, 5, 6, 7, 10, 13, 999999999989):
        for bound in (1, 7, 2 ** 40, 3 ** 200):
            shift, root = brs._fixed_point(d, bound)
            assert shift == bound.bit_length() + brs._GUARD_BITS
            assert root == math.isqrt(d << 2 * shift)
    assert brs._fixed_point(0, 5) == brs._fixed_point(2, 0) == (0, 0)


def test_discrepancy_series_two_primes_takes_few_exact_floors(monkeypatch):
    # one walked box and one full-domain box of weight -3, which needs no
    # floor.  The walked box's two ends are floored in fixed point, and
    # the orbit point is not floored at all; only at k = 0, where the
    # zero start point makes the box edge at 0 a rational integer, does
    # the exact floor run
    boxset = construct_brs(ALPHA23, Fraction(5, 6), 2)
    assert [w for _, w in boxset.terms] == [1, -3]
    for n in (10, 500):
        calls = _calls(monkeypatch)
        discrepancy_series(boxset, ALPHA23, zero_point(ALPHA23.primes), [n])
        assert len(calls) == 1
        assert all(b == 0 for _, b, _, _ in calls)


CIRCLE = AdeleVector(PrimeSet(), SQRT2, {})


def _shipped(name):
    """The rotation and box set of a shipped config; each starts at 0."""
    if name == "control_box":
        box = AdelicBox(ExactReal(0), ExactReal(1, 0, 2),
                        (PAdicBall(2, Fraction(0), 0),))
        return ALPHA, WeightedBoxSet(((box, 1),), box.volume(), 0)
    alpha, gamma, n = {"worked_example": (ALPHA, Fraction(1, 2), 1),
                       "circle": (CIRCLE, Fraction(1), 2),
                       "two_primes": (ALPHA23, Fraction(5, 6), 2)}[name]
    return alpha, construct_brs(alpha, gamma, n)


def _refused(*args):
    raise AssertionError("the _walk_arc chain ran")


@pytest.mark.parametrize("name,band", [
    ("worked_example", 0), ("circle", 0), ("two_primes", 0),
    ("control_box", 212)])
def test_discrepancy_series_shipped_configs_take_few_exact_routes(
        monkeypatch, name, band):
    # each shipped config walks one arc, inside discrepancy_series, and
    # at N = 1e5 takes the exact route exactly where the _walk_arc chain
    # does: one exact floor and one sign test at k = 0, where the start
    # point 0 puts the walked point on a rational integer, and on
    # control_box, whose volume 1/2 is rational, two sign tests at each
    # of the 106 steps where |D_N| equals the running sup
    alpha, boxset = _shipped(name)
    monkeypatch.setattr(brs, "_chain", _refused)
    floors = _calls(monkeypatch)
    signs = _calls(monkeypatch, "_sign_a_plus_b_sqrt_d")
    discrepancy_series(boxset, alpha, zero_point(alpha.primes), [10 ** 5])
    assert [b for _, b, _, _ in floors] == [0]
    assert len(signs) == 1 + band


@pytest.mark.parametrize("guard", [32, 0, -10 ** 6])
def test_walk_decides_exact_ties_like_the_scalar_route(monkeypatch, guard):
    # over ALPHA the coset points of the box [lo, hi) x Z_2 at step k are
    # k*beta + Z, beta = sqrt(2) - 1/2.  lo = 2*beta - 2 is one at k = 2,
    # where the walked point is an integer (counted, the box is closed
    # there), and hi = 5*beta - 4 one at k = 5, where the point's
    # fractional part equals the width's (not counted, open there)
    beta = SQRT2 - Fraction(1, 2)
    box = AdelicBox(beta * 2 - 2, beta * 5 - 4,
                    (PAdicBall(2, Fraction(0), 0),))
    monkeypatch.setattr(brs, "_GUARD_BITS", guard)
    floors = _calls(monkeypatch)
    signs = _calls(monkeypatch, "_sign_a_plus_b_sqrt_d")
    n = 40
    x0 = zero_point(P2)
    got = list(brs._lift_totals([(box, 1)], ALPHA, x0, n))
    assert got == [box_lift_count(box, x) for x in orbit(ALPHA, x0, n)]
    assert got[2] == 1 and got[5] == 0
    # at guard 32 the exact route runs twice, at the integer and at the
    # tie at k = 5: each time one exact floor and one sign test
    if guard == 32:
        assert [b for _, b, _, _ in floors] == [0, 6]
        assert len(signs) == 2
    assert list(cutproject._window_counts(box, ALPHA, n)) == \
        [cutproject.window_multiplicity(box, ALPHA, k) for k in range(n)]


def _one_arc_cases(nprimes):
    """A random construction and a random control set over nprimes
    primes, each walking one arc, with random start points."""
    cases = {}
    seed = 0
    while len(cases) < 2:
        rng = Random(seed)
        seed += 1
        alpha = random_alpha(rng)
        if len(alpha.primes) != nprimes:
            continue
        boxset = _random_boxset(rng, alpha)
        x0 = _random_start(rng, alpha)
        if len(brs._arcs(boxset.terms, alpha, x0)[1]) == 1:
            cases.setdefault(boxset.source_gamma is None,
                             (alpha, boxset, x0))
    return list(cases.values())


def _chain_route(boxset):
    """The set with a weight-0 copy of each term: the same counts and
    volume, but two walked arcs, so that discrepancy_series adds the
    totals of the _walk_arc chain."""
    idle = tuple((box, 0) for box, _ in boxset.terms)
    return WeightedBoxSet(boxset.terms + idle, boxset.claimed_volume, 0)


def _one_arc_routes_agree(monkeypatch, boxset, alpha, x0, checkpoints,
                          want):
    for guard in (32, 0, -10 ** 6):
        with monkeypatch.context() as mp:
            mp.setattr(brs, "_GUARD_BITS", guard)
            assert _kernel_series(_chain_route(boxset), alpha, x0,
                                  checkpoints) == want
            mp.setattr(brs, "_chain", _refused)
            assert _kernel_series(boxset, alpha, x0, checkpoints) == want


@pytest.mark.parametrize("nprimes", [0, 1, 2])
def test_one_arc_series_matches_chain_and_scalar_routes(monkeypatch,
                                                        nprimes):
    # at guard 0 the certified ranges are as narrow as they may be, and
    # at -10**6 P = 0, so nearly every step takes the exact route of the
    # arc and of the sup; checkpoints 1 and 2 make segments of one step
    checkpoints = [1, 2, 37, 500, 1999, 2000]
    for alpha, boxset, x0 in _one_arc_cases(nprimes):
        want = _scalar_series(boxset, alpha, x0, checkpoints)
        _one_arc_routes_agree(monkeypatch, boxset, alpha, x0, checkpoints,
                              want)


def test_one_arc_series_decides_exact_ties(monkeypatch):
    # the tie box of test_walk_decides_exact_ties_like_the_scalar_route:
    # its walked point is an integer at k = 2 and on its threshold at
    # k = 5, and at guard 32 the one-arc loop takes the exact route there
    # and nowhere else, as the chain does
    beta = SQRT2 - Fraction(1, 2)
    box = AdelicBox(beta * 2 - 2, beta * 5 - 4,
                    (PAdicBall(2, Fraction(0), 0),))
    boxset = WeightedBoxSet(((box, 1),), box.volume(), 0)
    x0 = zero_point(P2)
    checkpoints = [1, 2, 3, 5, 6, 40]
    want = _scalar_series(boxset, ALPHA, x0, checkpoints)
    _one_arc_routes_agree(monkeypatch, boxset, ALPHA, x0, checkpoints, want)
    monkeypatch.setattr(brs, "_chain", _refused)
    floors = _calls(monkeypatch)
    signs = _calls(monkeypatch, "_sign_a_plus_b_sqrt_d")
    assert _kernel_series(boxset, ALPHA, x0, checkpoints) == want
    assert [b for _, b, _, _ in floors] == [0, 6]
    assert len(signs) == 2


def test_one_arc_series_with_negative_weight(monkeypatch):
    # a box of weight -1 under two full-domain terms: the count is 1 on
    # the arc and 2 off it, so D_N moves down on the arc and up off it,
    # the other way round from a box of positive weight
    for alpha in (CIRCLE, ALPHA, ALPHA23):
        full = AdelicBox.full_domain(alpha.primes)
        balls = tuple(PAdicBall(p, Fraction(0), 0) for p in alpha.primes)
        box = AdelicBox(ExactReal(0), alpha.real - alpha.real.floor(), balls)
        terms = ((box, -1), (full, 2))
        boxset = WeightedBoxSet(terms, full.volume() * 2 - box.volume(), 0)
        x0 = _random_start(Random(11), alpha)
        const, arcs = brs._arcs(terms, alpha, x0)
        assert const == 2 and [w for w, *_ in arcs] == [-1]
        checkpoints = [1, 3, 250, 700]
        want = _scalar_series(boxset, alpha, x0, checkpoints)
        _one_arc_routes_agree(monkeypatch, boxset, alpha, x0, checkpoints,
                              want)


def test_one_arc_series_names_a_negative_count_like_the_chain():
    # a box of weight -2 over one full-domain term counts -1 on the arc:
    # the series fails at the first step on the arc, with the message
    # the chain gives, and it does not matter which way it walks
    full = AdelicBox.full_domain(P2)
    box = AdelicBox(ExactReal(1, 0, 3), ExactReal(1, 0, 3) + SQRT2 - 1,
                    (PAdicBall(2, Fraction(0), 0),))
    boxset = WeightedBoxSet(((box, -2), (full, 1)), ExactReal(0), 0)
    x0 = _random_start(Random(5), ALPHA)
    counts = [box_lift_count(box, x) for x in orbit(ALPHA, x0, 50)]
    k = counts.index(1)
    assert k > 0
    for checkpoints in ([k + 1], [1, 50]):
        with pytest.raises(NegativeIndicator) as series:
            discrepancy_series(boxset, ALPHA, x0, checkpoints)
        assert str(series.value) == f"indicator -1 at step {k}"
    with pytest.raises(NegativeIndicator) as chain:
        discrepancy_series(_chain_route(boxset), ALPHA, x0, [50])
    assert str(chain.value) == str(series.value)


def test_walk_threshold_margin_covers_the_width(monkeypatch):
    # a width m*sqrt(2) + j has a fixed-point threshold off by up to |m|,
    # far more than a short walk's point (step coefficient 1): with
    # guard 0 a margin that left out |m| on either side of the threshold
    # would certify wrong counts
    monkeypatch.setattr(brs, "_GUARD_BITS", 0)
    rng = Random(5)
    x0 = zero_point(P2)
    for m in range(100, 300):
        s = SQRT2 * (m * rng.choice((1, -1)))
        lo = ExactReal.from_rational(Fraction(rng.randint(-9, 9),
                                              rng.randint(1, 5)))
        box = AdelicBox(lo, lo + s - s.floor() + rng.randint(0, 2),
                        (PAdicBall(2, Fraction(0), 0),))
        want = [box_lift_count(box, x) for x in orbit(ALPHA, x0, 4)]
        assert list(brs._lift_totals([(box, 1)], ALPHA, x0, 4)) == want
        assert list(cutproject._window_counts(box, ALPHA, 4)) == want


@pytest.mark.parametrize("guard", [32, 0, -10 ** 6])
def test_walk_sizes_each_stage_for_its_own_box(monkeypatch, guard):
    # the sqrt(2) coefficients of the two boxes' ends differ by about
    # 10**12, so their stages keep the point in fixed point at different
    # P; the stages commute, so the order of the terms does not matter
    monkeypatch.setattr(brs, "_GUARD_BITS", guard)
    shifts = []
    sizing = brs._fixed_point

    def recording(d, bound):
        shift, root = sizing(d, bound)
        shifts.append(shift)
        return shift, root

    monkeypatch.setattr(brs, "_fixed_point", recording)
    ball = (PAdicBall(2, Fraction(1, 3), -1),)
    small = AdelicBox(ExactReal(1, 1, 3, 2), ExactReal(5, 2, 4, 2), ball)
    lo = ExactReal(1, -10 ** 12, 7, 2)
    large = AdelicBox(lo, lo + ExactReal(2, 10 ** 12 + 3, 5, 2), ball)
    terms = [(small, 2), (large, -1)]
    n = 60
    x0 = _random_start(Random(7), ALPHA)
    want = _scalar_totals(terms, ALPHA, x0, n)
    assert list(brs._lift_totals(terms, ALPHA, x0, n)) == want
    assert list(brs._lift_totals(terms[::-1], ALPHA, x0, n)) == want
    if guard >= 0:
        assert len(set(shifts)) == 2
        assert max(shifts) - min(shifts) >= 30


def test_walk_of_no_terms_yields_its_seed():
    # a set with no terms builds no stage: the chain is its seed alone
    x0 = zero_point(P2)
    assert list(brs._lift_totals((), ALPHA, x0, 5)) == [0] * 5
    assert list(brs._lift_totals((), ALPHA, x0, 0)) == []
    empty = construct_brs(ALPHA, Fraction(0), 0)
    s = discrepancy_series(empty, ALPHA, x0, [1, 7, 40])
    assert [r.n for r in s.records] == [1, 7, 40]
    assert all(r.value == 0 and r.running_sup == 0 for r in s.records)
    assert s.sup_at == 0


@pytest.mark.parametrize("guard", [0, -10 ** 6])
@pytest.mark.parametrize("nprimes", [0, 1, 2])
def test_fixed_point_fallbacks_match_scalar_route(monkeypatch, guard, nprimes):
    # a guard of 0 leaves 2**P just above the error bound, so the
    # certified windows are narrow; a guard of -10**6 gives P = 0, where
    # nearly every floor and sup update takes the exact route
    monkeypatch.setattr(brs, "_GUARD_BITS", guard)
    floors = _calls(monkeypatch)
    signs = _calls(monkeypatch, "_sign_a_plus_b_sqrt_d")
    steps = 0
    for seed in range(12):
        alpha, boxset, x0, checkpoints = _random_case(seed, nprimes)
        goal = checkpoints[-1]
        steps += goal
        assert list(brs._lift_totals(boxset.terms, alpha, x0, goal)) == \
            _scalar_totals(boxset.terms, alpha, x0, goal)
        assert _kernel_series(boxset, alpha, x0, checkpoints) == \
            _scalar_series(boxset, alpha, x0, checkpoints)
    assert floors and signs
    if guard < 0:
        assert len(floors) > steps


_COEF = st.integers(-10 ** 12, 10 ** 12)


@st.composite
def _large_case(draw):
    """A rotation, a reduced start point and a positive box set over Q = {}
    or one prime, every coefficient up to about 10**12."""
    d = draw(st.sampled_from((2, 3, 5, 7)))
    primes = PrimeSet(draw(st.sampled_from(([], [2], [3]))))

    def real(irrational=False):
        b = draw(_COEF.filter(bool) if irrational else _COEF)
        return ExactReal(draw(_COEF), b, draw(st.integers(1, 10 ** 12)), d)

    def parts():
        return {p: Fraction(draw(_COEF), p ** draw(st.integers(0, 3)))
                for p in primes}

    alpha = AdeleVector(primes, real(irrational=True), parts())
    x0 = reduce_to_fundamental(AdeleVector(primes, real(), parts()))[0]
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        lo = real()
        width = abs(real()) or ExactReal(1)
        balls = tuple(PAdicBall(p, center, draw(st.integers(-3, 1)))
                      for p, center in parts().items())
        terms.append((AdelicBox(lo, lo + width, balls),
                      draw(st.integers(1, 3))))
    volume = sum((box.volume() * w for box, w in terms), ExactReal(0))
    return alpha, x0, WeightedBoxSet(tuple(terms), volume, 0)


@pytest.mark.parametrize("guard", [brs._GUARD_BITS, 0])
@given(case=_large_case())
def test_fixed_point_sizing_on_large_coefficients(guard, case):
    # the margins grow with the coefficients the walk reaches: with
    # guard 0 the certified windows are as narrow as they may be, and a
    # margin too small would certify a wrong floor; with the shipped
    # guard the exact floor runs only on ties, at rational values
    alpha, x0, boxset = case
    n = 40
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(brs, "_GUARD_BITS", guard)
        floors = _calls(mp)
        assert list(brs._lift_totals(boxset.terms, alpha, x0, n)) == \
            _scalar_totals(boxset.terms, alpha, x0, n)
        assert _kernel_series(boxset, alpha, x0, [1, 7, n]) == \
            _scalar_series(boxset, alpha, x0, [1, 7, n])
    if guard:
        assert all(b == 0 for _, b, _, _ in floors)


def test_discrepancy_series_rejects_mixed_fields():
    w = construct_witness(ALPHA, Fraction(1, 2), 1)
    x3 = SolenoidPoint(P2, ExactReal(0, 1, 3, 3))  # sqrt(3)/3
    with pytest.raises(FieldMismatch):
        discrepancy_series(w.result, ALPHA, x3, [5])
    box3 = AdelicBox(ExactReal(0), ExactReal(0, 1, 3, 3),
                     (PAdicBall(2, Fraction(0), 0),))
    with pytest.raises(FieldMismatch):
        discrepancy_series(WeightedBoxSet(((box3, 1),), box3.volume(), 0),
                           ALPHA, zero_point(P2), [5])


def test_discrepancy_checkpoint_validation():
    w = construct_witness(ALPHA, Fraction(1, 2), 1)
    with pytest.raises(ValueError):
        discrepancy_series(w.result, ALPHA, zero_point(P2), [])
    with pytest.raises(ValueError):
        discrepancy_series(w.result, ALPHA, zero_point(P2), [0, 5])


def test_control_box_discrepancy_grows():
    control = AdelicBox(ExactReal(0), ExactReal(1, 0, 2),
                        (PAdicBall(2, Fraction(0), 0),))
    boxset = WeightedBoxSet(((control, 1),), control.volume(), 0)
    s = discrepancy_series(boxset, ALPHA, zero_point(P2), [100, 1000, 4000])
    sups = [r.running_sup for r in s.records]
    assert sups[0] < sups[1] < sups[2]


def test_character_volume_identity_negative_case():
    w = construct_witness(ALPHA, Fraction(1, 2), 1)
    fake = WeightedBoxSet(w.result.terms, w.result.claimed_volume
                          + Fraction(1, 3), 0, w.result.source_gamma,
                          w.result.source_n)
    assert not character_volume_identity(fake, ALPHA)
    anon = WeightedBoxSet(w.result.terms, w.result.claimed_volume, 0)
    with pytest.raises(ValueError):
        character_volume_identity(anon, ALPHA)


# --- sparse reduction -------------------------------------------------------


def test_reduce_to_finite_drops_integral_coordinates():
    parts = {2: Fraction(1, 2), 3: Fraction(5)}
    assert reduce_to_finite(SQRT2, parts, Fraction(1, 2)).primes == P2
    assert reduce_to_finite(SQRT2, parts, Fraction(1, 6)).primes == \
        PrimeSet([2, 3])
    assert reduce_to_finite(SQRT2, parts, Fraction(5)).primes == P2
    assert reduce_to_finite(SQRT2, {}, Fraction(7)).primes == PrimeSet()


def test_restrict_and_equivalence_of_enlarged_prime_set():
    parts = {2: Fraction(1, 2), 3: Fraction(5)}
    small = reduce_to_finite(SQRT2, parts, Fraction(1, 2))
    big = AdeleVector(PrimeSet([2, 3]), SQRT2, parts)
    assert small == ALPHA
    assert big.part(3) == 5
    w_small = construct_witness(small, Fraction(1, 2), 1)
    checkpoints = [10, 100, 400]
    s_small = discrepancy_series(w_small.result, small,
                                 zero_point(small.primes), checkpoints)
    wide = with_extra_primes(w_small.result, [3])
    s_big = discrepancy_series(wide, big, zero_point(big.primes),
                               checkpoints)
    for r1, r2 in zip(s_small.records, s_big.records):
        assert r1.value == r2.value
        assert r1.running_sup == r2.running_sup
    assert s_small.records[-1].running_sup == s_big.records[-1].running_sup
