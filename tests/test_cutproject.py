from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from adelicbrs import (AdelicBox, AdeleVector, ExactReal, PAdicBall,
                       PrimeSet, WeightedBoxSet, brs, choose_n, construct_brs,
                       construct_witness, correspondence_check, zero_point)
from adelicbrs.brs import box_lift_count
from adelicbrs.cutproject import _window_counts, window_multiplicity
from adelicbrs.errors import FieldMismatch
from adelicbrs.exact import crt_coset
from adelicbrs.solenoid import orbit
from conftest import (lift_count_oracle, random_alpha, random_gamma, scaled,
                      val)

P2 = PrimeSet([2])
SQRT2 = ExactReal(0, 1, 1, 2)
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
    return lift_count_oracle(box, scaled(alpha, Fraction(gamma1)))


def test_correspondence_points_scan_candidates():
    w = construct_witness(ALPHA, Fraction(1, 2), 1)
    box = w.result.terms[0][0]
    pts, agrees = correspondence_check(w.result, ALPHA, 10)
    assert agrees is True
    assert [(k, m) for k, m in enumerate(pts) if m] == \
        [(0, 1), (1, 1), (3, 1), (5, 1), (7, 1), (9, 1)]
    # the points are the primary box's nonzero window counts, candidate
    # by candidate
    pts, agrees = correspondence_check(w.result, ALPHA, 200)
    assert agrees is True
    assert [(k, m) for k, m in enumerate(pts) if m] == [
        (g1, m) for g1 in range(200)
        if (m := window_multiplicity(box, ALPHA, g1)) > 0]
    # one count per candidate
    assert len(pts) == 200


def test_cutproject_counts_match_lift_counts_along_orbit():
    w = construct_witness(ALPHA, Fraction(1, 2), 1)
    box = w.result.terms[0][0]
    for g1, x in enumerate(orbit(ALPHA, zero_point(P2), 120)):
        assert window_multiplicity(box, ALPHA, g1) == box_lift_count(box, x)


def test_correspondence_check_worked_example():
    w = construct_witness(ALPHA, Fraction(1, 2), 1)
    _, agrees = correspondence_check(w.result, ALPHA, 150)
    assert agrees is True
    w2 = construct_witness(ALPHA, Fraction(3, 2), 2)
    _, agrees = correspondence_check(w2.result, ALPHA, 60)
    assert agrees is True


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
        _, agrees = correspondence_check(w.result, alpha, 25)
        assert agrees is True
        done += 1


def test_full_domain_window_selects_one_companion_each():
    # the fundamental domain catches exactly one gamma2 per gamma1;
    # this is the uniqueness behind reduce_to_fundamental, recovered
    # here purely by strip counting
    full = AdelicBox.full_domain(P2)
    for g1 in range(-10, 10):
        assert window_multiplicity(full, ALPHA, Fraction(g1, 2)) == 1


def _sqrt2_real(draw, a_max=50):
    return ExactReal(draw(st.integers(-a_max, a_max)),
                     draw(st.integers(-5, 5)), draw(st.integers(1, 12)), 2)


def _power_fraction(draw, p, e_max=1):
    e = draw(st.integers(0, e_max))
    return Fraction(draw(st.integers(-3 * p ** e, 3 * p ** e)), p ** e)


@st.composite
def window_cases(draw):
    """A rotation in Q(sqrt(2)), a window at its primes and a gamma1.

    The lower end is a random (a + b*sqrt(2))/c or sits exactly on an
    admitted point x + base + j*s; the width is k*s, 1 <= k <= 30, plus
    either nothing (so the upper end is an admitted point too), a rational
    or an irrational fraction of s.
    """
    primes = draw(st.sampled_from([(), (2,), (3,), (2, 3)]))
    real = _sqrt2_real(draw, 6)
    assume(real.b != 0)
    alpha = AdeleVector(PrimeSet(primes), real,
                        {p: _power_fraction(draw, p) for p in primes})
    balls = tuple(PAdicBall(p, _power_fraction(draw, p),
                            draw(st.integers(-3, 2))) for p in primes)
    g_den = 1
    for p in primes:
        g_den *= p ** draw(st.integers(0, 2))
    gamma1 = Fraction(draw(st.integers(-30, 30)), g_den)
    s = Fraction(1)
    for ball in balls:
        s *= Fraction(ball.p) ** -ball.radius_exponent
    if draw(st.booleans()):
        lo = _sqrt2_real(draw)
    else:
        c, delta = crt_coset([(b.p, b.radius_exponent,
                               b.center - gamma1 * alpha.part(b.p))
                              for b in balls])
        assert delta == s
        lo = alpha.real * gamma1 + c + draw(st.integers(-40, 40)) * s
    extra = draw(st.sampled_from(["none", "rational", "irrational"]))
    width = s * draw(st.integers(1, 30))
    if extra == "rational":
        width += s * Fraction(draw(st.integers(1, 7)), 8)
    elif extra == "irrational":
        width += _sqrt2_real(draw).mod1() * s
    return AdelicBox(lo, lo + width, balls), alpha, gamma1


@given(window_cases())
def test_window_multiplicity_matches_enumeration(case):
    box, alpha, gamma1 = case
    # keep the enumeration oracle's candidate scan small
    denom = 1
    for ball in box.balls:
        gap = val(ball.center - gamma1 * alpha.part(ball.p), ball.p)
        denom *= ball.p ** max(ball.radius_exponent, 0,
                               -gap if gap != float("inf") else 0)
    assume((box.hi - box.lo).to_float() * denom <= 10_000)
    assert window_multiplicity(box, alpha, gamma1) == \
        _count_direct(box, alpha, gamma1)


def test_window_multiplicity_rejects_mixed_fields():
    box = AdelicBox(ExactReal(0, 1, 2, 3), ExactReal(2),
                    (PAdicBall(2, Fraction(0), -1),))
    # a window in another field than alpha is refused whatever gamma1 is,
    # as brs._arcs refuses a box in another field than alpha
    for gamma1 in (1, 0):
        with pytest.raises(FieldMismatch):
            window_multiplicity(box, ALPHA, gamma1)


def _oracle_counts(box, alpha, n):
    """window_multiplicity for gamma1 = 0..n-1, up to the first
    FieldMismatch, which is recorded as the last entry."""
    out = []
    for k in range(n):
        try:
            out.append(window_multiplicity(box, alpha, k))
        except FieldMismatch:
            return out + [FieldMismatch]
    return out


def _incremental_counts(box, alpha, n):
    out = []
    try:
        out.extend(_window_counts(box, alpha, n))
    except FieldMismatch:
        out.append(FieldMismatch)
    return out


def _nonzero_center(rng, p):
    e = rng.randint(0, 2)
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 3 * p ** e), p ** e)


@pytest.mark.parametrize("guard", [brs._GUARD_BITS, 0])
def test_window_counts_match_window_multiplicity_seeded(monkeypatch, guard):
    # a guard of 0 leaves the walk's certified windows as narrow as they
    # may be, so its exact fallback runs often
    monkeypatch.setattr(brs, "_GUARD_BITS", guard)
    rng = Random(45)
    for primes in (PrimeSet(), PrimeSet([2]), PrimeSet([2, 3])):
        for case in range(40):
            alpha = AdeleVector(
                primes, ExactReal(rng.randint(-6, 6), rng.choice((1, -1, 2)),
                                  rng.randint(1, 5), 2),
                {p: Fraction(rng.randint(-9, 9), p ** rng.randint(0, 2))
                 for p in primes})
            # cycle through negative, zero and positive radius exponents
            balls = tuple(PAdicBall(p, _nonzero_center(rng, p),
                                    (case + i) % 5 - 3)
                          for i, p in enumerate(primes))
            d = (0, 2, 3)[case % 3]  # ends rational, like alpha, or not
            lo = ExactReal(rng.randint(-9, 9), rng.randint(-2, 2) if d else 0,
                           rng.randint(1, 4), d)
            box = AdelicBox(lo, lo + ExactReal(rng.randint(1, 30), 0,
                                               rng.randint(1, 3)), balls)
            for n in (1, 2, 37):
                assert _incremental_counts(box, alpha, n) == \
                    _oracle_counts(box, alpha, n)


@st.composite
def counter_cases(draw):
    """A window over Q = {}, {2} or {2, 3} with nonzero ball centers,
    radius exponents -3..2, ends rational or in Q(sqrt(2)) like alpha or
    in Q(sqrt(3)), and a candidate count n >= 1."""
    primes = PrimeSet(draw(st.sampled_from([(), (2,), (2, 3)])))
    real = _sqrt2_real(draw, 6)
    assume(real.b != 0)
    alpha = AdeleVector(primes, real,
                        {p: _power_fraction(draw, p, 2) for p in primes})
    balls = tuple(PAdicBall(p, _power_fraction(draw, p),
                            draw(st.integers(-3, 2))) for p in primes)
    assume(all(ball.center != 0 for ball in balls))
    d = draw(st.sampled_from([0, 2, 3]))
    lo = ExactReal(draw(st.integers(-50, 50)),
                   draw(st.integers(-5, 5)) if d else 0,
                   draw(st.integers(1, 12)), d)
    width = ExactReal(draw(st.integers(1, 60)), 0, draw(st.integers(1, 4)))
    return AdelicBox(lo, lo + width, balls), alpha, draw(st.integers(1, 30))


@given(counter_cases())
def test_window_counts_match_window_multiplicity(case):
    box, alpha, n = case
    assert _incremental_counts(box, alpha, n) == _oracle_counts(box, alpha, n)


def test_correspondence_check_empty_box_set():
    empty = WeightedBoxSet((), ExactReal(0), 0, Fraction(0), 0)
    assert correspondence_check(empty, ALPHA, 10) == ([], True)


def test_correspondence_check_catches_a_bumped_lift_count(monkeypatch):
    w = construct_witness(ALPHA, Fraction(1, 2), 1)
    points, agrees = correspondence_check(w.result, ALPHA, 10)
    assert agrees is True
    chain = brs._chain

    def bumped(*args):
        for k, total in enumerate(chain(*args)):
            yield total + (k == 3)

    monkeypatch.setattr(brs, "_chain", bumped)
    bumped_points, agrees = correspondence_check(w.result, ALPHA, 10)
    assert agrees is False
    # the points come from the window counts, not from brs
    assert bumped_points == points


def test_correspondence_check_compares_every_box(monkeypatch):
    # the two_primes construction: one walked box, then the full domain
    # with weight -3, a box with no walked arc
    alpha = AdeleVector(PrimeSet([2, 3]), ExactReal(1, 1, 2, 5),
                        {2: Fraction(3, 4), 3: Fraction(2, 3)})
    boxset = construct_brs(alpha, Fraction(5, 6), 2)
    (box, _), (full, weight) = boxset.terms
    x0 = zero_point(alpha.primes)
    assert len(brs._arcs([(box, 1)], alpha, x0)[1]) == 1
    assert weight == -3 and brs._arcs([(full, 1)], alpha, x0)[1] == []
    points, agrees = correspondence_check(boxset, alpha, 10)
    assert agrees is True
    chain = brs._chain

    def bumped(const, arcs, n):
        for k, total in enumerate(chain(const, arcs, n)):
            yield total + (not arcs and k == 3)

    monkeypatch.setattr(brs, "_chain", bumped)
    bumped_points, agrees = correspondence_check(boxset, alpha, 10)
    assert agrees is False
    assert bumped_points == points
