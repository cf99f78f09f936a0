"""The census: random member weights of random ideals, each lifted and
verified, with every failure sorted into a named class.

A draw has n = 2 variables with probability 2/3 and n = 3 otherwise, and an
integer weight w in [1,4]^n.  It has one or two generators.  Each generator
takes a w-degree D in [max(w), 12] that at least two monomials with
exponents in [0,5] have, two of those monomials, and 0-2 monomials of
higher w-degree, with coefficients from +-1, +-2, +-3 and +-1/2.  A draw
whose weight trop_member finds in the local tropical variety is lifted at
N = 3 and the lift is checked by verify_lift.

The tier-1 slice is draws 0-20 of random.Random(7), in order.  Draw 21 is
left out: its lift does not finish within the alarm.
"""

import random
import signal
from collections import Counter
from fractions import Fraction
from itertools import product

from troplift.errors import CapabilityError
from troplift.ideals import presentation
from troplift.lifting import LiftProblem, lift_point, verify_lift
from troplift.polyring import PolyRing, Polynomial, poly_str
from troplift.scalars import NumberField
from troplift.tropical import TropQuery, trop_member

_COEFFS = [Fraction(c) for c in (1, -1, 2, -2, 3, -3, Fraction(1, 2), Fraction(-1, 2))]

# message fragment -> class, for every CapabilityError a census lift may raise
CLASSES = {
    "irreducibility testing beyond degree": "degree cap",
    "no torus point on the sliced initial variety": "no torus point",
    "roots near the accumulator are only separated": "truncation",
    "no certified hyperplane cut found": "no certified cut",
    "no consistent roots for parameters": "no consistent roots",
}

SLICE = 21
ALARM_S = 8


def draw(rng):
    """One census draw: (variable names, weight, generators as exponent ->
    coefficient maps)."""
    n = 2 if rng.random() < 2 / 3 else 3
    w = tuple(rng.randint(1, 4) for _ in range(n))
    monomials = list(product(range(6), repeat=n))

    def wdeg(m):
        return sum(a * b for a, b in zip(w, m))

    gens = []
    for _ in range(rng.randint(1, 2)):
        degrees = [
            D for D in range(max(w), 13) if sum(wdeg(m) == D for m in monomials) >= 2
        ]
        D = rng.choice(degrees)
        level = [m for m in monomials if wdeg(m) == D]
        higher = [m for m in monomials if wdeg(m) > D]
        chosen = rng.sample(level, 2)
        chosen += rng.sample(higher, min(rng.randint(0, 2), len(higher)))
        gens.append({m: rng.choice(_COEFFS) for m in chosen})
    return ("x", "y", "z")[:n], w, gens


def run_draw(names, w, gens):
    """'non-member', 'lifted', or the class name of the failure; raises on a
    lift that does not verify or a failure outside the table."""
    ring = PolyRing(NumberField(), names)
    I = presentation(ring, [Polynomial(ring, g) for g in gens], "local", w)
    if not trop_member(I, TropQuery(w)).member:
        return "non-member"
    label = "%s at %s" % ("; ".join(poly_str(g) for g in I.generators), w)
    try:
        result = lift_point(LiftProblem(I, w, 3))
    except CapabilityError as exc:
        classes = [name for part, name in CLASSES.items() if part in str(exc)]
        assert classes, "unclassified failure on %s: %s" % (label, exc)
        return classes[0]
    assert verify_lift(result).ok(), "the lift of %s does not verify" % label
    return "lifted"


def _alarm(signum, frame):
    raise TimeoutError("a census draw took over %d s" % ALARM_S)


def test_census_slice():
    """The first SLICE draws of seed 7: every member lift verifies, and
    every failure is a capability error of a listed class, counted."""
    rng = random.Random(7)
    old = signal.signal(signal.SIGALRM, _alarm)
    try:
        tally = Counter()
        for _ in range(SLICE):
            signal.alarm(ALARM_S)
            tally[run_draw(*draw(rng))] += 1
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert tally == {
        "lifted": 9,
        "non-member": 6,
        "degree cap": 4,
        "truncation": 2,
    }
