"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from mpmath import mp

from hilbertcm import intersect
from hilbertcm.exactnum import (
    hilbert_symbol,
    primes_up_to,
    relevant_places,
)
from hilbertcm.grosskeating import GkData, gk_density, gk_index, is_isotropic
from hilbertcm.gzmoduli import GzParams, gz_discrepancy, gz_total
from hilbertcm.intersect import (
    alpha_unit,
    b1_at_p,
    intersection_at_p,
    intersection_total,
)
from hilbertcm.quadcm import enumerate_fields, validate_cm_field
from oracles import hilbert_symbol_oracle

SWEEP_D = (5, 13, 17, 29)
SWEEP_BOUND = 2000


@pytest.fixture(scope="module")
def sweep_fields():
    return {D: enumerate_fields(D, SWEEP_BOUND) for D in SWEEP_D}


def report(number: int, detail: str) -> None:
    print(f"criterion {number}: PASS  ({detail})")


def test_criterion_1_first_field_exact():
    start = time.perf_counter()
    cm = validate_cm_field(5, (-13, 1), (0, 1))
    total = intersection_total(cm)
    b1 = b1_at_p(cm, 2)
    elapsed = time.perf_counter() - start
    assert total.terms == {2: Fraction(1)}
    assert b1 == 2
    assert elapsed < 1.0
    report(1, f"T1.CM(K) = log 2, b1(2) = 2, {elapsed:.3f}s")


def test_criterion_2_second_field_exact():
    cm = validate_cm_field(5, (-18, 4), (1, 0))
    assert intersection_total(cm).terms == {3: Fraction(1)}
    assert b1_at_p(cm, 3) == 2
    report(2, "T1.CM(K) = log 3, b1(3) = 2")


def test_criterion_3_vanishing_below_8d():
    checked = 0
    for D in SWEEP_D:
        for cm in enumerate_fields(D, 8 * D - 1):
            assert cm.dtilde < 8 * D
            assert intersection_total(cm).terms == {}
            checked += 1
    zeta5 = validate_cm_field(5, (-5, -1), (1, 1))
    assert intersection_total(zeta5).terms == {}
    assert checked > 0
    report(3, f"{checked} small fields all vanish, Q(zeta5) included")


def test_criterion_4_main_identity_sweep():
    start = time.perf_counter()
    fields = 0
    pairs = 0
    for D in SWEEP_D:
        for cm in enumerate_fields(D, SWEEP_BOUND):
            fields += 1
            for p in primes_up_to(cm.dtilde // (4 * D)):
                assert b1_at_p(cm, p) == 2 * intersection_at_p(cm, p), (
                    cm.describe(), p,
                )
                pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(4, f"b1 = 2*(T1.CM) on {pairs} (field, p) pairs, {fields} fields, {elapsed:.1f}s")


def test_criterion_5_gross_zagier_first_pair():
    params = GzParams(-3, -7)
    total = gz_total(params)
    assert total.terms == {3: Fraction(1), 5: Fraction(1)}
    product = 1
    for p, c in total.terms.items():
        assert c.denominator == 1
        product *= p ** c.numerator
    assert product == 15  # = |j(tau1) - j(tau2)|**(1/3)
    disc = gz_discrepancy(params, 100)
    assert disc < mp.mpf(10) ** -100  # the CLI's tolerance at 100 digits
    report(5, f"terms {{3:1, 5:1}}, product 15, |log discrepancy| = {float(disc):.1e}")


def test_criterion_6_gross_zagier_sweep():
    start = time.perf_counter()
    discs = (-3, -7, -11, -19, -43, -67)
    worst = mp.mpf(0)
    for d1, d2 in combinations(discs, 2):
        params = GzParams(d1, d2)
        disc = gz_discrepancy(params, 100)
        worst = max(worst, disc)
        assert disc < mp.mpf(10) ** -100, (d1, d2)  # the CLI's tolerance at 100 digits
        for p in gz_total(params).terms:
            assert 4 * p <= params.dtilde
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(6, f"15 pairs, worst |log discrepancy| = {float(worst):.1e}, {elapsed:.1f}s")


def test_criterion_7_density_cross_check(sweep_fields):
    checked = 0
    for fields in sweep_fields.values():
        for cm in fields:
            for p, entries in intersect._field_table(cm).items():
                for T, row in entries:
                    if row[0][0] != p:
                        continue  # each entry once, under its least prime
                    for l, t, symbol in row:
                        if is_isotropic(alpha_unit(T, l), t, l):
                            gated = gk_density(GkData(0, 0, t), symbol, l)
                        else:
                            gated = 0
                        assert intersect._beta(t, symbol, False) == gated
                        checked += 1
    synthetic = 0
    for l in (2, 3, 5, 7, 11):
        for eps in (-1, 1):
            alpha = next(
                a for a in range(1, 60) if a % l and hilbert_symbol(-a, l, l) == eps
            )
            for t in range(0, 41):
                closed = t + 1 if eps == 1 else Fraction(1 + (-1) ** t, 2)
                if is_isotropic(alpha, t, l):
                    gated = gk_density(GkData(0, 0, t), eps, l)
                else:
                    gated = 0
                assert closed == gated
                synthetic += 1
    report(7, f"{checked} sweep factors + {synthetic} synthetic cases agree")


def test_criterion_8_gk_index_rank_two_block():
    for t in range(0, 41):
        for p in primes_up_to(50):
            assert gk_index(GkData(0, 0, t), p) == Fraction(t + 1, 2)
    report(8, "gk_index((0,0,t), p) = (t+1)/2 for t <= 40, p <= 50")


def test_criterion_9_hilbert_symbol_suite():
    rng = random.Random(20260808)

    def random_rational():
        num = rng.choice([-1, 1]) * rng.randint(1, 40)
        return Fraction(num, rng.randint(1, 40))

    places = [2, 3, 5, 7, 11, 13, "oo"]
    for _ in range(500):
        a, b = random_rational(), random_rational()
        c = random_rational()
        v = rng.choice(places)
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        assert hilbert_symbol(a * c, b, v) == hilbert_symbol(
            a, b, v
        ) * hilbert_symbol(c, b, v)
        assert hilbert_symbol(a, -a, v) == 1
        prod = 1
        for place in relevant_places(a, b):
            prod *= hilbert_symbol(a, b, place)
        assert prod == 1

    unit_checks = 0
    for p in (2, 3, 5, 7):
        for _ in range(50):
            a = rng.choice([-1, 1]) * rng.randint(1, 99)
            b = rng.choice([-1, 1]) * rng.randint(1, 99)
            if a % p == 0 or b % p == 0:
                a = a + 1 if (a + 1) % p else a + 2
                b = b + 1 if (b + 1) % p else b + 2
            assert hilbert_symbol(a, b, p) == hilbert_symbol_oracle(a, b, p, k=6), (
                a, b, p,
            )
            unit_checks += 1
    assert unit_checks == 200
    report(9, "500 random property quadruples + 200 unit pairs vs p-adic search")
