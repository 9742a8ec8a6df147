from __future__ import annotations

import doctest
import math
import random

import pytest

import yamada.laurent
from yamada.laurent import (
    DivisionByZero,
    LaurentPoly,
    NonExactDivision,
    ParseError,
    PoleAtZero,
    _divexact,
    _poly_gcd,
    compare_up_to_unit,
    exact_div,
    parse_poly,
    sigma,
    variable,
)
from yamada.replace import family_polynomial


def rand_poly(rng: random.Random, max_terms: int = 6, exp_range: int = 6) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[rng.randint(-exp_range, exp_range)] = rng.randint(-9, 9)
    return LaurentPoly(terms)


def test_sigma_square_is_the_expected_text():
    assert str(sigma() ** 2) == "A^2 + 2*A + 3 + 2*A^-1 + A^-2"


def test_constructor_drops_zeros_and_merges():
    p = LaurentPoly([(2, 1), (2, -1), (0, 3), (1, 0)])
    assert p.terms == {0: 3}
    assert LaurentPoly({5: 0}).is_zero()


def test_ring_axioms_on_random_triples():
    rng = random.Random(20240816)
    for _ in range(300):
        p, q, r = (rand_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + LaurentPoly.zero() == p
        assert p * LaurentPoly.one() == p
        assert p - p == LaurentPoly.zero()


def test_pow_matches_repeated_multiplication():
    rng = random.Random(7)
    for _ in range(40):
        p = rand_poly(rng, max_terms=4, exp_range=3)
        acc = LaurentPoly.one()
        for n in range(6):
            assert p ** n == acc
            acc = acc * p


def test_kronecker_pow_matches_schoolbook_products():
    # the packed power against repeated schoolbook products for n = 0..30:
    # negative, zero and large coefficients (inner zeros included), whole
    # slots of cancellation, monomials and the zero polynomial
    rng = random.Random(20261018)
    cases = [
        LaurentPoly.zero(),
        LaurentPoly.monomial(-3, -2),
        LaurentPoly.monomial(1, 0),
        LaurentPoly({4: -1, -4: 1}),
        LaurentPoly({0: 1, 1: -1}),
        LaurentPoly({-1: 255, 0: -256, 2: 2**40}),
        sigma(),
    ]
    cases += [rand_poly(rng, max_terms=5, exp_range=4) for _ in range(12)]
    for p in cases:
        acc = LaurentPoly.one()
        for n in range(31):
            got = p ** n
            assert got == acc, (p, n)
            assert all(got.terms.values())
            acc = acc * p
    assert LaurentPoly.zero() ** 0 == LaurentPoly.one()


def test_exact_div_recovers_factor():
    rng = random.Random(99)
    checked = 0
    while checked < 200:
        p, q = rand_poly(rng), rand_poly(rng)
        if q.is_zero():
            continue
        assert exact_div(p * q, q) == p
        checked += 1


def test_exact_div_theta_family_value():
    s = sigma()
    assert exact_div(s + (-s) ** 3, s + 1) == s - s ** 2


def test_exact_div_rejects_non_divisible():
    with pytest.raises(NonExactDivision):
        exact_div(variable() + 1, sigma())
    with pytest.raises(NonExactDivision):
        # divisible over Q but not over Z
        exact_div(variable(), LaurentPoly.const(2))
    with pytest.raises(DivisionByZero):
        exact_div(sigma(), LaurentPoly.zero())


def test_exact_div_fails_over_z_at_each_stage():
    a = variable()
    # the leading coefficient 2 does not divide the top coefficient 1
    with pytest.raises(NonExactDivision, match="is not divisible by"):
        exact_div(a ** 2 + 1, 2 * a + 1)
    # the top divides, the next coefficient does not: (2A + 1)(A + 1) over
    # 2(A + 1) is A + 1/2, divisible over Q only
    assert _divexact([1, 3, 2], [2, 2]) is None
    with pytest.raises(NonExactDivision, match="is not divisible by"):
        exact_div(2 * a ** 2 + 3 * a + 1, 2 * a + 2)
    # every quotient coefficient is an integer (A - 1), the remainder is 2
    assert _divexact([1, 0, 1], [1, 1]) is None
    with pytest.raises(NonExactDivision, match="is not divisible by"):
        exact_div(a ** 2 + 1, a + 1)


def test_exact_div_round_trip_on_a_family_polynomial():
    p = family_polynomial(24, 3, 3, "-")
    assert p.span() >= 400
    cyclotomic = LaurentPoly({0: 1, 1: 1, 2: 1})
    assert exact_div(p * cyclotomic, cyclotomic) == p
    with pytest.raises(NonExactDivision):
        exact_div(p * cyclotomic + 1, cyclotomic)


def _rand_dense(rng: random.Random, degree: int) -> list[int]:
    """Ascending integer coefficients with nonzero constant and top terms."""
    ends = [rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(2)]
    if degree == 0:
        return ends[:1]
    return [ends[0]] + [rng.randint(-9, 9) for _ in range(degree - 1)] + [ends[1]]


def _times(a: list[int], b: list[int]) -> list[int]:
    product = LaurentPoly(dict(enumerate(a))) * LaurentPoly(dict(enumerate(b)))
    return product.dense_coeffs()[1]


def test_poly_gcd_primitive_prs_recovers_a_planted_factor():
    rng = random.Random(20240901)
    checked = 0
    while checked < 200:
        g = _rand_dense(rng, rng.randint(1, 3))
        content = math.gcd(*g)
        g = [c // content for c in g]
        if abs(g[-1]) == 1:
            continue  # plant a non-monic primitive factor
        p = _times(_rand_dense(rng, rng.randint(0, 6)), g)
        q = _times(_rand_dense(rng, rng.randint(0, 6)), g)
        if rng.random() < 0.3:
            p = [6 * c for c in p]  # contents play no part in the gcd over Q
        h = _poly_gcd(p, q)
        assert math.gcd(*h) == 1 and h[-1] > 0
        p_co, q_co = _divexact(p, h), _divexact(q, h)
        assert p_co is not None and q_co is not None
        assert _divexact(h, g) is not None
        assert _poly_gcd(p_co, q_co) == [1]
        assert _poly_gcd(q, p) == h
        checked += 1


def test_eval_complex():
    p = LaurentPoly({-2: 1}) * sigma()
    assert abs(p.eval_complex(1j) - (-1)) < 1e-12
    assert sigma().eval_complex(1.0) == pytest.approx(3.0)
    with pytest.raises(PoleAtZero):
        p.eval_complex(0)
    assert LaurentPoly({2: 5, 0: 1}).eval_complex(0) == 1


def test_eval_is_ring_homomorphism():
    rng = random.Random(3)
    for _ in range(50):
        p, q = rand_poly(rng), rand_poly(rng)
        z = complex(rng.uniform(0.2, 2), rng.uniform(-1, 1))
        lhs = (p * q).eval_complex(z)
        rhs = p.eval_complex(z) * q.eval_complex(z)
        assert abs(lhs - rhs) <= 1e-8 * (1 + abs(lhs) + abs(rhs))


def test_compare_up_to_unit():
    s = sigma()
    assert compare_up_to_unit(s, s) == 0
    minus_a = LaurentPoly({1: -1})
    assert compare_up_to_unit(minus_a ** 3 * s, s) == 3
    assert compare_up_to_unit(s, minus_a ** 2 * s) == -2
    assert compare_up_to_unit(s, s + 1) is None
    assert compare_up_to_unit(LaurentPoly.zero(), LaurentPoly.zero()) == 0
    assert compare_up_to_unit(s, LaurentPoly.zero()) is None
    # A*sigma is not a (-A)^n multiple of sigma (sign is wrong)
    assert compare_up_to_unit(variable() * s, s) is None


def test_mirror_is_involutive_and_multiplicative():
    rng = random.Random(11)
    for _ in range(50):
        p, q = rand_poly(rng), rand_poly(rng)
        assert p.mirror().mirror() == p
        assert (p * q).mirror() == p.mirror() * q.mirror()
    assert sigma().mirror() == sigma()


def test_text_rendering_and_parse_round_trip():
    rng = random.Random(5)
    for _ in range(100):
        p = rand_poly(rng)
        assert parse_poly(str(p)) == p
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly({0: -2, 2: -1})) == "-A^2 - 2"
    with pytest.raises(ParseError):
        parse_poly("A^2 + bogus~")
    with pytest.raises(ParseError):
        parse_poly("")


def test_docstring_examples_run():
    result = doctest.testmod(yamada.laurent)
    assert result.failed == 0 and result.attempted == 5
