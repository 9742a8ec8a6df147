from __future__ import annotations

import cmath
import dataclasses
import itertools
import json
import math
import pathlib
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from functools import partial

import mpmath
import numpy as np
import pytest

from yamada.cli import main
from yamada.laurent import LaurentPoly, PoleAtZero, _poly_gcd, exact_div, sigma
from yamada.replace import (
    family_degree_estimate,
    family_lambdas,
    family_polynomial,
)
from yamada import roots as roots_module
from yamada.roots import (
    NoConvergence,
    NotFound,
    PoleEncountered,
    RootRecord,
    SearchCaps,
    Witness,
    ZeroPolynomial,
    _CYCLOTOMIC,
    _Ball,
    _aberth,
    _arc_bounds,
    _arc_discs,
    _bounded_terms,
    _branch_starts,
    _closed_parts,
    _column,
    _dense_eval,
    _dense_floor,
    _dominated,
    _dominated_cells,
    _family_ratio,
    _family_roots_full,
    _family_terms,
    _find_roots_full,
    _fixed,
    _fixed_terms,
    _Gauss,
    _HALF_PI,
    _inclusion_radii,
    _initial_points,
    _mirrored,
    _ordered,
    _overlapping,
    _part_values,
    _polish,
    _repulsion_fixed,
    _residual_floor,
    _residuals_mp,
    _steps,
    _two_power,
    _winding,
    _witness_plan,
    _zero_free,
    density_witness,
    find_roots,
    limit_curve_gap,
    limit_curve_points,
    omega_member,
    record_to_dict,
    records_to_csv,
    records_to_svg,
    scan_family,
    witness_to_dict,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def close_sets(a, b, tol):
    """Largest pairing distance between two point sets of equal size."""
    assert len(a) == len(b)
    x = np.array(a)
    y = np.array(b)
    d = np.abs(x[:, None] - y[None, :])
    return max(float(d.min(axis=0).max()), float(d.min(axis=1).max())) <= tol


def random_int_poly(rng: random.Random, degree: int) -> LaurentPoly:
    terms = {degree: rng.choice([-1, 1]) * rng.randint(1, 9)}
    terms[0] = rng.choice([-1, 1]) * rng.randint(1, 9)
    for e in range(1, degree):
        c = rng.randint(-9, 9)
        if c:
            terms[e] = c
    return LaurentPoly(terms)


def test_find_roots_quadratic():
    p = LaurentPoly({2: 1, 0: -1})
    roots = find_roots(p)
    assert close_sets(roots, [1.0, -1.0], 1e-12)


def test_find_roots_sigma_cyclotomic():
    w = cmath.exp(2j * math.pi / 3)
    roots = find_roots(sigma())
    assert close_sets(roots, [w, w.conjugate()], 1e-12)


def test_find_roots_strips_laurent_shift():
    p = LaurentPoly({2: 1, 0: -1})
    shifted = LaurentPoly({-3: 1}) * p
    roots = find_roots(shifted)
    assert len(roots) == 2
    assert min(abs(z) for z in roots) > 0.5
    assert close_sets(roots, find_roots(p), 1e-12)


def test_find_roots_degenerate_inputs():
    assert find_roots(LaurentPoly({0: 5})) == []
    assert find_roots(LaurentPoly({-4: 5})) == []
    with pytest.raises(ZeroPolynomial):
        find_roots(LaurentPoly.zero())


def test_find_roots_against_numpy():
    rng = random.Random(20240817)
    for _ in range(40):
        d = rng.randint(5, 25)
        p = random_int_poly(rng, d)
        ours = find_roots(p, tol=1e-8)
        lo, cs = p.dense_coeffs()
        theirs = np.roots(np.array(cs[::-1], dtype=float))
        assert len(ours) == d
        assert close_sets(ours, list(theirs), 1e-6)


def test_find_roots_residual_certificate():
    # re-derive the certificate: |p(z)| against the largest evaluated term
    rng = random.Random(7)
    for _ in range(10):
        p = random_int_poly(rng, rng.randint(8, 20))
        lo, cs = p.dense_coeffs()
        for z in find_roots(p, tol=1e-9):
            val = sum(c * z ** (lo + i) for i, c in enumerate(cs))
            scale = max(abs(c * z ** (lo + i)) for i, c in enumerate(cs))
            assert abs(val) <= 1e-9 * (1.0 + scale)


def test_no_convergence_carries_partial_roots():
    rng = random.Random(11)
    p = random_int_poly(rng, 20)
    with pytest.raises(NoConvergence) as exc:
        find_roots(p, tol=1e-22)
    assert len(exc.value.roots) == 20
    assert len(exc.value.residuals) == 20
    assert max(exc.value.residuals) > 1e-22


def test_find_roots_refuses_a_tol_that_is_not_nonnegative():
    # a NaN tol would certify every residual, and a negative one would
    # report a converged solve as NoConvergence
    p = LaurentPoly({0: -2, 2: 1})
    for tol in (math.nan, -1.0, -math.inf):
        with pytest.raises(ValueError, match="tol"):
            find_roots(p, tol=tol)
    assert len(find_roots(p)) == 2


def test_family_422_all_residuals_small():
    records = scan_family([4], [2], [2])
    assert len(records) == 37
    assert all(r.residual <= 1e-9 for r in records)
    assert all(r.degree == 37 for r in records)


def test_family_matches_dense_on_small_members():
    # on well-separated cells the structured and the dense solver agree
    # to near machine precision
    for n, s, k in [(2, 1, 1), (3, 2, 1), (2, 2, 2)]:
        dense, dres, _ = _find_roots_full(family_polynomial(n, s, k))
        structured, _, _ = _family_roots_full(n, s, k)
        assert max(dres) <= 1e-9
        assert close_sets(dense, structured, 1e-10)


def test_family_dense_disagreement_is_conditioning_not_error():
    # (4,2,2) has a conjugate root pair 3e-4 apart where |p'| is ~1e-11
    # of the coefficient scale: both solvers certify their residuals, and
    # the pairing gap stays within what those certificates allow
    dense, dres, _ = _find_roots_full(family_polynomial(4, 2, 2))
    structured, sres, _ = _family_roots_full(4, 2, 2)
    assert close_sets(dense, structured, 1e-3)
    assert max(dres) <= 1e-9 and max(sres) <= 1e-9


def test_family_refinement_cell():
    # the cell with the closest lambda near-pair: the high-precision
    # rescue must still certify 1e-9 at the point it refines
    roots, res, degree = _family_roots_full(12, 4, 4)
    assert degree == 325
    assert len(roots) == degree
    assert max(res) <= 1e-9
    # and reproduce the records that scripts/build_fixtures.py froze from
    # this solve to the bit: real parts, imaginary parts (0.0 on the real
    # axis) and residuals
    d = json.loads((FIXTURES / "refine_12_4_4.json").read_text())
    assert d["cell"] == [12, 4, 4, "+"] and len(d["roots"]) == degree
    for z, r, (re, im, rr) in zip(roots, res, d["roots"]):
        assert z == complex(re, im) and r == rr


def test_family_roots_hold_every_oracle_root_of_2_10_2():
    # every root of (2, 10, 2), frozen at 400 bits by
    # scripts/build_fixtures.py, lies within 1e-9 |z| of exactly one
    # record.  Two of them sit where lambda1 and lambda2 are about 1e-6,
    # where a Horner evaluation of the dense coefficients is noise
    d = json.loads((FIXTURES / "oracle_2_10_2.json").read_text())
    roots, _, degree = _family_roots_full(2, 10, 2)
    assert d["cell"] == [2, 10, 2, "+"] and d["bits"] == 400
    assert len(d["roots"]) == degree == 99
    z = np.array(roots)
    for re, im in d["roots"]:
        w = complex(float(re), float(im))
        assert np.sum(np.abs(z - w) <= 1e-9 * abs(w)) == 1, w


def test_family_roots_count_the_refined_points(monkeypatch):
    # COUNTS["refined"] grows by the points sent to the 240-bit refine:
    # two in the refinement cell, none in (6, 4, 2)
    points = [0]
    inner = roots_module._refine_mp

    def counted(*args):
        points[0] += len(args[2])
        return inner(*args)

    monkeypatch.setattr(roots_module, "_refine_mp", counted)
    for cell, refined in (((12, 4, 4), 2), ((6, 4, 2), 0)):
        before, points[0] = roots_module.COUNTS["refined"], 0
        _family_roots_full(*cell)
        grown = roots_module.COUNTS["refined"] - before
        assert grown == points[0] == refined, cell


def test_refinement_cell_records_18_and_307_are_conjugates():
    # two float64 points left unrefined below _REFINE_ABOVE: solved as
    # one point of the half configuration and its mirror, they are exact
    # conjugates with one residual
    roots, res, _ = _family_roots_full(12, 4, 4)
    assert roots[18] == roots[307].conjugate() and roots[18].imag < 0
    assert abs(roots[18] + 0.8450302657707287 + 0.004210472517444679j) < 1e-10
    assert res[18] == res[307]


def _mpc(u):
    """The Gaussian float (a + ib) 2^e of the 240-bit kernel as an mpc."""
    return mpmath.mpc(mpmath.mpf((u.a, u.e)), mpmath.mpf((u.b, u.e)))


def test_fixed_closed_parts_match_mpmath():
    # the closed forms on 240-bit Gaussian floats against a 300-bit
    # evaluation of the column's exact parts: inside and outside the unit
    # circle, and between the (4, 4) lambda zeros that sit 1.2e-5 apart,
    # where the parts nearly vanish; the points fill all 240 fraction
    # bits, not just a double's 53.  s = 1 runs no loop, and k = 1, 2
    # are the monomials that _twist_terms cancels
    points = [0.3 + 0.4j, -0.05 + 0.02j, -2.5 + 1.7j, 4.0 - 0.5j,
              -0.8408559583846054 - 1.551641061573222e-06j]
    fill = 2**180 // 3
    for (s, k), sign in itertools.product(
            [(1, 1), (1, 2), (2, 1), (4, 4)], "+-"):
        column = _column(s, k, sign)
        for z in points:
            x = int(math.ldexp(z.real, 240)) + fill
            y = int(math.ldexp(z.imag, 240)) - fill
            g = _Gauss(x, y, -240)
            got = _closed_parts(s, k, sign, g, 1 / g)
            with mpmath.workprec(300):
                zz = mpmath.mpc(mpmath.mpf((x, -240)), mpmath.mpf((y, -240)))
                for j, (lo, cs) in enumerate(column.parts):
                    p, dp = mpmath.polyval(cs[::-1], zz, derivative=True)
                    want = zz**lo * p
                    slope = zz**lo * dp + lo * zz ** (lo - 1) * p
                    for value, true in ((got[j], want), (got[4 + j], slope)):
                        assert abs(_mpc(value) - true) <= 1e-60 * abs(true), (
                            s, k, sign, z, j)


def test_fixed_terms_match_mpmath_at_the_fixture_roots():
    # b1, b2 and the residual as a double, against a 300-bit mpmath
    # evaluation of the exact parts at every root of the refinement cell
    # but the two cyclotomic ones (not roots of the reduced q: lambda1
    # vanishes there), and 1e-3 |z| off every tenth root, where the two
    # terms differ in size
    n = 12
    column = _column(4, 4, "+")
    d = json.loads((FIXTURES / "refine_12_4_4.json").read_text())
    zs = [complex(re, im) for re, im, _ in d["roots"]]
    zs = [z for z in zs if abs(z * z + z + 1) > 1e-9]
    assert len(zs) == 323
    zs += [z * 1.001 for z in zs[::10]]
    res = _residuals_mp(n, column, np.array(zs))
    with mpmath.workprec(300):
        for z, r in zip(zs, res):
            w = mpmath.mpc(z)
            l1, l2, l1c, l2s = (w**lo * mpmath.polyval(cs[::-1], w)
                                for lo, cs in column.parts)
            want1 = l1 ** (n - 1) * l1c
            want2 = l2s * l2**n
            x, y = _fixed(z)
            b1, b2, _ = _fixed_terms(n, column, x, y)
            assert abs(_mpc(b1) - want1) <= 1e-60 * abs(want1)
            assert abs(_mpc(b2) - want2) <= 1e-60 * abs(want2)
            assert r == float(abs(want1 + want2) / (abs(want1) + abs(want2)))
            # the residual's values alone, without the derivative, are
            # the same Gaussian floats bit for bit
            alone = _fixed_terms(n, column, x, y, slope=False)
            assert [(v.a, v.b, v.e) for v in alone] == [
                (v.a, v.b, v.e) for v in (b1, b2)]


def test_import_leaves_mpmath_out():
    # mpmath is the tests' independent oracle, not a library dependency;
    # the process pool is imported only by a search that runs jobs > 1
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import yamada.cli; "
            "print([m in sys.modules for m in sys.argv[2:]])")
    names = ["mpmath", "concurrent.futures.process", "multiprocessing"]
    out = subprocess.run([sys.executable, "-I", "-c", code, str(src), *names],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[False, False, False]"


def test_closed_parts_are_the_column_parts_exactly():
    # run on LaurentPoly, the closed forms are the column's exact parts
    # and their derivatives sum (lo + j) c_j z^(lo + j - 1), for both
    # signs (the mirror's factor z^-2 on lambda1 / c and the sign of the
    # twist factor included)
    z = LaurentPoly.monomial(1, 1)
    for s, k, sign in itertools.product(range(1, 9), range(1, 7), "+-"):
        got = _closed_parts(s, k, sign, z, z**-1)
        for j, (lo, cs) in enumerate(_column(s, k, sign).parts):
            e = range(lo, lo + len(cs))
            assert got[j] == LaurentPoly(zip(e, cs)), (s, k, sign, j)
            slope = LaurentPoly((i - 1, i * c) for i, c in zip(e, cs) if i)
            assert got[4 + j] == slope, (s, k, sign, j)
    # on float arrays and on balls the same code gives the same bits:
    # the balls of _bounded_terms have for midpoints the terms
    # _family_ratio iterates on, for n = 1 and n > 1
    z = np.array([0.3 + 0.4j, -0.05 + 0.02j, 0.9 - 0.1j, -0.7j,
                  -2.5 + 1.7j, 4.0 - 0.5j, 1.3j, -1.1])
    for cell in [(4, 4, "+"), (2, 3, "-"), (1, 1, "+"), (6, 12, "+")]:
        column = _column(*cell)
        got = _part_values(column, z)
        for n in (1, 7):
            t1, t2, h1, h2 = _family_terms(n, got)
            m = np.maximum(t1.real, t2.real)
            want = (np.exp(t1 - m), np.exp(t2 - m), h1, h2)
            for ball, value in zip(_bounded_terms(n, column, z), want):
                assert np.array_equal(ball.mid, value)


def test_closed_parts_are_finite_wherever_horner_is():
    # on the radii of the limit curve, 0.05 to 20, the closed forms are
    # finite at every point where the Horner rows of the dense
    # coefficients are, for both signs and s, k <= 8
    r = np.geomspace(0.05, 20.0, 240)
    z = (r[:, None] * np.exp(1j * math.pi * np.arange(13) / 12)).ravel()
    pv = np.polynomial.polynomial.polyval
    with np.errstate(all="ignore"):
        for s, k, sign in itertools.product(range(1, 9), range(1, 9), "+-"):
            column = _column(s, k, sign)
            got = _part_values(column, z)
            for j, (lo, cs) in enumerate(column.parts):
                c = np.array([float(x) for x in cs])
                dc = c * (lo + np.arange(len(c)))
                for value, row in ((got[j], pv(z, c) * z**lo),
                                   (got[4 + j], pv(z, dc) * z ** (lo - 1))):
                    finite = np.isfinite(value[np.isfinite(row)])
                    assert np.all(finite), (s, k, sign, j)


class MovingPointsRecorder:
    """An evaluator for _aberth that checks, call by call, that only the
    points the previous step moved are evaluated: the first call gets
    every point, each later one z[idx] for idx the points whose stored
    residual is above freeze_tol, and the stored values then equal a
    full evaluation bit for bit.  A last full call is allowed only at a
    configuration other than z (the best-seen fallback).  calls counts
    every call, the fallback's included."""

    def __init__(self, evaluate, z):
        self.evaluate, self.z = evaluate, z
        self.freeze_tol = 100.0 * len(z) * np.finfo(float).eps
        self.res = self.ratio = self.fallback = None
        self.frozen: set[int] = set()
        self.partial_calls = 0
        self.calls = 0

    def __call__(self, x):
        assert self.fallback is None, "evaluated after the fallback"
        self.calls += 1
        res, ratio = self.evaluate(x)
        if self.res is None:
            assert np.array_equal(x, self.z)
            self.res, self.ratio = res.copy(), ratio.copy()
            return res, ratio
        moving = np.nonzero(self.res > self.freeze_tol)[0]
        self.frozen |= set(np.nonzero(self.res <= self.freeze_tol)[0].tolist())
        if not np.array_equal(x, self.z[moving]):
            assert len(x) == len(self.z)
            self.fallback = x.copy()
            return res, ratio
        assert not self.frozen & set(moving.tolist())
        self.partial_calls += len(moving) < len(self.z)
        self.res[moving], self.ratio[moving] = res, ratio
        full_res, full_ratio = self.evaluate(self.z.copy())
        assert np.array_equal(self.res, full_res, equal_nan=True)
        assert np.array_equal(self.ratio, full_ratio, equal_nan=True)
        return res, ratio

    def check_result(self, z, res):
        if self.fallback is None:
            assert z is self.z and np.array_equal(res, self.res)
        else:
            assert np.array_equal(z, self.fallback)


def _reduced_member(n, s, k):
    """The family evaluator of (n, s, k, +), the low exponent and the
    integer coefficients of its reduced polynomial q."""
    column = _column(s, k, "+")
    p = family_polynomial(n, s, k, "+")
    lo, coeffs = exact_div(p, _CYCLOTOMIC).dense_coeffs()
    return partial(_family_ratio, n, column, lo), lo, coeffs


def test_aberth_evaluates_only_moving_points_family():
    # with the family's residual floor, the refinement cell and (16, 4, 4)
    # both stall long before the iteration cap, every point still moving
    # at or below its floor.  Under the 1e-6 rule (16, 4, 4) ran to the
    # cap: a stuck point sat at residual 1.2e-6, a few per cent of its
    # floor, where no step can improve it
    for n in (12, 16):
        evaluate, _, coeffs = _reduced_member(n, 4, 4)
        floor = partial(_residual_floor, n, _column(4, 4, "+"))
        rec = MovingPointsRecorder(evaluate, _initial_points(coeffs))
        z, res = _aberth(rec, rec.z, floor)
        rec.check_result(z, res)
        assert rec.frozen and rec.partial_calls > 0
        assert rec.calls < 400
        stuck = res > rec.freeze_tol
        assert stuck.any() and np.all(res[stuck] <= floor(z[stuck]))


def test_aberth_falls_back_to_the_best_configuration_at_the_cap(monkeypatch):
    # one point drifts away from where its residual is smallest and never
    # reaches its floor: the solve runs to the cap (50 here) and returns
    # the best configuration seen after a step, the one after the first,
    # with one full evaluation.  The starts themselves, where the residual
    # is smallest, are never the fallback
    monkeypatch.setattr(roots_module, "_MAX_ITER", 50)
    path = []

    def evaluate(x):
        path.extend(x[np.abs(x - 3.0) < 10.0].tolist())
        off = np.abs(x - 3.0)
        near = off < 10.0
        res = np.where(near, 1e-3 * (1.0 + off), 1e-20)
        return res, np.where(near, -0.01 + 0j, 0j)

    start = np.array([20.0, -20.0, 3.0, 20j], dtype=complex)
    rec = MovingPointsRecorder(evaluate, start.copy())
    z, res = _aberth(rec, rec.z, lambda x: np.zeros(len(x)))
    rec.check_result(z, res)
    assert rec.fallback is not None and rec.calls == 52
    first = path[1]
    assert path[0] == 3.0 and first != 3.0
    assert np.array_equal(z, [20.0, -20.0, first, 20j])
    assert float(res.max()) == 1e-3 * (1.0 + abs(first - 3.0))
    assert abs(rec.z[2] - 3.0) > 0.4


def test_aberth_returns_the_stall_configuration(monkeypatch):
    # one point drifts away from where its residual is smallest, always at
    # or below its floor: the moving set stalls after 20 iterations, and
    # the solve returns that configuration, with no second evaluation,
    # though the one after the first step had a smaller worst residual
    monkeypatch.setattr(roots_module, "_MAX_ITER", 50)

    def evaluate(x):
        off = np.abs(x - 3.0)
        near = off < 10.0
        res = np.where(near, 1e-3 * (1.0 + off), 1e-20)
        return res, np.where(near, -0.01 + 0j, 0j)

    rec = MovingPointsRecorder(evaluate, np.array([20.0, 3.0, 20j]))
    z, res = _aberth(rec, rec.z, lambda x: np.ones(len(x)))
    rec.check_result(z, res)
    assert rec.fallback is None and rec.calls == 21
    assert z[0] == 20.0 and z[2] == 20j and abs(z[1] - 3.0) > 0.15
    assert float(res.max()) == 1e-3 * (1.0 + abs(z[1] - 3.0))


def test_aberth_stops_when_the_moving_set_stalls(monkeypatch):
    # one point never settles, at residual 1e-5: the solve stops when it
    # is at or below its floor and not when it is above (then at the cap,
    # 50 here); the floor is evaluated only at the moving point, and only
    # once the moving set has kept its size for 20 iterations
    monkeypatch.setattr(roots_module, "_MAX_ITER", 50)
    for bound, iterations, floor_calls in ((1e-5, 20, 1), (5e-6, 50, 30)):
        calls, floors = [], []

        def evaluate(x):
            calls.append(len(x))
            res = np.full(len(x), 1e-20)
            res[np.abs(x - 3.0) < 1.0] = 1e-5
            return res, np.zeros_like(x)

        def floor(x):
            floors.append(len(x))
            return np.full(len(x), bound)

        z = np.array([0.0, 1.0, 3.0, -2.0j], dtype=complex)
        _, res = _aberth(evaluate, z, floor)
        assert calls[0] == 4 and set(calls[1:]) == {1}
        assert len(calls) == 1 + iterations
        assert floors == [1] * floor_calls
        assert float(res.max()) == 1e-5


def test_residual_floor_holds_at_refined_roots():
    # at the records of (16, 4, 4) and of (20, 2, 6), certified at 240
    # bits, the float64 residual never exceeds its floor; moved off by
    # 1e-7 relative, every point's residual is above it, so the floor
    # does not hide a point that is not a root.  In the real cluster of
    # each, within 1e-4 of -0.840856 and -0.890894, some float64 residuals are above
    # _REFINE_ABOVE (1e-10) and still within their floors, which lie
    # between 1e-9 and 1e-7: double precision cannot tell those points
    # from roots
    for n, s, k, centre in ((16, 4, 4, -0.840856), (20, 2, 6, -0.890894)):
        column = _column(s, k, "+")
        evaluate, _, _ = _reduced_member(n, s, k)
        roots, res, _ = _family_roots_full(n, s, k)
        assert max(res) <= 1e-9
        # the two exact cyclotomic roots are not roots of the reduced q
        z = np.array(roots)
        z = z[np.abs(z * z + z + 1) > 1e-6]
        assert len(z) == len(roots) - 2
        res, _ = evaluate(z)
        floor = _residual_floor(n, column, z)
        assert np.all(np.isfinite(floor)) and np.all(res <= floor)
        cluster = np.abs(z - centre) < 1e-4
        assert np.any(res[cluster] > 1e-10)
        assert np.all((floor[cluster] > 1e-9) & (floor[cluster] < 1e-7))
        off = z * (1 + 1e-7)
        assert np.all(evaluate(off)[0] > _residual_floor(n, column, off))


def test_a_column_with_rounded_entries_gets_finite_bounds():
    # from s = 17 some coefficients of a column's parts, or of their
    # derivatives, pass 2^53 and are rounded as doubles.
    # The balls of _bounded_terms read no coefficient, only the small
    # integers of the closed forms, so on the column (17, 2) the floors
    # are finite at the records of (1, 17, 2) and of (2, 17, 2), the
    # cyclotomic ones aside.  Every root of (1, 17, 2) is repeated, 16 or
    # 17 times, so its inclusion radii are not finite; those of (2, 17,
    # 2), whose roots are simple,
    # are, and each inclusion disc holds a root of the reduced
    # polynomial, found by Newton at 400 bits from the disc's centre
    s, k = 17, 2
    column = _column(s, k, "+")
    assert any(float(v) != v for lo, cs in column.parts
               for j, c in enumerate(cs) for v in (c, c * (lo + j)))
    for n in (1, 2):
        roots, res, _ = _family_roots_full(n, s, k)
        assert max(res) <= 1e-9
        z = np.array(roots)
        z = z[np.abs(z * z + z + 1) > 1e-6]
        assert np.all(np.isfinite(_residual_floor(n, column, z)))
    p = exact_div(family_polynomial(n, s, k), _CYCLOTOMIC)
    lo, coeffs = p.dense_coeffs()
    radii = _inclusion_radii(n, column, lo, len(coeffs) - 1, z)
    assert np.all(np.isfinite(radii))
    with mpmath.workprec(400):
        # the member's coefficients cancel: steps stop falling near 1e-61
        settled = mpmath.mpf(2) ** -120
        for w, r in zip(z.tolist(), radii.tolist()):
            x = mpmath.mpc(w)
            for _ in range(50):
                value, slope = mpmath.polyval(coeffs[::-1], x, derivative=True)
                x -= value / slope
                if abs(value / slope) <= settled * abs(x):
                    break
            assert abs(value / slope) <= settled * abs(x)
            assert abs(x - w) <= r


def test_aberth_evaluates_only_moving_points_dense():
    coeffs = random_int_poly(random.Random(40), 40).dense_coeffs()[1]
    big = max(abs(c) for c in coeffs)
    cs = np.array([c / big for c in coeffs])
    rec = MovingPointsRecorder(
        partial(_dense_eval, cs, 1 / big), _initial_points(cs)
    )
    z, res = _aberth(rec, rec.z, partial(_dense_floor, cs, 1 / big))
    rec.check_result(z, res)
    assert len(z) == 40 and rec.frozen and rec.partial_calls > 0


def test_dense_floor_holds_at_rounded_roots():
    # the 240-bit roots of a random integer polynomial and of one with a
    # triple root (+-sqrt(3/2), outside the unit circle), rounded to
    # doubles: the dense residual at each is at or below its floor.  A
    # simple root moved 1e-7 relative is above it; a triple root moved
    # that little is not, since its value then falls as the cube of the
    # move, below float64 noise, but moved 1e-4 relative it is.  Both
    # branches of the evaluator are met, inside and outside |z| = 1
    triple = LaurentPoly({2: 2, 0: -3}) ** 3 * LaurentPoly({3: 1, 1: 2, 0: -5})
    moduli = []
    for p in (random_int_poly(random.Random(1), 30), triple):
        _, coeffs = p.dense_coeffs()
        big = max(abs(c) for c in coeffs)
        cs = np.array([c / big for c in coeffs])
        evaluate = partial(_dense_eval, cs, 1 / big)
        floor = partial(_dense_floor, cs, 1 / big)
        with mpmath.workprec(240):
            exact = mpmath.polyroots(coeffs[::-1], maxsteps=400, extraprec=480)
        z = np.array([complex(w) for w in exact])
        assert len(z) == len(coeffs) - 1
        moduli += np.abs(z).tolist()
        assert np.all(evaluate(z)[0] <= floor(z))
        repeated = np.abs(z * z - 1.5) < 1e-12
        assert repeated.sum() == (6 if p is triple else 0)
        for move, points in ((1e-7, ~repeated), (1e-4, repeated)):
            off = z[points] * (1 + move)
            assert np.all(evaluate(off)[0] > floor(off))
    assert min(moduli) < 1 < max(moduli)


def test_ordered_puts_a_real_root_by_its_sign_not_its_noise():
    # the imaginary part of a real root is noise, so its sign must not
    # move the root: -2 sorts first (angle -pi) and 0.5 at angle 0,
    # whatever the sign of the noise
    pair = [complex(0.1, 1.0), complex(0.1, -1.0)]
    for a, b in [(0.0, 0.0), (-0.0, -0.0), (1e-40, -1e-40), (-1e-40, 1e-40),
                 (0.0, -1e-40), (-0.0, 1e-40)]:
        z = [complex(0.5, b), *pair, complex(-2.0, a)]
        roots, res = _ordered(z, range(4))
        assert [w.real for w in roots] == [-2.0, 0.1, 0.5, 0.1]
        assert res == [3.0, 2.0, 0.0, 1.0]
    # the dense path orders the same way: its root -2 comes out with
    # imaginary part +0.0, which cmath.phase alone puts at +pi, last
    p = LaurentPoly({1: 1, 0: 2}) * LaurentPoly({2: 1, 0: 1})
    roots, res, _ = _find_roots_full(p * LaurentPoly({1: 2, 0: -1}))
    assert max(res) <= 1e-9
    assert close_sets(roots, [-2.0, -1j, 0.5, 1j], 1e-12)
    assert [round(w.real) for w in roots] == [-2, 0, 0, 0]
    assert roots[1].imag < 0 < roots[3].imag


def test_repulsion_fixed_matches_mpc_sum():
    # the last two points are closer than double resolution apart
    pts = [(int(math.ldexp(z.real, 240)), int(math.ldexp(z.imag, 240)))
           for z in (0.5 + 0.25j, -1.5 + 2.0j, 0.1 - 0.3j)]
    pts.append((pts[-1][0] + 2**150 // 3, pts[-1][1] - 2**140))
    with mpmath.workprec(300):
        zs = [mpmath.mpc(mpmath.mpf((x, -240)), mpmath.mpf((y, -240)))
              for x, y in pts]
    # with points 0, 2 and 3 also standing for their conjugates, every
    # sum runs over those conjugates too, a point's own included; point 1
    # is then taken on the real axis
    mirrored = [0, 2, 3]
    axis = pts[:1] + [(pts[1][0], 0)] + pts[2:]
    with mpmath.workprec(300):
        on_axis = [mpmath.mpc(mpmath.mpf((x, -240)), mpmath.mpf((y, -240)))
                   for x, y in axis]
        conjugates = [mpmath.conj(on_axis[j]) for j in mirrored]
    for got, points, extra in (
        (_repulsion_fixed(pts), zs, []),
        (_repulsion_fixed(axis, mirrored), on_axis, conjugates),
    ):
        with mpmath.workprec(240):
            for i, z in enumerate(points):
                want = mpmath.fsum(
                    1 / (z - w)
                    for j, w in enumerate(points + extra) if j != i
                )
                rep = mpmath.mpc(mpmath.mpf((got[i][0], -240)),
                                 mpmath.mpf((got[i][1], -240)))
                assert abs(rep - want) <= 1e-60 * abs(want)


def _newton_radius_240(n, s, k, lo, d, z):
    """d |q(z) / q'(z)| for the reduced polynomial q = z^-lo Q of the
    member (n, s, k, +) at the float z, evaluated at 240 bits from the
    exact parts with mpmath.polyval."""
    parts = _column(s, k, "+").parts
    with mpmath.workprec(240):
        w = mpmath.mpc(z)
        vals, ders = [], []
        for e, cs in parts:
            p, dp = mpmath.polyval(cs[::-1], w, derivative=True)
            vals.append(w**e * p)
            ders.append(w ** (e - 1) * (e * p + w * dp))
        (l1, l2, l1c, l2s), (e1, e2, e1c, e2s) = vals, ders
        Q = l1 ** (n - 1) * l1c + l2s * l2**n
        dQ = (
            (n - 1) * l1 ** (n - 2) * e1 * l1c
            + l1 ** (n - 1) * e1c
            + e2s * l2**n
            + n * l2s * l2 ** (n - 1) * e2
        )
        return float(d * abs(w * Q / (w * dQ - lo * Q)))


def test_inclusion_radius_bounds_the_240_bit_value():
    # at every root of three cells, the refinement cell among them, and
    # at points 1e-9 from the (4, 4) lambda near-pair, where the parts
    # nearly vanish and the float64 evaluation loses most of its digits.
    # The two cyclotomic roots are not roots of the reduced q: lambda1
    # vanishes there, and so does the log form of q
    l1, l2 = (lam.dense_coeffs()[1] for lam in family_lambdas(4, 4, "+"))
    pair = [min(np.roots(np.array(c[::-1], dtype=float)),
                key=lambda w: abs(w + 0.84085595838))
            for c in (l1, l2)]
    assert abs(pair[0] - pair[1]) < 2e-5
    near = [complex(c + 1e-9 * cmath.exp(2j * math.pi * j / 8))
            for c in pair for j in range(8)]
    for n, s, k in ((4, 2, 2), (12, 4, 4), (16, 4, 4)):
        _, lo, coeffs = _reduced_member(n, s, k)
        d = len(coeffs) - 1
        roots, _, _ = _family_roots_full(n, s, k)
        roots = [w for w in roots if abs(w * w + w + 1) > 1e-9]
        assert len(roots) == d
        z = np.array(roots + (near if k == 4 else []))
        r = _inclusion_radii(n, _column(s, k, "+"), lo, d, z)
        assert np.isfinite(r).all()
        for w, bound in zip(z, r):
            true = _newton_radius_240(n, s, k, lo, d, w)
            assert bound >= true, (n, s, k, w, bound, true)


def test_disc_gate_flags_a_planted_near_pair():
    # the polished points of (4, 2, 2) have pairwise disjoint discs;
    # a copy of one root moved 1e-12 |z| gets a disc that holds that root
    # and meets its disc, so both go to the refine, and nothing else does
    n, s, k = 4, 2, 2
    evaluate, lo, coeffs = _reduced_member(n, s, k)
    d = len(coeffs) - 1
    column = _column(s, k, "+")
    floor = partial(_residual_floor, n, column)
    z, _ = _aberth(evaluate, _initial_points(coeffs), floor)
    z, _ = _polish(evaluate, z)
    assert not _overlapping(z, _inclusion_radii(n, column, lo, d, z)).any()
    z[1] = z[0] + 1e-12 * abs(z[0])
    flagged = _overlapping(z, _inclusion_radii(n, column, lo, d, z))
    assert np.nonzero(flagged)[0].tolist() == [0, 1]


def test_overlapping_discs_by_hand():
    z = np.array([0.0, 1.0, 1.0 + 1.5j, 3.0, 10.0], dtype=complex)
    r = np.array([0.5, 0.5, 1.0, 0.25, 0.1])
    # touching discs meet, and disc 0 reaches disc 1 only past disc 2,
    # whose left edge comes first but which disc 0 does not meet
    assert _overlapping(z, r).tolist() == [True, True, True, False, False]
    assert not _overlapping(z, r / 2).any()
    r[4] = np.inf
    assert _overlapping(z, r).all()
    assert _overlapping(z[:1], r[:1]).tolist() == [False]


def test_family_crowded_roots_stay_apart():
    # 47 of the 431 reduced points of (16, 4, 4) go to the refine for
    # their residual, 9 of them with overlapping discs as well; a refine
    # that merged a pair would return two copies of one root
    roots, res, degree = _family_roots_full(16, 4, 4)
    assert len(roots) == degree and max(res) <= 1e-9
    z = np.array(roots)
    gap = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(gap, np.inf)
    assert bool((gap.min(axis=1) > 1e-14 * np.abs(z)).all())


def test_family_polish_stability():
    # three more polish rounds on the returned points move none of them
    # by more than 1e-10 (the two exact cyclotomic roots are not roots of
    # the reduced q that the polish works on)
    evaluate, _, _ = _reduced_member(6, 2, 2)
    roots, _, _ = _family_roots_full(6, 2, 2)
    z = np.array(roots)
    z = z[np.abs(z * z + z + 1) > 1e-6]
    assert len(z) == len(roots) - 2
    again, _ = _polish(evaluate, z.copy())
    assert float(np.max(np.abs(again - z))) < 1e-10


def test_mirror_family_direct_solve_reciprocity():
    plus, _, _ = _family_roots_full(6, 2, 3, "+")
    minus, _, _ = _family_roots_full(6, 2, 3, "-")
    assert close_sets([1.0 / z for z in plus], minus, 1e-8)


def test_scan_family_counts_and_order():
    records = scan_family(range(2, 5), [1, 2], [1, 2], signs=("+", "-"))
    expected = 0
    for n in range(2, 5):
        for s in (1, 2):
            for k in (1, 2):
                for sign in ("+", "-"):
                    _, cs = family_polynomial(n, s, k, sign).dense_coeffs()
                    expected += len(cs) - 1
    assert len(records) == expected
    # a real root has imaginary part 0.0, and a negative one sorts at -pi
    keys = [
        (r.n, r.s, r.k, r.sign,
         -math.pi if r.root.imag == 0 and r.root.real < 0
         else cmath.phase(r.root),
         abs(r.root))
        for r in records
    ]
    assert keys == sorted(keys)
    assert records == scan_family(range(2, 5), [1, 2], [1, 2], signs=("+", "-"))


def test_scan_family_empty_grid():
    assert scan_family([], [1], [1]) == []


def test_scan_family_rejects_bad_sign():
    with pytest.raises(ValueError):
        scan_family([2], [1], [1], signs=("x",))


def test_scan_family_takes_its_options_by_keyword():
    # a stale positional tolerance fails instead of landing in an option
    with pytest.raises(TypeError):
        scan_family([2], [1], [1], ("+",), 1e-9)


def test_scan_family_returns_every_record_of_an_uncertified_cell(
    monkeypatch, capsys
):
    # with the residual rule of the refine switched off, (16, 5, 6)
    # leaves 2 of its 705 records above 1e-9.  scan_family still returns
    # every record of both signs, the + ones exactly the roots and
    # residuals of the solve, and roots-scan exits 0 and names the cell
    monkeypatch.setattr(roots_module, "_REFINE_ABOVE", math.inf)
    roots, res, degree = _family_roots_full(16, 5, 6)
    assert degree == 705 and sum(r > 1e-9 for r in res) == 2
    records = scan_family([16], [5], [6], signs=("+", "-"))
    assert len(records) == 1410
    plus = [r for r in records if r.sign == "+"]
    assert [r.root for r in plus] == roots
    assert [r.residual for r in plus] == res
    assert all(r.degree == degree for r in records)
    assert main(["roots-scan", "--ns", "16", "--ss", "5", "--ks", "6"]) == 0
    assert capsys.readouterr().err == (
        "warning: cell n=16 s=5 k=6 sign=+: 2 records with residual"
        " above tol 1e-09\n"
    )


def test_scan_family_parallel_matches_serial():
    grid = ([2, 3], [1], [1, 2])
    assert scan_family(*grid, jobs=2) == scan_family(*grid, jobs=1)
    for signs in (("+", "-"), ("-",)):
        serial: dict = {}
        parallel: dict = {}
        scan_family(*grid, signs=signs, jobs=1, cache=serial)
        scan_family(*grid, signs=signs, jobs=2, cache=parallel)
        assert parallel == serial


def test_cell_stream_caps_workers_at_cpu_count(monkeypatch):
    # the pool forks all its workers at once, so jobs above the CPU count
    # must not ask for more; the stub pool starts no process
    import concurrent.futures

    asked = []

    class StubPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def submit(self, fn, *args):
            done = concurrent.futures.Future()
            done.set_result(fn(*args))
            return done

        def shutdown(self, cancel_futures):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
    grid = ([2, 3], [1], [1, 2])
    serial = scan_family(*grid, jobs=1)
    for cpus, jobs, workers in ((4, 100000, 4), (4, 3, 3), (None, 100000, None),
                                (1, 100000, None)):
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        asked.clear()
        assert scan_family(*grid, jobs=jobs) == serial
        assert asked == ([] if workers is None else [workers])


def test_limit_curve_gap_finite_value():
    g = limit_curve_gap(0.5 + 0.5j, 2, 2)
    assert isinstance(g, float) and math.isfinite(g)


def test_limit_curve_gap_poles():
    with pytest.raises(PoleEncountered):
        limit_curve_gap(0.0, 2, 2)
    with pytest.raises(PoleEncountered):
        limit_curve_gap(cmath.exp(2j * math.pi / 3), 2, 2)  # sigma = 0
    with pytest.raises(PoleEncountered):
        limit_curve_gap(-1.0, 2, 2)  # sigma = -1
    # a point that is not finite fails before the pole checks, which it
    # would pass with a NaN gap
    for z in (complex(math.inf), complex(-math.inf), complex(math.nan),
              complex(1, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            limit_curve_gap(z, 1, 1)


def test_limit_curve_points_lie_on_curve():
    pts = limit_curve_points(2, 2, angles=180, radial=80)
    assert len(pts) > 100
    assert max(abs(limit_curve_gap(z, 2, 2)) for z in pts) < 1e-5


def test_limit_curve_points_deterministic():
    a = limit_curve_points(2, 1, angles=90, radial=40)
    b = limit_curve_points(2, 1, angles=90, radial=40)
    assert a == b


def test_limit_curve_points_come_with_their_conjugates():
    # only the half turn is bisected: every point comes back with its
    # exact conjugate, and a point on the real axis has imaginary part 0.0
    # (the ray at the half turn of an even grid is the negative axis)
    for s, k, grid in ((2, 2, dict(angles=180, radial=80)),
                       (2, 3, dict(angles=97, radial=53)),
                       (4, 4, dict()),
                       (1, 1, dict(angles=1)),
                       (3, 6, dict(angles=1, radial=300))):
        pts = limit_curve_points(s, k, **grid)
        assert pts, (s, k, grid)
        mirror = Counter(z.conjugate() for z in pts)
        assert Counter(pts) == mirror, (s, k, grid)
        real = [z for z in pts if abs(z.imag) <= 1e-12 * abs(z)]
        assert all(z.imag == 0 for z in real), (s, k, grid)
    assert any(z.real < 0 and z.imag == 0 for z in limit_curve_points(2, 2))


def test_limit_curve_points_stop_within_refine_of_a_sign_change():
    # every point is the midpoint of a bracket no longer than refine
    # along its ray or its arc, so the gap changes sign within refine / 2
    # of it, radially or along its circle; beyond |z| = 2 an angle
    # bracket of width refine would be too long an arc, and below
    # |z| = 1 a radius bracket of width refine |z| too long a segment
    refine = 1e-3
    d = refine / 2 * (1 + 1e-9)
    far = 0
    for s, k in ((1, 1), (2, 2), (3, 5), (4, 6)):
        pts = limit_curve_points(s, k, angles=90, radial=40, refine=refine)
        far += sum(abs(z) > 2 for z in pts)
        for z in pts:
            step = d / abs(z)
            pairs = ((z * (1 - step), z * (1 + step)),
                     (z * cmath.exp(-1j * step), z * cmath.exp(1j * step)))
            assert any(
                limit_curve_gap(a, s, k) * limit_curve_gap(b, s, k) <= 0
                for a, b in pairs
            ), (s, k, z)
    assert far


def test_limit_curve_points_rejects_unsampleable_grids():
    for grid in (
        dict(angles=0),
        dict(angles=-3),
        dict(radial=0),
        dict(r_lo=0.0),
        dict(r_lo=2.0, r_hi=1.0),
        dict(r_hi=math.inf),
        dict(refine=math.nan),
        dict(refine=0.0),
        dict(refine=-1e-8),
        dict(angles=2.5),
        dict(radial=40.5),
    ):
        with pytest.raises(ValueError):
            limit_curve_points(2, 2, **grid)


def _curve_by_gap(monkeypatch, s, k, **grid):
    """limit_curve_points on the grid evaluated by the gap alone: the
    product's slack is made infinite, so no sign is taken from it and
    every grid point takes _bracket's."""
    def unsure(p, thetas, radii):
        return np.zeros((len(thetas), len(radii))), np.full(len(radii), np.inf)

    with monkeypatch.context() as m:
        m.setattr(roots_module, "_grid_moduli", unsure)
        return limit_curve_points(s, k, **grid)


def test_matrix_grid_gives_the_gap_grid_curve(monkeypatch):
    # bit for bit the curve of the grid evaluated by the gap alone, on
    # the default grid and on edge grids (at r_lo = 1e-3 the (4, 4)
    # column has a grid point 1e-10 off the curve, where the two
    # evaluations can disagree in sign; the slack sends it back to
    # _bracket).  The last grid reaches radii where the powers
    # leave the range of the slack's bound, and those radii are
    # evaluated by _bracket alone
    grids = [dict(), dict(angles=1), dict(radial=1), dict(r_lo=1e-3),
             dict(r_hi=1e3), dict(angles=97, radial=53, r_lo=1e-3, r_hi=1e3),
             dict(angles=90, radial=60, r_lo=1e-12, r_hi=1e12)]
    for s, k in ((1, 1), (2, 3), (4, 4), (3, 6)):
        for grid in grids:
            want = _curve_by_gap(monkeypatch, s, k, **grid)
            assert limit_curve_points(s, k, **grid) == want, (s, k, grid)


def test_matrix_grid_moduli_within_their_slack():
    # the product's moduli against 240-bit values at the rounded grid
    # points: within the slack wherever it claims to hold, and that is
    # every radius of the default grid; the slack is small enough that
    # nearly every grid point takes its sign from the product
    angles, radial = 72, 24
    radii = np.geomspace(0.05, 20.0, radial)
    thetas = 2 * math.pi / angles * np.arange(angles)
    units = np.exp(1j * thetas)
    for s, k in ((1, 1), (4, 4), (4, 6)):
        column = _column(s, k, "+")
        gaps = []
        for j, p in enumerate(family_lambdas(s, k, "+")):
            row = column.row(j)
            mod, slack = roots_module._grid_moduli(row, thetas, radii)
            assert np.isfinite(slack).all()
            with mpmath.workprec(240):
                for a in range(0, angles, 5):
                    for r in range(radial):
                        z = mpmath.mpc(complex(radii[r] * units[a]))
                        true = abs(mpmath.fsum(
                            c * z**e for e, c in p.terms.items()))
                        assert abs(mod[a, r] - true) <= slack[r]
            gaps.append((mod, slack))
        (m1, s1), (m2, s2) = gaps
        sure = np.abs(m1 - m2) > s1 + s2
        assert sure.mean() > 0.99


def test_family_roots_accumulate_on_curve():
    curve = np.array(limit_curve_points(2, 2))
    roots, _, _ = _family_roots_full(20, 2, 2)
    dmin = np.abs(np.array(roots)[:, None] - curve[None, :]).min(axis=1)
    assert float((dmin <= 0.05).mean()) >= 0.85


def test_omega_membership_examples():
    assert omega_member(1.0)
    assert omega_member(-1.0)
    assert not omega_member(cmath.exp(2j * math.pi / 3))
    with pytest.raises(PoleAtZero):
        omega_member(0.0)
    for z in (math.nan, complex(1.0, math.nan), complex(math.inf, 0.0)):
        with pytest.raises(ValueError):
            omega_member(z)


def test_omega_false_point_fixture():
    d = json.loads((FIXTURES / "omega_false_point.json").read_text())
    z = complex(d["re"], d["im"])
    assert not omega_member(z)
    g = d["grid"]
    assert g["min"] <= z.real <= g["max"]
    assert g["min"] <= z.imag <= g["max"]


_DENSITY_CACHE: dict = {}


# a desk-sized cap box: the full-cap searches live in the acceptance suite
_PROBE_CAPS = SearchCaps(4, 3, 10, 4000)


def test_density_witness_inside_target():
    out = density_witness(0.5j, 0.25, caps=_PROBE_CAPS, cache=_DENSITY_CACHE)
    assert isinstance(out, Witness)
    assert out.found.sign == "+"
    assert out.distance < 0.25
    assert abs(out.found.root - 0.5j) == out.distance
    assert out.found.residual <= 1e-9


def test_density_witness_outside_target_uses_mirror():
    out = density_witness(1.1 - 1.1j, 0.25, caps=_PROBE_CAPS, cache=_DENSITY_CACHE)
    assert isinstance(out, Witness)
    assert out.found.sign == "-"
    rec = out.found
    plus = scan_family([rec.n], [rec.s], [rec.k], cache=_DENSITY_CACHE)
    back = 1.0 / rec.root
    assert min(abs(back - p.root) for p in plus) < 1e-10


def test_density_witness_argument_guards():
    with pytest.raises(ValueError):
        density_witness(0.5j, 0.0)
    with pytest.raises(ValueError):
        density_witness(0.01, 0.1)
    with pytest.raises(ValueError):
        density_witness(25.0, 0.1)
    # NaN and infinity would reach the JSON output as NaN and Infinity
    for eps in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="eps"):
            density_witness(0.5j, eps)
    with pytest.raises(ValueError, match="tol"):
        density_witness(0.5j, 0.1, tol=math.nan)


def test_density_witness_refuses_caps_that_are_not_ints():
    # the plan halves the caps with //, which a None or a float breaks
    for caps, field in ((SearchCaps(2, 1, 2, None), "degree_cap"),
                        (SearchCaps(2.0, 1, 2, 4000), "k_max"),
                        (SearchCaps(2, 1, "8", 4000), "n_max")):
        with pytest.raises(ValueError, match=field):
            density_witness(0.5j, 0.1, caps=caps)


def test_density_witness_refuses_caps_without_cells():
    # no cell fits: there is nothing to search and no distance to report
    for caps in (SearchCaps(0, 6, 24, 4000), SearchCaps(12, 6, 24, 0)):
        with pytest.raises(ValueError, match="no cell"):
            density_witness(0.5j, 0.1, caps=caps)


def test_density_witness_skips_uncertified_record():
    # a record above tol inside the eps disc must not come back as a
    # witness, nor as the closest miss, even when it is the only record
    # of the only cell; the search counts it instead
    z0 = 0.5j
    rec = RootRecord(root=z0 + 0.01, n=1, s=1, k=1, sign="+",
                     residual=1e-6, degree=1)
    cache = {(1, 1, 1, "+"): (rec,)}
    out = density_witness(z0, 0.25, caps=SearchCaps(1, 1, 1, 4000), cache=cache)
    assert not isinstance(out, Witness)
    assert isinstance(out, NotFound) and out.closest is None
    assert out.uncertified == 1
    d = witness_to_dict(out)
    assert d["closest"] is None and d["uncertified"] == 1
    assert d["distance"] is None


def test_density_witness_parallel_matches_serial():
    # a hit and a miss under small caps, from a cold cache except for one
    # uncertified record planted in the first cell of the plan
    planted = RootRecord(root=0.9 + 0j, n=1, s=1, k=1, sign="+",
                         residual=1e-6, degree=1)
    for z0, eps, caps, kind in (
        (0.5j, 0.25, SearchCaps(3, 2, 6, 4000), Witness),
        (0.37 + 0.41j, 1e-12, SearchCaps(2, 2, 5, 4000), NotFound),
    ):
        serial, parallel = (
            density_witness(z0, eps, caps=caps, jobs=jobs,
                            cache={(1, 1, 1, "+"): (planted,)})
            for jobs in (1, 2)
        )
        assert isinstance(serial, kind) and serial.uncertified >= 1
        assert parallel == serial


def test_density_notfound_reports_closest_and_shrinks_with_caps():
    caps = SearchCaps(2, 2, 6, 4000)
    first = density_witness(0.37 + 0.41j, 1e-12, caps=caps, cache=_DENSITY_CACHE)
    assert isinstance(first, NotFound)
    assert first.closest is not None
    assert first.distance == abs(first.closest.root - first.target)
    again = density_witness(
        0.37 + 0.41j, 1e-12, caps=caps.doubled(), cache=_DENSITY_CACHE
    )
    assert isinstance(again, NotFound)
    assert again.distance <= first.distance
    assert again.caps == SearchCaps(4, 4, 12, 8000)


def test_omega_overlap_with_witness_roots_finding():
    # the dominance region and the family root closure are related but
    # not claimed to nest; report the overlap instead of asserting it
    inside = outside = 0
    for z0 in (0.5j, -0.6 + 0.2j, 0.3 - 0.7j):
        out = density_witness(z0, 0.25, caps=_PROBE_CAPS, cache=_DENSITY_CACHE)
        if isinstance(out, Witness):
            if omega_member(out.found.root):
                inside += 1
            else:
                outside += 1
    print(f"finding: {inside} witness roots inside the region, "
          f"{outside} outside")


def test_record_serialization_round_trip():
    records = scan_family([3], [1], [2], signs=("+", "-"))
    d = record_to_dict(records[0])
    assert d["n"] == 3 and d["sign"] in "+-"
    assert complex(d["re"], d["im"]) == records[0].root

    csv = records_to_csv(records)
    lines = csv.splitlines()
    assert lines[0] == "n,s,k,sign,re,im,residual,degree"
    assert len(lines) == len(records) + 1
    assert csv == records_to_csv(records)

    svg = records_to_svg(records)
    root = ET.fromstring(svg)
    circles = [e for e in root.iter() if e.tag.endswith("circle")]
    assert len(circles) == len(records) + 1  # one per root plus the unit circle


def test_witness_serialization_both_branches():
    hit = density_witness(0.5j, 0.25, caps=_PROBE_CAPS, cache=_DENSITY_CACHE)
    d = witness_to_dict(hit)
    assert d["found"] is True
    assert d["root"]["sign"] == "+"
    miss = density_witness(
        0.37 + 0.41j, 1e-12, caps=SearchCaps(2, 1, 4, 4000), cache=_DENSITY_CACHE
    )
    d2 = witness_to_dict(miss)
    assert d2["found"] is False
    assert d2["caps"]["n_max"] == 4
    assert d2["closest"]["residual"] <= 1e-9


# ---------------------------------------------------------------------------
# the members n = 1 in closed form

def _twist_b(k: int) -> LaurentPoly:
    """B = z^2k b = 1 - (-1)^(k-1) (z^(k+1) + z^(k-1)), from b = z^-2k -
    t and the twist factor t = (-1)^(k-1) (z + z^-1) z^-k."""
    sgn = (-1) ** (k - 1)
    return LaurentPoly({0: 1}) - LaurentPoly({k + 1: sgn, k - 1: sgn})


def test_n1_member_is_minus_sigma_b_to_the_s():
    # the theta and bouquet of s twist bands: lambda1 + sigma lambda2 =
    # -a^s = -sigma^s b^s exactly, with b = z^-2k B; sign - is the mirror
    # z -> 1/z
    for s, k, sign in itertools.product(range(1, 9), range(1, 9), "+-"):
        b = _twist_b(k).shift(-2 * k)
        if sign == "-":
            b = b.mirror()
        l1, l2 = family_lambdas(s, k, sign)
        assert l1 + sigma() * l2 == -((sigma() * b) ** s), (s, k, sign)


def test_pair_is_the_two_power_form():
    # (1 + sigma) lambda2 = w^s - a^s and (1 + sigma) lambda1 = -(sigma
    # w^s + a^s) exactly, with w = z^-2k (sigma + T), a = z^-2k sigma (1 -
    # T) and T = (-1)^(k-1) z^k (sigma - 1), the form _two_power reads;
    # sign - is the mirror z -> 1/z
    one = LaurentPoly({0: 1})
    for s, k, sign in itertools.product(range(1, 9), range(1, 7), "+-"):
        T = LaurentPoly({k: (-1) ** (k - 1)}) * (sigma() - one)
        w = (sigma() + T).shift(-2 * k)
        a = (sigma() * (one - T)).shift(-2 * k)
        if sign == "-":
            w, a = w.mirror(), a.mirror()
        l1, l2 = family_lambdas(s, k, sign)
        assert (one + sigma()) * l2 == w**s - a**s, (s, k, sign)
        assert (one + sigma()) * l1 == -(sigma() * w**s + a**s), (s, k, sign)


def _mp_gap(s, k):
    """|lambda1| - |lambda2| at 300 bits from the exact coefficients of
    family_lambdas, evaluated by mpmath (not by the library)."""
    rows = [p.dense_coeffs() for p in family_lambdas(s, k, "+")]

    def gap(z):
        with mpmath.workprec(300):
            x = mpmath.mpc(z)
            l1, l2 = (mpmath.polyval(cs[::-1], x) * x**lo for lo, cs in rows)
            return abs(l1) - abs(l2)

    return gap


def _changes_sign(gap, z, h, radial_only=False):
    steps = [(z * (1 - h), z * (1 + h))]
    if not radial_only:
        steps.append((z * cmath.exp(-1j * h), z * cmath.exp(1j * h)))
    return any(gap(a) * gap(b) <= 0 for a, b in steps)


def test_limit_curve_points_on_the_mpmath_gap():
    # every real point of the s = 3 curves has a sign change of the
    # 300-bit gap within 1e-8 relative along the axis (the parent put
    # nine of them 0.8-4.6e-6 off, from Horner's cancellation on the
    # dense rows), and a fixed sample of 30 points of each larger-s
    # curve has one within 1e-6, radially or along its circle (the
    # parent missed 4, 85 and 97 of 150 there)
    for k in range(1, 7):
        gap = _mp_gap(3, k)
        real = [z for z in limit_curve_points(3, k) if z.imag == 0]
        assert real, k
        for z in real:
            assert _changes_sign(gap, z, 1e-8, radial_only=True), (3, k, z)
    for s, k in ((8, 2), (12, 4), (16, 2)):
        gap = _mp_gap(s, k)
        pts = limit_curve_points(s, k)
        for z in pts[:: max(1, len(pts) // 30)][:30]:
            assert _changes_sign(gap, z, 1e-6), (s, k, z)


def test_limit_curve_gap_is_the_mpmath_gap():
    # the rescaled bracket is |lambda1| - |lambda2| itself, on both sides
    # of the |a| > |w| mask of _two_power, and s, k below 1 are rejected
    for s, k in ((3, 2), (8, 2)):
        gap = _mp_gap(s, k)
        sides = set()
        for z in (0.5 + 0.5j, -0.7 + 0.2j, 1.5j, 3.0):
            sides.add(bool(_two_power(np.array([z]), s, k)[1][0]))
            want = float(gap(z))
            assert limit_curve_gap(z, s, k) == pytest.approx(want, rel=1e-9)
        assert sides == {False, True}, (s, k)
    for s, k in ((0, 2), (2, 0), (-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="at least 1"):
            limit_curve_gap(0.5 + 0.5j, s, k)


def test_a_member_past_the_caps_keeps_its_half_configuration():
    # (3, 17, 6): the real-axis table and the gap read the pair from the
    # two-power form, which does not overflow at s = 17, and the member
    # starts from its branches like any other n >= 3; the parent sent it
    # to circle starts and returned 2 records at residual 1.0
    import warnings

    before = dict(roots_module.COUNTS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots, res, degree = _family_roots_full(3, 17, 6, degree_cap=None)
    counts = roots_module.COUNTS
    assert counts["half"] == before.get("half", 0) + 1
    assert counts["fallback"] == before.get("fallback", 0)
    assert len(roots) == degree and max(res) <= 1e-9


def test_twist_b_is_square_free_and_meets_c_only_for_six_dividing_k():
    # B(omega) = 1 - (-omega)^k at a root omega of c = z^2 + z + 1, so c
    # divides B exactly when 6 | k (e = 1), and B / c^e is square-free
    # and prime to c; B has degree k + 1 (for k = 1 it is -z^2)
    c = _CYCLOTOMIC.dense_coeffs()[1]
    for k in range(1, 61):
        B = _twist_b(k)
        lo, cs = B.dense_coeffs()
        assert lo + len(cs) - 1 == k + 1
        e = len(_poly_gcd(cs, c)) > 1
        assert e == (k % 6 == 0), k
        if e:
            cs = exact_div(B, _CYCLOTOMIC).dense_coeffs()[1]
        slope = [j * x for j, x in enumerate(cs)][1:]
        assert len(cs) == 1 or len(_poly_gcd(cs, slope)) == 1, k
        assert len(_poly_gcd(cs, c)) == 1, k


def _multiplicity(coeffs, z):
    """The multiplicity of the nonzero point z as a root of the integer
    polynomial sum_k coeffs[k] z^k, read off at 240 bits: the first
    derivative that is not small against its own term scale.  On the n =
    1 cells of the sweep grid, the derivatives below the multiplicity
    keep at most 2.3e-16 of their scale at a record, and the first one
    that does not vanish at least 2.5e-7, as its terms cancel (5.1e-7
    for the fourth derivative of (1, 4, 5, +) at the cyclotomic root),
    so the cut is 1e-10."""
    with mpmath.workprec(240):
        w = mpmath.mpc(z)
        cs = [mpmath.mpf(c) for c in coeffs]
        for j in range(len(cs)):
            terms = [c * math.perm(k, j) * w ** (k - j)
                     for k, c in enumerate(cs) if k >= j]
            value = abs(mpmath.fsum(terms))
            if value > 1e-10 * mpmath.fsum(abs(t) for t in terms):
                return j
    raise AssertionError("every derivative vanishes")


# the n = 1 cells of the benchmark's sweep grid, with both signs
N1_CELLS = list(itertools.product(range(1, 5), range(1, 7), "+-"))


def test_square_free_solve_of_repeated_root_members(monkeypatch):
    # every n = 1 member of the sweep grid is solved from its closed form
    # (-sigma^s b^s) and never reaches the 240-bit refine: one record per
    # degree, and each value comes back exactly as often as it is a root
    # of the exact member, the cyclotomic roots included
    refines = []
    inner = roots_module._refine_mp

    def counted(*args):
        refines.append(args[:4])
        return inner(*args)

    monkeypatch.setattr(roots_module, "_refine_mp", counted)
    repeated = 0
    for s, k, sign in N1_CELLS:
        roots, res, degree = _family_roots_full(1, s, k, sign)
        assert len(roots) == degree and max(res) <= 1e-9, (s, k, sign)
        coeffs = family_polynomial(1, s, k, sign).dense_coeffs()[1]
        for w, count in Counter(roots).items():
            assert _multiplicity(coeffs, w) == count, (s, k, sign, w)
        repeated += len(set(roots)) < len(roots)
    assert refines == [] and repeated == 38


def test_cyclotomic_copies_are_the_rounded_roots():
    # every copy of a root of c = z^2 + z + 1 in the records of an n = 1
    # member is the correctly rounded root with residual 0.0, as is the
    # pair stripped from every member; the member has the pair s (1 + e)
    # times, with e = 1 when 6 | k
    exact = [complex(-0.5, math.sqrt(3) / 2), complex(-0.5, -math.sqrt(3) / 2)]
    for s, k, sign in N1_CELLS:
        roots, res, _ = _family_roots_full(1, s, k, sign)
        near = [(z, r) for z, r in zip(roots, res)
                if min(abs(z - w) for w in exact) < 1e-6]
        copies = s * (1 + (k % 6 == 0))
        assert Counter(z for z, _ in near) == dict.fromkeys(exact, copies), (
            s, k, sign)
        assert all(r == 0.0 for _, r in near), (s, k, sign)


def test_density_tie_names_one_cell():
    # (1, 1, 3, -) and (1, 2, 3, -) share the real root sqrt(phi) of the
    # reversed z^6 b, from the same dense solve, so the two records are
    # one double; the density benchmark's NotFound queries on either side
    # of the axis both name the first cell of the plan, with that root
    targets = [z for z in _bench_targets()
               if abs(complex(z.real, abs(z.imag)) - 1.3250 - 0.2099j) < 1e-3]
    assert len(targets) == 2
    closest = []
    for z0 in targets:
        out = density_witness(z0, BENCH_EPS, BENCH_CAPS)
        assert isinstance(out, NotFound)
        rec = out.closest
        assert (rec.n, rec.s, rec.k, rec.sign) == (1, 1, 3, "-")
        closest.append(rec.root)
    assert closest[0] == closest[1]
    assert abs(closest[0] - math.sqrt((1 + math.sqrt(5)) / 2)) < 1e-12


def test_branch_starts_give_one_start_per_root_on_the_sweep_grid():
    # every member with n >= 2 of the benchmark's sweep grid (s <= 4,
    # k <= 6, degree estimate at most 450): its n branches of span D have
    # n D = d + 1 roots, and the half configuration mirrors to exactly d
    # finite starts, its real starts exactly on the axis and the others
    # strictly above it
    cells = 0
    for s in range(1, 5):
        for k in range(1, 7):
            column = _column(s, k, "+")
            span = column.pair.shape[1] - 1
            for n in range(2, 25):
                if family_degree_estimate(n, s, k) > 450:
                    continue
                member = exact_div(family_polynomial(n, s, k), _CYCLOTOMIC)
                d = len(member.dense_coeffs()[1]) - 1
                starts = _branch_starts(n, column, d)
                assert n * span == d + 1, (n, s, k)
                assert starts is not None, (n, s, k)
                z, real = starts
                assert len(_mirrored(z, real)) == d, (n, s, k)
                assert np.isfinite(z).all()
                assert (z[real].imag == 0).all() and (z[~real].imag > 0).all()
                # any other count gives no starts (the caller takes circles)
                assert _branch_starts(n, column, d + 1) is None
                cells += 1
    assert cells > 400


def test_branch_started_members_match_the_dense_oracle():
    # members with n >= 3 start from their branches; on cells whose dense
    # roots are well separated (checked first) the two solvers agree
    for n, s, k in [(3, 1, 2), (4, 1, 3), (5, 1, 1), (6, 1, 2)]:
        dense, dres, _ = _find_roots_full(family_polynomial(n, s, k))
        x = np.array(dense)
        gaps = np.abs(x[:, None] - x[None, :]) + np.diag(np.full(len(x), np.inf))
        assert gaps.min() >= 0.1 and max(dres) <= 1e-9, (n, s, k)
        structured, sres, _ = _family_roots_full(n, s, k)
        assert max(sres) <= 1e-9
        assert close_sets(dense, structured, 1e-12), (n, s, k)


def test_sweep_cells_have_no_equal_records(monkeypatch):
    # the cells of the benchmark's seed-1 sweep (two rounds of 24): no two
    # records of a cell are equal, except the repeated roots of a member
    # that has them (reported once per multiplicity): the members n = 1
    # with s >= 2 or 6 | k, whose multiplicities are checked above
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    stream = workloads.sweep_stream(random.Random("sweep-1"))
    cells = {tuple(req.spec[1:5]) for req in itertools.islice(stream, 48)}
    checked = 0
    for n, s, k, sign in sorted(cells):
        if n == 1 and (s > 1 or k % 6 == 0):
            continue
        records = scan_family([n], [s], [k], signs=(sign,))
        roots = [r.root for r in records]
        assert len(set(roots)) == len(roots) == records[0].degree, (n, s, k)
        checked += 1
    assert checked >= 40


def test_sweep_cells_are_closed_under_conjugation(monkeypatch):
    # the cells of the benchmark's sweep for seeds 1-3 (two rounds of 24
    # each) whose member takes branch starts: each is solved on its half
    # configuration, with no fallback, and its records of either sign are
    # closed under conjugation bit for bit, each real one with imaginary
    # part 0.0 (the negative family's records are exact reciprocals, and
    # Python's complex division commutes with conjugation).  The cells of
    # n <= 2 start from circles and keep the full configuration
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    cells = set()
    for seed in (1, 2, 3):
        stream = workloads.sweep_stream(random.Random(f"sweep-{seed}"))
        cells |= {tuple(req.spec[1:5]) for req in itertools.islice(stream, 48)}
    before = dict(roots_module.COUNTS)
    cache: dict = {}
    checked = reals = 0
    for n, s, k, sign in sorted(cells):
        if n < 3:
            continue
        records = scan_family([n], [s], [k], signs=(sign,), cache=cache)
        roots = [r.root for r in records]
        mirror = Counter(z.conjugate() for z in roots)
        assert Counter(roots) == mirror, (n, s, k, sign)
        pairs = {}
        for r in records:
            pairs.setdefault(r.root.conjugate(), r.residual)
        assert all(pairs[r.root] == r.residual for r in records)
        near = [z for z in roots if abs(z.imag) <= 1e-12 * abs(z)]
        assert all(z.imag == 0 for z in near), (n, s, k, sign)
        reals += len(near)
        checked += 1
    assert checked >= 70 and reals > 0
    counts = roots_module.COUNTS
    assert counts["fallback"] == before.get("fallback", 0)
    assert counts["half"] > before.get("half", 0)


def test_a_wrong_real_count_falls_back_to_the_full_solve(monkeypatch):
    # (3, 1, 1) has the real roots -0.5225 and 1.0396.  With a real-axis
    # scan that reports no sign change, the half configuration has no
    # real point and cannot reach them: its discs meet, the fallback is
    # counted, and the rejected solve leaves no trace: the records are,
    # bit for bit, those of the full solve from all n branches that a
    # member takes when it has no branch starts for the half one
    roots, _, degree = _family_roots_full(3, 1, 1)
    real = sorted(z.real for z in roots if z.imag == 0)
    assert len(real) == 2 and abs(real[0] + 0.5225) < 1e-4
    assert abs(real[1] - 1.0396) < 1e-4
    monkeypatch.setattr(roots_module, "_axis_starts",
                        lambda n, column: np.empty(0))
    solve = roots_module._solve
    verdicts = []

    def recorded(*args):
        out = solve(*args)
        verdicts.append((len(args) == 6, bool(out[2].any())))
        return out

    monkeypatch.setattr(roots_module, "_solve", recorded)
    before = roots_module.COUNTS["fallback"]
    got = _family_roots_full(3, 1, 1)
    assert verdicts == [(True, True), (False, False)]
    assert roots_module.COUNTS["fallback"] == before + 1
    monkeypatch.setattr(roots_module, "_branch_starts", lambda *args: None)
    assert _family_roots_full(3, 1, 1) == got
    assert roots_module.COUNTS["fallback"] == before + 2
    assert len(got[0]) == degree and max(got[1]) <= 1e-9
    assert close_sets(got[0], roots, 1e-12)


def test_branch_starts_cut_the_aberth_evaluations(monkeypatch):
    # (16, 4, 4), 431 points to place after the cyclotomic pair, many of
    # them around near-common zeros of the lambdas: from the circles
    # Aberth took 161 evaluation calls, from the branches it takes at
    # most 60
    calls = [0]
    inner = roots_module._aberth

    def counted(evaluate, z, *args):
        def ev(x):
            calls[0] += 1
            return evaluate(x)
        return inner(ev, z, *args)

    monkeypatch.setattr(roots_module, "_aberth", counted)
    roots, res, degree = _family_roots_full(16, 4, 4)
    assert degree == 433 and max(res) <= 1e-9
    assert 0 < calls[0] <= 60


def test_refine_evaluations_per_point():
    # a point that starts at double precision stops after two 240-bit
    # evaluations, and its residual at the rounded double is a third
    # (the residual target of 1e-30 took four).  A point that starts
    # further off, where its second correction is still above 2^-70,
    # takes a fourth; (17, 3, 5) refines 7 points and the refinement
    # cell 2, all from double precision.  Every 240-bit evaluation, a
    # refine step or a residual, is one call of _fixed_terms, counted in
    # COUNTS["refine_evals"]
    counts = roots_module.COUNTS
    for cell, refined in (((17, 3, 5), 7), ((12, 4, 4), 2)):
        before = dict(counts)
        roots, res, _ = _family_roots_full(*cell)
        grown = {key: counts[key] - before.get(key, 0)
                 for key in ("refined", "refine_evals")}
        assert max(res) <= 1e-9
        assert grown == {"refined": refined, "refine_evals": 3 * refined}, cell


def test_witness_plan_is_computed_once_and_doubles_by_appending():
    caps = SearchCaps(4, 3, 8, 500)
    plan = _witness_plan(caps)
    assert isinstance(plan, tuple)
    assert _witness_plan(caps) is plan
    doubled = _witness_plan(caps.doubled())
    assert len(doubled) > len(plan)
    assert doubled[: len(plan)] == plan


def test_repeated_root_members_are_never_solved_whole(monkeypatch):
    # an n = 1 member with repeated roots is never solved whole: its only
    # Aberth solve is of z^2k b / c^e, of degree at most k + 1, far below
    # that of the reduced member
    sizes = []
    inner = roots_module._aberth

    def counted(evaluate, z, *args):
        sizes.append(len(z))
        return inner(evaluate, z, *args)

    monkeypatch.setattr(roots_module, "_aberth", counted)
    for s, k in ((2, 2), (2, 3), (3, 2), (3, 6)):
        sizes.clear()
        _, coeffs = exact_div(
            family_polynomial(1, s, k, "+"), _CYCLOTOMIC
        ).dense_coeffs()
        slope = [j * c for j, c in enumerate(coeffs)][1:]
        assert len(_poly_gcd(coeffs, slope)) > 1
        roots, res, degree = _family_roots_full(1, s, k)
        assert len(roots) == degree and max(res) <= 1e-9
        assert len(sizes) == 1 and sizes[0] <= k + 1 < len(coeffs) - 1


# ---------------------------------------------------------------------------
# exclusion by term dominance

BENCH_EPS = 0.15
BENCH_CAPS = SearchCaps(3, 2, 8, 300)


def _bench_targets():
    """The density benchmark's lattice (upper half of 0.55 <= |z| <= 0.8
    in 10 sectors by 2 rings, each point with its reflection 1/z), their
    conjugates, and the probe that misses every cell."""
    lo, hi = 0.55**2, 0.8**2
    out = [0.625 * cmath.exp(-1j * math.radians(75))]
    for a in range(10):
        for b in range(2):
            z0 = math.sqrt(lo + (b + 0.5) / 2 * (hi - lo)) * cmath.exp(
                1j * math.pi * (a + 0.5) / 10
            )
            for w in (z0, 1 / z0):
                out += [w, w.conjugate()]
    return out


def test_dominated_never_skips_a_cell_with_a_root_within_eps():
    # targets planted at 0.5 eps and 0.99 eps from every certified root
    # of every cell the benchmark's caps admit, in both families: the
    # cell's n is never among the dominated ones of its column
    cache: dict = {}
    checked = skipped = 0
    before = dict(roots_module.COUNTS)
    for sign in "+-":
        plan = _witness_plan(BENCH_CAPS)
        columns: dict = {}
        for n, s, k in plan:
            columns.setdefault((s, k), []).append(n)
        for n, s, k in plan:
            recs = scan_family([n], [s], [k], signs=(sign,), degree_cap=300,
                               cache=cache)
            for i, rec in enumerate(recs):
                assert rec.residual <= 1e-9
                turn = cmath.exp(2j * math.pi * 0.6180339887 * i)
                for f in (0.5, 0.99):
                    z0 = rec.root + f * BENCH_EPS * turn
                    out = _dominated(z0, BENCH_EPS, s, k, sign, columns[s, k])
                    assert n not in out, (n, s, k, sign, rec.root, f)
                    checked += 1
                    skipped += len(out)
    assert checked == 2 * 2892
    # the test is not vacuous: other members of the columns are skipped,
    # thousands of them by the argument of T2 / T1 alone
    assert skipped > 1000
    by_argument = roots_module.COUNTS["ruled_im"] - before.get("ruled_im", 0)
    assert by_argument > 5000


def test_ruled_out_members_have_no_root_on_the_benchmark_targets():
    # every target of the density benchmark and the radii its two passes
    # reach (0.506 on the targets of modulus 1.608): no member that
    # _dominated rules out, by either proof, has a certified record
    # within the disc
    cache: dict = {}
    plan = _witness_plan(BENCH_CAPS)
    columns: dict = {}
    for n, s, k in plan:
        columns.setdefault((s, k), []).append(n)
    before = dict(roots_module.COUNTS)
    for z0 in _bench_targets():
        sign = "+" if abs(z0) <= 1 else "-"
        for radius in (BENCH_EPS, 1.5 * BENCH_EPS, 2.25 * BENCH_EPS,
                       3.375 * BENCH_EPS):
            for (s, k), ns in columns.items():
                for n in _dominated(z0, radius, s, k, sign, ns):
                    recs = scan_family([n], [s], [k], signs=(sign,),
                                       degree_cap=300, cache=cache)
                    near = [r for r in recs if abs(r.root - z0) <= radius]
                    assert not [r for r in near if r.residual <= 1e-9], (
                        z0, radius, n, s, k)
    by_argument = roots_module.COUNTS["ruled_im"] - before.get("ruled_im", 0)
    assert by_argument > 1500


def test_the_argument_rules_out_a_member_no_term_dominates():
    # (3, 2, 2) about 0.6 + 0.2i: its closest root is 0.19 away, but the
    # circle of radius 0.15 crosses |T1| = |T2|, so neither term
    # dominates on it and Rouche's theorem proves nothing; the argument
    # of T2 / T1 stays between two odd multiples of pi there
    z0, eps, n, s, k = 0.6 + 0.2j, 0.15, 3, 2, 2
    recs = scan_family([n], [s], [k])
    assert min(abs(r.root - z0) for r in recs) > 0.19
    l1, l2 = family_lambdas(s, k, "+")
    gaps = []
    for j in range(64):
        z = z0 + eps * cmath.exp(2j * math.pi * j / 64)
        t1 = abs(l1.eval_complex(z)) ** n
        t2 = abs(sigma().eval_complex(z)) * abs(l2.eval_complex(z)) ** n
        gaps.append(t1 - t2)
    assert min(gaps) < 0 < max(gaps)
    before = dict(roots_module.COUNTS)
    assert _dominated(z0, eps, s, k, "+", [n]) == {n}
    counts = roots_module.COUNTS
    assert counts["ruled_im"] == before.get("ruled_im", 0) + 1
    assert counts["ruled_re"] == before.get("ruled_re", 0)
    assert counts["columns"] == before.get("columns", 0) + 1


def test_the_argument_never_rules_out_a_disc_with_a_root():
    # discs about the cyclotomic root of the n = 1 members, where sigma
    # and lambda1 vanish together: T2 / T1 = sigma lambda2 / lambda1 has
    # a tame argument on the circle, so only the zero-free guard keeps
    # the argument from ruling the member out
    omega = cmath.exp(2j * math.pi / 3)
    for s, k in ((1, 1), (1, 2), (2, 2)):
        roots, _, _ = _family_roots_full(1, s, k)
        assert min(abs(z - omega) for z in roots) < 1e-15
        for radius in (0.01, 0.05, 0.2):
            z0 = omega + 0.3 * radius
            assert 1 not in _dominated(z0, radius, s, k, "+", [1, 2, 3])
    # discs with a root of the member just inside the rim, where Im h on
    # the circle only grazes an odd multiple of pi, and no zero of
    # lambda1, lambda2 or sigma inside, so that the argument is tried
    tried = 0
    for n, s, k in ((3, 1, 1), (4, 1, 1), (3, 2, 1), (4, 2, 2), (8, 2, 2)):
        column = _column(s, k, "+")
        for i, root in enumerate(scan_family([n], [s], [k])):
            turn = cmath.exp(2j * math.pi * 0.6180339887 * i)
            for radius, f in ((0.15, 0.99), (0.15, 0.999), (0.05, 0.99)):
                z0 = root.root + f * radius * turn
                if not 0 < radius < abs(z0):
                    continue
                tried += all(_zero_free(d, z0, radius) for d in column.discs)
                assert n not in _dominated(z0, radius, s, k, "+", [n])
    assert tried > 100


def test_the_count_rules_out_a_member_whose_argument_crosses_pi():
    # (5, 2, 2) about a benchmark lattice target: its closest root is
    # 0.203 away and lambda1, lambda2 and sigma have no zero in the disc,
    # but Im h along the circle crosses an odd multiple of pi, so no band
    # between two of them holds it; h winds about none of them, and only
    # the count rules the member out
    z0, eps, n, s, k = (0.6143350021534211 - 0.09730110548784239j, 0.15,
                        5, 2, 2)
    recs = scan_family([n], [s], [k])
    assert min(abs(r.root - z0) for r in recs if r.residual <= 1e-9) > 0.2
    column = _column(s, k, "+")
    assert all(_zero_free(d, z0, eps) for d in column.discs)
    # Im h / pi, sampled along the circle and unwrapped, takes an odd
    # integer
    l1, l2 = family_lambdas(s, k, "+")
    values = []
    for j in range(4097):
        z = z0 + eps * cmath.exp(2j * math.pi * j / 4096)
        values.append(sigma().eval_complex(z)
                      * (l2.eval_complex(z) / l1.eval_complex(z)) ** n)
    im = np.unwrap(np.angle(values)) / math.pi
    assert abs(im[-1] - im[0]) < 1e-9
    assert np.ceil((im.min() - 1) / 2) <= np.floor((im.max() - 1) / 2)
    before = dict(roots_module.COUNTS)
    assert n in _dominated(z0, eps, s, k, "+", range(1, 9))
    counts = roots_module.COUNTS
    assert counts["ruled_im"] - before.get("ruled_im", 0) == 5
    assert _dominated(z0, eps, s, k, "+", [n]) == {n}
    assert counts["ruled_im"] - before.get("ruled_im", 0) == 6
    assert counts["ruled_re"] - before.get("ruled_re", 0) == 3
    assert counts["columns"] == before.get("columns", 0) + 2
    assert counts["arcs"] >= before.get("arcs", 0) + 2 * roots_module._ARCS


def test_the_count_never_rules_out_a_root_between_two_midpoints():
    # discs with a root of the member a hair inside the rim, on the
    # boundary between two arcs at every level of the cover: the chord
    # between the two nearest arc midpoints passes between the root and
    # the centre, so h at the midpoints need not wind about the odd
    # multiple of i pi the root maps to, and only the balls, which
    # cannot exclude it, keep the member in
    tried = 0
    for n, s, k in ((3, 1, 1), (4, 2, 2), (5, 2, 2), (8, 2, 2)):
        column = _column(s, k, "+")
        for i, root in enumerate(scan_family([n], [s], [k])):
            turn = cmath.exp(2j * math.pi * (i % 128) / 128)
            for radius, f in ((0.15, 1 - 1e-6), (0.05, 1 - 1e-8)):
                z0 = root.root - f * radius * turn
                if not 0 < radius < abs(z0):
                    continue
                tried += all(_zero_free(d, z0, radius) for d in column.discs)
                assert n not in _dominated(z0, radius, s, k, "+", [n])
    assert tried > 200


def test_the_count_rules_nothing_on_a_level_whose_logs_do_not_carry(
        monkeypatch):
    # the member of test_the_argument_rules_out_a_member_no_term_dominates,
    # which only the count rules out, with every arc of the three logs
    # made not held: no level carries, so the count rules nothing out and
    # halves every arc up to the cap
    steps = roots_module._steps

    def uncarried(arg, wid):
        turn, held = steps(arg, wid)
        if sys._getframe(1).f_code.co_name == "_dominated":
            held[:] = False
        return turn, held

    z0, eps, n, s, k = 0.6 + 0.2j, 0.15, 3, 2, 2
    assert _dominated(z0, eps, s, k, "+", [n]) == {n}
    monkeypatch.setattr(roots_module, "_steps", uncarried)
    before = dict(roots_module.COUNTS)
    assert _dominated(z0, eps, s, k, "+", [n]) == set()
    counts = roots_module.COUNTS
    assert counts["ruled_im"] == before.get("ruled_im", 0)
    arcs = roots_module._ARCS * (2 ** (roots_module._ARC_SPLITS + 1) - 1)
    assert counts["arcs"] - before.get("arcs", 0) == arcs


def test_steps_turns_and_holds_synthetic_enclosures():
    # narrow enclosures about the principal arguments of 16 points going
    # once around 0 anticlockwise, the jump of the principal branch on
    # the wrap step from the last arc to the first: one turn off it, a
    # winding number of 1; reversed, -1
    arg = -math.pi + 2 * math.pi * (np.arange(16) + 0.5) / 16
    wid = np.full((1, 16), 0.25)
    turn, held = _steps(arg[None], wid)
    assert turn[0, :-1].tolist() == [0] * 15 and turn[0, -1] == -1
    assert held.all()
    turn, held = _steps(arg[None, ::-1], wid)
    assert turn.sum() == 1 and held.all()
    # a jump of 4 > pi between the narrow enclosures of arcs 31 and 32,
    # the rest of the row closing the circle in short steps: the nearest
    # lift of the jump, 4 - 2 pi, is further than the two half-widths,
    # so neither arc is held, and every other arc is
    delta = (2 * math.pi - 4.0) / 63
    row = delta * np.arange(64) + np.where(np.arange(64) >= 32, 4.0, 0.0)
    turn, held = _steps(row[None], np.full((1, 64), 0.05))
    assert turn.sum() == 0
    assert np.flatnonzero(~held[0]).tolist() == [31, 32]
    # an enclosure as wide as _HALF_PI is not held, though it meets both
    # neighbours
    wide = np.full((1, 8), 0.05)
    wide[0, 2] = _HALF_PI
    turn, held = _steps(np.zeros((1, 8)), wide)
    assert turn.sum() == 0
    assert held[0].tolist() == [True, True, False] + [True] * 5


def test_winding_box_keeps_a_lattice_point_its_rounding_would_drop():
    # a row of balls about 11 pi i of radius 3e-15, whose exact bottom
    # reaches below 11 pi while the float difference rounds back to the
    # midpoint, 2.2e-15 above it: there (x / pi - 1) / 2 reads
    # 5.000000000000001, so a box without its slack starts at j = 6 and
    # holds no lattice point.  The mirror row's top reaches -11 pi the
    # same way.  Both rows hold their lattice point, so neither is zero
    x, r = 34.55751918948773, 3e-15
    assert x - r == x
    with mpmath.workprec(200):
        assert mpmath.mpf(x) - r <= 11 * mpmath.pi < x
    assert math.ceil((x / math.pi - 1) / 2) == 6
    assert math.floor((-x / math.pi - 1) / 2) == -7
    g = _Ball(np.array([[1j * x] * 8, [-1j * x] * 8]), np.full((2, 8), r))
    zero, wound, bad = _winding(g)
    assert not zero.any() and not wound.any() and bad.all()


def test_density_witness_matches_solving_every_cell():
    # on the benchmark's targets and caps, the two-pass search returns
    # what a loop that solves every cell of the plan in order returns:
    # the first cell with a certified root within eps gives the witness,
    # its closest such root; a miss reports the closest certified root,
    # the earliest in plan order on a tie
    full: dict = {}
    for z0 in _bench_targets():
        sign = "+" if abs(z0) <= 1 else "-"
        want = None
        best, best_d = None, math.inf
        for n, s, k in _witness_plan(BENCH_CAPS):
            recs = scan_family([n], [s], [k], signs=(sign,), degree_cap=300,
                               cache=full)
            hit, hit_d = None, BENCH_EPS
            for rec in recs:
                d = abs(rec.root - z0)
                if rec.residual <= 1e-9 and d < best_d:
                    best, best_d = rec, d
                if rec.residual <= 1e-9 and d < hit_d:
                    hit, hit_d = rec, d
            if hit is not None:
                want = Witness(z0, BENCH_EPS, hit, hit_d, 0)
                break
        if want is None:
            want = NotFound(z0, BENCH_EPS, best, best_d, BENCH_CAPS, 0)
        got = density_witness(z0, BENCH_EPS, BENCH_CAPS, cache={})
        assert got == want, z0


def test_density_rounds_below_the_reach_repeat_no_test():
    # below _REACH |z0| the second pass widens every disc to about the
    # same one, so eps = 1e-300 tests as many columns as eps = 1e-40, and
    # the outcome is the same apart from epsilon
    z0 = 0.6 + 0.3j
    columns, outcomes = [], []
    for eps in (1e-300, 1e-40):
        before = roots_module.COUNTS["columns"]
        got = density_witness(z0, eps, BENCH_CAPS, cache={})
        columns.append(roots_module.COUNTS["columns"] - before)
        outcomes.append(dataclasses.replace(got, epsilon=0.0))
    assert columns[0] == columns[1]
    assert outcomes[0] == outcomes[1]


def _log_moduli_240(s, k, sign, z):
    """log |lambda1|, log |lambda2| and log |sigma| at z, at 240 bits."""
    out = []
    with mpmath.workprec(240):
        w = mpmath.mpc(z)
        for p in (*family_lambdas(s, k, sign), sigma()):
            lo, cs = p.dense_coeffs()
            out.append(float(mpmath.log(abs(mpmath.polyval(cs[::-1], w)
                                            * w**lo))))
    return out


def test_arc_bounds_hold_the_240_bit_moduli():
    # discs on circles about benchmark-like targets, and two discs that
    # sit on a zero of lambda2 and on a cyclotomic zero of sigma, where
    # the lower bound must drop to 0; points inside each disc, its centre
    # and its rim included
    rng = random.Random(12)
    cyclotomic = cmath.exp(2j * math.pi / 3)
    for s, k, sign in ((1, 1, "+"), (2, 3, "+"), (2, 2, "-"), (4, 4, "+")):
        column = _column(s, k, sign)
        zero = complex(column.discs[1][0][0])
        centres = [0.7 * cmath.exp(2j * math.pi * rng.random())
                   for _ in range(6)] + [zero, cyclotomic]
        for c in centres:
            for rho in (0.02, 0.003):
                # a ball of infinite radius bounds nothing: (-inf, inf)
                logs = _arc_bounds(column, np.array([c]), rho)
                at = np.where(logs.rad < np.inf, logs.mid.real, 0.0)
                logL, logU = at - logs.rad, at + logs.rad
                if c == zero:
                    assert logL[1, 0] == -np.inf
                if c == cyclotomic:
                    assert logL[2, 0] == -np.inf
                for j in range(12):
                    f = (0.0, 0.5, 0.999)[j % 3]
                    z = c + f * rho * cmath.exp(2j * math.pi * j / 12)
                    for t, v in enumerate(_log_moduli_240(s, k, sign, z)):
                        assert logL[t, 0] <= v <= logU[t, 0], (s, k, c, z, t)


def test_arc_bounds_enclose_the_240_bit_arguments():
    # the discs of test_arc_bounds_hold_the_240_bit_moduli: at points
    # inside each disc, its centre and its rim included, the argument of
    # lambda1, lambda2 and sigma at 240 bits, on the branch nearest the
    # enclosure's midpoint, lies within wid of it; a disc on a zero of
    # lambda2, or on the cyclotomic zero of sigma (and of lambda1), gives
    # no enclosure of that part
    rng = random.Random(12)
    cyclotomic = cmath.exp(2j * math.pi / 3)
    for s, k, sign in ((1, 1, "+"), (2, 3, "+"), (2, 2, "-"), (4, 4, "+")):
        column = _column(s, k, sign)
        parts = (*family_lambdas(s, k, sign), sigma())
        zero = complex(column.discs[1][0][0])
        centres = [0.7 * cmath.exp(2j * math.pi * rng.random())
                   for _ in range(6)] + [zero, cyclotomic]
        for c in centres:
            for rho in (0.02, 0.003):
                logs = _arc_bounds(column, np.array([c]), rho)
                arg, wid = logs.mid.imag, logs.rad
                if c == zero:
                    assert wid[1, 0] == np.inf
                if c == cyclotomic:
                    assert wid[0, 0] == wid[2, 0] == np.inf
                for j in range(12):
                    f = (0.0, 0.5, 0.999)[j % 3]
                    z = c + f * rho * cmath.exp(2j * math.pi * j / 12)
                    with mpmath.workprec(240):
                        w, tau = mpmath.mpc(z), 2 * mpmath.pi
                        for t, p in enumerate(parts):
                            if wid[t, 0] == np.inf:
                                continue
                            lo, cs = p.dense_coeffs()
                            v = mpmath.polyval(cs[::-1], w) * w**lo
                            d = mpmath.arg(v) - arg[t, 0]
                            d -= tau * mpmath.nint(d / tau)
                            assert abs(d) <= wid[t, 0], (s, k, c, z, t)


def _radius(ball, i) -> float:
    return float(np.broadcast_to(ball.rad, np.shape(ball.mid))[i])


def _rim(ball, i, directions, rng):
    """Points of the disc i of ball as (midpoint, offset) pairs of
    doubles: on its rim in each of the unit directions given, then two
    at random inside."""
    mid, rad = complex(ball.mid[i]), _radius(ball, i)
    turns = [cmath.exp(2j * math.pi * rng.random()) for _ in range(2)]
    fracs = [1 - 2.0**-40] * len(directions) + [rng.random(), rng.random()]
    return [(mid, rad * f * d) for f, d in zip(fracs, [*directions, *turns])]


def _encloses(ball, i, exact) -> bool:
    """Whether the 240-bit value exact lies in the disc i of ball."""
    return abs(exact - mpmath.mpc(complex(ball.mid[i]))) <= _radius(ball, i)


def test_ball_operations_enclose_their_240_bit_values():
    # each operation of _Ball on seeded discs: at points of its operands'
    # discs, on their rims in the direction that moves the result most
    # and at random inside, the 240-bit value of the operation lies in
    # the result's disc.  Operands of radius 0 leave only the rounding
    # of the midpoint to cover, large ones the second-order terms
    rng = random.Random(27)

    def operand(count, scale, spread=3):
        mid = np.array([
            10 ** rng.uniform(-spread, spread)
            * cmath.exp(2j * math.pi * rng.random())
            for _ in range(count)
        ])
        fracs = np.array([rng.random() for _ in range(count)])
        return _Ball(mid, scale * np.abs(mid) * fracs)

    def unit(w):
        return w / abs(w)

    def mp(point):
        return mpmath.mpc(point[0]) + mpmath.mpc(point[1])

    with mpmath.workprec(240):
        for scale in (0.0, 1e-12, 0.3):
            a, b = operand(12, scale), operand(12, scale)
            # (result, exact operation, worst directions on a's and b's
            # rims)
            binary = [
                (a + b, lambda x, y: x + y, lambda m, n: (1, 1)),
                (a - b, lambda x, y: x - y, lambda m, n: (1, -1)),
                (a * b, lambda x, y: x * y, lambda m, n: (unit(m), unit(n))),
                (a / b, lambda x, y: x / y, lambda m, n: (unit(m), -unit(n))),
            ]
            for ball, f, worst in binary:
                for i in range(12):
                    da, db = worst(complex(a.mid[i]), complex(b.mid[i]))
                    pairs = zip(_rim(a, i, [da], rng), _rim(b, i, [db], rng))
                    for pa, pb in pairs:
                        assert _encloses(ball, i, f(mp(pa), mp(pb)))
            k = np.array([float(rng.randint(-50, 50)) for _ in range(12)])
            # logs up to |log| = 460, whose rounding outgrows 8 u; the
            # log holds the branch continuous on the operand's disc
            wide = operand(12, scale, 200)
            small = _Ball(3 * a.mid / np.abs(a.mid), np.minimum(a.rad, 2.0))

            def log(x, i):
                m = mpmath.mpc(complex(wide.mid[i]))
                return mpmath.log(m) + mpmath.log(x / m)

            def arg(x, i):
                m = mpmath.mpc(complex(a.mid[i]))
                return mpmath.arg(m) + mpmath.arg(x / m)

            # (operand, result, exact operation, worst direction)
            unary = [
                (a, k * a, lambda x, i: int(k[i]) * x, lambda m: 1),
                (a, 7 * a, lambda x, i: 7 * x, lambda m: 1),
                (a, -a, lambda x, i: -x, lambda m: 1),
                (a, 3 - a, lambda x, i: 3 - x, lambda m: 1),
                (wide, wide.log(), log, lambda m: -unit(m)),
                (small, small.exp(), lambda x, i: mpmath.exp(x), lambda m: 1),
                (a, a.arg(), arg, lambda m: 1j * unit(m)),
            ]
            for base, ball, f, worst in unary:
                for i in range(12):
                    rim = _rim(base, i, [worst(complex(base.mid[i]))], rng)
                    for point in rim:
                        assert _encloses(ball, i, f(mp(point), i))
        # a sum of radii that rounds down: the push by _UP covers it
        zero = np.zeros(1, complex)
        total = _Ball(zero, 1.0) + _Ball(zero, 2.0**-53)
        assert _encloses(total, 0, 1 + mpmath.mpf(2) ** -53)
        z = operand(12, 0.0).mid ** 0.02
        # Horner's rule and polynomials over discs, exact coefficients
        for degree in (3, 20, 60):
            cs = [[rng.randint(-9, 9) for _ in range(degree + 1)]
                  for _ in range(3)]
            stack = np.array(cs, dtype=float).T
            ball = _Ball.horner(stack, z)
            for r, c in enumerate(cs):
                for i, w in enumerate(z):
                    value = mpmath.polyval(c[::-1], mpmath.mpc(complex(w)))
                    assert _encloses(ball[r], i, value)
            slopes = np.zeros_like(stack)
            slopes[:-1] = stack[1:] * np.arange(1, degree + 1)[:, None]
            table = np.hstack([stack, slopes, np.abs(stack), np.abs(slopes)])
            for rho in (0.0, 1e-9, 0.05):
                discs = _Ball(z * 0.9, rho)
                ball = _Ball.over_disc(table, discs.mid, rho)
                for r, c in enumerate(cs):
                    for i in range(12):
                        for point in _rim(discs, i, [1, 1j, -1, -1j], rng):
                            value = mpmath.polyval(c[::-1], mp(point))
                            assert _encloses(ball[r], i, value)
        # p = z^2 - 2z about its critical point 1, where p moves by the
        # second-order term alone
        table = np.array([[0.0, -2.0, 0.0, 2.0], [-2.0, 2.0, 2.0, 2.0],
                          [1.0, 0.0, 1.0, 0.0]])
        disc = _Ball(np.array([1 + 0j]), 0.1)
        ball = _Ball.over_disc(table, disc.mid, 0.1)[0]
        for point in _rim(disc, 0, [1, 1j], rng):
            w = mp(point)
            assert _encloses(ball, 0, w * w - 2 * w)
    # no bound where an operand's disc may hold 0 under a log, an
    # argument or a quotient, or where the disc of z reaches 0
    x = _Ball(np.array([1 + 1j, 2j]), np.array([1.5, 2.0]))
    with np.errstate(divide="ignore"):
        assert np.all(x.log().rad == np.inf)
        assert np.all(x.arg().rad == np.inf)
        assert np.all((_Ball(np.array([1j, 1.0])) / x).rad == np.inf)
        assert _Ball(np.array([0.3 + 0.1j]), 0.5).log().rad[0] == np.inf


def test_arc_discs_cover_their_arcs():
    # every point of each arc, its ends included, lies in the arc's disc
    # when both are taken at 240 bits
    for z0, radius in ((0.6 + 0.2j, 0.15), (-1.3 + 0.4j, 0.3), (0.3j, 0.29)):
        for m in (16, 128):
            arcs = np.arange(m)
            c, rho = _arc_discs(z0, radius, arcs, m)
            with mpmath.workprec(240):
                for j in range(0, m, max(1, m // 16)):
                    for f in (0.0, 0.25, 0.5, 0.75, 1.0):
                        t = 2 * mpmath.pi * (j + mpmath.mpf(f)) / m
                        z = mpmath.mpc(z0) + radius * mpmath.expj(t)
                        assert abs(z - mpmath.mpc(c[j])) <= rho


def test_dominance_skips_nothing_when_the_disc_reaches_zero():
    # the members have a pole at 0: a disc with eps >= |z0| is never
    # ruled out, while a smaller disc about the same target is
    for z0 in (0.6 + 0.2j, 1.3 - 0.4j):
        sign = "+" if abs(z0) <= 1 else "-"
        plan = _witness_plan(BENCH_CAPS)
        for s in (1, 2):
            for k in (1, 2, 3):
                ns = [n for n, s2, k2 in plan if (s2, k2) == (s, k)]
                for eps in (abs(z0), 2 * abs(z0)):
                    assert _dominated(z0, eps, s, k, sign, ns) == set()
        assert _dominated_cells(z0, abs(z0), plan, sign) == set()
        assert _dominated_cells(z0, 0.5 * BENCH_EPS, plan, sign)
