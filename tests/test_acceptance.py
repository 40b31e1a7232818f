"""Acceptance suite: one test per criterion, each prints a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.  Tolerances are fixed here, not calibrated: exact integer
equality for counts and symbolic values, 1e-12 max-norm for dense residuals.
"""

import itertools
import math
import time

import numpy as np

from ghzverify.cli import main
from ghzverify.counting import c_n_binomial, c_n_closed
from ghzverify.lhv import exhaustive_search
from ghzverify.oracle import apply_pauli, check_conjugation, check_eigen
from ghzverify.pauli import PauliOperator, verify_ks_identity
from ghzverify.poles import Pole, eigenvalue_symbolic, enumerate_pole
from ghzverify.states import (GhzLabel, apply_rotations, build_state, collective_angle,
                              max_norm_diff, rotated_dense)
from references import (checked_rows, eigenvalue_rule, ew_contradictions, from_letters,
                        swap_conjugation_residual)

TOL = 1e-12


class _Criterion:
    def __init__(self, number, description, limit_seconds):
        self.number = number
        self.description = description
        self.limit = limit_seconds
        self.start = time.perf_counter()

    def finish(self, passed):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if passed and elapsed < self.limit else "FAIL"
        print(f"\nACCEPTANCE {self.number}: {status} - {self.description} "
              f"({elapsed:.2f}s, limit {self.limit:.0f}s)")
        assert passed
        assert elapsed < self.limit


def test_criterion_1_reference_table(capsys):
    crit = _Criterion(1, "count command reproduces the reference table for n=3..10", 1.0)
    code = main(["count", "--n-min", "3", "--n-max", "10", "--format", "csv"])
    out = capsys.readouterr().out
    with capsys.disabled():
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        got_c = [int(r[1]) for r in rows]
        got_compat = [int(r[2]) for r in rows]
        passed = (code == 0
                  and got_c == [1, 4, 10, 20, 36, 64, 120, 240]
                  and got_compat == [7, 15, 31, 63, 127, 255, 511, 1023])
        crit.finish(passed)


def test_criterion_2_closed_form_equals_binomial_sum(capsys):
    with capsys.disabled():
        crit = _Criterion(2, "closed form equals the binomial sum exactly for n=2..64", 1.0)
        passed = all(c_n_closed(n) == c_n_binomial(n) for n in range(2, 65))
        passed &= c_n_closed(2) == 0
        crit.finish(passed)


def _eigen_triple_ok(label, quarter, z, vec):
    symbolic = eigenvalue_symbolic(label, quarter, z)
    if z.bit_count() % 2 and quarter == 1:  # an N or S string
        if eigenvalue_rule(label, z) != symbolic:
            return False
    image = apply_pauli(PauliOperator(label.n, (1 << label.n) - 1, z), vec)
    if symbolic is None:
        return check_eigen(vec, image, 1) >= TOL and check_eigen(vec, image, -1) >= TOL
    return check_eigen(vec, image, symbolic) < TOL


def test_criterion_3_eigenvalue_suite(capsys):
    with capsys.disabled():
        crit = _Criterion(3, "rule == symbolic == oracle on every pole operator and state", 30.0)
        passed = True
        for n in range(3, 7):
            masks = [z for pole in Pole for z in enumerate_pole(n, pole).tolist()]
            labels = [GhzLabel(n, bits, sign)
                      for bits in range(1 << (n - 1)) for sign in (1, -1)]
            for label in labels:
                for quarter in (0, 1):
                    vec = rotated_dense(label, quarter * math.pi / 2)
                    for z in masks:
                        passed &= _eigen_triple_ok(label, quarter, z, vec)
        rng = np.random.default_rng(2024)
        for n in range(7, 11):
            for _ in range(1000):
                label = GhzLabel(n, int(rng.integers(0, 1 << n)),
                                 1 if rng.integers(0, 2) else -1)
                quarter = int(rng.integers(0, 2))
                z_mask = int(rng.integers(0, 1 << n))
                vec = rotated_dense(label, quarter * math.pi / 2)
                passed &= _eigen_triple_ok(label, quarter, z_mask, vec)
        crit.finish(passed)


def test_criterion_4_collective_angle_collapse(capsys):
    with capsys.disabled():
        crit = _Criterion(4, "equal collective angles give identical rotated states", 10.0)
        rng = np.random.default_rng(4)
        passed = True
        for n in (3, 4, 5):
            label = GhzLabel(n, int(rng.integers(0, 1 << (n - 1))), 1)
            base = build_state(label)
            signs = [1 - 2 * label.bit(k) for k in range(1, n + 1)]
            for trial in range(100):
                first = rng.uniform(-2 * math.pi, 2 * math.pi, size=n)
                target = collective_angle(label, first)
                if trial == 0:
                    second = np.array([signs[k] * target / n for k in range(n)])
                else:
                    second = rng.uniform(-2 * math.pi, 2 * math.pi, size=n)
                    partial = collective_angle(label, list(second[:-1]) + [0.0])
                    second[-1] = signs[-1] * (target - partial)
                diff = max_norm_diff(apply_rotations(base, label, first),
                                     apply_rotations(base, label, second))
                passed &= diff < TOL
        crit.finish(passed)


def test_criterion_5_product_identities(capsys):
    with capsys.disabled():
        crit = _Criterion(5, "generator product identities hold for every odd subset, n=3..10", 5.0)
        passed = True
        checks = 0
        for n in range(3, 11):
            for size in range(1, n + 1, 2):
                for subset in itertools.combinations(range(1, n + 1), size):
                    passed &= verify_ks_identity(n, subset)
                    checks += 1
        passed &= checks == sum(1 << (n - 1) for n in range(3, 11))
        crit.finish(passed)


def test_criterion_6_hidden_variable_refutation(capsys):
    with capsys.disabled():
        crit = _Criterion(6, "exhaustive refutation and contradiction counts", 60.0)
        passed = True
        for n in range(3, 8):
            label = GhzLabel(n, 0, 1)
            passed &= exhaustive_search(label) == 0
            passed &= exhaustive_search(label, require_s=False) > 0
        for n in range(3, 11):
            reports = checked_rows(GhzLabel(n, 0, 1))
            passed &= len(reports) == c_n_closed(n)
            passed &= reports.opposed()
        crit.finish(passed)


def test_criterion_7_swap_transport(capsys):
    with capsys.disabled():
        crit = _Criterion(7, "swap transport yields the same contradiction count", 30.0)
        passed = True
        for n in range(3, 7):
            expected = c_n_closed(n)
            label = GhzLabel(n, 0, 1)
            for size in range(1, n + 1, 2):
                for subset in itertools.combinations(range(1, n + 1), size):
                    reports = ew_contradictions(label, subset)
                    passed &= len(reports) == expected
                    passed &= reports.opposed()
        for n in range(2, 6):
            masks = [z for pole in (Pole.N, Pole.S) for z in enumerate_pole(n, pole).tolist()]
            for size in range(1, n + 1, 2):
                for subset in itertools.combinations(range(1, n + 1), size):
                    for z in masks:
                        passed &= swap_conjugation_residual(n, z, subset) < TOL
        crit.finish(passed)


def test_criterion_8_conjugation_identity(capsys):
    with capsys.disabled():
        crit = _Criterion(8, "conjugating the all-X string matches the factored observable", 10.0)
        rng = np.random.default_rng(8)
        passed = True
        for n in (3, 4):
            angle_sets = [tuple(rng.uniform(-math.pi, math.pi, size=n)) for _ in range(50)]
            passed &= all(check_conjugation(angles) < TOL for angles in angle_sets)
        crit.finish(passed)


def test_criterion_9_untraceability(capsys):
    with capsys.disabled():
        crit = _Criterion(9, "single-qubit X/Y expectations vanish in rotated states", 5.0)
        rng = np.random.default_rng(9)
        passed = True
        for n in range(2, 7):
            label = GhzLabel(n, 0, 1)
            base = build_state(label)
            for _ in range(20):
                rotated = apply_rotations(base, label, rng.uniform(-6, 6, size=n))
                for k in range(1, n + 1):
                    for letter in ("X", "Y"):
                        single = from_letters("I" * (k - 1) + letter + "I" * (n - k))
                        image = apply_pauli(single, rotated)
                        passed &= abs(np.vdot(rotated, image)) < TOL
        crit.finish(passed)
