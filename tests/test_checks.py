"""The check engine: case counts, the tolerance every residual is judged by,
and NaN, which must fail every check."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzverify import checks, lhv, oracle, poles, states
from ghzverify.cli import main
from ghzverify.errors import (DENSE_MATRIX_CAP, DENSE_VECTOR_CAP, EXHAUSTIVE_CAP, CapacityError,
                              DomainError)
from ghzverify.pauli import PauliOperator
from ghzverify.labels import GhzLabel
from references import (dense_collapse, dense_invariance_residual, outer_rotation_phases,
                        outer_signed_bit_sums, per_string_residuals)


def test_cases_per_check_at_three_qubits():
    got = [(c.name, c.cases) for c in checks.verify(GhzLabel(3, 0, 1), 0)]
    assert got == [("eigenvalues_symbolic_vs_oracle", 16),
                   ("collective_angle_collapse", 20),
                   ("conjugation_identity", 10),
                   ("quarter_turn_consistency", 16),
                   ("rotation_unitarity", 10),
                   ("pair_subspace_invariance", 10)]


def test_eigen_cases_are_sampled_above_the_matrix_cap():
    n = checks.VERIFY_ALL_OPS_UP_TO + 1
    eigen = checks.verify(GhzLabel(n, 0b01101001011, -1), 5)[0]
    assert (eigen.name, eigen.cases) == ("eigenvalues_symbolic_vs_oracle", 512)
    assert eigen.cases == 2 * checks.VERIFY_SAMPLED_OPS


@pytest.mark.parametrize("n", [checks.VERIFY_ALL_OPS_UP_TO + 1, DENSE_VECTOR_CAP.qubits])
def test_sampled_eigen_pool_holds_distinct_strings(monkeypatch, n):
    # drawn with replacement, about 15 of 256 masks repeat at n = 11, and the
    # case count would over-state the distinct strings judged
    pools = []
    eigen_residuals = oracle.eigen_residuals

    def recorded(z_masks, label, amplitudes):
        pools.append(z_masks.copy())
        return eigen_residuals(z_masks, label, amplitudes)
    monkeypatch.setattr(oracle, "eigen_residuals", recorded)
    label = GhzLabel(n, int("01101001011010"[:n], 2), 1)
    assert checks.eigenvalues(label, random.Random(11)).passed
    assert len(pools) == 2 and np.array_equal(pools[0], pools[1])
    pool = pools[0]
    assert pool.dtype == np.uint64
    assert len(set(pool.tolist())) == len(pool) == checks.VERIFY_SAMPLED_OPS
    assert int(pool.max()) < 1 << n


@pytest.mark.parametrize("residual,passed", [(0.999e-12, True), (1e-12, False)])
def test_tolerance_is_strict(monkeypatch, residual, passed):
    monkeypatch.setattr(oracle, "two_dim_invariance_residual", lambda label, angles: residual)
    (check,) = [c for c in checks.verify(GhzLabel(3, 0, 1), 0)
                if c.name == "pair_subspace_invariance"]
    assert check.passed is passed
    assert check.residual == residual


def _nan_on_call(monkeypatch, owner, name, call):
    """Make the given call (1-based) of owner.name return its result filled with NaN."""
    original = getattr(owner, name)
    calls = 0

    def poisoned(*args):
        nonlocal calls
        calls += 1
        out = np.asarray(original(*args), dtype=complex)
        return np.full_like(out, np.nan) if calls == call else out
    monkeypatch.setattr(owner, name, poisoned)


LABEL = GhzLabel(4, 0b0110, -1)
ANGLE_SETS = [(0.3, -1.2, 2.0, 0.7), (1.1, 0.4, -0.9, 2.5), (-2.2, 0.8, 0.1, -0.6)]


def _assert_nan_fails(check):
    assert not check.passed
    assert math.isnan(check.residual)


def test_nan_in_a_later_quarter_fails_eigenvalues(monkeypatch):
    _nan_on_call(monkeypatch, states, "rotated_pair", 2)
    _assert_nan_fails(checks.eigenvalues(LABEL, random.Random(0)))


@pytest.mark.parametrize("column", [0, 1])
def test_nan_on_a_non_eigen_row_fails_eigenvalues(monkeypatch, column):
    # the pool's first string, XXX, is no eigen string at quarter 1, and a NaN
    # residual must not pass for "not an eigenstate"
    label = GhzLabel(3, 0, 1)
    assert poles.eigenvalue_symbolic(label, 1, 0) is None
    eigen_residuals = oracle.eigen_residuals
    quarters = 0

    def poisoned(ops, label, amplitudes):
        nonlocal quarters
        quarters += 1
        out = eigen_residuals(ops, label, amplitudes)
        if quarters == 2:
            out[0, column] = np.nan
        return out
    monkeypatch.setattr(oracle, "eigen_residuals", poisoned)
    check = checks.eigenvalues(label, random.Random(0))
    assert not check.passed
    assert check.residual < checks.EIGEN_TOL


@pytest.mark.parametrize("bad", [1.0, math.nan])
@pytest.mark.parametrize("quarter", [0, 1])
def test_bad_residual_on_a_minus_one_row_fails_eigenvalues(monkeypatch, quarter, bad):
    # a -1 row is judged against -state, in column 1: one bad value there must fail
    label = GhzLabel(3, 0, 1)
    pool = np.arange(8, dtype=np.uint64)  # every string, so row j is z mask j
    row = int(np.flatnonzero(poles.eigenvalue_column(label, quarter, pool) == -1)[0])
    eigen_residuals = oracle.eigen_residuals
    calls = 0

    def planted(ops, label, amplitudes):
        nonlocal calls
        out = eigen_residuals(ops, label, amplitudes)
        if calls == quarter:
            assert np.array_equal(ops, pool)
            out[row, 1] = bad
        calls += 1
        return out
    monkeypatch.setattr(oracle, "eigen_residuals", planted)
    check = checks.eigenvalues(label, random.Random(0))
    assert calls == 2
    assert (check.cases, check.passed) == (16, False)
    assert check.residual == bad or (math.isnan(bad) and math.isnan(check.residual))


@pytest.mark.parametrize("n", [3, DENSE_MATRIX_CAP.qubits + 1])
def test_nan_in_a_later_set_fails_conjugation(monkeypatch, n):
    # the seventh of the ten angle sets starts with a NaN angle
    check_conjugation = oracle.check_conjugation
    seen = []

    def planted(angles):
        seen.append(angles)
        return check_conjugation([math.nan] + angles[1:] if len(seen) == 7 else angles)
    monkeypatch.setattr(oracle, "check_conjugation", planted)
    check = checks.conjugation_identity(n, random.Random(0))
    assert len(seen) == check.cases == 10
    _assert_nan_fails(check)


def _off_factor_in_one_set(monkeypatch, n):
    """Add 1e-9 to one diagonal entry of the last observable factor of the
    seventh of conjugation_identity's ten angle sets, on n qubits."""
    observable_factor = oracle.observable_factor
    calls = 0

    def perturbed(phi):
        nonlocal calls
        calls += 1
        out = observable_factor(phi)
        if calls == 7 * n:
            out[1, 1] += 1e-9
        return out
    monkeypatch.setattr(oracle, "observable_factor", perturbed)


@pytest.mark.parametrize("n", [3, DENSE_VECTOR_CAP.qubits])
def test_one_bad_set_fails_conjugation(monkeypatch, n):
    assert checks.conjugation_identity(n, random.Random(0)).passed
    _off_factor_in_one_set(monkeypatch, n)
    check = checks.conjugation_identity(n, random.Random(0))
    assert (check.name, check.cases, check.passed) == ("conjugation_identity", 10, False)
    assert check.residual >= checks.EIGEN_TOL


def test_one_bad_set_fails_verify(monkeypatch, capsys):
    _off_factor_in_one_set(monkeypatch, 3)
    assert main(["verify", "--n", "3"]) == 1
    out = capsys.readouterr().out
    assert "  FAIL  conjugation_identity[10] " in out
    assert out.count("  FAIL  ") == 1
    assert out.endswith("CHECK FAILURES PRESENT\n")


def test_nan_in_a_later_trial_fails_collapse(monkeypatch):
    # two pair_phases calls per trial: the 7th is the first of trial 4
    _nan_on_call(monkeypatch, states, "pair_phases", 7)
    _assert_nan_fails(checks.collective_angle_collapse(LABEL, random.Random(0)))


def test_nan_in_a_later_probe_fails_quarter_turns(monkeypatch):
    _nan_on_call(monkeypatch, oracle, "apply_observable", 5)
    _assert_nan_fails(checks.quarter_turn_consistency(4, random.Random(0)))


def test_nan_in_a_later_set_fails_unitarity():
    _assert_nan_fails(checks.rotation_unitarity(ANGLE_SETS + [(math.nan, 0.1, 0.2, 0.3)]))


def test_nan_in_a_later_set_fails_pair_invariance():
    _assert_nan_fails(checks.pair_subspace_invariance(
        LABEL, ANGLE_SETS + [(math.nan, 0.1, 0.2, 0.3)]))


@pytest.mark.parametrize("check", [lambda: checks.rotation_unitarity([]),
                                   lambda: checks.pair_subspace_invariance(LABEL, [])])
def test_zero_cases_are_refused(check):
    with pytest.raises(DomainError, match="needs at least one case"):
        check()


@pytest.mark.parametrize("n", [3, 10, 11, 14])
@pytest.mark.parametrize("sign", [1, -1])
def test_verify_equals_the_reference_kernels(monkeypatch, n, sign):
    # both runs make the same libm calls, so the checks must match exactly
    label = GhzLabel(n, int("01101001011010"[:n], 2), sign)
    fast = checks.verify(label, 40 + n)
    calls = set()

    def traced(name, reference):
        def call(*args):
            calls.add(name)
            return reference(*args)
        return call

    monkeypatch.setattr(oracle, "eigen_residuals",
                        traced("eigen_residuals", per_string_residuals))
    for module in (states, oracle):
        monkeypatch.setattr(module, "rotation_phases",
                            traced("rotation_phases", outer_rotation_phases))
        monkeypatch.setattr(module, "signed_bit_sums",
                            traced("signed_bit_sums", outer_signed_bit_sums))
    assert checks.verify(label, 40 + n) == fast
    assert calls == {"eigen_residuals", "rotation_phases", "signed_bit_sums"}


def _bitwise(value):
    return np.float64(value).tobytes()


@pytest.mark.parametrize("n", range(1, DENSE_VECTOR_CAP.qubits + 1))
@settings(deadline=None, max_examples=10)
@given(data=st.data())
def test_pair_checks_bitwise_equal_to_whole_vectors(n, data):
    # the collapse and pair-invariance checks judge the pair's two indices
    # only; every residual is bitwise that of the whole 2**n vectors
    label = GhzLabel(n, data.draw(st.integers(0, (1 << n) - 1)),
                     data.draw(st.sampled_from([1, -1])))
    seed = data.draw(st.integers(0, 2**32 - 1))
    collapse = checks.collective_angle_collapse(label, random.Random(seed)).residual
    assert _bitwise(collapse) == _bitwise(dense_collapse(label, random.Random(seed)))
    angles = data.draw(st.lists(st.floats(-8.0, 8.0), min_size=n, max_size=n))
    assert (_bitwise(oracle.two_dim_invariance_residual(label, angles))
            == _bitwise(dense_invariance_residual(label, angles)))


@pytest.mark.parametrize("n", [DENSE_VECTOR_CAP.qubits + 1, 63, 64])
def test_verify_refuses_past_the_vector_cap_before_any_check(monkeypatch, n):
    def not_called(*args):
        raise AssertionError("a check ran before the refusal")
    monkeypatch.setattr(checks, "eigenvalues", not_called)
    with pytest.raises(CapacityError,
                       match=f"dense statevectors are capped at 14 qubits \\(got {n}\\)"):
        checks.verify(GhzLabel(n, 0, 1), 0)


def test_eigen_pool_stays_small_at_the_vector_cap():
    # a guard on verify's peak memory at n = 14: the pool is judged on the
    # pair's two amplitudes, never on a 2**n vector or a (strings x 2**n) array
    label = GhzLabel(DENSE_VECTOR_CAP.qubits, 0b01101001011010, -1)
    tracemalloc.start()
    try:
        checks.eigenvalues(label, random.Random(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_no_per_string_objects(monkeypatch, capsys):
    # the eigen pool, the exhaustive sweep and the lhv reports stay z-mask
    # columns throughout: no Pauli string object per pool string or report row
    built = 0
    new = PauliOperator.__new__

    def counted(cls, *args):
        nonlocal built
        built += 1
        return new(cls, *args)
    monkeypatch.setattr(PauliOperator, "__new__", counted)

    def strings_built(run):
        nonlocal built
        built = 0
        result = run()
        return built, result

    label = GhzLabel(EXHAUSTIVE_CAP.qubits, 0b0110100110, 1)
    assert strings_built(lambda: lhv.exhaustive_search(label)) == (0, 0)
    for fmt in ("table", "json"):
        argv = ["lhv", "--n", "12", "--label", "011010011001+", "--format", fmt]
        assert strings_built(lambda: main(argv)) == (0, 0)
    capsys.readouterr()
    # the 16 quarter-turn probes and the all-X string, not the 2,048 or 512 pool cases
    for n, most in ((checks.VERIFY_ALL_OPS_UP_TO, 17), (DENSE_VECTOR_CAP.qubits, 16)):
        count, result = strings_built(lambda: checks.verify(GhzLabel(n, 0b0110100110, -1), 1))
        assert count <= most
        assert all(check.passed for check in result)


@pytest.mark.parametrize("n", range(1, DENSE_VECTOR_CAP.qubits + 1))
def test_every_residual_keeps_a_decade_below_the_tolerance(n):
    # the product-built rotation phases round differently from the
    # exponentiated angle sums; neither may eat into the tolerance
    label = GhzLabel(n, (0b1011001110100 << 1) % (1 << n), 1 if n % 2 else -1)
    for check in checks.verify(label, 40 + n):
        assert check.passed
        assert check.residual < checks.EIGEN_TOL / 10, check.name
