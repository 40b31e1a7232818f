"""Dense-matrix oracle behavior and its matrix-free fast paths."""

import math

import numpy as np
import pytest

from ghzverify import (CapacityError, DimensionError, GhzLabel, build_state,
                       from_letters, parse, pihalf_state)
from ghzverify.oracle import (DENSE_MATRIX_CAP, apply_pauli, apply_observable,
                              check_conjugation, check_eigen, expectation,
                              materialize, observable_matrix,
                              rotation_diagonal, two_dim_invariance_residual)


class TestMaterialize:
    def test_single_qubit_matrices(self):
        assert np.array_equal(materialize(from_letters("X")), np.array([[0, 1], [1, 0]]))
        assert np.array_equal(materialize(from_letters("Y")), np.array([[0, -1j], [1j, 0]]))
        assert np.array_equal(materialize(from_letters("Z")), np.array([[1, 0], [0, -1]]))

    def test_xx_is_antidiagonal_ones(self):
        xx = materialize(from_letters("XX"))
        assert np.array_equal(xx, np.fliplr(np.eye(4)))

    def test_phase_carried(self):
        assert np.array_equal(materialize(parse("-iZ")), -1j * np.array([[1, 0], [0, -1]]))

    def test_unitary_and_hermitian_up_to_phase(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            op = from_letters("".join(rng.choice(list("IXYZ")) for _ in range(n)))
            m = materialize(op)
            assert np.max(np.abs(m @ m.conj().T - np.eye(1 << n))) < 1e-12
            assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_cap(self):
        with pytest.raises(CapacityError):
            materialize(from_letters("X" * (DENSE_MATRIX_CAP + 1)))


class TestApplyPauli:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10])
    def test_matches_materialized_columns(self, n):
        rng = np.random.default_rng(31 + n)
        for _ in range(20):
            op = parse(("-" if rng.integers(0, 2) else "+")
                       + ("i" if rng.integers(0, 2) else "")
                       + "".join(rng.choice(list("IXYZ")) for _ in range(n)))
            dense = materialize(op)
            vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            assert np.max(np.abs(apply_pauli(op, vec) - dense @ vec)) < 1e-12


class TestCheckEigen:
    def test_plus_state_under_all_x(self):
        state = build_state(GhzLabel(3, 0, 1))
        result = check_eigen(state, apply_pauli(from_letters("XXX"), state), 1)
        assert result.passed and result.residual < 1e-15

    def test_minus_state_under_all_x(self):
        state = build_state(GhzLabel(3, 0, -1))
        assert check_eigen(state, apply_pauli(from_letters("XXX"), state), -1).passed

    def test_quarter_state_under_all_y(self):
        state = pihalf_state(GhzLabel(3, 0, 1))
        assert check_eigen(state, apply_pauli(from_letters("YYY"), state), -1).passed

    def test_wrong_sign_reports_residual(self):
        state = build_state(GhzLabel(3, 0, 1))
        result = check_eigen(state, apply_pauli(from_letters("XXX"), state), -1)
        assert not result.passed
        assert result.residual == pytest.approx(2 / math.sqrt(2))

    def test_accepts_dense_matrix(self):
        state = build_state(GhzLabel(2, 0, 1))
        assert check_eigen(state, materialize(from_letters("XX")) @ state, 1).passed

    def test_image_shape_must_match_state(self):
        state = build_state(GhzLabel(2, 0, 1))
        with pytest.raises(DimensionError):
            check_eigen(state, build_state(GhzLabel(3, 0, 1)), 1)


class TestCheckConjugation:
    def test_zero_angles_exact(self):
        result = check_conjugation((0.0, 0.0, 0.0))
        assert result.passed and result.residual == 0.0

    def test_quarter_turns_match_symbolic(self):
        from ghzverify import co_rotate_quarter
        result = check_conjugation((math.pi / 2, 0.0, math.pi))
        assert result.passed
        dense = materialize(co_rotate_quarter((1, 0, 2)))
        general = observable_matrix((math.pi / 2, 0.0, math.pi))
        assert np.max(np.abs(dense - general)) < 1e-12

    def test_fifty_random_angle_sets(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            assert check_conjugation(tuple(rng.uniform(-math.pi, math.pi, size=n))).passed

    def test_streaming_path_above_matrix_cap(self):
        rng = np.random.default_rng(8)
        angles = tuple(rng.uniform(-math.pi, math.pi, size=DENSE_MATRIX_CAP + 1))
        assert check_conjugation(angles).passed

    def test_vector_cap(self):
        with pytest.raises(CapacityError):
            check_conjugation((0.1,) * 15)


class TestRotationProperties:
    def test_diagonal_is_unitary(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            diag = rotation_diagonal(tuple(rng.uniform(-7, 7, size=4)))
            assert np.max(np.abs(np.abs(diag) - 1.0)) < 1e-12

    def test_pair_subspace_invariant(self):
        rng = np.random.default_rng(56)
        for bits in (0, 0b0110, 0b0011):
            label = GhzLabel(4, bits, 1)
            for _ in range(10):
                angles = tuple(rng.uniform(-7, 7, size=4))
                assert two_dim_invariance_residual(label, angles) < 1e-12


def test_expectation_routes_agree():
    rng = np.random.default_rng(77)
    vec = rng.normal(size=8) + 1j * rng.normal(size=8)
    vec /= np.linalg.norm(vec)
    op = from_letters("YXZ")
    assert expectation(vec, op) == pytest.approx(complex(np.vdot(vec, materialize(op) @ vec)))


def test_apply_observable_dimension_guard():
    with pytest.raises(Exception):
        apply_observable(np.zeros(4), (0.1,))
