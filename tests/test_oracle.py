"""Dense-matrix oracle behavior and its matrix-free fast paths."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzverify import oracle
from ghzverify.checks import EIGEN_TOL, conjugation_identity
from ghzverify.errors import DENSE_MATRIX_CAP, DENSE_VECTOR_CAP, CapacityError, DimensionError
from ghzverify.oracle import (apply_observable, apply_pauli, check_conjugation, check_eigen,
                              eigen_residuals, materialize, observable_matrix, rotation_diagonal,
                              two_dim_invariance_residual)
from ghzverify.rotations import co_rotate_quarter
from ghzverify.states import GhzLabel, build_state, pair_amplitudes, rotated_dense, rotated_pair
from references import from_letters, per_string_residuals


class TestMaterialize:
    def test_single_qubit_matrices(self):
        assert np.array_equal(materialize(from_letters("X")), np.array([[0, 1], [1, 0]]))
        assert np.array_equal(materialize(from_letters("Y")), np.array([[0, -1j], [1j, 0]]))
        assert np.array_equal(materialize(from_letters("Z")), np.array([[1, 0], [0, -1]]))

    def test_xx_is_antidiagonal_ones(self):
        xx = materialize(from_letters("XX"))
        assert np.array_equal(xx, np.fliplr(np.eye(4)))

    def test_phase_carried(self):
        assert np.array_equal(materialize(from_letters("Z", 3)), -1j * np.array([[1, 0], [0, -1]]))

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
            materialize(from_letters("X" * (DENSE_MATRIX_CAP.qubits + 1)))


class TestApplyPauli:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10])
    def test_matches_materialized_columns(self, n):
        rng = np.random.default_rng(31 + n)
        for _ in range(20):
            # the sign, then the factor i, then the letters, drawn in that order
            phase = 2 * int(rng.integers(0, 2)) + int(rng.integers(0, 2))
            op = from_letters("".join(rng.choice(list("IXYZ")) for _ in range(n)), phase)
            dense = materialize(op)
            vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            assert np.max(np.abs(apply_pauli(op, vec) - dense @ vec)) < 1e-12


class TestCheckEigen:
    def test_plus_state_under_all_x(self):
        state = build_state(GhzLabel(3, 0, 1))
        assert check_eigen(state, apply_pauli(from_letters("XXX"), state), 1) < 1e-15

    def test_minus_state_under_all_x(self):
        state = build_state(GhzLabel(3, 0, -1))
        assert check_eigen(state, apply_pauli(from_letters("XXX"), state), -1) < EIGEN_TOL

    def test_quarter_state_under_all_y(self):
        state = rotated_dense(GhzLabel(3, 0, 1), math.pi / 2)
        assert check_eigen(state, apply_pauli(from_letters("YYY"), state), -1) < EIGEN_TOL

    def test_wrong_sign_reports_residual(self):
        state = build_state(GhzLabel(3, 0, 1))
        residual = check_eigen(state, apply_pauli(from_letters("XXX"), state), -1)
        assert residual == pytest.approx(2 / math.sqrt(2))

    def test_accepts_dense_matrix(self):
        state = build_state(GhzLabel(2, 0, 1))
        assert check_eigen(state, materialize(from_letters("XX")) @ state, 1) < EIGEN_TOL

    def test_image_shape_must_match_state(self):
        state = build_state(GhzLabel(2, 0, 1))
        with pytest.raises(DimensionError):
            check_eigen(state, build_state(GhzLabel(3, 0, 1)), 1)


def _random_masks(rng, n, count):
    """Z masks of random X/Y strings (the x mask is all ones)."""
    return rng.integers(0, 1 << n, size=count).astype(np.uint64)


class TestEigenResiduals:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_bitwise_equal_to_apply_pauli_and_check_eigen(self, n):
        # any two amplitudes on the pair, not only a rotated GHZ state's
        rng = np.random.default_rng(200 + n)
        for _ in range(4):
            label = GhzLabel(n, int(rng.integers(0, 1 << n)), 1)
            amplitudes = rng.normal(size=2) + 1j * rng.normal(size=2)
            z_masks = _random_masks(rng, n, 23)
            assert np.array_equal(eigen_residuals(z_masks, label, amplitudes),
                                  per_string_residuals(z_masks, label, amplitudes))

    @pytest.mark.parametrize("n", range(1, DENSE_VECTOR_CAP.qubits + 1))
    @settings(deadline=None, max_examples=10)
    @given(data=st.data())
    def test_pair_route_bitwise_equal_to_the_dense_state(self, n, data):
        # the rotated pair is the dense vector's two nonzero entries, and the
        # pair's residuals are the whole vector's, for any bits, canonical or not
        label = GhzLabel(n, data.draw(st.integers(0, (1 << n) - 1)),
                         data.draw(st.sampled_from([1, -1])))
        phi = data.draw(st.integers(0, 3)) * math.pi / 2
        amplitudes = rotated_pair(label, phi)
        vec = rotated_dense(label, phi)
        assert vec[[label.bits, label.complement_bits]].tobytes() == amplitudes.tobytes()
        assert np.count_nonzero(vec) == 2
        z_masks = np.array(data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8)),
                           dtype=np.uint64)
        assert (eigen_residuals(z_masks, label, amplitudes).tobytes()
                == per_string_residuals(z_masks, label, amplitudes).tobytes())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf),
                                     complex(math.nan, math.inf)])
    def test_non_finite_amplitude_is_judged(self, bad):
        # nan + inf j reads inf at its own index and nan at its complement's,
        # so both of the pair's indices must be judged
        label = GhzLabel(3, 0b001, 1)
        z_masks = np.arange(8, dtype=np.uint64)
        amplitudes = [1 / math.sqrt(2), bad]
        with np.errstate(invalid="ignore"):
            got = eigen_residuals(z_masks, label, amplitudes)
            expected = per_string_residuals(z_masks, label, amplitudes)
        assert not (got < EIGEN_TOL).any()
        assert np.array_equal(got, expected, equal_nan=True)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_non_finite_grid_keeps_every_verdict(self, n):
        # the dense reference may read nan where the pair reads inf (see the
        # oracle docstring), but no residual changes from finite to not
        values = [math.nan, math.inf, -math.inf, complex(0, -math.inf),
                  complex(math.nan, math.inf), complex(math.inf, math.inf), 0.0, -0.0,
                  1 / math.sqrt(2), complex(-0.0, 0.5)]
        z_masks = np.arange(1 << n, dtype=np.uint64)
        for bits in range(1 << n):
            for sign in (1, -1):
                label = GhzLabel(n, bits, sign)
                for amplitudes in itertools.product(values, repeat=2):
                    with np.errstate(invalid="ignore"):
                        got = eigen_residuals(z_masks, label, amplitudes)
                        expected = per_string_residuals(z_masks, label, amplitudes)
                    finite = np.isfinite(got)
                    assert np.array_equal(finite, np.isfinite(expected))
                    assert got[finite].tobytes() == expected[finite].tobytes()
                    if not np.isfinite(amplitudes).all():
                        assert not (got < EIGEN_TOL).any()

    def test_eigenstates_read_zero_on_their_sign(self):
        # XXX and YYX on |000> - |111>: eigenvalues -1 and +1
        label = GhzLabel(3, 0, -1)
        residuals = eigen_residuals(np.array([0b000, 0b110], np.uint64), label,
                                    pair_amplitudes(label))
        assert residuals.tolist() == [[2 / math.sqrt(2), 0.0], [0.0, 2 / math.sqrt(2)]]

    def test_zero_amplitudes_read_zero(self):
        z_masks = np.arange(8, dtype=np.uint64)
        assert np.array_equal(eigen_residuals(z_masks, GhzLabel(3, 0b010, 1), np.zeros(2)),
                              np.zeros((8, 2)))

    def test_empty_pool(self):
        assert eigen_residuals(np.empty(0, np.uint64), GhzLabel(2, 0, 1),
                               np.ones(2)).shape == (0, 2)

    def test_dimension_mismatch(self):
        # a mask past the label's qubits, and amplitudes that are not a pair
        for z_mask, size in [(0b100, 2), (0, 3), (0, 4)]:
            with pytest.raises(DimensionError):
                eigen_residuals(np.array([z_mask], np.uint64), GhzLabel(2, 0, 1), np.ones(size))


class TestCheckConjugation:
    def test_zero_angles_exact(self):
        assert check_conjugation((0.0, 0.0, 0.0)) == 0.0

    def test_quarter_turns_match_symbolic(self):
        assert check_conjugation((math.pi / 2, 0.0, math.pi)) < EIGEN_TOL
        dense = materialize(co_rotate_quarter((1, 0, 2)))
        general = observable_matrix((math.pi / 2, 0.0, math.pi))
        assert np.max(np.abs(dense - general)) < 1e-12

    def test_fifty_random_angle_sets(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            assert check_conjugation(tuple(rng.uniform(-math.pi, math.pi, size=n))) < EIGEN_TOL

    def test_streaming_path_above_matrix_cap(self):
        rng = np.random.default_rng(8)
        angles = tuple(rng.uniform(-math.pi, math.pi, size=DENSE_MATRIX_CAP.qubits + 1))
        assert check_conjugation(angles) < EIGEN_TOL

    def test_vector_cap(self):
        with pytest.raises(CapacityError):
            check_conjugation((0.1,) * 15)

    @pytest.mark.parametrize("n", [3, DENSE_MATRIX_CAP.qubits + 1])
    def test_nan_angle_gives_nan(self, n):
        assert math.isnan(check_conjugation((math.nan,) + (0.1,) * (n - 1)))

    @pytest.mark.parametrize("all_x", [lambda n: materialize(from_letters("X" * n)),
                                       lambda n: np.fliplr(np.eye(1 << n, dtype=complex))],
                             ids=["materialize", "fliplr"])
    @pytest.mark.parametrize("n", range(1, DENSE_MATRIX_CAP.qubits + 1))
    def test_antidiagonals_match_whole_matrix_reference(self, n, all_x):
        # the whole-matrix comparison the antidiagonals replace, entry for
        # entry, with the all-X matrix from materialize and from np.eye alone,
        # on the same 3 + 5 + 10 + 12 angle sets, one at a time
        matrix = all_x(n)
        rng = np.random.default_rng(100 + n)
        for rows in (3, 5, 10, 12):
            for angles in [tuple(rng.uniform(-math.pi, math.pi, size=n)) for _ in range(rows)]:
                assert check_conjugation(angles) == _whole_matrix_residual(angles, matrix)

    def test_one_entry_off_in_seventh_set_fails(self, monkeypatch):
        # one diagonal entry, off the antidiagonal, of one factor of only one
        # set of ten gets a 1e-9 error: the whole matrices differ there too
        n = DENSE_MATRIX_CAP.qubits
        rng = np.random.default_rng(5)
        sets = [tuple(rng.uniform(-math.pi, math.pi, size=n)) for _ in range(10)]
        target = sets[6][-1]
        assert sum(angles.count(target) for angles in sets) == 1
        original = oracle.observable_factor
        perturbed = 0

        def perturbing(phi):
            nonlocal perturbed
            out = original(phi)
            if phi == target:
                perturbed += 1
                out[1, 1] += 1e-9
            return out

        assert all(check_conjugation(angles) < EIGEN_TOL for angles in sets)
        monkeypatch.setattr(oracle, "observable_factor", perturbing)
        residuals = [check_conjugation(angles) for angles in sets]
        assert perturbed == 1
        assert [residual >= EIGEN_TOL for residual in residuals] == [k == 6 for k in range(10)]
        assert _whole_matrix_residual(sets[6]) >= EIGEN_TOL

    @pytest.mark.parametrize("n", [DENSE_MATRIX_CAP.qubits + 1, DENSE_VECTOR_CAP.qubits])
    def test_one_factor_diagonal_entry_off_fails_above_the_matrix_cap(self, monkeypatch, n):
        # the observable's factors are read at every n: a factor that leaks
        # off the antidiagonal fails where no whole matrix can be built
        rng = np.random.default_rng(10 + n)
        sets = [tuple(rng.uniform(-math.pi, math.pi, size=n)) for _ in range(3)]
        target = sets[1][2]
        original = oracle.observable_factor

        def perturbing(phi):
            out = original(phi)
            if phi == target:
                out[0, 0] += 1e-9
            return out

        assert all(check_conjugation(angles) < EIGEN_TOL for angles in sets)
        monkeypatch.setattr(oracle, "observable_factor", perturbing)
        assert [check_conjugation(angles) >= EIGEN_TOL for angles in sets] == [False, True, False]

    def test_one_diagonal_entry_off_fails_above_the_matrix_cap(self, monkeypatch):
        # the rotation diagonal and the factor-built antidiagonal are
        # separate routes: a 1e-9 error in one entry of the first shows
        def perturbed(angles):
            out = rotation_diagonal(angles)
            out[37] += 1e-9
            return out

        rng = np.random.default_rng(9)
        angles = tuple(rng.uniform(-math.pi, math.pi, size=DENSE_MATRIX_CAP.qubits + 1))
        assert check_conjugation(angles) < EIGEN_TOL
        monkeypatch.setattr(oracle, "rotation_diagonal", perturbed)
        assert check_conjugation(angles) >= EIGEN_TOL

    def test_all_x_built_once_per_check(self, monkeypatch):
        # neither the all-X matrix nor any observable matrix is built, on
        # either side of the matrix cap
        def no_matrix(*_):
            raise AssertionError("a Kronecker chain was built")

        monkeypatch.setattr(oracle, "materialize", no_matrix)
        monkeypatch.setattr(oracle, "observable_matrix", no_matrix)
        monkeypatch.setattr(oracle.np, "kron", no_matrix)
        for n in (DENSE_MATRIX_CAP.qubits, DENSE_VECTOR_CAP.qubits):
            assert conjugation_identity(n, np.random.default_rng(0)).passed

    def test_traced_peak_at_the_matrix_cap(self):
        # the whole-matrix route held the all-X matrix and one observable
        # matrix, 16 MiB each, at once
        rng = np.random.default_rng(6)
        n = DENSE_MATRIX_CAP.qubits
        sets = [tuple(rng.uniform(-math.pi, math.pi, size=n)) for _ in range(10)]
        tracemalloc.start()
        try:
            assert all(check_conjugation(angles) < EIGEN_TOL for angles in sets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


def _whole_matrix_residual(angles, all_x=None):
    """check_conjugation's residual from the whole matrices: ``all_x`` (by
    default as materialize builds it) and observable_matrix."""
    d = rotation_diagonal(angles)
    if all_x is None:
        all_x = materialize(from_letters("X" * len(angles)))
    lhs = (d[:, None] * all_x) * np.conj(d)[None, :]
    return float(np.max(np.abs(lhs - observable_matrix(angles))))


#: Angles whose factors hold exact zeros, signed zeros, exact ones or
#: subnormal products, next to generic floats and NaN.
_ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi, 2 * math.pi,
                     1e-300, -1e-300, math.nan]),
    st.floats(-2 * math.pi, 2 * math.pi))


@pytest.mark.parametrize("n", range(1, DENSE_MATRIX_CAP.qubits + 1))
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_antidiagonals_bitwise_equal_to_whole_matrices(n, data):
    sets = st.lists(st.lists(_ANGLES, min_size=n, max_size=n).map(tuple), min_size=1, max_size=3)
    for angles in data.draw(sets):
        got = check_conjugation(angles)
        with np.errstate(invalid="ignore"):
            expected = _whole_matrix_residual(angles)
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()


class TestRotationProperties:
    def test_diagonal_is_unitary(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            diag = rotation_diagonal(tuple(rng.uniform(-7, 7, size=4)))
            assert np.max(np.abs(np.abs(diag) - 1.0)) < 1e-12

    def test_pair_invariance_refuses_wrong_angle_count(self, monkeypatch):
        def not_called(*args):
            raise AssertionError("a vector was built before the refusal")
        monkeypatch.setattr(oracle, "pair_amplitudes", not_called)
        monkeypatch.setattr(oracle, "pair_phases", not_called)
        with pytest.raises(DimensionError, match="expected 3 angles, got 2"):
            two_dim_invariance_residual(GhzLabel(3, 0, 1), (0.1, 0.2))

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
    matrix_free = np.vdot(vec, apply_pauli(op, vec))
    assert matrix_free == pytest.approx(np.vdot(vec, materialize(op) @ vec))


def test_apply_observable_dimension_guard():
    with pytest.raises(Exception):
        apply_observable(np.zeros(4), (0.1,))
