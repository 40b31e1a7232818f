"""The check engine: case counts and the tolerance every residual is judged by."""

import pytest

from ghzverify import GhzLabel, checks, oracle


def test_cases_per_check_at_three_qubits():
    got = [(c.name, c.cases) for c in checks.verify(GhzLabel(3, 0, 1), 0)]
    assert got == [("eigenvalues_symbolic_vs_oracle", 16),
                   ("collective_angle_collapse", 20),
                   ("conjugation_identity", 10),
                   ("quarter_turn_consistency", 16),
                   ("rotation_unitarity", 10),
                   ("pair_subspace_invariance", 10)]


def test_eigen_cases_are_sampled_above_the_matrix_cap():
    n = oracle.DENSE_MATRIX_CAP + 1
    eigen = checks.verify(GhzLabel(n, 0b01101001011, -1), 5)[0]
    assert (eigen.name, eigen.cases) == ("eigenvalues_symbolic_vs_oracle", 512)
    assert eigen.cases == 2 * checks.VERIFY_SAMPLED_OPS


@pytest.mark.parametrize("residual,passed", [(0.999e-12, True), (1e-12, False)])
def test_tolerance_is_strict(monkeypatch, residual, passed):
    monkeypatch.setattr(oracle, "two_dim_invariance_residual", lambda label, angles: residual)
    (check,) = [c for c in checks.verify(GhzLabel(3, 0, 1), 0)
                if c.name == "pair_subspace_invariance"]
    assert check.passed is passed
    assert check.residual == residual
