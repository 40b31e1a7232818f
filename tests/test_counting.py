"""Exact count routes and their cross-checks."""

import pytest

from ghzverify.counting import c_n_binomial, c_n_closed, compatible_count, oscillation_term, table1
from ghzverify.errors import DomainError
from ghzverify.poles import Pole, enumerate_pole

# published reference rows for qubit counts 3..10
REFERENCE_CONTRADICTIONS = [1, 4, 10, 20, 36, 64, 120, 240]
REFERENCE_COMPATIBLE = [7, 15, 31, 63, 127, 255, 511, 1023]


class TestBinomial:
    def test_reference_values(self):
        assert [c_n_binomial(n) for n in range(3, 11)] == REFERENCE_CONTRADICTIONS

    def test_seven_is_sum_of_two_binomials(self):
        assert c_n_binomial(7) == 35 + 1

    def test_two_qubits_has_no_contradictions(self):
        assert c_n_binomial(2) == 0

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            c_n_binomial(1)


class TestClosedForm:
    @pytest.mark.parametrize("n,value", [(5, 10), (10, 240), (4, 4), (2, 0)])
    def test_examples(self, n, value):
        assert c_n_closed(n) == value

    def test_equals_binomial_up_to_64(self):
        for n in range(2, 65):
            assert c_n_closed(n) == c_n_binomial(n)

    def test_oscillation_about_trend(self):
        # independent mod-8 table: |sqrt(2**(n-2)) sin(n pi/4)| written out
        for n in range(2, 40):
            r = n % 8
            if r in (0, 4):
                expected = 0
            elif r in (2, 6):
                expected = 2 ** ((n - 2) // 2)
            else:
                expected = 2 ** ((n - 3) // 2)
            assert abs(c_n_closed(n) - 2 ** (n - 2)) == expected
            assert abs(oscillation_term(n)) == expected

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            c_n_closed(0)


class TestTable:
    def test_full_reference_table(self):
        reports = table1(3, 10)
        assert [r.c_n for r in reports] == REFERENCE_CONTRADICTIONS
        assert [r.compatible for r in reports] == REFERENCE_COMPATIBLE

    def test_reports_internally_consistent(self):
        for r in table1(2, 32):
            assert r.c_n == r.closed_form_value == r.binomial_value
            assert r.compatible == compatible_count(r.n)

    def test_two_qubit_row(self):
        (row,) = table1(2, 2)
        assert (row.c_n, row.compatible) == (0, 3)

    def test_bad_range(self):
        with pytest.raises(DomainError):
            table1(1, 5)
        with pytest.raises(DomainError):
            table1(6, 5)

    def test_range_is_capped(self):
        with pytest.raises(DomainError, match="need 2 <= n_min <= n_max <= 64, got 2..65"):
            table1(2, 65)


@pytest.mark.parametrize("n", range(2, 17))
def test_south_enumeration_cross_check(n):
    assert c_n_binomial(n) == len(enumerate_pole(n, Pole.S))
