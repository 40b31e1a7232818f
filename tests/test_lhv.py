"""The assignment sweep, contradiction detection, and the swap transport of its rows."""

import dataclasses
import itertools
import json
import math
import re
import time
import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzverify import pauli
from ghzverify.checks import EIGEN_TOL
from ghzverify.cli import main
from ghzverify.counting import c_n_closed
from ghzverify.errors import (DENSE_MATRIX_CAP, EXHAUSTIVE_CAP, IDENTITY_ALL_SUBSETS_CAP,
                              CapacityError, DimensionError, DomainError)
from ghzverify.lhv import exhaustive_search, find_contradictions
from ghzverify.pauli import (PauliOperator, multiply, odd_subset_identities, qubit_mask,
                             verify_ks_identity)
from ghzverify.poles import Pole, eigenvalue_symbolic, enumerate_pole, pole_runs, predictions
from ghzverify.states import GhzLabel, rotated_dense
from references import (CheckedRows, assignment_value, checked_rows, column_sweep,
                        ew_contradictions, ew_swap, from_letters, half_turn, satisfying_assignments,
                        swap_conjugation_residual, swapped_state, xy_string)


def _xy(n, z):
    """The X/Y string with z mask ``z`` as a PauliOperator."""
    return PauliOperator(n, (1 << n) - 1, z)


class TestValueOf:
    """The product rule of the test-side sweep (references.assignment_value)."""

    def test_all_plus(self):
        assert assignment_value(3, 0, 0, from_letters("XXX").z_bits) == 1

    def test_single_minus_factor(self):
        assert assignment_value(3, 0, 0b010, from_letters("XYX").z_bits) == -1

    def test_product_rule_against_factor_products(self):
        # independent route: multiply the per-qubit values directly
        for vx, vy in itertools.product(range(8), repeat=2):
            for positions in [(), (1,), (2, 3), (1, 2, 3)]:
                direct = 1
                for k in (1, 2, 3):
                    bits = vy if k in positions else vx
                    direct *= -1 if bits >> (3 - k) & 1 else 1
                assert assignment_value(3, vx, vy, xy_string(3, positions).z_bits) == direct


def _rows(checked, indices=None):
    """(target, lhv, quantum, generators) of each row, regenerated run by run.

    A row's generators are read bit by bit from its S mask, target ^ checked.mask.
    """
    n = checked.label.n
    generators = checked.generators.tolist()
    rows, offset = [], 0
    for targets, lhv, quantum in checked.runs():
        picks = (range(len(targets)) if indices is None
                 else [i - offset for i in indices if offset <= i < offset + len(targets)])
        for i in picks:
            target = int(targets[i])
            y_mask = target ^ checked.mask
            rows.append((_xy(n, target).letters(), int(lhv[i]), int(quantum[i]),
                         tuple(_xy(n, generators[k - 1]).letters()
                               for k in range(1, n + 1) if y_mask >> (n - k) & 1)))
        offset += len(targets)
    return rows


def _target_poles(checked):
    return {Pole(_xy(checked.label.n, t).letters().count("Y") % 4)
            for targets, _, _ in checked.runs() for t in targets.tolist()}


class TestFindContradictions:
    def test_three_qubits(self):
        label = GhzLabel(3, 0, 1)
        result = find_contradictions(label)
        checked = CheckedRows(label, result)
        assert _rows(checked) == [("YYY", 1, -1, ("YXX", "XYX", "XXY"))]
        assert checked.generators.dtype == np.uint64
        assert checked.generators.tolist() == [0b100, 0b010, 0b001]
        ((targets, lhv, quantum),) = checked.runs()
        assert (targets.dtype, lhv.dtype, quantum.dtype) == (np.uint64, np.int8, np.int8)
        # what outlives the call is read-only: the result, and the low-mask
        # tables that every run of the same low popcount shares
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.negative = 1
        for _, lows in pole_runs(3, Pole.S):
            with pytest.raises(ValueError):
                lows[0] = 0

    def test_report_json(self, capsys):
        assert main(["lhv", "--n", "3", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["reports"] == [{
            "n": 3, "s_operator": "YYY", "lhv": 1, "quantum": -1,
            "generators": ["YXX", "XYX", "XXY"]}]

    @pytest.mark.parametrize("n,count", [(3, 1), (4, 4), (5, 10)])
    def test_counts_on_zero_pattern(self, n, count):
        reports = checked_rows(GhzLabel(n, 0, 1))
        assert len(reports) == count
        assert reports.opposed()

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_counts_over_all_canonical_labels(self, n):
        expected = c_n_closed(n)
        for bits in range(1 << (n - 1)):
            for sign in (1, -1):
                reports = checked_rows(GhzLabel(n, bits, sign))
                assert len(reports) == expected
                assert reports.opposed()

    @pytest.mark.parametrize("n", [7, 8, 9, 10])
    def test_counts_sampled_labels(self, n):
        rng = np.random.default_rng(500 + n)
        expected = c_n_closed(n)
        for _ in range(32):
            label = GhzLabel(n, int(rng.integers(0, 1 << (n - 1))),
                             1 if rng.integers(0, 2) else -1)
            reports = checked_rows(label)
            assert len(reports) == expected
            assert reports.opposed()

    def test_non_canonical_rejected(self):
        with pytest.raises(DomainError):
            find_contradictions(GhzLabel(3, 0b100, 1))

    @pytest.mark.parametrize("n", [13, 16])
    def test_predictions_split_over_each_run(self, n):
        # the CLI prints a row's sign as its run's high part's prediction
        # times its low mask's: the product rule splits over disjoint bits
        rng = np.random.default_rng(n)
        high_values = set()
        for bits in rng.integers(0, 1 << (n - 1), size=3).tolist():
            for sign in (1, -1):  # the sign is generator 1's eigenvalue
                negative = find_contradictions(GhzLabel(n, bits, sign)).negative
                for high, lows in pole_runs(n, Pole.S):
                    high_value = predictions(np.array([high], np.uint64), negative)
                    assert np.array_equal(predictions(lows, negative) * high_value,
                                          predictions(lows | np.uint64(high), negative))
                    high_values.add(int(high_value[0]))
        assert high_values == {1, -1}

    def test_predictions_are_int8_without_wraparound(self):
        # a uint8 parity would reach -1 only by wrapping, which warns on a scalar
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mask, value in ((4, -1), (3, -1), (6, 1), (0, 1)):
                scalar = predictions(np.uint64(mask), 0b110)
                assert (scalar.dtype, int(scalar)) == (np.int8, value)
            column = predictions(np.array([4, 5, 3, 0, 6], np.uint64), 0b110)
        assert column.dtype == np.int8
        assert column.tolist() == [-1, -1, -1, 1, 1]

    @pytest.mark.parametrize("analysis", [
        find_contradictions, lambda label: ew_contradictions(label, {1})],
        ids=["find_contradictions", "ew_contradictions"])
    def test_one_qubit_refused(self, analysis):
        # no contradiction count is defined below two qubits
        with pytest.raises(DomainError, match=r"counts are defined for n >= 2 \(got 1\)"):
            analysis(GhzLabel(1, 0, 1))


class TestExhaustiveSearch:
    def test_no_assignment_survives_three_qubits(self):
        assert exhaustive_search(GhzLabel(3, 0, 1)) == 0

    def test_two_qubits_satisfiable(self):
        assert exhaustive_search(GhzLabel(2, 0, 1)) > 0

    def test_four_qubits(self):
        assert exhaustive_search(GhzLabel(4, 0, 1)) == 0

    @pytest.mark.parametrize("n", [3, 4, 5, EXHAUSTIVE_CAP.qubits])
    def test_north_only_constraints_leave_exactly_2_to_n(self, n):
        # choosing v(X_k) freely forces each v(Y_k) uniquely
        assert exhaustive_search(GhzLabel(n, 0, 1), require_s=False) == 1 << n

    def test_nonzero_patterns_also_refuted(self):
        for bits in range(4):
            for sign in (1, -1):
                assert exhaustive_search(GhzLabel(3, bits, sign)) == 0

    def test_cap(self):
        with pytest.raises(CapacityError):
            exhaustive_search(GhzLabel(11, 0, 1))

    def test_traced_peak_at_the_cap(self):
        # two uint16 columns of all 4**n pairs held 4 MiB before the first
        # constraint; the signature join holds (2**n, m) parity tables, about
        # 1.5 MiB for the m = 496 constraints at n = 10
        tracemalloc.start()
        try:
            assert exhaustive_search(GhzLabel(EXHAUSTIVE_CAP.qubits, 0, 1)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    @pytest.mark.parametrize("n", range(1, EXHAUSTIVE_CAP.qubits + 1))
    @settings(deadline=None, max_examples=8)
    @given(data=st.data())
    def test_join_matches_the_column_sweep(self, n, data):
        label = GhzLabel(n, data.draw(st.integers(0, (1 << n) - 1)),
                         data.draw(st.sampled_from([1, -1])))
        require_s = data.draw(st.booleans())
        assert exhaustive_search(label, require_s=require_s) == column_sweep(label, require_s)

    @pytest.mark.parametrize("n", range(1, EXHAUSTIVE_CAP.qubits + 1))
    @settings(deadline=None, max_examples=8)
    @given(vx=st.integers(0, 1 << 20), vy=st.integers(0, 1 << 20), require_s=st.booleans())
    def test_join_counts_the_survivors_of_a_planted_assignment(self, n, vx, vy, require_s):
        # signs read off one assignment are consistent, and the S strings
        # add no rank to the N strings, so 2**n pairs survive either way:
        # the join counts repeated matches, where the quarter-turn
        # eigenvalues with S leave none
        full = np.uint64((1 << n) - 1)
        vx, vy = np.uint64(vx) & full, np.uint64(vy) & full

        def planted(label, quarter, z_masks):
            flips = np.bitwise_count((z_masks ^ full) & vx) + np.bitwise_count(z_masks & vy)
            return 1 - 2 * (flips & 1).astype(np.int8)

        label = GhzLabel(n, 0, 1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("ghzverify.lhv.eigenvalue_column", planted)
            patch.setattr("references.eigenvalue_column", planted)
            count = exhaustive_search(label, require_s=require_s)
            assert count == column_sweep(label, require_s)
        assert count == 1 << n

    @pytest.mark.parametrize("require_s", [True, False])
    @pytest.mark.parametrize("label", [GhzLabel(n, bits, sign)
                                       for n in (1, 2, 3, 4)
                                       for bits in range(1 << n)
                                       for sign in (1, -1)], ids=str)
    def test_pure_python_cross_check_small(self, label, require_s):
        # independent reference: explicit loop over all assignments
        assert (exhaustive_search(label, require_s=require_s)
                == satisfying_assignments(label, require_s))


class TestKsIdentity:
    def test_triple_product(self):
        assert verify_ks_identity(3, (1, 2, 3))

    def test_single_generator(self):
        assert verify_ks_identity(4, (2,))

    def test_five_generators_positive_sign(self):
        product = reduce(multiply, (xy_string(5, (k,)) for k in range(1, 6)))
        assert product == from_letters("YYYYY")
        assert verify_ks_identity(5, (1, 2, 3, 4, 5))

    def test_even_subset_rejected(self):
        with pytest.raises(DomainError):
            verify_ks_identity(4, (1, 2))

    def test_repeated_position_rejected(self):
        with pytest.raises(DomainError, match="subset lists qubit 1 more than once"):
            verify_ks_identity(5, [1, 1, 1])

    @pytest.mark.parametrize("n", range(3, 11))
    def test_all_odd_subsets(self, n):
        for size in range(1, n + 1, 2):
            for subset in itertools.combinations(range(1, n + 1), size):
                assert verify_ks_identity(n, subset)

    def test_sweep_takes_every_odd_subset_in_order(self):
        verdicts = odd_subset_identities(6)
        assert [subset for subset, _ in verdicts] == [
            subset for size in (1, 3, 5) for subset in itertools.combinations(range(1, 7), size)]
        assert all(ok for _, ok in verdicts)

    def test_sweep_refused_above_its_cap(self):
        with pytest.raises(CapacityError,
                           match=r"^checking all odd subsets is capped at 12 qubits \(got 13\)$"):
            odd_subset_identities(IDENTITY_ALL_SUBSETS_CAP.qubits + 1)

    @pytest.mark.parametrize("n", [0, -3])
    def test_sweep_refused_without_qubits(self, n):
        # an empty sweep would pass after checking nothing
        with pytest.raises(DomainError, match=f"need n >= 1, got {n}"):
            odd_subset_identities(n)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_sweep_agrees_with_the_one_subset_route(self, n):
        # the sweep shares prefix products; each verdict is still the fold's
        assert odd_subset_identities(n) == [(subset, verify_ks_identity(n, subset))
                                            for subset in _odd_subsets(n)]

    def test_a_wrong_prefix_product_fails_every_subset_that_extends_it(self, monkeypatch):
        # a product whose z mask is that of (2, 3, 5) gets its sign flipped,
        # so both routes must fail exactly the odd subsets that begin with it
        n, bad = 7, qubit_mask(7, (2, 3, 5))
        exact = multiply

        def flipping(a, b):
            product = exact(a, b)
            if product.z_bits != bad:
                return product
            return PauliOperator(product.n, product.x_bits, product.z_bits, product.phase + 2)
        monkeypatch.setattr(pauli, "multiply", flipping)
        failed = [subset for subset, ok in odd_subset_identities(n) if not ok]
        assert failed == [(2, 3, 5), (2, 3, 5, 6, 7)]
        assert [subset for subset in _odd_subsets(n) if not verify_ks_identity(n, subset)] == failed

    def test_sweep_makes_one_product_per_subset(self, monkeypatch, capsys):
        # one multiply per subset of two or more qubits at most; the fold
        # per odd subset made 10,240 at the cap
        calls = 0
        exact = multiply

        def counted(a, b):
            nonlocal calls
            calls += 1
            return exact(a, b)
        monkeypatch.setattr(pauli, "multiply", counted)
        assert main(["identity", "--n", str(IDENTITY_ALL_SUBSETS_CAP.qubits)]) == 0
        capsys.readouterr()
        assert 0 < calls <= (1 << IDENTITY_ALL_SUBSETS_CAP.qubits) - 1

    def test_verdict_does_not_depend_on_input_order(self):
        n = 7
        for size in range(1, n + 1, 2):
            for subset in itertools.combinations(range(1, n + 1), size):
                expected = verify_ks_identity(n, subset)
                for order in itertools.permutations(subset):
                    assert verify_ks_identity(n, order) == expected
                assert verify_ks_identity(n, iter(subset[::-1])) == expected

    def test_subset_work_does_not_grow_with_n_squared(self):
        start = time.perf_counter()
        assert verify_ks_identity(10**6, (3, 1, 2))
        assert time.perf_counter() - start < 2.0


class TestEwSwap:
    @pytest.mark.parametrize("letters,subset,result,pole", [
        ("YYY", (1, 2, 3), "XXX", Pole.E),
        ("YXX", (1,), "XXX", Pole.E),
        ("XXX", (2,), "XYX", Pole.N),
        ("YXY", (1, 2, 3), "XYX", Pole.N),
    ])
    def test_examples(self, letters, subset, result, pole):
        n = len(letters)
        swapped = ew_swap(n, from_letters(letters).z_bits, subset)
        assert _xy(n, swapped).letters() == result
        assert swapped in enumerate_pole(n, pole).tolist()

    def test_even_subset_rejected(self):
        with pytest.raises(DomainError):
            ew_swap(3, 0b111, (1, 2))

    @pytest.mark.parametrize("z", [0b1000, -1])
    def test_mask_that_does_not_fit_rejected(self, z):
        with pytest.raises(DimensionError, match=f"z mask {z} does not fit 3 qubits"):
            ew_swap(3, z, (1,))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_swap_preserves_product_identity(self, n):
        for swap_size in range(1, n + 1, 2):
            for subset in itertools.combinations(range(1, n + 1), swap_size):
                gens = {k: _xy(n, ew_swap(n, xy_string(n, (k,)).z_bits, subset))
                        for k in range(1, n + 1)}
                for target_size in range(1, n + 1, 2):
                    for positions in itertools.combinations(range(1, n + 1), target_size):
                        product = reduce(multiply, (gens[k] for k in positions))
                        target = ew_swap(n, xy_string(n, positions).z_bits, subset)
                        exponent = 0 if target_size % 4 == 1 else 2
                        expected = PauliOperator(n, (1 << n) - 1, target, exponent)
                        assert product == expected


class TestEwContradictions:
    def test_three_qubits_single_swap(self):
        reports = ew_contradictions(GhzLabel(3, 0, 1), {1})
        assert len(reports) == 1
        assert _target_poles(reports) <= {Pole.E, Pole.W}
        assert reports.opposed()

    def test_four_qubits(self):
        assert len(ew_contradictions(GhzLabel(4, 0, 1), {3})) == 4

    def test_two_qubits_empty(self):
        assert len(ew_contradictions(GhzLabel(2, 0, 1), {1})) == 0

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_every_odd_subset_transports_all_contradictions(self, n):
        expected = c_n_closed(n)
        label = GhzLabel(n, 0, 1)
        for size in range(1, n + 1, 2):
            for subset in itertools.combinations(range(1, n + 1), size):
                reports = ew_contradictions(label, subset)
                assert len(reports) == expected
                assert _target_poles(reports) <= {Pole.E, Pole.W}
                assert reports.opposed()

    def test_nontrivial_labels(self):
        for bits in range(4):
            for sign in (1, -1):
                reports = ew_contradictions(GhzLabel(3, bits, sign), {2})
                assert len(reports) == 1
                assert reports.opposed()

    def test_even_subset_rejected(self):
        with pytest.raises(DomainError):
            ew_contradictions(GhzLabel(3, 0, 1), {1, 2})


@pytest.mark.parametrize("swap", [
    lambda subset: ew_swap(3, 0b100, subset),
    lambda subset: ew_contradictions(GhzLabel(3, 0, 1), subset),
    lambda subset: swap_conjugation_residual(3, 0b100, subset),
], ids=["ew_swap", "ew_contradictions", "swap_conjugation_residual"])
@pytest.mark.parametrize("subset,message", [
    ({1, 2}, "swap subset must have odd size, got 2"),
    ({1, 2, 4}, "qubit index 4 out of range 1..3"),
    ({0}, "qubit index 0 out of range 1..3"),
    ([2, 2, 2], "subset lists qubit 2 more than once"),
])
def test_swap_subset_checked_alike(swap, subset, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        swap(subset)


def _reference_reports(label, subset, indices=None):
    """The per-letter route: Y positions and strings read letter by letter.

    Yields (target, lhv, quantum, generators) for the S strings of
    ``enumerate_pole`` at ``indices`` (all of them by default), each value
    from the scalar ``eigenvalue_symbolic``.  An empty subset is the
    untransported S-pole analysis.
    """
    n = label.n
    mask = sum(1 << (n - k) for k in subset)
    carrier, quarter = swapped_state(label, mask)

    def swap(z):
        return ew_swap(n, z, subset) if subset else z

    def text(z):
        return "".join(_xy(n, z).letter(k) for k in range(1, n + 1))

    def y_positions(z):
        return [k for k in range(1, n + 1) if _xy(n, z).letter(k) == "Y"]

    generators = {k: swap(xy_string(n, (k,)).z_bits) for k in range(1, n + 1)}
    values = {k: eigenvalue_symbolic(carrier, quarter, g) for k, g in generators.items()}
    targets = enumerate_pole(n, Pole.S).tolist()
    for target in targets if indices is None else [targets[i] for i in indices]:
        lhv = 1
        for k in y_positions(target):
            lhv *= values[k]
        swapped = swap(target)
        yield (text(swapped), lhv, eigenvalue_symbolic(carrier, quarter, swapped),
               tuple(text(generators[k]) for k in y_positions(target)))


def _contradictions_for(label, subset):
    return ew_contradictions(label, subset) if subset else checked_rows(label)


def _odd_subsets(n):
    return [subset for size in range(1, n + 1, 2)
            for subset in itertools.combinations(range(1, n + 1), size)]


class TestMergedRoutineAgainstReference:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_label_and_odd_subset(self, n):
        for bits in range(1 << (n - 1)):
            for sign in (1, -1):
                label = GhzLabel(n, bits, sign)
                for subset in [()] + _odd_subsets(n):
                    reports = _contradictions_for(label, subset)
                    assert _rows(reports) == list(_reference_reports(label, subset))

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_every_label_unswapped(self, n):
        for bits in range(1 << (n - 1)):
            for sign in (1, -1):
                label = GhzLabel(n, bits, sign)
                reports = checked_rows(label)
                assert _rows(reports) == list(_reference_reports(label, ()))

    @given(st.data())
    @settings(deadline=None, max_examples=60)
    def test_sampled_labels_and_subsets_up_to_ten(self, data):
        n = data.draw(st.integers(6, 10))
        label = GhzLabel(n, data.draw(st.integers(0, (1 << (n - 1)) - 1)),
                         data.draw(st.sampled_from((1, -1))))
        subset = data.draw(st.sampled_from([()] + _odd_subsets(n)))
        reports = _contradictions_for(label, subset)
        assert _rows(reports) == list(_reference_reports(label, subset))

    @given(st.data())
    @settings(deadline=None, max_examples=8)
    def test_sampled_rows_up_to_twenty(self, data):
        n = data.draw(st.integers(11, 20))
        label = GhzLabel(n, data.draw(st.integers(0, (1 << (n - 1)) - 1)),
                         data.draw(st.sampled_from((1, -1))))
        odd_subsets = st.sets(st.integers(1, n), min_size=1).filter(lambda s: len(s) % 2)
        subset = tuple(sorted(data.draw(st.one_of(st.just(()), odd_subsets))))
        reports = _contradictions_for(label, subset)
        assert len(reports) == c_n_closed(n)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        indices = sorted(rng.choice(len(reports), size=200, replace=False).tolist())
        assert _rows(reports, indices) == list(_reference_reports(label, subset, indices))


class TestSwapConjugation:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_odd_subset_and_string(self, n):
        masks = np.concatenate([enumerate_pole(n, Pole.N), enumerate_pole(n, Pole.S)]).tolist()
        for size in range(1, n + 1, 2):
            for subset in itertools.combinations(range(1, n + 1), size):
                for z in masks:
                    assert swap_conjugation_residual(n, z, subset) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_swapped_state_is_the_dense_half_turn_image(self, n):
        labels = [GhzLabel(n, bits, sign) for bits in range(1 << (n - 1)) for sign in (1, -1)]
        for label, subset in itertools.product(labels, _odd_subsets(n)):
            carrier, quarter = swapped_state(label, qubit_mask(n, subset))
            image = half_turn(n, subset) @ rotated_dense(label, math.pi / 2)
            overlap = np.vdot(rotated_dense(carrier, quarter * math.pi / 2), image)
            assert abs(abs(overlap) - 1) < 1e-12  # unit vectors, equal up to a global phase

    def test_five_qubit_sample(self):
        masks = enumerate_pole(5, Pole.S).tolist()
        for subset in [(1,), (2, 3, 4), (1, 2, 3, 4, 5)]:
            for z in masks[:3]:
                assert swap_conjugation_residual(5, z, subset) < 1e-12

    def test_refuses_above_matrix_cap_before_building_the_unitary(self, monkeypatch):
        def no_kron(*args, **kwargs):
            raise AssertionError("np.kron ran before the capacity refusal")

        monkeypatch.setattr(np, "kron", no_kron)
        with pytest.raises(CapacityError):
            swap_conjugation_residual(DENSE_MATRIX_CAP.qubits + 1, 1, (1,))


@given(st.data())
@settings(deadline=None, max_examples=100)
def test_swap_is_dense_half_turn_conjugation_and_flips_the_y_parity(data):
    # any X/Y string and odd subset up to six qubits, not only N and S strings
    n = data.draw(st.integers(1, 6))
    z = data.draw(st.integers(0, (1 << n) - 1))
    subset = data.draw(st.sets(st.integers(1, n), min_size=1).filter(lambda s: len(s) % 2))
    assert swap_conjugation_residual(n, z, subset) < EIGEN_TOL
    assert (ew_swap(n, z, subset).bit_count() - z.bit_count()) % 2 == 1
