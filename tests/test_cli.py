"""Command-line behavior: formats, determinism, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from ghzverify import checks, counting, errors, lhv, listing, oracle, pauli, poles, states
from ghzverify.cli import main
from ghzverify.errors import (DENSE_MATRIX_CAP, DENSE_VECTOR_CAP, EXHAUSTIVE_CAP,
                              IDENTITY_ALL_SUBSETS_CAP, IDENTITY_SUBSET_CAP, REPORT_CAP,
                              CapacityError)


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse-level usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_table_rows(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n-min", "3", "--n-max", "10")
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()[1:]]
        assert [int(r[1]) for r in rows] == [1, 4, 10, 20, 36, 64, 120, 240]
        assert [int(r[2]) for r in rows] == [7, 15, 31, 63, 127, 255, 511, 1023]

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n-min", "2", "--n-max", "2",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["reports"][0]["c_n"] == 0
        assert payload["reports"][0]["compatible"] == 3

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n-min", "3", "--n-max", "4",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["c_n"] == "1" and rows[1]["c_n"] == "4"
        assert rows[0]["closed_form_value"] == rows[0]["binomial_value"] == "1"

    def test_low_n_rejected(self, capsys):
        code, _, err = run_cli(capsys, "count", "--n-min", "1", "--n-max", "3")
        assert code == 2 and "error" in err

    def test_huge_n_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "count", "--n-min", "3", "--n-max", "65")
        assert code == 2


class TestEnumerate:
    def test_south_n3(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--pole", "S",
                               "--format", "json")
        assert code == 0
        assert json.loads(out) == {"n": 3, "pole": "S", "operators": ["YYY"], "count": 1}

    def test_north_n4_count(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--pole", "N",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["count"] == 4

    def test_east_n3(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--pole", "E",
                               "--format", "json")
        assert json.loads(out)["operators"] == ["XXX"]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--pole", "S",
                               "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["operator"] for r in rows] == ["YYYX", "YYXY", "YXYY", "XYYY"]

    def test_bad_pole_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "enumerate", "--n", "3", "--pole", "Q")
        assert code == 2


class TestVerify:
    def test_passes_and_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "3")
        assert code == 0
        assert "all checks passed" in out

    def test_json_checks_schema(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "3", "--seed", "7",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 7 and payload["pass"] is True
        for check in payload["checks"]:
            assert set(check) == {"check", "residual", "pass"}
            assert check["pass"] is True

    def test_deterministic_output(self, capsys):
        first = run_cli(capsys, "verify", "--n", "3", "--seed", "42")
        second = run_cli(capsys, "verify", "--n", "3", "--seed", "42")
        assert first == second

    def test_seed_in_header(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--n", "3", "--seed", "9")
        assert "seed=9" in out

    def test_nontrivial_label(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--n", "4", "--label", "0110-")
        assert code == 0

    @pytest.mark.parametrize("n", ["63", "64"])
    def test_cap_refuses_where_no_mask_can_be_drawn(self, capsys, n):
        # no state vector of this size could be built: the cap refuses before any draw
        code, out, err = run_cli(capsys, "verify", "--n", n)
        assert (code, out) == (2, "")
        assert f"capped at 14 qubits (got {n})" in err
        assert "Traceback" not in err

    def test_cap_refuses_a_large_n_before_building_its_label(self, capsys):
        # the default label of n qubits must cost nothing that grows with n
        n = 10**7
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "verify", "--n", str(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert f"capped at 14 qubits (got {n})" in err
        assert peak < 2**20

    def test_negative_seed_refused_before_any_work(self, capsys, monkeypatch):
        def not_called(label, seed):
            raise AssertionError("checks ran before the refusal")
        monkeypatch.setattr(checks, "verify", not_called)
        code, out, err = run_cli(capsys, "verify", "--n", "3", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "need seed >= 0, got -1" in err


class TestLhv:
    def test_exhaustive_three_qubits(self, capsys):
        code, out, _ = run_cli(capsys, "lhv", "--n", "3", "--exhaustive",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["contradictions"] == 1
        assert payload["exhaustive"]["satisfying"] == 0
        assert payload["reports"][0]["s_operator"] == "YYY"

    def test_four_qubits(self, capsys):
        code, out, _ = run_cli(capsys, "lhv", "--n", "4", "--format", "json")
        assert code == 0
        assert json.loads(out)["contradictions"] == 4

    def test_two_qubits_satisfiable(self, capsys):
        code, out, _ = run_cli(capsys, "lhv", "--n", "2", "--exhaustive",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["contradictions"] == 0
        assert payload["exhaustive"]["satisfying"] > 0

    @pytest.mark.parametrize("n", [30])
    def test_exhaustive_cap_refuses_before_any_report(self, capsys, monkeypatch, n):
        def not_called(*args):
            raise AssertionError("reports built before the refusal")
        monkeypatch.setattr(lhv, "find_contradictions", not_called)
        code, out, err = run_cli(capsys, "lhv", "--n", str(n), "--exhaustive")
        assert (code, out) == (2, "")
        assert f"exhaustive search is capped at 10 qubits (got {n})" in err

    def test_non_canonical_label_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "lhv", "--n", "3", "--label", "100+")
        assert code == 2

    def test_exhaustive_non_canonical_label_refused_before_the_sweep(self, capsys, monkeypatch):
        # the sweep itself takes any label, so the command refuses before it runs
        def not_called(*args):
            raise AssertionError("the sweep ran before the refusal")
        monkeypatch.setattr(lhv, "enumerate_pole", not_called)
        code, out, err = run_cli(capsys, "lhv", "--n", "10", "--label", "1000000000+",
                                 "--exhaustive")
        assert (code, out) == (2, "")
        assert err == "error: label 1000000000+ is not canonical (qubit 1 bit must be 0)\n"

    def test_deterministic_output(self, capsys):
        first = run_cli(capsys, "lhv", "--n", "4", "--format", "json")
        second = run_cli(capsys, "lhv", "--n", "4", "--format", "json")
        assert first == second


class TestIdentity:
    def test_all_subsets_n3(self, capsys):
        code, out, _ = run_cli(capsys, "identity", "--n", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["checks"]) == 4
        assert payload["pass"] is True

    def test_seven_qubit_full_subset(self, capsys):
        code, out, _ = run_cli(capsys, "identity", "--n", "7",
                               "--subset", "1,2,3,4,5,6,7", "--format", "json")
        assert code == 0
        (check,) = json.loads(out)["checks"]
        assert check["sign"] == "-" and check["pass"] is True

    def test_even_subset_rejected(self, capsys):
        code, out, err = run_cli(capsys, "identity", "--n", "4", "--subset", "1,2")
        assert (code, out) == (2, "")
        assert "need an odd number of Y positions, got 2" in err

    @pytest.mark.parametrize("subset,qubit", [("0,1,2", 0), ("1,2,5", 5)])
    def test_out_of_range_qubit_refused(self, capsys, subset, qubit):
        code, out, err = run_cli(capsys, "identity", "--n", "4", "--subset", subset)
        assert (code, out) == (2, "")
        assert f"qubit index {qubit} out of range 1..4" in err

    def test_subset_within_its_cap_passes(self, capsys):
        code, out, err = run_cli(capsys, "identity", "--n", "10000000", "--subset", "1,2,3")
        assert (code, err) == (0, "")
        assert "  PASS  subset=1,2,3 sign=-\n" in out

    @pytest.mark.parametrize("subset", [",1,", "1,,3", "1,3,", " , 1"])
    def test_empty_item_refused(self, capsys, subset):
        code, out, err = run_cli(capsys, "identity", "--n", "3", "--subset", subset)
        assert (code, out) == (2, "")
        assert f"cannot parse subset {subset!r}" in err

    @pytest.mark.parametrize("subset", ["1,1,1", "3,1,1,2,2"])
    def test_repeated_qubit_refused(self, capsys, subset):
        code, out, err = run_cli(capsys, "identity", "--n", "5", "--subset", subset)
        assert code == 2
        assert out == ""
        assert "subset lists qubit 1 more than once" in err


class TestEmptyArguments:
    """An explicitly empty --label or --subset is refused, not read as absent."""

    @pytest.mark.parametrize("command", ["lhv", "verify"])
    def test_empty_label(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--n", "3", "--label", "")
        assert (code, out) == (2, "")
        assert "cannot parse state label ''" in err

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_empty_subset(self, capsys, fmt):
        code, out, err = run_cli(capsys, "identity", "--n", "3", "--subset", "", "--format", fmt)
        assert (code, out) == (2, "")
        assert "need an odd number of Y positions, got 0" in err


class TestZeroQubits:
    """A command with nothing to check refuses instead of passing vacuously."""

    def test_identity(self, capsys):
        code, out, err = run_cli(capsys, "identity", "--n", "0")
        assert code == 2
        assert "all checks passed" not in out
        assert "need n >= 1" in err

    def test_verify(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "0")
        assert code == 2
        assert "need n >= 1" in err

    def test_lhv(self, capsys):
        code, _, err = run_cli(capsys, "lhv", "--n", "0")
        assert code == 2
        assert "need n >= 1" in err


class TestOneQubit:
    def test_lhv_refuses_before_any_work(self, capsys, monkeypatch):
        def not_called(*args):
            raise AssertionError("contradictions built before the refusal")
        monkeypatch.setattr(lhv, "pole_runs", not_called)
        monkeypatch.setattr(lhv, "eigenvalue_column", not_called)
        code, _, err = run_cli(capsys, "lhv", "--n", "1")
        assert code == 2
        assert "counts are defined for n >= 2 (got 1)" in err

    def test_exhaustive_lhv_refuses_before_the_sweep(self, capsys, monkeypatch):
        # the sweep itself takes n = 1, so the command refuses before it runs
        def not_called(*args):
            raise AssertionError("the sweep ran before the refusal")
        monkeypatch.setattr(lhv, "enumerate_pole", not_called)
        code, out, err = run_cli(capsys, "lhv", "--n", "1", "--exhaustive")
        assert (code, out, err) == (2, "", "error: counts are defined for n >= 2 (got 1)\n")


class TestMaskCapacity:
    """Past 63 qubits a string's z mask would no longer fit a uint64 column;
    the listing cap refuses long before that."""

    def test_lhv_refuses_before_any_work(self, capsys, monkeypatch):
        def not_called(*args):
            raise AssertionError("generators evaluated before the refusal")
        monkeypatch.setattr(lhv, "eigenvalue_column", not_called)
        code, out, err = run_cli(capsys, "lhv", "--n", "64")
        assert (code, out) == (2, "")
        assert "pole listings are capped at 24 qubits (got 64)" in err

    def test_enumerate(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--n", "64", "--pole", "N")
        assert (code, out) == (2, "")
        assert "pole listings are capped at 24 qubits (got 64)" in err


class TestReportCapacity:
    """Past REPORT_CAP qubits a pole listing would outgrow any budget."""

    def test_lhv_refuses_a_large_n_before_any_work_that_grows_with_it(self, capsys):
        # neither the expected count 2**(n-2) nor the label's 2**(n-1) is built
        n = 10**7
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "lhv", "--n", str(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert f"pole listings are capped at 24 qubits (got {n})" in err
        assert peak < 2**20

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_enumerate_refuses_before_any_rendering(self, capsys, monkeypatch, fmt):
        def not_called(*args):
            raise AssertionError("strings rendered before the refusal")
        monkeypatch.setattr(poles, "xy_letter_matrix", not_called)
        code, out, err = run_cli(capsys, "enumerate", "--n", "25", "--pole", "S", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == "error: pole listings are capped at 24 qubits (got 25)\n"


def _not_called(*args, **kwargs):
    raise AssertionError("work began before the capacity refusal")


#: Each cap, its command at cap + 1 qubits, the functions that would do the
#: work it bounds (each must not run), and the refusal's exact wording.
REFUSALS = [
    pytest.param(DENSE_VECTOR_CAP, "verify --n {}",
                 [(checks, "eigenvalues"), (oracle, "apply_pauli"), (oracle, "rotation_phases")],
                 "dense statevectors are capped at 14 qubits (got 15)", id="verify"),
    pytest.param(EXHAUSTIVE_CAP, "lhv --n {} --exhaustive",
                 [(lhv, "enumerate_pole"), (lhv, "find_contradictions")],
                 "exhaustive search is capped at 10 qubits (got 11)", id="lhv-exhaustive"),
    pytest.param(IDENTITY_ALL_SUBSETS_CAP, "identity --n {}",
                 [(pauli, "PauliOperator"), (pauli, "multiply")],
                 "checking all odd subsets is capped at 12 qubits (got 13)", id="identity"),
    pytest.param(REPORT_CAP, "lhv --n {}", [(lhv, "eigenvalue_column"), (poles, "_runs")],
                 "pole listings are capped at 24 qubits (got 25)", id="lhv"),
    pytest.param(REPORT_CAP, "enumerate --n {} --pole S", [(poles, "pole_size"), (poles, "_runs")],
                 "pole listings are capped at 24 qubits (got 25)", id="enumerate"),
    pytest.param(IDENTITY_SUBSET_CAP, "identity --n {} --subset 1,2,3",
                 [(pauli, "qubit_mask"), (pauli, "PauliOperator")],
                 "checking one subset is capped at 16777216 qubits (got 16777217)",
                 id="identity-subset"),
]


class TestCapRefusals:
    """Every cap refuses its command at one qubit past it, with exit 2, no
    stdout, one stderr line, and before any work that grows with n."""

    @pytest.mark.parametrize("cap,command,work,message", REFUSALS)
    def test_refused_one_qubit_past_the_cap(self, capsys, monkeypatch, cap, command, work,
                                            message):
        for module, name in work:
            monkeypatch.setattr(module, name, _not_called)
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *command.format(cap.qubits + 1).split())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert peak < 2**20

    @pytest.mark.parametrize("build", [lambda n: oracle.materialize(pauli.PauliOperator(n, 0, 0)),
                                       lambda n: oracle.observable_matrix((0.1,) * n)],
                             ids=["materialize", "observable_matrix"])
    def test_matrix_cap_refuses_before_any_kron(self, monkeypatch, build):
        # no command builds a whole matrix; the tests' references do
        monkeypatch.setattr(oracle.np, "kron", _not_called)
        with pytest.raises(CapacityError) as refused:
            build(DENSE_MATRIX_CAP.qubits + 1)
        assert str(refused.value) == "dense matrices are capped at 10 qubits (got 11)"

    def test_every_cap_is_refused_here(self):
        caps = {param.values[0] for param in REFUSALS} | {DENSE_MATRIX_CAP}
        assert caps == {cap for name, cap in vars(errors).items() if name.endswith("_CAP")}


class TestCheckFailures:
    """A disagreement between the tiers reaches the exit code."""

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_disagreeing_row_is_named_before_any_output(self, capsys, monkeypatch, fmt):
        def flipped_generator(label, quarter, masks):
            values = poles.eigenvalue_column(label, quarter, masks)
            values[masks == 0b01000] *= -1  # XYXXX, a generator and no S string
            return values

        monkeypatch.setattr(lhv, "eigenvalue_column", flipped_generator)
        code, out, err = run_cli(capsys, "lhv", "--n", "5", "--format", fmt)
        assert code == 1
        assert out == ""
        assert err == "tool failure: YYYXX: predicted -1 does not oppose eigenvalue -1\n"

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("plant,message", [
        (lambda value: 0, "S operator XXXYYYYYYYYYYY lost its eigenstate"),
        (lambda value: -value, "XXXYYYYYYYYYYY: predicted 1 does not oppose eigenvalue 1"),
    ], ids=["lost", "non-opposing"])
    def test_bad_row_in_the_last_run_stops_before_any_output(self, capsys, monkeypatch,
                                                            fmt, plant, message):
        # the 4,160 S strings at n = 14 come as 12 runs, one per Y count
        # and high part, after the generator column; had rendering begun
        # before the check pass ended, rows would be written
        last = 0b00011111111111  # XXXYYYYYYYYYYY, the last S string
        seen = []

        def planted(label, quarter, masks):
            values = poles.eigenvalue_column(label, quarter, masks)
            seen.append(masks.tolist())
            values[masks == last] = plant(values[masks == last])
            return values

        monkeypatch.setattr(lhv, "eigenvalue_column", planted)
        code, out, err = run_cli(capsys, "lhv", "--n", "14", "--format", fmt)
        assert (code, out) == (1, "")
        assert err == f"tool failure: {message}\n"
        assert len(seen) == 13 and last in seen[-1]

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("argv,lost,message", [
        ("--n 5", 0b01000, "single-Y generator XYXXX lost its eigenstate"),
        # YYYYY is an N string and no generator, so only the sweep's N + S column holds it
        ("--n 5 --exhaustive", 0b11111, "YYYYY lost its eigenstate"),
    ], ids=["generator", "sweep"])
    def test_lost_eigenstate_stops_before_any_output(self, capsys, monkeypatch, fmt, argv,
                                                     lost, message):
        # each is the first column evaluated: the generators, or the sweep that runs first
        seen = []

        def planted(label, quarter, masks):
            values = poles.eigenvalue_column(label, quarter, masks)
            seen.append(masks.tolist())
            values[masks == lost] = 0
            return values

        monkeypatch.setattr(lhv, "eigenvalue_column", planted)
        code, out, err = run_cli(capsys, "lhv", *argv.split(), "--format", fmt)
        assert (code, out, err) == (1, "", f"tool failure: {message}\n")
        assert len(seen) == 1 and lost in seen[0]

    def test_negated_oracle_image_fails_verify(self, capsys, monkeypatch):
        # negating every image swaps its residuals against +vec and -vec
        eigen_residuals = oracle.eigen_residuals
        monkeypatch.setattr(oracle, "eigen_residuals",
                            lambda ops, label, amplitudes:
                            eigen_residuals(ops, label, amplitudes)[:, ::-1])
        code, out, _ = run_cli(capsys, "verify", "--n", "3")
        assert code == 1
        assert "FAIL  eigenvalues_symbolic_vs_oracle[16]" in out
        assert out.endswith("CHECK FAILURES PRESENT\n")

    def test_count_routes_disagreeing_is_a_tool_failure(self, capsys, monkeypatch):
        c_n_binomial = counting.c_n_binomial
        monkeypatch.setattr(counting, "c_n_binomial", lambda n: c_n_binomial(n) + 1)
        code, out, err = run_cli(capsys, "count", "--n-min", "3", "--n-max", "5")
        assert code == 1
        assert out == ""
        assert err.startswith("tool failure: count routes disagree at n=3")

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_contradiction_count_off_its_closed_form_fails_lhv(self, capsys, monkeypatch, fmt):
        c_n_closed = counting.c_n_closed
        monkeypatch.setattr(counting, "c_n_closed", lambda n: c_n_closed(n) + 1)
        code, out, _ = run_cli(capsys, "lhv", "--n", "4", "--format", fmt)
        assert code == 1
        if fmt == "json":
            payload = json.loads(out)
            assert (payload["contradictions"], payload["expected_c_n"]) == (4, 5)
            assert payload["pass"] is False
        else:
            assert out.endswith("contradictions: 4 (expected 5)\nCHECK FAILURES PRESENT\n")

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("n,satisfying,expected", [(3, 1, "0"), (2, 0, "> 0")],
                             ids=["local-model-found", "none-below-three"])
    def test_wrong_sweep_count_fails_lhv(self, capsys, monkeypatch, fmt, n, satisfying,
                                         expected):
        monkeypatch.setattr(lhv, "exhaustive_search", lambda label: satisfying)
        code, out, _ = run_cli(capsys, "lhv", "--n", str(n), "--exhaustive", "--format", fmt)
        assert code == 1
        if fmt == "json":
            payload = json.loads(out)
            assert payload["exhaustive"]["satisfying"] == satisfying
            assert payload["pass"] is False
        else:
            assert out.endswith(f"satisfying assignments: {satisfying} of {4 ** n}"
                                f" (expected {expected})\nCHECK FAILURES PRESENT\n")

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("argv", ["--n 3", "--n 3 --subset 1,2,3"], ids=["sweep", "subset"])
    def test_failed_identity_fails_the_command(self, capsys, monkeypatch, fmt, argv):
        sweep = pauli.odd_subset_identities
        monkeypatch.setattr(pauli, "odd_subset_identities",
                            lambda n: [(s, ok and s != (1, 2, 3)) for s, ok in sweep(n)])
        monkeypatch.setattr(pauli, "verify_ks_identity", lambda n, subset: False)
        code, out, _ = run_cli(capsys, "identity", *argv.split(), "--format", fmt)
        assert code == 1
        if fmt == "json":
            payload = json.loads(out)
            assert {"subset": [1, 2, 3], "sign": "-", "pass": False} in payload["checks"]
            assert payload["pass"] is False
        else:
            assert "  FAIL  subset=1,2,3 sign=-\n" in out
            assert out.endswith("CHECK FAILURES PRESENT\n")


class TestRenderingMemory:
    """Rendering holds one bounded block at a time, whatever the listing's size."""

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_traced_peak_of_lhv_at_18_qubits(self, monkeypatch, fmt):
        # stdout is /dev/null, not capsys, whose buffer would hold the whole
        # output in traced memory; lhv was imported above, outside the trace
        with open(os.devnull, "w") as sink, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                code = main(["lhv", "--n", "18", "--format", fmt])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("json_rows", [False, True])
    def test_check_and_render_hold_no_column(self, json_rows):
        # whole columns of the 262,144 rows at n = 20 held 4.7 MiB; the
        # check pass keeps no row and rendering holds one block at a time
        tracemalloc.start()
        try:
            reports = lhv.find_contradictions(states.GhzLabel(20, 0b0110100110010110100, -1))
            written = sum(len(block) for block in listing._report_blocks(reports, json_rows))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(reports) == counting.c_n_closed(20)
        assert written == (120225792 if json_rows else 71410688)
        assert peak < 2 << 20

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_traced_peak_of_enumerate_at_20_qubits(self, monkeypatch, fmt):
        # the 262,144 strings at the S pole render to megabytes in every
        # format; stdout is /dev/null, as for lhv above
        with open(os.devnull, "w") as sink, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                code = main(["enumerate", "--n", "20", "--pole", "S", "--format", fmt])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 2 << 20


class TestClosedPipe:
    """A reader that stops early ends the command quietly, with exit 141."""

    @pytest.mark.parametrize("command", ["lhv --n 18 --format json", "enumerate --n 20 --pole S"])
    def test_exit_141_without_traceback(self, command):
        # either output is megabytes, far more than a pipe holds after one line
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.Popen([sys.executable, "-m", "ghzverify", *command.split()],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert b"Traceback" not in err
