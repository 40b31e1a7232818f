"""Byte-exact CLI output for the commands whose stdout holds no floats.

``verify`` stays out: its residuals depend on the platform's libm.  The json
digests include ``"version"``, so a version bump must update them.  Beside
the digests, ``lhv`` and ``enumerate`` are compared on random labels and
block sizes with the row-at-a-time renderers of ``references``.
"""

import contextlib
import hashlib
import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzverify import listing
from ghzverify.cli import main
from ghzverify.lhv import find_contradictions
from ghzverify.poles import Pole, pole_runs, pole_size
from ghzverify.states import GhzLabel, parse_label

from references import enumerate_stdout, lhv_stdout

GOLDEN = {
    "count --n-min 2 --n-max 64 --format csv":
        "ce582edad956060748840eb8847d26da32580e3bc4a00ff4bcb64466cf27bb0c",
    "enumerate --n 12 --pole S":
        "b68e7c4d139a7b1291917ecc6343dd1fb3aa3f994426f43bbcac91d76f6066f7",
    "enumerate --n 12 --pole S --format json":
        "97489c0f4fff2afa7a743437ef7092968da9319169ca2f795be2f5c79b15efa6",
    "enumerate --n 12 --pole S --format csv":
        "c990ef9833d8f048b1673f1c6867ad828a124c23703eb53909c05830ec7be227",
    "enumerate --n 14 --pole N":
        "f96266979a34a5f3f91730de6441d9c0dd1a0f5a9c5cf4b6289d7079cb68d5f5",
    "enumerate --n 15 --pole W --format json":
        "c02acfb0ceeb82ad2958c61aa176f97b35cd8c55a0f582835227a14ab109a222",
    "enumerate --n 16 --pole S --format csv":
        "29a63607046e1f7f4bf263c5975c1285b204d8da2858263ee6490bca9a0d7149",
    "identity --n 12":
        "6becf58354f6a76ad3aa9a4ee175f2ac13658027b1121f458e1e1f0878fb27ad",
    "lhv --n 2 --format json":
        "5cf41ebad5974b3c173a1ebe4027772b7683288eff2bbee0d9e52c7cd74b4a3f",
    "lhv --n 10 --exhaustive":
        "f952006fa35513e609e1e33713323a4572c351e26519bca8ea8f00050d1caffa",
    "lhv --n 10 --exhaustive --label 0110100111- --format json":
        "6f167924acc59b65c885f0c8cd93a6e0a75ce1595f85963a8aee2076b1b1b66f",
    "lhv --n 12 --label 011010011010- --format json":
        "58c4dba59d158a80c4d7c948894345dc50871d0339710978ecaaea8d47ceff7e",
    "lhv --n 13 --label 0101101001011+":
        "5ab355558b1b29650cd131abe2868fe80793a5031c09f534caaa7571d634ebb1",
    "lhv --n 13 --label 0110100110110- --format json":
        "071c6caf9c9cd21be212a216c87b8468b97ffaa5e1cbe664554a1b492612e3ad",
    "lhv --n 18 --label 011010011001011010+":
        "642d4317cf594bc6321d754a9129a594fd2108cf2793d1783bd73adff8f370c5",
    "lhv --n 18 --label 011010011001011010+ --format json":
        "35f7ef6aee723a2acb121707be3c0570666b48c1c723dd832838d0ab12a1d58e",
}


@pytest.mark.parametrize("command", GOLDEN)
def test_stdout_digest(capsys, command):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]


@pytest.mark.parametrize("block_bytes", [1, 1000])
@pytest.mark.parametrize("command", [c for c in GOLDEN if c.split()[0] in ("lhv", "enumerate")])
def test_block_boundaries_leave_bytes_unchanged(capsys, monkeypatch, command, block_bytes):
    # 1 byte renders one row per block; 1000 bytes leaves partial last blocks,
    # e.g. 220 three-Y strings at n = 12 in blocks of 66 rows of 15 bytes
    monkeypatch.setattr(listing, "_BLOCK_BYTES", block_bytes)
    test_stdout_digest(capsys, command)


def _stdout_of(argv, block_bytes):
    """Exit code and stdout of one in-process run, with blocks of ``block_bytes``."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")
    with mock.patch.object(listing, "_BLOCK_BYTES", block_bytes), contextlib.redirect_stdout(out):
        code = main(argv)
    out.flush()
    return code, out.buffer.getvalue().decode()


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_lhv_matches_the_row_at_a_time_reference(data):
    # past LOW_BITS = 12 qubits a run's high part can predict -1
    n = data.draw(st.integers(2, 14), label="n")
    label = GhzLabel(n, data.draw(st.integers(0, (1 << (n - 1)) - 1), label="bits"),
                     data.draw(st.sampled_from([1, -1]), label="sign"))
    fmt = data.draw(st.sampled_from(["table", "json"]), label="format")
    block_bytes = data.draw(st.integers(1, 4096), label="block_bytes")
    code, out = _stdout_of(["lhv", "--n", str(n), "--label", str(label), "--format", fmt],
                           block_bytes)
    assert (code, out) == (0, lhv_stdout(label, find_contradictions(label), fmt))


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("text", ["0110100110110-", "0101101001011010+"])
def test_lhv_past_the_low_bits_matches_the_row_at_a_time_reference(fmt, text):
    # above LOW_BITS qubits each Y count is many runs, one per high part;
    # 1000-byte blocks end inside runs
    label = parse_label(text, len(text) - 1)
    code, out = _stdout_of(["lhv", "--n", str(label.n), "--label", text, "--format", fmt], 1000)
    assert (code, out) == (0, lhv_stdout(label, find_contradictions(label), fmt))


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_enumerate_matches_the_row_at_a_time_reference(data):
    n = data.draw(st.integers(2, 12), label="n")
    pole = data.draw(st.sampled_from(list(Pole)), label="pole")
    fmt = data.draw(st.sampled_from(["table", "csv", "json"]), label="format")
    block_bytes = data.draw(st.integers(1, 4096), label="block_bytes")
    code, out = _stdout_of(["enumerate", "--n", str(n), "--pole", pole.name, "--format", fmt],
                           block_bytes)
    assert (code, out) == (0, enumerate_stdout(n, pole, fmt))


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("pole", list(Pole))
@pytest.mark.parametrize("n", [13, 16])
def test_enumerate_past_the_low_bits_matches_the_row_at_a_time_reference(n, pole, fmt):
    # above LOW_BITS qubits each Y count is many runs, one per high part;
    # 1000-byte blocks end inside runs
    code, out = _stdout_of(["enumerate", "--n", str(n), "--pole", pole.name, "--format", fmt],
                           1000)
    assert (code, out) == (0, enumerate_stdout(n, pole, fmt))


def test_report_blocks_outlive_the_next_block(monkeypatch):
    # 200 bytes hold two table rows at n = 10, so a run of equal Y counts
    # spans many blocks; each must keep its bytes once the next is rendered
    monkeypatch.setattr(listing, "_BLOCK_BYTES", 200)
    reports = find_contradictions(parse_label("0110100110+"))
    streamed = b"".join(bytes(block) for block in listing._report_blocks(reports, json_rows=False))
    assert b"".join(list(listing._report_blocks(reports, json_rows=False))) == streamed
    assert streamed.count(b"\n") == len(reports)


def test_listing_blocks_outlive_the_next_block(monkeypatch):
    monkeypatch.setattr(listing, "_BLOCK_BYTES", 200)

    def blocks():
        return listing._listing_blocks(10, pole_runs(10, Pole.S), b"  ", b"\n")

    streamed = b"".join(bytes(block) for block in blocks())
    assert b"".join(list(blocks())) == streamed
    assert streamed.count(b"\n") == pole_size(10, Pole.S)
