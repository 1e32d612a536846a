"""scripts/bench_table.py, the performance table: its stdout, its CSV, and
its refusals, which come before the first key is made."""

import csv

import pytest

from chipmunkring import hots, threshold


@pytest.fixture(scope="module")
def table(load_script):
    return load_script("bench_table")


BENCH_CSV_HEADER = [
    "ring_size", "mode", "threshold", "status", "signature_bytes", "iterations",
    "sign_mean_ms", "sign_std_ms", "sign_median_ms", "sign_p95_ms",
    "verify_mean_ms", "verify_std_ms", "verify_median_ms", "verify_p95_ms",
]


def test_bench_minimal(table, tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    rc = table.main(["--ring-sizes", "2,4", "--modes", "single",
                     "--iterations", "10", "--csv", str(out_csv)])
    assert rc == 0
    text = capsys.readouterr().out
    assert ("size fit: bytes = 1456.0 + 128.0 * ring_size "
            "(R^2 = 1.000000, residual sum of squares = 0.0)") in text
    assert "parallelism: none" in text
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2  # header + one row per configuration
    assert rows[0] == BENCH_CSV_HEADER
    assert all(row[3] == "ok" for row in rows[1:])


def test_bench_repeated_ring_size(table, capsys):
    rc = table.main(["--ring-sizes", "4,4", "--modes", "single", "--iterations", "10"])
    assert rc == 0
    assert "size fit" not in capsys.readouterr().out  # one distinct size fits no line


@pytest.mark.parametrize("configs", ["2/4", "1/4", "2/4,"])
def test_bench_threshold_config(table, tmp_path, capsys, configs):
    out_csv = tmp_path / "bench.csv"
    rc = table.main(["--ring-sizes", "2", "--modes", "threshold",
                     "--threshold-configs", configs, "--iterations", "10",
                     "--csv", str(out_csv)])
    assert rc == 0
    assert "threshold" in capsys.readouterr().out
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == BENCH_CSV_HEADER
    assert len(rows) == 2
    assert rows[1][1:4] == ["threshold", configs[0], "ok"]


@pytest.mark.usefixtures("capsys")  # keeps the table off the test's output
def test_bench_never_signs_two_challenges_with_one_key(table, monkeypatch):
    # a one-time key (or key share) that signs twice gives its secret away
    signed = {}

    def recording(fn, key_of):
        def wrapper(key, challenge, *rest):
            signed.setdefault(key_of(key), set()).add(challenge)
            return fn(key, challenge, *rest)
        return wrapper

    monkeypatch.setattr(hots, "sign", recording(hots.sign, lambda sk: sk.pk))
    monkeypatch.setattr(threshold, "partial_sign",
                        recording(threshold.partial_sign,
                                  lambda share: (share.pk, share.participant_x)))
    assert table.main(["--ring-sizes", "2,4", "--modes", "single,threshold",
                       "--threshold-configs", "2/4,1/2", "--iterations", "10"]) == 0
    assert len(signed) == 2 * 13 + (2 + 1) * 13  # 3 warm-up + 10 ops a config
    assert all(len(challenges) == 1 for challenges in signed.values())


def test_bench_iterations_floor(table, capsys):
    assert table.main(["--iterations", "5"]) == 2
    assert capsys.readouterr().err == "error: --iterations must be at least 10\n"


@pytest.mark.parametrize("argv, message", [
    (["--ring-sizes", "257", "--modes", "single"], "ring size 257 outside [2, 64]"),
    (["--ring-sizes", "65", "--modes", "single"], "ring size 65 outside [2, 64]"),
    (["--ring-sizes", "4,1", "--modes", "single"], "ring size 1 outside [2, 64]"),
    (["--ring-sizes", "4", "--modes", "single,threshold", "--threshold-configs", "5/4"],
     "need 1 <= t <= n <= 64, got t=5, n=4"),
    (["--modes", "threshold", "--threshold-configs", "2/4,1/1"],
     "ring size 1 outside [2, 64]"),
    (["--modes", "threshold", "--threshold-configs", "0/4"],
     "need 1 <= t <= n <= 64, got t=0, n=4"),
    (["--modes", "single,bogus"], "unknown mode 'bogus'"),
    (["--modes", "threshold", "--threshold-configs", "3"], "bad t/n pair '3'"),
    (["--modes", "threshold", "--threshold-configs", "2/4/8"], "bad t/n pair '2/4/8'"),
    (["--modes", "threshold", "--threshold-configs", "a/4"], "bad t/n pair 'a/4'"),
    (["--ring-sizes", "4,x", "--modes", "single"], "bad ring size 'x'"),
])
def test_bench_checks_every_size_before_any_keygen(table, monkeypatch, capsys, argv, message):
    calls = []
    monkeypatch.setattr(hots, "keygen", lambda *a: calls.append(a))
    assert table.main(["--iterations", "10"] + argv) == 2
    assert calls == []
    assert capsys.readouterr().err == f"error: {message}\n"


def test_bench_checks_the_csv_path_before_any_keygen(table, monkeypatch, capsys, tmp_path):
    calls = []
    monkeypatch.setattr(hots, "keygen", lambda *a: calls.append(a))
    missing = tmp_path / "no such directory" / "bench.csv"
    assert table.main(["--ring-sizes", "2", "--modes", "single", "--iterations", "10",
                       "--csv", str(missing)]) == 2
    assert calls == []
    assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: "
                                       f"'{missing}'\n")
