"""scripts/paper_claims.py: the size cells come from encoded signatures and
the timing cells from a `scripts/bench_table.py --csv` file."""

import csv

import pytest

from chipmunkring import hots


def test_paper_claims_table(tmp_path, capsys, load_script):
    path = tmp_path / "bench.csv"
    assert load_script("bench_table").main(["--ring-sizes", "2,64", "--modes", "single",
                                            "--iterations", "10", "--csv", str(path)]) == 0
    with open(path, newline="") as fh:
        medians = {row["ring_size"]: (float(row["sign_median_ms"]),
                                      float(row["verify_median_ms"]))
                   for row in csv.DictReader(fh)}
    capsys.readouterr()
    assert load_script("paper_claims").main(["paper_claims.py", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "| claim in the abstract | paper | this repository |"
    cells = {row[0]: row[2] for row in (line.strip("| ").split(" | ") for line in lines[2:])}
    assert len(cells) == 6
    # 1456 + 128k in single mode, 1456 + 160k + 96t in multi mode, k = 2 and 64
    assert cells["signature size, 2-64 members"] == (
        "single mode 1,712-9,648 B; multi mode, t = 2, 1,968-11,888 B (k = 2-64)")
    assert cells["proof per participant"] == "96 B in multi mode, 64 B in single mode"
    assert cells["signing"] == (
        f"{medians['2'][0]:.2f}-{medians['64'][0]:.2f} ms (k = 2-64, warm median)")
    assert cells["verification"] == (
        f"{medians['2'][1]:.2f}-{medians['64'][1]:.2f} ms (k = 2-64, warm median)")


def test_paper_claims_needs_a_csv(capsys, load_script):
    assert load_script("paper_claims").main(["paper_claims.py"]) == 2
    assert "usage" in capsys.readouterr().err


def test_paper_claims_needs_single_mode_rows(tmp_path, monkeypatch, capsys, load_script):
    path = tmp_path / "bench.csv"
    assert load_script("bench_table").main(["--ring-sizes", "2", "--modes", "threshold",
                                            "--threshold-configs", "2/2", "--iterations",
                                            "10", "--csv", str(path)]) == 0
    capsys.readouterr()
    calls = []
    monkeypatch.setattr(hots, "keygen", lambda *a: calls.append(a))
    assert load_script("paper_claims").main(["paper_claims.py", str(path)]) == 2
    assert calls == []  # refused before any signature is made
    assert capsys.readouterr() == ("", f"error: {path} has no single-mode rows; write it "
                                       "with scripts/bench_table.py --modes single\n")


def test_paper_claims_refuses_a_missing_csv(tmp_path, capsys, load_script):
    path = tmp_path / "none.csv"
    assert load_script("paper_claims").main(["paper_claims.py", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"error: [Errno 2] No such file or directory: '{path}'\n")


@pytest.mark.parametrize("dropped", ["mode", "ring_size", "sign_median_ms",
                                     "verify_median_ms"])
def test_paper_claims_names_a_missing_column(tmp_path, monkeypatch, capsys, load_script,
                                             dropped):
    columns = [c for c in ("mode", "ring_size", "sign_median_ms", "verify_median_ms")
               if c != dropped]
    path = tmp_path / "bench.csv"
    path.write_text(",".join(columns) + "\n" + ",".join(["single", "2", "1.0", "0.5"][:3])
                    + "\n")
    calls = []
    monkeypatch.setattr(hots, "keygen", lambda *a: calls.append(a))
    assert load_script("paper_claims").main(["paper_claims.py", str(path)]) == 2
    assert calls == []
    assert capsys.readouterr() == ("", f"error: {path}: missing columns: {dropped}\n")


@pytest.mark.parametrize("line", ["single,2,1.0", "single,two,1.0,0.5", "single,2,-,0.5"])
def test_paper_claims_names_a_bad_line(tmp_path, capsys, load_script, line):
    path = tmp_path / "bench.csv"
    path.write_text("mode,ring_size,sign_median_ms,verify_median_ms\n"
                    "single,64,9.0,2.0\n" + line + "\n")
    assert load_script("paper_claims").main(["paper_claims.py", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {path}: line 3 is not a ring size and two timings\n")
