"""scripts/paper_claims.py: the size cells come from encoded signatures and
the timing cells from a `chipmunkring bench --csv` file."""

import csv
import importlib.util
from pathlib import Path

from chipmunkring import cli

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "paper_claims.py"


def load_script():
    spec = importlib.util.spec_from_file_location("paper_claims", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_paper_claims_table(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    assert cli.main(["bench", "--ring-sizes", "2,64", "--modes", "single",
                     "--iterations", "10", "--csv", str(path)]) == 0
    with open(path, newline="") as fh:
        medians = {row["ring_size"]: (float(row["sign_median_ms"]),
                                      float(row["verify_median_ms"]))
                   for row in csv.DictReader(fh)}
    capsys.readouterr()
    assert load_script().main(["paper_claims.py", str(path)]) == 0
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


def test_paper_claims_needs_a_csv(capsys):
    assert load_script().main(["paper_claims.py"]) == 2
    assert "usage" in capsys.readouterr().err
