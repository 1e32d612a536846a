"""The README's "Parameter modes" table lists exactly the RingParams members.

Each row names a mode, its commitment (proof) size and its chain
iterations. This test reads the table's rows and requires them to be the
members' (name, proof size, iterations), in order: adding, removing or
changing a member means changing its row, and a row cannot describe a
parameter set that cannot be built.
"""

import re
from pathlib import Path

from chipmunkring.params import RingParams, preset

ROOT = Path(__file__).resolve().parent.parent


def readme_section():
    text = (ROOT / "README.md").read_text()
    return text.split("\n## Parameter modes\n", 1)[1].split("\n#", 1)[0]


def table_rows():
    """[(mode, proof size, iterations)] of the table's body rows."""
    lines = [line for line in readme_section().splitlines() if line.startswith("|")]
    rows = []
    for line in lines[2:]:  # after the header row and its rule
        cells = [c.strip() for c in line.strip("|").split("|")]
        size = re.fullmatch(r"(\d+) bytes", cells[1])
        assert size and cells[2].isdigit(), f"unparsed row: {line}"
        rows.append((cells[0], int(size.group(1)), int(cells[2])))
    return rows


def test_table_rows_are_the_members():
    assert table_rows() == [(m.name.lower(), m.proof_size, m.iterations)
                            for m in RingParams]


def test_each_row_names_its_preset():
    for mode, proof_size, iterations in table_rows():
        params = preset(mode)
        assert (params.proof_size, params.iterations) == (proof_size, iterations)
