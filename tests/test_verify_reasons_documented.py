"""The verifier's reasons are the ones its documents name.

Every `VerifyReport(...)` call in `ringsig.py` gives its reason as a string
literal; this test reads them with `ast`. That set, plus "ok", must equal
the reasons README "Verification" numbers as stages, and the reasons the
comment on `VerifyReport.reason` lists. README "CLI"'s exit-code line must
list every reason but "structural" for exit 1, since `chipmunkring verify`
exits 2 on "structural" and 1 on the rest. Adding, removing or renaming a
reason means changing all three documents.
"""

import ast
import inspect
import re
from pathlib import Path

from chipmunkring import ringsig

ROOT = Path(__file__).resolve().parent.parent


def returned_reasons():
    """The reason literal of every VerifyReport(...) call in ringsig.py."""
    tree = ast.parse(inspect.getsource(ringsig))
    reasons = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "VerifyReport":
            first = node.args[0]
            assert isinstance(first, ast.Constant) and isinstance(first.value, str), \
                f"line {node.lineno}: the reason is not a string literal"
            reasons.add(first.value)
    return reasons


def readme_reasons():
    """The reason each numbered stage of README "Verification" opens with."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n### Verification\n", 1)[1].split("\n#", 1)[0]
    stages = [line for line in section.splitlines() if re.match(r"\d+\. ", line)]
    reasons = [re.match(r"\d+\. `(\w+)`", line) for line in stages]
    assert all(reasons), f"a stage does not open with its reason: {stages}"
    return {m.group(1) for m in reasons}


def comment_reasons():
    """The reasons listed in the comment on VerifyReport.reason."""
    lines = inspect.getsource(ringsig.VerifyReport).splitlines()
    start = next(i for i, line in enumerate(lines) if "reason: str" in line)
    comment = ""
    for line in lines[start:]:
        if "#" not in line:
            break
        comment += line.split("#", 1)[1]
    return {word.strip() for word in comment.split("|")}


def exit_1_reasons():
    """The checks README "CLI"'s exit-code line lists after `1`."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    line = " ".join(section.split("\nExit codes: ", 1)[1].split("\n\n", 1)[0].split())
    listed = re.search(r"`1` cryptographic reject \(the failed check is printed: ([^)]*)\)",
                       line)
    assert listed, f"no exit-1 list in: {line}"
    assert "`2` structural" in line
    return {word.strip("` ") for word in re.split(r",| or ", listed.group(1))}


def test_readme_numbers_every_reject_reason():
    assert readme_reasons() | {"ok"} == returned_reasons() | {"ok"}


def test_reason_comment_lists_every_reason():
    assert comment_reasons() == returned_reasons() | {"ok"}


def test_cli_exit_codes_list_every_crypto_reason():
    assert exit_1_reasons() == returned_reasons() - {"structural", "ok"}
