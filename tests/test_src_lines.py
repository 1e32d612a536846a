"""scripts/src_lines.py: the line counts each change reports, and a refusal
instead of a count of 0 when DIR holds no package source."""

import pytest


def test_src_lines_counts_this_checkout(capsys, load_script):
    assert load_script("src_lines").main(["src_lines.py"]) == 0
    physical, code = capsys.readouterr().out.splitlines()
    assert physical.startswith("physical lines ") and code.startswith("code lines ")
    assert int(physical.split()[-1]) > int(code.split()[-1]) > 0


@pytest.mark.parametrize("where", ["empty", "--help"])
def test_src_lines_refuses_a_dir_without_the_package(tmp_path, monkeypatch, capsys,
                                                     load_script, where):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty").mkdir()
    assert load_script("src_lines").main(["src_lines.py", where]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {where}/src/chipmunkring holds no .py file")
