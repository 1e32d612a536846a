"""README "CLI" documents exactly the subcommands the CLI registers.

Each shell example line of the section that starts `chipmunkring <command>`
names a documented command. That set must equal the subcommands
`cli._build_parser()` registers, read off its usage line: adding,
removing or renaming a command means changing an example. No README line
runs `chipmunkring bench`; the performance table is
`scripts/bench_table.py`.
"""

import re
from pathlib import Path

from chipmunkring import cli

ROOT = Path(__file__).resolve().parent.parent


def readme_text():
    return (ROOT / "README.md").read_text()


def documented_commands():
    """The command of every `chipmunkring <command>` line of README "CLI"."""
    section = readme_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return {m.group(1) for line in section.splitlines()
            if (m := re.match(r"chipmunkring ([\w-]+)", line))}


def registered_commands():
    """The subcommand choices on the parser's usage line."""
    usage = cli._build_parser().format_usage()
    return set(re.search(r"\{([^}]*)\}", usage).group(1).split(","))


def test_cli_section_documents_every_subcommand():
    assert documented_commands() == registered_commands()


def test_no_readme_line_runs_the_removed_bench_command():
    assert [line for line in readme_text().splitlines() if "chipmunkring bench" in line] == []
