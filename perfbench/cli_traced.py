"""One traced `chipmunkring` CLI process, for the traced cli-cold run.

Usage: python3 perfbench/cli_traced.py SPANS OP T_SPAWN -- <cli arguments>

Records three top-level spans for op OP: cli.startup (from T_SPAWN, the
parent's clock reading before it spawned this process, to this file's
first line), cli.import (importing the package) and cli.main (the command,
with every layer call below it). Exits with the command's exit code.
"""

import time

FIRST_LINE = time.perf_counter()

import sys  # noqa: E402

import tracing  # noqa: E402


def main():
    spans, op, t_spawn = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    argv = sys.argv[sys.argv.index("--") + 1:]
    tracer = tracing.Tracer()
    tracer.current_op = op
    tracer.record("cli.startup", t_spawn, FIRST_LINE)
    with tracer.span("cli.import"):
        from chipmunkring import cli
    tracer.install()
    code = cli.main(argv)
    tracer.dump(spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
