"""Where a cold k = 64 `chipmunkring sign` and `verify` process spends its time.

Usage: python3 scripts/cold_cli_phases.py TREE [TREE ...] [-n N]

TREE is a source checkout (its `src/` holds the package). For each tree, the
tree's own CLI makes 64 keys and a message in a temporary directory; then N
rounds (default 15) each run one fresh `sign` and one fresh `verify` process
per tree, at k = 64, with bytecode cached under a per-tree
PYTHONPYCACHEPREFIX (one uncounted warm-up round compiles it). Several trees
alternate within each round, in reversed order every other round, so a
noisy host hits them alike.

Each process is split into four phases, in ms:
  start    spawn to the child's first line (interpreter and site start-up)
  import   `from chipmunkring.cli import main` (numpy and the package)
  command  main(argv), the command itself
  exit     main's return to the parent seeing the process gone
The medians are printed per tree and command.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

K = 64
PHASES = ("start", "import", "command", "exit", "total")

# Runs in the child: the phase boundaries go to the file named by argv[1] as
# perf_counter readings, which share one clock with the parent on Linux.
CHILD = """\
import time
t_first = time.perf_counter()
import sys
from chipmunkring.cli import main
t_imported = time.perf_counter()
code = main(sys.argv[2:])
t_returned = time.perf_counter()
with open(sys.argv[1], "w") as fh:
    fh.write(f"{t_first!r} {t_imported!r} {t_returned!r}")
sys.exit(code)
"""


def child_env(tree: Path, pycache: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


class Tree:
    """One checkout with its own key files, bytecode cache and samples."""

    def __init__(self, path: Path, work: Path):
        self.path = path
        self.work = work
        self.env = child_env(path, work / "pycache")
        self.samples = {"sign": [], "verify": []}
        self._setup()

    def _setup(self):
        # one process calls the tree's own main() for all keygens
        seeds = [f"{i:064x}" for i in range(1, K + 1)]
        code = ("import sys\nfrom chipmunkring.cli import main\n"
                "for i, seed in enumerate(sys.argv[1:]):\n"
                "    if main(['keygen', '--out', f'k{i:02d}', '--seed', seed]):\n"
                "        sys.exit(1)\n")
        subprocess.run([sys.executable, "-c", code, *seeds], cwd=self.work,
                       env=self.env, check=True, stdout=subprocess.DEVNULL)
        (self.work / "msg").write_bytes(b"cold cli phase probe message")
        ring = ",".join(f"k{i:02d}.pk" for i in range(K))
        self.argv = {
            "sign": ["sign", "--sk", "k00.sk", "--ring", ring, "--message", "msg",
                     "--out", "sig", "--seed", "ab" * 32],
            "verify": ["verify", "--sig", "sig", "--ring", ring, "--message", "msg"],
        }

    def run(self, command: str, record: bool = True):
        marks = self.work / "marks"
        if command == "sign":  # sign refuses to overwrite its --out
            (self.work / "sig").unlink(missing_ok=True)
        t_spawn = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", CHILD, str(marks), *self.argv[command]],
                              cwd=self.work, env=self.env, stdout=subprocess.DEVNULL)
        t_gone = time.perf_counter()
        if proc.returncode != 0:
            raise SystemExit(f"{self.path}: {command} exited {proc.returncode}")
        t_first, t_imported, t_returned = map(float, marks.read_text().split())
        if record:
            self.samples[command].append({
                "start": t_first - t_spawn,
                "import": t_imported - t_first,
                "command": t_returned - t_imported,
                "exit": t_gone - t_returned,
                "total": t_gone - t_spawn,
            })

    def medians(self) -> dict:
        return {command: {phase: round(1e3 * statistics.median(s[phase] for s in runs), 1)
                          for phase in PHASES}
                for command, runs in self.samples.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="+", type=Path, help="source checkouts")
    parser.add_argument("-n", type=int, default=15, help="rounds (default 15)")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("-n must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        trees = []
        for i, path in enumerate(args.trees):
            work = Path(tmp) / str(i)
            work.mkdir()
            trees.append(Tree(path.resolve(), work))
        for tree in trees:  # compile the bytecode cache and write the signature
            tree.run("sign", record=False)
            tree.run("verify", record=False)
        for r in range(args.n):
            for tree in (trees if r % 2 == 0 else trees[::-1]):
                tree.run("sign")
                tree.run("verify")
        result = {str(t.path): t.medians() for t in trees}
    print(f"median ms over {args.n} fresh processes per command, k = {K}")
    print(f"{'tree':<40} {'command':<7}" + "".join(f"{p:>9}" for p in PHASES))
    for path, meds in result.items():
        for command, row in meds.items():
            print(f"{path[-40:]:<40} {command:<7}" + "".join(f"{row[p]:>9.1f}" for p in PHASES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
