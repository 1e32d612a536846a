"""Shared by the benchmark parent and its child processes: paths, workload
shapes, seed derivation, statistics and the child-process launcher.

Nothing here imports chipmunkring.
"""

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "vectors" / "golden.json"
WORK_ROOT = ROOT / ".perfbench_work"

clock = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes

# A run is a sequence of rounds, each with a fixed number of ops, started
# until --seconds have passed (at least one round). A round of ring64-warm
# or threshold-16of32 is one signer process that builds the decoy pool and
# signs its ops, then one fresh verifier process that decides all their
# inputs; a cli-cold round writes the decoy key files, runs its ops, then
# makes its tampered copies in one more process and verifies them.
# Every round has the same mix of ring positions, subsets and tampered
# inputs (schedules depend on the op's index within its round), so the
# latency mix does not change with the number of rounds; fixed rounds also
# keep per-process memory independent of machine speed, and interleaving
# sign and verify spreads every metric over the whole run.
RING64 = {"params": "single", "ring": 64, "round_ops": 40}
THRESHOLD = {"params": "multi", "ring": 32, "t": 16, "round_ops": 16,
             "byzantine_every": 8}
# cli-cold ring sizes, cycled per op. 32 appears twice so the median falls
# inside the k = 32 cluster and p90 inside the k = 64 one, not on a border.
CLI_SIZES = (2, 8, 32, 32, 64)
CLI_ROUND_OPS = 10
CLI_TAMPER_EVERY = 3
# Cap so a much faster program cannot run away with memory or disk.
MAX_ROUNDS = 200

RING64_TAMPERS = ("sigma", "proof", "randomness", "linkability", "message",
                  "ring_order", "truncated")
THRESHOLD_TAMPERS = ("sigma", "threshold_block", "message")
CLI_TAMPERS = ("sigma", "proof", "truncated", "message")

# Expected (accepted, reason) per input kind; "decode" marks a CodecError.
EXPECTED = {
    "honest": (True, "ok"),
    "sigma": (False, "core"),
    "proof": (False, "challenge"),
    "randomness": (False, "challenge"),
    "linkability": (False, "linkability"),
    "message": (False, "challenge"),
    "ring_order": (False, "challenge"),
    "truncated": (False, "decode"),
    "threshold_block": (False, "threshold_acorn"),
}


def derive(seed: int, *labels, length: int = 32) -> bytes:
    """Deterministic bytes for (seed, labels); the source of every input."""
    data = json.dumps([seed, *labels]).encode()
    return hashlib.shake_256(b"perfbench|" + data).digest(length)


def derive_int(seed: int, *labels, bound: int) -> int:
    return int.from_bytes(derive(seed, *labels, length=8), "little") % bound


def message(seed: int, workload: str, op: int) -> bytes:
    """Message stream: 32 to 511 bytes per op."""
    n = 32 + derive_int(seed, workload, "msglen", op, bound=480)
    return derive(seed, workload, "msg", op, length=n)


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile; pct = 50 gives the interpolated median."""
    if pct == 50:
        return statistics.median(samples)
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def child_env(pycache: Path) -> dict:
    """Environment for every child: the working tree's src/ first on the path,
    and bytecode cached under `pycache` whatever the caller's environment
    says, as for an installed package (the first child compiles)."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


def run_child(argv, stdout_path, stderr_path, env, start=None):
    """Run one child to completion; returns (exit code, wall s, peak RSS MB).

    The wall time runs from `start` (default: now) to the child's exit.
    The peak RSS is the child's ru_maxrss from os.wait4. On Linux that also
    counts the memory the child had before exec, which is the caller's: so
    the value is at least the caller's RSS at spawn, and callers stay small
    by never importing chipmunkring. The caller never runs two children at
    once.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = clock() if start is None else start
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = clock() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def python() -> str:
    return sys.executable or "python3"
