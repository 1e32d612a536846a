"""Smoke test of the benchmark itself; takes about a minute.

Usage: python3 perfbench/selftest.py

Checks, at a tiny size (--seconds 1, so each run does one round):
  * every workload, untraced and traced, exits 0 with correct = true and
    emits exactly the metrics BENCHMARK.json names, with their units, plus
    the informational line;
  * a copy whose expected decision for honest inputs is wrong reports
    correct = false with failed and fail_ratio nonzero;
  * a copy whose golden vectors differ by one byte exits 1 with no result;
  * a directory holding only BENCHMARK.json and perfbench/ exits non-zero
    with no result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from common import BENCH_DIR, GOLDEN, ROOT, SRC, WORK_ROOT, python

WORKLOADS = ("ring64-warm", "threshold-16of32", "cli-cold")
TIMEOUT = 180
INFO = {0: {"fail_ratio", "deal_p50_ms", "sign_p50_ms", "verify_p50_ms", "verify_per_s"},
        1: {"fail_ratio"}}


def bench(root, workload, trace):
    proc = subprocess.run(
        [python(), "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result_of(lines):
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    return last if set(last) == {"correct", "attempted", "failed", "metrics"} else None


def copy_checkout(dest, with_src=True):
    """A checkout in dest: BENCHMARK.json and perfbench/, plus src/ and the
    golden vectors when with_src."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH_DIR, dest / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_src:
        shutil.copytree(SRC, dest / "src", ignore=ignore)
        golden = dest / GOLDEN.relative_to(ROOT)
        golden.parent.mkdir(parents=True)
        shutil.copy(GOLDEN, golden)


def info_line(lines):
    return next((json.loads(line)["info"] for line in lines
                 if line.startswith('{"info"')), {})


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    def check(ok, what):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines, err = bench(ROOT, workload, trace)
            res = result_of(lines)
            check(code == 0 and res is not None and res["correct"] and res["failed"] == 0
                  and res["attempted"] >= 1,
                  f"{workload} trace={trace}: exit 0, correct, nothing failed"
                  + ("" if code == 0 else f"\n{err[-2000:]}"))
            if res is None:
                continue
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            check(got == expected[trace], f"{workload} trace={trace}: metric names and units")
            numbers = all(isinstance(m["value"], (int, float))
                          for m in res["metrics"].values())
            if trace == 0:
                numbers = numbers and all(m["value"] > 0 for m in res["metrics"].values())
            check(numbers, f"{workload} trace={trace}: metric values are numbers"
                  + (" above 0" if trace == 0 else ""))
            check(set(info_line(lines)) == INFO[trace],
                  f"{workload} trace={trace}: info line")

    WORK_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK_ROOT))
    try:
        wrong = scratch / "wrong-expectation"
        copy_checkout(wrong)
        common = wrong / "perfbench" / "common.py"
        text = common.read_text()
        honest = '"honest": (True, "ok"),'
        check(honest in text, "common.py holds the honest expectation to alter")
        common.write_text(text.replace(honest, '"honest": (False, "ok"),'))
        for workload in WORKLOADS:
            code, lines, _ = bench(wrong, workload, 0)
            res = result_of(lines)
            ratio = info_line(lines).get("fail_ratio", {}).get("value", 0.0)
            check(code == 0 and res is not None and not res["correct"]
                  and res["failed"] >= 1 and ratio > 0,
                  f"{workload}: a wrong expectation raises fail_ratio")

        altered = scratch / "altered-golden"
        copy_checkout(altered)
        vectors = json.loads(GOLDEN.read_text())
        sig = vectors["single_signature"]
        vectors["single_signature"] = sig[:-2] + ("00" if sig[-2:] != "00" else "01")
        (altered / GOLDEN.relative_to(ROOT)).write_text(json.dumps(vectors))
        code, lines, err = bench(altered, "ring64-warm", 0)
        check(code == 1 and result_of(lines) is None and "golden" in err,
              "a one-byte golden-vector difference refuses to report")

        bare = scratch / "bare"
        copy_checkout(bare, with_src=False)
        code, lines, _ = bench(bare, "ring64-warm", 0)
        check(code != 0 and result_of(lines) is None,
              "a directory with only the benchmark fails without a result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # a run's directory is still there

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
