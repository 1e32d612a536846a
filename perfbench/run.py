"""ChipmunkRing benchmark: one-time-key sign/verify workloads and a cold CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ring64-warm, threshold-16of32, cli-cold (see perfbench/README.md).
The code under test is ./src, put on PYTHONPATH for every child process.
Before timing, a child re-derives tests/vectors/golden.json; on any byte
difference the run exits 1 and reports nothing.

Standard output ends with one JSON object: correct, attempted, failed and
metrics (end-to-end with --trace 0, per-layer with --trace 1). The lines
before it carry run metadata and the informational metrics: fail_ratio and,
untraced, the medians and verify throughput.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import tracing
from common import (
    BENCH_DIR,
    CLI_ROUND_OPS,
    CLI_SIZES,
    CLI_TAMPER_EVERY,
    CLI_TAMPERS,
    EXPECTED,
    GOLDEN,
    MAX_ROUNDS,
    RING64,
    ROOT,
    SRC,
    THRESHOLD,
    WORK_ROOT,
    child_env,
    clock,
    derive,
    message,
    percentile,
    python,
    run_child,
)

WORKLOADS = ("ring64-warm", "threshold-16of32", "cli-cold")
STARTUP_REPS = 5
# The traced run fails its stage-sum check when the top-level layer spans of
# an op kind cover less than this share of that kind's end-to-end time.
MIN_COVERAGE = 0.5


class BenchError(Exception):
    """A run that cannot report numbers: broken environment or harness."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != str(ROOT):
        return None
    return lines[1]


def metadata(args):
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    cli = args.workload == "cli-cold"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(), "python": platform.python_version(),
        "numpy": numpy_version, "git_commit": git_commit(),
        "cache_state": {
            "setup": "fresh-process",
            "sign": "fresh-process" if cli else "warm-in-process",
            "verify": "fresh-process" if cli else "warm-in-process",
        },
    }


class Run:
    """Work directory, child launcher and outcome tally of one benchmark run."""

    def __init__(self, args, work):
        self.args = args
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.misses = []
        self.peak_rss_mb = 0.0
        self.children = 0
        self.env = child_env(work / "pycache")

    def child(self, argv, start=None):
        """Run a child; returns (exit code, wall s, stdout, stderr)."""
        self.children += 1
        out, err = self.work / "child.out", self.work / "child.err"
        code, wall, rss = run_child(argv, out, err, self.env, start)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return code, wall, out.read_text(errors="replace"), err.read_text(errors="replace")

    def phase(self, job):
        """Run one phases.py child on a job and return its result dict."""
        n = self.children
        job = dict(job, workload=self.args.workload, seed=self.args.seed,
                   inputs=str(self.work / "inputs.pkl"),
                   result=str(self.work / f"result{n}.json"),
                   spans=str(self.work / f"phase{n}.spans"))
        job_path = self.work / f"job{n}.json"
        job_path.write_text(json.dumps(job))
        code, _, _, err = self.child([python(), str(BENCH_DIR / "phases.py"), str(job_path)])
        if code != 0:
            raise BenchError(f"{job['phase']} phase exited {code}:\n{err[-3000:]}")
        result = json.loads(Path(job["result"]).read_text())
        self.tally(result)
        result["spans"] = job["spans"]
        return result

    def tally(self, result):
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.misses += result["misses"][:5 - len(self.misses)]

    def check(self, what, expected, got):
        self.tally({"attempted": 1, "failed": int(got != expected),
                    "misses": [f"{what}: expected {expected}, got {got}"]
                    if got != expected else []})


def timing_metrics(setup_key_s, round_keys, deal_s, sign_s, verify_s, verify_elapsed,
                   rss):
    """(gated end-to-end metrics, informational ones).

    Only p90 latencies are gated: on a shared host whose speed changes
    twofold within seconds, ten-run spreads of up to 53% were measured on
    the medians against at most 18% on the p90s (see README.md). The
    medians and the throughput are still printed on the info line. setup_s
    is timed the same way: a round's set-up builds round_keys decoy keys,
    each timed alone, and setup_s is round_keys times the p90 over all of
    the run's per-key samples.
    """
    ms = 1e3
    gated = {
        "setup_s": {"value": round_keys * percentile(setup_key_s, 90), "unit": "s"},
        "deal_p90_ms": {"value": percentile(deal_s, 90) * ms, "unit": "ms"},
        "sign_p90_ms": {"value": percentile(sign_s, 90) * ms, "unit": "ms"},
        "verify_p90_ms": {"value": percentile(verify_s, 90) * ms, "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    info = {
        "deal_p50_ms": {"value": percentile(deal_s, 50) * ms, "unit": "ms"},
        "sign_p50_ms": {"value": percentile(sign_s, 50) * ms, "unit": "ms"},
        "verify_p50_ms": {"value": percentile(verify_s, 50) * ms, "unit": "ms"},
        "verify_per_s": {"value": len(verify_s) / verify_elapsed, "unit": "1/s"},
    }
    return gated, info


def overhead_pct(traced, untraced):
    return (percentile(traced, 50) / percentile(untraced, 50) - 1.0) * 100


# -- ring64-warm and threshold-16of32: signer process, then verifier, per round

def run_phased(run):
    args = run.args
    spec = RING64 if args.workload == "ring64-warm" else THRESHOLD
    trace = bool(args.trace)
    setup_key_s, deal_s, sign_s, verify_s, traced_verify_s, dumps = [], [], [], [], [], []
    rounds = 0
    verify_elapsed = 0.0
    signer_keys = set()
    begin = clock()
    first = 0
    while first == 0 or (clock() - begin < args.seconds
                         and first < MAX_ROUNDS * spec["round_ops"]):
        sign = run.phase({"phase": "sign", "trace": trace, "first_op": first})
        keys = set(sign["signer_keys"])
        if len(keys) != spec["round_ops"] or keys & signer_keys:
            raise BenchError("a one-time key signed more than once")
        signer_keys |= keys
        setup_key_s += sign["setup_key_s"]
        deal_s += sign["deal_s"]
        sign_s += sign["sign_s"]
        verify = run.phase({"phase": "verify", "trace": False})
        verify_s += verify["verify_s"]
        verify_elapsed += verify["elapsed_s"]
        if trace:
            # the same inputs again in a traced fresh process: tracing overhead
            traced = run.phase({"phase": "verify", "trace": True})
            traced_verify_s += traced["verify_s"]
            dumps += [sign["spans"], traced["spans"]]
        first += spec["round_ops"]
        rounds += 1
    samples = {"rounds": rounds, "setup_keys": len(setup_key_s), "deal": len(deal_s),
               "sign": len(sign_s), "verify": len(verify_s)}
    if not trace:
        return (*timing_metrics(setup_key_s, spec["ring"] - 1, deal_s, sign_s, verify_s,
                                verify_elapsed, run.peak_rss_mb), samples)
    samples["traced_verify"] = len(traced_verify_s)
    agg = tracing.Aggregate()
    for path in dumps:
        agg.add(tracing.load(path), 1.0 / first)
    return trace_metrics(run, agg, overhead_pct(traced_verify_s, verify_s)), {}, samples


# -- cli-cold: every sign and verify is a fresh chipmunkring process ---------

def cli_argv(spans, op, t_spawn, *cli_args):
    """Traced launcher when spans is a path, else what the installed
    `chipmunkring` console script runs."""
    if spans is not None:
        return [python(), str(BENCH_DIR / "cli_traced.py"), str(spans), str(op),
                repr(t_spawn), "--", *cli_args]
    return [python(), "-c",
            "import sys; from chipmunkring.cli import main; sys.exit(main())", *cli_args]


def cli_outcome(code, out, err):
    """Map a verify process's exit code and output to (accepted, reason)."""
    line = out.strip().splitlines()[0] if out.strip() else ""
    if code == 0 and line == "accept":
        return (True, "ok")
    if code in (1, 2) and line.startswith("reject: "):
        return (False, line.split()[1])
    if code == 2 and err.startswith("decode error"):
        return (False, "decode")
    return ("error", code, line or err.strip()[-200:])


class CliProcesses:
    """Starts CLI children one at a time and keeps their timings and spans."""

    def __init__(self, run):
        self.run = run
        self.trace = bool(run.args.trace)
        self.sign_s, self.verify_s, self.traced_verify_s = [], [], []
        self.dumps = []  # (spans path, root kind, wall s)

    def call(self, kind, op, *cli_args, traced):
        spans = self.run.work / f"cli{len(self.dumps)}.spans" if traced else None
        t_spawn = clock()
        code, wall, out, err = self.run.child(cli_argv(spans, op, t_spawn, *cli_args),
                                              start=t_spawn)
        if traced:
            self.dumps.append((spans, kind, wall))
        return code, wall, out, err

    def sign(self, op, *cli_args):
        code, wall, out, _ = self.call("cli_sign", op, "sign", *cli_args, traced=self.trace)
        signed = code == 0 and out.startswith("wrote ")
        self.run.check(f"sign op {op}", "signed", "signed" if signed else ("error", code))
        if signed:
            self.sign_s.append(wall)
        return signed

    def verify(self, op, kind, expected, sig, msg, ring_arg):
        cli_args = ("verify", "--sig", str(sig), "--ring", ring_arg, "--message", str(msg))
        code, wall, out, err = self.call("cli_verify", op, *cli_args, traced=False)
        self.verify_s.append(wall)
        self.run.check(f"verify op {op} ({kind})", expected, cli_outcome(code, out, err))
        if self.trace:
            # the same input again in a traced fresh process: tracing overhead
            code, wall, out, err = self.call("cli_verify", op, *cli_args, traced=True)
            self.traced_verify_s.append(wall)
            self.run.check(f"traced verify op {op} ({kind})", expected,
                           cli_outcome(code, out, err))


def run_cli(run):
    """cli-cold runs in this process, which starts each CLI child in turn.

    This process never imports chipmunkring, so its own RSS, which every
    child's peak RSS counts (see run_child), stays small.
    """
    args, work = run.args, run.work
    seed, wl = args.seed, args.workload
    procs = CliProcesses(run)
    setup_key_s, deal_s, signer_keys, key_dumps = [], [], set(), []
    rounds = 0
    begin = clock()
    first = 0
    while first == 0 or (clock() - begin < args.seconds
                         and first < MAX_ROUNDS * CLI_ROUND_OPS):
        key_dir = work / "keys"
        keyfiles = run.phase({"phase": "keyfiles", "trace": procs.trace,
                              "dir": str(key_dir), "count": max(CLI_SIZES) - 1,
                              "first_op": first, "ops": CLI_ROUND_OPS})
        keys = set(keyfiles["signer_keys"])
        if len(keys) != CLI_ROUND_OPS or keys & signer_keys:
            raise BenchError("a one-time key would sign more than once")
        signer_keys |= keys
        setup_key_s += keyfiles["setup_key_s"]
        deal_s += keyfiles["deal_s"]
        key_dumps.append(keyfiles["spans"])
        decoys = keyfiles["decoys"]
        tampers = []
        for j, (pk_path, sk_path) in enumerate(keyfiles["signers"]):
            i = first + j
            k = CLI_SIZES[j % len(CLI_SIZES)]
            pos = i % k
            ring_arg = ",".join(decoys[:pos] + [pk_path] + decoys[pos:k - 1])
            msg_path, sig_path = key_dir / f"message{i}", key_dir / f"sig{i}"
            msg_path.write_bytes(message(seed, wl, i))
            entropy = derive(seed, wl, "entropy", i)
            if not procs.sign(i, "--sk", sk_path, "--ring", ring_arg, "--message",
                              str(msg_path), "--out", str(sig_path),
                              "--seed", entropy.hex()):
                continue
            procs.verify(i, "honest", EXPECTED["honest"], sig_path, msg_path, ring_arg)
            if j % CLI_TAMPER_EVERY == 1:
                # kinds rotate across rounds; every kind costs about one process start
                kind = CLI_TAMPERS[(i // CLI_TAMPER_EVERY) % len(CLI_TAMPERS)]
                tampers.append({"op": i, "kind": kind, "ring": k, "ring_arg": ring_arg,
                                "sig": str(sig_path), "msg": str(msg_path),
                                "bad_sig": f"{sig_path}.tampered",
                                "bad_msg": f"{msg_path}.tampered"})
        if tampers:
            # one child makes the round's tampered copies; their verifies follow
            run.phase({"phase": "tamper", "trace": False, "tampers": tampers})
            for t in tampers:
                procs.verify(t["op"], t["kind"], EXPECTED[t["kind"]], t["bad_sig"],
                             t["bad_msg"], t["ring_arg"])
        first += CLI_ROUND_OPS
        rounds += 1
        shutil.rmtree(key_dir)

    samples = {"rounds": rounds, "setup_keys": len(setup_key_s), "deal": len(deal_s),
               "sign": len(procs.sign_s), "verify": len(procs.verify_s)}
    if not args.trace:
        return (*timing_metrics(setup_key_s, max(CLI_SIZES) - 1, deal_s, procs.sign_s,
                                procs.verify_s, sum(procs.verify_s), run.peak_rss_mb),
                samples)
    agg = tracing.Aggregate()
    for spans in key_dumps:
        agg.add(tracing.load(spans), 1.0 / first)
    for spans, kind, wall in procs.dumps:
        agg.add(tracing.load(spans), 1.0 / first, top_level_root=(kind, wall))
    samples["traced_verify"] = len(procs.traced_verify_s)
    overhead = overhead_pct(procs.traced_verify_s, procs.verify_s)
    return trace_metrics(run, agg, overhead), {}, samples


# -- traced runs --------------------------------------------------------------

def startup_ms(run):
    """Median wall ms of a bare interpreter and of `import chipmunkring`."""
    bare, imported = [], []
    for _ in range(STARTUP_REPS):
        bare.append(run.child([python(), "-c", "pass"])[1])
        imported.append(run.child([python(), "-c", "import chipmunkring"])[1])
    return percentile(bare, 50) * 1e3, percentile(imported, 50) * 1e3


def trace_metrics(run, agg, overhead):
    metrics = agg.layer_metrics()
    interpreter, imported = startup_ms(run)
    metrics["cli.interpreter_ms"] = {"value": interpreter, "unit": "ms"}
    metrics["cli.import_ms"] = {"value": imported - interpreter, "unit": "ms"}
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    metrics["trace.unexplained_pct"] = {"value": agg.unexplained_total() * 100,
                                        "unit": "%"}
    for kind, share in sorted(agg.unexplained().items()):
        print(f"stage-sum {run.args.workload} op.{kind}: {share * 100:.1f}% of "
              f"end-to-end time outside top-level layer spans", file=sys.stderr)
        if share > 1 - MIN_COVERAGE:
            run.check(f"stage-sum op.{kind}", f"coverage >= {MIN_COVERAGE:.0%}",
                      f"coverage {1 - share:.0%}")
    return metrics


# -- entry point ---------------------------------------------------------------

def check_checkout():
    missing = [str(p.relative_to(ROOT)) for p in (SRC / "chipmunkring" / "__init__.py",
                                                    GOLDEN) if not p.is_file()]
    if missing:
        raise BenchError("checkout lacks " + ", ".join(missing))


def golden_gate(run):
    code, _, _, err = run.child([python(), str(BENCH_DIR / "golden.py")])
    if code != 0:
        raise BenchError("golden-vector gate failed; no numbers reported\n" + err[-3000:])
    run.peak_rss_mb = 0.0  # the gate is not part of the workload


def main(argv=None):
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed and
    # waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    try:
        check_checkout()
        meta = metadata(args)
        if meta["loadavg_start"][0] > meta["nproc"]:
            print(f"warning: load average {meta['loadavg_start'][0]:.2f} exceeds "
                  f"{meta['nproc']} cores; timings will be noisy", file=sys.stderr)
        WORK_ROOT.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
        try:
            run = Run(args, work)
            golden_gate(run)
            runner = run_cli if args.workload == "cli-cold" else run_phased
            metrics, info, samples = runner(run)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                WORK_ROOT.rmdir()
            except OSError:
                pass  # another run's directory is still there
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # every child's peak RSS counts this process's RSS at spawn; recorded so
    # that floor can be seen next to peak_rss_mb
    parent_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    meta.update(loadavg_end=os.getloadavg(), parent_rss_mb=parent_rss_mb,
                samples=samples, misses=run.misses)
    for miss in run.misses:
        print(f"wrong outcome: {miss}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    info["fail_ratio"] = {"value": run.failed / max(run.attempted, 1), "unit": "ratio"}
    print(json.dumps({"info": info, "attempted": run.attempted}))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
