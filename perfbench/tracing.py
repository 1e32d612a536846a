"""Span recording around the public functions of chipmunkring, from outside.

Nothing under src/ knows about tracing. `Tracer.install()` replaces each
target function with a timing wrapper wherever callers look it up: in the
defining module and in every chipmunkring module that imported it by name.
`lru_cache`d functions are wrapped outside the cache, and their hit ratio
comes from `cache_info()` deltas taken at install and at dump.

A span is (name, start, end, parent, op). Spans live in flat arrays in
memory and are pickled to one file when the process finishes; the parent
process aggregates the files. A layer's self time is its span minus the
time covered by its direct child spans.
"""

import contextlib
import pickle
import sys
from array import array
from collections import defaultdict

from common import clock

TARGETS = {
    "polyring": ("ntt_forward", "ntt_inverse", "ntt_cached", "mul", "hash_to_poly",
                 "expand_matrix", "sample_secret", "infinity_norm"),
    "hots": ("keygen", "sign", "verify"),
    "acorn": ("create_proof", "verify_proof", "constant_time_eq", "derive_randomness"),
    "ringsig": ("ring_hash", "challenge_digest", "check_structure", "check_linkability",
                "core_matches", "ring_sign", "ring_verify_report"),
    "threshold": ("deal_shares", "threshold_challenge", "partial_sign", "combine",
                  "lagrange_at_zero", "threshold_verify_report"),
    "codec": ("decode_public_key", "decode_signature", "encode_signature",
              "encode_public_key"),
    "cli": ("main",),
}

# Per-layer metrics reported per op: (function, stat) with stat one of
# calls, self_ms, hit_ratio. Chosen as the figures an optimisation of that
# layer is expected to move (see perfbench/README.md).
LAYER_METRICS = (
    ("polyring.ntt_forward", "calls"), ("polyring.ntt_forward", "self_ms"),
    ("polyring.ntt_inverse", "calls"), ("polyring.ntt_inverse", "self_ms"),
    ("polyring.mul", "self_ms"), ("polyring.ntt_cached", "hit_ratio"),
    ("polyring.hash_to_poly", "self_ms"), ("polyring.hash_to_poly", "hit_ratio"),
    ("polyring.expand_matrix", "self_ms"), ("polyring.expand_matrix", "hit_ratio"),
    ("polyring.sample_secret", "self_ms"),
    ("polyring.infinity_norm", "calls"), ("polyring.infinity_norm", "self_ms"),
    ("hots.keygen", "self_ms"), ("hots.sign", "self_ms"),
    ("hots.verify", "calls"), ("hots.verify", "self_ms"),
    ("acorn.create_proof", "calls"), ("acorn.create_proof", "self_ms"),
    ("acorn.verify_proof", "calls"), ("acorn.constant_time_eq", "self_ms"),
    ("acorn.derive_randomness", "self_ms"),
    ("ringsig.ring_hash", "self_ms"), ("ringsig.ring_hash", "hit_ratio"),
    ("ringsig.challenge_digest", "self_ms"), ("ringsig.check_structure", "self_ms"),
    ("ringsig.check_linkability", "self_ms"), ("ringsig.core_matches", "self_ms"),
    ("ringsig.ring_sign", "self_ms"), ("ringsig.ring_verify_report", "self_ms"),
    ("threshold.deal_shares", "self_ms"), ("threshold.threshold_challenge", "self_ms"),
    ("threshold.partial_sign", "self_ms"), ("threshold.combine", "self_ms"),
    ("threshold.lagrange_at_zero", "self_ms"),
    ("threshold.threshold_verify_report", "self_ms"),
    ("codec.decode_public_key", "calls"), ("codec.decode_public_key", "self_ms"),
    ("codec.decode_signature", "self_ms"), ("codec.encode_signature", "self_ms"),
    ("codec.encode_public_key", "self_ms"), ("codec.encode_public_key", "hit_ratio"),
    ("cli.main", "self_ms"),
)
UNITS = {"calls": "calls/op", "self_ms": "ms/op", "hit_ratio": "ratio"}


class Tracer:
    """Records spans in memory; one per process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.nid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = []
        self.current_op = -1
        self.caches = {}

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid, t):
        idx = len(self.nid)
        self.nid.append(nid)
        self.start.append(t)
        self.end.append(t)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = clock()
        self.stack.pop()

    def record(self, name, start, end):
        """A span timed elsewhere, e.g. interpreter start-up before tracing."""
        self.end[self._open(self._name_id(name), start)] = end
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (op roots, CLI stages)."""
        idx = self._open(self._name_id(name), clock())
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def root(self, kind, op):
        """The end-to-end span of one op; calls outside roots are not counted."""
        self.current_op = op
        try:
            with self.span("op." + kind):
                yield
        finally:
            self.current_op = -1

    def wrap(self, name, fn):
        nid = self._name_id(name)
        opener, closer = self._open, self._close

        def traced(*args, **kwargs):
            idx = opener(nid, clock())
            try:
                return fn(*args, **kwargs)
            finally:
                closer(idx)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target of every chipmunkring module already imported."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "chipmunkring"
                                         or name.startswith("chipmunkring."))]
        for mod_name, functions in TARGETS.items():
            defining = sys.modules.get("chipmunkring." + mod_name)
            if defining is None:
                continue
            for fn_name in functions:
                original = getattr(defining, fn_name)
                name = f"{mod_name}.{fn_name}"
                wrapper = self.wrap(name, original)
                if hasattr(original, "cache_info"):
                    info = original.cache_info()
                    self.caches[name] = (original, info.hits, info.misses)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def cache_deltas(self):
        out = {}
        for name, (fn, hits, misses) in self.caches.items():
            info = fn.cache_info()
            out[name] = (info.hits - hits, info.misses - misses)
        return out

    def snapshot(self):
        return {"names": self.names, "nid": self.nid, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                "caches": self.cache_deltas()}

    def dump(self, path):
        with open(path, "wb") as fh:
            pickle.dump(self.snapshot(), fh, protocol=pickle.HIGHEST_PROTOCOL)


class NullTracer:
    """Stands in for Tracer in timed runs: no spans, no wrappers."""

    def root(self, kind, op):
        return contextlib.nullcontext()


def load(path):
    with open(path, "rb") as fh:
        return pickle.load(fh)


class Aggregate:
    """Per-function totals and per-root coverage, summed over span dumps."""

    def __init__(self):
        self.calls = defaultdict(float)
        self.self_s = defaultdict(float)
        self.hits = defaultdict(int)
        self.lookups = defaultdict(int)
        self.root_s = defaultdict(float)
        self.covered_s = defaultdict(float)

    def add(self, dump, per_op_weight=1.0, top_level_root=None):
        """Fold in one process's spans.

        Spans outside any op (op < 0) are set-up and are skipped. Totals are
        scaled by per_op_weight (1 / ops in the run), so sums over all of a
        run's processes are per-op figures. When top_level_root = (kind, wall s) is given,
        the dump's top-level spans are the children of one root that the
        parent process timed (a CLI subprocess).
        """
        names, nid, parent, op = dump["names"], dump["nid"], dump["parent"], dump["op"]
        start, end = dump["start"], dump["end"]
        n = len(nid)
        child = [0.0] * n
        top = 0.0
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
            elif op[i] >= 0:
                top += end[i] - start[i]
        for i in range(n):
            if op[i] < 0:
                continue
            name = names[nid[i]]
            dur = end[i] - start[i]
            if name.startswith("op."):
                self.root_s[name[3:]] += dur
                self.covered_s[name[3:]] += child[i]
                continue
            self.calls[name] += per_op_weight
            self.self_s[name] += (dur - child[i]) * per_op_weight
        if top_level_root is not None:
            kind, wall = top_level_root
            self.root_s[kind] += wall
            self.covered_s[kind] += top
        for name, (hits, misses) in dump["caches"].items():
            self.hits[name] += hits
            self.lookups[name] += hits + misses

    def layer_metrics(self):
        out = {}
        for fn, stat in LAYER_METRICS:
            if stat == "calls":
                value = self.calls.get(fn, 0.0)
            elif stat == "self_ms":
                value = self.self_s.get(fn, 0.0) * 1e3
            else:
                lookups = self.lookups.get(fn, 0)
                value = self.hits.get(fn, 0) / lookups if lookups else 0.0
            out[f"{fn}.{stat}"] = {"value": value, "unit": UNITS[stat]}
        return out

    def unexplained(self):
        """Share of each root kind's time not covered by top-level spans."""
        return {kind: 1.0 - self.covered_s[kind] / total
                for kind, total in self.root_s.items() if total > 0}

    def unexplained_total(self):
        total = sum(self.root_s.values())
        return 1.0 - sum(self.covered_s.values()) / total if total > 0 else 0.0
