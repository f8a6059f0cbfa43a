"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions of each knotcalc layer
with wrappers that record a span per call: calls, total time and self
time (the span minus the part of it covered by wrapped child spans).
Every binding of a wrapped function is replaced, so a function imported
into another module under another name, or aliased in a class
(``__radd__ = __add__``), is counted too.  A name missing from the
program is listed in ``absent`` and its metrics read 0.

Spans are folded into per-name totals as they close, so memory does not
grow with the number of calls.  The program itself is not changed.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# (module, attribute path, span name, observer of the result)
SPANS = (
    ("knotcalc.skein", "jones_memoized", "skein.jones", None),
    ("knotcalc.skein", "kauffman_F", "skein.kauffman", None),
    ("knotcalc.skein", "conway", "skein.conway", None),
    ("knotcalc.seifert", "seifert_matrix", "seifert.matrix",
     lambda s: s.size),
    ("knotcalc.seifert", "alexander_from_seifert", "seifert.alexander", None),
    ("knotcalc.seifert", "determinant", "seifert.determinant", None),
    ("knotcalc.seifert", "signature", "seifert.signature", None),
    ("knotcalc.polyring", "LaurentPoly.__mul__", "polyring.laurent.mul", None),
    ("knotcalc.polyring", "LaurentPoly.__add__", "polyring.laurent.add", None),
    ("knotcalc.polyring", "TwoVarPoly.__mul__", "polyring.twovar.mul", None),
    ("knotcalc.polyring", "TwoVarPoly.__add__", "polyring.twovar.add", None),
    ("knotcalc.diagram", "Diagram.canonical_key", "diagram.canonical_key",
     None),
    ("knotcalc.diagram", "pd_parse", "diagram.pd_parse", None),
    ("knotcalc.moves", "simplify", "moves.simplify", None),
    ("knotcalc.cable", "cable2", "cable.build",
     lambda c: c.diagram.n_crossings),
    ("knotcalc.cable", "make_hat", "cable.build", None),
    ("knotcalc.cable", "king_substitution", "cable.substitution", None),
    ("knotcalc.cable", "king_verify", "cable.verify", None),
    ("knotcalc.presentations", "braid_to_tangle", "presentations", None),
    ("knotcalc.presentations", "trace_closure", "presentations", None),
    ("knotcalc.presentations", "tangle_substitute", "presentations", None),
    ("knotcalc.presentations", "double_block", "presentations", None),
    ("knotcalc.table", "load_table", "table.load", None),
    ("knotcalc.verification", "stevedore_chain_report", "verification.chain",
     None),
)

# Per-layer metrics: (name, unit, better, source, what it should move).
# Sources: ("memo", engine, field) reads the benchmark's own SkeinMemo
# objects; ("self"|"calls"|"max"|"sum", span) reads the tracer; ("trace",
# key) is the traced run's own wall time and its overhead.
_MEMO_MOVES = {
    "bracket": "wall_s on cable-sweep; entries move peak_rss_mb on cable-sweep",
    "kauffman": "wall_s on braid-invariants",
    "conway": "wall_s on braid-invariants",
}
PER_LAYER = [
    (f"skein.{engine}.{field}", unit, better, ("memo", engine, field),
     _MEMO_MOVES[engine])
    for engine in ("bracket", "kauffman", "conway")
    for field, unit, better in (("hits", "count", "higher"),
                                ("misses", "count", "lower"),
                                ("entries", "count", "lower"),
                                ("hit_ratio", "ratio", "higher"))
] + [
    ("skein.jones_s", "s", "lower", ("self", "skein.jones"),
     "wall_s and op_p90_ms on cable-sweep"),
    ("skein.kauffman_s", "s", "lower", ("self", "skein.kauffman"),
     "wall_s and op_p90_ms on braid-invariants"),
    ("skein.conway_s", "s", "lower", ("self", "skein.conway"),
     "wall_s and op_p90_ms on braid-invariants"),
] + [
    (f"seifert.{part}_s", "s", "lower", ("self", f"seifert.{part}"),
     "wall_s and op_p90_ms on braid-invariants; op_p50_ms on table-verify")
    for part in ("matrix", "alexander", "determinant", "signature")
] + [
    ("seifert.matrix_dim", "count", "lower", ("max", "seifert.matrix"),
     "wall_s on braid-invariants (largest matrix of the pass)"),
] + [
    (f"polyring.{ring}.{op}.{field}", unit, "lower",
     (source, f"polyring.{ring}.{op}"),
     "wall_s on braid-invariants far more than on cable-sweep")
    for ring in ("laurent", "twovar")
    for op in ("mul", "add")
    for field, unit, source in (("calls", "count", "calls"), ("s", "s", "self"))
] + [
    (f"{span}.{field}", unit, "lower", (source, span),
     "wall_s on braid-invariants")
    for span in ("diagram.canonical_key", "moves.simplify")
    for field, unit, source in (("calls", "count", "calls"), ("s", "s", "self"))
] + [
    (f"cable.{part}_s", "s", "lower", ("self", f"cable.{part}"),
     "op_p50_ms on cable-sweep")
    for part in ("build", "substitution", "verify")
] + [
    ("cable.crossings", "count", "lower", ("sum", "cable.build"),
     "op_p50_ms on cable-sweep (crossings of all cables of the pass)"),
    ("presentations.s", "s", "lower", ("self", "presentations"),
     "setup_s on all workloads"),
    ("diagram.pd_parse_s", "s", "lower", ("self", "diagram.pd_parse"),
     "setup_s on all workloads"),
    ("table.load_s", "s", "lower", ("self", "table.load"),
     "setup_s on all workloads"),
    ("verification.chain_s", "s", "lower", ("self", "verification.chain"),
     "op_p90_ms on table-verify"),
    ("trace.wall_s", "s", "lower", ("trace", "wall_s"),
     "wall_s of the traced run"),
    ("trace.untraced_wall_s", "s", "lower", ("trace", "untraced_wall_s"),
     "wall_s of the untraced passes of the traced run"),
    ("trace.overhead_frac", "ratio", "lower", ("trace", "overhead_frac"),
     "traced over untraced wall_s, minus 1"),
]


class Tracer:
    """Span recorder that folds each span into per-name totals."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._open: list[float] = []   # child time of each open span
        self._paused = 0
        self._installed: list[tuple[object, str, object]] = []
        self.spans: dict[str, list] = {}     # name -> [calls, total, self]
        self.observed: dict[str, list] = {}  # name -> [sum, max]
        self.absent: list[str] = []

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            tracer._open.append(0.0)
            start = tracer._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, tracer._clock() - start)
            if observe is not None:
                value = observe(result)
                got = tracer.observed.setdefault(name, [0, value])
                got[0] += value
                got[1] = max(got[1], value)
            return result

        return traced

    def _close(self, name: str, elapsed: float) -> None:
        children = self._open.pop()
        if self._open:
            self._open[-1] += elapsed
        totals = self.spans.get(name)
        if totals is None:
            totals = self.spans[name] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += elapsed
        totals[2] += elapsed - children

    @contextmanager
    def paused(self):
        """Calls made inside run untraced (the benchmark's own checks)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def install(self, spans=SPANS) -> None:
        """Wrap every binding, in every loaded knotcalc module, of each
        function named in ``spans``."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "knotcalc" or n.startswith("knotcalc.")]
        for module_name, path, name, observe in spans:
            owner = sys.modules.get(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapped = self.wrap(name, original, observe)
            homes = [owner] if owner_path else modules
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is original:
                        self._installed.append((home, key, original))
                        setattr(home, key, wrapped)

    def uninstall(self) -> None:
        while self._installed:
            home, key, original = self._installed.pop()
            setattr(home, key, original)

    def snapshot(self) -> dict:
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "observed": {k: list(v) for k, v in self.observed.items()},
                "absent": list(self.absent)}
