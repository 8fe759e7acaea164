"""In-memory spans and counters around trisys layer functions.

`Tracer.install` replaces each listed function in every `trisys` module that
binds it (the defining module and each module that imported it by name), so
calls through any of those names are seen.  `uninstall` restores them.
Nothing inside `src/` changes.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# module, function: one span per call
SPANS = (
    ("cli", "run_command"),
    ("fileformat", "parse_system"),
    ("system", "check_identities"),
    ("jideal", "compute_jideal"),
    ("jideal", "split_system"),
    ("jideal", "split_basis"),
    ("jideal", "ideal_closure"),
    ("jideal", "check_annihilation"),
    ("connect", "partition"),
    ("decompose", "check_decomposition"),
    ("decompose", "mu_multiplicativity_check"),
    ("decompose", "is_minimal"),
    ("decompose", "enumerate_inherited_ideals"),
)
# module, function: counted only, too frequent for a span each
COUNTED = (
    ("connect", "mu"),
    ("exactnum", "span_insert"),
)
# counts kept by the result hooks below and by the op runner
COUNTS = ("system.identity_tuples", "system.violations", "jideal.closure_rounds", "cli.output_bytes")


class TracerError(RuntimeError):
    """A listed function is missing or bound by no trisys module."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.op_id = -1
        self._stack: list[int] = []  # open span ids
        self._child: list[float] = []  # time covered by children of each open span
        self._patched: list[tuple[object, str, object]] = []

    # --- installation ---------------------------------------------------------

    def install(self, package: str = "trisys") -> None:
        modules = [m for name, m in sorted(sys.modules.items()) if name == package or name.startswith(package + ".")]
        for listed, make in ((SPANS, self._span), (COUNTED, self._counted)):
            for mod_name, fn_name in listed:
                name = f"{mod_name}.{fn_name}"
                home = sys.modules.get(f"{package}.{mod_name}")
                original = getattr(home, fn_name, None)
                if not callable(original):
                    raise TracerError(f"{package}.{name} no longer exists")
                binders = [m for m in modules if getattr(m, fn_name, None) is original]
                if not binders:
                    raise TracerError(f"{package}.{name} is bound in no {package} module")
                wrapper = make(name, original)
                for m in binders:
                    self._patched.append((m, fn_name, original))
                    setattr(m, fn_name, wrapper)

    def uninstall(self) -> None:
        for m, fn_name, original in reversed(self._patched):
            setattr(m, fn_name, original)
        self._patched.clear()

    # --- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        clock = time.perf_counter
        on_result = _RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append((name, 0.0, 0.0, parent, self.op_id))
            self._stack.append(sid)
            self._child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                covered = self._child.pop()
                if self._child:
                    self._child[-1] += end - start
                self.spans[sid] = (name, start, end, parent, self.op_id)
                self.calls[name] += 1
                self.self_s[name] += end - start - covered
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result

        return traced

    def _counted(self, name: str, fn):
        if name == "exactnum.span_insert":

            @functools.wraps(fn)
            def counted(space, v):
                result = fn(space, v)
                self.calls[name] += 1
                if result.rank > space.rank:
                    self.counts["exactnum.span_insert.useful"] += 1
                return result

        else:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.calls[name] += 1
                return fn(*args, **kwargs)

        return counted

    # --- results --------------------------------------------------------------

    def unreached(self) -> list[str]:
        return [f"{m}.{f}" for m, f in SPANS + COUNTED if not self.calls[f"{m}.{f}"]]

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for m, f in SPANS:
            name = f"{m}.{f}"
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for m, f in COUNTED:
            out[f"{m}.{f}.calls"] = (self.calls[f"{m}.{f}"], "count")
        inserts = self.calls["exactnum.span_insert"]
        useful = self.counts["exactnum.span_insert.useful"]
        out["exactnum.span_insert.useful_ratio"] = (useful / inserts if inserts else 0.0, "ratio")
        for name in COUNTS:
            out[name] = (self.counts[name], "bytes" if name == "cli.output_bytes" else "count")
        return out


def _identity_counts(counts, args, kwargs, report) -> None:
    T = args[0]
    per_tuple = {"four": 4, "two": 2, "both": 6}[report.checked]
    counts["system.identity_tuples"] += T.dim**5 * per_tuple
    counts["system.violations"] += len(report.violations)


def _closure_counts(counts, args, kwargs, witness) -> None:
    counts["jideal.closure_rounds"] += witness.closure_rounds


_RESULT_COUNTERS = {
    "system.check_identities": _identity_counts,
    "jideal.ideal_closure": _closure_counts,
}
