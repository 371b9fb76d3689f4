"""Span wrappers installed around rankpipe's layer boundaries.

The wrappers live here, in the benchmark, and are set as module attributes
of the imported package for the duration of a traced call; the package's
own code is never edited.  Each wrapper times one call of a module-level
function, charges its duration to the enclosing span as child time, and
folds the result into per-call totals:

* an *inclusive* metric gets the span's whole duration;
* a *self* metric gets the duration minus the time of the spans (and
  aggregated counters) that ran inside it.

The 9753 engine's per-column ``Ensemble9753.clock`` is the only per-clock
boundary wrapped; it feeds an aggregated counter, never a span, so the
tracer costs one wrapper call per column there and nothing per clock
elsewhere.

Engine entry points (``stream_cycles``, ``mc_stream_cycles``,
``sliding_cycles``, the CLI's ``_trace_9753``) additionally count simulated
cycles, the cycles that carried input, and boundary comparisons.  The
kernels count their calls, cycles and comparisons.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module, attribute, inclusive metric, self metric, counting hook)
# The CLI resolves its own imported names, the imaging filters resolve the
# engines through their own module globals, and the engines resolve the
# kernels through ``_kernels``: each caller's name is wrapped where it looks.
_SPANS = (
    ("cli", "_read_values", None, "cli.read_values", None),
    ("cli", "_trace_stream", None, "cli.trace_rows", None),
    ("cli", "_trace_9753", None, "cli.trace_rows", "e9753"),
    ("cli", "_write_trace", None, "cli.write_trace", None),
    ("cli", "run_stream", None, "core.self", None),
    ("cli", "stream_cycles", "core.stream_cycles", "core.self", "stream"),
    ("cli", "mc_stream_cycles", "multichannel.mc_stream_cycles",
     "multichannel.self", "stream"),
    ("cli", "sliding_cycles", "ensembles.sliding_cycles", "ensembles.self",
     "stream"),
    ("core", "stream_cycles", "core.stream_cycles", "core.self", "stream"),
    ("imaging", "run_filter", "imaging.run_filter", "imaging.self", None),
    ("imaging", "stream_cycles", "core.stream_cycles", "core.self", "stream"),
    ("imaging", "mc_stream_cycles", "multichannel.mc_stream_cycles",
     "multichannel.self", "stream"),
    ("imaging", "sliding_cycles", "ensembles.sliding_cycles",
     "ensembles.self", "stream"),
    ("pgm", "read_pgm", "pgm.read", None, None),
    ("pgm", "write_pgm", "pgm.write", None, None),
    ("_kernels", "chain_run", "kernels.chain_run", None, "kernel"),
    ("_kernels", "sliding_run", "kernels.sliding_run", None, "kernel"),
)


def _nrows(data) -> int:
    shape = getattr(data, "shape", None)
    return int(shape[0]) if shape else len(data)


def _ensemble_comparisons(ens) -> int:
    """Boundary comparisons made so far by an object-based 9753 ensemble."""
    return sum(chain._chain.comparisons for chain in ens.chains)


class Tracer:
    """Per-call span and counter totals for one traced CLI call at a time."""

    def __init__(self, package):
        self._package = package
        self._saved = []
        self._stack: list[list[float]] = []
        self._ensembles = []
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self._ensembles = []

    # -- span bookkeeping -------------------------------------------------

    def _close(self, elapsed: float, child: float, inclusive, own) -> None:
        if self._stack:
            self._stack[-1][0] += elapsed
        if inclusive:
            self.seconds[inclusive] += elapsed
        if own:
            self.seconds[own] += elapsed - child

    def run(self, fn, *args, inclusive=None, own=None, **kwargs):
        """Call ``fn`` as one span."""
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self._close(elapsed, frame[0], inclusive, own)

    # -- counting hooks ----------------------------------------------------

    def _count_stream(self, args, result) -> None:
        # every engine entry takes the sample or column stream as its last
        # positional argument and returns a trace whose ``din`` holds one
        # row per simulated cycle, drain included
        self.counts["engine.cycles"] += len(result.din)
        self.counts["engine.input_cycles"] += _nrows(args[-1])
        self.counts["engine.comparisons"] += int(result.comparisons)

    def _count_kernel(self, args, result) -> None:
        self.counts["kernels.calls"] += 1
        self.counts["kernels.cycles"] += _nrows(args[0])
        self.counts["kernels.comparisons"] += int(result[1])

    def _count_e9753(self, args, result) -> None:
        _, rows = result
        self.counts["engine.cycles"] += len(rows)
        self.counts["engine.input_cycles"] += _nrows(args[0])
        self.counts["engine.comparisons"] += sum(
            _ensemble_comparisons(ens) for ens in self._ensembles)
        self._ensembles = []

    def _wrap(self, fn, inclusive, own, hook):
        count = {"stream": self._count_stream, "kernel": self._count_kernel,
                 "e9753": self._count_e9753, None: None}[hook]

        def wrapper(*args, **kwargs):
            result = self.run(fn, *args, inclusive=inclusive, own=own,
                              **kwargs)
            if count is not None:
                count(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_clock(self, clock):
        def counted_clock(ens, *args, **kwargs):
            start = time.perf_counter()
            try:
                return clock(ens, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.seconds["ensembles.e9753_clock"] += elapsed
                self.seconds["ensembles.self"] += elapsed
                self.counts["ensembles.e9753_clocks"] += 1
                if all(seen is not ens for seen in self._ensembles):
                    self._ensembles.append(ens)

        return counted_clock

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace the boundary attributes with wrappers (idempotent)."""
        if self._saved:
            return
        pkg = self._package
        for module_name, attr, inclusive, own, hook in _SPANS:
            module = getattr(pkg, module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, inclusive, own, hook))
        ens_cls = pkg.ensembles.Ensemble9753
        self._saved.append((ens_cls, "clock", ens_cls.clock))
        ens_cls.clock = self._wrap_clock(ens_cls.clock)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
