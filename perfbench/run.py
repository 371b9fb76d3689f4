"""rankpipe benchmark: drives ``rankpipe filter``, ``rankpipe rank`` and
``rankpipe trace`` in-process through ``rankpipe.cli.main(argv)`` on inputs
generated from ``--seed``, checks every output against the sort oracle, and
prints one JSON object as the last line of stdout.

    python3 perfbench/run.py --workload image_filter --seed 1 --seconds 25 --trace 0

``--trace 0`` times calls with nothing wrapped and reports the end-to-end
metrics; ``--trace 1`` alternates wrapped and unwrapped calls and reports
the per-layer metrics and the tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hostspeed import HostSpeed, LaunchSpeed, timed_launch
from spans import Tracer
from workloads import WORKLOADS, Mismatch, Outcome, contract_violations

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
LAYERS = ("cli", "pgm", "imaging", "core", "multichannel", "ensembles",
          "_kernels", "oracle", "_accel")
SETUP_LAUNCHES = 9
TAIL_BEYOND = 10  # calls that must lie beyond the reported tail percentile

PER_LAYER = (
    ("kernels.chain_run_s", "s"), ("kernels.sliding_run_s", "s"),
    ("kernels.ns_per_cycle", "ns"), ("kernels.sim_cycles", "cycles"),
    ("kernels.calls", "count"), ("kernels.comparisons", "count"),
    ("kernels.idle_cycle_frac", "fraction"),
    ("imaging.run_filter_s", "s"), ("imaging.self_s", "s"),
    ("core.stream_cycles_s", "s"), ("core.self_s", "s"),
    ("multichannel.mc_stream_cycles_s", "s"), ("multichannel.self_s", "s"),
    ("ensembles.sliding_cycles_s", "s"), ("ensembles.self_s", "s"),
    ("ensembles.e9753_clock_s", "s"), ("ensembles.e9753_clocks", "count"),
    ("cli.read_values_s", "s"), ("cli.trace_rows_s", "s"),
    ("cli.write_trace_s", "s"), ("cli.self_s", "s"),
    ("pgm.read_s", "s"), ("pgm.write_s", "s"),
    ("oracle.check_s", "s"), ("trace.overhead_frac", "fraction"),
)


def load_rankpipe():
    """Import the package from the checkout's ``src``; None if it is absent."""
    if not (SRC / "rankpipe" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    rp = importlib.import_module("rankpipe")
    for layer in LAYERS:  # binds each module as an attribute of the package
        importlib.import_module(f"rankpipe.{layer}")
    return rp


def backend(rp) -> str:
    if rp._accel.NUMBA_ENABLED:
        return "numba"
    flag = os.environ.get("RANKPIPE_NO_NUMBA", "").strip().lower()
    if flag not in ("", "0", "false", "no"):
        return "interpreted (RANKPIPE_NO_NUMBA set)"
    if importlib.util.find_spec("numba") is None:
        return "interpreted (numba not installed)"
    return "interpreted"


@dataclass
class Timed:
    """One CLI call: host seconds, the host-speed factor around it, what
    the check found, and the tracer's totals when it was traced."""

    host_s: float
    factor: float
    outcome: Outcome | None
    seconds: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    @property
    def ref_s(self) -> float:
        return self.host_s * self.factor


class Runner:
    """Runs one workload's calls, checks them, and keeps the tallies."""

    def __init__(self, rp):
        self.rp = rp
        self.workload = None
        self.tracer = Tracer(rp)
        self.speed = HostSpeed()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.oracle_s = 0.0
        self.checks = 0

    def call(self, call, traced: bool = False) -> Timed:
        """One CLI call, checked against the oracle outside its timing."""
        self.attempted += 1
        out = io.StringIO()
        code, error = None, None
        if traced:
            self.tracer.reset()
            self.tracer.install()
        try:
            with contextlib.redirect_stdout(out):
                start = time.perf_counter()
                try:
                    if traced:
                        code = self.tracer.run(self.rp.cli.main, call.argv,
                                               own="cli.self")
                    else:
                        code = self.rp.cli.main(call.argv)
                except (Exception, SystemExit) as exc:  # a failed call
                    error = f"raised {exc!r}"
                host_s = time.perf_counter() - start
        finally:
            self.tracer.uninstall()
        factor = self.speed.scale()
        seconds = dict(self.tracer.seconds) if traced else {}
        counts = dict(self.tracer.counts) if traced else {}
        if error is None and code != 0:
            error = f"exit code {code}"
        outcome = None
        if error is None:
            start = time.perf_counter()
            try:
                outcome = call.check(out.getvalue())
            except Mismatch as exc:
                error = str(exc)
            except (OSError, ValueError, LookupError) as exc:
                error = f"unreadable output: {exc!r}"  # missing or malformed
            self.oracle_s += time.perf_counter() - start
            self.checks += 1
        if error is not None:
            self._fail(f"{call.argv[0]} {call.engine}: {error}")
        return Timed(host_s, factor, outcome, seconds, counts)

    def _fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(why)

    def oracle(self, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.oracle_s += time.perf_counter() - start

    def rounds(self, seconds: float):
        """Pool indices in balanced rounds until ``seconds`` have passed."""
        pool = len(self.workload.pool)
        size = self.workload.round_size
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            yield [(i + k) % pool for k in range(size)]
            i += size
            if time.perf_counter() >= deadline:
                return

    def account(self):
        """One traced call per pool entry: the run's cycle and comparison
        accounting, and the warm-up of every path the timed calls take."""
        records = []
        violations = []
        for call in self.workload.pool:
            timed = self.call(call, traced=True)
            records.append(timed)
            if timed.outcome is not None:
                violations += contract_violations(
                    call, timed.counts, timed.outcome, self.comparison_count)
        return records, violations

    def comparison_count(self, bits, n, sets):
        params = self.rp.FilterParams(data_bits=bits, set_size=n, rank=1)
        return self.rp.comparison_count(params, sets)

    def setup_seconds(self, workdir: Path) -> tuple[float, float]:
        """Median time, in reference and host seconds, of a fresh process
        importing rankpipe and making the workload's smallest call."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        code = ("import sys; from rankpipe.cli import main; "
                "sys.exit(main(sys.argv[1:]))")
        speed = LaunchSpeed()
        ref, host = [], []
        for _ in range(SETUP_LAUNCHES):
            self.attempted += 1
            seconds, proc = timed_launch(
                [sys.executable, "-c", code, *self.workload.setup_argv],
                cwd=workdir, env=env)
            host.append(seconds)
            ref.append(seconds * speed.scale())
            if proc.returncode != 0:
                self._fail("setup call: " + proc.stderr.decode(
                    errors="replace").strip()[-200:])
        return statistics.median(ref), statistics.median(host)


def tail(durations):
    """The highest percentile with at least TAIL_BEYOND calls above it."""
    ordered = sorted(durations)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end(runner, records, seconds, workdir):
    wl = runner.workload
    setup_s, setup_host_s = runner.setup_seconds(workdir)
    timed, results, cycles = [], 0, 0
    for indices in runner.rounds(seconds):
        for i in indices:
            timed.append(runner.call(wl.pool[i]))
            if timed[-1].outcome is not None:
                results += timed[-1].outcome.results
                cycles += records[i].counts.get("engine.cycles", 0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref = [t.ref_s for t in timed]
    host = [t.host_s for t in timed]
    acct_results = sum(t.outcome.results for t in records
                       if t.outcome is not None)
    acct_cycles = sum(t.counts.get("engine.cycles", 0) for t in records)
    acct_comparisons = sum(t.counts.get("engine.comparisons", 0)
                           for t in records)
    tail_s, tail_pct = tail(ref)
    metrics = {
        "results_per_s": (results / sum(ref), "1/s"),
        "call_p50_s": (statistics.median(ref), "s"),
        "call_tail_s": (tail_s, "s"),
        "sim_cycles_per_s": (cycles / sum(ref), "1/s"),
        "sim_cycles_per_result": (acct_cycles / max(acct_results, 1),
                                  "cycles"),
        "comparisons_per_result": (acct_comparisons / max(acct_results, 1),
                                   "count"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {
        "timed_calls": len(timed), "tail_percentile": tail_pct,
        "results_per_call": results / max(len(timed), 1),
        "host_seconds": {"results_per_s": results / sum(host),
                         "call_p50_s": statistics.median(host),
                         "call_tail_s": tail(host)[0],
                         "setup_s": setup_host_s},
        "host_speed_factor_p50": statistics.median(runner.speed.factors),
    }
    return metrics, extra


def per_layer(runner, seconds):
    """Alternate traced and untraced calls on the same inputs; per-layer
    values are means per traced call, times in reference seconds."""
    wl = runner.workload
    traced_s = untraced_s = 0.0
    layer_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    traced_calls = 0
    for r, indices in enumerate(runner.rounds(seconds)):
        for i in indices:
            for traced in ((False, True) if r % 2 else (True, False)):
                timed = runner.call(wl.pool[i], traced)
                if not traced:
                    untraced_s += timed.ref_s
                    continue
                traced_s += timed.ref_s
                traced_calls += 1
                for key, value in timed.seconds.items():
                    layer_s[key] = layer_s.get(key, 0.0) + value * timed.factor
                for key, value in timed.counts.items():
                    counts[key] = counts.get(key, 0) + value
    n = max(traced_calls, 1)
    layer_s = {key: value / n for key, value in layer_s.items()}
    counts = {key: value / n for key, value in counts.items()}
    kernel_s = (layer_s.get("kernels.chain_run", 0.0)
                + layer_s.get("kernels.sliding_run", 0.0))
    kernel_cycles = counts.get("kernels.cycles", 0.0)
    engine_cycles = counts.get("engine.cycles", 0.0)
    derived = {
        "kernels.ns_per_cycle":
            1e9 * kernel_s / kernel_cycles if kernel_cycles else 0.0,
        "kernels.sim_cycles": kernel_cycles,
        "kernels.idle_cycle_frac":
            1.0 - counts.get("engine.input_cycles", 0.0) / engine_cycles
            if engine_cycles else 0.0,
        "oracle.check_s": runner.oracle_s / max(runner.checks, 1)
        * statistics.median(runner.speed.factors),
        "trace.overhead_frac":
            traced_s / untraced_s - 1.0 if untraced_s else 0.0,
    }
    metrics = {}
    for name, unit in PER_LAYER:
        if name in derived:
            value = derived[name]
        elif unit == "s":
            value = layer_s.get(name[:-len("_s")], 0.0)
        else:
            value = counts.get(name, 0.0)
        metrics[name] = (value, unit)
    return metrics, {"traced_calls": traced_calls}


def scipy_reference(workload):
    """scipy.ndimage.rank_filter on the image_filter frames: px/s and
    whether it matches the oracle bit for bit.  A reference, not a metric."""
    try:
        from scipy import ndimage
    except ImportError:
        return {"scipy": "not installed"}
    ref = workload.reference
    size = (ref["window"], ref["window"])
    rank = ref["window"] ** 2 - ref["rank"]  # scipy ranks ascending from 0
    identical = all(np.array_equal(ndimage.rank_filter(
        frame, rank=rank, size=size, mode="nearest"), want)
        for frame, want in ref["frames"])
    pixels, busy = 0, 0.0
    while busy < 0.2:
        for frame, _ in ref["frames"]:
            start = time.perf_counter()
            ndimage.rank_filter(frame, rank=rank, size=size, mode="nearest")
            busy += time.perf_counter() - start
            pixels += frame.size
    return {"scipy_rank_filter_px_per_s": pixels / busy,
            "scipy_bit_identical": identical}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rp = load_rankpipe()
    if rp is None:
        print(f"error: no rankpipe package under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        # distinct streams per workload from the one seed
        rng = np.random.default_rng(
            [args.seed, sorted(WORKLOADS).index(args.workload)])
        runner = Runner(rp)
        runner.workload = WORKLOADS[args.workload](rng, workdir, rp,
                                                   runner.oracle)
        records, violations = runner.account()
        if args.trace:
            metrics, extra = per_layer(runner, args.seconds)
        else:
            metrics, extra = end_to_end(runner, records, args.seconds,
                                        workdir)
            if args.workload == "image_filter":
                extra.update(scipy_reference(runner.workload))
        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "inputs": runner.workload.describe, "backend": backend(rp),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "error_frac": runner.failed / max(runner.attempted, 1),
            "contract_violations": violations, "failures": runner.failures,
            **extra,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(record))
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>16.6g} {unit}")
    print(f"{'error_frac':<34} {record['error_frac']:>16.6g} fraction")
    print(json.dumps({
        "correct": runner.failed == 0 and not violations,
        "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
