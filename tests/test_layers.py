"""Layer boundaries: the batch paths build no clocked object, the clocked
engines are one chain class, only core reaches the kernels, every name the
benchmark wraps exists, and the kernels keep the calling convention the
benchmark counts by."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import rankpipe
from rankpipe import (
    Engine,
    Ensemble9753,
    FilterParams,
    McParams,
    Rect,
    SlidingParams,
    Stage,
    _kernels,
    cli,
    core,
    ensemble9753_cycles,
    mc_stream_cycles,
    params,
    run_filter,
    sliding_cycles,
    stream_cycles,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_batch_paths_build_no_clocked_object(monkeypatch, tmp_path):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a batch path built a clocked Stage")

    monkeypatch.setattr(core.Stage, "__init__", refuse)
    with pytest.raises(AssertionError):
        Engine(FilterParams(data_bits=8, set_size=5, rank=3))
    rng = np.random.default_rng(7)
    stream_cycles(FilterParams(data_bits=8, set_size=5, rank=3),
                  rng.integers(0, 256, size=20))
    mc_stream_cycles(McParams(channels=3, columns=3, rank=5),
                     rng.integers(0, 256, size=(9, 3)))
    sliding_cycles(SlidingParams(3, 3, 5), rng.integers(0, 256, size=(8, 3)))
    ensemble9753_cycles(rng.integers(0, 256, size=(27, 9)))
    image = rng.integers(0, 256, size=(6, 7))
    for engine in ("single", "multichannel", "sliding"):
        run_filter(image, Rect(3, 3), 5, engine=engine)
    values = tmp_path / "values.txt"
    values.write_text(" ".join(map(str, rng.integers(0, 256, size=81))))
    out = str(tmp_path / "trace.csv")
    for args in (["--engine", "single", "--set-size", "9", "--rank", "5"],
                 ["--engine", "multichannel", "--window", "3x3", "--rank", "5"],
                 ["--engine", "sliding", "--window", "3x3", "--rank", "5"],
                 ["--engine", "9753"]):
        assert cli.main(["trace", str(values), "-o", out, *args]) == 0


def test_the_clocked_engines_are_one_chain_class():
    # every record clocks through Engine itself: no subclass adapts its
    # constructor or clock, and the batch entry returns one trace type
    assert all(type(chain) is Engine for chain in Ensemble9753().chains)
    for path in Path(rankpipe.__file__).parent.glob("*.py"):
        if path.stem != "__init__":
            importlib.import_module(f"rankpipe.{path.stem}")
    assert Engine.__subclasses__() == []
    assert "SlidingParams" in rankpipe.__all__
    assert not {"McEngine", "SlidingEnsemble"} & set(rankpipe.__all__)
    assert not hasattr(core, "_chain_trace")
    assert list(inspect.signature(core.stream_cycles).parameters) == [
        "params", "data"]
    # a Stage takes its record as Engine does, and Engine steps its lists
    # of Stages itself
    assert list(inspect.signature(Stage).parameters) == ["params"]
    assert not hasattr(core, "_FinderChain")
    # only core builds the chains, their Stages and their shared data pipe,
    # and every record names its own input shape (``lanes``) instead of
    # being sniffed
    package = Path(rankpipe.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.stem != "core":
            names = set(_names(tree))
            assert not {"_FinderChain", "_DelayRing"} & names, path.name
            stages = [call for call in ast.walk(tree)
                      if isinstance(call, ast.Call)
                      and "Stage" in (getattr(call.func, "id", None),
                                      getattr(call.func, "attr", None))]
            assert stages == [], path.name
        sniffs = [call for call in ast.walk(tree)
                  if isinstance(call, ast.Call)
                  and getattr(call.func, "id", None) == "getattr"
                  and len(call.args) > 1
                  and getattr(call.args[1], "value", None) == "channels"]
        assert sniffs == [], path.name


def test_the_stage_decisions_and_the_kernel_are_written_once():
    # the clocked Stage and the batch kernel share each stage decision,
    # and the chain and sliding kernels are one function
    for name in ("counter_preset", "quarter_width", "priority"):
        assert getattr(core, name) is getattr(params, name), name
        assert getattr(_kernels, name) is getattr(params, name), name
    assert _kernels.sliding_run is _kernels.chain_run


def test_every_chain_record_has_one_batch_entry(monkeypatch):
    # the K-channel names are the chain's own, and a batch run of any chain
    # record, sliding included, frames its stream once in core
    assert rankpipe.mc_stream_cycles is rankpipe.stream_cycles
    assert rankpipe.run_windows is rankpipe.run_stream
    framed = []
    real_framed = core._framed

    def counted(cols, *args):
        framed.append(len(cols))
        return real_framed(cols, *args)

    monkeypatch.setattr(core, "_framed", counted)
    rng = np.random.default_rng(10)
    stream_cycles(FilterParams(data_bits=8, set_size=5, rank=3),
                  rng.integers(0, 256, size=20))
    mc_stream_cycles(McParams(channels=3, columns=3, rank=5),
                     rng.integers(0, 256, size=(9, 3)))
    sliding_cycles(SlidingParams(3, 3, 5), rng.integers(0, 256, size=(8, 3)))
    # the 9753 strip is framed in ensembles, and each of its four gated
    # chains in core: the middle w columns and rows of its three cadences
    ensemble9753_cycles(rng.integers(0, 256, size=(27, 9)))
    assert framed == [20, 9, 8, 27, 21, 15, 9]


def _names(tree):
    """Every name a module's code uses: variables, attributes, imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from node.module.split(".")


def test_only_core_reaches_the_kernels():
    # every batch run goes through core.stream_cycles, the one caller of the
    # kernel; no other module names _kernels
    package = Path(rankpipe.__file__).parent
    runs = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.stem not in ("core", "_kernels"):
            assert "_kernels" not in set(_names(tree)), path.name
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                runs += [(path.stem, fn.name) for call in ast.walk(fn)
                         if isinstance(call, ast.Call) and
                         {"chain_run", "sliding_run"} & set(_names(call.func))]
    assert runs == [("core", "stream_cycles")]


_ENGINE_ENTRIES = {"stream_cycles", "run_stream", "mc_stream_cycles",
                   "run_windows", "sliding_cycles", "sliding_window_results",
                   "ensemble9753_cycles", "ensemble9753_results", "Engine",
                   "Ensemble9753"}


def test_imaging_bands_reach_only_stream_cycles():
    # every filter band is one stream_cycles call, and the record, not the
    # engine name, picks the band builder: run_filter reads the name only
    # to build the record and to report it; imaging's other engine names
    # stay for the benchmark (test_benchmark_hook_names_resolve)
    path = Path(rankpipe.imaging.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = {fn.name: fn for fn in tree.body
                 if isinstance(fn, ast.FunctionDef)}
    calls = sorted((name, callee) for name, fn in functions.items()
                   for call in ast.walk(fn) if isinstance(call, ast.Call)
                   for callee in set(_names(call.func)) & _ENGINE_ENTRIES)
    assert calls == [("_chain_streams", "stream_cycles"),
                     ("_sliding_streams", "stream_cycles")]
    run_filter = functions["run_filter"]
    readers = [call.func.id for call in ast.walk(run_filter)
               if isinstance(call, ast.Call)
               for arg in call.args + [kw.value for kw in call.keywords]
               if isinstance(arg, ast.Name) and arg.id == "engine"]
    reads = [node for node in ast.walk(run_filter)
             if isinstance(node, ast.Name) and node.id == "engine"]
    assert sorted(readers) == ["FilterReport", "engine_params"]
    assert len(reads) == len(readers)


def _assigned(path: Path, name: str):
    """The literal value assigned to ``name`` at the top of ``path``."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == name for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def test_benchmark_hook_names_resolve():
    # the benchmark imports these modules by name and wraps these
    # attributes; a rename should fail here rather than in a benchmark run
    for layer in _assigned(PERFBENCH / "run.py", "LAYERS"):
        module = importlib.import_module(f"rankpipe.{layer}")
        assert getattr(rankpipe, layer) is module
    for module, attr, *_ in _assigned(PERFBENCH / "spans.py", "_SPANS"):
        assert callable(getattr(getattr(rankpipe, module), attr)), (module, attr)
    assert callable(rankpipe.ensembles.Ensemble9753.clock)


def test_9753_runs_keep_the_benchmark_closed_form(monkeypatch):
    # perfbench/workloads.py pins a 9753 call's first quadruple to its own
    # closed form; the package's runs end at their last quadruple
    spec = importlib.util.spec_from_file_location(
        "workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    cols = np.random.default_rng(9).integers(0, 4, size=(80 * 9, 9))
    for bits in range(2, 17, 2):
        trace = ensemble9753_cycles(cols, data_bits=bits)
        assert trace.fire[0] == workloads.first_dv_9753(bits // 2), bits
        assert set(np.diff(trace.fire).tolist()) == {9}, bits
        assert trace.cycles == trace.fire[-1] + 1, bits


def test_kernel_calls_keep_the_benchmark_convention(monkeypatch):
    # perfbench/spans.py counts a kernel call's cycles as the rows of its
    # first positional argument and its comparisons as item [1] of its
    # result, and requires them to equal the simulated ones
    calls = []
    for name in ("chain_run", "sliding_run"):
        def counted(*args, _run=getattr(_kernels, name)):
            result = _run(*args)
            calls.append((len(args[0]), int(result[1])))
            return result

        monkeypatch.setattr(_kernels, name, counted)

    def kernel_calls(trace):
        made = list(calls)
        calls.clear()
        assert sum(count for _, count in made) == trace.comparisons
        return [rows for rows, _ in made]

    rng = np.random.default_rng(8)
    for run in (
            lambda: stream_cycles(FilterParams(data_bits=8, set_size=5,
                                               rank=3),
                                  rng.integers(0, 256, size=20)),
            lambda: mc_stream_cycles(McParams(channels=3, columns=3, rank=5),
                                     rng.integers(0, 256, size=(9, 3))),
            lambda: sliding_cycles(SlidingParams(3, 3, 5),
                                   rng.integers(0, 256, size=(8, 3)))):
        trace = run()
        assert kernel_calls(trace) == [trace.cycles]
    # each gated 9753 chain runs in its own time: its own record's run
    # over the strip's three cadences
    trace = ensemble9753_cycles(rng.integers(0, 256, size=(27, 9)))
    gated = [McParams(w, w, m).cycles(3)
             for w, m in zip((9, 7, 5, 3), (41, 25, 13, 5))]
    assert kernel_calls(trace) == gated
    report = run_filter(rng.integers(0, 256, size=(6, 7)), Rect(3, 3), 5)
    assert sum(kernel_calls(report)) == report.cycles


@pytest.mark.parametrize("engine", ["single", "multichannel"])
def test_a_filter_call_is_one_stream_and_one_kernel_run(monkeypatch, engine):
    # perfbench/workloads.contract_violations pins a threads-1 filter call
    # to one engine stream and one kernel run of report.cycles rows, whose
    # comparisons are the report's
    streams, kernels = [], []
    real_stream = rankpipe.imaging.stream_cycles
    real_kernel = _kernels.chain_run

    def stream(*args, **kwargs):
        streams.append(real_stream(*args, **kwargs))
        return streams[-1]

    def kernel(*args):
        result = real_kernel(*args)
        kernels.append((len(args[0]), int(result[1])))
        return result

    monkeypatch.setattr(rankpipe.imaging, "stream_cycles", stream)
    monkeypatch.setattr(_kernels, "chain_run", kernel)
    image = np.random.default_rng(9).integers(0, 256, size=(32, 48))
    report = run_filter(image, Rect(5, 5), 13, engine=engine)
    assert [trace.cycles for trace in streams] == [report.cycles]
    assert [trace.comparisons for trace in streams] == [report.comparisons]
    assert kernels == [(report.cycles, report.comparisons)]
    p = rankpipe.imaging.engine_params(Rect(5, 5), 25, 13, engine, 8)
    assert report.cycles == 48 * 32 * p.set_cycles + p.drain_cycles
