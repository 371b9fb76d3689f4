"""Tests of the benchmark itself: span accounting, the closed forms it pins,
its output checks, and its refusal to run without the program.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

rp = run.load_rankpipe()


def test_self_time_excludes_child_spans():
    tracer = Tracer(rp)

    def inner():
        time.sleep(0.02)

    def outer():
        tracer.run(inner, inclusive="inner")
        time.sleep(0.01)

    tracer.run(outer, inclusive="outer", own="outer.self")
    s = tracer.seconds
    assert s["outer"] >= s["inner"] + s["outer.self"] - 1e-9
    assert s["outer.self"] == pytest.approx(s["outer"] - s["inner"])
    assert 0.005 < s["outer.self"] < s["inner"]


def test_install_restores_every_attribute():
    before = (rp.cli._read_values, rp.core.stream_cycles,
              rp._kernels.chain_run, rp.ensembles.Ensemble9753.clock)
    tracer = Tracer(rp)
    tracer.install()
    assert rp._kernels.chain_run.__wrapped__ is before[2]
    tracer.uninstall()
    after = (rp.cli._read_values, rp.core.stream_cycles,
             rp._kernels.chain_run, rp.ensembles.Ensemble9753.clock)
    assert after == before


def test_closed_forms_match_the_engines_parameters():
    for bits, n in ((8, 25), (16, 25), (8, 9)):
        p = rp.FilterParams(data_bits=bits, set_size=n, rank=1)
        assert workloads.drain(p.stages, n) == p.drain_cycles
        assert workloads.alignment(p.stages, n) == p.alignment
    # measured on the object 9753 ensemble: the 3-wide chain matures last
    assert workloads.first_dv_9753(4) == 94


def test_tail_leaves_ten_calls_beyond():
    values = list(range(100))
    value, pct = run.tail(values)
    assert value == 89 and pct == 90.0
    assert sum(v > value for v in values) == 10
    assert run.tail([3.0, 1.0])[0] == 3.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_passes_its_checks_and_contract(name, tmp_path):
    runner = run.Runner(rp)
    runner.workload = workloads.WORKLOADS[name](
        np.random.default_rng(7), tmp_path, rp, runner.oracle)
    records, violations = runner.account()
    assert violations == []
    assert runner.failed == 0, runner.failures
    assert all(t.outcome.results > 0 for t in records)


def test_a_wrong_result_is_counted_as_a_failure(tmp_path):
    runner = run.Runner(rp)
    wl = workloads.stream_rank(np.random.default_rng(3), tmp_path, rp,
                               runner.oracle)
    call = wl.pool[0]
    with pytest.raises(workloads.Mismatch):
        call.check("0\n" * workloads.RANK_SETS)
    good = wl.pool[0].check
    call.check = lambda stdout: good(stdout.replace("\n", "\n1\n", 1))
    timed = runner.call(call)
    assert timed.outcome is None and runner.failed == 1


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_last_line_reports_every_declared_metric(trace, section, capsys):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    code = run.main(["--workload", "stream_rank", "--seed", "1",
                     "--seconds", "0.1", "--trace", str(trace)])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {name: m["unit"] for name, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[section]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        cmd + ["--workload", "stream_rank", "--seed", "1", "--seconds", "1",
               "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
