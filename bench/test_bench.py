"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import importlib
import json
import sys

import pytest

import harness
import spans

sys.path.insert(0, str(harness.SRC))

TINY = harness.Workload(
    name="tiny",
    calls=(
        harness.Call("cp", ("closest-pair", "--n", "2", "--l", "2",
                            "--flip", "0.3")),
        harness.Call("verify", ("verify", "--n", "2", "--l", "2",
                                "--flip", "0", "--threads", "2")),
        harness.Call("sim", ("simulate", "--truth", "{work}/tail_truth.txt",
                             "--flip", "0.1", "--m-values", "5,9,13",
                             "--trials", "500", "--seed", "{seed}")),
    ),
    warmup=harness.Call("warmup", ("verify", "--n", "2", "--l", "2",
                                   "--flip", "0.3")),
)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    path = tmp_path_factory.mktemp("work")
    harness.write_inputs(path)
    return path


@pytest.fixture(scope="module")
def refs(work):
    return {call.key: harness.record_reference(call, work)
            for call in TINY.calls}


def declared(kind):
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"),
                                         (True, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(refs, work, trace,
                                                        kind):
    run = harness.measure(TINY, refs, seed=1, seconds=0.01, trace=trace,
                          work=work)
    line = harness.result_line(run, trace)
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == 1 + len(run.passes) * len(TINY.calls)
    emitted = {k: v["unit"] for k, v in line["metrics"].items()}
    assert emitted == declared(kind)
    assert all(isinstance(v["value"], (int, float))
               for v in line["metrics"].values())


def test_traced_run_restores_the_wrapped_functions(refs, work):
    originals = {(mod, attr): getattr(importlib.import_module(mod), attr)
                 for mod, attr, _, _ in spans.WRAPPED}
    run = harness.measure(TINY, refs, seed=2, seconds=0.01, trace=True,
                          work=work)
    assert any(p.traced for p in run.passes)
    assert run.spans and run.spans[0]
    for (mod, attr), func in originals.items():
        assert getattr(importlib.import_module(mod), attr) is func


def test_output_check_rejects_a_perturbed_reference(refs, work):
    outputs = {}
    for call in TINY.calls:
        code, _, out, _ = harness.run_call(call.resolve(work, 3))
        assert code == 0
        outputs[call.key] = out
        assert harness.check_report(out, refs[call.key]) == []

    perturbations = [
        ("cp", lambda r: r["close"].update(
            min_ci_nats=r["close"]["min_ci_nats"] * (1 + 1e-9))),
        ("cp", lambda r: r["exact"]["pair_a"].reverse()),
        ("verify", lambda r: r["exact"].update(status="bound-violation")),
        ("sim", lambda r: r["exact"]["nearest_alternative"].reverse()),
        ("sim", lambda r: r["error_rate"].update(
            {m: rate / 2 for m, rate in r["error_rate"].items()})),
    ]
    for key, perturb in perturbations:
        ref = copy.deepcopy(refs[key])
        perturb(ref)
        assert ref != refs[key]
        assert harness.check_report(outputs[key], ref) != []


def test_a_failing_call_counts_as_failed(refs, work):
    broken = harness.Workload(
        name="broken",
        calls=(harness.Call("cp", ("closest-pair", "--n", "2", "--l", "2",
                                   "--flip", "0.3", "--threads", "0")),),
        warmup=TINY.warmup)
    run = harness.measure(broken, refs, seed=1, seconds=0.01, trace=False,
                          work=work)
    line = harness.result_line(run, False)
    assert not line["correct"]
    assert line["failed"] == len(run.passes)
