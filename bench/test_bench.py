"""Self-tests of the benchmark: every workload at a minimal size.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import values  # noqa: E402
from nestfold import analyze, parse_program  # noqa: E402
from nestfold.analysis import context_to_index  # noqa: E402
from nestfold.parser import parse_type_context  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

#: The smallest suites with frozen references (the oneshot workload's).
SMALL = {"list": 4, "bush": 6, "bobdylan": 3}


def small(w: harness.Workload) -> harness.Workload:
    return dataclasses.replace(
        w,
        suites=tuple((s, SMALL[s]) for s, _ in w.suites),
        values=tuple(dataclasses.replace(v, nodes=40, total=80) for v in w.values),
    )


def test_benchmark_json_names_the_workloads_and_layers():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == harness.WORKLOADS[w["name"]].why
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert layers == harness.per_layer_metrics()


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_minimal_run_emits_every_metric_with_its_unit(name, trace, tmp_path, capsys):
    result = harness.run(small(harness.WORKLOADS[name]), 1, 0, trace, work=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    out = capsys.readouterr().out
    assert "fail_ratio" in out
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        for metric, m in result["metrics"].items():
            assert f"{metric} " in out and f" {m['unit']}" in out


def test_corrupted_reference_raises_fail_ratio(tmp_path, capsys):
    refdir = tmp_path / "reference"
    shutil.copytree(harness.REFERENCE, refdir)
    ref = harness.suite_reference(refdir, "bush", SMALL["bush"])
    ref.write_text(ref.read_text().replace("41 cases", "42 cases"))
    w = small(harness.WORKLOADS["suite-bush"])
    result = harness.run(w, 1, 0, False, refdir=refdir, work=tmp_path / "out")
    assert not result["correct"]
    assert result["failed"] == 1
    assert f"(1 of {result['attempted']} operations)" in capsys.readouterr().out


def test_generated_values_stay_shallow_and_near_their_size():
    for w in harness.WORKLOADS.values():
        for spec in w.values:
            program = parse_program((harness.SAMPLES / f"{spec.sample}.ndt").read_text())
            tctx = parse_type_context(spec.target, program)
            (ctx,) = [c for c in analyze(program) if tctx.head in c.group.decls]
            idx, _ = context_to_index(tctx, ctx)
            for seed in range(20):
                tree = values.generate(ctx, idx, spec.nodes, harness.GROW_DEPTH, random.Random(seed))
                assert values.fold_depth(tree) <= harness.GROW_DEPTH + 10
                assert 0.5 * spec.nodes <= values.count_nodes(tree) <= 1.1 * spec.nodes
