"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
from dataclasses import replace

import numpy as np
import pytest

import run

run._import_fastproj()

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "wy-4096-m2": replace(WORKLOADS["wy-4096-m2"], n=48, pool=2),
    "wy-512-m3-practical": replace(WORKLOADS["wy-512-m3-practical"], n=32, pool=2),
    "dense-json-512-m1": replace(WORKLOADS["dense-json-512-m1"], n=16, pool=2),
    "norm-100k": replace(WORKLOADS["norm-100k"], n=200, pool=3),
}


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_benchmark_json_names_every_workload_but_the_known_failing():
    gated = [name for name in WORKLOADS if name not in workloads.KNOWN_FAILING]
    assert [w["name"] for w in SPEC["workloads"]] == gated


def _expected_units(name, section):
    units = _units(section)
    if section == "per_layer" and name.startswith("norm"):
        units.update(run.NORM_LAYER_METRICS)
    return units


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_emits_every_metric_with_its_unit(name, trace):
    section = "per_layer" if trace else "end_to_end"
    metric_sets = []
    for seed in (1, 2):
        result, details = run.run(name, seed, 0.05, trace, workloads=TINY)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == _expected_units(name, section)
        assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
        assert details["machine"]["seed"] == seed
        metric_sets.append(set(got))
    assert metric_sets[0] == metric_sets[1]


@pytest.mark.parametrize("name", list(TINY))
def test_seed_changes_the_inputs(name):
    w = TINY[name]
    a, b = w.build(1, 0), w.build(2, 0)
    x_a = a.problem if name.startswith("norm") else a.problem.x0
    x_b = b.problem if name.startswith("norm") else b.problem.x0
    assert not np.array_equal(x_a, x_b)
    x_again = w.build(1, 0)
    assert np.array_equal(x_a, x_again.problem if name.startswith("norm") else x_again.problem.x0)


def test_spans_nest_and_self_times_cover_the_op():
    w = TINY["wy-512-m3-practical"]
    tr = tracer_mod.Tracer()
    inst = w.traced(w.build(3, 0), tr)
    ledger = run.Ledger()
    seconds, result = run.timed_op(w, inst, ledger, 0, tr)
    assert result is not None and not ledger.failed_ops
    sp = tr.spans()
    assert sp.dur.size > 10
    child = sp.parent >= 0
    parents = sp.parent[child]
    assert np.all(sp.start[child] >= sp.start[parents])
    assert np.all(sp.end[child] <= sp.end[parents])
    assert np.all(sp.op == 0)
    roots = ~child
    assert roots.sum() == 1 and sp.names[sp.name_id[roots][0]] == w.root
    assert abs(sp.self_time.sum() - seconds) <= 0.05 * seconds


def test_missing_hook_target_is_marked_untraced(monkeypatch):
    gone = ("cutting_plane.merged", "fastproj.cutting_plane", "no_such_engine", None)
    hooks = tracer_mod.HOOKS + (gone,)
    monkeypatch.setattr(tracer_mod, "HOOKS", hooks)
    result, details = run.run("wy-512-m3-practical", 1, 0.05, True, workloads=TINY)
    assert any("no_such_engine" in note for note in details["untraced"])
    assert set(result["metrics"]) == set(_units("per_layer"))


def test_untraced_run_refuses_installed_hooks():
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        with pytest.raises(RuntimeError, match="hooks installed"):
            run.run("norm-100k", 1, 0.05, False, workloads=TINY)
    finally:
        tr.uninstall()
    assert tracer_mod.leaked_hooks() == []


def test_norm_check_flags_a_wrong_answer():
    w = TINY["norm-100k"]
    inst = w.build(1, 0)
    x, calls = w.op(inst)
    assert w.check(inst, (x + 1e-3, calls)) is not None


def test_both_active_filter_matches_the_solved_multipliers():
    w = WORKLOADS["wy-4096-m2"]
    seen = set()
    for k in range(8):
        inst = workloads.build_wy(np.random.default_rng(k), 48, 2)
        spectra, reflectors, centers, levels = inst.extra["factors"]
        for i, h in enumerate(inst.problem.constraints):
            p = workloads.project_onto_one(
                inst.problem.x0, spectra[i], reflectors[i], centers[i], levels[i]
            )
            if float(h.eval(inst.problem.x0)) > 0.0:
                assert abs(float(h.eval(p))) < 1e-9
        both = workloads.has_both_active(inst)
        lam = w.op(inst).lambda_bar
        assert both == bool(np.all(lam > 1e-3)), (k, lam)
        seen.add(both)
    assert seen == {True, False}
