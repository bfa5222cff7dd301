"""Smoke tests of the benchmark: every workload at its tiny size for 2 steps."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

from checks import check_state, fingerprint_error, load_references, state_fingerprint  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
import run  # noqa: E402
from run import CANARY_STEPS, measure  # noqa: E402
from workloads import WORKLOADS, build, solve  # noqa: E402

from triblend.cli import _make_stepper  # noqa: E402
from triblend.config import RunConfig  # noqa: E402
from triblend.problems import get_problem  # noqa: E402

NAMES = sorted(WORKLOADS)


@pytest.fixture(autouse=True)
def quick_setup(monkeypatch):
    """Tiny set-ups take milliseconds; five of them are enough here."""
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)


def tiny(name):
    wl = WORKLOADS[name]
    return dataclasses.replace(wl, n=wl.tiny_n, steps=CANARY_STEPS)


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert {w["name"] for w in doc["workloads"]} <= set(WORKLOADS)
    for key, defined in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in doc[key]]
        assert listed == list(defined)
    assert {m["name"] for m in doc["end_to_end"]} >= {"setup_s"}


@pytest.mark.parametrize("name", NAMES)
def test_default_seed_gives_the_catalog_mesh(name):
    wl = WORKLOADS[name]
    ours = wl.mesh(wl.tiny_n, wl.jitter_seed(0))
    catalog = get_problem(wl.problem).mesh_builder(wl.tiny_n)
    assert np.array_equal(ours.verts, catalog.verts)
    assert np.array_equal(ours.tris, catalog.tris)
    other = wl.mesh(wl.tiny_n, wl.jitter_seed(1))
    assert not np.array_equal(other.verts, catalog.verts)


@pytest.mark.parametrize("name", NAMES)
def test_stepper_matches_triblend_run(name):
    wl = WORKLOADS[name]
    ours = build(wl, 0, n=wl.tiny_n)
    cfg = RunConfig(problem=wl.problem, mode=wl.mode)
    theirs = _make_stepper(ours.problem, ours.model, ours.mesh, ours.bc, cfg)
    a = ours.stepper.run(ours.ubar, ours.upt, 1.0, max_steps=CANARY_STEPS)
    b = theirs.run(ours.ubar, ours.upt, 1.0, max_steps=CANARY_STEPS)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_and_checks_pass(name, trace):
    result, fails = measure(tiny(name), 0, 0.0, trace, load_references())
    assert fails == []
    assert result["attempted"] == CANARY_STEPS * (1 + trace)
    assert result["failed"] == 0
    section = result["per_layer"] if trace else result["end_to_end"]
    for metric, unit, _ in PER_LAYER if trace else END_TO_END:
        assert np.isfinite(section[metric]), metric
    if trace:
        assert section["trace.coverage"] >= 0.95
    else:
        assert all(section[m] > 0 for m, _, _ in END_TO_END)
    if name == "gauss":
        assert result["extra"]["l1_error"] > 0


def test_missing_reference_fails_the_run():
    result, fails = measure(tiny("gauss"), 0, 0.0, 0, {})
    assert any("no canary reference" in f for f in fails)
    assert result["failures"] == fails


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_state_fails_the_checks(name):
    wl = WORKLOADS[name]
    setup = build(wl, 0, n=wl.tiny_n)
    res = solve(setup, CANARY_STEPS)
    assert check_state(setup, res.ubar, res.upt, res.totals) == []
    ref = [e for e in load_references()[name] if e["n"] == wl.tiny_n][0]["state"]
    assert fingerprint_error(state_fingerprint(res.ubar, res.upt), ref) <= wl.ref_rtol

    ubar = res.ubar.copy()
    ubar[0, 0] += 0.5 * np.abs(ubar[:, 0]).max()  # breaks conservation and the reference
    assert any("conservation" in f for f in check_state(setup, ubar, res.upt, res.totals))
    assert fingerprint_error(state_fingerprint(ubar, res.upt), ref) > wl.ref_rtol

    upt = res.upt.copy()
    upt[0, 0] = np.nan
    assert check_state(setup, res.ubar, upt, res.totals) != []
    if setup.stepper.assert_domain is not None:
        upt = res.upt.copy()
        upt[0, 0] = -1.0  # negative concentration / density
        assert any("domain" in f for f in check_state(setup, res.ubar, upt, res.totals))


def test_exits_nonzero_without_the_solver(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shapes", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
