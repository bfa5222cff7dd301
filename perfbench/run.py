"""Benchmark of the triblend solver: one workload per process.

    python3 perfbench/run.py --workload shapes --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all

With `--trace 0` the run measures set-up (median of several set-ups), then
repeats a fixed-length solve from t = 0 for about `--seconds`, and reports
the end-to-end metrics.  With `--trace 1` it alternates untraced and
traced solves and reports the per-layer metrics.  Every solve is checked
(see `checks.py`); the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` (RK3 steps) and `metrics`.  The exit code is
0 when every check passes, 1 when one fails and 2 when the solver sources
cannot be imported.  `--workload all` runs each workload in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
NAMES = ("shapes", "mach", "gauss")
# Set-up repeats at least this often and for at least this long, so that
# the median of a fast set-up spans more than a moment of machine noise.
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0
CANARY_STEPS = 2
# Modules that import numpy are imported inside functions, after
# `limit_blas_threads` has set the thread count.


def _parser():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0, help="0 gives the catalog meshes")
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap


def _git_commit():
    """HEAD of a git checkout at ROOT, read from its files; None elsewhere."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _manifest(wl, seed, setup, solves, threads):
    import numpy as np
    import scipy
    import triblend

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    mesh = setup.mesh
    done = [s for _, s in solves if s.totals is not None]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "triblend": triblend.__version__,
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": threads},
        "workload": {
            "name": wl.name,
            "problem": wl.problem,
            "mode": wl.mode,
            "n": wl.n,
            "seed": seed,
            "jitter_seed": wl.jitter_seed(seed),
            "triangles": mesh.num_tris,
            "points": mesh.num_points,
            "edges": mesh.num_edges,
            "steps_per_solve": wl.steps,
            "solves": len(solves),
            "steps": sum(s.completed for _, s in solves),
            "final_t": done[0].totals["t"] if done else None,
        },
    }


def _tail(samples):
    """(percentile, value): the highest percentile with 10 samples beyond it."""
    if len(samples) < 20:
        return None, None
    import numpy as np

    q = int(100.0 * (1.0 - 10.0 / len(samples)))
    return q, float(np.percentile(samples, q))


def measure(wl, seed, seconds, trace, refs):
    """Set up, solve and check one workload; returns (result dict, failures)."""
    import gc

    from checks import (
        check_l1, check_reference, check_state, find_reference, fingerprint_error,
        state_fingerprint,
    )
    from metrics import journal_metrics, static_memory
    from tracing import Tracer, instrument, layer_metrics, trace_tables
    from workloads import build, l1_errors, solve

    fails = []
    entries = refs.get(wl.name, [])

    # Reference canary: the workload's problem and mode on a tiny catalog
    # mesh, checked on every run whatever the seed.
    tiny = build(wl, 0, n=wl.tiny_n)
    res = solve(tiny, CANARY_STEPS)
    if res.abort:
        fails.append(f"canary: {res.abort}")
    else:
        fp = state_fingerprint(res.ubar, res.upt)
        entry = find_reference(entries, wl.tiny_n, CANARY_STEPS)
        fails += check_reference(fp, entry, wl.ref_rtol, "canary")
    del tiny, res

    setup_s, build_s, tables_s = [], [], []
    setup = None
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
        setup = None  # freed first, so that peak_rss_mb holds one set-up
        gc.collect()
        if trace:
            tr = Tracer()
            with trace_tables(tr):
                t0 = time.perf_counter()
                setup = build(wl, seed, span=tr.span)
                setup_s.append(time.perf_counter() - t0)
            st = tr.self_times()
            build_s.append(st["meshgen.build"][0])
            tables_s.append(st["spatial_ho.tables_build"][0])
        else:
            t0 = time.perf_counter()
            setup = build(wl, seed)
            setup_s.append(time.perf_counter() - t0)

    tracer = Tracer()
    solves = []  # (traced, Solve)
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(solves) % 2 == 1
        if traced:
            with instrument(tracer, setup.stepper):
                res = solve(setup, wl.steps)
        else:
            res = solve(setup, wl.steps)
        solves.append((traced, res))
        if res.abort:
            fails.append(f"solve {len(solves)}: {res.abort}")
            break
        # Stop before a solve that would end past `seconds`; with tracing,
        # only after a traced solve.
        n = len(solves)
        if n >= 1 + trace and n % (1 + trace) == 0:
            if time.perf_counter() - start + res.wall_s > seconds:
                break
    measured_s = time.perf_counter() - start

    # -- checks ------------------------------------------------------------
    l1 = None
    first = None
    for i, (_, res) in enumerate(solves):
        if res.abort:
            continue
        fails += [f"solve {i + 1}: {f}" for f in check_state(setup, res.ubar, res.upt, res.totals)]
        fp = state_fingerprint(res.ubar, res.upt)
        if first is None:
            first = fp
            entry = find_reference(entries, wl.n, wl.steps)
            l1 = l1_errors(setup, res)
            if l1 is not None and entry is not None:
                fails += check_l1(l1[0], entry.get("l1_error_max"))
            if seed == 0:
                fails += check_reference(fp, entry, wl.ref_rtol, "final")
        elif fingerprint_error(fp, first) > wl.ref_rtol:
            fails.append(f"solve {i + 1} differs from solve 1")

    # -- metrics -----------------------------------------------------------
    plain = [s for traced, s in solves if not traced]
    samples = [t for s in plain for t in s.step_s][1:]  # first step is warm-up
    steps_done = sum(s.completed for s in plain)
    attempted = sum(s.attempted for _, s in solves)
    failed = sum(s.attempted - s.completed for _, s in solves)
    step_ms = 1e3 * statistics.median(samples) if samples else float("nan")
    tail_q, tail = _tail(samples)

    end_to_end = {
        "setup_s": statistics.median(setup_s),
        "step_ms": step_ms,
        "us_per_elem_step": 1e6 * sum(s.wall_s for s in plain)
        / max(1, setup.mesh.num_tris * steps_done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "failed_step_frac": failed / attempted,
        "step_samples": len(samples),
        "measured_s": measured_s,
    }
    if tail is not None:
        extra[f"step_ms_p{tail_q}"] = 1e3 * tail
    if l1 is not None:
        extra["l1_error"], extra["l1_error_pt"] = l1
    layer = dict(static_memory(setup.mesh, setup.stepper.tables))
    layer.update(journal_metrics([s.journal for _, s in solves if s.journal]))
    traced_solves = [s for t, s in solves if t and s.completed]
    if traced_solves and samples:
        named, by_span = layer_metrics(tracer, sum(s.wall_s for s in traced_solves))
        layer.update(named)
        layer["meshgen.build_s"] = statistics.median(build_s)
        layer["spatial_ho.tables_build_s"] = statistics.median(tables_s)
        traced_ms = 1e3 * statistics.median([t for s in traced_solves for t in s.step_s])
        layer["trace.overhead_frac"] = traced_ms / step_ms - 1.0
        extra.update(by_span)
        os.makedirs(OUT, exist_ok=True)
        tracer.write_csv(os.path.join(OUT, f"spans-{wl.name}-seed{seed}.csv"))

    threads = int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None
    result = {
        "manifest": _manifest(wl, seed, setup, solves, threads),
        "end_to_end": end_to_end,
        "per_layer": layer,
        "extra": extra,
        "attempted": attempted,
        "failed": failed,
        "failures": fails,
        "step_s": [[traced, s.step_s] for traced, s in solves],
    }
    return result, fails


def _print_table(result, trace):
    from metrics import unit_of

    w = result["manifest"]["workload"]
    print(
        f"# {w['name']}: {w['problem']} mode={w['mode']} n={w['n']} seed={w['seed']} "
        f"(jitter seed {w['jitter_seed']}), {w['triangles']} triangles, "
        f"{w['points']} points, {w['edges']} edges; {w['solves']} solves, "
        f"{w['steps']} steps, final t={w['final_t']}"
    )
    sections = ["end_to_end", "extra"] + (["per_layer"] if trace else [])
    for sec in sections:
        for name, value in result[sec].items():
            print(f"{sec:10s} {name:52s} {value:14.6g} {unit_of(name)}")
    for f in result["failures"]:
        print(f"FAILED: {f}")


def limit_blas_threads():
    """One BLAS thread per usable core; call before numpy is imported."""
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads


def run_one(args) -> int:
    limit_blas_threads()
    sys.path.insert(0, SRC)
    try:
        import triblend
    except ImportError as exc:
        print(f"error: cannot import the solver from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(triblend.__file__).startswith(SRC + os.sep):
        print(f"error: triblend imported from {triblend.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from checks import load_references
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    result, fails = measure(wl, args.seed, args.seconds, args.trace, load_references())
    _print_table(result, args.trace)

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)

    source = result["per_layer"] if args.trace else result["end_to_end"]
    names = PER_LAYER if args.trace else END_TO_END
    line = {
        "correct": not fails,
        "attempted": result["attempted"],
        "failed": result["failed"],
        # A run that aborted may lack some metrics; it is reported as failed.
        "metrics": {
            n: {"value": source.get(n, float("nan")), "unit": u} for n, u, _ in names
        },
    }
    print(json.dumps(line))
    return 0 if not fails else 1


def run_all(args) -> int:
    worst = 0
    for name in NAMES:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        code = subprocess.run(cmd).returncode
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
