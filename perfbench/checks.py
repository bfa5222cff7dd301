"""Correctness checks on the outputs of a solve.

A check returns a list of failure messages; an empty list means it passed.
Final states are compared through a fingerprint: per conserved variable the
largest magnitude, the plain sum, two sums with fixed random weights and
the sum of squares.  Differences are measured relative to the number of
entries times the reference's largest magnitude of that variable, so a
tolerance reads as a mean relative difference per entry.
"""

from __future__ import annotations

import json
import os

import numpy as np

CONSERVATION_RTOL = 1e-12
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def fingerprint(u) -> dict:
    u = np.asarray(u, dtype=float).reshape(len(u), -1)
    w = np.random.default_rng(0).random((2, len(u)))
    return {
        "n": len(u),
        "scale": np.abs(u).max(axis=0).tolist(),
        "sums": [u.sum(axis=0).tolist(), *(w @ u).tolist()],
        "sum_sq": (u * u).sum(axis=0).tolist(),
    }


def state_fingerprint(ubar, upt) -> dict:
    return {"ubar": fingerprint(ubar), "upt": fingerprint(upt)}


def fingerprint_error(fp: dict, ref: dict) -> float:
    """Largest relative difference between two fingerprints (inf if shapes differ)."""
    worst = 0.0
    for key in ("ubar", "upt"):
        a, b = fp[key], ref[key]
        if a["n"] != b["n"] or len(a["scale"]) != len(b["scale"]):
            return float("inf")
        scale = np.maximum(np.asarray(b["scale"]), 1e-300)
        diffs = (
            np.abs(np.subtract(a["sums"], b["sums"])) / (b["n"] * scale),
            np.abs(np.subtract(a["sum_sq"], b["sum_sq"])) / (b["n"] * scale**2),
        )
        for d in diffs:
            if not np.all(np.isfinite(d)):
                return float("inf")
            worst = max(worst, float(d.max()))
    return worst


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def conservation_drift(mesh, ubar, totals) -> float:
    """max |mass - mass0 + integral of boundary flux|, relative to max(1, |mass0|).

    The mass is recomputed from `ubar`, so the check covers the state itself.
    """
    drift = mesh.areas @ ubar - totals["mass0"] + totals["bflux_int"]
    return float(np.abs(drift).max() / max(1.0, np.abs(totals["mass0"]).max()))


def check_state(setup, ubar, upt, totals) -> list:
    """Conservation, finiteness and the problem's assert domain."""
    fails = []
    if not (np.isfinite(ubar).all() and np.isfinite(upt).all()):
        fails.append("non-finite state")
    drift = conservation_drift(setup.mesh, ubar, totals)
    if not drift <= CONSERVATION_RTOL:
        fails.append(f"conservation drift {drift:.3e} > {CONSERVATION_RTOL:g}")
    dom = setup.stepper.assert_domain
    if dom is not None:
        bad = int((~dom.contains(ubar)).sum() + (~dom.contains(upt)).sum())
        if bad:
            fails.append(f"{bad} DoFs outside the assert domain")
    return fails


def find_reference(entries: list, n: int, steps: int) -> dict | None:
    """The recorded entry for mesh size n after `steps` steps, if any."""
    for entry in entries:
        if entry["n"] == n and entry["steps"] == steps:
            return entry
    return None


def check_reference(fp: dict, entry: dict | None, rtol: float, what: str) -> list:
    if entry is None:
        return [f"no {what} reference recorded"]
    err = fingerprint_error(fp, entry["state"])
    if not err <= rtol:
        return [f"{what} state differs from the reference by {err:.3e} > {rtol:g}"]
    return []


def check_l1(l1, limit) -> list:
    if limit is not None and not l1 <= limit:
        return [f"l1_error {l1:.4e} above the limit {limit:.4e}"]
    return []
