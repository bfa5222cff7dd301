"""Command-line driver.

Subcommands: `run <config>` marches a configured problem and writes VTK/CSV
outputs; `convergence <config>` runs a nested refinement study against the
problem's exact solution; `info <mesh>` summarizes a mesh file; `make-mesh`
generates and tags a built-in problem geometry.  Exit codes: 0 success, 2
configuration or mesh-file error, 3 numerical abort.  The environment
variable TRIBLEND_OUTDIR overrides the configured output directory.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .boundary import BoundaryHandler, FarField, Outflow, Wall
from .config import RunConfig, load_config
from .exceptions import ConfigError, MeshError, NumericalAbort, TriblendError
from .io_vtk import (
    write_convergence_csv,
    write_diagnostics_csv,
    write_journal_csv,
    write_vtk_averages,
    write_vtk_points,
)
from .limiting import GasDomain, IntervalDomain
from .mesh import read_msh
from .meshgen import refine4, write_msh2
from .norms import convergence_rows, error_norms
from .problems import builtin_problems, get_problem, sample_initial
from .timeloop import Stepper, initialize


def _effective_domains(problem, model, cfg):
    enforce, assert_ = problem.domains(model)
    if problem.kind == "scalar" and cfg.lo is not None and cfg.hi is not None:
        enforce = IntervalDomain(cfg.lo, cfg.hi)
        pad = 1e-9 * max(1.0, abs(cfg.lo), abs(cfg.hi))
        assert_ = IntervalDomain(cfg.lo - pad, cfg.hi + pad)
    if problem.kind == "euler" and (
        cfg.rho_min is not None or cfg.p_min is not None
    ):
        base = problem.domains(model)[1]
        assert_ = GasDomain(
            rho_min=cfg.rho_min if cfg.rho_min is not None else base.rho_min,
            p_min=cfg.p_min if cfg.p_min is not None else base.p_min,
            gamma=model.gamma,
        )
        enforce = assert_.scaled(2.0)
    return enforce, assert_


def _farfield_of(bcs):
    for bc in bcs.values():
        if isinstance(bc, FarField):
            return bc
    return None


def _resolve_boundaries(problem, model, cfg):
    bcs = problem.boundaries(model)
    for name, role in cfg.boundary.items():
        if role == "wall":
            bcs[name] = Wall()
        elif role == "outflow":
            bcs[name] = Outflow()
        elif role in ("inflow", "farfield"):
            ff = _farfield_of(problem.boundaries(model))
            if ff is None:
                raise ConfigError(
                    f"boundary {name!r}: problem {problem.name!r} provides "
                    "no far-field state to inflow"
                )
            bcs[name] = ff
        elif role == "none":
            bcs.pop(name, None)
    return bcs


def _load_mesh(problem, cfg):
    if cfg.mesh is not None:
        mesh = read_msh(cfg.mesh)
    else:
        mesh = problem.mesh_builder(cfg.mesh_n or problem.default_n)
    if any(not mesh.edge_name[e] for e in mesh.boundary_edges):
        mesh.name_boundary(problem.namer)
    return mesh


def _build(cfg: RunConfig):
    problem = get_problem(cfg.problem)
    model = problem.make_model(cfg.gamma)
    mesh = _load_mesh(problem, cfg)
    bc = BoundaryHandler(mesh, model, _resolve_boundaries(problem, model, cfg))
    stepper = _make_stepper(problem, model, mesh, bc, cfg)
    return problem, model, mesh, stepper


def _make_stepper(problem, model, mesh, bc, cfg):
    enforce, assert_ = _effective_domains(problem, model, cfg)
    # Only the limited modes promise the invariant domain; pure ho/lo runs
    # keep the plain finiteness check instead of the domain assert.
    limited = cfg.mode in ("bp", "full")
    return Stepper(
        mesh,
        model,
        bc,
        cfl=cfg.cfl,
        enforce_domain=enforce if limited else None,
        assert_domain=assert_ if limited else None,
        mode=cfg.mode,
        damping_c1=cfg.c1,
        damping_c2=cfg.c2,
    )


def _outdir(cfg: RunConfig) -> str:
    out = os.environ.get("TRIBLEND_OUTDIR", cfg.directory)
    os.makedirs(out, exist_ok=True)
    return out


def _extrema(model, ubar, upt):
    allu = np.concatenate([ubar, upt], axis=0)
    if model.nvars == 1:
        return f"u in [{allu.min():.6g}, {allu.max():.6g}]"
    p = model.pressure(allu)
    return (
        f"rho in [{allu[:, 0].min():.6g}, {allu[:, 0].max():.6g}] "
        f"p_min={p.min():.6g}"
    )


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    problem, model, mesh, stepper = _build(cfg)
    out = _outdir(cfg)
    t_end = cfg.final_time if cfg.final_time is not None else problem.final_time

    ubar, upt = sample_initial(
        problem, model, stepper.tables, domain=stepper.assert_domain
    )
    print(
        f"{problem.name}: {mesh.num_tris} elements, {mesh.num_points} point "
        f"DoFs, mode={cfg.mode}, T={t_end}"
    )

    def dump(tag, ub, up):
        write_vtk_averages(os.path.join(out, f"averages{tag}.vtk"), mesh, ub, model)
        write_vtk_points(os.path.join(out, f"points{tag}.vtk"), mesh, up, model)

    def callback(step, t, ub, up, row):
        if cfg.log_every and step % cfg.log_every == 0:
            act = (
                f"theta_min={row['theta_min']:.3f} "
                f"eta<0.01: {row['eta_lo_frac']:.1%}"
            )
            print(
                f"step {step:6d} t={t:.6f} dt={row['dt']:.3e} "
                f"{_extrema(model, ub, up)} {act}"
            )
        if cfg.vtk_every and step % cfg.vtk_every == 0:
            dump(f"_{step:06d}", ub, up)
        if cfg.diagnostics_every and step % cfg.diagnostics_every == 0:
            write_diagnostics_csv(
                os.path.join(out, f"diagnostics_{step:06d}.csv"),
                mesh,
                stepper.last_theta,
                stepper.last_eta_point,
                stepper.last_eta_edge,
            )

    ubar, upt, journal, totals = stepper.run(ubar, upt, t_end, callback=callback)

    dump("", ubar, upt)
    write_journal_csv(os.path.join(out, "journal.csv"), journal)
    write_diagnostics_csv(
        os.path.join(out, "diagnostics.csv"),
        mesh,
        stepper.last_theta,
        stepper.last_eta_point,
        stepper.last_eta_edge,
    )

    drift = totals["mass"] - totals["mass0"] + totals["bflux_int"]
    rel = np.abs(drift).max() / max(1.0, np.abs(totals["mass0"]).max())
    print(
        f"done: {totals['steps']} steps to t={totals['t']:.6g}; "
        f"{_extrema(model, ubar, upt)}; conservation drift {rel:.3e}"
    )
    print(f"outputs in {out}/")
    return 0


def cmd_convergence(args) -> int:
    cfg = load_config(args.config)
    problem = get_problem(cfg.problem)
    if problem.exact is None:
        raise ConfigError(f"problem {cfg.problem!r} has no exact solution")
    model = problem.make_model(cfg.gamma)
    t_end = cfg.final_time if cfg.final_time is not None else problem.final_time

    if args.meshes:
        meshes = [read_msh(p) for p in args.meshes.split(",")]
    else:
        if args.levels < 3:
            raise ConfigError("convergence needs at least 3 mesh levels")
        base = problem.mesh_builder(cfg.mesh_n or problem.default_n)
        meshes = [base]
        for _ in range(args.levels - 1):
            meshes.append(refine4(meshes[-1]))

    hs = []
    norm_dicts = []
    for mesh in meshes:
        if any(not mesh.edge_name[e] for e in mesh.boundary_edges):
            mesh.name_boundary(problem.namer)
        bc = BoundaryHandler(
            mesh, model, _resolve_boundaries(problem, model, cfg)
        )
        stepper = _make_stepper(problem, model, mesh, bc, cfg)
        ubar, upt = sample_initial(problem, model, stepper.tables)
        ubar, upt, _, _ = stepper.run(ubar, upt, t_end)
        exact_bar, exact_pt = initialize(
            stepper.tables, lambda xy: problem.exact(model, xy, t_end)
        )
        hs.append(mesh.h_max())
        norm_dicts.append(error_norms(mesh, ubar, upt, exact_bar, exact_pt))
        nd = norm_dicts[-1]
        print(
            f"h={hs[-1]:.5f}  L1_int={nd['internal']['l1']:.4e}  "
            f"L1_bnd={nd['boundary']['l1']:.4e}  "
            f"Linf_int={nd['internal']['linf']:.4e}"
        )

    def fmt(key, val):
        if not isinstance(val, float):
            return str(val)
        if key == "h":
            return f"{val:.5f}"
        if key.endswith("_order"):
            return f"{val:.3f}"
        return f"{val:.4e}"

    rows = convergence_rows(hs, norm_dicts)
    print("  ".join(rows[0].keys()))
    for row in rows:
        print("  ".join(fmt(k, v) for k, v in row.items()))
    out = _outdir(cfg)
    path = os.path.join(out, "convergence.csv")
    write_convergence_csv(path, rows)
    print(f"table written to {path}")
    return 0


def cmd_info(args) -> int:
    mesh = read_msh(args.mesh)
    names = sorted(
        {str(mesh.edge_name[e]) or "<unnamed>" for e in mesh.boundary_edges}
    )
    q = mesh.inradius() / mesh.h_max()
    print(f"vertices:       {len(mesh.verts)}")
    print(f"triangles:      {mesh.num_tris}")
    print(f"edges:          {mesh.num_edges} ({len(mesh.boundary_edges)} boundary)")
    print(f"point DoFs:     {mesh.num_points}")
    print(f"total area:     {mesh.areas.sum():.12g}")
    print(f"h_max:          {mesh.h_max():.6g}")
    print(f"min inradius:   {mesh.inradius().min():.6g}")
    print(f"quality (r/h):  min={q.min():.4f} mean={q.mean():.4f}")
    print(f"boundary names: {', '.join(names)}")
    return 0


def cmd_make_mesh(args) -> int:
    problem = get_problem(args.problem)
    mesh = problem.mesh_builder(args.n)
    mesh.name_boundary(problem.namer)
    write_msh2(args.out, mesh)
    print(
        f"{args.out}: {mesh.num_tris} triangles, "
        f"{len(mesh.boundary_edges)} boundary edges"
    )
    return 0


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="triblend",
        description="Third-order blended finite-volume/point-value solver "
        "for hyperbolic conservation laws on triangles.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="march a configured problem")
    p.add_argument("config")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("convergence", help="nested refinement study")
    p.add_argument("config")
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--meshes", help="comma-separated MSH paths (overrides --levels)")
    p.set_defaults(fn=cmd_convergence)

    p = sub.add_parser("info", help="summarize a mesh file")
    p.add_argument("mesh")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("make-mesh", help="generate a problem mesh as MSH")
    p.add_argument("problem", choices=sorted(builtin_problems()))
    p.add_argument("n", type=int)
    p.add_argument("out")
    p.set_defaults(fn=cmd_make_mesh)

    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, MeshError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except TriblendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
