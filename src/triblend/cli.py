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
import json
import os
import sys

import numpy as np

from .boundary import BoundaryHandler, FarField, Outflow, Wall
from .config import RunConfig, load_config
from .exceptions import ConfigError, MeshError, NumericalAbort, TriblendError
from .io_vtk import (
    journal_writer,
    write_convergence_csv,
    write_diagnostics_csv,
    write_vtk_averages,
    write_vtk_points,
)
from .mesh import read_msh
from .meshgen import refine4, write_msh2
from .norms import convergence_rows, error_norms
from .problems import (
    builtin_problems,
    gas_domains,
    get_problem,
    interval_domains,
    sample_initial,
)
from .timeloop import LIMITED_MODES, Stepper, initialize


def _effective_domains(problem, model, cfg):
    """(enforce, assert) domains: the problem's, or those of the `[limits]`
    overrides, which must fit the model (lo/hi for scalar models, rho_min
    and p_min for gas dynamics)."""
    interval = cfg.lo is not None  # validate() pairs lo with hi
    gas = cfg.rho_min is not None or cfg.p_min is not None
    name = problem.name
    if interval and model.nvars != 1:
        raise ConfigError(f"[limits] lo/hi need a scalar problem, not {name!r}")
    if gas and model.nvars == 1:
        raise ConfigError(f"[limits] rho_min/p_min need a gas problem, not {name!r}")
    if interval:
        return interval_domains(cfg.lo, cfg.hi)
    enforce, assert_ = problem.domains(model)
    if gas:
        return gas_domains(
            model.gamma,
            cfg.rho_min if cfg.rho_min is not None else assert_.rho_min,
            cfg.p_min if cfg.p_min is not None else assert_.p_min,
        )
    return enforce, assert_


def _resolve_boundaries(problem, model, cfg):
    defaults = problem.boundaries(model)
    bcs = dict(defaults)
    for name, role in cfg.boundary.items():
        if role == "wall":
            bcs[name] = Wall()
        elif role == "outflow":
            bcs[name] = Outflow()
        elif role in ("inflow", "farfield"):
            ff = next(
                (bc for bc in defaults.values() if isinstance(bc, FarField)), None
            )
            if ff is None:
                raise ConfigError(
                    f"boundary {name!r}: problem {problem.name!r} provides "
                    "no far-field state to inflow"
                )
            bcs[name] = ff
    return bcs


def _mesh(cfg: RunConfig, problem):
    """The configured mesh: `[run] mesh`, else the problem's generator."""
    return (read_msh(cfg.mesh) if cfg.mesh is not None
            else problem.mesh_builder(cfg.mesh_n or problem.default_n))


def _build(cfg: RunConfig, mesh=None):
    """(problem, model, mesh, stepper, ubar, upt) for the configured run,
    on `mesh` in place of the configured one if given.  The initial state
    (ubar, upt) is checked against the stepper's assert domain."""
    problem = get_problem(cfg.problem)
    model = problem.make_model(cfg.gamma)
    mesh = mesh if mesh is not None else _mesh(cfg, problem)
    # The namer names only the boundary edges that the mesh leaves unnamed.
    unnamed = mesh.boundary_name == ""
    if unnamed.any():
        mids = mesh.edge_mid[mesh.boundary_edges[unnamed]]
        mesh.boundary_name[unnamed] = problem.namer(mids)
    # Only the overrides: a problem's defaults may name more than a user mesh.
    unknown = set(cfg.boundary) - set(mesh.boundary_name)
    if unknown:
        raise ConfigError(f"[boundary] names no mesh boundary: {sorted(unknown)}")
    bc = BoundaryHandler(mesh, model, _resolve_boundaries(problem, model, cfg))
    stepper = _make_stepper(problem, model, mesh, bc, cfg)
    ubar, upt = sample_initial(
        problem, model, stepper.tables, domain=stepper.assert_domain
    )
    return problem, model, mesh, stepper, ubar, upt


def _make_stepper(problem, model, mesh, bc, cfg):
    enforce, assert_ = _effective_domains(problem, model, cfg)
    if cfg.mode == "bp" and enforce is None:
        raise ConfigError(f"mode 'bp' needs an invariant domain, which problem "
                          f"{problem.name!r} lacks: set [limits] lo and hi")
    # Only the limited modes promise the invariant domain; pure ho/lo runs
    # keep the plain finiteness check instead of the domain assert.
    limited = cfg.mode in LIMITED_MODES
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
    problem, model, mesh, stepper, ubar, upt = _build(cfg)
    out = _outdir(cfg)
    t_end = cfg.final_time if cfg.final_time is not None else problem.final_time
    print(
        f"{problem.name}: {mesh.num_tris} elements, {mesh.num_points} point "
        f"DoFs, mode={cfg.mode}, T={t_end}"
    )

    def dump(tag, ub, up):
        write_vtk_averages(os.path.join(out, f"averages{tag}.vtk"), mesh, ub, model)
        write_vtk_points(os.path.join(out, f"points{tag}.vtk"), mesh, up, model)

    def diagnose(tag):
        write_diagnostics_csv(
            os.path.join(out, f"diagnostics{tag}.csv"),
            mesh,
            stepper.last_theta,
            stepper.last_eta_point,
            stepper.last_eta_edge,
        )

    last = [0, 0.0, ubar, upt]  # the last accepted step, its t and state

    def callback(step, t, ub, up, row):
        journal(row)  # the journal's writer, opened below
        last[:] = step, t, ub, up
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
            diagnose(f"_{step:06d}")

    # One flushed row per accepted step, so an abort keeps the completed
    # steps; a run of no step leaves the file empty.
    with open(os.path.join(out, "journal.csv"), "w", newline="") as fh:
        journal = journal_writer(fh)
        try:
            ubar, upt, _, totals = stepper.run(ubar, upt, t_end, callback=callback)
        except NumericalAbort as exc:
            step, t, ub, up = last
            dump("_last", ub, up)
            # The last accepted step and its t, then where the run broke.
            record = {"message": str(exc), "step": step, "t": t, "abort": exc.record}
            with open(os.path.join(out, "abort.json"), "w") as fa:
                json.dump(record, fa, indent=2)
            raise

    dump("", ubar, upt)
    diagnose("")

    print(
        f"done: {totals['steps']} steps to t={totals['t']:.6g}; "
        f"{_extrema(model, ubar, upt)}; conservation drift {totals['drift']:.3e}"
    )
    print(f"outputs in {out}/")
    return 0


def cmd_convergence(args) -> int:
    cfg = load_config(args.config)
    problem = get_problem(cfg.problem)
    if problem.exact is None:
        raise ConfigError(f"problem {cfg.problem!r} has no exact solution")
    t_end = cfg.final_time if cfg.final_time is not None else problem.final_time

    if args.meshes:
        meshes = [read_msh(p) for p in args.meshes.split(",")]
    else:
        meshes = [_mesh(cfg, problem)]
        for _ in range(args.levels - 1):
            meshes.append(refine4(meshes[-1]))
    if len(meshes) < 3:
        raise ConfigError("convergence needs at least 3 mesh levels")

    hs = []
    norm_dicts = []
    for mesh in meshes:
        _, model, _, stepper, ubar, upt = _build(cfg, mesh)
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
    names = sorted({str(nm) or "<unnamed>" for nm in mesh.boundary_name})
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
    if args.n < 1:
        raise ConfigError(f"make-mesh needs n >= 1, not {args.n}")
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
