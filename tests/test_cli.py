import dataclasses
import json
import re

import numpy as np
import pytest

from triblend.boundary import BoundaryHandler, FarField, Outflow, Wall
from triblend.cli import _build, _make_stepper, _resolve_boundaries, main
from triblend.config import RunConfig, load_config
from triblend.exceptions import ConfigError
from triblend.mesh import read_msh
from triblend.meshgen import rect_mesh, refine4, write_msh2
from triblend.problems import get_problem, sample_initial
from triblend.spatial_ho import Tables
from triblend.timeloop import Stepper


def write_cfg(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


FS_RUN = """
[run]
problem = free-stream
final_time = {T}
mesh_n = 4

[output]
directory = {out}
log_every = 0
"""


def test_missing_config_exits_2(capsys):
    assert main(["run", "/no/such/file.ini"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_problem_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[run]\nproblem = warp-drive\n")
    assert main(["run", cfg]) == 2
    assert "unknown problem" in capsys.readouterr().err


def _no_constant(name):
    raise AssertionError(f"abort.json is not strict JSON: it holds {name}")


# The unlimited scheme drives the pressure negative on this shock data; the
# NaN sound speed must end the run as a numerical abort, with no warning.
def test_unlimited_mode_on_shock_data_exits_3(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "[run]\nproblem = quadrants\nmesh_n = 10\nmode = ho\n"
        f"final_time = 0.5\n[output]\ndirectory = {tmp_path / 'o'}\n"
        "log_every = 0\n",
    )
    assert main(["run", cfg]) == 3
    err = capsys.readouterr().err
    assert "numerical abort" in err
    # The abort names the step that failed and where, and the journal
    # keeps one row per completed step before it.
    m = re.search(
        r"step (\d+), t = \S+; element (\d+) at \((\S+), (\S+)\) has wave speed (\S+)",
        err,
    )
    assert m, err
    out = tmp_path / "o"
    rows = (out / "journal.csv").read_text().splitlines()
    steps = [int(row.split(",")[0]) for row in rows[1:]]
    assert rows[0].startswith("step,t,dt,")
    assert steps == list(range(1, int(m.group(1))))
    # The abort record: the last accepted step and its t, and that step's
    # state as VTK, the state the journal's last row describes.
    record = json.loads((out / "abort.json").read_text(), parse_constant=_no_constant)
    assert record["message"] in err
    last = rows[-1].split(",")
    assert record["step"] == steps[-1] == int(last[0])
    assert record["t"] == float(last[1])
    # Where the run broke, as fields: the step after the last accepted
    # one, at its t, and the element whose time step collapsed.
    abort = record["abort"]
    assert abort["step"] == int(m.group(1)) == steps[-1] + 1
    assert abort["stage"] is None and abort["t"] == record["t"]
    element = abort["element"]
    assert element["index"] == int(m.group(2))
    assert [f"{v:.6g}" for v in element["xy"]] == [m.group(3), m.group(4)]
    # A non-finite number is null: the message prints this one as nan.
    speed = element["wave_speed"]
    assert m.group(5) == ("nan" if speed is None else f"{speed:.6g}")
    mesh = get_problem("quadrants").mesh_builder(10)
    pts = _read_scalars(out / "points_last.vtk", "density")
    avg = _read_scalars(out / "averages_last.vtk", "density")
    assert (len(pts), len(avg)) == (mesh.num_points, mesh.num_tris)
    min_density = float(last[rows[0].split(",").index("min_density")])
    assert min(pts.min(), avg.min()) == min_density


def test_unmapped_boundary_name_exits_2(tmp_path, capsys):
    # No role leaves a boundary without a condition: `none` is not one.
    cfg = write_cfg(
        tmp_path,
        "[run]\nproblem = free-stream\nmesh_n = 4\n"
        f"[output]\ndirectory = {tmp_path / 'o'}\n"
        "[boundary]\nwall = none\n",
    )
    assert main(["run", cfg]) == 2
    assert "boundary role for 'wall' must be one of" in capsys.readouterr().err


def test_namer_names_only_the_untagged_edges_of_a_read_mesh(tmp_path, capsys):
    # A mesh file with boundary lines on all but one boundary edge: the
    # tagged edges keep the file's names, which `[boundary]` maps, and the
    # problem's namer names the untagged edge from its midpoint.
    prob = get_problem("free-stream")
    mesh = prob.mesh_builder(3)
    mesh.name_boundary(prob.namer)
    rename = {"farfield": "inlet", "wall": "side"}
    mesh.boundary_name[:] = [rename[nm] for nm in mesh.boundary_name]
    mesh.boundary_name[0] = ""  # no boundary line is written for it
    msh = tmp_path / "fs.msh"
    write_msh2(msh, mesh)
    cfg = write_cfg(
        tmp_path,
        f"[run]\nproblem = free-stream\nfinal_time = 0.01\nmesh = {msh}\n"
        f"[output]\ndirectory = {tmp_path / 'o'}\nlog_every = 0\n"
        "[boundary]\ninlet = farfield\nside = wall\n",
    )
    assert main(["run", cfg]) == 0
    names = read_msh(str(msh)).boundary_name
    untagged = names == ""
    assert untagged.sum() == 1 and set(names[~untagged]) == {"inlet", "side"}
    built = _build(load_config(cfg))[2]
    names[untagged] = prob.namer(built.edge_mid[built.boundary_edges[untagged]])
    assert names[untagged][0] in ("farfield", "wall")
    assert list(built.boundary_name) == list(names)


def test_boundary_override_of_a_missing_name_exits_2(tmp_path, capsys):
    # A typo of `wall` must not leave the walls unchanged.
    cfg = write_cfg(
        tmp_path,
        "[run]\nproblem = free-stream\nmesh_n = 4\nfinal_time = 0.01\n"
        f"[output]\ndirectory = {tmp_path / 'o'}\nlog_every = 0\n"
        "[boundary]\nwal = outflow\n",
    )
    assert main(["run", cfg]) == 2
    assert "'wal'" in capsys.readouterr().err


def _read_scalars(path, tag):
    lines = path.read_text().splitlines()
    i = next(k for k, ln in enumerate(lines) if ln.startswith(f"SCALARS {tag} "))
    vals = []
    for ln in lines[i + 2:]:
        if ln.startswith(("SCALARS", "CELL", "POINT")):
            break
        vals.append(float(ln))
    return np.array(vals)


def test_zero_time_run_outputs_initial_data(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, FS_RUN.format(T=0.0, out=out))
    assert main(["run", cfg]) == 0
    prob = get_problem("free-stream")
    model = prob.make_model(1.4)
    mesh = prob.mesh_builder(4)
    ubar, upt = sample_initial(prob, model, Tables(mesh))
    assert np.array_equal(_read_scalars(out / "points.vtk", "density"), upt[:, 0])
    assert np.array_equal(
        _read_scalars(out / "averages.vtk", "density"), ubar[:, 0]
    )
    assert (out / "journal.csv").read_text() == ""


def test_journal_streams_one_row_per_accepted_step(tmp_path, capsys, monkeypatch):
    # When the callback of step k fires, journal.csv already holds the
    # header and k rows: an abort or a kill keeps every completed step.
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, FS_RUN.format(T=0.02, out=out))
    seen = []
    run = Stepper.run

    def spy(self, ubar, upt, t_end, callback, **kw):
        def check(step, *args):
            callback(step, *args)
            seen.append((step, len((out / "journal.csv").read_text().splitlines())))

        return run(self, ubar, upt, t_end, callback=check, **kw)

    monkeypatch.setattr(Stepper, "run", spy)
    assert main(["run", cfg]) == 0
    assert len(seen) >= 2
    assert seen == [(k, k + 1) for k in range(1, len(seen) + 1)]


def test_replay_is_bitwise_deterministic(tmp_path, capsys):
    cfg_a = write_cfg(
        tmp_path, FS_RUN.format(T=0.02, out=tmp_path / "a"), "a.ini"
    )
    cfg_b = write_cfg(
        tmp_path, FS_RUN.format(T=0.02, out=tmp_path / "b"), "b.ini"
    )
    assert main(["run", cfg_a]) == 0
    assert main(["run", cfg_b]) == 0
    for name in ("journal.csv", "points.vtk", "averages.vtk"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_bp_writes_the_files_of_undamped_full(tmp_path, capsys):
    # `bp` is `full` with c1 = c2 = 0: byte for byte the same journal, VTK
    # and diagnostics files, at every step and at the end.
    run = (
        "[run]\nproblem = rotating-shapes\nmesh_n = 6\nfinal_time = 0.03\n{mode}"
        "[output]\ndirectory = {out}\nlog_every = 0\nvtk_every = 2\n"
        "diagnostics_every = 2\n"
    )
    for tag, mode in (("bp", "mode = bp\n"), ("full", "c1 = 0.0\nc2 = 0.0\n")):
        text = run.format(mode=mode, out=tmp_path / tag)
        assert main(["run", write_cfg(tmp_path, text, f"{tag}.ini")]) == 0
    names = sorted(p.name for p in (tmp_path / "bp").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "full").iterdir())
    assert {"journal.csv", "averages.vtk", "points.vtk", "diagnostics.csv",
            "diagnostics_000002.csv"} <= set(names)
    for name in names:
        assert (tmp_path / "bp" / name).read_bytes() == (
            tmp_path / "full" / name
        ).read_bytes(), name


def test_outdir_env_override(tmp_path, monkeypatch, capsys):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("TRIBLEND_OUTDIR", str(override))
    cfg = write_cfg(tmp_path, FS_RUN.format(T=0.0, out=tmp_path / "ignored"))
    assert main(["run", cfg]) == 0
    assert (override / "points.vtk").exists()
    assert not (tmp_path / "ignored").exists()


def test_run_reads_mesh_from_file(tmp_path, capsys):
    msh = tmp_path / "chan.msh"
    assert main(["make-mesh", "free-stream", "4", str(msh)]) == 0
    cfg = write_cfg(
        tmp_path,
        "[run]\nproblem = free-stream\nfinal_time = 0.01\n"
        f"mesh = {msh}\n[output]\ndirectory = {tmp_path / 'o'}\nlog_every = 0\n",
    )
    assert main(["run", cfg]) == 0
    assert "conservation drift" in capsys.readouterr().out


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("problem", ["rotating-shapes", "double-mach", "diffraction"])
def test_make_mesh_below_one_exits_2(tmp_path, capsys, problem, n):
    # Bad input, not a traceback from the mesh generator.
    msh = tmp_path / "out.msh"
    assert main(["make-mesh", problem, str(n), str(msh)]) == 2
    assert "error: make-mesh needs n >= 1" in capsys.readouterr().err
    assert not msh.exists()


def test_info_reports_mesh_stats(tmp_path, capsys):
    msh = tmp_path / "m.msh"
    assert main(["make-mesh", "quadrants", "6", str(msh)]) == 0
    capsys.readouterr()
    assert main(["info", str(msh)]) == 0
    text = capsys.readouterr().out
    assert "triangles:" in text and "farfield" in text


def test_convergence_writes_table(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = write_cfg(
        tmp_path,
        "[run]\nproblem = advect-gauss\nfinal_time = 0.4\nmesh_n = 8\n"
        f"mode = ho\n[output]\ndirectory = {out}\n",
    )
    assert main(["convergence", cfg, "--levels", "3"]) == 0
    rows = (out / "convergence.csv").read_text().splitlines()
    assert len(rows) == 4  # header + 3 levels
    header = rows[0].split(",")
    assert "internal_l1_order" in header and "boundary_linf" in header


def test_convergence_needs_exact_solution(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[run]\nproblem = kpp\n")
    assert main(["convergence", cfg, "--levels", "3"]) == 2
    assert "exact" in capsys.readouterr().err


def test_convergence_needs_three_levels(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[run]\nproblem = advect-gauss\n")
    assert main(["convergence", cfg, "--levels", "2"]) == 2


def test_convergence_needs_three_mesh_files(tmp_path, capsys):
    # --meshes obeys the same minimum as --levels.
    msh = tmp_path / "m.msh"
    assert main(["make-mesh", "advect-gauss", "4", str(msh)]) == 0
    cfg = write_cfg(
        tmp_path,
        "[run]\nproblem = advect-gauss\nfinal_time = 0.4\nmode = ho\n"
        f"[output]\ndirectory = {tmp_path / 'o'}\n",
    )
    assert main(["convergence", cfg, "--meshes", f"{msh},{msh}"]) == 2
    assert "at least 3" in capsys.readouterr().err


def test_convergence_starts_from_the_configured_mesh(tmp_path, capsys):
    # With `[run] mesh`, the levels are that mesh and its refine4
    # children, not the generator's mesh of `mesh_n`.
    prob = get_problem("advect-gauss")
    mesh = rect_mesh((-20.0, 20.0, -20.0, 20.0), 4, seed=7)
    paths = []
    for level in range(3):
        mesh.name_boundary(prob.namer)
        paths.append(str(tmp_path / f"level{level}.msh"))
        write_msh2(paths[-1], mesh)
        mesh = refine4(mesh)
    run = (
        "[run]\nproblem = advect-gauss\nfinal_time = 0.4\nmesh_n = 4\n"
        "mode = ho\n{mesh}[output]\ndirectory = {out}\n"
    )
    cfg_a = write_cfg(
        tmp_path, run.format(mesh=f"mesh = {paths[0]}\n", out=tmp_path / "a"), "a.ini"
    )
    cfg_b = write_cfg(tmp_path, run.format(mesh="", out=tmp_path / "b"), "b.ini")
    assert main(["convergence", cfg_a, "--levels", "3"]) == 0
    assert main(["convergence", cfg_b, "--meshes", ",".join(paths)]) == 0
    table = (tmp_path / "a" / "convergence.csv").read_bytes()
    assert len(table.splitlines()) == 4
    assert table == (tmp_path / "b" / "convergence.csv").read_bytes()


def test_convergence_reads_mesh_files(tmp_path, capsys):
    # Three refine4 levels written as MSH files give the table that
    # --levels builds from the same base mesh.
    prob = get_problem("advect-gauss")
    mesh = prob.mesh_builder(8)
    paths = []
    for level in range(3):
        mesh.name_boundary(prob.namer)
        paths.append(str(tmp_path / f"level{level}.msh"))
        write_msh2(paths[-1], mesh)
        mesh = refine4(mesh)
    run = (
        "[run]\nproblem = advect-gauss\nfinal_time = 0.4\nmesh_n = 8\n"
        "mode = ho\n[output]\ndirectory = {out}\n"
    )
    cfg_a = write_cfg(tmp_path, run.format(out=tmp_path / "a"), "a.ini")
    cfg_b = write_cfg(tmp_path, run.format(out=tmp_path / "b"), "b.ini")
    assert main(["convergence", cfg_a, "--meshes", ",".join(paths)]) == 0
    assert main(["convergence", cfg_b, "--levels", "3"]) == 0
    table = (tmp_path / "a" / "convergence.csv").read_bytes()
    assert len(table.splitlines()) == 4
    assert table == (tmp_path / "b" / "convergence.csv").read_bytes()


def test_boundary_roles_override_the_problem(tmp_path, capsys):
    msh = tmp_path / "ramp.msh"
    assert main(["make-mesh", "double-mach", "4", str(msh)]) == 0
    path = write_cfg(
        tmp_path,
        f"[run]\nproblem = double-mach\nfinal_time = 0.002\nmesh = {msh}\n"
        f"[output]\ndirectory = {tmp_path / 'o'}\nlog_every = 0\n"
        "[boundary]\nwall = outflow\noutflow = wall\ninflow = farfield\n",
    )
    assert main(["run", path]) == 0
    prob = get_problem("double-mach")
    model = prob.make_model(1.4)
    bcs = _resolve_boundaries(prob, model, load_config(path))
    assert isinstance(bcs["wall"], Outflow)
    assert isinstance(bcs["outflow"], Wall)
    assert isinstance(bcs["inflow"], FarField)
    # An inflow role needs a far-field state from the problem.
    walled = dataclasses.replace(prob, boundaries=lambda model: {"wall": Wall()})
    with pytest.raises(ConfigError, match="no far-field state"):
        _resolve_boundaries(walled, model, RunConfig(boundary={"x": "inflow"}))


def test_every_step_outputs(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = write_cfg(
        tmp_path,
        FS_RUN.format(T=0.02, out=out).replace("log_every = 0", "log_every = 1")
        + "vtk_every = 1\ndiagnostics_every = 1\n",
    )
    assert main(["run", cfg]) == 0
    steps = len((out / "journal.csv").read_text().splitlines()) - 1
    assert steps >= 2
    logged = capsys.readouterr().out.splitlines()
    assert sum(ln.startswith("step") for ln in logged) == steps
    for stem, ext in (("averages", "vtk"), ("points", "vtk"), ("diagnostics", "csv")):
        names = sorted(p.name for p in out.glob(f"{stem}_*.{ext}"))
        assert names == [f"{stem}_{k:06d}.{ext}" for k in range(1, steps + 1)]
        # The last step's dump is the final output.
        last = (out / names[-1]).read_bytes()
        assert last == (out / f"{stem}.{ext}").read_bytes()


@pytest.mark.parametrize(
    "problem, limits",
    [("kpp", "rho_min = 0.1"), ("double-mach", "lo = 0.0\nhi = 1.0")],
)
def test_limits_that_do_not_fit_the_model_exit_2(tmp_path, capsys, problem, limits):
    cfg = write_cfg(
        tmp_path, f"[run]\nproblem = {problem}\nmesh_n = 4\n[limits]\n{limits}\n"
    )
    assert main(["run", cfg]) == 2
    assert "need a" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cfg, enforce, assert_",
    [
        (
            RunConfig(problem="rotating-shapes", lo=0.25, hi=0.75),
            (0.25, 0.75),
            (0.25 - 1e-9, 0.75 + 1e-9),
        ),
        (
            RunConfig(problem="free-stream", rho_min=0.5),
            (1.0, 0.8e-10),
            (0.5, 0.4e-10),
        ),
    ],
)
def test_limits_reach_the_stepper(cfg, enforce, assert_):
    prob = get_problem(cfg.problem)
    model = prob.make_model(cfg.gamma)
    mesh = prob.mesh_builder(4)
    mesh.name_boundary(prob.namer)
    bc = BoundaryHandler(mesh, model, prob.boundaries(model))
    stepper = _make_stepper(prob, model, mesh, bc, cfg)
    for dom, want in (
        (stepper.enforce_domain, enforce),
        (stepper.assert_domain, assert_),
    ):
        got = (dom.lo, dom.hi) if model.nvars == 1 else (dom.rho_min, dom.p_min)
        assert got == pytest.approx(want, rel=1e-12)


def test_convergence_checks_initial_data_like_run(tmp_path, capsys):
    # The floor rho_min = 2 excludes the free-stream density 1.4: both
    # commands reject the initial data as bad input.
    cfg = write_cfg(
        tmp_path,
        "[run]\nproblem = free-stream\nmesh_n = 4\nfinal_time = 0.01\n"
        f"[limits]\nrho_min = 2.0\n[output]\ndirectory = {tmp_path / 'o'}\n",
    )
    for argv in (["run", cfg], ["convergence", cfg, "--levels", "3"]):
        assert main(argv) == 2
        assert "leaves the invariant domain" in capsys.readouterr().err


@pytest.mark.parametrize("limits", ["", "[limits]\nlo = -1\nhi = 2\n"])
def test_bp_without_an_invariant_domain_exits_2(tmp_path, capsys, limits):
    # `advect-gauss` has no invariant domain, so `bp` needs one from
    # `[limits]`; without it both commands reject the config as bad input.
    cfg = write_cfg(
        tmp_path,
        "[run]\nproblem = advect-gauss\nmesh_n = 4\nmode = bp\nfinal_time = 0.5\n"
        f"{limits}[output]\ndirectory = {tmp_path / 'o'}\nlog_every = 0\n",
    )
    if limits:
        assert main(["run", cfg]) == 0
        return
    for argv in (["run", cfg], ["convergence", cfg, "--levels", "3"]):
        assert main(argv) == 2
        assert "set [limits] lo and hi" in capsys.readouterr().err
