import re

import numpy as np

from triblend.cli import main
from triblend.problems import get_problem, sample_initial
from triblend.spatial_ho import Tables


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
    m = re.search(r"step (\d+), t = \S+; element \d+ at \(\S+, \S+\)", err)
    assert m, err
    rows = (tmp_path / "o" / "journal.csv").read_text().splitlines()
    steps = [int(row.split(",")[0]) for row in rows[1:]]
    assert rows[0].startswith("step,t,dt,")
    assert steps == list(range(1, int(m.group(1))))


def test_unmapped_boundary_name_exits_2(tmp_path, capsys):
    # Dropping the wall leaves its edges without a condition.
    cfg = write_cfg(
        tmp_path,
        "[run]\nproblem = free-stream\nmesh_n = 4\n"
        f"[output]\ndirectory = {tmp_path / 'o'}\n"
        "[boundary]\nwall = none\n",
    )
    assert main(["run", cfg]) == 2


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
