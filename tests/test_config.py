import pytest

from triblend.config import RunConfig, parse_config, serialize_config
from triblend.exceptions import ConfigError

SAMPLE = """
[run]
problem = kpp
final_time = 0.5
cfl = 0.15
mode = bp
mesh_n = 12

[limits]
lo = -1.0
hi = 100.0

[output]
directory = results
vtk_every = 25

[boundary]
Left = inflow
top = wall
"""


def test_parse_reads_all_sections():
    cfg = parse_config(SAMPLE)
    assert cfg.problem == "kpp"
    assert cfg.final_time == 0.5
    assert cfg.cfl == 0.15
    assert cfg.mode == "bp"
    assert cfg.mesh_n == 12
    assert cfg.lo == -1.0 and cfg.hi == 100.0
    assert cfg.directory == "results"
    assert cfg.vtk_every == 25
    # Boundary names keep their case; they must match mesh edge names.
    assert cfg.boundary == {"Left": "inflow", "top": "wall"}


def test_round_trip_is_idempotent():
    text1 = serialize_config(parse_config(SAMPLE))
    text2 = serialize_config(parse_config(text1))
    assert text1 == text2


def test_round_trip_preserves_float_values_exactly():
    cfg = RunConfig(problem="kpp", cfl=0.1 + 1e-16, c1=1.7, final_time=1 / 3)
    back = parse_config(serialize_config(cfg))
    assert back.cfl == cfg.cfl
    assert back.c1 == cfg.c1
    assert back.final_time == cfg.final_time


def test_defaults_only_need_problem():
    cfg = parse_config("[run]\nproblem = advect-gauss\n")
    assert cfg.cfl == 0.2
    assert cfg.mode == "full"
    assert cfg.mesh is None and cfg.mesh_n is None
    assert cfg.final_time is None
    assert cfg.boundary == {}


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[run]\nmode = full\n", "problem"),
        ("[run]\nproblem = kpp\ncfl = 0\n", "cfl"),
        ("[run]\nproblem = kpp\ncfl = 1.2\n", "cfl"),
        ("[run]\nproblem = kpp\nmode = magic\n", "mode"),
        # A removed option is an unknown key, not a silently ignored one.
        ("[run]\nproblem = kpp\neps_policy = huge\n", "eps_policy"),
        ("[run]\nproblem = kpp\ngamma = 1.0\n", "gamma"),
        ("[run]\nproblem = kpp\nfinal_time = -1\n", "final_time"),
        ("[run]\nproblem = kpp\nmesh_n = 0\n", "mesh_n"),
        ("[run]\nproblem = kpp\nc1 = -0.5\n", "damping"),
        ("[run]\nproblem = kpp\n[limits]\nlo = 2\nhi = 1\n", "lo < hi"),
        # One side alone is no interval, not the default one.
        ("[run]\nproblem = kpp\n[limits]\nhi = 2.0\n", "both lo and hi"),
        ("[run]\nproblem = kpp\n[limits]\nlo = 2.0\n", "both lo and hi"),
        ("[run]\nproblem = kpp\n[limits]\nrho_min = 0\n", "rho_min"),
        ("[run]\nproblem = kpp\n[output]\nlog_every = -2\n", "log_every"),
        ("[run]\nproblem = kpp\n[boundary]\ntop = slippery\n", "role"),
    ],
)
def test_validation_rejects(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


def test_unknown_section_and_key_rejected():
    with pytest.raises(ConfigError, match=r"\[solver\]"):
        parse_config("[run]\nproblem = kpp\n[solver]\nx = 1\n")
    with pytest.raises(ConfigError, match="cflnumber"):
        parse_config("[run]\nproblem = kpp\ncflnumber = 0.2\n")


def test_bad_value_type_reported():
    with pytest.raises(ConfigError, match="run.cfl"):
        parse_config("[run]\nproblem = kpp\ncfl = fast\n")


def test_unparsable_text_reported():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config("problem = kpp\n")  # key before any section header
