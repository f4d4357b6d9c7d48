"""Command-line behavior, exercised through main() without a subprocess."""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

import smoothness_lab

from smoothness_lab.cli import main
from smoothness_lab.harness import corpus
from smoothness_lab.space import _declared_degree

# Coarse settings keep the command tests fast; numerical quality of the
# default configuration is the acceptance suite's job.
REDUCED = """\
quad_n = 8
kdeg = 16     # witness degree cap for the K-functional checks
"""


def _expected_method(row, solver):
    # an entry that declares a degree below n on all of [-1, 1] is its own
    # best approximation
    degree = {e.label: _declared_degree(e.handle) for e in corpus(7)}[row["label"]]
    return "exact-fit" if degree is not None and degree < row["n"] else solver


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(REDUCED)
    return str(path)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_missing_command_exits_two(capsys):
    assert main([]) == 2


def test_table_psi(capsys):
    assert main(["table", "--op", "psi"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 1
    assert payload["table"] == "psi"
    rows = payload["rows"]
    assert len(rows) == 42
    # degree 0 multiplier is identically 1; translating by 1 changes nothing
    for row in rows:
        if row["n"] == 0 or row["y"] == 1.0:
            assert abs(row["psi"] - 1.0) < 1e-10


def test_table_write_failure_exits_one(tmp_path, capsys):
    assert main(["table", "--op", "psi", "--out", str(tmp_path / "missing" / "t.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "t.json" in captured.err


def test_table_requires_op(capsys):
    assert main(["table"]) == 2


def test_table_rejects_unknown_op(capsys):
    assert main(["table", "--op", "bogus"]) == 2


def test_table_modulus_csv(capsys, config_file):
    assert main(["table", "--op", "modulus", "--format", "csv", "--config", config_file]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "delta,label,modulus"
    # 8 corpus entries across the 7 default deltas
    assert len(lines) == 1 + 8 * 7


@pytest.mark.parametrize("op", ["psi", "modulus", "bestapprox"])
def test_table_csv_holds_the_cells_of_the_json_rows(capsys, config_file, op):
    # one writer for both formats: a float by its repr, None as an empty cell
    assert main(["table", "--op", op, "--config", config_file]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert main(["table", "--op", op, "--format", "csv", "--config", config_file]) == 0
    header, *cells = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert header == sorted({k for row in rows for k in row})
    cell = lambda v: "" if v is None else repr(v) if isinstance(v, float) else str(v)
    assert cells == [[cell(row.get(k)) for k in header] for row in rows]


def test_table_bestapprox_to_file(tmp_path, capsys, config_file):
    out = tmp_path / "table.json"
    assert main(["table", "--op", "bestapprox", "--config", config_file, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    rows = payload["rows"]
    assert len(rows) == 8 * 5
    assert all(row["method"] == _expected_method(row, "irls-grid") for row in rows)
    assert sum(row["method"] == "exact-fit" for row in rows) == 19


@pytest.mark.parametrize("p,alpha", [("3", "1.0833333333"), ("1.5", "0.9166666667")])
def test_table_bestapprox_non_hilbert(capsys, p, alpha):
    assert main(["table", "--op", "bestapprox", "--p", p, "--alpha", alpha]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 8 * 5
    assert all(row["method"] == _expected_method(row, "irls-grid") for row in rows)


@pytest.mark.parametrize(
    "p,alpha",
    [("1.5", "0.9"), ("3", "0.9"), ("1", "0.75"), ("inf", "1.2"), ("40", "1.2375")],
    ids=["1.5", "3", "1", "inf", "40"],
)
def test_sweep_non_hilbert_passes(capsys, p, alpha):
    # every check, modulus-k-stability included, at the default Config();
    # at p = 40 every solve starts from the better of the L2 and p = inf fits
    assert main(["sweep", "--p", p, "--alpha", alpha]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert len(checks) == 6 and all(c["status"] == "pass" for c in checks)


def test_inadmissible_p_exits_two(capsys):
    assert main(["verify", "--p", "0.5"]) == 2
    assert "p must be" in capsys.readouterr().err


@pytest.mark.parametrize("op", ["modulus", "bestapprox"])
def test_table_of_an_inadmissible_space_exits_two(capsys, op):
    # the range that verify and sweep enforce holds for the tables too
    assert main(["table", "--op", op, "--p", "1.5", "--alpha", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: (p, alpha) = (1.5, 5) is outside the admissible range")


def test_table_psi_needs_no_space(capsys):
    assert main(["table", "--op", "psi", "--p", "1.5", "--alpha", "5"]) == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 42


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--degrees", ""], "degrees must not be empty"),
        (["verify", "--quad-nodes", "0"], "quad_n must be an integer in [1, 2048], got 0"),
        (["sweep", "--degrees=2,4.5"], "bad value for degrees"),
        (["sweep", "--deltas=0.1,abc"], "bad value for deltas"),
        (["sweep", "--degrees=0,4"], "degrees must be an integer in [1, 64], got 0"),
        (["sweep", "--degrees=-3,4"], "degrees must be an integer in [1, 64], got -3"),
        (["sweep", "--deltas=0.1,3.2"], "deltas must be finite and lie in [0, pi), got 3.2"),
        (["sweep", "--kdeg", "0"], "kdeg must be an integer in [1, 64], got 0"),
        (["verify", "--alpha", "5"], "(p, alpha) = (2, 5) is outside the admissible range"),
        (["sweep", "--kdeg", "65"], "kdeg must be an integer in [1, 64], got 65"),
        (["sweep", "--degrees", "2,100"], "degrees must be an integer in [1, 64], got 100"),
        (["verify", "--seed", "-1"], "seed must be a nonnegative integer, got -1"),
        (["sweep", "--seed", "-3"], "seed must be a nonnegative integer, got -3"),
        # the checks double quad_n, and a rule has at most 4096 nodes
        (["verify", "--quad-nodes", "3000"], "quad_n must be an integer in [1, 2048], got 3000"),
    ],
)
def test_bad_config_value_exits_two(capsys, argv, message):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("argv", [["sweep", "--tol", "-1"], ["verify", "--tol", "nan"]], ids=["sweep", "verify"])
def test_the_retired_tol_flag_is_an_unrecognised_argument(capsys, argv):
    # every check reports its observed value and its tolerance; no flag rescales them
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "unrecognized arguments: --tol" in err


def test_bad_value_in_config_file_names_line_and_key(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("quad_n = 8\nkdeg = many\n")
    assert main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:2: bad value for kdeg" in err and err.count("\n") == 1


def test_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("bogus = 3\n")
    assert main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "unknown config key" in err
    assert f"{path}:1" in err


@pytest.mark.parametrize(
    "key",
    ["pair_nodes", "pair_quad", "coeff_nodes", "coeff_quad", "jackson_quad", "tol_scale", "norm_nodes", "t_points", "approx_grid"],
)
def test_retired_config_key_is_ignored_with_a_warning(tmp_path, capsys, config_file, key):
    # older files still set the knobs of the t-rule Jackson operator, of the
    # fixed rules of self-adjointness, coefficient-multiplier and
    # l2-optimality, the factor that scaled every tolerance, and the norm
    # rule, t grid and E solve rule that are now fixed
    old = tmp_path / "old.cfg"
    old.write_text(REDUCED + f"{key} = 256\n")
    argv = ["sweep", "--deltas", "0.4", "--degrees", "2"]
    assert main(argv + ["--config", config_file]) == 0
    want = capsys.readouterr().out
    assert main(argv + ["--config", str(old)]) == 0
    captured = capsys.readouterr()
    assert captured.out == want
    assert key not in json.loads(captured.out)["config"]
    assert captured.err.startswith("warning: ") and captured.err.count("\n") == 1
    assert f"{old}:{len(REDUCED.splitlines()) + 1}: config key '{key}'" in captured.err


def test_config_line_without_equals(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("quad_n 8\n")
    assert main(["verify", "--config", str(path)]) == 2
    assert "expected key=value" in capsys.readouterr().err


def test_unreadable_config(tmp_path, capsys):
    assert main(["verify", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_verify_deterministic_output(tmp_path, capsys, config_file):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    # quad_n=8 cannot survive the doubling check, so the exit code is 1
    assert main(["verify", "--config", config_file, "--out", str(first)]) == 1
    assert main(["verify", "--config", config_file, "--out", str(second)]) == 1
    assert capsys.readouterr().out == ""
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert len(payload["checks"]) == 28
    assert payload["config"]["quad_n"] == 8


def test_sweep_custom_grids(capsys, config_file):
    rc = main(["sweep", "--config", config_file, "--deltas", "0.1,0.4", "--degrees", "2,4"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["deltas"] == [0.1, 0.4]
    assert payload["config"]["degrees"] == [2, 4]
    statuses = {c["check_id"]: c["status"] for c in payload["checks"]}
    assert len(statuses) == 6
    # the decay check wants degrees 4 and 32; a grid without them skips it
    assert statuses["kink-error-decay"] == "skipped"


def test_sweep_accepts_infinite_p(capsys, config_file):
    rc = main(["sweep", "--config", config_file, "--p", "inf", "--deltas", "0.3", "--degrees", "2,4"])
    assert rc in (0, 1)
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["p"] == float("inf")


QUIET_COMMANDS = (
    ["verify"],
    ["sweep"],
    ["sweep", "--p", "inf", "--alpha", "1.2"],
    ["sweep", "--deltas", "0,0.1"],
    ["table", "--op", "psi"],
    ["table", "--op", "modulus"],
    ["table", "--op", "bestapprox"],
)


def test_commands_write_nothing_to_stderr(tmp_path):
    # in a fresh interpreter, where a warning prints as it does for a user
    # and LAPACK writes to the process's own stderr: every command exits 0
    # and leaves stderr empty
    code = (
        "import sys\n"
        "from smoothness_lab.cli import main\n"
        f"for i, argv in enumerate({[list(c) for c in QUIET_COMMANDS]!r}):\n"
        f"    print(main(argv + ['--out', {str(tmp_path)!r} + f'/{{i}}.out']))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(smoothness_lab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("PYTHONWARNINGS", None)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600)
    assert out.stderr == ""
    assert out.stdout.split() == ["0"] * len(QUIET_COMMANDS)


def test_sweep_at_a_large_exponent_ends_on_an_error_line():
    # p = 1000 is admissible at alpha = 1.2, and its norm rules have the
    # Gauss-Jacobi exponent p alpha = 1200: they are built, and the sweep
    # ends on the solver's ConvergenceError, not a traceback
    src = os.path.dirname(os.path.dirname(os.path.abspath(smoothness_lab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    argv = [sys.executable, "-m", "smoothness_lab.cli", "sweep", "--p", "1000", "--alpha", "1.2"]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=600)
    assert out.returncode == 1
    # the one line: no RuntimeWarning of a power that underflows at p = 1000
    assert out.stderr == "error: damped Newton did not converge within 500 iterations\n"
