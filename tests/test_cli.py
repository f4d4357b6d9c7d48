"""Command-line behavior, exercised through main() without a subprocess."""

import json

import pytest

from smoothness_lab.cli import main
from smoothness_lab.harness import corpus

# Coarse settings keep the command tests fast; numerical quality of the
# default configuration is the acceptance suite's job.
REDUCED = """\
quad_n = 8
norm_nodes = 64
t_points = 4
kdeg = 16     # witness degree cap for the K-functional checks
approx_grid = 64
"""


def _expected_method(row, solver):
    # an entry that declares a degree below n is its own best approximation
    degree = {e.label: e.handle.degree for e in corpus(7)}[row["label"]]
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


def test_table_bestapprox_to_file(tmp_path, capsys, config_file):
    out = tmp_path / "table.json"
    assert main(["table", "--op", "bestapprox", "--config", config_file, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    rows = payload["rows"]
    assert len(rows) == 8 * 5
    assert all(row["method"] == _expected_method(row, "l2-projection") for row in rows)
    assert sum(row["method"] == "exact-fit" for row in rows) == 19


@pytest.mark.parametrize("p,alpha", [("3", "1.0833333333"), ("1.5", "0.9166666667")])
def test_table_bestapprox_non_hilbert(capsys, p, alpha):
    assert main(["table", "--op", "bestapprox", "--p", p, "--alpha", alpha]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 8 * 5
    assert all(row["method"] == _expected_method(row, "irls-grid") for row in rows)


@pytest.mark.parametrize(
    "p,alpha", [("1.5", "0.9"), ("3", "0.9"), ("1", "0.75"), ("inf", "1.2")], ids=["1.5", "3", "1", "inf"]
)
def test_sweep_non_hilbert_passes(capsys, p, alpha):
    # every check, modulus-k-stability included, at the default Config()
    assert main(["sweep", "--p", p, "--alpha", alpha]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert len(checks) == 6 and all(c["status"] == "pass" for c in checks)


def test_inadmissible_p_exits_two(capsys):
    assert main(["verify", "--p", "0.5"]) == 2
    assert "p must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--degrees", ""], "degrees must not be empty"),
        (["verify", "--quad-nodes", "0"], "quad_n must be a positive integer"),
        (["sweep", "--degrees=2,4.5"], "bad value for degrees"),
        (["sweep", "--deltas=0.1,abc"], "bad value for deltas"),
        (["sweep", "--degrees=0,4"], "degrees must be positive integers, got 0"),
        (["sweep", "--degrees=-3,4"], "degrees must be positive integers, got -3"),
        (["sweep", "--deltas=0.1,3.2"], "deltas must be finite and lie in [0, pi), got 3.2"),
        (["sweep", "--tol", "-1"], "tol_scale must be finite and positive, got -1.0"),
        (["verify", "--tol", "nan"], "tol_scale must be finite and positive, got nan"),
        (["sweep", "--kdeg", "65"], "kdeg must be at most 64, got 65"),
        (["sweep", "--degrees", "2,100"], "degrees must be at most 64, got 100"),
    ],
)
def test_bad_config_value_exits_two(capsys, argv, message):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_bad_value_in_config_file_names_line_and_key(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("quad_n = 8\nkdeg = many\n")
    assert main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:2: bad value for kdeg" in err and err.count("\n") == 1


def test_too_few_norm_nodes_for_the_witness_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("norm_nodes = 16\n")
    assert main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "norm_nodes must be at least kdeg + 1 = 33, got 16" in err


def test_sweep_with_fewer_norm_nodes_than_the_deeper_witness_needs(tmp_path, capsys):
    # modulus-k-stability's deeper witness (degree 48 by default) is capped
    # at norm_nodes - 1 = 39, the deepest the nodes determine and still
    # deeper than kdeg = 32
    path = tmp_path / "nodes.cfg"
    path.write_text("norm_nodes = 40\n")
    assert main(["sweep", "--config", str(path)]) == 0
    checks = {c["check_id"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert len(checks) == 6 and all(c["status"] == "pass" for c in checks.values())
    assert "deeper witness" in checks["modulus-k-stability"]["note"]


def test_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("bogus = 3\n")
    assert main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "unknown config key" in err
    assert f"{path}:1" in err


@pytest.mark.parametrize("key", ["pair_nodes", "pair_quad", "coeff_nodes", "coeff_quad", "jackson_quad"])
def test_retired_config_key_is_ignored_with_a_warning(tmp_path, capsys, config_file, key):
    # older files still set the knobs of the t-rule Jackson operator and of
    # the fixed rules of self-adjointness, coefficient-multiplier and l2-optimality
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
