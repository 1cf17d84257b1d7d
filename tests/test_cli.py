import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import instanton_zeta
from instanton_zeta.cli import main, parse_tau, table_from_dict, table_to_dict
from instanton_zeta.results import euler_table

# the child interpreter imports the package this test imported, whether it
# is installed or only on the path that pytest was given
_SRC = os.path.dirname(os.path.dirname(instanton_zeta.__file__))


def run_cli(*args):
    path = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "instanton_zeta.cli", *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    return proc.returncode, proc.stdout, proc.stderr


def test_parse_tau():
    assert parse_tau("i") == 1j
    assert parse_tau("0.3+1.1i") == complex(0.3, 1.1)
    assert parse_tau("-0.2+0.9i") == complex(-0.2, 0.9)
    assert parse_tau("2j") == 2j
    with pytest.raises(ValueError):
        parse_tau("1.0")
    with pytest.raises(ValueError):
        parse_tau("1-2i")


def test_verify_section1_exit_zero(capsys):
    assert main(["verify", "--suite", "section1", "--order", "10"]) == 0
    out = capsys.readouterr().out
    assert "all passed" in out


def test_verify_json_format(capsys):
    assert main(["verify", "--suite", "limit-lemmas", "--order", "8",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert {s["suite"] for s in data["suites"]} == {"a-sums", "limit-lemmas"}


def test_verify_wall_oracle_suite(capsys):
    assert main(["verify", "--suite", "wall-oracle", "--order", "8",
                 "--oracle-order", "3"]) == 0


def test_verify_negative_order_usage_error():
    code, out, err = run_cli("verify", "--order", "-1")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["--suite", "d8", "--order", "1/2"],
    ["--suite", "section1", "--order", "0"],
    ["--suite", "all", "--order", "1/2", "--oracle-order", "0"],
])
def test_verify_order_below_one_names_the_flag(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    assert "--order must be at least 1" in capsys.readouterr().err


def test_verify_oracle_order_exceeding_order_rejected():
    code, out, err = run_cli("verify", "--order", "4", "--oracle-order", "6")
    assert code == 2


def test_verify_oracle_order_ignored_by_suites_without_oracle(capsys):
    # the default --oracle-order (6) exceeds --order, but smoothness never
    # runs the oracle
    assert main(["verify", "--suite", "smoothness", "--order", "1"]) == 0


@pytest.mark.parametrize("order", ["0", "1/4"])
def test_verify_theorem_below_first_odd_term(order, capsys):
    # the odd family is empty below q^(1/2)
    assert main(["verify", "--suite", "theorem", "--order", order,
                 "--oracle-order", "0"]) == 0
    assert "odd: None" in capsys.readouterr().out


def test_table_json_round_trip(capsys):
    assert main(["table", "--class", "odd", "--max-delta", "7/2",
                 "--order", "7/2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["class"] == "odd"
    deltas = [row["delta"] for row in data["rows"]]
    assert deltas == ["1/2", "3/2", "5/2", "7/2"]
    assert data["rows"][1]["euler"] == "20"
    # exact JSON round trip back to the in-memory table
    rebuilt = table_from_dict(data)
    direct = euler_table("odd", Fraction(7, 2))
    assert table_to_dict(rebuilt) == table_to_dict(direct)
    assert rebuilt.rows == direct.rows


def test_table_betti_palindromes(capsys):
    assert main(["table", "--class", "even", "--max-delta", "3",
                 "--order", "3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    for row in data["rows"]:
        if row["betti"] is not None:
            assert row["betti"] == row["betti"][::-1]


def test_table_v0_singular_flags(capsys):
    assert main(["table", "--class", "v0", "--max-delta", "4",
                 "--order", "4", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    singular = {row["delta"]: row["singular"] for row in data["rows"]}
    assert singular == {"0": True, "1": False, "2": True,
                        "3": False, "4": True}
    chi0 = next(r for r in data["rows"] if r["delta"] == "0")
    assert chi0["euler"] == "-1/4"   # exact fraction string, never a float


@pytest.mark.parametrize("cls", ["lambda0", "lambdaEven"])
def test_table_lambda_first_grid_point(capsys, cls):
    # Delta = 0 is the first grid point; the odd series is still empty there
    assert main(["table", "--class", cls, "--max-delta", "0",
                 "--order", "0", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [row["delta"] for row in data["rows"]] == ["0"]


def test_table_max_delta_beyond_order(capsys):
    assert main(["table", "--class", "odd", "--max-delta", "9/2",
                 "--order", "4"]) == 1


def test_table_csv(capsys):
    assert main(["table", "--class", "odd", "--max-delta", "3/2",
                 "--order", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "delta,dim,euler,betti,singular"
    assert lines[1].startswith("1/2,-1,0,")
    assert lines[2].startswith("3/2,3,20,1;9;9;1,")


def test_eval_series(capsys):
    assert main(["eval", "--form", "E2", "--series", "--order", "3",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["series"][0] == {"exponent": "0", "coefficient": "1"}
    assert data["series"][1] == {"exponent": "1", "coefficient": "-24"}


def test_eval_numeric(capsys):
    assert main(["eval", "--form", "theta3", "--tau", "i",
                 "--digits", "25", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["value"]["re"] - 1.0864348112133080) < 1e-12
    assert abs(data["value"]["im"]) < 1e-12


@pytest.mark.parametrize("scale", ["0", "-1"])
def test_eval_nonpositive_scale_usage_error(scale):
    code, out, err = run_cli("eval", "--form", "E2", "--series",
                             f"--scale={scale}")
    assert code == 2
    assert "--scale must be positive" in err


def test_eval_requires_target(capsys):
    assert main(["eval", "--form", "theta3"]) == 2


def test_eval_unknown_form(capsys):
    assert main(["eval", "--form", "nope", "--tau", "i"]) == 1


def test_sduality_pass(capsys):
    assert main(["sduality", "--tau", "i", "--digits", "40"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_sduality_json(capsys):
    assert main(["sduality", "--tau", "0.3+1.1i", "--digits", "30",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert data["rel_error"] < 1e-20


def test_sduality_holomorphic_diagnostic(capsys):
    assert main(["sduality", "--tau", "i", "--digits", "30",
                 "--holomorphic", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is None
    assert data["rel_error"] > 1e-6


def test_sduality_real_tau_exit_two(capsys):
    assert main(["sduality", "--tau", "1.0"]) == 2


def test_sduality_dual_point_too_close_names_it(capsys):
    # Im(tau) = 30 is fine; Im(-1/tau) = 1/30 is below the minimum
    assert main(["sduality", "--tau", "30i"]) == 1
    err = capsys.readouterr().err
    assert "Im(-1/tau) = 0.033333" in err
    assert "Im(tau)" not in err


def test_sduality_digits_floor():
    code, out, err = run_cli("sduality", "--tau", "i", "--digits", "5")
    assert code == 2


def test_sduality_negative_real_part_equals_form(capsys):
    # argparse needs the --tau=value form when the real part is negative
    assert main(["sduality", "--tau=-0.2+0.9i", "--digits", "30"]) == 0
    assert "pass" in capsys.readouterr().out
