import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import instanton_zeta
from instanton_zeta import cli, results
from instanton_zeta.cli import (FORM_LEAVES, MAX_ORDER, main, parse_tau,
                                table_to_dict)
from instanton_zeta.formexpr import CLOSED_FORMS, leaf
from instanton_zeta.numeric import eval_form
from instanton_zeta.results import euler_table

# the child interpreter imports the package this test imported, whether it
# is installed or only on the path that pytest was given
_SRC = os.path.dirname(os.path.dirname(instanton_zeta.__file__))


def run_cli(*args, module="instanton_zeta.cli"):
    path = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    return proc.returncode, proc.stdout, proc.stderr


def test_parse_tau():
    # the decimal digits of each part, exact, not their nearest doubles
    assert parse_tau("i") == ("0", "1")
    assert parse_tau("0.3+1.1i") == ("0.3", "+1.1")
    assert parse_tau("-0.2+0.9i") == ("-0.2", "+0.9")
    assert parse_tau("2j") == ("0", "2")
    assert parse_tau("0.5+.5i") == ("0.5", "+.5")
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


def test_verify_csv_format(capsys):
    import csv
    assert main(["verify", "--suite", "section1", "--order", "4",
                 "--format", "csv"]) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert header == ["suite", "identity", "max_exponent", "passed",
                      "first_difference", "seconds"]
    assert rows
    for suite, _, bound, passed, diff, seconds in rows:
        assert (suite, bound, passed, diff) == ("section1", "4", "True", "")
        assert re.fullmatch(r"\d+\.\d{3}", seconds)


def _failing_suite(monkeypatch):
    # one passing and one failing line, the failure first at q^3
    from instanton_zeta.qseries import QQ, QSeries
    from instanton_zeta.report import VerifyReport, compare

    def geometric(bump=0):
        return QSeries.from_pairs(QQ, [(n, 1 + bump * (n == 3))
                                       for n in range(7)], 6, 1)

    report = VerifyReport(suite="demo", results=[
        compare("same", lambda: (geometric(), geometric()), 6),
        compare("perturbed", lambda: (geometric(), geometric(1)), 6)])
    monkeypatch.setattr(cli, "_run_suite", lambda *args: [report])


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_verify_failure_path(fmt, monkeypatch, capsys):
    _failing_suite(monkeypatch)
    assert main(["verify", "--suite", "section1", "--format", fmt]) == 1
    out, err = capsys.readouterr()
    assert err == "first failure: perturbed at q^3\n"
    if fmt == "text":
        assert out.splitlines()[-1] == "FAILURES present"
        assert re.search(r"FAIL perturbed  \(checked to q\^6, \d+\.\d\ds\)"
                         r"  first difference at q\^3", out)
    elif fmt == "json":
        data = json.loads(out)
        assert data["ok"] is False
        assert data["suites"][0]["ok"] is False
        line = data["suites"][0]["results"][1]
        assert (line["name"], line["passed"], line["first_difference"]) == (
            "perturbed", False, "3")
    else:
        rows = out.splitlines()[1:]
        assert [row.rsplit(",", 1)[0] for row in rows] == [
            "demo,same,6,True,", "demo,perturbed,6,False,3"]


def test_verify_wall_oracle_suite(capsys):
    assert main(["verify", "--suite", "wall-oracle", "--order", "8",
                 "--oracle-order", "3"]) == 0


def test_verify_negative_order_usage_error():
    code, out, err = run_cli("verify", "--order", "-1")
    assert code == 2


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    # two calls share one parser and print what fresh parsers print, and a
    # usage error after a good call still names its subcommand's usage
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    cli._parser.cache_clear()
    argv = ["eval", "--form", "E4", "--series", "--order", "3"]
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert len(built) == 1
    assert outputs[0] == outputs[1] == run_cli(*argv)[1]
    with pytest.raises(SystemExit) as exc:
        main(["table", "--class", "odd", "--max-delta", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: instanton-zeta table ")
    assert ("instanton-zeta table: error: --max-delta must be nonnegative"
            in err)
    assert len(built) == 1
    cli._parser.cache_clear()


@pytest.mark.parametrize("argv", [
    ["verify", "--order", "-1"],
    ["table", "--class", "odd", "--max-delta", "161"],
    ["eval", "--form", "E4", "--tau", "i", "--scale", "0"],
    ["sduality", "--tau", "i", "--digits", "5"],
])
def test_validation_error_prints_the_subcommand_usage(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: instanton-zeta {argv[0]} ")
    assert f"instanton-zeta {argv[0]}: error: " in err


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


def test_verify_smoothness_below_its_first_odd_line_is_a_usage_error(capsys):
    # the vOdd suite starts at Delta = 1/2, so --order 1/4 checked nothing
    # in it and passed
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "smoothness", "--order", "1/4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: instanton-zeta verify ")
    assert ("instanton-zeta verify: error: --order must be at least 1/2 for "
            "--suite smoothness") in err
    assert main(["verify", "--suite", "smoothness", "--order", "1/2",
                 "--format", "json"]) == 0
    suites = json.loads(capsys.readouterr().out)["suites"]
    assert [(s["suite"], len(s["results"])) for s in suites] == [
        ("smoothness[vEven]", 1), ("smoothness[vOdd]", 1)]


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
    # the JSON carries the in-memory table exactly
    assert data == table_to_dict(euler_table("odd", Fraction(7, 2)))


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


@pytest.mark.parametrize("order", [[], ["--order", "5"]],
                         ids=["order-default", "order-given"])
def test_table_negative_max_delta_names_the_flag(order, monkeypatch, capsys):
    # checked before --order defaults to --max-delta, and before a build
    _refuse_to_build(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["table", "--class", "even", "--max-delta", "-1", *order])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--max-delta must be nonnegative" in err
    assert "--order" not in err.splitlines()[-1]


def test_table_order_defaults_to_max_delta(monkeypatch, capsys):
    # --order only bounds --max-delta for a table, so it defaults to it; the
    # table itself is stubbed out, so nothing is built
    asked = []

    def table(cls, max_delta):
        asked.append(max_delta)
        return results.EulerTable(label=cls, rows=[])

    monkeypatch.setattr(results, "euler_table", table)
    assert main(["table", "--class", "odd", "--max-delta", "24",
                 "--format", "json"]) == 0
    assert asked == [24]
    assert "exceeds" not in capsys.readouterr().err


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


def test_eval_format_csv_is_a_usage_error(capsys):
    # eval writes json or text only
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--form", "E2", "--series", "--order", "2",
              "--format", "csv"])
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


def test_eval_numeric(capsys):
    assert main(["eval", "--form", "theta3", "--tau", "i",
                 "--digits", "25", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["value"]["re"] - 1.0864348112133080) < 1e-12
    assert abs(data["value"]["im"]) < 1e-12


def test_eval_reads_tau_exactly_from_its_digits(capsys):
    # 0.1 is not a double: E4 at the nearest double differs from E4 at
    # 1/10 + i from the 17th digit on
    assert main(["eval", "--form", "E4", "--tau", "0.1+1i", "--digits", "40",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["tau"] == "(0.1+1j)"
    with mp.workdps(55):
        want = eval_form(leaf("E4"), mp.mpc(mp.mpf(1) / 10, 1), 40)
        assert data["value_str"] == mp.nstr(want, 40)
    assert data["value_str"].startswith("(1.364904320524988707977")


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_eval_value_str_carries_the_requested_digits(capsys):
    assert main(["eval", "--form", "E4", "--tau", "i", "--digits", "60",
                 "--format", "json"]) == 0
    text = json.loads(capsys.readouterr().out)["value_str"]
    with mp.workdps(80):
        want = eval_form(leaf("E4"), 1j, 60)
        got = mp.mpmathify(text)
        assert abs(got - want) < mp.mpf(10) ** -58 * abs(want)


def test_eval_json_beyond_float_range_is_strict(capsys):
    # |Z_SO3(130i)| is about 1.4e354, beyond the double range: the float
    # fields are null and value_str carries the value
    assert main(["eval", "--form", "Z_SO3", "--tau", "130i",
                 "--format", "json"]) == 0
    data = _strict_json(capsys.readouterr().out)
    assert data["value"]["re"] is None
    assert data["value"]["im"] == 0.0
    assert mp.mpmathify(data["value_str"]).real < mp.mpf("-1e354")
    # values inside the range keep their floats
    assert main(["eval", "--form", "theta2", "--tau", "0.3+300i",
                 "--digits", "10", "--format", "json"]) == 0
    data = _strict_json(capsys.readouterr().out)
    assert abs(data["value"]["re"] - 9.13345247483134e-103) < 1e-113


@pytest.mark.parametrize("scale", ["0", "-1"])
def test_eval_nonpositive_scale_usage_error(scale):
    code, out, err = run_cli("eval", "--form", "E2", "--series",
                             f"--scale={scale}")
    assert code == 2
    assert "--scale must be positive" in err


@pytest.mark.parametrize("form", ["Z_SU2", "Z_odd", "Z0"])
@pytest.mark.parametrize("scale", ["2", "1/3"])
def test_eval_scale_composite_series(form, scale, capsys):
    # the series of f(k tau) to q^1 is the series of f(tau) to q^(1/k) with
    # every exponent multiplied by k
    def series(*args):
        assert main(["eval", "--form", form, "--series", "--format", "json",
                     *args]) == 0
        data = json.loads(capsys.readouterr().out)
        return data["truncation"], [(Fraction(t["exponent"]),
                                     t["coefficient"]) for t in data["series"]]

    k = Fraction(scale)
    trunc, got = series("--order", "1", "--scale", scale)
    _, unscaled = series("--order", str(1 / k))
    assert trunc == "1"
    assert got and got == [(e * k, c) for e, c in unscaled]


@pytest.mark.parametrize("form", ["Z_SO3", "Z_even", "Zw1"])
def test_eval_scale_composite_tau(form, capsys):
    # f at --scale 2 and tau is f at 2 tau
    def value(*args):
        assert main(["eval", "--form", form, "--digits", "30",
                     "--format", "json", *args]) == 0
        return json.loads(capsys.readouterr().out)["value"]

    got = value("--tau", "0.1+1.2i", "--scale", "2")
    want = value("--tau", "0.2+2.4i")
    unscaled = value("--tau", "0.1+1.2i")
    assert got == pytest.approx(want, rel=1e-12)
    assert got != pytest.approx(unscaled, rel=1e-3)


@pytest.mark.parametrize("form", ["E4", "Z_SU2"])
def test_eval_scale_below_minimum_im_tau(form, capsys):
    # the minimum Im tau applies to the argument evaluated, k tau
    assert main(["eval", "--form", form, "--tau", "2i",
                 "--scale", "1/100"]) == 1
    assert "Im tau = 0.02 below the configured minimum" in \
        capsys.readouterr().err


def test_eval_requires_target(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--form", "theta3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: instanton-zeta eval ")
    assert err.endswith("instanton-zeta eval: error: nothing to do: pass "
                        "--tau and/or --series\n")


def test_eval_unknown_form(capsys):
    assert main(["eval", "--form", "nope", "--tau", "i"]) == 1


def test_eval_forms_are_the_leaves_and_the_closed_forms(capsys):
    for name in FORM_LEAVES + tuple(CLOSED_FORMS):
        assert main(["eval", "--form", name, "--tau", "i",
                     "--digits", "10"]) == 0, name
    capsys.readouterr()
    assert main(["eval", "--form", "nope", "--tau", "i"]) == 1
    assert capsys.readouterr().err == (
        "error: unknown form 'nope'; choose from ('theta2', 'theta3', "
        "'theta4', 'BigTheta', 'E2', 'E2hat', 'E4', 'eta', 'e1', 'F', 'P0', "
        "'Peven', 'Podd', 'Z_SU2', 'Z_SO3', 'Z0', 'Z_even', 'Z_odd', 'Zw0', "
        "'Zw1')\n")


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


def test_sduality_report_below_float_range(capsys):
    # at 400 digits the relative error and the threshold are below the
    # smallest double; both reports still show the compared numbers
    assert main(["sduality", "--tau", "0.3+1.2i", "--digits", "400"]) == 0
    out = capsys.readouterr().out
    assert "threshold 1.0e-390: pass" in out
    rel = re.search(r"relative error = (\S+)", out).group(1)
    assert 0 < mp.mpf(rel) < mp.mpf("1e-390")
    assert main(["sduality", "--tau", "0.3+1.2i", "--digits", "400",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["threshold_str"] == "1.0e-390"
    assert data["rel_error_str"] == rel
    assert isinstance(data["rel_error"], float)
    assert isinstance(data["threshold"], float)


def test_sduality_holomorphic_diagnostic(capsys):
    assert main(["sduality", "--tau", "i", "--digits", "30",
                 "--holomorphic", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is None
    assert data["rel_error"] > 1e-6


def test_sduality_real_tau_exit_two(capsys):
    for tau in ("1.0", "0", "-2"):
        assert main(["sduality", f"--tau={tau}"]) == 2
        err = capsys.readouterr().err
        assert f"tau = {tau} is not in the upper half-plane" in err
        assert "cannot parse" not in err


def test_sduality_dual_point_too_close_names_it(capsys):
    # Im(tau) = 30 is fine; Im(-1/tau) = 1/30 is below the minimum
    assert main(["sduality", "--tau", "30i"]) == 1
    err = capsys.readouterr().err
    assert "Im(-1/tau) = 0.033333" in err
    assert "Im(tau)" not in err


def test_sduality_digits_floor():
    code, out, err = run_cli("sduality", "--tau", "i", "--digits", "5")
    assert code == 2


@pytest.mark.parametrize("command", [["sduality"], ["eval", "--form", "E4"]])
def test_digits_above_cap_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--tau", "i", "--digits", "1001"])
    assert exc.value.code == 2
    assert "--digits must be between 10 and 1000" in capsys.readouterr().err


def test_sduality_negative_real_part_equals_form(capsys):
    # argparse needs the --tau=value form when the real part is negative
    assert main(["sduality", "--tau=-0.2+0.9i", "--digits", "30"]) == 0
    assert "pass" in capsys.readouterr().out


def test_package_runs_as_a_module():
    code, out, err = run_cli("sduality", "--tau", "i",
                             module="instanton_zeta")
    assert code == 0, err
    assert "pass" in out


def _refuse_to_build(monkeypatch):
    def build(args):
        raise AssertionError("an out-of-range order reached a build")

    for name in ("cmd_verify", "cmd_table", "cmd_eval"):
        monkeypatch.setattr(cli, name, build)


_ABOVE_BOUND = [
    pytest.param(["verify", "--suite", "d8", "--order", "1000000000"],
                 "--order", "verify", id="verify-order-1e9"),
    pytest.param(["verify", "--suite", "theorem", "--order", "121"],
                 "--order", "verify", id="verify-order"),
    pytest.param(["verify", "--suite", "d8", "--order", "2",
                  "--oracle-order", "17"],
                 "--oracle-order", "oracle", id="verify-oracle-order"),
    pytest.param(["table", "--class", "even", "--max-delta", "161"],
                 "--max-delta", "table", id="table-max-delta"),
    pytest.param(["table", "--class", "even", "--max-delta", "2",
                  "--order", "1e400"], "--order", "table", id="table-order"),
    pytest.param(["eval", "--form", "Z_SO3", "--series", "--order", "4001"],
                 "--order/--scale", "eval", id="eval-order"),
    pytest.param(["eval", "--form", "E2", "--series", "--order", "41",
                  "--scale", "1/100"], "--order/--scale", "eval",
                 id="eval-order-over-scale"),
]


@pytest.mark.parametrize("argv,flag,key", _ABOVE_BOUND)
def test_order_above_its_bound_is_a_usage_error(argv, flag, key,
                                                monkeypatch, capsys):
    _refuse_to_build(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert (f"{flag} must be at most {MAX_ORDER[key]} for {argv[0]}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ["verify", "--order", "120", "--oracle-order", "16"],
    ["table", "--class", "odd", "--max-delta", "160"],
    ["eval", "--form", "Z_SO3", "--series", "--order", "4000"],
    ["eval", "--form", "E2", "--series", "--order", "40", "--scale", "1/100"],
    # the order bounds only the series expansion
    ["eval", "--form", "E2", "--tau", "i", "--order", "100000"],
])
def test_orders_at_their_bound_pass_validation(argv, monkeypatch):
    for name in ("cmd_verify", "cmd_table", "cmd_eval"):
        monkeypatch.setattr(cli, name, lambda args: 0)
    assert main(argv) == 0


# Every value either fails validation or runs at a tiny order, so no
# example starts a large build.
_ORDERS = ("0", "1/2", "1", "2", "-1", "abc", "1/0", "nan", "1e400", "121",
           "161", "4001")
_FLAGS = {
    "verify": (("--suite", ("section1", "d8", "limit-lemmas", "smoothness",
                            "wall-oracle", "theorem", "all", "bogus")),
               ("--order", _ORDERS), ("--oracle-order", _ORDERS + ("17",)),
               ("--format", ("json", "csv", "text", "xml"))),
    "table": (("--class", ("v0", "even", "odd", "lambda0", "lambdaEven",
                           "lambdaOdd", "bogus")),
              ("--max-delta", _ORDERS), ("--order", _ORDERS),
              ("--format", ("json", "csv", "text", "xml"))),
    "eval": (("--form", ("E2", "E2hat", "theta3", "Z_SU2", "Zw0", "nope")),
             ("--series", None),
             ("--tau", ("i", "0.3+1.1i", "300i", "0.01i", "1", "abc")),
             ("--scale", ("1", "2", "1/2", "0", "-1", "1/1000000000")),
             ("--digits", ("10", "9", "1001", "x")),
             ("--e2", ("anomaly", "E2", "bogus")),
             ("--order", _ORDERS), ("--format", ("json", "csv", "text"))),
    "sduality": (("--tau", ("i", "0.3+1.1i", "300i", "-1i", "1", "abc")),
                 ("--digits", ("10", "9", "1001", "x")),
                 ("--holomorphic", None),
                 ("--format", ("json", "csv", "text"))),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag, values in _FLAGS[command]:
        if draw(st.booleans()):
            argv.append(flag if values is None
                        else f"{flag}={draw(st.sampled_from(values))}")
    return argv


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_argv())
def test_any_argv_ends_with_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
