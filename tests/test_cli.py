import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ruledinv
from ruledinv import checks
from ruledinv.cli import main


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ggw_frozen_line(capsys):
    code, out, err = run(capsys, ["ggw", "--genus", "1", "--r0", "2", "--v", "2"])
    assert code == 0 and err == ""
    assert out == (
        '{"command": "ggw", "inputs": {"chamber": "interesting", "form": "1",'
        ' "genus": 1, "r0": 2, "v": 2}, "result": {"value": 2}}\n'
    )


def test_identical_requests_are_byte_identical(capsys):
    argv = ["sw", "--genus", "2", "--d", "0", "--n", "1", "--deg-v0", "1"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_empty_chamber_override(capsys):
    code, out, _ = run(
        capsys, ["ggw", "--genus", "1", "--r0", "2", "--v", "2", "--chamber", "empty"]
    )
    assert code == 0
    assert json.loads(out)["result"]["value"] == 0


def test_ggw_bundle_reports_v(capsys):
    code, out, _ = run(
        capsys,
        ["ggw-bundle", "--genus", "0", "--r0", "3", "--deg-e", "-1", "--deg-e0", "0"],
    )
    assert code == 0
    assert json.loads(out)["result"] == {"v": 5, "value": 1}


@pytest.mark.parametrize(
    "argv,line",
    [
        (
            ["ggw-bundle", "--genus", "2", "--r0", "2", "--deg-e", "-1", "--deg-e0", "0",
             "--chamber", "empty", "--form", "a1^b1 + 2*a2^b2 - a1^b1"],
            '{"command": "ggw-bundle", "inputs": {"chamber": "empty", "deg_e": -1,'
            ' "deg_e0": 0, "form": "2*a2^b2", "genus": 2, "r0": 2}, "result": {"v": 1,'
            ' "value": 0}}',
        ),
        (
            ["quot-count", "--genus", "3", "--r0", "2"],
            '{"command": "quot-count", "inputs": {"genus": 3, "r0": 2}, "result": {"value": 8}}',
        ),
        (
            ["evaluate", "--genus", "1", "--r0", "2", "--v", "1", "--k0", "h=3", "--k0", "e=-2",
             "<k0[h]|S>*u1 + <k0[e]|S>"],
            '{"command": "evaluate", "inputs": {"expr": "<k0[h]|S>*u1 + <k0[e]|S>", "genus": 1,'
            ' "k0": {"e": -2, "h": 3}, "r": 1, "r0": 2, "scalar_degree": 0, "v": 1},'
            ' "result": {"normal_form": "-2 + 3*u1", "value": 6}}',
        ),
        (
            ["check", "--max-genus", "1", "--max-r0", "2", "--max-deg", "1"],
            '{"command": "check", "inputs": {"max_deg": 1, "max_genus": 1, "max_r0": 2},'
            ' "result": {"grids": [{"cases": 180, "failures": 0, "first_counterexample": null,'
            ' "name": "oracle_equivalence"}, {"cases": 90, "failures": 0,'
            ' "first_counterexample": null, "name": "sw_dictionary"}], "passed": true,'
            ' "total_cases": 270, "total_failures": 0}}',
        ),
    ],
    ids=["ggw-bundle", "quot-count", "evaluate", "check"],
)
def test_echo_frozen_lines(capsys, argv, line):
    # inputs repeat every flag as parsed; --form in canonical text, --k0 as a sorted table
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert out == line + "\n"


def test_sw_frozen_lines(capsys):
    base = ["sw", "--genus", "1", "--d", "1", "--n", "1", "--deg-v0", "0"]
    code, out, _ = run(capsys, base)
    assert code == 0
    assert out == (
        '{"command": "sw", "inputs": {"d": 1, "deg_v0": 0, "form": "1", "genus": 1,'
        ' "n": 1}, "result": {"c": {"f": 2, "s": 4}, "minus": 0, "pair_with_fibre": 4,'
        ' "plus": 2, "sign": 1, "w_c": 4}}\n'
    )
    code, out, _ = run(capsys, base + ["--form", "a1^b1"])
    assert code == 0
    result = json.loads(out)["result"]
    assert (result["plus"], result["minus"], result["sign"]) == (1, 0, 1)


def test_sw_zero_pairing(capsys):
    code, out, _ = run(capsys, ["sw", "--genus", "2", "--d", "3", "--n", "-1", "--deg-v0", "0"])
    assert code == 0
    result = json.loads(out)["result"]
    assert (result["sign"], result["plus"], result["minus"]) == (0, 0, 0)


def test_quot_count_big_integer_is_a_string(capsys):
    code, out, _ = run(capsys, ["quot-count", "--genus", "40", "--r0", "9"])
    assert code == 0
    value = json.loads(out)["result"]["value"]
    assert value == str(9**40)
    # small values stay numeric
    _, out, _ = run(capsys, ["quot-count", "--genus", "2", "--r0", "3"])
    assert json.loads(out)["result"]["value"] == 9


def test_normalize_frozen_line(capsys):
    code, out, _ = run(
        capsys,
        ["normalize", "--r", "2", "--genus", "2", "--scalar-degree", "-1", "<c1.c1|S>"],
    )
    assert code == 0
    assert out == (
        '{"command": "normalize", "inputs": {"expr": "<c1.c1|S>", "genus": 2,'
        ' "k0": {}, "r": 2, "scalar_degree": -1}, "result": {"normal_form":'
        ' "-2*G[1,1]*G[1,2] - 2*G[1,3]*G[1,4] + 2*u1"}}\n'
    )


def test_normalize_with_k0_table(capsys):
    code, out, _ = run(
        capsys, ["normalize", "--r", "1", "--genus", "1", "--k0", "h=3", "<k0[h]|S>"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["inputs"]["k0"] == {"h": 3}
    assert payload["result"]["normal_form"] == "3"


def test_evaluate(capsys):
    code, out, _ = run(
        capsys,
        ["evaluate", "--genus", "1", "--r0", "2", "--v", "1", "G[1,1]*G[1,2]"],
    )
    assert code == 0
    assert json.loads(out)["result"] == {"normal_form": "G[1,1]*G[1,2]", "value": 1}
    _, out, _ = run(capsys, ["evaluate", "--genus", "1", "--r0", "2", "--v", "1", "u1"])
    assert json.loads(out)["result"]["value"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--r", "2", "--genus", "1", "--r0", "2", "--v", "0", "u1"],
        ["normalize", "--genus", "1", "u1 +"],
        ["normalize", "--genus", "1", "--k0", "h", "u1"],
        ["normalize", "--genus", "1", "--k0", "h=x", "u1"],
        ["ggw", "--genus", "1", "--r0", "2", "--v", "0", "--form", "a1^"],
        ["ggw", "--genus", "-1", "--r0", "2", "--v", "0"],
        ["quot-count", "--genus", "2", "--r0", "0"],
        ["normalize", "--genus", "1", "(" * 250 + "u1" + ")" * 250],
        ["normalize", "--genus", "1", "u1" + "^1" * 3000],
        ["evaluate", "--genus", "1", "--r0", "1", "--v", "0", "<" + ".".join(["c1"] * 3000) + "|pt>"],
        ["normalize", "--genus", "1", "(u1"],
        ["ggw", "--genus", "1", "--r0", "2", "--v", "0", "--form", "2*"],
        # over-long words, indices and --k0 items are echoed cut to 40 characters
        ["normalize", "--genus", "1", "u1+" + "a" * 4000],
        ["ggw", "--genus", "1", "--r0", "1", "--v", "1", "--form", "a" + "9" * 4000],
        ["normalize", "--genus", "1", "u" + "9" * 4000],
        ["normalize", "--genus", "1", "G[1," + "9" * 4000 + "]"],
        ["normalize", "--genus", "1", "u1 " + "a" * 4000],
        ["normalize", "--genus", "1", "<k0[" + "a" * 4000 + "]|S>"],
        ["normalize", "--genus", "1", "--k0", "h=" + "1" * 5000 + "x", "u1"],
        ["normalize", "--genus", "1", "--k0", "h" * 5000, "u1"],
        ["normalize", "--genus", "1", "--k0", "h" * 5000 + "=" + "1" * 5000, "u1"],
        # a --k0 name given twice, or one that no k0[...] can refer to
        ["normalize", "--genus", "1", "--k0", "h=1", "--k0", "h=2", "u1"],
        ["normalize", "--genus", "1", "--k0", "h = 3", "u1"],
    ],
)
def test_domain_and_parse_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "None" not in err
    assert len(err) < 200


@pytest.mark.parametrize(
    "argv,tail",
    [
        (["quot-count", "--genus", "5200", "--r0", "7"], "decimal digits"),
        (["sw", "--genus", "1", "--d", "1", "--n", "1", "--deg-v0", "0", "--form", "9" * 5000], "position 0"),
        (["normalize", "--genus", "1", "--k0", "h=" + "1" * 5000, "u1"], "decimal digits"),
    ],
)
def test_digit_limit_is_named(capsys, argv, tail):
    # past the interpreter's int/str digit limit, output values and input
    # literals each end in one line that names the limit
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert str(sys.get_int_max_str_digits()) in err
    assert err.rstrip().endswith(tail)
    assert "set_int_max_str_digits" not in err
    assert len(err) < 200  # the over-long text is not repeated


@pytest.mark.parametrize(
    "argv",
    [
        ["ggw", "--r0", "2", "--v", "0"],  # missing --genus
        ["ggw", "--genus", "x", "--r0", "2", "--v", "0"],
        ["nonsense"],
        [],
    ],
)
def test_flag_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_check_small_grid_passes(capsys):
    code, out, _ = run(
        capsys, ["check", "--max-genus", "1", "--max-r0", "2", "--max-deg", "1"]
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["passed"] is True
    assert result["total_failures"] == 0
    assert result["total_cases"] == sum(g["cases"] for g in result["grids"])
    assert {g["name"] for g in result["grids"]} == {"oracle_equivalence", "sw_dictionary"}


def test_check_failure_exits_1(capsys, monkeypatch):
    broken = checks.CheckReport(
        name="oracle_equivalence",
        cases=10,
        failures=1,
        first_counterexample={"genus": 1},
    )
    monkeypatch.setattr("ruledinv.cli.run_all", lambda *a: [broken])
    code, out, _ = run(capsys, ["check"])
    assert code == 1
    result = json.loads(out)["result"]
    assert result["passed"] is False
    assert result["grids"][0]["first_counterexample"] == {"genus": 1}


def test_grid_failures_are_counted_and_reported(capsys, monkeypatch):
    # each grid's failure branch, reached by wrapping the real routes so
    # that exactly one grid case goes wrong: genus 1, a1^b1, and in the
    # oracle grid r0 = 2, d = -1, d0 = 0 (both twists), in the dictionary
    # grid d = 1, n = 1, d0 = 0
    handle = {(0, 1): 1}
    segre, sw_check = checks.ggw_via_segre, checks.sw_equals_ggw_check

    def off_by_one(genus, r0, d, d0, twist, l):
        got = segre(genus, r0, d, d0, twist, l)
        return got + 1 if (genus, r0, d, d0, l.terms) == (1, 2, -1, 0, handle) else got

    def refuted(d, n, geom, l):
        ok = sw_check(d, n, geom, l)
        return ok and (d, n, geom.genus, geom.v0_degree, l.terms) != (1, 1, 1, 0, handle)

    monkeypatch.setattr(checks, "ggw_via_segre", off_by_one)
    monkeypatch.setattr(checks, "sw_equals_ggw_check", refuted)
    oracle = checks.run_oracle_grid(max_genus=1, max_r0=2, max_deg=1)
    assert oracle.failures == 2
    assert oracle.first_counterexample == {
        "genus": 1,
        "r0": 2,
        "d": -1,
        "d0": 0,
        "aux_twist": 2,
        "l": "Multivector({(0, 1): 1})",
        "closed_form": 1,
        "oracle": 2,
    }
    dictionary = checks.run_dictionary_grid(max_genus=1, max_n=1, max_deg=1)
    assert dictionary.failures == 1
    assert dictionary.first_counterexample == {
        "genus": 1,
        "d": 1,
        "n": 1,
        "d0": 0,
        "l": "Multivector({(0, 1): 1})",
        "sw": 1,
        "pair_with_fibre": 4,
    }
    code, out, _ = run(capsys, ["check", "--max-genus", "1", "--max-r0", "2", "--max-deg", "1"])
    assert code == 1
    assert '"passed": false' in out
    assert json.loads(out)["result"]["total_failures"] == oracle.failures + dictionary.failures


# -- invariant checks survive python -O --------------------------------------

PACKAGE = Path(ruledinv.__file__).resolve().parent


def test_package_has_no_assert_statements():
    # python -O strips assert; invariants in src/ must raise explicitly
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_oracle_shares_no_code_with_the_kernel():
    # picard checks the closed forms, so it must not reach them
    path = PACKAGE / "picard.py"
    source = path.read_text()
    imported = set()
    for node in ast.walk(ast.parse(source, str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # "from . import slant" names the module as an alias
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            imported.update(name.rpartition(".")[2] for name in names)
    assert not imported & {"invariants", "slant", "checks", "cli"}
    assert "pair_theta_powers" not in source


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--max-genus", "2", "--max-r0", "2", "--max-deg", "1"],
        ["sw", "--genus", "1", "--d", "1", "--n", "1", "--deg-v0", "0"],
    ],
)
def test_optimized_interpreter_gives_same_bytes(argv):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))

    def cli(*flags):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "ruledinv", *argv],
            capture_output=True,
            env=env,
            timeout=300,
        )
        return proc.returncode, proc.stdout, proc.stderr

    plain = cli()
    assert plain[0] == 0 and plain[1]
    assert cli("-O") == plain


DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()
    assert "Traceback" not in proc.stdout + proc.stderr
