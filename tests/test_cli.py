import ast
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import ruledinv
from ruledinv import checks, exterior
from ruledinv.cli import main
from ruledinv.indices import abelian_v


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


def test_normalize_reads_its_own_output_after_double_dash(capsys):
    # argparse reads a printed one-term form like "-2*u1" as a flag unless it follows --
    flags = ["normalize", "--genus", "0", "--scalar-degree", "1"]
    code, out, _ = run(capsys, flags + ["<c1.c1|S>"])
    form = json.loads(out)["result"]["normal_form"]
    assert code == 0 and form == "-2*u1"
    with pytest.raises(SystemExit) as exc:
        main(flags + [form])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, flags + ["--", form])
    assert code == 0 and json.loads(out)["result"]["normal_form"] == form


def test_evaluate(capsys):
    code, out, _ = run(
        capsys,
        ["evaluate", "--genus", "1", "--r0", "2", "--v", "1", "G[1,1]*G[1,2]"],
    )
    assert code == 0
    assert json.loads(out)["result"] == {"normal_form": "G[1,1]*G[1,2]", "value": 1}
    _, out, _ = run(capsys, ["evaluate", "--genus", "1", "--r0", "2", "--v", "1", "u1"])
    assert json.loads(out)["result"]["value"] == 2


GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.jsonl"
# the refusals of the byte contract, each written once, in make_cli_corpus.py
REFUSALS = [
    want["argv"] for want in map(json.loads, GOLDEN.read_text().splitlines()) if want["exit"] == 2
]


@pytest.fixture
def corpus_digit_limit():
    # the int/str digit limit the corpus was written under, which digit-limit messages name
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


def exit_code(argv):
    """main's return code, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", REFUSALS)
def test_domain_and_parse_errors_exit_2(capsys, corpus_digit_limit, argv):
    code = exit_code(argv)
    out, err = capsys.readouterr()
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
        ["normalize", "--genus", "1", "-u1"],  # a leading '-' reads as a flag without '--'
        ["ggw", "--genus", "1", "--r0", "2", "--v", "1", "--form", "-9*a1^b1"],  # and without '='
        ["ggw", "--genus", "1", "--r0", "2", "--v", "1", "--form"],
    ],
)
def test_flag_errors_exit_2(capsys, argv):
    # argparse's own errors keep the one-line contract: no usage block
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1 and out.err.startswith("error: ")
    # only the expression argparse took for a flag gets the hint that names --,
    # and only a --form left bare the hint that names --form=
    assert ("goes after --" in out.err) == ("-u1" in argv)
    assert ("goes as --form=..." in out.err) == ("--form" in argv)
    assert len(out.err) < 200


def test_cli_corpus_replays_byte_identical(capsys, corpus_digit_limit):
    # the committed byte contract, written by tests/golden/make_cli_corpus.py
    changed = []
    for line in GOLDEN.read_text().splitlines():
        want = json.loads(line)
        code = exit_code(want["argv"])
        out = capsys.readouterr()
        if (code, out.out, out.err) != (want["exit"], want["stdout"], want["stderr"]):
            changed.append(exterior.clip(" ".join(want["argv"])))
    assert changed == []


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


@pytest.mark.parametrize("flags", [(0, 1, 0), (1, 2, 1), (2, 1, 2), (2, 3, 0)])
def test_case_cap_counts_the_cases_both_grids_run(monkeypatch, flags):
    total = sum(r.cases for r in checks.run_all(*flags))
    monkeypatch.setattr(checks, "MAX_CHECK_CASES", total - 1)
    with pytest.raises(ValueError, match=f"check grid of {total} cases is over"):
        checks.run_all(*flags)


def test_point_cap_follows_the_case_cap(monkeypatch):
    # the default grids have 4 * 7^2 * 5 = 980 oracle points
    monkeypatch.setattr(checks, "MAX_CHECK_POINTS", 979)
    with pytest.raises(ValueError, match="^check grid of 980 oracle points is over the limit of 979$"):
        checks.run_all()
    # a grid past both caps keeps the case cap's line
    monkeypatch.setattr(checks, "MAX_CHECK_POINTS", 0)
    with pytest.raises(ValueError, match="^check grid of 3211068 cases is over"):
        checks.run_all(6)


def test_check_failure_exits_1(capsys, monkeypatch):
    broken = checks.CheckReport(
        name="oracle_equivalence",
        cases=10,
        failures=1,
        first_counterexample={"genus": 1},
    )
    monkeypatch.setattr("ruledinv.checks.run_all", lambda *a: [broken])
    code, out, _ = run(capsys, ["check"])
    assert code == 1
    result = json.loads(out)["result"]
    assert result["passed"] is False
    assert result["grids"][0]["first_counterexample"] == {"genus": 1}


def test_grid_failures_are_counted_and_reported(capsys, monkeypatch):
    # each grid's failure branch, reached by wrapping the real routes so
    # that exactly one grid case goes wrong: genus 1, a1^b1, and in the
    # oracle grid r0 = 2, d = -1, d0 = 0 (both twists), in the dictionary
    # grid d = 1, n = 1, d0 = 0.  Each grid must also call its route through
    # the checks namespace exactly once per case, as the benchmark stamps
    # each case from that call
    handle = {(0, 1): 1}
    segre, sw_check = checks.ggw_via_segre, checks.sw_equals_ggw_check
    calls = Counter()

    def off_by_one(genus, r0, d, d0, twist, l):
        calls["oracle"] += 1
        got = segre(genus, r0, d, d0, twist, l)
        return got + 1 if (genus, r0, d, d0, l.terms) == (1, 2, -1, 0, handle) else got

    def refuted(chamber, genus, quot, l):
        # quot (r0, -d, n(n+1)d0/2, twist) = (2, -1, 0, _) is d = 1, n = 1, d0 = 0 alone
        calls["dictionary"] += 1
        ok = sw_check(chamber, genus, quot, l)
        return ok and (genus, quot[:3], l.terms) != (1, (2, -1, 0), handle)

    monkeypatch.setattr(checks, "ggw_via_segre", off_by_one)
    monkeypatch.setattr(checks, "sw_equals_ggw_check", refuted)
    oracle = checks.run_oracle_grid(max_genus=1, max_r0=2, max_deg=1)
    assert calls == {"oracle": oracle.cases}
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
    assert calls == {"oracle": oracle.cases, "dictionary": dictionary.cases}
    assert dictionary.failures == 1
    assert dictionary.first_counterexample == {
        "genus": 1,
        "d": 1,
        "n": 1,
        "d0": 0,
        "l": "Multivector({(0, 1): 1})",
        "sw": 1,
        "oracle": 1,
    }
    code, out, _ = run(capsys, ["check", "--max-genus", "1", "--max-r0", "2", "--max-deg", "1"])
    assert code == 1
    assert '"passed": false' in out
    assert json.loads(out)["result"]["total_failures"] == oracle.failures + dictionary.failures


def test_a_route_that_raises_fails_its_case(capsys, monkeypatch):
    # a bookkeeping error inside a case is that case's failure, with the
    # error's text in the counterexample, and check exits 1, not 2: the
    # oracle's v off by one at genus 2 fails every case there of both grids,
    # as the dictionary grid counts through the oracle too; the dictionary's
    # own v off by one at genus 1 fails every dictionary case that fits
    from ruledinv import picard

    def v_off_at(genus):
        return lambda r0, d, d0, g: abelian_v(r0, d, d0, g) + (g == genus)

    monkeypatch.setattr(picard, "abelian_v", v_off_at(2))
    picard._segre_point.cache_clear()  # points cached by earlier tests never see the patch
    code, out, err = run(capsys, ["check", "--max-genus", "2", "--max-r0", "2", "--max-deg", "1"])
    assert code == 1 and err == ""
    oracle, dictionary = json.loads(out)["result"]["grids"]
    assert oracle["failures"] == 2 * 9 * 16 * 2  # r0, (d, d0), blades, twists
    assert oracle["first_counterexample"] == {
        "genus": 2,
        "r0": 1,
        "d": -1,
        "d0": -1,
        "aux_twist": 4,
        "l": "Multivector({(): 1})",
        "closed_form": 1,
        "oracle": "ArithmeticError: Segre bookkeeping: g + N - k = 0, but v = 1",
    }
    assert dictionary["failures"] == 9 * 2 * 16  # (d, d0), n, blades
    assert dictionary["first_counterexample"]["genus"] == 2
    assert dictionary["first_counterexample"]["error"].startswith("ArithmeticError: Segre bookkeeping: ")
    monkeypatch.undo()
    picard._segre_point.cache_clear()
    monkeypatch.setattr(checks, "abelian_v", v_off_at(1))
    report = checks.run_dictionary_grid(max_genus=1, max_n=1, max_deg=1)
    assert report.failures == 9 * 2 * 4  # (d, d0), n, blades
    case = report.first_counterexample
    assert case["genus"] == 1 and set(case) == {"genus", "d", "n", "d0", "l", "error"}
    assert case["error"].startswith("ArithmeticError: index dictionary: w_c = ")


def test_dictionary_grid_catches_a_broken_sw_side(monkeypatch):
    # the dictionary grid compares the Seiberg-Witten side with the Segre
    # oracle, so a wrong kernel or a wrong chamber scale fails its cases
    from ruledinv import invariants

    kernel, chamber = invariants.pair_theta_powers, checks.sw_chamber

    def kernel_flipped_at_genus_1(l, genus, scale, lowest):
        return (-1) ** (genus == 1) * kernel(l, genus, scale, lowest)

    def scale_off_by_one(c, geom):
        sign, pair, w_c, scale, lowest = chamber(c, geom)
        return sign, pair, w_c, scale + 1, lowest

    assert checks.run_dictionary_grid(max_genus=1).failures == 0
    monkeypatch.setattr(invariants, "pair_theta_powers", kernel_flipped_at_genus_1)
    flipped = checks.run_dictionary_grid(max_genus=1)
    assert (flipped.cases, flipped.failures) == (980, 196)
    assert flipped.first_counterexample == {
        "genus": 1, "d": 0, "n": 0, "d0": -3, "l": "Multivector({(): 1})", "sw": -1, "oracle": 1
    }
    monkeypatch.undo()
    monkeypatch.setattr(checks, "sw_chamber", scale_off_by_one)
    assert checks.run_dictionary_grid(max_genus=1).failures == 108


def test_dictionary_grid_refuses_a_fibre_pairing_off_the_dictionary(monkeypatch):
    # the dictionary reads n off the fibre pairing 2n + 2; a chamber whose
    # pairing is anything else has no quot problem, so every case fails
    chamber = checks.sw_chamber

    def pair_off_by_two(c, geom):
        sign, pair, w_c, scale, lowest = chamber(c, geom)
        return sign, pair + 2, w_c, scale, lowest

    monkeypatch.setattr(checks, "sw_chamber", pair_off_by_two)
    report = checks.run_dictionary_grid(max_genus=1, max_n=1, max_deg=1)
    assert (report.cases, report.failures) == (90, 90)
    assert report.first_counterexample == {
        "genus": 0,
        "d": -1,
        "n": 0,
        "d0": -1,
        "l": "Multivector({(): 1})",
        "error": "ArithmeticError: index dictionary: fibre pairing 4, but 2n + 2 = 2",
    }


def test_oracle_grid_fails_both_twists_where_the_closed_form_raises(monkeypatch):
    # a closed form that raises equals no oracle value, so both of the
    # blade's cases fail, and the counterexample shows the error beside the int
    closed = checks.ggw_abelian

    def raises_at_genus_1(genus, r0, v, l):
        if genus == 1:
            raise ArithmeticError("closed form refused")
        return closed(genus, r0, v, l)

    monkeypatch.setattr(checks, "ggw_abelian", raises_at_genus_1)
    report = checks.run_oracle_grid(max_genus=1, max_r0=2, max_deg=1)
    assert (report.cases, report.failures) == (180, 2 * 9 * 4 * 2)  # r0, (d, d0), blades, twists
    assert report.first_counterexample == {
        "genus": 1,
        "r0": 1,
        "d": -1,
        "d0": -1,
        "aux_twist": 2,
        "l": "Multivector({(): 1})",
        "closed_form": "ArithmeticError: closed form refused",
        "oracle": 1,
    }


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
    # it pairs through its own Pfaffian, not through exterior's pairing code
    for name in ("pair_theta_powers", "wedge", "top_pairing", "theta_divided_power"):
        assert name not in source
    # and the kernel does not reach the oracle's Pfaffian or generic product
    kernel = inspect.getsource(exterior.pair_theta_powers)
    oracle_only = ("pfaffian", "wedge", "top_pairing", "theta_divided_power", "_product")
    for name in oracle_only + ("merge_blades", "exp("):
        assert name not in kernel


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


@pytest.mark.parametrize(
    "buffered,argv",
    [
        (False, ["check", "--max-genus", "1"]),
        (True, ["check", "--max-genus", "1"]),
        # argparse prints help inside parse_args; unbuffered, argparse itself
        # swallows the failed write and exits 0
        (True, ["check", "--help"]),
    ],
    ids=["unbuffered", "buffered", "buffered-help"],
)
def test_closed_stdout_exits_2_in_one_line(buffered, argv):
    # the read end is closed before the child starts, so its write always
    # fails; a buffered stdout would otherwise fail only in the exit flush
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ruledinv", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=300,
        )
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 2
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,key,want",
    [
        (["ggw", "--genus", "200", "--r0", "2", "--v", "200"], "value", 2**200),
        (
            ["sw", "--genus", "200", "--d", "150", "--n", "1", "--deg-v0", "0",
             "--form", "1 + a1^b1 + a1^b2 + 7*a200^b200"],
            "plus",
            2**200 + 8 * 2**199,
        ),
        (
            ["evaluate", "--genus", "60", "--r0", "3", "--v", "2",
             "u1^2 + G[1,1]*G[1,2] + 5*G[1,3]*G[1,4]*u1 + G[1,1]"],
            "value",
            8 * 3**59,
        ),
        # u1^2 at v = 32 asks for Theta^30/30!, which has C(60, 30) blades
        (["evaluate", "--genus", "60", "--r0", "3", "--v", "32", "u1^2"], "value", 0),
        # v = 0 keeps only Theta^64/64!, which a1^b1 cannot reach
        (["ggw", "--genus", "64", "--r0", "3", "--v", "0", "--form", "1 + 2*a1^b1"], "value", 3**64),
        # one intersection-form term per handle, written out by hand
        (
            ["normalize", "--genus", "30000", "<c1.c1|S>"],
            "normal_form",
            "-" + " - ".join(f"2*G[1,{2 * h - 1}]*G[1,{2 * h}]" for h in range(1, 30001)),
        ),
        (["normalize", "--genus", "1", "u1^1000000"], "normal_form", "u1^1000000"),
    ],
    ids=[
        "ggw", "sw", "evaluate", "evaluate-middle-power", "ggw-truncated",
        "normalize-sigma-square", "normalize-power",
    ],
)
def test_large_genus_through_the_cli(argv, key, want):
    # expected values come from pow or a join, not the library; the timeout
    # turns a kernel that builds theta powers, or a slant reduction or a
    # power that is quadratic in its size, into a failure, not a hang
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "ruledinv", *argv], capture_output=True, env=env, timeout=20
    )
    assert proc.returncode == 0 and proc.stderr == b""
    result = json.loads(proc.stdout)["result"]
    if isinstance(want, int) and abs(want) > 2**53 - 1:
        want = str(want)
    assert result[key] == want
    if argv[0] == "sw":
        assert result["w_c"] == 202


# -- start-up: a request loads only the layers it uses ---------------------


def test_package_does_not_import_dataclasses():
    # importing dataclasses and building classes with it cost every request's start-up
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                if "dataclasses" in names:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


@pytest.mark.parametrize(
    "argv,loaded,unloaded",
    [
        (["quot-count", "--genus", "3", "--r0", "2"], {"invariants"}, {"slant", "picard", "checks"}),
        (["normalize", "--genus", "1", "<c1.c1|S>"], {"slant"}, {"picard", "checks"}),
        (
            ["evaluate", "--genus", "1", "--r0", "2", "--v", "1", "u1 + G[1,1]*G[1,2]"],
            {"slant"},
            {"invariants", "indices", "picard", "checks"},
        ),
        (["check", "--max-genus", "0", "--max-r0", "1"], {"picard", "checks"}, set()),
    ],
    ids=["quot-count", "normalize", "evaluate", "check"],
)
def test_request_loads_only_the_layers_it_uses(argv, loaded, unloaded):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = (
        "import json, sys\n"
        "from ruledinv.cli import main\n"
        f"main({argv!r})\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0 and proc.stderr == ""
    modules = json.loads(proc.stdout.splitlines()[-1])
    layers = {name.partition(".")[2] for name in modules if name.startswith("ruledinv.")}
    assert loaded <= layers
    assert not unloaded & layers
    # every value is an int: only ThetaSeries' repr reads fractions
    assert "fractions" not in modules


DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
DEMO_GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    # each demo prints the bytes written by tests/golden/make_demo_goldens.py
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stdout == (DEMO_GOLDEN / f"{demo.stem}.txt").read_text()
