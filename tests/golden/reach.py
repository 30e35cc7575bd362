"""Print the src/ lines that no request, grid or demo runs, each with why it may stay.

Runs, in one process under the standard library's trace.Trace(count=1):
every argv of tests/golden/cli.jsonl through `ruledinv.cli.run`,
`check --max-genus 2 --max-r0 3 --max-deg 2`, and the five demos.
ruledinv is first imported inside the trace.  Only the lines of function
code objects are read, so a class body or module line that runs at
import never shows.  Each line that none of them runs prints as

    module.function: text  reason

with the source text stripped and no line number, in source order, so
an unrelated edit does not move the file.  The reason is one word:

- guard: reached only on invalid library input or a wrong route, as
  defensive raises, the grids' counterexample paths and the
  closed-stdout branch are;
- tier1: code the tests, the acceptance gate or CI use on purpose
  (ROADMAP's "Kept on purpose" list among them);
- gap: neither; a request, a grid or a deletion should take it.

REASONS below names the functions (or single lines) that are guard or
tier1; any other unreached line is a gap.  tests/golden/unreached.txt
is this script's output, and CI compares the two on Python 3.11, whose
line events the file was written with.  Run from the repository root:

    PYTHONPATH=src python3 tests/golden/reach.py > tests/golden/unreached.txt
"""

import inspect
import io
import json
import runpy
import sys
import trace
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).resolve().parent / "cli.jsonl"
CHECK = ["check", "--max-genus", "2", "--max-r0", "3", "--max-deg", "2"]
# the int/str digit limit the corpus was written under
DIGITS = 4300

# "module.function" or "module.function: text" -> reason; the line's own entry comes first
REASONS = {
    # the grids count, show and describe a case only when its two routes disagree
    "checks._run_grid": "guard",
    "checks._shown": "guard",
    "checks._oracle_outcomes": "guard",
    "checks.dictionary_point": "guard",
    "checks._dictionary_outcomes": "guard",
    "exterior.Multivector.__repr__": "guard",
    # a reader that closes stdout before the response
    "cli.main": "guard",
    # refusals of invalid library input, which the parsers and the CLI never pass on
    "exterior.check_range": "guard",
    "exterior.SurfaceTopology._check_handle": "guard",
    "exterior.Combination.__init__": "guard",
    "exterior.Combination._check_shape": "guard",
    "exterior.Combination.__add__": "guard",
    "exterior.Combination.__mul__": "guard",
    "exterior.Combination.exact_div": "guard",
    "exterior.Multivector.__init__": "guard",
    "exterior.theta_divided_power": "guard",
    "exterior.exp_even": "guard",
    "exterior.pair_theta_powers": "guard",
    "indices.index_wc": "guard",
    "indices.douady_index": "guard",
    "invariants.ggw_abelian": "guard",
    "invariants.sw_chamber": "guard",
    "picard.ThetaSeries.__getitem__": "guard",
    "picard.KunnethClass.__init__": "guard",
    "picard._segre_point": "guard",
    "picard.ggw_via_segre": "guard",
    "slant._normal_terms": "guard",
    "slant.evaluate_abelian": "guard",
    # the warm-cache CI step compares and prints two runs' CheckReports
    "exterior.Record.__eq__": "tier1",
    "exterior.Record.__repr__": "tier1",
    # the gate subtracts forms; the tests compare and hash every algebra's values
    "exterior.Combination.__sub__": "tier1",
    "exterior.Combination.__eq__": "tier1",
    "exterior.Combination.__hash__": "tier1",
    # the exponential of zero, which the tests take in genus 0
    "exterior.exp_even: return Multivector.scalar(1)": "tier1",
    # the tests multiply theta series and print values
    "picard.ThetaSeries.merge_monomials": "tier1",
    "picard.KunnethClass.__repr__": "tier1",
    "slant.NormalForm.__repr__": "tier1",
    # gate criterion 6 builds its forms from generators
    "slant.NormalForm.u_gen": "tier1",
    "slant.NormalForm.odd_gen": "tier1",
    # an odd part normalize never makes, unsorted or repeated: the tests
    # test_evaluate_signs_an_unsorted_odd_part and test_evaluate_a_top_grade_term
    "slant.evaluate_abelian: for blade, c in Multivector.blade(blade, coeff).terms.items():": "tier1",
    "slant.evaluate_abelian: terms[blade] = terms.get(blade, 0) + c": "tier1",
}


def drive():
    """Import ruledinv, then run the corpus, the check grid and the demos, discarding output."""
    from ruledinv import cli

    argvs = [json.loads(line)["argv"] for line in CORPUS.read_text().splitlines()]
    for argv in argvs + [CHECK]:
        cli.run(argv)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")


def function_lines(code, name=None):
    """{line: function name} over the function code objects nested in code."""
    lines = {}
    if code.co_flags & inspect.CO_NEWLOCALS:
        # a comprehension or lambda counts as the function it is written in
        name = name or code.co_qualname
        lines = dict.fromkeys((line for _, _, line in code.co_lines() if line), name)
    for const in code.co_consts:
        if inspect.iscode(const):
            lines.update(function_lines(const, name))
    return lines


def unreached(counts, package: Path):
    """(module.function, text) of each function line of package that counts never saw."""
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        lines = function_lines(compile(source, str(path), "exec"))
        for line in sorted(lines):
            if (str(path), line) not in counts:
                yield f"{path.stem}.{lines[line]}", text[line - 1].strip()


def main():
    sys.set_int_max_str_digits(DIGITS)
    tracer = trace.Trace(count=1, trace=0)
    tracer.runfunc(drive)
    package = Path(sys.modules["ruledinv"].__file__).parent
    for where, text in unreached(tracer.results().counts, package):
        reason = REASONS.get(f"{where}: {text}") or REASONS.get(where, "gap")
        print(f"{where}: {text}  {reason}")


if __name__ == "__main__":
    main()
