"""Write tests/golden/cli.jsonl, the byte contract of the command line.

Each line of the corpus is one request: its argv, the exit code, and the
exact stdout and stderr that `ruledinv.cli.main` gives for it, run
in-process.  `tests/test_cli.py::test_cli_corpus_replays_byte_identical`
replays every line and compares the bytes.

The requests are written out in full, so the replay imports nothing but
ruledinv; this script alone reads `perfbench/gen.py`, for the seeded
`cli_requests` mix and the dense forms.  Regenerate only when a change
means to alter the output, and name each changed request and the reason
with the change.  Run from the repository root:

    PYTHONPATH=src python3 tests/golden/make_cli_corpus.py
"""

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).resolve().parent / "cli.jsonl"
# digit-limit messages name the interpreter's int/str limit
DIGITS = 4300

sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402

from ruledinv import cli, exterior, slant  # noqa: E402

RB = SimpleNamespace(exterior=exterior, slant=slant)


def seeded_mix():
    """The benchmark's cli_requests draws for seeds 0-9."""
    return [argv for seed in range(10) for _, argv in gen.cli_requests(random.Random(seed), RB)]


def error_requests():
    """Exit-2 requests: domain, parse, flag and digit-limit errors.

    test_cli.py holds every exit-2 line of the corpus to the one-line contract.
    """
    return [
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
        ["normalize", "--genus", "1", "u1+" + "a" * 4000],
        ["ggw", "--genus", "1", "--r0", "1", "--v", "1", "--form", "a" + "9" * 4000],
        ["normalize", "--genus", "1", "u" + "9" * 4000],
        ["normalize", "--genus", "1", "G[1," + "9" * 4000 + "]"],
        ["normalize", "--genus", "1", "u1 " + "a" * 4000],
        ["normalize", "--genus", "1", "<k0[" + "a" * 4000 + "]|S>"],
        ["normalize", "--genus", "1", "--k0", "h=" + "1" * 5000 + "x", "u1"],
        ["normalize", "--genus", "1", "--k0", "h" * 5000, "u1"],
        ["normalize", "--genus", "1", "--k0", "h" * 5000 + "=" + "1" * 5000, "u1"],
        ["normalize", "--genus", "1", "--k0", "h=1", "--k0", "h=2", "u1"],
        ["normalize", "--genus", "1", "--k0", "h = 3", "u1"],
        ["check", "--max-genus", "-1"],
        ["check", "--max-r0", "0"],
        ["check", "--max-deg", "-1"],
        ["ggw", "--r0", "2", "--v", "0"],
        ["ggw", "--genus", "x", "--r0", "2", "--v", "0"],
        ["nonsense"],
        [],
        ["quot-count", "--genus", "5200", "--r0", "7"],
        ["sw", "--genus", "1", "--d", "1", "--n", "1", "--deg-v0", "0", "--form", "9" * 5000],
        ["normalize", "--genus", "1", "--k0", "h=" + "1" * 5000, "u1"],
        # a character no token class takes, in a form and in slant text
        ["ggw", "--genus", "1", "--r0", "1", "--v", "1", "--form", "a1 $ b1"],
        ["normalize", "--genus", "1", "u1 @ u1"],
        # grids past checks.MAX_CHECK_CASES or checks.MAX_CHECK_POINTS
        ["check", "--max-genus", "6"],
        ["check", "--max-genus", "0", "--max-deg", "0", "--max-r0", "1000000"],
        ["check", "--max-genus", "1000000000"],
        ["check", "--max-genus", "0", "--max-deg", "0", "--max-r0", "30000"],
        # powers past slant.MAX_EXPONENT, ranks past slant.MAX_RANK and a rank of 0
        ["normalize", "--genus", "1", "4^99999999999999999999"],
        ["normalize", "--genus", "1", "u1^1000001"],
        ["normalize", "--r", "1001", "--genus", "1", "u1"],
        ["normalize", "--r", "100000000", "--genus", "1", "u1"],
        ["normalize", "--r", "0", "--genus", "1", "u1"],
        # an S-slant of 2 * 10^7 + 1 terms, past slant.MAX_SLANT_TERMS
        ["normalize", "--genus", "10000000", "<c1.c1|S>"],
        # an expr or a --form that argparse takes for a flag, or a --form left bare
        ["normalize", "--genus", "1", "-u1"],
        ["ggw", "--genus", "1", "--r0", "2", "--v", "1", "--form"],
        # a slant bracket with no base class after its bar, or no cup atom before it
        ["normalize", "--genus", "1", "<c1|x>"],
        ["normalize", "--genus", "1", "<q1|pt>"],
    ]


def large_genus():
    """Requests at g = 60..200, answered by the handle-blade kernel."""
    return [
        ["ggw", "--genus", "200", "--r0", "2", "--v", "200"],
        ["ggw", "--genus", "200", "--r0", "3", "--v", "201", "--form", "1 + a1^b1 - 5*a7^b7^a200^b200"],
        ["ggw", "--genus", "64", "--r0", "3", "--v", "0", "--form", "1 + 2*a1^b1"],
        ["ggw-bundle", "--genus", "120", "--r0", "2", "--deg-e", "-3", "--deg-e0", "1", "--form", "a2^b2 + 4"],
        ["sw", "--genus", "200", "--d", "150", "--n", "1", "--deg-v0", "0",
         "--form", "1 + a1^b1 + a1^b2 + 7*a200^b200"],
        ["sw", "--genus", "100", "--d", "-2", "--n", "2", "--deg-v0", "-1", "--form", "a3^b3"],
        ["quot-count", "--genus", "200", "--r0", "9"],
        ["evaluate", "--genus", "60", "--r0", "3", "--v", "2",
         "u1^2 + G[1,1]*G[1,2] + 5*G[1,3]*G[1,4]*u1 + G[1,1]"],
        ["evaluate", "--genus", "60", "--r0", "3", "--v", "32", "u1^2"],
        ["evaluate", "--genus", "100", "--r0", "2", "--v", "101", "u1^3 - 2*G[1,5]*G[1,6]*u1^2"],
    ]


def dense_forms():
    """Dense 60- to 120-bit forms at g = 1..6, with --v -1 and negative fibre pairings."""
    rng = random.Random(2001)
    out = []
    for g in range(1, 7):
        for _ in range(2):
            form = exterior.format_multivector(
                gen.random_form(rng, RB, g, "dense"), exterior.SurfaceTopology(g)
            )
            r0 = str(rng.randint(1, 4))
            out += [
                ["ggw", "--genus", str(g), "--r0", r0, "--v", str(rng.randint(-1, g + 2)), "--form", form],
                ["ggw-bundle", "--genus", str(g), "--r0", r0, "--deg-e", str(rng.randint(-3, 3)),
                 "--deg-e0", str(rng.randint(-3, 3)), "--form", form],
                ["sw", "--genus", str(g), "--d", str(rng.randint(-3, 6)), "--n", str(rng.randint(-3, 3)),
                 "--deg-v0", str(rng.randint(-2, 2)), "--form", form],
            ]
        out.append(["ggw", "--genus", str(g), "--r0", "2", "--v", "-1", "--form", form])
    return out


def hand_written():
    """Odd and cancelling evaluate terms, negative pairings, values either side
    of the 53-bit safe range and small check grids."""
    out = [
        ["quot-count", "--genus", "1", "--r0", str(2**53 - 1)],
        ["quot-count", "--genus", "1", "--r0", str(2**53)],
        ["quot-count", "--genus", "53", "--r0", "2"],
        ["ggw", "--genus", "0", "--r0", "1", "--v", "0", f"--form=-{2**53 - 1}"],
        ["ggw", "--genus", "0", "--r0", "1", "--v", "0", f"--form=-{2**53}"],
        ["evaluate", "--genus", "2", "--r0", "2", "--v", "2", "G[1,1]*G[1,2]*G[1,3]"],
        ["evaluate", "--genus", "2", "--r0", "3", "--v", "2", "u1 - u1 + G[1,1]*G[1,2] - G[1,2]*G[1,1]"],
        ["evaluate", "--genus", "3", "--r0", "2", "--v", "3", "--k0", "h=-4", "<c1.c1|S> + <k0[h]|pt>*u1"],
        ["normalize", "--r", "3", "--genus", "2", "--scalar-degree", "-2", "<c1.c2.c3|S> - <c3.c2.c1|S>"],
        ["sw", "--genus", "2", "--d", "3", "--n", "-1", "--deg-v0", "0"],
        ["sw", "--genus", "3", "--d", "-4", "--n", "-3", "--deg-v0", "2", "--form", "a1^b1 - a2^b2"],
        ["ggw", "--genus", "3", "--r0", "2", "--v", "-1", "--form", "a1^b1"],
        ["ggw", "--genus", "2", "--r0", "2", "--v", "2", "--chamber", "empty", "--form", "a1^b2"],
        # unsorted blades, which Multivector.blade signs by their sorting permutation
        ["ggw", "--genus", "2", "--r0", "2", "--v", "2", "--form", "b1^a1 - 2*b2^a2^b1^a1"],
        # and one with a repeated generator, which is zero
        ["ggw", "--genus", "2", "--r0", "2", "--v", "2", "--form", "a1^b1^a1 + 3*b2^a2"],
        # the echoed lines of test_cli.py's test_echo_frozen_lines
        ["ggw-bundle", "--genus", "2", "--r0", "2", "--deg-e", "-1", "--deg-e0", "0",
         "--chamber", "empty", "--form", "a1^b1 + 2*a2^b2 - a1^b1"],
        ["quot-count", "--genus", "3", "--r0", "2"],
        ["evaluate", "--genus", "1", "--r0", "2", "--v", "1", "--k0", "h=3", "--k0", "e=-2",
         "<k0[h]|S>*u1 + <k0[e]|S>"],
        # an odd power, which normalize's square-and-multiply multiplies by its base
        ["normalize", "--r", "3", "--genus", "1", "(u1+u2+u3)^7"],
    ]
    for max_genus, max_r0, max_deg in product((0, 1, 2), (1, 2), (0, 1)):
        out.append(["check", "--max-genus", str(max_genus), "--max-r0", str(max_r0),
                    "--max-deg", str(max_deg)])
    return out


def respond(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main():
    sys.set_int_max_str_digits(DIGITS)
    requests = seeded_mix() + error_requests() + large_genus() + dense_forms() + hand_written()
    with CORPUS.open("w") as fh:
        for argv in requests:
            fh.write(json.dumps(respond(argv)) + "\n")
    print(f"{len(requests)} requests -> {CORPUS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
