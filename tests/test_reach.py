"""tests/golden/unreached.txt, the src/ lines no request, grid or demo runs.

tests/golden/reach.py writes the file under a trace, which CI runs on
Python 3.11; these tests read the committed file and run no trace.
"""

import importlib
import inspect
import runpy
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
LINES = (GOLDEN / "unreached.txt").read_text().splitlines()


def entries():
    """(module.function, text, reason) of each line, as reach.py prints them."""
    for line in LINES:
        head, reason = line.rsplit(" ", 1)
        where, text = head.rstrip().split(": ", 1)
        yield where, text, reason


def test_every_unreached_line_ends_in_a_reason():
    assert LINES
    assert [line for line in LINES if not line.endswith((" guard", " tier1", " gap"))] == []


def test_only_the_pfaffian_update_is_a_gap():
    # ROADMAP item 12's scrambled grid is meant to reach it
    assert {where for where, _, reason in entries() if reason == "gap"} <= {"picard.pfaffian"}


def test_every_named_function_and_line_is_in_src():
    for where, text, _ in entries():
        module, *names = where.split(".")
        obj = mod = importlib.import_module(f"ruledinv.{module}")
        for name in names:
            obj = getattr(obj, name)
        assert text in {line.strip() for line in inspect.getsource(mod).splitlines()}, where


def test_every_reason_reach_gives_names_an_unreached_line():
    # run_path does not run reach.py's main, so no trace starts
    reasons = runpy.run_path(str(GOLDEN / "reach.py"))["REASONS"]
    named = {where for where, _, _ in entries()} | {f"{w}: {t}" for w, t, _ in entries()}
    assert sorted(reasons.keys() - named) == []
