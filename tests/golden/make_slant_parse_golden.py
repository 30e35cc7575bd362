"""Write tests/golden/slant_parse.jsonl, the byte contract of the slant parser.

Each line is one parse: [r, genus, text, result], where result is the
repr of the AST that `slant.parse_expr` returns over a context of rank r
and that genus, or the exact text of the SlantSyntaxError it raises.
`tests/test_slant.py::test_parse_golden_replays` replays every line.

The texts are every prefix of twenty printed normal forms of seeded
`tests/fuzz_exprs.py` expressions, single-character and single-token
damage to those forms, index range edges at r = 1..3 and genus 0..3,
and a few hand-written cases (leading zeros, spacing, powers).
Regenerate only when a change means to alter what the parser returns
or says, and name the change.  Run from the repository root:

    PYTHONPATH=src:tests python3 tests/golden/make_slant_parse_golden.py
"""

import json
import random
from pathlib import Path

from fuzz_exprs import random_context, random_expr
from ruledinv.exterior import _TOKEN_RE
from ruledinv.slant import AlgebraContext, SlantSyntaxError, normalize, parse_expr, print_normal

GOLDEN = Path(__file__).resolve().parent / "slant_parse.jsonl"
FORMS = 20
# printed forms this long keep every prefix's AST, and so the file, small
MIN_CHARS, MAX_CHARS = 30, 120


def printed_forms():
    """(ctx, text) for the first FORMS seeds whose printed normal form fits."""
    forms, seed = [], 0
    while len(forms) < FORMS:
        rng = random.Random(seed)
        ctx = random_context(rng)
        text = print_normal(normalize(parse_expr(random_expr(rng, ctx), ctx), ctx))
        if MIN_CHARS <= len(text) <= MAX_CHARS:
            forms.append((ctx, text))
        seed += 1
    return forms


def damaged(text):
    """A '#' put in at three places, and each third token dropped in turn."""
    out = [text[:k] + "#" + text[k:] for k in (0, len(text) // 2, len(text))]
    spans = [m.span(1) for m in _TOKEN_RE.finditer(text)]
    out += [text[:a] + text[b:] for a, b in spans[::3]]
    return out


def range_edges(r, genus):
    """Each index of each generator kind just inside and just past its range."""
    odd = 2 * genus
    texts = []
    for i in (0, 1, r, r + 1):
        texts += [f"u{i}", f"v{i}", f"<c{i}|pt>", f"<c{i}.c1|S>", f"G[{i},1]"]
    for j in (0, 1, odd, odd + 1):
        texts += [f"G[1,{j}]", f"<c1|g{j}>", f"<c1.c{r}|g{j}>"]
    return texts


HAND = [
    "u01", "u007", "v02", "G[01,02]", "G[001, 0004]", "<c01|g01>", "007", "0012*u1",
    "u1^02", "u1^0", "u1^int", "u1^2^", "u1^^2", "G [ 1 , 2 ]", "G[ 1,2 ]*u1", "G[1 2]",
    "G[1,2", "G[1,", "G[1", "G[", "G", "G1", "G[u1,2]", "G[1,2]^3", "-u1", "- -u1",
    "+u1-", "(u1+G[1,2])*(v2-3)^2", "<k0[h].c1|S>", "<k0[h]|pt>", "<k0[]|S>",
    "u1^\u0663", "u\u0661", "G[\u0661,\u0662]", "(u1", "((u1))^2", "u1*", "*u1", "2^3^2",
]


def record(r, genus, text):
    ctx = AlgebraContext(r=r, genus=genus)
    try:
        result = repr(parse_expr(text, ctx))
    except SlantSyntaxError as err:
        result = str(err)
    return json.dumps([r, genus, text, result], ensure_ascii=False)


def main():
    lines = []
    for ctx, text in printed_forms():
        for t in [text[:k] for k in range(len(text) + 1)] + damaged(text):
            lines.append(record(ctx.r, ctx.genus, t))
    for r in (1, 2, 3):
        for genus in (0, 1, 2, 3):
            lines += [record(r, genus, t) for t in range_edges(r, genus) + HAND]
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(lines)} parses -> {GOLDEN.name}")


if __name__ == "__main__":
    main()
