"""The four workloads: inputs, the timed call, and the correctness check.

A workload generates one cycle of items from the seed during set-up.
The runner times run(item) and nothing else; check(item, out) runs
outside the timed region and returns (ops, failed).  self.clock, set by
the runner, is the speed.Clock that scales op times, or None.
"""

import io
import json
import os
import random
import subprocess
import sys
from array import array
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import gen


def segre_count(rb, genus, r0, d, d0, form):
    """The count through the Segre-series oracle at the smallest valid twist."""
    twist = rb.picard.min_valid_aux_twist(genus, r0, d, d0)
    return rb.picard.ggw_via_segre(genus, r0, d, d0, twist, form)


def segre_evaluate(rb, nf, genus, r0, v):
    """evaluate_abelian recomputed term by term through the Segre oracle.

    u1^a times an odd blade B of size m pairs to r0^i <Theta^[i] ^ B>
    with i = a + g - v.  That is nonzero only when 2i + m = 2g, and then
    it is the one surviving term of the oracle's count for B at v = g.
    """
    mv = rb.exterior.Multivector
    total = 0
    for (u, _v, odd), coeff in nf.terms.items():
        i = u[0] + genus - v
        if not 0 <= i <= genus or 2 * i + len(odd) != 2 * genus:
            continue
        blade = mv.blade([j - 1 for _, j in odd])
        d0 = genus - (r0 - 1) * (1 - genus)
        total += coeff * segre_count(rb, genus, r0, 0, d0, blade)
    return total


class Workload:
    # if set, a run is whole cycles of the items, as many as take closest
    # to --seconds where one takes cycle_s, at the reference speed
    cycle_s = None

    clock = None
    # index in the phase's samples of this op's first sample
    base = 0
    # op times are scaled by the probes around them (speed.Clock.scale)
    scaled = True

    def samples(self, item, out, t0, t1):
        """Raw per-op latencies of one timed call."""
        return (t1 - t0,)


class ClosedFormSweep(Workload):
    """ggw_abelian, sw_ruled and evaluate_abelian at genus 8-16, full sums."""

    name = "closed_form_sweep"
    tail_pct = 90.0
    cycle_s = 18.3
    genera = range(8, 17)
    # distinct draws per (genus, form kind): the costs span 2^8, so the
    # percentiles need many distinct items more than repeats of few
    draws = 3

    def setup(self, rb, seed):
        self.rb = rb
        rng = random.Random(seed)
        ext, slant = rb.exterior, rb.slant
        # one cycle holds every (genus, query, form kind) `draws` times, so
        # its cost does not depend on the seed's draws
        self.items = []
        for g in self.genera:
            for kind in gen.FORM_KINDS * self.draws:
                r0 = rng.randint(1, 4)
                d, d0, v = gen.sweep_degrees(rng, g, r0)
                self.items.append(("ggw", g, (g, r0, v, gen.random_form(rng, rb, g, kind)), (d, d0)))
                n = rng.randint(0, 3)
                geom = rb.indices.RuledSurfaceGeometry(g, rng.randint(-2, 2))
                d = gen.sw_twist(rng, g, n, geom.v0_degree)
                self.items.append(("sw", g, (d, n, geom, gen.random_form(rng, rb, g, kind)), None))
                r0, v = rng.randint(1, 4), g + rng.randint(0, 2)
                ctx = slant.AlgebraContext(r=1, genus=g)
                nf = slant.normalize(slant.parse_expr(gen.evaluate_text(rng, g, v, kind), ctx), ctx)
                self.items.append(("evaluate", g, (nf, g, r0, v), None))
        rng.shuffle(self.items)
        # fill the theta-power cache the timed queries read
        for g in self.genera:
            topo = ext.SurfaceTopology(g)
            for k in range(g + 1):
                ext.theta_divided_power(topo, k)

    def run(self, item):
        kind, _, args, _ = item
        if kind == "ggw":
            return self.rb.invariants.ggw_abelian(*args)
        if kind == "sw":
            return self.rb.invariants.sw_ruled(*args)
        return self.rb.slant.evaluate_abelian(*args)

    def check(self, item, out):
        rb = self.rb
        kind, _, args, extra = item
        if isinstance(out, Exception):
            return 1, 1
        if kind == "ggw":
            g, r0, _, form = args
            ok = out == segre_count(rb, g, r0, *extra, form)
        elif kind == "sw":
            d, n, geom, form = args
            g = geom.genus
            d0_eff = n * (n + 1) * geom.v0_degree // 2
            v = rb.indices.abelian_v(n + 1, -d, d0_eff, g)
            ok = (
                out.sign == 1
                and out.pair_with_fibre == 2 * n + 2
                and out.w_c == 2 * v
                and out.value_opposite_chamber == 0
                and out.value_signed_chamber == segre_count(rb, g, n + 1, -d, d0_eff, form)
            )
        else:
            ok = out == segre_evaluate(rb, *args)
        return 1, int(not ok)


class CrosscheckGrids(Workload):
    """The two grids behind `ruledinv check`, at their default sizes."""

    name = "crosscheck_grids"
    tail_pct = 99.0
    cycle_s = 4.2
    expected_cases = {"oracle": 133_672, "dictionary": 66_836}
    # the call each grid makes exactly once per case
    per_case = {"oracle": "ggw_via_segre", "dictionary": "sw_equals_ggw_check"}

    def setup(self, rb, seed):
        # the grids are fixed by their gated case counts; the seed only
        # orders them within a cycle
        self.rb = rb
        self.items = ["oracle", "dictionary"]
        random.Random(seed).shuffle(self.items)
        rb.checks.run_all(4, 4, 0)

    def run(self, grid):
        checks = self.rb.checks
        name = self.per_case[grid]
        inner = getattr(checks, name)
        stamps = self.stamps = array("d")
        stamp = stamps.append
        clock = self.clock
        # a grid runs for seconds, so the clock probes between its cases;
        # case -> the probe time to take off it
        self.cuts = {}

        def stamped(*args):
            t = perf_counter()
            stamp(t)
            if clock is not None and clock.due(t):
                case = len(stamps) - 1
                clock.mark(self.base + case)
                self.cuts[case] = perf_counter() - t
            return inner(*args)

        setattr(checks, name, stamped)
        try:
            if grid == "oracle":
                return checks.run_oracle_grid()
            return checks.run_dictionary_grid()
        finally:
            setattr(checks, name, inner)

    def samples(self, grid, out, t0, t1):
        # a case runs from its per-case call to the next one; the first
        # case also carries the grid's entry and the last one its exit
        stamps = self.stamps
        if len(stamps) < 2:
            return (t1 - t0,)
        lat = array("d", (stamps[i + 1] - stamps[i] for i in range(len(stamps) - 1)))
        lat[0] += stamps[0] - t0
        lat.append(t1 - stamps[-1])
        for case, cut in self.cuts.items():
            lat[case] -= cut
        return lat

    def check(self, grid, out):
        want = self.expected_cases[grid]
        if isinstance(out, Exception):
            return want, want
        if out.cases != want or len(self.stamps) != want:
            # a grid of the wrong size no longer checks what it claims
            return max(out.cases, 1), max(out.cases, 1)
        return out.cases, out.failures


class SlantBatch(Workload):
    """Slant expressions through parse, normalize, print and parse back."""

    name = "slant_batch"
    # p99 of the heavy tail moved with the seed's draws (0.08 and 0.14
    # interquartile range over median in two sets of ten runs); p95 did not
    tail_pct = 95.0
    # one cycle outlasts a run, so a run measures a shuffled prefix of
    # about 16,000 items and the seed's few heaviest ones weigh little
    per_context = 800
    malformed_share = 0.05

    def setup(self, rb, seed):
        self.rb = rb
        rng = random.Random(seed)
        self.items = []
        for ctx, text in gen.slant_batch(rng, rb, self.per_context):
            bad = rng.random() < self.malformed_share
            if bad:
                text = gen.malformed(rng, ctx, text)
            ev = (rng.randint(1, 4), rng.randint(0, ctx.genus + 2)) if ctx.r == 1 else None
            self.items.append((ctx, text, bad, ev))

    def run(self, item):
        slant = self.rb.slant
        ctx, text, bad, ev = item
        if bad:
            try:
                slant.parse_expr(text, ctx)
            except slant.SlantSyntaxError as err:
                return err
            return None
        nf = slant.normalize(slant.parse_expr(text, ctx), ctx)
        back = slant.parse_expr(slant.print_normal(nf), ctx)
        value = slant.evaluate_abelian(nf, ctx.genus, *ev) if ev else None
        return nf, back, value

    def check(self, item, out):
        slant = self.rb.slant
        ctx, _, bad, ev = item
        if bad:
            return 1, int(not isinstance(out, slant.SlantSyntaxError))
        if isinstance(out, Exception) or out is None:
            return 1, 1
        nf, back, value = out
        ok = slant.normalize(back, ctx) == nf
        if ev:
            ok = ok and value == segre_evaluate(self.rb, nf, ctx.genus, *ev)
        return 1, int(not ok)


_SAFE_MAX = 2**53 - 1


def json_safe(obj):
    """The CLI's JSON convention: integers past 2^53 - 1 become strings."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > _SAFE_MAX else obj
    if isinstance(obj, dict):
        return {k: json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    return obj


class CliRequests(Workload):
    """`python -m ruledinv` requests, one subprocess at a time."""

    name = "cli_requests"
    # about 83 requests in 12 s; p85 leaves 12 of them above
    tail_pct = 85.0
    in_process = False
    # the requests run in child processes, which the host may place on
    # another core than the probes': scaling by the parent's probes, per
    # request or by the run's median, tracked the children's speed only
    # in part, and ten runs spread as much or more than unscaled ones
    scaled = False

    def setup(self, rb, seed):
        self.rb = rb
        self.items = gen.cli_requests(random.Random(seed), rb)
        self.expected = {}
        self.stdout_bytes = self.exit2 = 0
        self.env = dict(os.environ, PYTHONPATH=str(rb.src))
        probe = subprocess.run(
            [sys.executable, "-c", "import ruledinv; print(ruledinv.__file__)"],
            env=self.env, cwd=rb.root, capture_output=True, text=True, timeout=60,
        )
        where = os.path.dirname(os.path.realpath(probe.stdout.strip() or "."))
        if where != os.path.realpath(rb.src / "ruledinv"):
            raise RuntimeError(f"child processes import ruledinv from {where!r}")
        self.run(self.items[0])

    def run(self, item):
        argv = item[1]
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = self.rb.cli.main(argv)
                except SystemExit as exit_:
                    code = exit_.code
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "ruledinv", *argv],
            env=self.env, cwd=self.rb.root, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, item, out):
        if not self.in_process and not isinstance(out, Exception):
            self.stdout_bytes += len(out[1].encode())
            self.exit2 += out[0] == 2
        return 1, int(not self.correct(*item, out))

    def correct(self, tag, argv, out):
        if isinstance(out, Exception):
            return False
        code, stdout, stderr = out
        want = self._expected(tag, argv)
        if want is None:
            ok = code == 2 and not stdout and stderr and "Traceback" not in stderr
        else:
            lines = stdout.splitlines()
            ok = code == 0 and len(lines) == 1 and "Traceback" not in stderr
            if ok:
                payload = json.loads(lines[0])
                ok = (
                    json.dumps(payload, sort_keys=True) == lines[0]
                    and payload["command"] == argv[0]
                    and payload["result"] == want
                )
        return bool(ok)

    def probe_known_defects(self):
        """Run each listed defect input once, untimed: tag -> reproduced or fixed.

        They stay out of the timed mix, which holds only inputs that
        must succeed, and are reported beside the result instead.
        """
        verdicts = {}
        for tag, argv in gen.KNOWN_DEFECTS.items():
            argv = [str(a) for a in argv]
            try:
                out = self.run((tag, argv))
            except Exception as err:
                out = err
            verdicts[tag] = "fixed" if self.correct(tag, argv, out) else "reproduced"
        return verdicts

    def _expected(self, tag, argv):
        key = tuple(argv)
        if key not in self.expected:
            limit = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
            try:
                self.expected[key] = json_safe(self._library_result(tag, argv))
            finally:
                sys.set_int_max_str_digits(limit)
        return self.expected[key]

    def _library_result(self, tag, argv):
        """The result the library gives for argv, or None where exit 2 is due."""
        rb = self.rb
        if tag == "deep_parens":
            return {"normal_form": "u1"}
        if tag == "quot_count_digits":
            return {"value": rb.invariants.quot_count(5200, 7)}
        with redirect_stderr(io.StringIO()):
            try:
                args = rb.cli.build_parser().parse_args(argv)
            except SystemExit:
                return None
        try:
            return self._compute(args)
        except (ValueError, NotImplementedError, ArithmeticError):
            return None

    def _compute(self, a):
        rb = self.rb
        ext, inv, sl = rb.exterior, rb.invariants, rb.slant
        if a.cmd in ("ggw", "ggw-bundle"):
            topo = ext.SurfaceTopology(a.genus)
            form = ext.parse_multivector(a.form, topo)
            v = a.v if a.cmd == "ggw" else rb.indices.abelian_v(a.r0, a.deg_e, a.deg_e0, a.genus)
            value = 0 if a.chamber == "empty" else inv.ggw_abelian(a.genus, a.r0, v, form)
            return {"value": value} if a.cmd == "ggw" else {"v": v, "value": value}
        if a.cmd == "sw":
            topo = ext.SurfaceTopology(a.genus)
            form = ext.parse_multivector(a.form, topo)
            res = inv.sw_ruled(a.d, a.n, rb.indices.RuledSurfaceGeometry(a.genus, a.deg_v0), form)
            return {
                "sign": res.sign,
                "plus": res.value_signed_chamber if res.sign > 0 else 0,
                "minus": res.value_signed_chamber if res.sign < 0 else 0,
                "w_c": res.w_c,
                "pair_with_fibre": res.pair_with_fibre,
                "c": {"s": res.c.s, "f": res.c.f},
            }
        if a.cmd == "quot-count":
            return {"value": inv.quot_count(a.genus, a.r0)}
        if a.cmd in ("normalize", "evaluate"):
            if a.cmd == "evaluate" and a.r != 1:
                return None
            k0 = dict(item.split("=") for item in a.k0 or [])
            ctx = sl.AlgebraContext(
                r=a.r, genus=a.genus, scalar_degree=a.scalar_degree,
                k0_eval={name: int(value) for name, value in k0.items()},
            )
            nf = sl.normalize(sl.parse_expr(a.expr, ctx), ctx)
            if a.cmd == "normalize":
                return {"normal_form": sl.print_normal(nf)}
            return {"normal_form": sl.print_normal(nf), "value": sl.evaluate_abelian(nf, a.genus, a.r0, a.v)}
        reports = rb.checks.run_all(a.max_genus, a.max_r0, a.max_deg)
        return {
            "grids": [
                {"name": r.name, "cases": r.cases, "failures": r.failures,
                 "first_counterexample": r.first_counterexample}
                for r in reports
            ],
            "total_cases": sum(r.cases for r in reports),
            "total_failures": sum(r.failures for r in reports),
            "passed": all(r.failures == 0 for r in reports),
        }


WORKLOADS = {w.name: w for w in (ClosedFormSweep, CrosscheckGrids, SlantBatch, CliRequests)}
