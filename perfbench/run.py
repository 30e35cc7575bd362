"""Benchmark of the ruledinv in this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: an operation starts
when the previous one has finished.  The timed phase runs whole cycles
of the seeded inputs until S seconds of operation time have passed;
every result is checked outside the timed region.  With --trace 0 the
run reports the end-to-end metrics named in BENCHMARK.json, with
--trace 1 the per-layer ones.  A table goes to stdout, the result file
with its provenance to perfbench/results/, and the last stdout line is
one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import speed
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
LAYERS = ("exterior", "indices", "invariants", "picard", "slant", "checks", "cli")
# set-up is timed in this process and in SETUP_REPEATS - 1 fresh ones
SETUP_REPEATS = 3
CHILD_TIMEOUT = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_ruledinv():
    """Import ruledinv from this checkout's src/, or stop."""
    src = ROOT / "src"
    if not (src / "ruledinv" / "__init__.py").is_file():
        fail(f"no ruledinv package under {src}")
    sys.path.insert(0, str(src))
    import importlib

    modules = {name: importlib.import_module(f"ruledinv.{name}") for name in LAYERS}
    where = Path(sys.modules["ruledinv"].__file__).resolve().parent
    if where != (src / "ruledinv").resolve():
        fail(f"imported ruledinv from {where}, not from {src}")
    return SimpleNamespace(root=ROOT, src=src, modules=modules, **modules)


def provenance(seed, rb):
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ruledinv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "seed": seed,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "ruledinv_path": str(Path(sys.modules["ruledinv"].__file__).resolve().parent),
        "started_at": time.time(),
    }


def percentile(sorted_vals, pct):
    """Linear interpolation between closest ranks, as numpy's default."""
    pos = (len(sorted_vals) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


class Phase:
    def __init__(self):
        self.ops = self.failed = self.items = 0
        self.busy = self.raw_busy = self.traced_busy = 0.0
        self.samples = array("d")
        self.by_genus = {}

    def add_check(self, counts):
        ops, failed = counts
        self.ops += ops
        self.failed += failed


def timed(wl, item):
    t0 = perf_counter()
    try:
        out = wl.run(item)
    except Exception as err:
        out = err
    t1 = perf_counter()
    return out, t0, t1


def run_phase(wl, seconds=None, items=None, tracer=None, clock=None):
    """Run wl.items round robin until seconds of busy time, or `items` of them.

    With a clock, op times are scaled to the reference speed (speed.py)
    and busy time is the scaled sum.  A workload whose items differ a lot
    in cost runs whole cycles instead, as many as take closest to
    `seconds` at the reference speed (wl.cycle_s), so every run has the
    same mix and the same count.  With a tracer each item runs untraced
    and then traced, back to back, so the two times see the same machine
    and their ratio is the overhead.
    """
    ph = Phase()
    genus_of = hasattr(wl, "genera")
    n = len(wl.items)
    if items is None and wl.cycle_s:
        items = n * max(1, round(seconds / wl.cycle_s))
    wl.clock = clock
    while True:
        if items is not None:
            if ph.items == items:
                break
        elif ph.busy >= seconds:
            break
        item = wl.items[ph.items % n]
        wl.base = len(ph.samples)
        if clock is not None:
            clock.mark(wl.base)
        out, t0, t1 = timed(wl, item)
        lat = wl.samples(item, out, t0, t1)
        raw = sum(lat)
        ph.raw_busy += raw
        # the stop rule reads the latest probe; the samples are scaled below
        ph.busy += raw * (clock.factor if clock is not None else 1.0)
        ph.samples.extend(lat)
        if genus_of:
            ph.by_genus.setdefault(item[1], []).extend(lat)
        ph.add_check(wl.check(item, out))
        if tracer is not None:
            tracer.op_id = ph.items
            with tracer:
                out, t0, t1 = timed(wl, item)
            ph.traced_busy += t1 - t0
            ph.add_check(wl.check(item, out))
        ph.items += 1
    if clock is not None:
        ph.busy = clock.scale(ph.samples)
    return ph


def setup(name, seed):
    """Import, generate and warm up; the time is scaled as in speed.py."""
    speed.warm()
    before = speed.probe()
    t0 = perf_counter()
    rb = load_ruledinv()
    wl = WORKLOADS[name]()
    wl.setup(rb, seed)
    raw = perf_counter() - t0
    return rb, wl, raw * 2 * speed.REF_S / (before + speed.probe())


def child_setup_s(name, seed):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        fail(f"set-up child failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def fresh_interpreters(rb, reps=5):
    """Median ms of a bare `python -c pass`, and of `import ruledinv.cli` in a fresh one."""
    env = dict(os.environ, PYTHONPATH=str(rb.src))
    timer = "import time; t = time.perf_counter(); import ruledinv.cli; print(time.perf_counter() - t)"
    bare, imports = [], []
    for _ in range(reps):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, timeout=CHILD_TIMEOUT, check=True)
        bare.append(perf_counter() - t0)
        proc = subprocess.run([sys.executable, "-c", timer], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT, check=True)
        imports.append(float(proc.stdout))
    return statistics.median(bare) * 1000, statistics.median(imports) * 1000


def end_to_end(name, seed, seconds):
    rb, wl, setup_main = setup(name, seed)
    prov = provenance(seed, rb)
    clock = speed.Clock() if wl.scaled else None
    ph = run_phase(wl, seconds, clock=clock)
    who = resource.RUSAGE_CHILDREN if name == "cli_requests" else resource.RUSAGE_SELF
    peak_kib = resource.getrusage(who).ru_maxrss
    defects = wl.probe_known_defects() if hasattr(wl, "probe_known_defects") else None
    setups = [setup_main] + [child_setup_s(name, seed) for _ in range(SETUP_REPEATS - 1)]
    lat = sorted(ph.samples)
    tail = percentile(lat, wl.tail_pct)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ph.ops / ph.busy,
        "latency_p50_ms": percentile(lat, 50) * 1000,
        "latency_tail_ms": tail * 1000,
        "peak_rss_mb": peak_kib / 1024,
    }
    above = len(lat) - bisect.bisect_right(lat, tail)
    extras = {
        "setup_samples_s": setups,
        "samples": len(lat),
        "tail_pct": wl.tail_pct,
        "samples_above_tail": above,
        "percentiles_ms": {str(p): percentile(lat, p) * 1000 for p in (90, 95, 99, 99.5, 99.9, 99.99)},
        "items": ph.items,
        "busy_s": ph.busy,
        "raw_busy_s": ph.raw_busy,
        "raw_ops_per_s": ph.ops / ph.raw_busy,
        "failed_ratio": [ph.failed, ph.ops],
    }
    if clock is not None:
        extras["speed_probe_ms"] = {
            "count": len(clock.probes),
            "min": min(clock.probes) * 1000,
            "median": statistics.median(clock.probes) * 1000,
            "max": max(clock.probes) * 1000,
            "ref": speed.REF_S * 1000,
        }
    if defects is not None:
        extras["known_defects"] = defects
    if above < 10:
        print(f"perfbench: only {above} samples above p{wl.tail_pct}; run longer", file=sys.stderr)
    return prov, ph, metrics, extras


def _ratio(num, den):
    return (num / den if den else 0.0), [num, den]


def traced(name, seed, seconds):
    rb, wl, _ = setup(name, seed)
    prov = provenance(seed, rb)
    phases = []
    if name == "cli_requests":
        # the subprocess phase gives the counts; layers are traced in-process
        phases.append(run_phase(wl, seconds / 2))
        wl.in_process = True
    theta = rb.exterior.theta_divided_power
    segre = getattr(rb.picard, "_pushforward_segre", None)
    theta0 = theta.cache_info()
    segre0 = segre.cache_info() if segre else None
    tracer = Tracer(rb.modules)
    if phases:
        ph = run_phase(wl, items=phases[0].items, tracer=tracer)
    else:
        ph = run_phase(wl, seconds / 2, tracer=tracer)
    phases.append(ph)
    theta1 = theta.cache_info()
    segre1 = segre.cache_info() if segre else None

    st = tracer.stat
    ratios = {}
    m = {}
    for fn in ("wedge", "top_pairing", "theta_divided_power"):
        s = st(f"exterior.{fn}")
        m[f"exterior.{fn}.calls"] = s.calls
        m[f"exterior.{fn}.busy_s"] = s.busy
    m["exterior.wedge.terms_out"] = st("exterior.wedge").out
    tp = st("exterior.top_pairing")
    m["exterior.top_pairing.nonzero_ratio"], ratios["exterior.top_pairing.nonzero_ratio"] = _ratio(tp.nonzero, tp.calls)
    hits, misses = theta1.hits - theta0.hits, theta1.misses - theta0.misses
    m["exterior.theta_divided_power.hit_ratio"], ratios["exterior.theta_divided_power.hit_ratio"] = _ratio(hits, hits + misses)
    m["exterior.parse_multivector.busy_s"] = st("exterior.parse_multivector").busy
    for fn in ("ggw_abelian", "sw_for_class"):
        m[f"invariants.{fn}.calls"] = st(f"invariants.{fn}").calls
        m[f"invariants.{fn}.self_s"] = st(f"invariants.{fn}").self_time
    for g in range(8, 17):
        vals = ph.by_genus.get(g)
        m[f"invariants.latency_g{g}_ms"] = statistics.median(vals) * 1000 if vals else 0.0
    m["picard.ggw_via_segre.calls"] = st("picard.ggw_via_segre").calls
    m["picard.ggw_via_segre.self_s"] = st("picard.ggw_via_segre").self_time
    if segre:
        hits, misses = segre1.hits - segre0.hits, segre1.misses - segre0.misses
    else:
        hits = misses = 0
    m["picard.pushforward_segre.hit_ratio"], ratios["picard.pushforward_segre.hit_ratio"] = _ratio(hits, hits + misses)
    index_fns = [st(f"indices.{fn}") for fn in ("abelian_v", "intersect", "index_wc", "spinc_det")]
    m["indices.calls"] = sum(s.calls for s in index_fns)
    m["indices.busy_s"] = sum(s.busy for s in index_fns)
    m["checks.oracle.busy_s"] = st("checks.oracle").busy
    m["checks.dictionary.busy_s"] = st("checks.dictionary").busy
    m["checks.oracle.nonzero_ratio"], ratios["checks.oracle.nonzero_ratio"] = _ratio(tracer.oracle_nonzero, tracer.oracle_cases)
    for fn in ("parse_expr", "normalize", "print_normal", "evaluate_abelian"):
        m[f"slant.{fn}.busy_s"] = st(f"slant.{fn}").busy
    m["slant.normalize.terms_out"] = st("slant.normalize").out
    m["slant.syntax_errors"] = st("slant.parse_expr").errors.get("SlantSyntaxError", 0)
    if name == "cli_requests":
        m["cli.interpreter_ms"], m["cli.import_ms"] = fresh_interpreters(rb)
        m["cli.main_ms"] = statistics.median(ph.samples) * 1000
        m["cli.stdout_bytes"] = wl.stdout_bytes
        m["cli.exit2_count"] = wl.exit2
    else:
        for key in ("interpreter_ms", "import_ms", "main_ms", "stdout_bytes", "exit2_count"):
            m[f"cli.{key}"] = 0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = tracer.layer_self(layer)
    m["trace.overhead_ratio"], ratios["trace.overhead_ratio"] = _ratio(ph.traced_busy, ph.busy)
    m["trace.spans"] = len(tracer.spans) + tracer.dropped
    RESULTS.mkdir(parents=True, exist_ok=True)
    tracer.dump(RESULTS / f"{name}-seed{seed}-spans.jsonl")
    total = Phase()
    for p in phases:
        total.add_check((p.ops, p.failed))
    extras = {
        "ratios": ratios,
        "items": ph.items,
        "untraced_busy_s": ph.busy,
        "traced_busy_s": ph.traced_busy,
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped,
        "failed_ratio": [total.failed, total.ops],
    }
    return prov, total, m, extras


def bench_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"missing {path}")
    return json.loads(path.read_text())


def fmt(value):
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def print_rows(rows):
    """rows: (workload, metrics, units, extras); one row per workload."""
    cols = ["setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb", "failed_ratio"]
    table = [["workload"] + cols]
    for name, metrics, units, extras in rows:
        cells = [name]
        for col in cols:
            if col == "failed_ratio":
                failed, ops = extras["failed_ratio"]
                cells.append(f"{failed}/{ops}")
                continue
            cell = f"{fmt(metrics[col])} {units[col]}"
            if col == "latency_p50_ms":
                cell += f" (n={extras['samples']})"
            if col == "latency_tail_ms":
                cell += f" (p{fmt(extras['tail_pct'])})"
            cells.append(cell)
        table.append(cells)
    widths = [max(len(r[i]) for r in table) for i in range(len(table[0]))]
    for r in table:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


def print_defects(extras):
    if "known_defects" in extras:
        listed = ", ".join(f"{tag} {verdict}" for tag, verdict in extras["known_defects"].items())
        print(f"known defects, probed once outside the timed mix: {listed}")


def run_one(args, spec):
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        prov, ph, metrics, extras = traced(args.workload, args.seed, args.seconds)
    else:
        prov, ph, metrics, extras = end_to_end(args.workload, args.seed, args.seconds)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail(f"BENCHMARK.json names metrics this run does not produce: {missing}")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": ph.failed == 0,
        "attempted": ph.ops,
        "failed": ph.failed,
        "metrics": out,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "provenance": prov, "result": result, "extras": extras}
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.trace:
        for name, cell in out.items():
            base = extras["ratios"].get(name)
            suffix = f" ({base[0]}/{base[1]})" if base else ""
            print(f"{args.workload}  {name}  {fmt(cell['value'])} {cell['unit']}{suffix}")
    else:
        units = {m["name"]: m["unit"] for m in wanted}
        print_rows([(args.workload, metrics, units, extras)])
        print_defects(extras)
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own process, then one row per workload."""
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            fail(f"{name} failed: {proc.stderr.strip()[-400:]}")
        if args.trace:
            print(proc.stdout.rsplit("\n", 2)[0])
            continue
        record = json.loads((RESULTS / f"{name}-seed{args.seed}-trace0.json").read_text())
        metrics = {k: v["value"] for k, v in record["result"]["metrics"].items()}
        units = {k: v["unit"] for k, v in record["result"]["metrics"].items()}
        rows.append((name, metrics, units, record["extras"]))
    if rows:
        print_rows(rows)
        for *_, extras in rows:
            print_defects(extras)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_only:
        *_, setup_s = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return
    spec = bench_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args, spec)


if __name__ == "__main__":
    main()
