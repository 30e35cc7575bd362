"""Spans and counters at the boundaries of the ruledinv layers.

Nothing in ruledinv changes.  Inside `with tracer:` each public function
of a layer is rebound, in every ruledinv module namespace that holds
it, to a wrapper, so a call from one module into another records a
span; leaving the block puts the originals back.  Spans stay in memory
and are written out when the run ends.
"""

import json
from time import perf_counter

# layer -> public functions to wrap; every caller's binding is rebound
LAYER_FUNCTIONS = {
    "exterior": ("wedge", "top_pairing", "theta_divided_power", "exp_even",
                 "parse_multivector", "format_multivector"),
    "indices": ("abelian_v", "intersect", "index_wc", "spinc_det"),
    "invariants": ("ggw_abelian", "sw_for_class", "sw_ruled", "sw_equals_ggw_check", "quot_count"),
    "picard": ("ggw_via_segre", "min_valid_aux_twist", "segre_series"),
    "slant": ("parse_expr", "normalize", "print_normal", "evaluate_abelian"),
    "checks": ("run_oracle_grid", "run_dictionary_grid", "run_all", "basis_monomials"),
    "cli": ("main",),
}

# span names shorter than the function names, as the metrics use them
ALIASES = {"checks.run_oracle_grid": "checks.oracle", "checks.run_dictionary_grid": "checks.dictionary"}


class Stat:
    __slots__ = ("calls", "busy", "self_time", "depth", "errors", "out", "nonzero")

    def __init__(self):
        self.calls = self.depth = self.out = self.nonzero = 0
        self.busy = self.self_time = 0.0
        self.errors = {}


class Tracer:
    """Collects spans (id, name, start, end, parent id, op id) and per-name stats.

    busy counts only the outermost frame of a name, so recursion is not
    counted twice; self time is a span's duration minus its children's.
    """

    def __init__(self, modules, max_spans=200_000):
        """modules maps each layer name to its loaded ruledinv module.

        A function a layer no longer defines is skipped; its metrics read 0.
        """
        self.max_spans = max_spans
        self.spans = []
        self.dropped = 0
        self.stats = {}
        self.op_id = None
        self.oracle_cases = self.oracle_nonzero = 0
        self._stack = []
        self._next_id = 0
        self._bindings = []
        for layer, names in LAYER_FUNCTIONS.items():
            for fname in names:
                fn = getattr(modules[layer], fname, None)
                if fn is None:
                    continue
                wrapper = self._wrap(ALIASES.get(f"{layer}.{fname}", f"{layer}.{fname}"), fn)
                for mod in modules.values():
                    if mod.__dict__.get(fname) is fn:
                        self._bindings.append((mod, fname, fn, wrapper))

    def stat(self, name):
        return self.stats.setdefault(name, Stat())

    def __enter__(self):
        for mod, fname, _, wrapper in self._bindings:
            setattr(mod, fname, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, fname, fn, _ in self._bindings:
            setattr(mod, fname, fn)

    def _wrap(self, name, fn):
        st = self.stat(name)
        stack = self._stack
        post = _POST.get(name)
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            stack.append(frame)
            st.depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                kind = type(err).__name__
                st.errors[kind] = st.errors.get(kind, 0) + 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                st.calls += 1
                st.self_time += dur - frame[1]
                st.depth -= 1
                if not st.depth:
                    st.busy += dur
                if parent is not None:
                    parent[1] += dur
                if len(tracer.spans) < tracer.max_spans:
                    pid = parent[0] if parent is not None else None
                    tracer.spans.append((frame[0], name, t0, t1, pid, tracer.op_id))
                else:
                    tracer.dropped += 1
            if post is not None:
                post(tracer, st, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def layer_self(self, layer):
        return sum(st.self_time for name, st in self.stats.items() if name.startswith(layer + "."))

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _terms_out(tracer, st, result):
    # Multivector keeps its terms in _terms; NormalForm in terms
    st.out += len(getattr(result, "_terms", None) or getattr(result, "terms", ()))


def _nonzero(tracer, st, result):
    st.nonzero += result != 0


def _oracle(tracer, st, result):
    _nonzero(tracer, st, result)
    if tracer.stat("checks.oracle").depth:
        tracer.oracle_cases += 1
        tracer.oracle_nonzero += result != 0


def _normalize(tracer, st, result):
    if not st.depth:
        _terms_out(tracer, st, result)


_POST = {
    "exterior.wedge": _terms_out,
    "exterior.top_pairing": _nonzero,
    "picard.ggw_via_segre": _oracle,
    "slant.normalize": _normalize,
}
