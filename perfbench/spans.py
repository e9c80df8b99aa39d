"""Spans and exact counts around constel's layers, installed from outside.

The tracer replaces, for the life of one child process, each binding
through which a layer is called: module attributes (``hankel``,
``solver`` and ``eulerian`` bind ``f_poly``, ``f_mid``,
``det_division_free``, ``det_elements``, ``solve_v`` and ``solve_vi`` by
name, so every such binding is wrapped) and the ``MultiPoly``/``XSeries``
operator slots.  A binding that does not exist is skipped, so the tracer
keeps working when the program is reorganised; the metric then reads 0.

Each outermost call records one span (name, start, end, parent) in flat
arrays.  A call re-entering a span of the same name (the determinant
front end calling the generic engine, say) is folded into the open span.
Self time is a span's duration minus the durations of its direct
children.  The ``verify`` suites are timed including plan construction,
because ``plan_contfrac`` expands the fraction while it builds the plan.
"""

from __future__ import annotations

from array import array
from time import perf_counter

# span name -> the (owner, attribute) bindings that call into it; an
# owner is a constel module name or "module.Class"
SPANS = (
    ("algebra.poly_mul", ("algebra.MultiPoly", "__mul__"), ("algebra.MultiPoly", "__rmul__")),
    ("algebra.poly_add", ("algebra.MultiPoly", "__add__"), ("algebra.MultiPoly", "__radd__")),
    ("algebra.series_mul", ("algebra.XSeries", "__mul__"), ("algebra.XSeries", "__rmul__")),
    ("algebra.substitute", ("algebra.MultiPoly", "substitute")),
    ("algebra.series_inv", ("algebra.XSeries", "inv")),
    ("algebra.det", ("algebra", "det_division_free"), ("algebra", "det_elements"),
     ("hankel", "det_division_free"), ("eulerian", "det_elements")),
    ("algebra.exact_div", ("algebra.MultiPoly", "exact_div")),
    ("hankel.hankel_matrix", ("hankel", "hankel_matrix")),
    ("hankel.hankel_det", ("hankel", "hankel_det")),
    ("hankel.recover_vi", ("hankel", "recover_vi")),
    ("hankel.lgv", ("hankel", "lgv_signed_sum"), ("hankel", "nilp_unique")),
    ("paths.f_poly", ("paths", "f_poly"), ("hankel", "f_poly"), ("solver", "f_poly")),
    ("paths.f_mid", ("paths", "f_mid"), ("solver", "f_mid")),
    ("contfrac.expand_fraction", ("contfrac", "expand_fraction")),
    ("contfrac.expand_f", ("contfrac", "expand_f")),
    ("solver.solve_v", ("solver", "solve_v"), ("eulerian", "solve_v")),
    ("solver.vi_update", ("solver", "vi_update")),
    ("solver.solve_vi", ("solver", "solve_vi"), ("eulerian", "solve_vi")),
    ("eulerian.make_context", ("eulerian", "make_context")),
    ("eulerian.v_series", ("eulerian", "v_series")),
    ("eulerian.v_closed", ("eulerian", "v_closed")),
    ("eulerian.verify_det3", ("eulerian", "verify_det3")),
    ("verify.paths", ("verify", "plan_paths")),
    ("verify.contfrac", ("verify", "plan_contfrac")),
    ("verify.hankel", ("verify", "plan_hankel")),
    ("verify.inversion", ("verify", "plan_inversion")),
    ("verify.lgv", ("verify", "plan_lgv")),
    ("verify.solver", ("verify", "plan_solver")),
    ("verify.euler", ("verify", "plan_euler")),
    ("cli.run", ("cli", "run")),
)

# cached functions whose hit ratio is read from their own cache_info()
CACHED = (("paths.f_poly", "paths", "f_poly"), ("paths.f_mid", "paths", "f_mid"))

_HIGHER = {"pairs_per_s", "hit_ratio", "distinct_ratio", "checks"}


def _unit(field: str) -> str:
    if field in ("s", "self_s"):
        return "s"
    if field == "pairs_per_s":
        return "1/s"
    if field.endswith("ratio") or field == "overhead":
        return "ratio"
    return "count"


# every per-layer metric, in report order: (name, unit, better)
PER_LAYER = tuple(
    (f"{span}.{field}", _unit(field), "higher" if field in _HIGHER else "lower")
    for span, fields in (
        [(name, ("s", "self_s", "calls")) for name, *_ in SPANS]
        + [("algebra.poly_mul", ("term_pairs", "pairs_per_s", "peak_terms")),
           ("algebra.series_mul", ("term_pairs", "pairs_per_s")),
           ("algebra.det", ("max_dim",)),
           ("hankel.hankel_det", ("distinct_ratio",)),
           ("paths.f_poly", ("hit_ratio",)),
           ("paths.f_mid", ("hit_ratio",)),
           ("solver", ("levels_swept",)),
           ("verify", ("checks",)),
           ("trace", ("overhead",))])
    for field in fields)


def _size(x) -> int:
    size = getattr(x, "nterms", None)
    if size is None:
        return 1 if x else 0
    return size


class Tracer:
    """In-memory span recorder with the counters measured beside it."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []       # open span indices
        self.active: list[int] = []      # open spans per name id
        self.counts: dict[str, float] = {}
        self.det_specs: set = set()
        self.cache_start: dict = {}

    def _bump(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _peak(self, key, value):
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def span(self, fn, name, after=None):
        """Wrap fn so that each outermost call records one span."""
        if name not in self.names:
            self.names.append(name)
            self.active.append(0)
        nid = self.names.index(name)
        tracer = self
        span_names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, active = self.stack, self.active

        def traced(*args, **kwargs):
            if active[nid]:
                return fn(*args, **kwargs)
            idx = len(span_names)
            span_names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            active[nid] = 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                active[nid] = 0
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def install(self, mods: dict) -> "Tracer":
        """Wrap every binding listed in SPANS that exists in ``mods``."""
        for name, mod, attr in CACHED:
            info = getattr(getattr(mods.get(mod), attr, None), "cache_info", None)
            if info is not None:
                self.cache_start[name] = (info, info())
        for name, *bindings in SPANS:
            after = _AFTER.get(name)
            if name.startswith("verify."):
                after = _suite_jobs(name)
            for owner_path, attr in bindings:
                owner = _resolve(mods, owner_path)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is not None:
                    setattr(owner, attr, self.span(original, name, after))
        run_all = getattr(mods.get("verify"), "run_all", None)
        if run_all is not None:
            def count_checks(*args, **kwargs):
                results = run_all(*args, **kwargs)
                self._bump("verify.checks", len(results))
                return results
            mods["verify"].run_all = count_checks
        return self

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead, from the spans."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                covered[parent] += dur[i]
        out = {metric: 0 for metric, _, _ in PER_LAYER if metric != "trace.overhead"}
        for i in range(n):
            name = self.names[self.span_name[i]]
            out[f"{name}.s"] += dur[i]
            out[f"{name}.self_s"] += dur[i] - covered[i]
            out[f"{name}.calls"] += 1
        for key, value in self.counts.items():
            out[key] = value
        for name in ("algebra.poly_mul", "algebra.series_mul"):
            secs = out[f"{name}.s"]
            out[f"{name}.pairs_per_s"] = out[f"{name}.term_pairs"] / secs if secs else 0
        calls = out["hankel.hankel_det.calls"]
        out["hankel.hankel_det.distinct_ratio"] = len(self.det_specs) / calls if calls else 0
        for name, (info, start) in self.cache_start.items():
            end = info()
            hits, misses = end.hits - start.hits, end.misses - start.misses
            out[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0
        return out


def _resolve(mods, path):
    mod, _, cls = path.partition(".")
    owner = mods.get(mod)
    return getattr(owner, cls, None) if cls and owner is not None else owner


def _after_mul(name):
    def after(tracer, args, result):
        if result is NotImplemented:
            return
        tracer._bump(f"{name}.term_pairs", _size(args[0]) * _size(args[1]))
        if name == "algebra.poly_mul":
            tracer._peak("algebra.poly_mul.peak_terms", _size(result))
    return after


def _after_det(tracer, args, result):
    rows = args[0]
    dim = getattr(rows, "nrows", None)
    tracer._peak("algebra.det.max_dim", len(rows) if dim is None else dim)


def _after_hankel_det(tracer, args, result):
    tracer.det_specs.add(repr(args[0]))


def _after_vi_update(tracer, args, result):
    tracer._bump("solver.levels_swept", len(result))


_AFTER = {
    "algebra.poly_mul": _after_mul("algebra.poly_mul"),
    "algebra.series_mul": _after_mul("algebra.series_mul"),
    "algebra.det": _after_det,
    "hankel.hankel_det": _after_hankel_det,
    "solver.vi_update": _after_vi_update,
}


def _suite_jobs(name):
    # the checks of a plan run after construction: time each under the suite
    def after(tracer, args, plan):
        jobs = getattr(plan, "jobs", None)
        if isinstance(jobs, list):
            for k, job in enumerate(jobs):
                if isinstance(job, tuple) and len(job) == 3 and callable(job[2]):
                    jobs[k] = (job[0], job[1], tracer.span(job[2], name))
    return after
