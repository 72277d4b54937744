"""Tracing from outside the library: wrap hb's public functions and
methods at the module boundary, keep spans and counts in memory, and
turn them into per-layer metrics at the end.

Coarse public functions get spans (name, start, end, parent, job id);
the many-call arithmetic layers (fields, poly, laurent, algebra) are
only counted, because a span per call would cost more than the call.
A function is patched wherever hb or workloads.py binds it, so
`from .x import f` copies in other modules are traced too.  `uninstall` restores every
attribute it replaced.
"""

import functools
import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs that get spans; the metric prefix is the
# module's short name
SPANNED = {
    "hb.oracle": ("exp_coefficients", "drinfeld_coeffs", "act",
                  "p_delta_direct", "p_theta_direct"),
    "hb.building": ("row_hnf", "mat_inv", "iwasawa_decompose",
                    "edge_from_rep", "rep_from_lattice_pair",
                    "check_harmonic_gl", "check_harmonic_def"),
    "hb.discriminant": ("series_eval", "eval_on_mirabolic"),
    "hb.fourier": ("expand",),
    "hb.algebra": ("sigma",),
    "hb.eisenstein": ("eisenstein_diagonal", "eisenstein_at",
                      "eisenstein_truncated_sum", "eisenstein_fourier",
                      "log_delta_fourier", "identity_check_thm56"),
    "hb.units": ("sigma_det_check", "root_order_delta", "root_order_theta",
                 "gcd_sweep", "character_order", "cusp_orbits",
                 "cuspidal_order"),
}

# (module, class, method) -> count key; counted, never spanned
COUNTED_METHODS = {
    ("hb.fields", "FF", "add"): "fields.ops",
    ("hb.fields", "FF", "sub"): "fields.ops",
    ("hb.fields", "FF", "mul"): "fields.ops",
    ("hb.fields", "FF", "inv"): "fields.ops",
    ("hb.fields", "FF", "neg"): "fields.ops",
    ("hb.poly", "Poly", "__divmod__"): "poly.divmod_calls",
    ("hb.laurent", "Laurent", "__add__"): "laurent.add_calls",
    ("hb.laurent", "Laurent", "__sub__"): "laurent.add_calls",
    ("hb.laurent", "Laurent", "__neg__"): "laurent.add_calls",
    ("hb.laurent", "Laurent", "__mul__"): "laurent.mul_calls",
    ("hb.laurent", "Laurent", "inverse"): "laurent.inverse_calls",
    ("hb.laurent", "Laurent", "q_power"): "laurent.q_power_calls",
    ("hb.algebra", "CycRat", "__add__"): "algebra.cycrat_ops",
    ("hb.algebra", "CycRat", "__radd__"): "algebra.cycrat_ops",
    ("hb.algebra", "CycRat", "__sub__"): "algebra.cycrat_ops",
    ("hb.algebra", "CycRat", "__rsub__"): "algebra.cycrat_ops",
    ("hb.algebra", "CycRat", "__neg__"): "algebra.cycrat_ops",
    ("hb.algebra", "CycRat", "__mul__"): "algebra.cycrat_ops",
    ("hb.algebra", "CycRat", "__rmul__"): "algebra.cycrat_ops",
}

COUNTED_FUNCTIONS = {
    ("hb.poly", "poly_gcd"): "poly.gcd_calls",
    ("hb.fourier", "dot"): "fourier.dot.calls",
    ("hb.discriminant", "_in_p_cell_column"): "discriminant.witness_candidates",
}

ORACLE_DEPTHS = (4, 5, 6, 7)


class Tracer:
    """Spans and counts for one traced pass; `install` patches hb,
    `uninstall` puts every original back."""

    def __init__(self):
        self.spans = []        # (name, start, end, parent index, job id, tag)
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._undo = []

    # -- patching ------------------------------------------------------
    def _replace_everywhere(self, orig, wrapper):
        """Point every attribute bound to `orig`, in hb's modules and in
        the benchmark's workloads module, at `wrapper`."""
        for name, mod in list(sys.modules.items()):
            if name not in ("hb", "workloads") and not name.startswith("hb."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def _patch_method(self, cls, meth, wrapper):
        self._undo.append((cls, meth, cls.__dict__[meth]))
        setattr(cls, meth, wrapper)

    def install(self):
        hb = {name: importlib.import_module(f"hb.{name}")
              for name in ("algebra", "building", "discriminant", "eisenstein",
                           "fields", "fourier", "laurent", "oracle", "poly",
                           "units")}
        for modname, names in SPANNED.items():
            mod = sys.modules[modname]
            short = modname.split(".")[1]
            for fname in names:
                orig = getattr(mod, fname)
                tag = _exp_tag if fname == "exp_coefficients" else None
                self._replace_everywhere(
                    orig, self.span(f"{short}.{fname}", orig, tag=tag))
        for (modname, fname), key in COUNTED_FUNCTIONS.items():
            orig = getattr(sys.modules[modname], fname)
            self._replace_everywhere(orig, self.counter(key, orig))
        for (modname, clsname, meth), key in COUNTED_METHODS.items():
            cls = getattr(sys.modules[modname], clsname)
            self._patch_method(cls, meth, self.counter(key, cls.__dict__[meth]))
        self._patch_special(hb["poly"], hb["building"], hb["discriminant"],
                            hb["fourier"])
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- wrappers ------------------------------------------------------
    def span(self, name, fn, tag=None, on_result=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            label = tag(args, kwargs) if tag else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.errors.{type(exc).__name__}"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.job, label)
            if on_result:
                on_result(result)
            return result
        return wrapper

    def counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch_special(self, poly, building, discriminant, fourier):
        counts = self.counts

        ratf_init = poly.RatF.__init__

        def ratf_new(obj, *args, **kwargs):
            ratf_init(obj, *args, **kwargs)
            counts["poly.ratf_new"] += 1
            if any(obj.den.coeffs[:-1]):     # reduced denominator is not T^k
                counts["poly.ratf_general_den"] += 1
        self._patch_method(poly.RatF, "__init__", ratf_new)

        def cochain_lookup(meth):
            def wrapper(obj, *args):
                before = len(obj.cache)
                result = meth(obj, *args)
                counts["building.cochain_lookups"] += 1
                counts["building.cochain_hits"] += len(obj.cache) == before
                return result
            return wrapper
        for meth in ("eval_lattice_pair", "eval_rep"):
            self._patch_method(building.Cochain, meth,
                               cochain_lookup(building.Cochain.__dict__[meth]))

        theta_orig = discriminant.eval_theta_on_edge

        def theta_lookup(n, g, bound=None, _cache=None):
            if _cache is None:
                return theta_orig(n, g, bound=bound)
            before = len(_cache)
            result = theta_orig(n, g, bound=bound, _cache=_cache)
            counts["discriminant.theta_lookups"] += 1
            counts["discriminant.theta_hits"] += len(_cache) == before
            return result
        self._replace_everywhere(theta_orig, theta_lookup)

        def found(witnesses):
            counts["discriminant.witnesses_found"] += len(witnesses)
        witness_orig = discriminant.find_witnesses
        self._replace_everywhere(
            witness_orig,
            self.span("discriminant.find_witnesses", witness_orig,
                      on_result=found))

        coeff_orig = fourier.fourier_coefficient
        coeff_span = self.span("fourier.fourier_coefficient", coeff_orig)

        def coefficient(h, *args, **kwargs):
            def counted_h(u, yexps):
                counts["fourier.grid_points"] += 1
                return h(u, yexps)
            return coeff_span(counted_h, *args, **kwargs)
        self._replace_everywhere(coeff_orig, coefficient)

    # -- results -------------------------------------------------------
    def self_times(self):
        """name -> (calls, total seconds, self seconds); self time is the
        span minus the time its direct child spans cover."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _job, _tag in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, t0, t1, _p, _j, _t) in enumerate(self.spans):
            rec = out[name]
            rec[0] += 1
            rec[1] += t1 - t0
            rec[2] += t1 - t0 - child[i]
        return out

    def write(self, path_prefix):
        """Spans and counts as two tab-separated files."""
        with open(f"{path_prefix}.spans.tsv", "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\tjob\ttag\n")
            for i, (name, t0, t1, parent, job, tag) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t"
                         f"{job}\t{'' if tag is None else tag}\n")
        with open(f"{path_prefix}.counts.tsv", "w") as fh:
            for key in sorted(self.counts):
                fh.write(f"{key}\t{self.counts[key]}\n")


def _exp_tag(args, kwargs):
    """(q, r, D) of an exp_coefficients call."""
    z, D = args[0], args[1]
    big = z[0].field
    r = len(z)
    return (big.p ** (big.n // r), r, D)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """The per-layer metrics of one traced pass, by name."""
    c = tracer.counts
    st = tracer.self_times()
    m = {}

    def spanned(name, calls=True):
        calls_n, _total, self_s = st.get(name, (0, 0.0, 0.0))
        if calls:
            m[f"{name}.calls"] = calls_n
        m[f"{name}.self_s"] = self_s

    m["fields.ops"] = c["fields.ops"]
    m["poly.ratf_new"] = c["poly.ratf_new"]
    m["poly.ratf_general_den_share"] = _ratio(c["poly.ratf_general_den"],
                                              c["poly.ratf_new"])
    m["poly.gcd_calls"] = c["poly.gcd_calls"]
    m["poly.divmod_calls"] = c["poly.divmod_calls"]
    for k in ("add", "mul", "inverse", "q_power"):
        m[f"laurent.{k}_calls"] = c[f"laurent.{k}_calls"]

    spanned("oracle.exp_coefficients")
    per_depth = defaultdict(list)
    lattice_points = 0
    for name, t0, t1, _p, _j, tag in tracer.spans:
        if name == "oracle.exp_coefficients":
            q, r, D = tag
            lattice_points += q ** (r * (D + 1))
            if (q, r) == (2, 2):
                per_depth[D].append(t1 - t0)
    for D in ORACLE_DEPTHS:
        times = per_depth.get(D)
        m[f"oracle.exp_coefficients.D{D}_ms"] = \
            statistics.median(times) * 1e3 if times else 0.0
    for name in ("drinfeld_coeffs", "act", "p_delta_direct", "p_theta_direct"):
        spanned(f"oracle.{name}", calls=False)
    retries = c["oracle.exp_coefficients.errors.PrecisionError"]
    m["oracle.window_retries"] = retries
    m["oracle.retry_share"] = _ratio(retries,
                                     m["oracle.exp_coefficients.calls"])
    m["oracle.lattice_points"] = lattice_points

    for name in SPANNED["hb.building"]:
        spanned(f"building.{name}")
    m["building.cochain_hit_ratio"] = _ratio(c["building.cochain_hits"],
                                             c["building.cochain_lookups"])

    spanned("discriminant.find_witnesses")
    m["discriminant.witness_candidates"] = c["discriminant.witness_candidates"]
    m["discriminant.witness_yield"] = _ratio(
        c["discriminant.witnesses_found"], c["discriminant.witness_candidates"])
    spanned("discriminant.series_eval", calls=False)
    spanned("discriminant.eval_on_mirabolic", calls=False)
    m["discriminant.theta_hit_ratio"] = _ratio(c["discriminant.theta_hits"],
                                               c["discriminant.theta_lookups"])

    spanned("fourier.fourier_coefficient")
    spanned("fourier.expand")
    m["fourier.grid_points"] = c["fourier.grid_points"]
    m["fourier.dot.calls"] = c["fourier.dot.calls"]
    m["algebra.cycrat_ops"] = c["algebra.cycrat_ops"]
    spanned("algebra.sigma", calls=False)

    for module in ("eisenstein", "units"):
        m[f"{module}.self_s"] = sum((rec[2] for name, rec in st.items()
                                     if name.startswith(module + ".")), 0.0)
    return m


# what each per-layer metric should move, by name prefix (first match wins)
EXPECTED_EFFECT = (
    ("fields.", "job_p50_ms on harmonicity and fourier, job_tail_ms on oracle"),
    ("poly.", "job_p50_ms and jobs_per_s on harmonicity and fourier; "
              "no change on oracle"),
    ("laurent.", "job_tail_ms and jobs_per_s on oracle; no change on "
                 "harmonicity and fourier"),
    ("oracle.", "job_tail_ms on oracle"),
    ("building.", "job_p50_ms on harmonicity"),
    ("discriminant.", "job_tail_ms on harmonicity"),
    ("fourier.", "job_p50_ms on fourier"),
    ("algebra.", "job_p50_ms on fourier"),
    ("cli.", "job_p50_ms on cli and setup_s on every workload; no change "
             "to jobs_per_s on the batch workloads"),
    ("eisenstein.", "job_p50_ms on cli"),
    ("units.", "job_p50_ms on cli"),
    ("trace.", "nothing: the cost of tracing itself"),
)


# how a metric is obtained, where its name does not say
NOTES = {
    "oracle.lattice_points": "computed, not measured: sum of q^(r(D+1)) "
                             "over the exp_coefficients calls",
    "oracle.retry_share": "exp_coefficients calls ending in PrecisionError",
    "poly.ratf_general_den_share": "RatF constructions whose reduced "
                                   "denominator is not T^k",
    "discriminant.witness_candidates": "columns tested",
    "discriminant.witness_yield": "witnesses found per column tested",
    "fourier.grid_points": "h evaluations",
    "laurent.add_calls": "add, sub and neg",
    "cli.interp_ms": "bare interpreter start-up",
    "cli.compute_ms": "median query in-process",
    "trace.overhead_s": "traced minus untraced busy time",
}
NOTES.update({f"oracle.exp_coefficients.D{D}_ms":
              "median per call at q = r = 2, traced" for D in ORACLE_DEPTHS})


def expected_effect(name):
    text = next(text for prefix, text in EXPECTED_EFFECT
                if name.startswith(prefix))
    return f"{text} [{NOTES[name]}]" if name in NOTES else text


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_share", "_ratio", "_yield")):
        return "ratio"
    return "count"
