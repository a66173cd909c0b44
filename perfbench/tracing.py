"""In-memory span tracer for the benchmark's traced runs.

`install` wraps public functions of the halfint modules under every name a
caller can look them up by (the defining module's attribute, each
`from .x import f` copy in another module, and class attributes for
methods). Each call of a wrapped function records one span: name, start,
end, parent span id and optional attributes. Hot leaf functions are only
counted. Spans stay in memory; `Tracer.write` dumps them as JSON lines at
the end of a run. Nothing under src/ is edited.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from collections import Counter

# module -> public functions (or Class.method) recorded as spans
SPANNED = {
    "qseries": [
        "delta_halfintegral",
        "delta_halfintegral_reference",
        "delta_integral",
        "save_coeffs",
        "load_coeffs",
        "CoeffTable.sign_array",
        "CoeffTable.float_array",
    ],
    "hecke": ["build_hecke_table", "shimura_identity_check", "HeckeTable.lam"],
    "lvalue": ["central_lvalue", "chi_array", "first_moment_scan", "w_kernel_oracle"],
    "mollifier": [
        "build_params",
        "m_factor",
        "mollifier_value",
        "dirichlet_expansion_check",
    ],
    "expsums": [
        "gauss_sum_bruteforce",
        "gauss_sum_closed",
        "poisson_check",
        "modularity_check",
        "build_jutila_system",
        "jutila_l2_defect",
        "shifted_convolution",
    ],
    "arith": ["odd_squarefree_flags", "enumerate_nflat"],
    "cli": [
        "cmd_signchanges",
        "cmd_moments",
        "cmd_shifted",
        "cmd_waldspurger",
        "cmd_jutila",
        "tiny_mollifier_configs",
        "modularity_panel",
    ],
}
# called millions of times per run: a span each would swamp the run
COUNTED = {"arith": ["kronecker", "factorize_small"]}

# attributes taken from (args, kwargs, result) when a span closes
ATTRS = {
    "lvalue.central_lvalue": lambda a, k, r: {"d": a[0], "terms_used": r.terms_used},
    "expsums.build_jutila_system": lambda a, k, r: {"L": r.L},
    "mollifier.m_factor": lambda a, k, r: {"method": k.get("method", "identity")},
}
# spans that also record the growth of the process's peak RSS (MB)
RSS_SPANS = {"expsums.jutila_l2_defect"}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        # [id, parent, name, start, end, attrs]
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []

    def spanned(self, name: str, fn):
        attrs = ATTRS.get(name)
        rss = name in RSS_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(self.spans), self._stack[-1] if self._stack else None, name, 0.0, 0.0, None]
            self.spans.append(rec)
            self._stack.append(rec[0])
            rss0 = _maxrss_mb() if rss else 0.0
            rec[3] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, kwargs, out)
            if rss:
                rec[5] = {"rss_growth_mb": _maxrss_mb() - rss0}
            return out

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, attrs in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end,
                                     "attrs": attrs}) + "\n")
            for name, n in sorted(self.counts.items()):
                fh.write(json.dumps({"run": self.run_id, "count": name, "calls": n}) + "\n")


def _lazy_lam(tracer: Tracer, prop: property) -> property:
    """HeckeTable.lam is read in hot loops but computed once: record a span
    only for the read that fills it."""
    fill = tracer.spanned("hecke.HeckeTable.lam", prop.fget)

    def get(self):
        return prop.fget(self) if self._lambda is not None else fill(self)

    return property(get)


def install(tracer: Tracer):
    """Wrap every listed function wherever the package binds it; returns a
    callable that restores the originals."""
    import halfint

    mods = {name: sys.modules[f"halfint.{name}"] for name in SPANNED}
    namespaces = [halfint] + [m for n, m in sorted(sys.modules.items())
                              if n.startswith("halfint.") and m is not None]
    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for kinds, make in ((SPANNED, tracer.spanned), (COUNTED, tracer.counted)):
        for mod_name, names in kinds.items():
            mod = mods[mod_name]
            for name in names:
                full = f"{mod_name}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    new = (_lazy_lam(tracer, orig) if isinstance(orig, property)
                           else make(full, orig))
                    patch(cls, meth, new)
                    continue
                orig = getattr(mod, name)
                new = make(full, orig)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is orig:
                            patch(ns, attr, new)

    def restore():
        for owner, attr, val in reversed(undo):
            setattr(owner, attr, val)

    return restore


# -- per-layer metrics ------------------------------------------------------------


def _self_times(spans: list) -> dict:
    child = Counter()
    for sid, parent, name, start, end, attrs in spans:
        if parent is not None:
            child[parent] += end - start
    return {s[0]: (s[4] - s[3]) - child[s[0]] for s in spans}


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer numbers of one traced iteration, by metric name."""
    spans = tracer.spans
    total = Counter()
    calls = Counter()
    for sid, parent, name, start, end, attrs in spans:
        total[name] += end - start
        calls[name] += 1
    self_t = _self_times(spans)
    by_id = {s[0]: s for s in spans}

    def self_sum(name):
        return sum(self_t[s[0]] for s in spans if s[2] == name)

    def attr_of(name, key):
        return [s[5][key] for s in spans if s[2] == name]

    moll = Counter()
    for s in spans:
        if s[2] == "mollifier.m_factor":
            moll[s[5]["method"]] += s[4] - s[3]
    lvals = attr_of("lvalue.central_lvalue", "d")
    endpoints = sum(2 * s[5]["L"] for s in spans if s[2] == "expsums.build_jutila_system"
                    and s[1] is not None and by_id[s[1]][2] == "expsums.jutila_l2_defect")
    out = {f"{name}_s": total[name] for name in (
        "qseries.delta_halfintegral", "qseries.save_coeffs", "qseries.load_coeffs",
        "qseries.delta_integral", "qseries.delta_halfintegral_reference", "lvalue.central_lvalue",
        "lvalue.chi_array", "lvalue.first_moment_scan", "hecke.shimura_identity_check",
        "cli.cmd_signchanges", "cli.cmd_moments", "cli.cmd_shifted",
        "expsums.shifted_convolution", "arith.odd_squarefree_flags",
        "arith.enumerate_nflat", "expsums.gauss_sum_bruteforce",
        "expsums.gauss_sum_closed", "mollifier.build_params",
        "mollifier.dirichlet_expansion_check", "lvalue.w_kernel_oracle",
        "expsums.poisson_check", "expsums.modularity_check", "expsums.jutila_l2_defect",
    )}
    # method spans are recorded under their class; report them by method name
    out["qseries.sign_array_s"] = total["qseries.CoeffTable.sign_array"]
    out["qseries.float_array_s"] = total["qseries.CoeffTable.float_array"]
    out.update({
        "hecke.build_hecke_table_s": self_sum("hecke.build_hecke_table")
        + total["hecke.HeckeTable.lam"],
        "cli.cmd_waldspurger_s": self_sum("cli.cmd_waldspurger"),
        "lvalue.central_lvalue.calls": calls["lvalue.central_lvalue"],
        "lvalue.terms_used": sum(attr_of("lvalue.central_lvalue", "terms_used")),
        "lvalue.central_values_per_d": len(lvals) / len(set(lvals)) if lvals else 0.0,
        "hecke.shimura_identity_check.calls": calls["hecke.shimura_identity_check"],
        "arith.kronecker.calls": tracer.counts["arith.kronecker"],
        "arith.factorize_small.calls": tracer.counts["arith.factorize_small"],
        "mollifier.m_factor.enumerate_s": moll["enumerate"],
        "mollifier.m_factor.identity_s": moll["identity"],
        "expsums.jutila.endpoints": endpoints,
        "expsums.jutila_l2_defect.rss_growth_mb": max(
            attr_of("expsums.jutila_l2_defect", "rss_growth_mb"), default=0.0),
    })
    out["top_level_s"] = sum(s[4] - s[3] for s in spans if s[1] is None)
    return out
