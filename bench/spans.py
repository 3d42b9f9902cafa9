"""Spans around extremefit's public functions, for the traced run.

``Tracer.install`` wraps every public function of the layer modules (and
``optimize._hessian_std_errors``) and puts the wrapper in place of the
original in every extremefit module that imported the name, so calls made
inside the package are seen too. The ``Target`` callables returned by
``posterior_target`` and the draw methods of ``RngState`` are wrapped as
well. Each span is (name, start, end, parent), kept in flat arrays in memory
and written when the run ends; a span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("distributions", "model", "priors", "lmoments", "optimize", "samplers",
          "diagnostics", "numerics")
PRIVATE = {"optimize": ("_hessian_std_errors",)}
# Called on every evaluation and trivially cheap; a span would cost more than they do.
SKIP = {"model": ("param_dim", "param_names")}
RNG_METHODS = ("uniform", "normal", "uniforms", "normals")
SAMPLER_SPANS = {"samplers.mh_random_walk": "rw", "samplers.mala": "mala",
                 "samplers.hmc": "hmc"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._on = [True]
        self.results: dict[str, list] = {}
        self._undo: list = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, keep=None):
        """fn inside a span; keep(result) is stored under name when given."""
        nid = self._id(name)
        names, parents, starts, ends, stack, on = (self.name, self.parent, self.start,
                                                   self.end, self._stack, self._on)
        kept = self.results.setdefault(name, []) if keep else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if kept is not None:
                kept.append(keep(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside the block record no span and keep no result."""
        self._on[0] = False
        try:
            yield
        finally:
            self._on[0] = True

    def install(self):
        package = {n: m for n, m in sys.modules.items()
                   if n == "extremefit" or n.startswith("extremefit.")}
        keep = {
            "optimize.fit_mle": lambda r: (r.converged, r.std_errors is not None),
            "optimize.nelder_mead": lambda r: r.n_evals,
            "samplers.mh_random_walk": _chain_facts,
            "samplers.mala": _chain_facts,
            "samplers.hmc": _chain_facts,
        }
        for layer in LAYERS:
            mod = package[f"extremefit.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                if attr in SKIP.get(layer, ()):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.wrap(name, obj, keep.get(name))
                if name == "samplers.posterior_target":
                    wrapped = self._wrap_target_factory(wrapped)
                for m in package.values():
                    for a, o in list(vars(m).items()):
                        if o is obj:
                            setattr(m, a, wrapped)
                            self._undo.append((m, a, obj))
        rng_cls = package["extremefit.numerics"].RngState
        for meth in RNG_METHODS:
            orig = rng_cls.__dict__[meth]
            setattr(rng_cls, meth, self.wrap("numerics.RngState", orig))
            self._undo.append((rng_cls, meth, orig))

    def _wrap_target_factory(self, factory):
        def posterior_target(*args, **kwargs):
            target = factory(*args, **kwargs)
            target.log_post = self.wrap("samplers.target.log_post", target.log_post)
            if target.grad_log_post is not None:
                target.grad_log_post = self.wrap("samplers.target.grad_log_post",
                                                 target.grad_log_post)
            return target

        return posterior_target

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    def dump(self, path):
        np.savez_compressed(path, name=np.frombuffer(self.name, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                            names=np.array(self.names))

    def layer_metrics(self, cycles, extra):
        """{name: (value, unit)} per cycle or per call, from the recorded spans.

        extra holds metrics measured outside the spans, in the same form.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=name.size)
        self_t = dur - covered
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        ids = self._ids

        def is_(n):
            return name == ids.get(n, -2)

        def count(n):
            return int(is_(n).sum())

        def per_call(n, scale):
            k = count(n)
            return float(self_t[is_(n)].sum()) / k * scale if k else 0.0

        def under(child, par):
            return int((is_(child) & (parent_name == ids.get(par, -2))).sum())

        def ratio(num, den):
            return num / den if den else 0.0

        # The sampler each span runs under; parents are recorded before children.
        sampler_of = [None] * name.size
        sampler_ids = {ids[k]: v for k, v in SAMPLER_SPANS.items() if k in ids}
        names_l, parents_l = name.tolist(), parent.tolist()
        for i, (nid, p) in enumerate(zip(names_l, parents_l)):
            sampler_of[i] = sampler_ids.get(nid) or (sampler_of[p] if p >= 0 else None)
        sampler_of = np.array(sampler_of, dtype=object)

        m = {}
        for layer in ("distributions.logpdf_values", "distributions.grad_logpdf_values",
                      "distributions.quantile_values", "model.neg_log_likelihood",
                      "model.grad_neg_log_likelihood", "priors.log_prior", "priors.grad_log_prior",
                      "numerics.RngState"):
            m[f"{layer}.calls"] = (count(layer) / cycles, "count")
            m[f"{layer}.self_us"] = (per_call(layer, 1e6), "us")
        fits = count("optimize.fit_mle")
        m["model.nll_per_grad"] = (ratio(under("model.neg_log_likelihood",
                                               "model.grad_neg_log_likelihood"),
                                         count("model.grad_neg_log_likelihood")), "ratio")
        m["lmoments.stationary_estimate.per_fit"] = (
            ratio(count("lmoments.stationary_estimate"), fits), "ratio")
        m["lmoments.stationary_estimate.self_us"] = (
            per_call("lmoments.stationary_estimate", 1e6), "us")
        m["optimize.fit_mle.self_ms"] = (per_call("optimize.fit_mle", 1e3), "ms")
        evals = self.results.get("optimize.nelder_mead", [])
        m["optimize.nelder_mead.evals_per_fit"] = (ratio(sum(evals), len(evals)), "count")
        m["optimize.nelder_mead.self_ms"] = (per_call("optimize.nelder_mead", 1e3), "ms")
        m["optimize.hessian.nll_calls_per_fit"] = (ratio(
            under("model.neg_log_likelihood", "optimize._hessian_std_errors"), fits), "count")
        facts = self.results.get("optimize.fit_mle", [])
        m["optimize.fit_mle.converged"] = (ratio(sum(c for c, _ in facts), len(facts)), "ratio")
        m["optimize.fit_mle.with_se"] = (ratio(sum(s for _, s in facts), len(facts)), "ratio")
        nll = is_("model.neg_log_likelihood")
        grad = is_("model.grad_neg_log_likelihood")
        for span, kind in SAMPLER_SPANS.items():
            facts = self.results.get(span, [])
            iters = sum(it for _, it in facts)
            m[f"samplers.{kind}.iter_us"] = (ratio(float(dur[is_(span)].sum()), iters) * 1e6, "us")
            m[f"samplers.{kind}.accept"] = (ratio(sum(a for a, _ in facts), len(facts)), "ratio")
            if kind != "rw":
                m[f"samplers.{kind}.nll_per_iter"] = (
                    ratio(int((nll & (sampler_of == kind)).sum()), iters), "count")
            if kind == "hmc":
                m["samplers.hmc.grad_per_iter"] = (
                    ratio(int((grad & (sampler_of == kind)).sum()), iters), "count")
        m["samplers.leapfrog.self_us"] = (per_call("samplers.leapfrog", 1e6), "us")
        m["diagnostics.dic.self_s"] = (per_call("diagnostics.dic", 1.0), "s")
        m["diagnostics.dic.nll_calls"] = (ratio(under("model.neg_log_likelihood",
                                                      "diagnostics.dic"),
                                                count("diagnostics.dic")), "count")
        for layer in ("ess", "split_rhat", "posterior_summary", "lrt"):
            m[f"diagnostics.{layer}.self_ms"] = (per_call(f"diagnostics.{layer}", 1e3), "ms")
        m["diagnostics.return_levels.self_us"] = (per_call("diagnostics.return_levels", 1e6), "us")
        for cmd in ("simulate", "fit", "lrt", "sample"):
            m[f"cli.{cmd}.self_ms"] = (per_call(f"cli.{cmd}", 1e3), "ms")
        m.update(extra)
        return m


def _chain_facts(chain):
    return chain.acceptance_rate, chain.burn_in + chain.num_samples * chain.thin
