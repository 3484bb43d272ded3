"""Span tracer that measures wfvar's layers from outside the package.

`Tracer.install` wraps every public module-level function of the eight
wfvar modules, rebinds each alias of those functions across `wfvar.*`
(`from .x import f` copies the name into the importing module, and the
package attribute `wfvar.action` is the function, not the module), and
patches `PiecewiseTrajectory` evaluation and `Segment` construction on the
classes themselves.  Every call then records one span: name, start, end
and the span that was open when it began.  Spans stay in memory until
`write` dumps them; `summarize` turns them into the per-layer metrics.

Jobs must be invoked through `wfvar.cli.run` after `install`, so that every
name lookup goes through the rebound module globals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("core", "lightcone", "action", "momentum", "farfield", "shortrange",
          "optimizer", "cli")
EVAL_METHODS = ("position", "velocity", "acceleration", "state")


class Tracer:
    def __init__(self):
        self.names = []  # span name by name id
        self._ids = {}
        self.span_name = array("l")  # name id per span
        self.start = array("q")  # perf_counter_ns
        self.end = array("q")
        self.parent = array("l")  # span id, -1 for a root span
        self._stack = [-1]
        self._undo = []  # (owner, attribute, original value)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        span_name, start, end, parent = self.span_name, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"wfvar.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "wfvar" and not modname.startswith("wfvar."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        core = sys.modules["wfvar.core"]
        for meth in EVAL_METHODS:
            self._set(core.PiecewiseTrajectory, meth,
                      self._wrap(f"core.eval.{meth}",
                                 getattr(core.PiecewiseTrajectory, meth)))
        self._set(core.Segment, "__init__",
                  self._wrap("core.segment_new", core.Segment.__init__))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        """Spans as TSV: id, name, start_ns, end_ns, parent id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\n")
            for sid, (nid, s, e, p) in enumerate(
                    zip(self.span_name, self.start, self.end, self.parent)):
                fh.write(f"{sid}\t{self.names[nid]}\t{s}\t{e}\t{p}\n")

    def summarize(self, iterations: int) -> dict:
        """Per-layer metrics of every span recorded so far.

        `iterations` is the minimizer iteration count the jobs reported;
        it is the base of `optimizer.frechet_per_iter`.
        """
        names = np.asarray(self.span_name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=names.size)
        self_ns = dur - child
        parent_name = np.where(parent >= 0, names[np.maximum(parent, 0)], -1)
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names])
        span_layer = layer_of[names]
        parent_layer = np.where(parent >= 0, span_layer[np.maximum(parent, 0)], -1)

        def nid(name):
            return self._ids.get(name, -2)

        def is_(name):
            return names == nid(name)

        def count(name):
            return int(is_(name).sum())

        def p50(name, scale):
            sel = dur[is_(name)]
            return float(np.median(sel)) / scale if sel.size else 0.0

        def total(name):
            return float(dur[is_(name)].sum()) / 1e9

        def layer_self(layer):
            return float(self_ns[span_layer == LAYERS.index(layer)].sum()) / 1e9

        evals = np.isin(names, [nid(f"core.eval.{m}") for m in EVAL_METHODS])

        def evals_per_call(name):
            calls = count(name)
            inside = int((evals & (parent_name == nid(name))).sum())
            return inside / calls if calls else 0.0

        under_minimize = parent_name == nid("optimizer.minimize")
        frechet = is_("action.frechet_directional")
        return {
            "core.eval.calls": int(evals.sum()),
            "core.segment_new.calls": count("core.segment_new"),
            "core.self_s": layer_self("core"),
            "lightcone.cone_time.calls": count("lightcone.cone_time"),
            "lightcone.cone_time.evals_per_call": evals_per_call("lightcone.cone_time"),
            "lightcone.cone_time.us_p50": p50("lightcone.cone_time", 1e3),
            "lightcone.far_cone_time.calls": count("lightcone.far_cone_time"),
            "lightcone.far_cone_time.evals_per_call": evals_per_call("lightcone.far_cone_time"),
            "lightcone.far_cone_time.us_p50": p50("lightcone.far_cone_time", 1e3),
            "lightcone.self_s": layer_self("lightcone"),
            "action.calls": count("action.action"),
            "action.frechet.calls": int(frechet.sum()),
            "action.el_residual.calls": count("action.el_residual"),
            "action.integrand_evals": int((is_("core.eval.state")
                                           & (parent_layer == LAYERS.index("action"))).sum()),
            "action.frechet.ms_p50": p50("action.frechet_directional", 1e6),
            "action.self_s": layer_self("action"),
            "momentum.calls": int((span_layer == LAYERS.index("momentum")).sum()),
            "momentum.self_s": layer_self("momentum"),
            "farfield.sphere_flux.calls": count("farfield.sphere_flux"),
            "farfield.sphere_flux.ms_p50": p50("farfield.sphere_flux", 1e6),
            "farfield.gah_residual.calls": count("farfield.gah_residual"),
            "farfield.self_s": layer_self("farfield"),
            "shortrange.construct_partner.calls": count("shortrange.construct_partner"),
            "shortrange.construct_partner.s": total("shortrange.construct_partner"),
            "shortrange.self_s": layer_self("shortrange"),
            "optimizer.iterations": iterations,
            "optimizer.frechet_per_iter": (int((frechet & under_minimize).sum()) / iterations
                                           if iterations else 0.0),
            "optimizer.objective_evals": int((is_("action.action") & under_minimize).sum()),
            "optimizer.verify.s": total("optimizer.verify"),
            "optimizer.self_s": layer_self("optimizer"),
            "cli.run.calls": count("cli.run"),
            "cli.self_s": layer_self("cli"),
        }
