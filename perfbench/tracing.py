"""In-process span tracer for the turnpike layers, installed from outside.

Nothing in the package is edited: the tracer replaces the public functions
of model, quadrature, entryexit, integrate, blowup and _util by timing
wrappers in every module that binds them (the CLI's `from .x import f`
names and each module's own globals), so calls nest into spans with a
parent. Counts are read from what the calls return, never recomputed.
`uninstall` puts the original objects back.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import threading
import time

# Public functions wrapped wherever a layer module binds them. Per-point
# helpers (eval_f_lambda, exp_neg_inv, fmt, ...) are left alone: they run
# tens of thousands of times per call and are not layer boundaries.
TRACED = {
    "turnpike.model": ("load_model", "check_hypotheses"),
    "turnpike.quadrature": ("adaptive_quad", "regular_slow_part", "pv_slow",
                            "pv_fast_half", "pv_fast_numeric",
                            "half_line_integral", "whole_line_integral",
                            "classical_sdi"),
    "turnpike.entryexit": ("base_point", "section_from_base", "solve_delta0_n1",
                           "predict_delay_nge2", "canard_slope",
                           "solve_canard_parameter", "classical_delta0",
                           "log_y_leading_order"),
    "turnpike.integrate": ("integrate", "dulac_map_numeric", "log_y_at_x0"),
    "turnpike.blowup": ("theoretical_z2_curve", "chart1_exit"),
    "turnpike._util": ("parallel_map", "write_rows"),
}
CALLERS = ("turnpike.cli", "turnpike.model", "turnpike.quadrature",
           "turnpike.entryexit", "turnpike.integrate", "turnpike.blowup",
           "turnpike._util")
LAYERS = ("cli", "model", "quadrature", "entryexit", "integrate", "blowup",
          "util")
FIBER = ("entryexit.fiber_down", "entryexit.fiber_up")


def _short(module: str) -> str:
    return module.rsplit(".", 1)[-1].lstrip("_")


class Tracer:
    """Records spans (id, parent, name, start, end, thread, call, counts)."""

    def __init__(self):
        self._raw: list[tuple] = []
        self.call = None  # index of the CLI call being traced (request id)
        self.round = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def run(self, name, fn, args=(), kwargs=None, parent=None, counts=None,
            cpu=False):
        """Call fn inside a span; `counts(result, args)` adds count fields,
        `cpu` adds the calling thread's CPU seconds (GIL waits excluded)."""
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        c0 = time.thread_time() if cpu else 0.0
        t0 = time.perf_counter()
        extra, raised = None, True
        try:
            result = fn(*args, **(kwargs or {}))
            raised = False
            if counts is not None:
                extra = counts(result, args)
        finally:
            t1 = time.perf_counter()
            if cpu:
                extra = dict(extra or {}, cpu=time.thread_time() - c0)
            if raised:
                extra = dict(extra or {}, error=True)
            stack.pop()
            # a flat tuple per span keeps recording cheap; see records()
            self._raw.append((sid, parent, name, t0, t1, threading.get_ident(),
                              self.call, self.round, extra))
        return result

    def wrap(self, name, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.run(name, fn, args, kwargs, counts=counts)
        return traced

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        util = importlib.import_module("turnpike._util")
        ee = importlib.import_module("turnpike.entryexit")
        integ = importlib.import_module("turnpike.integrate")
        wrappers = {}
        for modname, names in TRACED.items():
            mod = importlib.import_module(modname)
            for fname in names:
                fn = getattr(mod, fname)
                wrappers[id(fn)] = (f"{_short(modname)}.{fname}", fn)
        for modname in CALLERS:
            mod = importlib.import_module(modname)
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is None:
                    continue
                name, fn = hit
                if name == "util.parallel_map":
                    new = self._wrap_parallel_map(fn, util.thread_count)
                elif name == "util.write_rows":
                    new = self._wrap_write_rows(fn)
                else:
                    new = self.wrap(name, fn, counts=_counts_for(name))
                self._patch(mod, attr, new)
        # the n = 1 solver calls the fiber map and scipy's brentq directly
        bpm = ee.BasePointMap
        self._patch(bpm, "__call__", self.wrap("entryexit.fiber_down",
                                               bpm.__call__))
        self._patch(bpm, "inverse", self.wrap("entryexit.fiber_up",
                                              bpm.inverse))
        self._patch(ee, "brentq", self.wrap("entryexit.brentq", ee.brentq))
        # the stepping kernel of whichever backend runs
        for kmod in (integ._dp45_py, integ._dp45_c):
            if kmod is not None:
                self._patch(kmod, "integrate_kernel",
                            self.wrap("integrate.kernel", kmod.integrate_kernel))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def _wrap_parallel_map(self, fn, thread_count):
        tracer = self

        @functools.wraps(fn)
        def parallel_map(cell_fn, items):
            workers = max(1, min(thread_count(), len(items)))
            stack = tracer._stack()
            map_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            call, rnd = tracer.call, tracer.round

            def cell(item):  # runs on a worker thread, or inline when serial
                return tracer.run("cli.cell", cell_fn, (item,), parent=map_id,
                                  cpu=True)

            stack.append(map_id)
            t0 = time.perf_counter()
            try:
                return fn(cell, items)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer._raw.append((map_id, parent, "util.parallel_map", t0, t1,
                                    threading.get_ident(), call, rnd,
                                    {"items": len(items), "workers": workers}))
        return parallel_map

    def _wrap_write_rows(self, fn):
        def counts(_result, args):
            out_path, _header, rows = args
            return {"rows": len(rows),
                    "bytes": os.path.getsize(out_path) if out_path else 0}

        @functools.wraps(fn)
        def write_rows(out_path, header, rows):
            rows = rows if hasattr(rows, "__len__") else list(rows)
            return self.run("util.write_rows", fn, (out_path, header, rows),
                            counts=counts)
        return write_rows

    def records(self) -> list[dict]:
        """Spans as dicts: id, parent, name, start, end, thread, call, round
        and any counts; a span whose call raised carries "error": true."""
        out = []
        for sid, parent, name, t0, t1, thread, call, rnd, extra in self._raw:
            span = {"id": sid, "parent": parent, "name": name, "start": t0,
                    "end": t1, "thread": thread, "call": call, "round": rnd}
            span.update(extra or {})
            out.append(span)
        return out

    def dump(self, path, spans) -> None:
        """Write spans as JSON lines."""
        with open(path, "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")


def _counts_for(name):
    if name == "integrate.integrate":
        return lambda tr, _a: {"steps": tr.n_steps, "rejected": tr.n_rejected,
                               "rhs": tr.n_rhs}
    if name.startswith("quadrature."):
        return lambda qr, _a: {"subdivisions": qr.subdivisions}
    return None


# -- per-layer metrics ---------------------------------------------------------

def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def round_counts(spans) -> dict:
    """Exact counts of one traced round; identical rounds give equal dicts."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    ids = {s["id"]: s for s in spans}

    def outer(name):
        return [s for s in by_name.get(name, [])
                if s["parent"] is None or ids[s["parent"]]["name"] != name]

    integ = by_name.get("integrate.integrate", [])
    solves = {s["id"] for s in by_name.get("entryexit.solve_delta0_n1", [])}
    brents = {s["id"] for s in by_name.get("entryexit.brentq", [])}
    evals = [s for s in by_name.get("quadrature.regular_slow_part", [])
             if s["parent"] in solves or s["parent"] in brents]
    writes = by_name.get("util.write_rows", [])
    return {
        "model.check_hypotheses_calls": len(by_name.get("model.check_hypotheses", [])),
        "entryexit.solve_delta0_n1_calls": len(solves),
        "entryexit.relation_evals_total": len(evals),
        "entryexit.relation_evals_in_brent": sum(s["parent"] in brents for s in evals),
        "entryexit.base_point_calls": sum(len(by_name.get(n, [])) for n in FIBER),
        "quadrature.regular_slow_part_calls": len(outer("quadrature.regular_slow_part")),
        "quadrature.whole_line_integral_calls": len(by_name.get("quadrature.whole_line_integral", [])),
        "quadrature.subdivisions": sum(s.get("subdivisions", 0) for s in by_name.get("quadrature.adaptive_quad", [])),
        "integrate.passages": len(integ),
        "integrate.steps": sum(s.get("steps", 0) for s in integ),
        "integrate.rejected": sum(s.get("rejected", 0) for s in integ),
        "integrate.rhs_evals": sum(s.get("rhs", 0) for s in integ),
        "blowup.z2_curve_calls": len(by_name.get("blowup.theoretical_z2_curve", [])),
        "util.rows_written": sum(s.get("rows", 0) for s in writes),
        "util.bytes_written": sum(s.get("bytes", 0) for s in writes),
        "util.parallel_cells": len(by_name.get("cli.cell", [])),
    }


def layer_metrics(spans) -> dict:
    """Per-layer metrics over all traced rounds (times per call, counts per round)."""
    rounds = sorted({s["round"] for s in spans})
    per_round = [round_counts([s for s in spans if s["round"] == r])
                 for r in rounds]
    counts = per_round[0]
    by_name = {}
    children = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        children.setdefault(s["parent"], []).append(s)

    def ms(name_or_names):
        names = (name_or_names,) if isinstance(name_or_names, str) else name_or_names
        durations = [s["end"] - s["start"] for n in names for s in by_name.get(n, [])]
        return 1e3 * statistics.median(durations) if durations else 0.0

    integ = by_name.get("integrate.integrate", [])
    steps_all = sum(s.get("steps", 0) for s in integ)
    integ_time = sum(s["end"] - s["start"] for s in integ)
    steps, rej, rhs = (counts["integrate.steps"], counts["integrate.rejected"],
                       counts["integrate.rhs_evals"])
    maps = by_name.get("util.parallel_map", [])
    cell_cpu = sum(c["cpu"] for m in maps for c in children.get(m["id"], []))
    map_capacity = sum(m["workers"] * (m["end"] - m["start"]) for m in maps)
    solves = counts["entryexit.solve_delta0_n1_calls"]
    evals = counts["entryexit.relation_evals_total"]

    self_s = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        kids = children.get(s["id"], [])
        own = (s["end"] - s["start"]) - _covered(
            [(c["start"], c["end"]) for c in kids], s["start"], s["end"])
        self_s[s["name"].split(".", 1)[0]] += own

    m = {
        "model.check_hypotheses_ms": ms("model.check_hypotheses"),
        "entryexit.solve_delta0_n1_ms": ms("entryexit.solve_delta0_n1"),
        "entryexit.relation_evals": evals / solves if solves else 0.0,
        "entryexit.relation_useful_ratio":
            counts["entryexit.relation_evals_in_brent"] / evals if evals else 0.0,
        "entryexit.base_point_ms": ms(FIBER),
        "entryexit.base_point_calls": counts["entryexit.base_point_calls"],
        "quadrature.regular_slow_part_ms": ms("quadrature.regular_slow_part"),
        "quadrature.regular_slow_part_calls": counts["quadrature.regular_slow_part_calls"],
        "quadrature.subdivisions": counts["quadrature.subdivisions"],
        "quadrature.whole_line_integral_ms": ms("quadrature.whole_line_integral"),
        "integrate.passage_ms": ms("integrate.integrate"),
        "integrate.us_per_step": 1e6 * integ_time / steps_all if steps_all else 0.0,
        "integrate.steps": steps,
        "integrate.rejected": rej,
        "integrate.rhs_evals": rhs,
        "integrate.accept_ratio": steps / (steps + rej) if steps else 0.0,
        "integrate.rhs_per_step": rhs / steps if steps else 0.0,
        "blowup.z2_curve_ms": ms("blowup.theoretical_z2_curve"),
        "blowup.z2_curve_calls": counts["blowup.z2_curve_calls"],
        "util.write_rows_ms": ms("util.write_rows"),
        "util.rows_written": counts["util.rows_written"],
        "util.bytes_written": counts["util.bytes_written"],
        "util.parallel_map_ms": ms("util.parallel_map"),
        "util.parallel_efficiency": cell_cpu / map_capacity if map_capacity else 0.0,
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = 1e3 * self_s[layer] / len(rounds)
    return m, per_round
