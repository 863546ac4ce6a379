"""Spans around the package's coarse public functions, patched from outside.

The tracer replaces each listed function with a wrapper in every package
module that holds it, whether by definition or through ``from .x import``,
so calls inside a module and calls across modules are both seen.  A span
is [name, start, end, parent index, info, raised]; spans stay in memory
until the run ends, and self time is computed from them afterwards.

Per-state functions (component, edges_at_vertex, is_admissible_six, the
per-form closedness checks) are deliberately not wrapped: a span per
state would cost more than the work it measures.  The counts they would
give are derived from outputs instead and reported with the unit
``count.computed``.
"""

from __future__ import annotations

import importlib
import math
import statistics
from time import perf_counter

LAYERS = ("cli", "grid", "algebra", "forms_rect", "eightvertex", "toroidal", "yangbaxter")

WRAPPED = {
    "cli": ("main", "cmd_count", "cmd_enumerate", "cmd_verify", "cmd_ybe", "cmd_partition"),
    "grid": ("guard_size", "boundary_of", "serialize_state", "deserialize_state",
             "deserialize_boundary"),
    "algebra": ("rref", "pivot_columns", "rank", "nullspace_basis", "matmul", "mat_sub"),
    "forms_rect": ("count_six", "enumerate_six", "enumerate_closed", "count_colorings",
                   "antiderivative", "exterior_derivative", "coloring_from_form",
                   "form_from_coloring", "random_closed_form", "random_proper_coloring",
                   "state_to_form"),
    "eightvertex": ("enumerate_eight", "count_total", "count_with_boundary",
                    "count_valid_boundaries", "defect_map", "construct_state"),
    "toroidal": ("enumerate_six_toroidal", "sparse_fibers", "decompose", "reconstruct"),
    "yangbaxter": ("partition_function", "yb_commutator", "star_triangle_residuals",
                   "residuals28", "check_necessary_conditions", "solve_R",
                   "deserialize_weights", "serialize_weights"),
}

_FORMS_ENUM = ("forms_rect.count_six", "forms_rect.enumerate_six", "forms_rect.enumerate_closed")
_MAPS = tuple(f"forms_rect.{n}" for n in (
    "antiderivative", "exterior_derivative", "coloring_from_form", "form_from_coloring",
    "random_closed_form", "random_proper_coloring", "state_to_form"))
_STATE_LISTS = ("forms_rect.enumerate_six", "eightvertex.enumerate_eight",
                "toroidal.enumerate_six_toroidal")
FIELDS = ("F2", "F3", "Q")


def _out(info) -> int:
    """The output count a span's info records."""
    return info[0] if isinstance(info, tuple) else info


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


# What a span keeps of its call: only what the per-layer metrics need.
_INFO = {
    "grid.guard_size": lambda a, k, out: _arg(a, k, 0, "log2_count"),
    "algebra.rref": lambda a, k, out: (a[0].field.name, a[0].rows * a[0].cols),
    "forms_rect.count_six": lambda a, k, out: out,
    "forms_rect.enumerate_six": lambda a, k, out: len(out),
    "forms_rect.enumerate_closed": lambda a, k, out: len(out),
    "forms_rect.count_colorings": lambda a, k, out: out,
    "eightvertex.enumerate_eight": lambda a, k, out: (
        len(out), _arg(a, k, 2, "method", "kernel"), a[0].edge_count),
    "toroidal.enumerate_six_toroidal": lambda a, k, out: (len(out), 2 * a[0].m * a[0].n),
    "yangbaxter.partition_function": lambda a, k, out: max(
        out.numerator.bit_length(), out.denominator.bit_length()),
}

NAME, START, END, PARENT, INFO, RAISED = range(6)


class Tracer:
    """Collects spans while installed; install() and uninstall() patch the package."""

    def __init__(self):
        self.modules = {layer: importlib.import_module(f"vertexforms.{layer}")
                        for layer in LAYERS}
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack, info = self.spans, self._stack, _INFO.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        for layer, names in WRAPPED.items():
            home = self.modules[layer]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in self.modules.values():
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()


def layer_metrics(spans: list, offset: int, jobs: list, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass.

    spans are the pass's spans, which start at index offset of the run's
    span list; jobs holds (job, first span, end span, output bytes) for
    each job of the pass, with run-wide span indices; wall_s is the pass's
    summed job time.
    """
    child = [0.0] * len(spans)
    for sp in spans:
        if sp[PARENT] >= 0:
            child[sp[PARENT] - offset] += sp[END] - sp[START]
    calls: dict = {}
    self_s: dict = {}
    errors = dict.fromkeys(LAYERS, 0)
    for idx, sp in enumerate(spans):
        name = sp[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (sp[END] - sp[START]) - child[idx]
        if sp[RAISED]:
            errors[name.split(".", 1)[0]] += 1

    def total(names) -> float:
        return sum(self_s.get(n, 0.0) for n in names)

    def count(names) -> int:
        return sum(calls.get(n, 0) for n in names)

    def infos(name):  # calls that raised recorded no info
        return [sp[INFO] for sp in spans if sp[NAME] == name and sp[INFO] is not None]

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, t in self_s.items():
        layer_self[name.split(".", 1)[0]] += t

    enumerated = kept = lookups = 0
    for job, first, end, _ in jobs:
        if "kept" in job.facts:
            kept += job.facts["kept"]
            enumerated += sum(sp[INFO] for sp in spans[first - offset:end - offset]
                              if sp[NAME] == "forms_rect.enumerate_six")
        lookups += job.facts.get("weight_lookups", 0)

    excess = 0.0
    for sp in spans:
        if sp[NAME] == "grid.guard_size" and sp[PARENT] >= 0 and sp[INFO] is not None:
            out = spans[sp[PARENT] - offset][INFO]
            if out is not None and _out(out) > 0:
                excess = max(excess, sp[INFO] - math.log2(_out(out)))

    rref = [sp for sp in spans if sp[NAME] == "algebra.rref" and sp[INFO] is not None]
    forms_out = sum(sum(infos(n)) for n in _FORMS_ENUM)
    forms_s = total(_FORMS_ENUM)
    eight = infos("eightvertex.enumerate_eight")
    eight_out = sum(x[0] for x in eight)
    eight_s = total(("eightvertex.enumerate_eight",))
    brute_out = sum(x[0] for x in eight if x[1] == "brute")
    brute_visited = sum(2 ** x[2] for x in eight if x[1] == "brute")
    tor = infos("toroidal.enumerate_six_toroidal")
    tor_out = sum(x[0] for x in tor)
    tor_candidates = sum(2 ** x[1] for x in tor)
    z_bits = infos("yangbaxter.partition_function")

    m = {
        "cli.output_bytes": (sum(j[3] for j in jobs), "bytes"),
        "cli.boundary_discard_ratio": (enumerated / kept if kept else 0.0, "ratio"),
        "grid.serialize_calls": (count(("grid.serialize_state",)), "count"),
        "grid.serialize_s": (total(("grid.serialize_state",)), "s"),
        "grid.boundary_of_calls": (count(("grid.boundary_of",)), "count"),
        "grid.boundary_of_s": (total(("grid.boundary_of",)), "s"),
        "grid.states_materialized": (
            sum(_out(x) for n in _STATE_LISTS for x in infos(n)), "count"),
        "grid.guard_excess_log2": (excess, "log2"),
    }
    for fld in FIELDS:
        m[f"algebra.rref_calls.{fld}"] = (sum(1 for sp in rref if sp[INFO][0] == fld), "count")
        m[f"algebra.rref_s.{fld}"] = (
            sum(sp[END] - sp[START] for sp in rref if sp[INFO][0] == fld), "s")
    m.update({
        "algebra.rref_cells": (sum(sp[INFO][1] for sp in rref), "count"),
        "algebra.matmul_calls": (count(("algebra.matmul",)), "count"),
        "algebra.matmul_s": (total(("algebra.matmul",)), "s"),
        "forms_rect.enum_s": (forms_s, "s"),
        "forms_rect.states_out": (forms_out, "count"),
        "forms_rect.states_per_s": (forms_out / forms_s if forms_s else 0.0, "1/s"),
        "forms_rect.colorings_s": (total(("forms_rect.count_colorings",)), "s"),
        "forms_rect.maps_calls": (count(_MAPS), "count"),
        "forms_rect.maps_s": (total(_MAPS), "s"),
        "eightvertex.enum_s": (eight_s, "s"),
        "eightvertex.states_out": (eight_out, "count"),
        "eightvertex.states_per_s": (eight_out / eight_s if eight_s else 0.0, "1/s"),
        "eightvertex.brute_visited": (brute_visited, "count.computed"),
        "eightvertex.brute_yield": (brute_out / brute_visited if brute_visited else 0.0,
                                    "ratio"),
        "toroidal.enum_s": (total(("toroidal.enumerate_six_toroidal",)), "s"),
        "toroidal.states_out": (tor_out, "count"),
        "toroidal.candidates": (tor_candidates, "count.computed"),
        "toroidal.yield": (tor_out / tor_candidates if tor_candidates else 0.0, "ratio"),
        "toroidal.decompose_calls": (count(("toroidal.decompose",)), "count"),
        "toroidal.decompose_s": (total(("toroidal.decompose",)), "s"),
        "toroidal.fibers_s": (total(("toroidal.sparse_fibers",)), "s"),
        "yangbaxter.partition_self_s": (total(("yangbaxter.partition_function",)), "s"),
        "yangbaxter.weight_lookups": (lookups, "count.computed"),
        "yangbaxter.z_bits": (max(z_bits, default=0), "bits"),
        "yangbaxter.commutator_calls": (count(("yangbaxter.yb_commutator",)), "count"),
        "yangbaxter.commutator_s": (total(("yangbaxter.yb_commutator",)), "s"),
        "yangbaxter.residuals_s": (
            total(("yangbaxter.star_triangle_residuals", "yangbaxter.residuals28")), "s"),
        "yangbaxter.conditions_s": (total(("yangbaxter.check_necessary_conditions",)), "s"),
        "yangbaxter.solve_self_s": (total(("yangbaxter.solve_R",)), "s"),
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
        m[f"{layer}.errors"] = (errors[layer], "count")
    m["trace.accounted_frac"] = (sum(layer_self.values()) / wall_s if wall_s else 0.0, "ratio")
    return m


def median_metrics(per_pass: list) -> dict:
    """Median of each metric over passes, keeping its unit."""
    return {
        name: (statistics.median(p[name][0] for p in per_pass), per_pass[0][name][1])
        for name in per_pass[0]
    }
