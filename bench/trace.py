"""Span tracing of hadstab's public layer functions, from outside the library.

``Tracer.install`` wraps every public function defined in a layer module and
rebinds the wrapper wherever a ``hadstab`` module (the package namespace
included) binds the original, so calls between modules and within one module
are both seen.  Functions are found by name at install time: a name that a
refactor removed simply is not wrapped, and every metric that needs it reads
``None`` instead of failing.

A span is ``[name, start, end, parent, item, attr, error]``; spans stay in
memory until ``dump``.  A span's self time is its duration minus the time its
children cover (children of one span never overlap: the caller is serial).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

from inputs import BRANCH_CLASSES

LAYERS = ("poly", "roots", "criteria", "thresholds", "report", "cli")

# Degree bands for find_roots cost, upper bounds inclusive.
DEGREE_BANDS = (("n_le_8", 8), ("n_9_32", 32), ("n_33_128", 128), ("n_gt_128", None))

# Formatting functions whose time is counted as rendering: the CSV, SVG and
# JSON writers, then the helpers they call.
RENDER = (
    "report.sweep_csv",
    "report.sweep_svg",
    "report.dumps",
    "report.json_ready",
    "report.round12",
    "report.fmt12",
)


def unit_of(metric: str) -> str:
    if metric.endswith("_ms") or ".ms_per_call" in metric:
        return "ms"
    if metric.endswith("find_roots_per_call"):
        return "count/call"
    if ".solve_ratio." in metric:
        return "ratio"
    return "count"


def _degree(args, result):
    return args[0].degree


def _size(args, result):
    return len(result)


def _branches(args, result):
    return len(args[0])


# Per-call facts recorded on the span, keyed by the traced name.
ATTRS = {
    "roots.find_roots": _degree,
    "poly.hadamard_power": _size,
    "roots.branch_set_stable": _branches,
}

NAME, START, END, PARENT, ITEM, ATTR, ERROR = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item: str | None = None
        self.names: set[str] = set()
        self._stack: list[int] = []
        self._seen_errors: dict[int, BaseException] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._error_base: type = Exception

    def install(self) -> None:
        """Wrap the public functions of every loaded ``hadstab`` layer module."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "hadstab" or name.startswith("hadstab."))
        }
        errors = modules.get("hadstab.errors")
        self._error_base = getattr(errors, "HadstabError", Exception)
        wrappers = {}
        for layer in LAYERS:
            mod = modules.get(f"hadstab.{layer}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    qual = f"{layer}.{name}"
                    wrappers[obj] = self._wrap(qual, obj)
                    self.names.add(qual)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._restore):
            setattr(mod, name, obj)
        self._restore.clear()

    def start_item(self, item: str) -> None:
        self.item = item
        self._seen_errors.clear()

    def _wrap(self, qual: str, fn):
        attr_of = ATTRS.get(qual)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [qual, 0.0, 0.0, stack[-1] if stack else None, self.item, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = perf_counter()
                stack.pop()
                self._note_error(rec, exc)
                raise
            rec[END] = perf_counter()
            stack.pop()
            if attr_of is not None:
                try:
                    rec[ATTR] = attr_of(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass
            return result

        return traced

    def _note_error(self, rec: list, exc: BaseException) -> None:
        # Count a library error once, in the layer where it first surfaced.
        if isinstance(exc, self._error_base) and id(exc) not in self._seen_errors:
            self._seen_errors[id(exc)] = exc
            rec[ERROR] = type(exc).__name__

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "item", "attr", "error"],
                 "spans": self.spans},
                fh,
            )


def layer_metrics(tracer: Tracer, item_class: dict[str, str]) -> dict[str, float | None]:
    """Per-layer metrics from the recorded spans.

    Ratios over zero calls read 0; a metric whose traced function no longer
    exists reads None.  ``item_class`` maps an item id to its branch-set class.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] is not None:
            child[rec[PARENT]] += rec[END] - rec[START]
    self_ms: dict[str, float] = defaultdict(float)
    total_ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, rec in enumerate(spans):
        dur = rec[END] - rec[START]
        self_ms[rec[NAME]] += 1e3 * (dur - child[i])
        total_ms[rec[NAME]] += 1e3 * dur
        calls[rec[NAME]] += 1

    # find_roots calls under each enclosing span of interest.
    solves_under: dict[int, int] = defaultdict(int)
    watched = {"thresholds.auto_onset", "thresholds.exact_onset", "roots.branch_set_stable"}
    band_calls: dict[str, int] = defaultdict(int)
    band_ms: dict[str, float] = defaultdict(float)
    for rec in spans:
        if rec[NAME] != "roots.find_roots":
            continue
        if rec[ATTR] is not None:
            band = next(b for b, top in DEGREE_BANDS if top is None or rec[ATTR] <= top)
            band_calls[band] += 1
            band_ms[band] += 1e3 * (rec[END] - rec[START])
        parent = rec[PARENT]
        while parent is not None:
            if spans[parent][NAME] in watched:
                solves_under[parent] += 1
            parent = spans[parent][PARENT]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def per_call_solves(name: str) -> float:
        idx = [i for i, rec in enumerate(spans) if rec[NAME] == name]
        return ratio(sum(solves_under[i] for i in idx), len(idx))

    def solve_ratio(cls: str) -> float:
        solves = branches = 0
        for i, rec in enumerate(spans):
            if rec[NAME] == "roots.branch_set_stable" and item_class.get(rec[ITEM]) == cls:
                solves += solves_under[i]
                branches += rec[ATTR] or 0
        return ratio(solves, branches)

    def layer_sum(table: dict, layer: str) -> float:
        return sum(v for k, v in table.items() if k.split(".")[0] == layer)

    errors: dict[str, int] = defaultdict(int)
    for rec in spans:
        if rec[ERROR] is not None:
            errors[rec[NAME].split(".")[0]] += 1

    specs = []  # (metric, required traced names, value thunk)
    for layer in LAYERS:
        specs.append((f"{layer}.self_ms", (), lambda l=layer: layer_sum(self_ms, l)))
        specs.append((f"{layer}.errors", (), lambda l=layer: errors[l]))
    fr = "roots.find_roots"
    specs += [
        (f"{fr}.calls", (fr,), lambda: calls[fr]),
        (f"{fr}.self_ms", (fr,), lambda: self_ms[fr]),
    ]
    for band, _ in DEGREE_BANDS:
        specs.append((f"{fr}.calls.{band}", (fr,), lambda b=band: band_calls[b]))
        specs.append(
            (f"{fr}.ms_per_call.{band}", (fr,), lambda b=band: ratio(band_ms[b], band_calls[b]))
        )
    for name in ("thresholds.auto_onset", "thresholds.exact_onset"):
        specs.append(
            (f"{name}.find_roots_per_call", (name, fr), lambda n=name: per_call_solves(n))
        )
    for name in ("thresholds.pstar_grid", "thresholds.pstar_exact"):
        specs.append(
            (f"{name}.ms_per_call", (name,), lambda n=name: ratio(total_ms[n], calls[n]))
        )
    bss = "roots.branch_set_stable"
    for cls in BRANCH_CLASSES:
        specs.append((f"{bss}.solve_ratio.{cls}", (bss, fr), lambda c=cls: solve_ratio(c)))
    hp = "poly.hadamard_power"
    specs += [
        (f"{hp}.self_ms", (hp,), lambda: self_ms[hp]),
        (
            f"{hp}.members",
            (hp,),
            lambda: sum(rec[ATTR] or 0 for rec in spans if rec[NAME] == hp),
        ),
        ("poly.principal_power.self_ms", ("poly.principal_power",),
         lambda: self_ms["poly.principal_power"]),
        ("report.sweep.self_ms", ("report.sweep",), lambda: self_ms["report.sweep"]),
        ("report.render.self_ms", RENDER[:3], lambda: sum(self_ms[n] for n in RENDER)),
        ("cli.main.self_ms", ("cli.main",), lambda: self_ms["cli.main"]),
        ("trace.spans", (), lambda: len(spans)),
    ]
    return {
        metric: (value() if all(n in tracer.names for n in needs) else None)
        for metric, needs, value in specs
    }
