"""Outside-in tracing of plaid's public functions.

`Tracer.install` replaces every public function of every ``plaid.*`` module
with a wrapper, in each ``plaid.*`` namespace that bound it (modules that did
``from .tiling import build_tiling`` hold their own reference).  Nothing in
``src/`` changes.  Each call records a span (name, start, end, parent) in
flat arrays kept in memory; the per-layer metrics are derived from them at
the end.  The hottest scalar functions are counted without spans.

``cli.CHECKS`` holds the original check functions, so checks are timed by
the benchmark where it calls them (`Tracer.span`), not by patching.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Counted, never spanned: each call costs well under a microsecond, and the
# scalar tile path makes millions of them.
COUNT_ONLY = frozenset({
    "grid.cap_scaled", "grid.mass_scaled", "numtheory.tune", "numtheory.kappa",
    "exactnum.floor_exact", "exactnum.mod_interval",
})
# Left unwrapped: the scalar path calls it once per mass_scaled call, and a
# counting wrapper would double the tracing cost of chain-probe.
UNWRAPPED = frozenset({"grid.is_light_value"})

LAYERS = ("cli", "tiling", "pet", "alignment", "copying", "numtheory",
          "grid", "exactnum")


def plaid_modules() -> list:
    import plaid
    mods = [plaid]
    for info in pkgutil.iter_modules(plaid.__path__):
        mods.append(importlib.import_module(f"plaid.{info.name}"))
    return mods


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self._stack = [-1]
        self._cells: dict[str, list] = {}  # call counters of COUNT_ONLY
        self.errors: Counter = Counter()
        self.build_keys: set = set()
        self.tile_keys: set = set()
        self.squares = 0
        self.tile_bytes = 0
        self.orbit_steps = 0
        self._patches: list = []

    # -- spans ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.sp_name)
        self.sp_name.append(nid)
        self.sp_parent.append(self._stack[-1])
        self.sp_end.append(0.0)
        self._stack.append(idx)
        self.sp_start.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.sp_end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    # -- wrapping ------------------------------------------------------------

    def _observe(self, name: str, args, result):
        """Counts that need the call's arguments or result."""
        if name == "tiling.build_tiling":
            r, x0, x1, y0, y1 = args[:5]
            self.build_keys.add((r.p, r.q, x0, x1, y0, y1))
            self.squares += (x1 - x0) * (y1 - y0)
            self.tile_bytes += result.tiles.nbytes
        elif name == "tiling.tile_bits_at":
            r, a, b = args[:3]
            self.tile_keys.add(hash((r.p, r.q, a, b)))
        elif name == "pet.orbit":
            self.orbit_steps += len(result.steps)

    def _wrap(self, fn, name: str, layer: str):
        errors = self.errors
        if name in COUNT_ONLY:
            cell = self._cells.setdefault(name, [0])

            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
            return counted
        nid = self._id(name)
        observed = name in ("tiling.build_tiling", "tiling.tile_bits_at",
                            "pet.orbit")

        def spanned(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                self._close(idx)
            if observed:
                self._observe(name, args, result)
            return result
        return spanned

    def install(self):
        mods = plaid_modules()
        wrappers = {}
        for mod in mods:
            layer = mod.__name__.rpartition(".")[2]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)
                        or f"{layer}.{attr}" in UNWRAPPED):
                    continue
                wrappers[fn] = self._wrap(fn, f"{layer}.{attr}", layer)
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])

    def uninstall(self):
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    # -- metrics -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name total and self seconds and calls."""
        names = np.frombuffer(self.sp_name, dtype=np.int32)
        parents = np.frombuffer(self.sp_parent, dtype=np.int32)
        dur = (np.frombuffer(self.sp_end, dtype=np.float64)
               - np.frombuffer(self.sp_start, dtype=np.float64))
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_t = dur - child
        k = len(self.names)
        calls = dict(zip(self.names, np.bincount(names, minlength=k).tolist()))
        calls.update((name, cell[0]) for name, cell in self._cells.items())
        return {
            "total": dict(zip(self.names, np.bincount(names, dur, k).tolist())),
            "self": dict(zip(self.names, np.bincount(names, self_t, k).tolist())),
            "calls": calls,
            "spans": int(names.size),
            "roots": float(dur[~has_parent].sum()),
        }

    def layer_metrics(self, wall_s: float, passes: int = 1) -> dict:
        """The per-layer metrics of a traced phase of `wall_s` seconds that
        ran `passes` passes of the job list, per pass."""
        from plaid.cli import CHECKS
        s = self.summary()
        tot, slf, calls = s["total"], s["self"], s["calls"]
        t = lambda *ns: sum(tot.get(n, 0.0) for n in ns)  # noqa: E731
        st = lambda *ns: sum(slf.get(n, 0.0) for n in ns)  # noqa: E731
        c = lambda *ns: sum(calls.get(n, 0) for n in ns)  # noqa: E731
        m: dict[str, tuple[float, str]] = {}
        m["tiling.line_kernel.calls"] = (c("tiling.v_edges_good", "tiling.h_edges_count"), "count")
        m["tiling.line_kernel.s"] = (t("tiling.v_edges_good", "tiling.h_edges_count"), "s")
        for name in CHECKS:
            m[f"cli.check.{name}.s"] = (t(f"cli.check.{name}"), "s")
        n_build = c("tiling.build_tiling")
        m["tiling.build_tiling.calls"] = (n_build, "count")
        m["tiling.build_tiling.self_s"] = (st("tiling.build_tiling"), "s")
        m["tiling.build_tiling.unique_ratio"] = (
            len(self.build_keys) * passes / n_build if n_build else 0.0, "ratio")
        m["tiling.squares"] = (self.squares, "count")
        build_s = t("tiling.build_tiling")
        m["tiling.squares_per_s"] = (self.squares / build_s if build_s else 0.0, "1/s")
        m["tiling.bytes_computed"] = (self.tile_bytes, "bytes")
        m["tiling.trace_polygons.s"] = (t("tiling.trace_polygons"), "s")
        m["tiling.big_polygon.self_s"] = (st("tiling.big_polygon"), "s")
        n_tile = c("tiling.tile_bits_at")
        m["tiling.tile_bits_at.calls"] = (n_tile, "count")
        m["tiling.tile_bits_at.s"] = (t("tiling.tile_bits_at"), "s")
        m["tiling.tile_bits_at.unique_ratio"] = (
            len(self.tile_keys) * passes / n_tile if n_tile else 0.0, "ratio")
        orbit_s = t("pet.orbit")
        m["pet.orbit.calls"] = (c("pet.orbit"), "count")
        m["pet.orbit.steps"] = (self.orbit_steps, "count")
        m["pet.steps_per_s"] = (self.orbit_steps / orbit_s if orbit_s else 0.0, "1/s")
        m["pet.orbit.self_s"] = (st("pet.orbit"), "s")
        m["pet.classify.s"] = (t("pet.classify"), "s")
        m["pet.follow.s"] = (t("pet.follow"), "s")
        m["pet.limit_experiment.self_s"] = (st("pet.limit_experiment"), "s")
        m["copying.observed_branch.calls"] = (c("copying.observed_branch"), "count")
        m["copying.observed_branch.self_s"] = (st("copying.observed_branch"), "s")
        m["copying.verify_box_lemma.self_s"] = (st("copying.verify_box_lemma"), "s")
        m["copying.verify_copy.self_s"] = (
            st("copying.verify_weak_strong_copy", "copying.verify_core_copy"), "s")
        m["copying.verify_copy_theorem.self_s"] = (st("copying.verify_copy_theorem"), "s")
        m["alignment.geometric_alignment.s"] = (t("alignment.geometric_alignment"), "s")
        m["alignment.arithmetic_alignment.s"] = (
            t("alignment.arithmetic_alignment", "alignment.sequences"), "s")
        m["alignment.special_index_harmless.s"] = (t("alignment.special_index_harmless"), "s")
        m["alignment.audit.s"] = (t("alignment.psi_xi_audit", "alignment.core_mass_audit"), "s")
        m["alignment.matching.self_s"] = (st("alignment.matching"), "s")
        layer_of = lambda n: n.partition(".")[0]  # noqa: E731
        m["numtheory.calls"] = (sum(v for n, v in calls.items()
                                    if layer_of(n) == "numtheory"), "count")
        m["grid.scalar.calls"] = (c("grid.cap_scaled", "grid.mass_scaled"), "count")
        m["exactnum.calls"] = (c("exactnum.floor_exact", "exactnum.mod_interval"), "count")
        for layer in LAYERS:
            m[f"{layer}.errors"] = (self.errors[layer], "count")
        # accounting: layer self times plus the benchmark's own remainder
        # make up the traced wall time
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (sum(v for n, v in slf.items()
                                        if layer_of(n) == layer), "s")
        bench_self = sum(v for n, v in slf.items() if layer_of(n) == "bench")
        m["bench.self_s"] = (bench_self + wall_s - s["roots"], "s")
        m["trace.spans"] = (s["spans"], "count")
        m["trace.wall_s"] = (wall_s, "s")
        # totals become per-pass values; ratios and rates stay as they are
        return {k: {"value": v / passes if u in ("s", "count", "bytes") else v,
                    "unit": u} for k, (v, u) in m.items()}
