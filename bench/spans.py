"""Per-layer tracing from outside the package.

`Tracer.install` replaces the public ramapoly functions listed in TRACED
with wrappers, in every ramapoly module that binds them (`from .trees import
...` copies a name, so each binding is patched), and on `RootedTree` for its
methods.  `src/` is never edited.  The polynomial routes are timed as
whole-table spans that the algebra workload opens with `Tracer.span`,
because wrapping their memoised recursions would time cache lookups cell by
cell.

Each wrapper records calls, failures (calls that raised) and self time:
the span's duration minus the part covered by the spans of wrapped callees.
The time covered by spans opened outside any other span is kept as
`top_s`; the worker compares it to its traced wall time to show that no
work sits outside a named layer.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

# layer -> public names; "RootedTree.x" is a method, the rest are module
# functions.  Generators (the enumerations) are timed while they run, and
# each call counts once however many trees it yields.
TRACED = {
    "trees": (
        "enumerate_rooted", "enumerate_unrooted",
        "RootedTree.improper_count", "RootedTree.lower_critical", "RootedTree.degree",
        "RootedTree.proper_on_max_path", "RootedTree.mu", "RootedTree.beta_star",
        "RootedTree.is_descendant", "RootedTree.children", "RootedTree.path_to_root",
        "RootedTree.beta",
        "tree_from_text", "tree_to_text", "plane_from_text", "plane_to_text",
    ),
    "bijections": (
        "lower", "lift", "fold_stem", "unfold_stem", "flatten_min", "unflatten_min",
        "rooted_fwd", "rooted_inv", "unrooted_fwd", "unrooted_inv",
        "color_split", "color_merge", "insert_root", "extract_root",
        "plane_fwd", "plane_inv",
    ),
    "polynomials": (
        "psi_bew", "psi_ramanujan", "q_shor", "q_shor_alt", "q_zeng_a", "q_zeng_b",
        "q_from_psi",
    ),
    "series": ("genfun_mismatch",),
    "verify": (
        "check_conjecture", "check_bijections", "check_recurrences", "check_genfun",
        "certify_plane",
    ),
    "cli": ("main",),
}


class Tracer:
    def __init__(self):
        # span name "layer.func" -> [calls, self seconds, failed calls]
        self.stats = {f"{layer}.{f.rpartition('.')[2]}": [0, 0.0, 0]
                      for layer, funcs in TRACED.items() for f in funcs}
        # one accumulator of child-span time per open span; the bottom one
        # collects the duration of top-level spans
        self._stack = [0.0]

    @property
    def top_s(self) -> float:
        return self._stack[0]

    def install(self, package) -> None:
        """Wrap every TRACED name of `package` (the imported ramapoly)."""
        mods = [package] + [getattr(package, layer) for layer in TRACED]
        for layer, funcs in TRACED.items():
            if layer == "polynomials":  # timed by the workload with `span`
                continue
            home = getattr(package, layer)
            for func in funcs:
                owner_name, _, attr = func.rpartition(".")
                owner = getattr(home, owner_name) if owner_name else home
                orig = getattr(owner, attr)
                wrapped = self._wrap(f"{layer}.{attr}", orig)
                if owner_name:
                    setattr(owner, attr, wrapped)
                    continue
                for mod in mods:
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, name, wrapped)

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        if name.startswith("trees.enumerate_"):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                stats[0] += 1
                it = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    except BaseException:
                        stats[2] += 1
                        raise
                    finally:
                        dt = clock() - t0
                        stats[1] += dt - stack.pop()
                        stack[-1] += dt
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats[2] += 1
                raise
            finally:
                dt = clock() - t0
                stats[0] += 1
                stats[1] += dt - stack.pop()
                stack[-1] += dt
        return traced

    @contextmanager
    def span(self, name: str):
        """Time a block as one call of `name` (the whole-table spans)."""
        stats = self.stats[name]
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        except BaseException:
            stats[2] += 1
            raise
        finally:
            dt = time.perf_counter() - t0
            stats[0] += 1
            stats[1] += dt - self._stack.pop()
            self._stack[-1] += dt

    def layer_metrics(self) -> dict[str, float]:
        """calls and self_s per function, self_s and failed per layer."""
        out: dict[str, float] = {}
        layers = {layer: [0.0, 0] for layer in TRACED}
        for key, (calls, self_s, failed) in self.stats.items():
            out[f"{key}.calls"] = calls
            out[f"{key}.self_s"] = self_s
            acc = layers[key.partition(".")[0]]
            acc[0] += self_s
            acc[1] += failed
        for layer, (self_s, failed) in layers.items():
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.failed"] = failed
        return out
