"""Traced run: spans around the calls into each gaudinlab layer.

The program is not changed.  `Tracer.install` replaces each traced function
by a timing wrapper under every name a layer module imported it as (for
example `gaudinlab.cli.build_gaudin` and `gaudinlab.gaudin.sh_quotient`),
and `uninstall` puts the originals back.  Spans are kept in memory.
Functions that are not traced, and numpy work such as object-array
products, count toward the layer that called them.
"""

from __future__ import annotations

import functools
import importlib
import time

LAYERS = ("cli", "gl2rep", "gaudin", "numcore", "opscheme", "spectral", "sov")

# Functions traced in each layer: the public calls made across layer
# boundaries during a pipeline run.  `_a_of_h_raw` is the a(h) solve that
# `spectral` calls; its span is named `opscheme.a_of_h`.
TRACED = {
    "cli": ("cmd_spectrum", "cmd_verify", "load_config", "run_pipeline"),
    "gaudin": ("build_gaudin", "bethe_algebra_basis", "induced_map_kernel",
               "annihilator_ideal"),
    "gl2rep": ("sh_quotient", "generator_matrix", "degree_diagonal",
               "singular_matrix", "shapovalov_gram"),
    "numcore": ("kernel_basis", "rank_of", "rref", "solve_linear",
                "solve_consistent", "to_float_array"),
    "opscheme": ("_a_of_h_raw", "ptilde_solve", "exponents_at", "residual_system",
                 "operator_from_kernel_pair", "h_from_numerator", "wronskian_check",
                 "schubert_dimension"),
    "spectral": ("joint_spectrum", "match_spectrum_to_scheme",
                 "grothendieck_weights", "diagonalizability_check"),
    "sov": ("bethe_vector", "weight_function"),
}
SPAN_NAMES = {"_a_of_h_raw": "a_of_h"}

# What a span records about its arguments, by span name.
ARG_SIZES = {
    "numcore.kernel_basis": lambda args: args[0].shape[0] * args[0].shape[1],
    "gl2rep.sh_quotient": lambda args: (args[0].m, args[0].l),
    "spectral.match_spectrum_to_scheme": lambda args: len(args[1]),
}

# Span fields: [name, start, end, parent index, call id, argument size, error].
NAME, START, END, PARENT, CALL, SIZE, ERROR = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.call_id = 0
        self._open = []
        self._restore = []

    def _wrap(self, name, fn):
        size = ARG_SIZES.get(name)
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call_id,
                    size(args) if size else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as err:
                span[ERROR] = type(err).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced

    def run(self, name, fn, *args):
        """fn(*args) inside a span of its own, for work the benchmark does itself."""
        return self._wrap(name, fn)(*args)

    def install(self):
        modules = [importlib.import_module(f"gaudinlab.{m}") for m in LAYERS]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"gaudinlab.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{SPAN_NAMES.get(fname, fname)}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, value))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        while self._restore:
            mod, attr, value = self._restore.pop()
            setattr(mod, attr, value)


def pass_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced pass, from its spans.

    `.s` is the inclusive time of a function's outermost spans, `.self_s` a
    span's duration minus the time its child spans cover, and `<layer>.self_s`
    the self time of every span of that layer.
    """
    self_s = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            self_s[s[PARENT]] -= s[END] - s[START]
    agg = {}
    for i, s in enumerate(spans):
        a = agg.setdefault(s[NAME], {"s": 0.0, "self_s": 0.0, "calls": 0,
                                     "errors": {}, "sizes": []})
        a["calls"] += 1
        a["self_s"] += self_s[i]
        if not _nested_in_same(spans, i):
            a["s"] += s[END] - s[START]
        if s[ERROR]:
            a["errors"][s[ERROR]] = a["errors"].get(s[ERROR], 0) + 1
        if s[SIZE] is not None:
            a["sizes"].append(s[SIZE])

    empty = {"s": 0.0, "self_s": 0.0, "calls": 0, "errors": {}, "sizes": []}

    def get(name, field):
        return agg.get(name, empty)[field]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name, field in (
            ("cli.run_pipeline", "self_s"), ("cli.run_pipeline", "calls"),
            ("cli.load_config", "s"), ("cli.serialize", "s"),
            ("gaudin.build_gaudin", "self_s"), ("gaudin.build_gaudin", "calls"),
            ("gaudin.bethe_algebra_basis", "s"), ("gaudin.bethe_algebra_basis", "calls"),
            ("gaudin.induced_map_kernel", "s"), ("gaudin.annihilator_ideal", "s"),
            ("gl2rep.sh_quotient", "s"), ("gl2rep.sh_quotient", "calls"),
            ("gl2rep.generator_matrix", "s"), ("gl2rep.generator_matrix", "calls"),
            ("gl2rep.singular_matrix", "s"), ("gl2rep.shapovalov_gram", "s"),
            ("numcore.kernel_basis", "s"), ("numcore.kernel_basis", "calls"),
            ("numcore.solve_consistent", "s"), ("numcore.solve_consistent", "calls"),
            ("numcore.solve_linear", "s"), ("numcore.rref", "s"),
            ("numcore.to_float_array", "s"), ("numcore.to_float_array", "calls"),
            ("opscheme.a_of_h", "s"), ("opscheme.a_of_h", "calls"),
            ("opscheme.ptilde_solve", "s"), ("opscheme.exponents_at", "s"),
            ("opscheme.residual_system", "s"), ("opscheme.operator_from_kernel_pair", "s"),
            ("spectral.joint_spectrum", "s"), ("spectral.joint_spectrum", "calls"),
            ("spectral.match_spectrum_to_scheme", "self_s"),
            ("spectral.grothendieck_weights", "s"),
            ("spectral.diagonalizability_check", "self_s"),
            ("spectral.diagonalizability_check", "calls"),
            ("sov.bethe_vector", "self_s"), ("sov.bethe_vector", "calls"),
            ("sov.weight_function", "s")):
        out[f"{name}.{field}"] = get(name, field)

    cells = get("numcore.kernel_basis", "sizes")
    out["numcore.kernel_basis.cells"] = sum(cells)
    out["numcore.kernel_basis.max_cells"] = max(cells, default=0)
    points = sum(get("spectral.match_spectrum_to_scheme", "sizes"))
    out["spectral.points"] = points
    out["opscheme.a_of_h.per_point"] = ratio(get("opscheme.a_of_h", "calls"), points)
    out["gaudin.builds_per_pipeline"] = ratio(get("gaudin.build_gaudin", "calls"),
                                              get("cli.run_pipeline", "calls"))
    frames = get("gl2rep.sh_quotient", "sizes")
    out["gl2rep.frame_reuse"] = ratio(len(set(frames)), len(frames))
    out["spectral.reseeds"] = get("spectral.joint_spectrum", "errors").get(
        "ClusterAmbiguityError", 0)
    out["sov.bethe_vector.failed"] = sum(get("sov.bethe_vector", "errors").values())
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            t for s, t in zip(spans, self_s) if s[NAME].startswith(layer + "."))
    return out


def _nested_in_same(spans, i) -> bool:
    name, p = spans[i][NAME], spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False
