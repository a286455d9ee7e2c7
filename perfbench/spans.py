"""Span tracing of the diracwg layers, installed from outside the package.

``install()`` wraps every public module-level function of every diracwg
module, in every diracwg module namespace that binds it (``from .layerops
import assemble_T`` makes ``bands.assemble_T`` a second binding), plus the
dense routines of ``numpy.linalg``.  Each call appends one span
``(name, start, end, parent, raised, pairs)`` to an in-memory list; ``dump()``
writes the list out when the traced process ends.

``derive()`` turns a span list into the per-layer metrics of BENCHMARK.json.
A layer is the module that defines a function (``linalg`` for numpy.linalg);
its self time is the time of its spans minus the time of their child spans.
"""

from __future__ import annotations

import functools
import json
import time
import types

import numpy as np

LAYERS = ("geometry", "qpgreens", "layerops", "bands", "dirac", "gapgreens",
          "interface", "fdoracle", "cli", "linalg")
LINALG = ("svd", "solve", "eigvalsh", "eigh", "eig", "lstsq", "inv", "qr")


def _pairs_uvt(args, kwargs):
    # ge_split(u, t1, t2, ...) and ge_nsum(u, dx2, t2, ...): one kernel value
    # per broadcast (u, ., .) triple
    return int(np.broadcast(*(np.asarray(a) for a in args[:3])).size)


def _field_points(args, kwargs):
    pts = args[1] if len(args) > 1 else kwargs["points"]
    return int(np.atleast_2d(np.asarray(pts)).shape[0])


_SIZERS = {
    "qpgreens.ge_split": _pairs_uvt,
    "qpgreens.ge_nsum": _pairs_uvt,
    "layerops.field_from_density": _field_points,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self._stack = [-1]

    def wrap(self, fn, name: str):
        idx = len(self.names)
        self.names.append(name)
        sizer = _SIZERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = sizer(args, kwargs) if sizer else 0
            i = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(i)
            raised = True
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans[i] = (idx, t0, t1, parent, raised, size)

        return traced

    def install(self, package: str = "diracwg") -> None:
        import importlib
        import pkgutil

        pkg = importlib.import_module(package)
        modules = [importlib.import_module(f"{package}.{m.name}")
                   for m in pkgutil.iter_modules(pkg.__path__)]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self.wrap(obj, f"{short}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and not attr.startswith("_"):
                    setattr(mod, attr, wrappers[id(obj)])
        for attr in LINALG:
            setattr(np.linalg, attr, self.wrap(getattr(np.linalg, attr), f"linalg.{attr}"))

    def dump(self, path) -> None:
        payload = {"names": self.names,
                   "spans": [list(s) for s in self.spans if s is not None]}
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


# ------------------------------------------------------------ derivation

def unit(name: str) -> str:
    """Unit of a derived metric, from its name."""
    for suffix, u in (("_ns_per_pair", "ns"), ("_ms", "ms"), ("_s", "s"), (".s", "s"),
                      ("_ratio", "ratio"), ("_per_band_point", "count"),
                      ("_per_solve", "count")):
        if name.endswith(suffix):
            return u
    return "count"


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def derive(payload: dict) -> dict:
    """Per-layer metrics (name -> value) from one traced process or round."""
    names = payload["names"]
    spans = payload["spans"]
    name_of = [names[s[0]] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    parent = [s[3] for s in spans]
    child_time = [0.0] * len(spans)
    for i, p in enumerate(parent):
        if p >= 0:
            child_time[p] += dur[i]

    def ancestors(i):
        p = parent[i]
        while p >= 0:
            yield p
            p = parent[p]

    def under(i, fn_name):
        return any(name_of[a] == fn_name for a in ancestors(i))

    def sel(fn_name, outermost=True):
        """Spans of fn_name; with outermost, not nested in another of its own."""
        return [i for i, n in enumerate(name_of)
                if n == fn_name and not (outermost and under(i, fn_name))]

    def total(idx):
        return float(sum(dur[i] for i in idx))

    m: dict = {}
    self_time = {layer: 0.0 for layer in LAYERS}
    for i, n in enumerate(name_of):
        self_time[n.split(".", 1)[0]] += dur[i] - child_time[i]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]

    for route in ("split", "nsum"):
        idx = sel(f"qpgreens.ge_{route}")
        pairs = sum(spans[i][5] for i in idx)
        m[f"qpgreens.{route}_pairs"] = pairs
        m[f"qpgreens.{route}_s"] = total(idx)
        m[f"qpgreens.{route}_ns_per_pair"] = _ratio(1e9 * total(idx), pairs)

    assembly = ("layerops.assemble_T", "layerops.assemble_half")
    asm = [i for n in assembly for i in sel(n)]
    statics = sel("qpgreens.split_static", outermost=False)
    m["qpgreens.split_static_builds"] = len(statics)
    # one static-part lookup per diagonal block of a real-lambda assembly;
    # a miss builds split_static directly under the assembly span
    lookups = [i for i in sel("qpgreens.ge_split", outermost=False)
               if name_of[parent[i]] in assembly]
    misses = [i for i in statics if parent[i] >= 0 and name_of[parent[i]] in assembly]
    m["layerops.static_cache_hit_ratio"] = 1.0 - _ratio(len(misses), len(lookups))
    m["layerops.assemblies"] = len(asm)
    m["layerops.assemble_s"] = total(asm)
    field = sel("layerops.field_from_density")
    m["layerops.field_points"] = sum(spans[i][5] for i in field)
    m["layerops.field_s"] = total(field)

    finds = sel("bands.find_band_lambda")
    found = [i for i in finds if not spans[i][4]]
    asm_in_finds = sum(1 for i in asm if under(i, "bands.find_band_lambda"))
    m["bands.band_points"] = len(found)
    m["bands.band_point_failures"] = len(finds) - len(found)
    m["bands.assemblies_per_band_point"] = _ratio(asm_in_finds, len(found))
    m["bands.find_s"] = total(finds)

    for op in ("svd", "solve"):
        idx = sel(f"linalg.{op}")
        m[f"linalg.{op}_calls"] = len(idx)
        m[f"linalg.{op}_s"] = total(idx)
    m["linalg.eigvalsh_s"] = total(sel("linalg.eigvalsh"))

    crossing = sel("bands.dirac_point")
    m["dirac.crossing_solves"] = len(crossing)
    m["dirac.crossing_s"] = total(crossing)

    tables = sel("gapgreens.build_bloch_table")
    m["gapgreens.table_band_points"] = sum(
        1 for i in found if under(i, "gapgreens.build_bloch_table"))
    m["gapgreens.table_s"] = total(tables)
    gdelta = sel("gapgreens.gdelta_matrix")
    fibers = [i for i in sel("layerops.assemble_T", outermost=False)
              if under(i, "gapgreens.gdelta_matrix")]
    m["gapgreens.gdelta_calls"] = len(gdelta)
    m["gapgreens.fibers"] = len(fibers)
    m["gapgreens.fiber_ms"] = _ratio(1e3 * total(gdelta), len(fibers))
    gd = set(gdelta)
    m["gapgreens.fiber_retries"] = sum(
        1 for i, p in enumerate(parent) if p in gd and spans[i][4])

    evals = sel("interface.assemble_interface_operator")
    solves = sel("interface.find_interface_eigenvalue")
    m["interface.junction_evals"] = len(evals)
    m["interface.junction_evals_per_solve"] = _ratio(len(evals), len(solves))
    m["interface.junction_s"] = total(evals)
    m["interface.reconstruct_s"] = total(sel("interface.reconstruct_interface_mode"))

    fd_top = [i for i, n in enumerate(name_of)
              if n.startswith("fdoracle.") and not any(
                  name_of[a].startswith("fdoracle.") for a in ancestors(i))]
    m["fdoracle.eigensolves"] = len(sel("fdoracle.fd_bloch_eigs")) + len(
        sel("fdoracle.fd_supercell_interface"))
    m["fdoracle.s"] = total(fd_top)

    for cmd in ("dirac", "gap", "interface"):
        m[f"cli.{cmd}_s"] = total(sel(f"cli.cmd_{cmd}"))
    m["trace.spans"] = len(spans)
    return m
