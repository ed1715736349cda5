"""Spans around the public functions of `unruh`, and per-layer metrics.

The tracer wraps every public function of every `unruh.*` module in each
namespace that holds it (``sym_eigenvalues`` is looked up in
`unruh.measures` and `unruh.scalar`, not only in `unruh.linalg`). Each call
records a span: name, start, end and parent. Spans stay in flat arrays in
memory until the run ends. A span's self time is its duration minus the
part of it that its child spans cover; a layer is the module that defines
the function, so the self times of all spans add up to the traced time.

Operation and byte counts are computed from array sizes, not measured.
"""

from __future__ import annotations

import contextlib
import sys
import time
import types
from array import array
from collections import defaultdict


def _nbytes(rho) -> float:
    return float(rho.entries.nbytes)


# span name -> number computed from the function's result, kept per span
AUX = {
    "unruh.linalg.sym_eigenvalues": lambda eigs: float(len(eigs)) ** 3,
    "unruh.linalg.tridiagonal_eigenvalues": lambda eigs: float(len(eigs)) ** 2,
    "unruh.fock.reduced_density_matrix": _nbytes,
    "unruh.fock.partial_trace": _nbytes,
    "unruh.fock.density_from_state": _nbytes,
    "unruh.scalar.resolve_n_max": float,
}

# span name -> the per-layer metric its self time adds to; every span also
# adds to the total of its layer
SELF_TIME = {
    "unruh.sweep.write_csv": "sweep.write_csv_s",
    "unruh.sweep.check_report": "sweep.check_report_s",
    **{f"unruh.dirac.{f}": "dirac.closed_s" for f in (
        "dirac_closed_rho", "dirac_closed_spectrum", "dirac_closed_pt_spectrum",
        "dirac_closed_negativity", "dirac_closed_entropies",
        "dirac_closed_mutual_informations", "dirac_closed_measures")},
    "unruh.dirac.dirac_constructive_measures": "dirac.constructive_s",
    **{f"unruh.dirac.{f}": "dirac.state_build_s" for f in (
        "config_from_patterns", "patterns_from_config", "apply_creation",
        "apply_annihilation", "dirac_vacuum", "dirac_one_particle",
        "dirac_tripartite_state")},
    **{f"unruh.scalar.{f}": "scalar.series_s" for f in (
        "scalar_entropies", "scalar_negativity_AR", "rob_weight", "antirob_weight")},
    "unruh.scalar.scalar_negativity_ARbar": "scalar.n_arbar_check_s",
    "unruh.scalar.scalar_negativity_RRbar": "scalar.rrbar_closed_s",
    "unruh.scalar.rrbar_block_diagonals": "scalar.rrbar_closed_s",
    "unruh.scalar.scalar_constructive_measures": "scalar.oracle_s",
    "unruh.scalar.rrbar_block_constructive": "scalar.block_extract_s",
    "unruh.scalar.rrbar_block_basis": "scalar.block_extract_s",
    **{f"unruh.scalar.{f}": "scalar.state_build_s" for f in (
        "scalar_vacuum", "scalar_one_particle", "scalar_tripartite_state",
        "hardcore_tripartite_state", "resolve_n_max", "vacuum_tail",
        "one_particle_tail", "truncation_deficits")},
    "unruh.scalar.hardcore_closed_measures": "scalar.hardcore_closed_s",
    "unruh.scalar.hardcore_rho": "scalar.hardcore_closed_s",
    "unruh.scalar.hardcore_constructive_measures": "scalar.hardcore_oracle_s",
    **{f"unruh.fock.{f}": "fock.reduce_s" for f in (
        "reduced_density_matrix", "partial_trace", "density_from_state")},
    "unruh.fock.partial_transpose": "fock.partial_transpose_s",
    "unruh.linalg.jacobi_eigenvalues": "linalg.jacobi_s",
    "unruh.linalg.tridiagonal_eigenvalues": "linalg.tridiag_s",
    "unruh.linalg.check_symmetric": "linalg.check_symmetric_s",
}

LAYERS = ("cli", "sweep", "dirac", "scalar", "fock", "linalg", "measures")

# every metric `layer_metrics` reports, in a fixed order
LAYER_METRICS = (
    "cli.self_s",
    "sweep.self_s", "sweep.write_csv_s", "sweep.check_report_s",
    "dirac.self_s", "dirac.closed_s", "dirac.constructive_s", "dirac.state_build_s",
    "scalar.self_s", "scalar.series_s", "scalar.n_arbar_check_s",
    "scalar.rrbar_closed_s", "scalar.rrbar_closed_blocks", "scalar.oracle_s",
    "scalar.block_extract_s", "scalar.rrbar_oracle_blocks", "scalar.state_build_s",
    "scalar.n_max_max", "scalar.hardcore_closed_s", "scalar.hardcore_oracle_s",
    "fock.self_s", "fock.reduce_s", "fock.reduce_calls", "fock.reduce_bytes",
    "fock.partial_transpose_s", "fock.partial_transpose_calls",
    "linalg.self_s", "linalg.jacobi_s", "linalg.jacobi_calls", "linalg.dense_s",
    "linalg.dense_calls", "linalg.dense_ops", "linalg.tridiag_s",
    "linalg.tridiag_calls", "linalg.tridiag_ops", "linalg.check_symmetric_s",
    "measures.s", "measures.calls",
)


class Tracer:
    """Spans kept in flat arrays: name index, start, end, parent, aux."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.aux = array("d")
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, name: str, start: float, end: float, parent: int = -1,
            aux: float = 0.0) -> int:
        """Record a finished span; returns its index."""
        self.name.append(self._name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.aux.append(aux)
        return len(self.start) - 1

    def wrap(self, fn, name: str):
        """``fn`` with a span around each call."""
        name_id, aux_of = self._name_id(name), AUX.get(name)
        names, start, end, parent, aux = (self.name, self.start, self.end,
                                          self.parent, self.aux)
        stack, clock = self._stack, self.clock

        def traced(*args, **kwargs):
            idx = len(start)
            names.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            aux.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if aux_of is not None:
                aux[idx] = aux_of(out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public function of `unruh` and its submodules, in
        every one of their namespaces that holds it, until the block ends."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "unruh" or n.startswith("unruh."))]
        wrappers: dict[int, object] = {}
        replaced = []
        for module in modules:
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__.partition(".")[0] != "unruh"):
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.wrap(fn, f"{fn.__module__}.{fn.__name__}")
                replaced.append((module, attr, fn))
                setattr(module, attr, wrappers[id(fn)])
        try:
            yield self
        finally:
            for module, attr, fn in replaced:
                setattr(module, attr, fn)


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(tracer: Tracer) -> list[float]:
    """Each span's duration minus the time its children cover within it."""
    children = defaultdict(list)
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(tracer.start, tracer.end)):
        inside = [(max(tracer.start[c], s), min(tracer.end[c], e))
                  for c in children.get(i, ())]
        out.append(e - s - covered(inside))
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times and counts of everything ``tracer`` recorded."""
    out = dict.fromkeys(LAYER_METRICS, 0.0)
    selfs = self_times(tracer)
    # a sym_eigenvalues call with a Jacobi child did not go to LAPACK
    has_jacobi_child = {tracer.parent[i] for i, n in enumerate(tracer.name)
                        if tracer.names[n] == "unruh.linalg.jacobi_eigenvalues"}
    for i, n in enumerate(tracer.name):
        name = tracer.names[n]
        layer = name.split(".")[1]  # unruh.scalar.rob_weight -> scalar
        if layer not in LAYERS:
            continue  # a module added later: it shows as unaccounted time
        t = selfs[i]
        out["measures.s" if layer == "measures" else f"{layer}.self_s"] += t
        if name in SELF_TIME:
            out[SELF_TIME[name]] += t
        aux = tracer.aux[i]
        if layer == "measures":
            out["measures.calls"] += 1
        elif name == "unruh.scalar.rrbar_block_diagonals":
            out["scalar.rrbar_closed_blocks"] += 1
        elif name == "unruh.scalar.rrbar_block_constructive":
            out["scalar.rrbar_oracle_blocks"] += 1
        elif name == "unruh.scalar.resolve_n_max":
            out["scalar.n_max_max"] = max(out["scalar.n_max_max"], aux)
        elif SELF_TIME.get(name) == "fock.reduce_s":
            out["fock.reduce_calls"] += 1
            out["fock.reduce_bytes"] += aux
        elif name == "unruh.fock.partial_transpose":
            out["fock.partial_transpose_calls"] += 1
        elif name == "unruh.linalg.jacobi_eigenvalues":
            out["linalg.jacobi_calls"] += 1
        elif name == "unruh.linalg.tridiagonal_eigenvalues":
            out["linalg.tridiag_calls"] += 1
            out["linalg.tridiag_ops"] += aux
        elif name == "unruh.linalg.sym_eigenvalues" and i not in has_jacobi_child:
            out["linalg.dense_s"] += t
            out["linalg.dense_calls"] += 1
            out["linalg.dense_ops"] += aux
    return out
