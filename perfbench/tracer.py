"""Per-layer spans, recorded from outside the package.

Run as a script, this is the traced child of one command:

    python3 perfbench/tracer.py SPANS_JSON CMD_ID ARGV...

It imports the package under a `cli.import` span, wraps the public
functions of each module listed in LAYERS with a span recorder, then runs
the real `cli.main(ARGV)` under a `cli.main` span, so the spans follow the
CLI's own calls in its own order.  A span is [name, start, end, parent
index, command id].  Spans and counts stay in memory and are written to
SPANS_JSON once, when the command ends.

Imported, it turns the span files of one traced pass into the per-layer
metrics (see `layer_metrics`).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Optional

perf = time.perf_counter


def _count_system(counts: Counter, args: tuple, matrix: Any) -> None:
    counts["oracle.system_cells"] += matrix.rows * matrix.cols
    counts["oracle.system_nnz"] += sum(1 for row in matrix.entries for entry in row if entry)


def _count_kernel(counts: Counter, args: tuple, kernel: Any) -> None:
    counts["oracle.pivots"] += args[0].cols - len(kernel)
    counts["oracle.kernel_dim"] += len(kernel)
    bits = max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for vec in kernel for v in vec),
        default=0,
    )
    counts["oracle.kernel_max_bits"] = max(counts["oracle.kernel_max_bits"], bits)


def _count_occupied(counts: Counter, args: tuple, family: Any) -> None:
    counts["closedform.occupied"] += sum(len(member.degrees) for member in family)


def _count_scan(counts: Counter, args: tuple, reports: Any) -> None:
    counts["hamiltonian.scan_points"] += len(reports)
    counts["hamiltonian.scan_inside"] += sum(1 for r in reports if r.all_real)


def _count_samples(counts: Counter, args: tuple, sample: Any) -> None:
    counts["analysis.samples"] += len(sample.records)
    counts["analysis.near_boundary"] += sum(1 for r in sample.records if r.near_boundary)


def _build_kind(args: tuple) -> str:
    return "hamiltonian.build_exact" if args[0].is_exact else "hamiltonian.build_float"


# (module, attribute, span name or a function of the call's arguments, counter)
LAYERS: tuple[tuple[str, str, Any, Optional[Callable]], ...] = (
    ("exact", "null_space", "exact.null_space", _count_kernel),
    ("exact", "rank", "exact.rank", None),
    ("exact", "Matrix.to_numpy", "exact.to_numpy", None),
    ("oracle", "intertwining_system", "oracle.system", _count_system),
    ("oracle", "solve_metric_space", "oracle.solve", None),
    ("closedform", "incidence_family", "closedform.incidence", _count_occupied),
    ("closedform", "basis_family", "closedform.basis", None),
    ("closedform", "intertwining_defect", "closedform.defect", None),
    ("closedform", "MetricBasisElement.evaluate", "closedform.evaluate", None),
    ("closedform", "occupancy_matrix", "closedform.occupancy", None),
    ("closedform", "reflection_symmetry_holds", "closedform.reflection", None),
    ("closedform", "evaluate_basis_stack", "closedform.eval_stack", None),
    ("hamiltonian", "build_hamiltonian", _build_kind, None),
    ("hamiltonian", "reality_scan", "hamiltonian.scan", _count_scan),
    ("analysis", "biorthogonal_system", "analysis.biorthogonal", None),
    ("analysis", "sample_positivity_region", "analysis.sample", _count_samples),
    ("continuum", "matching_residual", "continuum.matching", None),
    ("continuum", "opaque_wall_check", "continuum.opaque_wall", None),
)

# Per-layer time metric -> the spans it sums.  A span is counted only when
# no enclosing span belongs to the same metric, so recursion and a layer
# calling itself through another entry point are not counted twice.
SPAN_METRICS = {
    "exact.null_space_s": {"exact.null_space"},
    "exact.rank_s": {"exact.rank"},
    "exact.to_numpy_s": {"exact.to_numpy"},
    "oracle.system_s": {"oracle.system"},
    "oracle.solve_s": {"oracle.solve"},
    "closedform.basis_s": {"closedform.basis", "closedform.incidence"},
    "closedform.defect_s": {"closedform.defect"},
    "closedform.checks_s": {"closedform.evaluate", "closedform.occupancy", "closedform.reflection"},
    "closedform.eval_stack_s": {"closedform.eval_stack"},
    "hamiltonian.build_exact_s": {"hamiltonian.build_exact"},
    "hamiltonian.build_float_s": {"hamiltonian.build_float"},
    "hamiltonian.scan_s": {"hamiltonian.scan"},
    "analysis.biorthogonal_s": {"analysis.biorthogonal"},
    "analysis.sample_s": {"analysis.sample"},
    "continuum.matching_s": {"continuum.matching"},
    "continuum.opaque_wall_s": {"continuum.opaque_wall"},
}

COUNT_METRICS = (
    "oracle.system_cells",
    "oracle.system_nnz",
    "oracle.pivots",
    "oracle.kernel_dim",
    "oracle.kernel_max_bits",
    "closedform.occupied",
    "hamiltonian.scan_points",
    "analysis.samples",
    "analysis.near_boundary",
    "cli.stdout_bytes",
)


class Recorder:
    """Spans and counts of one traced command."""

    def __init__(self, cmd_id: int) -> None:
        self.cmd_id = cmd_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf(), None, parent, self.cmd_id])
        self._stack.append(index)
        self._open[name] += 1
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = perf()
        self._stack.pop()
        self._open[span[0]] -= 1

    def wrap(self, fn: Callable, name: Any, counter: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            if self._open[span_name]:
                return fn(*args, **kwargs)
            index = self.open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS that this version of the package has,
        rebinding each name that modules imported from it."""
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("metric_forge")]
        for module_name, attribute, name, counter in LAYERS:
            owner: Any = importlib.import_module(f"metric_forge.{module_name}")
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                continue
            traced = self.wrap(original, name, counter)
            if path:
                setattr(owner, leaf, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)


def _duration(span: list) -> float:
    return span[2] - span[1]


def _outermost(spans: list[list], names: set[str]) -> float:
    total = 0.0
    for span in spans:
        if span[0] not in names:
            continue
        parent = span[3]
        while parent is not None and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent is None:
            total += _duration(span)
    return total


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from the span file of each of
    its commands.  Times are totals over the pass, except `cli.import_s`,
    the median import time of one process."""
    metrics = {name: 0.0 for name in SPAN_METRICS}
    counts: Counter = Counter()
    imports = []
    cli_self = 0.0
    for record in records:
        spans = record["spans"]
        for name, span_names in SPAN_METRICS.items():
            metrics[name] += _outermost(spans, span_names)
        for index, span in enumerate(spans):
            if span[0] == "cli.import":
                imports.append(_duration(span))
            elif span[0] == "cli.main":
                children = sum(_duration(s) for s in spans if s[3] == index)
                cli_self += _duration(span) - children
        for key, value in record["counts"].items():
            counts[key] = max(counts[key], value) if key.endswith("_max_bits") else counts[key] + value
    imports.sort()
    metrics["cli.import_s"] = imports[len(imports) // 2] if imports else 0.0
    metrics["cli.self_s"] = cli_self
    for name in COUNT_METRICS:
        metrics[name] = counts[name]
    cells, points = counts["oracle.system_cells"], counts["hamiltonian.scan_points"]
    metrics["oracle.system_density"] = counts["oracle.system_nnz"] / cells if cells else 0.0
    metrics["hamiltonian.scan_inside_frac"] = counts["hamiltonian.scan_inside"] / points if points else 0.0
    return metrics


def main(argv: list[str]) -> int:
    spans_path, cmd_id, cli_argv = Path(argv[0]), int(argv[1]), argv[2:]
    recorder = Recorder(cmd_id)
    index = recorder.open("cli.import")
    from metric_forge import cli

    recorder.close(index)
    recorder.install()
    index = recorder.open("cli.main")
    try:
        return cli.main(cli_argv)
    finally:
        recorder.close(index)
        sys.stdout.flush()
        spans_path.write_text(json.dumps({"spans": recorder.spans, "counts": recorder.counts}), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
