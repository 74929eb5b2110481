"""Head-to-head comparison: meta-state conversion vs the interpreter.

Runs the same MIMDC program through both execution schemes (plus the
reference MIMD machine for ground truth) and tabulates the quantities
the paper argues about: control-unit cycles, interpreter overhead
share, per-PE program memory, and PE utilization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.memory import memory_comparison
from repro.errors import MscError
from repro.mimd.flatten import flatten_cfg
from repro.mimd.interp import InterpreterMachine
from repro.pipeline import ConversionResult, simulate_mimd, simulate_simd


@dataclass(frozen=True)
class ComparisonRow:
    """One workload's results across execution schemes."""

    name: str
    npes: int
    msc_cycles: int
    interp_cycles: int
    speedup: float
    msc_overhead: float       # transition share of MSC cycles
    interp_overhead: float    # fetch/decode share of interpreter cycles
    msc_program_bytes_per_pe: int
    interp_program_bytes_per_pe: int
    msc_utilization: float
    interp_utilization: float
    meta_states: int
    outputs_match: bool

    def as_dict(self) -> dict:
        return {
            "workload": self.name,
            "PEs": self.npes,
            "MSC cycles": self.msc_cycles,
            "interp cycles": self.interp_cycles,
            "speedup": round(self.speedup, 2),
            "MSC overhead": f"{self.msc_overhead:.1%}",
            "interp overhead": f"{self.interp_overhead:.1%}",
            "prog B/PE (MSC)": self.msc_program_bytes_per_pe,
            "prog B/PE (interp)": self.interp_program_bytes_per_pe,
            "util (MSC)": f"{self.msc_utilization:.1%}",
            "util (interp)": f"{self.interp_utilization:.1%}",
            "meta states": self.meta_states,
            "match": self.outputs_match,
        }


def compare_msc_vs_interpreter(name: str, result: ConversionResult,
                               npes: int, active: int | None = None,
                               max_steps: int = 1_000_000,
                               backend: str = "kernels",
                               shards: int | None = None) -> ComparisonRow:
    """Execute ``result`` under both schemes and compare against the
    MIMD oracle. Raises :class:`~repro.errors.MscError` if either
    scheme diverges from the oracle — a comparison of wrong answers is
    worthless. ``backend`` picks the SIMD executor (native / kernels /
    interp) and ``shards`` its PE-axis shard count, as in
    :func:`~repro.pipeline.simulate_simd`."""
    simd = simulate_simd(result, npes=npes, active=active, max_steps=max_steps,
                         backend=backend, shards=shards)
    mimd = simulate_mimd(result, nprocs=npes, active=active, max_steps=max_steps)
    flat = flatten_cfg(result.cfg)
    interp = InterpreterMachine(npes=npes, costs=result.options.costs).run(
        flat, active=active, max_steps=max_steps
    )
    match = bool(
        np.array_equal(simd.returns, mimd.returns, equal_nan=True)
        and np.array_equal(interp.returns, mimd.returns, equal_nan=True)
        and np.array_equal(simd.poly, mimd.poly)
        and np.array_equal(interp.poly, mimd.poly)
    )
    if not match:
        raise MscError(f"scheme outputs diverge on workload {name!r}")
    interp_mem, msc_mem = memory_comparison(flat, result.simd_program())
    return ComparisonRow(
        name=name,
        npes=npes,
        msc_cycles=simd.cycles,
        interp_cycles=interp.cycles,
        speedup=interp.cycles / max(1, simd.cycles),
        msc_overhead=simd.overhead_fraction,
        interp_overhead=interp.overhead_fraction,
        msc_program_bytes_per_pe=msc_mem.program_bytes_per_pe,
        interp_program_bytes_per_pe=interp_mem.program_bytes_per_pe,
        msc_utilization=simd.utilization,
        interp_utilization=interp.utilization,
        meta_states=result.graph.num_states(),
        outputs_match=match,
    )


def format_table(rows: list[ComparisonRow]) -> str:
    """Plain-text table of comparison rows."""
    if not rows:
        return "(no rows)"
    dicts = [r.as_dict() for r in rows]
    cols = list(dicts[0])
    widths = {
        c: max(len(c), *(len(str(d[c])) for d in dicts)) for c in cols
    }
    header = " | ".join(c.ljust(widths[c]) for c in cols)
    sep = "-+-".join("-" * widths[c] for c in cols)
    lines = [header, sep]
    for d in dicts:
        lines.append(" | ".join(str(d[c]).ljust(widths[c]) for c in cols))
    return "\n".join(lines)
