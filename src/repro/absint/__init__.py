"""Abstract interpretation over the MIMDC CFG — the analysis core.

The frontier verifier (:mod:`repro.verify.frontier`) checks the
*concrete* meta graph and must truncate explosion-prone programs at
``--verify-budget`` (MSC050) — exactly the programs meta-state
conversion was invented for go unverified.  This package trades
enumeration for symbolic facts, and holds every CFG analysis the
analyzers (:mod:`repro.lint`) and the ``-O2`` optimizer share:

- :mod:`repro.absint.graph` — predecessor lists, postdominators,
  control dependence, barrier-free regions, and the arm walk;
- :mod:`repro.absint.solver` — one generic worklist fixpoint solver;
- :mod:`repro.absint.domains` — the lattice domains it runs: per-slot
  value intervals fed by PE-id structure, and a must-initialize set;
- :mod:`repro.absint.uniformity` — the uniform/varying classification,
  a third domain on the same solver;
- :mod:`repro.absint.facts` — :class:`~repro.absint.facts.AbsintFacts`,
  block footprints with the one conflict rule, and the race-/deadlock-
  freedom certificates: whole-program guarantees in time polynomial in
  blocks, not ``3^n``.

None of these modules imports :mod:`repro.lint`.  Consumers:

- the ``absint`` analyzer (:mod:`repro.absint.analyzers`) turns the
  facts into MSC06x diagnostics and the ``certify`` analyzer into
  race-/deadlock-freedom certificates (MSC064/MSC065) that stand in
  for the truncated frontier;
- the explosion estimator drops uniform branches from the ``3^b``
  factor (a uniform branch moves every PE down one arm — factor 2, not
  3);
- the ``uniform-branch`` ``-O2`` meta pass prunes aggregates only a
  divergent execution of a provably-uniform branch could reach.
"""

from repro.absint.domains import Interval
from repro.absint.facts import AbsintFacts, certificates, compute_facts
from repro.absint.solver import FixpointResult, solve

__all__ = [
    "AbsintFacts",
    "FixpointResult",
    "Interval",
    "certificates",
    "compute_facts",
    "solve",
]
