"""Byte-for-byte pins of the generated kernel code.

Both printers read one kernel IR (:mod:`repro.codegen.kir`), so a
change to the plan or the lowering that is meant to be structural only
must leave the NumPy module (``KernelProgram.source``) and the C
translation unit (``NativeProgram.c_source``) unchanged. The digests
cover the nine library programs at ``-O1``/``-O2``, compress on and
off; printing the C needs no compiler. ``python -m
tests.test_codegen_pins`` prints the table.
"""

import hashlib

import pytest

from repro import ConversionOptions, convert_source
from repro.workloads import all_sources


def codegen_digests(source: str) -> tuple[str, str]:
    """``(kernel digest, C digest)`` of one program over its pinned
    configurations: sha256 of every configuration's generated source in
    order, first 16 hex digits."""
    kern, c = hashlib.sha256(), hashlib.sha256()
    for level in (1, 2):
        for compress in (False, True):
            options = ConversionOptions(opt_level=level, compress=compress,
                                        lazy=False)
            prog = convert_source(source, options).simd_program()
            kern.update(prog.kernels().source.encode())
            c.update(prog.native().c_source.encode())
    return kern.hexdigest()[:16], c.hexdigest()[:16]


#: ``codegen_digests`` per library program, recorded before the plan
#: read its entry depths from ``Cfg.verify()``.
PINNED_CODEGEN = {
    "barrier_phases": ('7d63718f0df58fbb', '28536b09353e1bef'),
    "collatz_depth": ('a8688638430a70a8', '417ddcc410e5561b'),
    "divergent_loops": ('346f97a1a6757ab6', '522aaaf16eec8fb6'),
    "divergent_phases": ('83a1a586c3d199d4', '73de1c538827a507'),
    "imbalanced_branch": ('8100a0292f6cd414', 'b3b07752387caaab'),
    "mandelbrot": ('6116014195e1e381', '844f2cdde2a46653'),
    "odd_even_sort": ('73cba93166cc005e', '4acfd947d4d89f2e'),
    "spawn_waves": ('3456505d877eb715', '9068e0b2a75397c0'),
    "tree_reduction": ('764695e4671ed408', 'da1735688b80e9a4'),
}


@pytest.mark.parametrize("name", sorted(PINNED_CODEGEN))
def test_generated_code_unchanged(name):
    assert codegen_digests(all_sources()[name]) == PINNED_CODEGEN[name]


def test_every_library_program_pinned():
    assert set(PINNED_CODEGEN) == set(all_sources())


if __name__ == "__main__":
    for name, source in sorted(all_sources().items()):
        print(f'    "{name}": {codegen_digests(source)!r},')
