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


#: ``codegen_digests`` per library program, re-pinned when one-member
#: NumPy nodes gained a full-width body (``KERNEL_VERSION`` 5); the C
#: digests are those of ``NATIVE_VERSION`` 3.
PINNED_CODEGEN = {
    "barrier_phases": ('65beda2eafda165a', '7a69e63bd2525756'),
    "collatz_depth": ('440b2cc25607069f', 'a2c75992172fbf40'),
    "divergent_loops": ('705ebb3f5d2ebac5', '96b95c9b48dac3a5'),
    "divergent_phases": ('86c71811a7f8e79f', '0d1de791dd9b9233'),
    "imbalanced_branch": ('8f78f0719a58ee40', '74f59dc62aa9e501'),
    "mandelbrot": ('d6edfe20611d742c', '58c58c8b7557f10e'),
    "odd_even_sort": ('41ee419fb54bb4f3', '9e542d6776260565'),
    "spawn_waves": ('f68e5c9b9b06063e', 'a25e6c5a8462e98b'),
    "tree_reduction": ('30a10abe974f0e50', '8fcd039a1ba23bf8'),
}


@pytest.mark.parametrize("name", sorted(PINNED_CODEGEN))
def test_generated_code_unchanged(name):
    assert codegen_digests(all_sources()[name]) == PINNED_CODEGEN[name]


def test_every_library_program_pinned():
    assert set(PINNED_CODEGEN) == set(all_sources())


if __name__ == "__main__":
    for name, source in sorted(all_sources().items()):
        print(f'    "{name}": {codegen_digests(source)!r},')
