"""Randomized pointer-chase buffers for the latency kernel.

A chain is a permutation of aligned element slots forming exactly one cycle;
the latency kernel walks it with dependent loads so no two accesses overlap
and hardware prefetchers see no usable pattern.

Construction is Sattolo's algorithm (single cycle by construction, no
rejection sampling) driven by a fixed 64-bit xorshift generator:

    s ^= s << 13;  s ^= s >> 7;  s ^= s << 17      (mod 2**64)

whose state is seeded through one splitmix64 scramble of the user seed:

    z = (seed + 0x9E3779B97F4A7C15) mod 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2**64
    state = z ^ (z >> 31)

Both formulas are pinned so chains are reproducible across implementations
and languages for equal (size, alignment, seed).

The shuffle runs in C (``mc_sattolo`` in the native kernels), fed the state
that :func:`_seed_state` scrambles here, so the seeding stays in one place;
the test suite checks its table byte for byte against a Python reference
(``tests/oracles.py``).

A :class:`ChainBuffer` is a frozen, hashable spec whose successor table is
built on first read, once per spec, so a caller that needs only the element
count (the simulated backend) never shuffles.  Nothing here walks a table:
Sattolo's shuffle yields one cycle by construction, and the walk that checks
it (``tests/oracles.py``, through the kernels' ``mc_chain_walk``) is the
test suite's.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property

__all__ = ["ChainBuffer", "ChainError", "chain_spec", "generate_chain"]

_MASK64 = (1 << 64) - 1
# xorshift state must be nonzero; the one seed mapping to zero is remapped.
_ZERO_SEED_SUBST = 0x9E3779B97F4A7C15


class ChainError(Exception):
    pass


def _splitmix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _seed_state(seed: int) -> int:
    """The xorshift generator's first state for ``seed``."""
    return _splitmix64(seed & _MASK64) or _ZERO_SEED_SUBST


@dataclass(frozen=True)
class ChainBuffer:
    """The parameters that fix a chain; equal specs hash equal.

    ``successors[i]`` is the element index the i-th element points at; byte
    offsets are ``index * stride_alignment``.  Built on first access.
    """

    element_count: int
    stride_alignment: int
    seed: int
    huge_pages: bool

    @property
    def total_bytes(self) -> int:
        return self.element_count * self.stride_alignment

    @cached_property
    def successors(self) -> array:
        return _sattolo(self.element_count, self.seed)


def chain_spec(
    total_bytes: int,
    stride_alignment: int = 512,
    seed: int = 0,
    huge_pages: bool = True,
) -> ChainBuffer:
    """Validate the parameters of a chain over ``total_bytes /
    stride_alignment`` slots; its successor table is not built."""
    if stride_alignment < 64 or stride_alignment & (stride_alignment - 1):
        raise ChainError(
            f"stride_alignment must be a power of two >= 64, got {stride_alignment}"
        )
    if total_bytes < stride_alignment:
        raise ChainError(
            f"total_bytes ({total_bytes}) must be >= stride_alignment ({stride_alignment})"
        )
    if total_bytes % stride_alignment:
        raise ChainError(
            f"total_bytes ({total_bytes}) must be a multiple of the alignment"
        )
    return ChainBuffer(
        element_count=total_bytes // stride_alignment,
        stride_alignment=stride_alignment,
        seed=seed,
        huge_pages=huge_pages,
    )


def _sattolo(n: int, seed: int) -> array:
    """Sattolo's shuffle of ``range(n)`` driven by the pinned xorshift, in
    C; :class:`~memchar.native.BackendUnavailable` where the native kernels
    do not load."""
    from .native import load_kernels

    perm = array("q", [0]) * n
    load_kernels().mc_sattolo(perm.buffer_info()[0], n, _seed_state(seed))
    return perm


def generate_chain(
    total_bytes: int,
    stride_alignment: int = 512,
    seed: int = 0,
    huge_pages: bool = True,
) -> ChainBuffer:
    """Build a single-cycle chain over ``total_bytes / stride_alignment`` slots.

    Identical (total_bytes, stride_alignment, seed) inputs produce byte
    identical successor tables.  Unlike :func:`chain_spec`, the table is
    built before this returns.
    """
    chain = chain_spec(total_bytes, stride_alignment, seed, huge_pages)
    chain.successors
    return chain
