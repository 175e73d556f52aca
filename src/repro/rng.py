"""Deterministic random-number utilities.

Every stochastic component in the library draws from a
:class:`numpy.random.Generator` created through :func:`make_rng` so that
experiments are reproducible end to end. Components accept either a seed
or an existing generator; :func:`make_rng` normalises both cases.

Derived seeds
-------------

:func:`derive_seed` hashes the reprs of its components with 64-bit
FNV-1a, ``v <- ((v ^ b) * P) mod 2**64`` per UTF-8 byte ``b`` with
``P = 0x100000001B3``, starting from the base seed, and folds the
result into ``[0, 2**63 - 1)``. It stays the function for short config
seeds (a purpose tag and an index or two).

:func:`derive_seeds` returns ``[derive_seed(base, *row) for row in
rows]``, bit for bit, from one NumPy pass over all the rows. It serves
the simulator's measurement-noise keys, which hash whole workload reprs
(kilobytes per workload). A pass has a fixed cost of about 0.2 ms, so
the scalar loop stays faster below about 1.5 KB of input. The kernel
rests on two facts.

1. The low byte of the state evolves on its own. With ``u = v mod 256``,
   ``u' = ((u ^ b) * 0xB3) mod 256``, where ``0xB3`` is ``P``'s low
   byte. ``0xB3`` is odd, so bit ``j`` of ``x * 0xB3`` is ``x_j`` XOR
   bit ``j`` of ``(x mod 2**j) * 0xB3``. Bit ``j`` of ``u'`` is
   therefore bit ``j`` of ``u`` XOR a flip that depends only on ``b``
   and the bits of ``u`` below ``j``. Once bits ``0..j-1`` of the state
   before every byte are known, bit ``j`` is the base's bit ``j`` XOR
   an exclusive prefix XOR of the flips along the row. Eight such
   scans, lowest bit first, give the low byte ``u_i`` before every
   byte ``i``.
2. A byte only changes the low byte, so ``v ^ b = v + ((u ^ b) - u)``.
   Unrolling a row of ``n`` bytes gives::

       v_n = v_0 * P**n + sum_i ((u_i ^ b_i) - u_i) * P**(n - i)  (mod 2**64)

   ``P`` is odd, so ``P**(n - i) = P**end * Q**i`` with
   ``Q = P**-1 mod 2**64``, where ``i`` and ``end`` are offsets in the
   pass. Each row's sum is then one segmented add of per-byte terms,
   scaled by ``P**end``. Powers come from two small tables:
   ``r**i = r**(i % 256) * r**(256 * (i // 256))``.

Rows are hashed in passes of at most :data:`_PASS_BYTES` bytes; a row
longer than that gets a pass of its own. The kernel's temporaries stay
small however many rows one call hashes. ``tests/test_rng.py`` pins the
equivalence contract with a property test against :func:`derive_seed`.
"""

from __future__ import annotations

import operator
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError

SeedLike = Union[int, np.random.Generator, None]

#: Seed used across the experiment harness when none is supplied.
DEFAULT_SEED = 0x5EED

_FNV_PRIME = 0x100000001B3
#: Inverse of the FNV prime modulo 2**64 (the prime is odd).
_FNV_PRIME_INVERSE = pow(_FNV_PRIME, -1, 2**64)
_MASK64 = 2**64 - 1
_SEED_MODULUS = 2**63 - 1
#: Byte budget of one :func:`derive_seeds` pass.
_PASS_BYTES = 1 << 16
#: Stride of the two-level power tables: ``r**i`` is
#: ``r**(i % _STRIDE) * (r**_STRIDE)**(i // _STRIDE)``.
_STRIDE = 256


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be an ``int``, an existing generator (returned as-is so
    that callers can share one stream), or ``None`` for the library-wide
    default seed.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def normalize_seed(seed: SeedLike) -> Optional[int]:
    """Collapse ``seed`` to a concrete int, honouring the full contract.

    Ints pass through, ``None`` stays ``None`` (callers supply their own
    default), and an existing :class:`~numpy.random.Generator` is
    consumed for one draw — so two different generators (or the same
    generator at different points of its stream) yield different
    sub-seeds instead of being silently discarded.
    """
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2**63 - 1))
    if seed is None:
        return None
    return int(seed)


def spawn(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``count`` independent child generators.

    Children are derived from seeds drawn from the parent, so a run is
    reproducible even when subcomponents consume different numbers of
    samples.
    """
    seeds = rng.integers(0, 2**63 - 1, size=count)
    return [np.random.default_rng(int(s)) for s in seeds]


def check_seed(seed: object) -> int:
    """Return ``seed`` as an int, or raise if it cannot seed a hash.

    Seeds are unsigned 64-bit integers: anything that is not an integer,
    or lies outside ``[0, 2**64)``, raises
    :class:`~repro.errors.ConfigurationError`.
    """
    try:
        value = operator.index(seed)
    except TypeError:
        raise ConfigurationError(
            f"seed must be an integer, got {type(seed).__name__}"
        ) from None
    if not 0 <= value <= _MASK64:
        raise ConfigurationError(f"seed {value} is outside [0, 2**64)")
    return value


def derive_seed(base: int, *components: object) -> int:
    """Derive a stable sub-seed from ``base`` and hashable components.

    Used to give each (NF, contender, traffic-profile) combination its own
    deterministic noise stream regardless of evaluation order. ``base``
    must lie in ``[0, 2**64)`` (see :func:`check_seed`).
    """
    value = check_seed(base)
    for component in components:
        # FNV-1a style mixing over the repr; stable across processes
        # because PYTHONHASHSEED does not affect repr of our value types.
        for byte in repr(component).encode("utf-8"):
            value = ((value ^ byte) * _FNV_PRIME) & _MASK64
    return value % _SEED_MODULUS


def derive_seeds(base: int, rows: Iterable[Sequence[object]]) -> list[int]:
    """``[derive_seed(base, *row) for row in rows]``, hashed in bulk.

    ``rows`` is consumed lazily, one pass of at most :data:`_PASS_BYTES`
    encoded bytes at a time (see the module docstring). A component
    object repeated across the rows of one pass — such as the sorted
    co-runner key shared by every workload of a scenario — is encoded
    once.
    """
    value = check_seed(base)
    seeds: list[int] = []
    chunks: list[bytes] = []
    size = 0
    # id -> (component, encoding); holding the component keeps its id
    # from being reused while the entry lives.
    encoded: dict[int, tuple[object, bytes]] = {}
    for row in rows:
        parts = []
        for component in row:
            entry = encoded.get(id(component))
            if entry is None:
                entry = (component, repr(component).encode("utf-8"))
                encoded[id(component)] = entry
            parts.append(entry[1])
        chunk = b"".join(parts)
        if chunks and size + len(chunk) > _PASS_BYTES:
            seeds.extend(_fnv1a_pass(value, chunks))
            chunks, size = [], 0
            encoded.clear()
        chunks.append(chunk)
        size += len(chunk)
    if chunks:
        seeds.extend(_fnv1a_pass(value, chunks))
    return seeds


def _powers(root: int, count: int) -> np.ndarray:
    """``root**i mod 2**64`` for ``i < count``."""
    table = np.full(count, root, dtype=np.uint64)
    table[0] = 1
    return np.multiply.accumulate(table)


def _raise(root: int, exponents: np.ndarray) -> np.ndarray:
    """``root**e mod 2**64`` for every ``e`` in ``exponents``."""
    low = _powers(root, _STRIDE)
    high = _powers(pow(root, _STRIDE, 2**64), int(exponents.max()) // _STRIDE + 1)
    return low[exponents % _STRIDE] * high[exponents // _STRIDE]


_WORD_SHIFTS = tuple(np.uint64(shift) for shift in (1, 2, 4, 8, 16, 32))
_TOP_BIT = np.uint64(63)


def _exclusive_prefix_xor(bits: np.ndarray) -> np.ndarray:
    """XOR of all earlier elements' truth values, as a 0/1 ``uint8`` array.

    Packs 64 bits per word, scans inside every word with shift-XORs and
    carries the word parities across words with one short accumulate.
    """
    n = bits.size
    words = np.zeros(-(-n // 64) * 8, dtype=np.uint8)
    words[: -(-n // 8)] = np.packbits(bits, bitorder="little")
    lanes = words.view("<u8")
    own = lanes.copy()
    for shift in _WORD_SHIFTS:
        lanes ^= lanes << shift
    parity = np.bitwise_xor.accumulate(lanes >> _TOP_BIT)
    # Flip every bit of a word whose predecessors hold odd parity.
    lanes[1:] ^= np.negative(parity[:-1])
    lanes ^= own  # inclusive -> exclusive
    return np.unpackbits(words, count=n, bitorder="little")


def _low_bytes(
    base: int, data: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Low byte of the state before every byte of every (non-empty) row."""
    low = np.zeros(data.size, dtype=np.uint8)
    for j in range(8):
        # Byte i flips bit j iff bit j of b ^ ((u ^ b) mod 2**j) * 0xB3 is set.
        flips = low ^ data
        flips &= np.uint8((1 << j) - 1)
        flips *= np.uint8(_FNV_PRIME & 0xFF)
        flips ^= data
        flips &= np.uint8(1 << j)
        plane = _exclusive_prefix_xor(flips)
        # Restart every row from the base's bit j.
        restart = plane[starts] ^ np.uint8((base >> j) & 1)
        plane ^= np.repeat(restart, lengths)
        plane *= np.uint8(1 << j)  # numpy shifts uint8 without SIMD
        low |= plane
    return low


def _fnv1a_pass(base: int, chunks: list[bytes]) -> list[int]:
    """FNV-1a of every chunk from ``base``, folded like :func:`derive_seed`."""
    lengths = np.fromiter(map(len, chunks), dtype=np.int64, count=len(chunks))
    data = np.frombuffer(b"".join(chunks), dtype=np.uint8)
    seeds = np.full(len(chunks), base % _SEED_MODULUS, dtype=np.uint64)
    filled = lengths > 0  # reduceat would give an empty row a neighbour's byte
    if not filled.any():
        return seeds.tolist()
    lengths = lengths[filled]
    ends = np.cumsum(lengths)
    starts = ends - lengths
    low = _low_bytes(base, data, starts, lengths)
    # terms[i] = ((u ^ b) - u) * Q**i mod 2**64; the two power tables
    # apply as broadcasts over _STRIDE-wide blocks.
    terms = np.zeros(-(-data.size // _STRIDE) * _STRIDE, dtype=np.uint64)
    step = terms[: data.size]
    step[:] = data
    step ^= low
    step -= low  # wraps mod 2**64 where u ^ b < u
    blocks = terms.reshape(-1, _STRIDE)
    blocks *= _powers(_FNV_PRIME_INVERSE, _STRIDE)
    stride_root = pow(_FNV_PRIME_INVERSE, _STRIDE, 2**64)
    blocks *= _powers(stride_root, len(blocks))[:, None]
    sums = np.add.reduceat(terms, starts)
    hashed = np.uint64(base) * _raise(_FNV_PRIME, lengths)
    hashed += _raise(_FNV_PRIME, ends) * sums
    seeds[filled] = hashed % np.uint64(_SEED_MODULUS)
    return seeds.tolist()
