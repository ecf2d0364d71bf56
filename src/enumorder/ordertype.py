"""Symbolic linear-order shapes for the built-in set families.

The algebra is deliberately small: finite blocks, an ascending infinite block
(``W``), a descending infinite block (``W*``), dense interval blocks, and
finite concatenations of blocks. Normal forms are not claimed to be unique up
to isomorphism: ``FIN(1) + W`` and ``W`` are distinct normal forms of
isomorphic orders, so a mismatch of normal forms refutes nothing.

Only block signatures decide a verdict. The ascending/descending pattern of an
all-infinite concatenation is invariant under finite edits of the set, so a
signature mismatch refutes even co-order up to finite differences
(:func:`refute_type2`). Dense blocks are excluded from that route: deleting
finitely many points can move a dense block's endpoints, so their interaction
with finite edits is not settled here. Other modules read the ``W``/``W*``
shape only through :func:`block_signature`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


@dataclass(frozen=True)
class Fin:
    size: int


@dataclass(frozen=True)
class Omega:
    pass


@dataclass(frozen=True)
class OmegaStar:
    pass


@dataclass(frozen=True)
class Dense:
    left_closed: bool
    right_closed: bool


@dataclass(frozen=True)
class Concat:
    blocks: tuple["Descriptor", ...]


Descriptor = Fin | Omega | OmegaStar | Dense | Concat

OMEGA = Omega()
OMEGA_STAR = OmegaStar()


def normalize(d: Descriptor) -> Descriptor:
    """Canonical form: flat concatenations, adjacent finite blocks merged,
    empty finite blocks dropped, singleton concatenations unwrapped.

    Idempotent by construction.
    """
    if not isinstance(d, Concat):
        return d
    flat: list[Descriptor] = []
    for block in d.blocks:
        block = normalize(block)
        inner = block.blocks if isinstance(block, Concat) else (block,)
        for piece in inner:
            if piece == Fin(0):
                continue
            if flat and isinstance(piece, Fin) and isinstance(flat[-1], Fin):
                flat[-1] = Fin(flat[-1].size + piece.size)
            else:
                flat.append(piece)
    if not flat:
        return Fin(0)
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


class Direction(Enum):
    ASC = "ASC"
    DESC = "DESC"


def block_signature(d: Descriptor | None) -> list[Direction] | None:
    """Ascending/descending pattern of a ``W``/``W*`` block or a
    concatenation of them; None for every other shape and for no descriptor.
    """
    if d is None:
        return None
    d = normalize(d)
    blocks = d.blocks if isinstance(d, Concat) else (d,)
    directions = {Omega: Direction.ASC, OmegaStar: Direction.DESC}
    signature = [directions.get(type(block)) for block in blocks]
    return None if None in signature else signature


@dataclass(frozen=True)
class Refuted:
    reason: str


def refute_type2(spec_a, spec_b) -> Refuted | None:
    """Refute co-order-up-to-finite-edits by signature mismatch.

    Returns a :class:`Refuted` verdict when both inputs' descriptors have
    block signatures and the signatures differ; finite edits cannot change
    the signature of infinite blocks, so differing signatures are a sound
    refutation. Returns ``None`` (unknown) otherwise: equal signatures refute
    nothing, and other shapes are out of this route's scope.
    """
    sig_a = block_signature(spec_a.descriptor)
    sig_b = block_signature(spec_b.descriptor)
    if sig_a is None or sig_b is None or sig_a == sig_b:
        return None
    fmt = lambda sig: "[" + ",".join(s.value for s in sig) + "]"
    return Refuted(f"signature {fmt(sig_a)} != {fmt(sig_b)}")


def format_descriptor(d: Descriptor) -> str:
    if isinstance(d, Fin):
        return f"FIN({d.size})"
    if isinstance(d, Omega):
        return "W"
    if isinstance(d, OmegaStar):
        return "W*"
    if isinstance(d, Dense):
        return "Q" + ("[" if d.left_closed else "(") + ("]" if d.right_closed else ")")
    return " + ".join(format_descriptor(b) for b in d.blocks)
