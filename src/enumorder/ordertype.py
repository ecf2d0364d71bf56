"""Symbolic linear-order shapes for the built-in set families.

The algebra is deliberately small: a finite block (``FIN(k)``), an ascending
infinite block (``W``), a descending infinite block (``W*``), the rationals of
a closed interval (``Q[]``), and a concatenation of ``W``/``W*`` blocks. Each
builder states its shape directly, and a descriptor is read as it is given:
no normal form is computed. Descriptors are not unique up to isomorphism
(one more point below a ``W`` block leaves an order isomorphic to ``W``), so
a mismatch of descriptors alone refutes nothing.

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
    pass


@dataclass(frozen=True)
class Concat:
    blocks: tuple["Descriptor", ...]


Descriptor = Fin | Omega | OmegaStar | Dense | Concat

OMEGA = Omega()
OMEGA_STAR = OmegaStar()


class Direction(Enum):
    ASC = "ASC"
    DESC = "DESC"


def block_signature(d: Descriptor | None) -> list[Direction] | None:
    """Ascending/descending pattern of a ``W``/``W*`` block or a
    concatenation of them; None for every other shape and for no descriptor.
    """
    if d is None:
        return None
    blocks = d.blocks if isinstance(d, Concat) else (d,)
    directions = {Omega: Direction.ASC, OmegaStar: Direction.DESC}
    signature = [directions.get(type(block)) for block in blocks]
    return None if None in signature else signature


def refute_type2(spec_a, spec_b) -> str | None:
    """Refute co-order-up-to-finite-edits by signature mismatch.

    Returns the reason, such as ``signature [ASC] != [ASC,DESC]``, when both
    inputs' descriptors have block signatures and the signatures differ;
    finite edits cannot change the signature of infinite blocks, so differing
    signatures are a sound refutation. Returns ``None`` (unknown) otherwise:
    equal signatures refute nothing, and other shapes are out of this
    route's scope.
    """
    sig_a = block_signature(spec_a.descriptor)
    sig_b = block_signature(spec_b.descriptor)
    if sig_a is None or sig_b is None or sig_a == sig_b:
        return None
    fmt = lambda sig: "[" + ",".join(s.value for s in sig) + "]"
    return f"signature {fmt(sig_a)} != {fmt(sig_b)}"


def format_descriptor(d: Descriptor) -> str:
    if isinstance(d, Fin):
        return f"FIN({d.size})"
    if isinstance(d, Omega):
        return "W"
    if isinstance(d, OmegaStar):
        return "W*"
    if isinstance(d, Dense):
        return "Q[]"
    return " + ".join(format_descriptor(b) for b in d.blocks)
