"""Symbolic linear-order shapes for the built-in set families.

A descriptor is the text the reports print. The algebra is deliberately
small: a finite block (``FIN(k)``), an ascending infinite block (``W``), a
descending infinite block (``W*``), the rationals of a closed interval
(``Q[]``), and ``W``/``W*`` blocks joined by ``" + "``. Each builder states
its shape directly, and a descriptor is read as it is given: no normal form
is computed. An edited finite set's ``FIN(k)`` counts the values its listing
holds. Descriptors are not unique up to isomorphism (one more point below a
``W`` block leaves an order isomorphic to ``W``), so a mismatch of
descriptors alone refutes nothing.

Only block signatures decide a verdict. The ascending/descending pattern of an
all-infinite concatenation is invariant under finite edits of the set, so a
signature mismatch refutes even co-order up to finite differences
(:func:`refute_type2`). Dense blocks are excluded from that route: deleting
finitely many points can move a dense block's endpoints, so their interaction
with finite edits is not settled here. Other modules read the ``W``/``W*``
shape only through :func:`block_signature`, and finiteness only through
:func:`is_finite`.
"""

from __future__ import annotations

OMEGA = "W"
OMEGA_STAR = "W*"
DENSE = "Q[]"


def fin(k: int) -> str:
    """The descriptor of a finite set of ``k`` values."""
    return f"FIN({k})"


def is_finite(d: str | None) -> bool:
    """Whether ``d`` describes a finite set."""
    return d is not None and d.startswith("FIN(")


def block_signature(d: str | None) -> list[str] | None:
    """``ASC``/``DESC`` pattern of a ``W``/``W*`` block or a concatenation
    of them; None for every other shape and for no descriptor.
    """
    if d is None:
        return None
    directions = {OMEGA: "ASC", OMEGA_STAR: "DESC"}
    signature = [directions.get(block) for block in d.split(" + ")]
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
    return f"signature [{','.join(sig_a)}] != [{','.join(sig_b)}]"
