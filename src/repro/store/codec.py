"""Stable byte encoding of interned :class:`Process` terms.

The hash-consed kernel makes terms pointer-identical *within* one
process, but pointers don't survive a pickle, a socket or a database
row.  This codec is the bridge: :func:`encode` flattens a term into a
compact, self-delimiting byte string and :func:`decode` rebuilds it
through the ordinary constructors, so the result **re-interns** — in a
live process ``decode(encode(p)) is p``, and across processes the
decoded term is the receiving intern table's unique representative.
That identity round-trip is the item-2 prerequisite for shipping terms
to worker pools and is pinned by a Hypothesis property in
``tests/test_store_codec.py``.

Format (version tag :data:`MAGIC`):

* a name table — every name/identifier string of the term, utf-8,
  length-prefixed, in first-encounter pre-order — followed by
* the term tree in pre-order, one tag byte per node, name operands as
  LEB128 indices into the table.

The codec is the wire and disk encoding only.  Content addresses
(:func:`state_digest`, :func:`pair_key`) come from the structural
fingerprints memoized on the nodes
(:func:`repro.core.canonical._stable_fingerprint`) of the
``canonical_state`` of a state — so whole structural congruence classes
share one address, and computing one encodes nothing.  :func:`encode`
itself is exact: it preserves the term bit-for-bit, including bound-name
spellings, which is what the identity round-trip needs.

A fingerprint is injective on terms, up to sha256 collisions: the bytes
it hashes spell the term one way only.  They are a class name, then
each field followed by a zero byte.  The class names are prefix-free,
so the class is read first, and with it the number and kinds of the
fields.  A child field is its own 32-byte digest, a fixed length.  A
name field is the ``repr`` of a string or a tuple of strings, which
never holds a raw zero byte (``repr`` escapes it), so the zero byte
after it ends it.

Decoding is strict: trailing bytes, truncated input, unknown tags and
out-of-range name indices all raise :class:`CodecError` — a corrupt
blob can only fail loudly, never decode to a different term.
"""

from __future__ import annotations

import hashlib

from ..core.canonical import _stable_fingerprint, canonical_state
from ..core.syntax import (
    NIL,
    Ident,
    Input,
    Match,
    Nil,
    Output,
    Par,
    Process,
    Rec,
    Restrict,
    Sum,
    Tau,
)

__all__ = ["CodecError", "encode", "decode", "state_digest", "pair_key",
           "MAGIC"]

#: Format tag: bumped whenever the wire layout changes, so a store
#: written by one version can never be misread by another.
MAGIC = b"bpi1"


class CodecError(ValueError):
    """The byte string is not a valid :data:`MAGIC` term encoding."""


_TAG_NIL = 0
_TAG_TAU = 1
_TAG_INPUT = 2
_TAG_OUTPUT = 3
_TAG_RESTRICT = 4
_TAG_MATCH = 5
_TAG_SUM = 6
_TAG_PAR = 7
_TAG_IDENT = 8
_TAG_REC = 9


def _uvarint(n: int, out: bytearray) -> None:
    """Append *n* as an unsigned LEB128 varint."""
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _collect_strings(p: Process, order: list[str],
                     index: dict[str, int]) -> None:
    """First-encounter pre-order walk over every name/identifier."""
    stack = [p]
    while stack:
        t = stack.pop()
        names: tuple[str, ...]
        if isinstance(t, Nil):
            continue
        if isinstance(t, Tau):
            stack.append(t.cont)
            continue
        if isinstance(t, Input):
            names = (t.chan, *t.params)
            stack.append(t.cont)
        elif isinstance(t, Output):
            names = (t.chan, *t.args)
            stack.append(t.cont)
        elif isinstance(t, Restrict):
            names = (t.name,)
            stack.append(t.body)
        elif isinstance(t, Match):
            names = (t.left, t.right)
            stack.append(t.orelse)
            stack.append(t.then)
        elif isinstance(t, (Sum, Par)):
            names = ()
            stack.append(t.right)
            stack.append(t.left)
        elif isinstance(t, Ident):
            names = (t.ident, *t.args)
        elif isinstance(t, Rec):
            names = (t.ident, *t.params, *t.args)
            stack.append(t.body)
        else:
            raise CodecError(f"cannot encode node {type(t).__name__}")
        for n in names:
            if n not in index:
                index[n] = len(order)
                order.append(n)


def encode(p: Process) -> bytes:
    """Serialise *p* into a self-delimiting byte string."""
    if not isinstance(p, Process):
        raise CodecError(f"can only encode Process terms, "
                         f"got {type(p).__name__}")
    order: list[str] = []
    index: dict[str, int] = {}
    _collect_strings(p, order, index)
    out = bytearray(MAGIC)
    _uvarint(len(order), out)
    for name in order:
        raw = name.encode("utf-8")
        _uvarint(len(raw), out)
        out.extend(raw)

    def ref(name: str) -> None:
        _uvarint(index[name], out)

    def refs(names: tuple[str, ...]) -> None:
        _uvarint(len(names), out)
        for n in names:
            ref(n)

    # Explicit stack of (node | emit-thunk) keeps deep Par/Sum chains off
    # the CPython call stack; children are pushed in reverse so the wire
    # order is pre-order.
    stack: list[Process] = [p]
    while stack:
        t = stack.pop()
        if isinstance(t, Nil):
            out.append(_TAG_NIL)
        elif isinstance(t, Tau):
            out.append(_TAG_TAU)
            stack.append(t.cont)
        elif isinstance(t, Input):
            out.append(_TAG_INPUT)
            ref(t.chan)
            refs(t.params)
            stack.append(t.cont)
        elif isinstance(t, Output):
            out.append(_TAG_OUTPUT)
            ref(t.chan)
            refs(t.args)
            stack.append(t.cont)
        elif isinstance(t, Restrict):
            out.append(_TAG_RESTRICT)
            ref(t.name)
            stack.append(t.body)
        elif isinstance(t, Match):
            out.append(_TAG_MATCH)
            ref(t.left)
            ref(t.right)
            stack.append(t.orelse)
            stack.append(t.then)
        elif isinstance(t, Sum):
            out.append(_TAG_SUM)
            stack.append(t.right)
            stack.append(t.left)
        elif isinstance(t, Par):
            out.append(_TAG_PAR)
            stack.append(t.right)
            stack.append(t.left)
        elif isinstance(t, Ident):
            out.append(_TAG_IDENT)
            ref(t.ident)
            refs(t.args)
        else:  # Rec — _collect_strings already rejected anything else
            out.append(_TAG_REC)
            ref(t.ident)
            refs(t.params)
            refs(t.args)
            stack.append(t.body)
    return bytes(out)


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def byte(self) -> int:
        if self.pos >= len(self.data):
            raise CodecError("truncated encoding")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def uvarint(self) -> int:
        shift = 0
        value = 0
        while True:
            b = self.byte()
            value |= (b & 0x7F) << shift
            if not b & 0x80:
                return value
            shift += 7
            if shift > 63:
                raise CodecError("varint too long")

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CodecError("truncated encoding")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk


def decode(data: bytes) -> Process:
    """Rebuild (and thereby re-intern) the term encoded in *data*."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise CodecError(f"expected bytes, got {type(data).__name__}")
    data = bytes(data)
    if data[:len(MAGIC)] != MAGIC:
        raise CodecError(f"bad magic {data[:len(MAGIC)]!r}; "
                         f"expected {MAGIC!r}")
    r = _Reader(data)
    r.pos = len(MAGIC)
    n_names = r.uvarint()
    names: list[str] = []
    for _ in range(n_names):
        raw = r.take(r.uvarint())
        try:
            names.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid utf-8 in name table: {exc}") from exc

    def ref() -> str:
        i = r.uvarint()
        if i >= len(names):
            raise CodecError(f"name index {i} out of range "
                             f"({len(names)} names)")
        return names[i]

    def refs() -> tuple[str, ...]:
        return tuple(ref() for _ in range(r.uvarint()))

    def term() -> Process:
        tag = r.byte()
        if tag == _TAG_NIL:
            return NIL
        if tag == _TAG_TAU:
            return Tau(term())
        if tag == _TAG_INPUT:
            chan, params = ref(), refs()
            return Input(chan, params, term())
        if tag == _TAG_OUTPUT:
            chan, args = ref(), refs()
            return Output(chan, args, term())
        if tag == _TAG_RESTRICT:
            name = ref()
            return Restrict(name, term())
        if tag == _TAG_MATCH:
            left, right = ref(), ref()
            then = term()
            return Match(left, right, then, term())
        if tag == _TAG_SUM:
            left = term()
            return Sum(left, term())
        if tag == _TAG_PAR:
            left = term()
            return Par(left, term())
        if tag == _TAG_IDENT:
            ident, args = ref(), refs()
            return Ident(ident, args)
        if tag == _TAG_REC:
            ident, params, args = ref(), refs(), refs()
            return Rec(ident, params, term(), args)
        raise CodecError(f"unknown node tag {tag}")

    try:
        result = term()
    except (TypeError, ValueError) as exc:
        # Constructor validation (arity mismatch, duplicate binders...)
        # means the blob does not spell a well-formed term.
        if isinstance(exc, CodecError):
            raise
        raise CodecError(f"malformed term: {exc}") from exc
    if r.pos != len(data):
        raise CodecError(f"{len(data) - r.pos} trailing bytes after term")
    return result


def state_digest(p: Process) -> str:
    """Content address of the *state* ``p`` denotes: hex sha256 of the
    fingerprint of its ``canonical_state`` form, so every member of the
    Lemma-6 structural-congruence class shares one digest.  Requires a
    closed term (the same precondition as the checkers themselves)."""
    return hashlib.sha256(_stable_fingerprint(canonical_state(p))).hexdigest()


def pair_key(p: Process, q: Process, calculus: str = "bpi") -> str:
    """The content address of the ordered canonical pair ``(p, q)``.

    This is the verdict store's primary-key component: any two requests
    whose sides are structurally congruent hash to the same key, so a
    verdict computed for one answers the other.  The pair is *ordered* —
    the non-symmetric relations (``similar``, ``noisy``) stay correct
    without per-relation special-casing.

    *calculus* is the semantic backend's identity key
    (:meth:`repro.calculi.backend.CalculusBackend.key` — for the
    wireless backend this bakes in the topology digest), so the same
    pair checked under different semantics can never share a verdict
    row.

    The key is the sha256 of the length-prefixed calculus key and the
    fingerprints of both canonical states, which are memoized on the
    nodes, so a key costs no walk of a term already fingerprinted.  Each
    fingerprint is a fixed 33 bytes, so the three parts split one way.
    """
    h = hashlib.sha256()
    ck = calculus.encode("utf-8")
    h.update(len(ck).to_bytes(2, "big"))
    h.update(ck)
    h.update(_stable_fingerprint(canonical_state(p)))
    h.update(_stable_fingerprint(canonical_state(q)))
    return h.hexdigest()
