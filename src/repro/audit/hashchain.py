"""Hash chain and epoch signatures over audit-log tuples.

Every logged tuple becomes a :class:`ChainEntry`: its payload hash chained
onto the previous entry (like PeerReview's tamper-evident logs, which §5.1
cites). The chain head is periodically signed with the enclave's ECDSA key
(created at provisioning), together with the current monotonic counter
value, producing a :class:`SignedHead` that anchors both integrity and
freshness.

Hashes are stored *separately* from the entries and associated by entry id
— the paper does this so trimming need not rewrite every row (§5.1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, ClassVar, Iterable, Sequence

from repro.crypto.ecdsa import EcdsaPrivateKey, EcdsaPublicKey, EcdsaSignature
from repro.crypto.hashing import sha256
from repro.errors import IntegrityError

GENESIS = sha256(b"libseal-audit-genesis")


def encode_tuple(table: str, values: Sequence[object]) -> bytes:
    """Canonical byte encoding of one logged tuple (type-tagged)."""
    parts = [b"T", table.encode(), b"\x00"]
    for value in values:
        if value is None:
            parts.append(b"N")
        elif isinstance(value, bool):
            parts.append(b"B" + (b"1" if value else b"0"))
        elif isinstance(value, int):
            parts.append(b"I" + str(value).encode())
        elif isinstance(value, float):
            parts.append(b"F" + repr(value).encode())
        elif isinstance(value, bytes):
            parts.append(b"Y" + len(value).to_bytes(4, "big") + value)
        else:
            encoded = str(value).encode()
            parts.append(b"S" + len(encoded).to_bytes(4, "big") + encoded)
        parts.append(b"\x00")
    return b"".join(parts)


@dataclass(frozen=True)
class ChainEntry:
    """One link: ``chain_hash = H(prev_chain_hash || payload_hash)``."""

    entry_id: int
    table: str
    payload_hash: bytes
    chain_hash: bytes


# ----------------------------------------------------------------------
# Signed records: one typed-field codec for every ECDSA-signed record
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Codec:
    """How one field travels: in the signed payload and in the sidecar."""

    pack: Callable[[Any], bytes]  #: signed-payload bytes
    wire: Callable[[Any], bytes]  #: sidecar bytes (NUL-separated, never NUL)
    unwire: Callable[[bytes], Any]
    #: NUL-terminated in the payload, raw in the sidecar: a NUL inside
    #: the value would let two records share one signed payload.
    nul_free: bool = False


def _unwire_hex(raw: bytes) -> bytes:
    return bytes.fromhex(raw.decode())


def uint_field(width: int) -> Any:
    """A ``width``-byte big-endian integer (decimal in the sidecar)."""

    def unwire(raw: bytes) -> int:
        value = int(raw)
        if not 0 <= value < 1 << (8 * width):
            raise ValueError(f"{value} does not fit {width} bytes")
        return value

    return field(metadata={"codec": _Codec(
        lambda v: v.to_bytes(width, "big"), lambda v: str(v).encode(), unwire
    )})


def text_field() -> Any:
    """UTF-8 text, NUL-terminated in the payload; NUL is rejected."""
    return field(metadata={"codec": _Codec(
        lambda v: v.encode() + b"\x00", str.encode, bytes.decode, nul_free=True
    )})


def tail_text_field() -> Any:
    """UTF-8 text closing the payload unterminated (hex in the sidecar)."""
    return field(metadata={"codec": _Codec(
        str.encode, lambda v: v.encode().hex().encode(),
        lambda raw: _unwire_hex(raw).decode(),
    )})


def hash_field() -> Any:
    """A hash: raw in the payload, hex in the sidecar."""
    return field(metadata={"codec": _Codec(
        lambda v: v, lambda v: v.hex().encode(), _unwire_hex
    )})


@functools.cache
def _layout(cls: type) -> tuple[tuple[str, _Codec], ...]:
    return tuple(
        (f.name, f.metadata["codec"]) for f in fields(cls) if "codec" in f.metadata
    )


class SignedRecord:
    """Base of the ECDSA-signed records: typed fields, then ``signature``.

    The signed payload is ``DOMAIN || NUL`` followed by each field's
    payload bytes in declaration order. Records persisted as write-ahead
    sidecars also encode as ``MAGIC`` and each field's sidecar bytes,
    NUL-joined, with the hex signature last; ``SIDECAR`` names the
    storage slot (see :meth:`~repro.audit.persistence.LogStorage.save_intent`).
    """

    DOMAIN: ClassVar[bytes]
    NAME: ClassVar[str]  #: for error messages
    MAGIC: ClassVar[bytes | None] = None
    SIDECAR: ClassVar[str | None] = None
    OWNER: ClassVar[str] = "log_id"  #: field naming the log/plane it belongs to

    def __post_init__(self) -> None:
        for name, codec in _layout(type(self)):
            if codec.nul_free and "\x00" in getattr(self, name):
                raise ValueError(f"{self.NAME}: NUL in text field {name!r}")

    def payload(self) -> bytes:
        return self.DOMAIN + b"\x00" + b"".join(
            codec.pack(getattr(self, name)) for name, codec in _layout(type(self))
        )

    @classmethod
    def sign(cls, key: EcdsaPrivateKey, *values, **named):
        unsigned = cls(*values, signature=EcdsaSignature(0, 0), **named)
        return replace(unsigned, signature=key.sign(unsigned.payload()))

    def verify(self, public_key: EcdsaPublicKey) -> None:
        if not public_key.verify(self.payload(), self.signature):
            raise IntegrityError(f"{self.NAME} signature invalid")

    def encode(self) -> bytes:
        return b"\x00".join([
            self.MAGIC,
            *(codec.wire(getattr(self, name)) for name, codec in _layout(type(self))),
            self.signature.encode().hex().encode(),
        ])

    @classmethod
    def decode(cls, blob: bytes):
        layout = _layout(cls)
        try:
            magic, *parts, sig_hex = blob.split(b"\x00")
            if magic != cls.MAGIC:
                raise ValueError("bad magic")
            if len(parts) != len(layout):
                raise ValueError(f"{len(parts)} fields, expected {len(layout)}")
            return cls(
                *(codec.unwire(part) for (_, codec), part in zip(layout, parts)),
                EcdsaSignature.decode(_unwire_hex(sig_hex)),
            )
        except ValueError as exc:  # UnicodeDecodeError included
            raise IntegrityError(f"{cls.NAME} unparsable: {exc}") from exc

    @classmethod
    def load_sidecar(
        cls,
        storage,
        public_key: EcdsaPublicKey,
        owner: str,
        on_invalid: Callable[[], None] | None = None,
    ):
        """The stored write-ahead record, or None if absent, forged,
        malformed or owned by another log or plane. ``on_invalid`` runs
        when a stored blob is rejected (each caller's discard policy): a
        forged or corrupt intent buys the adversary nothing."""
        blob = storage.load_intent(cls.SIDECAR)
        if blob is None:
            return None
        try:
            record = cls.decode(blob)
            record.verify(public_key)
        except IntegrityError:
            record = None
        if record is None or getattr(record, cls.OWNER) != owner:
            if on_invalid is not None:
                on_invalid()
            return None
        return record


@dataclass(frozen=True)
class SignedHead(SignedRecord):
    """A signed (chain head, counter value, entry count) anchor."""

    DOMAIN = b"LOG-HEAD"
    NAME = "audit log head"

    head_hash: bytes = hash_field()
    counter_value: int = uint_field(8)
    entry_count: int = uint_field(8)
    signature: EcdsaSignature


@dataclass(frozen=True)
class SealIntent(SignedRecord):
    """A signed write-ahead marker: "a seal of this chain state is in flight".

    Written to storage *before* the ROTE increment of each epoch seal.
    After a crash between the increment and the snapshot write, the stored
    log's counter is one behind the quorum — byte-identical to a one-epoch
    rollback. A valid intent whose chain extends the stored snapshot
    proves the gap came from the enclave's own in-flight seal, letting
    recovery discard the unacknowledged pair instead of (wrongly) flagging
    a rollback. Without it, any counter gap is treated as an attack.
    """

    DOMAIN = b"SEAL-INTENT"
    NAME = "seal intent"
    MAGIC = b"INTENT1"
    SIDECAR = "intent"

    log_id: str = text_field()
    head_hash: bytes = hash_field()
    entry_count: int = uint_field(8)
    signature: EcdsaSignature


@dataclass(frozen=True)
class RotationIntent(SignedRecord):
    """A signed write-ahead marker: "a key rotation to ``to_epoch`` is in flight".

    Written to storage *before* the authority rotates, so a crash at any
    step of the rotation (rotate keys → audited log record → re-seal →
    replica announcement → retire) can be replayed to completion instead
    of leaving the deployment split across two epochs. Each step of the
    replay is idempotent; the sidecar is cleared only once the rotation
    has fully converged.
    """

    DOMAIN = b"ROTATE-INTENT"
    NAME = "rotation intent"
    MAGIC = b"ROTATE1"
    SIDECAR = "rotation"

    log_id: str = text_field()
    from_epoch: int = uint_field(4)
    to_epoch: int = uint_field(4)
    reason: str = tail_text_field()
    signature: EcdsaSignature


@dataclass(frozen=True)
class MembershipIntent(SignedRecord):
    """A signed write-ahead marker: "a shard membership change is in flight".

    Mirrors :class:`RotationIntent` for the sharded audit plane: written
    to the control log's storage *before* any step of a split/merge
    executes, so a crash at any rebalance checkpoint (audited record →
    provisioning → range transfer → cutover → source retire) replays to
    exactly one owner per log range. Each replayed step is idempotent;
    the sidecar is cleared only once the change has fully converged.
    """

    DOMAIN = b"SHARD-INTENT"
    NAME = "membership intent"
    MAGIC = b"SHARD1"
    SIDECAR = "membership"
    OWNER = "plane_id"

    plane_id: str = text_field()
    change_id: str = text_field()
    #: ``"split"`` (shard added) or ``"merge"`` (shard removed)
    kind: str = text_field()
    shard: str = text_field()
    generation_from: int = uint_field(8)
    generation_to: int = uint_field(8)
    epoch: int = uint_field(4)
    signature: EcdsaSignature


class HashChain:
    """An append-only hash chain with rebuild support for trimming."""

    def __init__(self) -> None:
        self._entries: list[ChainEntry] = []
        self._next_id = 1

    @property
    def entries(self) -> list[ChainEntry]:
        return list(self._entries)

    @property
    def head(self) -> bytes:
        return self._entries[-1].chain_hash if self._entries else GENESIS

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, table: str, values: Sequence[object]) -> ChainEntry:
        """Chain one tuple; returns the new entry."""
        payload_hash = sha256(encode_tuple(table, values))
        chain_hash = sha256(self.head + payload_hash)
        entry = ChainEntry(self._next_id, table, payload_hash, chain_hash)
        self._next_id += 1
        self._entries.append(entry)
        return entry

    def rebuild(self, surviving: Iterable[tuple[str, Sequence[object]]]) -> None:
        """Recompute the chain over the entries surviving a trim (§5.1).

        Entry ids are reassigned in order; the counter/signature anchor is
        refreshed by the caller after rebuilding.
        """
        self._entries = []
        self._next_id = 1
        for table, values in surviving:
            self.append(table, values)

    def verify_payloads(
        self, payloads: Iterable[tuple[str, Sequence[object]]]
    ) -> None:
        """Check the stored chain against claimed payload tuples.

        Raises :class:`IntegrityError` if any tuple was modified, removed,
        reordered or injected relative to the chained hashes.
        """
        payload_list = list(payloads)
        entries = self._entries
        if len(payload_list) != len(entries):
            raise IntegrityError(
                f"audit log length mismatch: {len(payload_list)} payloads "
                f"for {len(entries)} chained entries"
            )
        previous = GENESIS
        for (table, values), entry in zip(payload_list, entries):
            payload_hash = sha256(encode_tuple(table, values))
            if payload_hash != entry.payload_hash:
                raise IntegrityError(
                    f"audit entry {entry.entry_id} payload hash mismatch"
                )
            expected_chain = sha256(previous + payload_hash)
            if expected_chain != entry.chain_hash:
                raise IntegrityError(
                    f"audit entry {entry.entry_id} chain hash mismatch"
                )
            if entry.table != table:
                raise IntegrityError(
                    f"audit entry {entry.entry_id} table mismatch"
                )
            previous = entry.chain_hash
