"""The signed-record codec: golden bytes, NUL-free text, strict decode.

``data/signed_records_golden.json`` holds, for all five ECDSA-signed
records, the signed payload and the (RFC 6979, hence deterministic)
signature, plus the sidecar encoding of the three write-ahead intents.
The vectors were recorded from the hand-written codecs the typed-field
codec replaced; every byte must stay the same, and intents encoded then
must still decode and verify. Field values prefixed ``hex:`` are bytes.
"""

import json
from pathlib import Path

import pytest

from repro.audit.hashchain import (
    MembershipIntent,
    RotationIntent,
    SealIntent,
    SignedHead,
)
from repro.crypto.ecdsa import EcdsaPrivateKey
from repro.errors import IntegrityError
from repro.shard.instance import RangeManifest

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "signed_records_golden.json").read_text()
)
KEY = EcdsaPrivateKey(int(GOLDEN["private_key"], 16))
RECORDS = {
    cls.__name__: cls
    for cls in (SignedHead, SealIntent, RotationIntent, MembershipIntent,
                RangeManifest)
}


def _fields(vector: dict) -> dict:
    return {
        name: bytes.fromhex(value[4:])
        if isinstance(value, str) and value.startswith("hex:") else value
        for name, value in vector["fields"].items()
    }


def _ids(vectors):
    return [f"{v['record']}-{i}" for i, v in enumerate(vectors)]


INTENTS = [v for v in GOLDEN["records"] if "encode" in v]


class TestGoldenVectors:
    @pytest.mark.parametrize("vector", GOLDEN["records"], ids=_ids(GOLDEN["records"]))
    def test_payload_and_signature_unchanged(self, vector):
        record = RECORDS[vector["record"]].sign(KEY, **_fields(vector))
        assert record.payload().hex() == vector["payload"]
        assert record.signature.encode().hex() == vector["signature"]
        record.verify(KEY.public_key())

    @pytest.mark.parametrize("vector", INTENTS, ids=_ids(INTENTS))
    def test_sidecar_bytes_unchanged_and_old_blobs_decode(self, vector):
        cls = RECORDS[vector["record"]]
        record = cls.sign(KEY, **_fields(vector))
        assert record.encode().hex() == vector["encode"]
        decoded = cls.decode(bytes.fromhex(vector["encode"]))
        assert decoded == record
        decoded.verify(KEY.public_key())


#: Every NUL-terminated text field of every signed record.
_VALID = {
    SealIntent: dict(log_id="log", head_hash=b"\x01" * 32, entry_count=1),
    RotationIntent: dict(log_id="log", from_epoch=1, to_epoch=2, reason="r"),
    MembershipIntent: dict(
        plane_id="p", change_id="c", kind="split", shard="s",
        generation_from=1, generation_to=2, epoch=1,
    ),
    RangeManifest: dict(
        change_id="c", source_shard="a", target_shard="b",
        ranges_digest=b"\x02" * 32, splice_head=b"\x03" * 32,
        tuple_count=1, counter_value=1, epoch=1,
    ),
}
_TEXT_FIELDS = [
    (SealIntent, "log_id"),
    (RotationIntent, "log_id"),
    (MembershipIntent, "plane_id"),
    (MembershipIntent, "change_id"),
    (MembershipIntent, "kind"),
    (MembershipIntent, "shard"),
    (RangeManifest, "change_id"),
    (RangeManifest, "source_shard"),
    (RangeManifest, "target_shard"),
]


class TestUnambiguousPayloads:
    @pytest.mark.parametrize(
        "cls, name", _TEXT_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in _TEXT_FIELDS]
    )
    def test_nul_in_terminated_text_is_rejected_at_sign_time(self, cls, name):
        fields = dict(_VALID[cls], **{name: "a\x00b"})
        with pytest.raises(ValueError, match="NUL"):
            cls.sign(KEY, **fields)

    def test_shifted_nul_cannot_forge_a_membership_intent(self):
        """``change_id="a\\0b", kind="c"`` and ``change_id="a",
        kind="b\\0c"`` would share one signed payload."""
        base = dict(_VALID[MembershipIntent])
        signed = MembershipIntent.sign(KEY, **dict(base, change_id="a", kind="b"))
        with pytest.raises(ValueError):
            MembershipIntent(**dict(base, change_id="a\x00b", kind="c",
                                    signature=signed.signature))

    def test_shifted_nul_cannot_forge_a_range_manifest(self):
        base = dict(_VALID[RangeManifest])
        with pytest.raises(ValueError):
            RangeManifest.sign(KEY, **dict(base, change_id="x\x00shard-0"))

    def test_tail_text_may_hold_nul(self):
        """The rotation reason closes the payload unterminated and is
        hex in the sidecar, so NUL in it is unambiguous."""
        intent = RotationIntent.sign(KEY, **dict(_VALID[RotationIntent],
                                                 reason="a\x00b"))
        assert RotationIntent.decode(intent.encode()) == intent


class TestStrictDecode:
    def _encoded(self):
        return SealIntent.sign(KEY, **_VALID[SealIntent]).encode()

    @pytest.mark.parametrize("count", [b"-1", str(1 << 64).encode(), b"x"])
    def test_out_of_range_or_garbage_count_is_an_integrity_error(self, count):
        magic, log_id, head, _, sig = self._encoded().split(b"\x00")
        blob = b"\x00".join([magic, log_id, head, count, sig])
        with pytest.raises(IntegrityError, match="seal intent unparsable"):
            SealIntent.decode(blob)

    @pytest.mark.parametrize("mutate", [
        lambda b: b + b"\x00extra",
        lambda b: b.split(b"\x00", 1)[1],
        lambda b: b.replace(b"INTENT1", b"ROTATE1"),
        lambda b: b[:-2],
    ], ids=["extra-field", "missing-magic", "wrong-magic", "short-signature"])
    def test_malformed_blobs_are_integrity_errors(self, mutate):
        with pytest.raises(IntegrityError):
            SealIntent.decode(mutate(self._encoded()))
