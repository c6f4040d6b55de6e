"""Certificate and CA unit tests."""

import pytest

from repro.crypto.drbg import HmacDrbg
from repro.crypto.ec import CURVE_P256, ECPoint
from repro.crypto.ecdsa import EcdsaPrivateKey, EcdsaPublicKey, EcdsaSignature
from repro.errors import TLSError
from repro.tls.cert import Certificate, CertificateAuthority, make_server_identity

from tests.crypto.ec_reference import infinity_key_forgery
from tests.tls.conftest import connect_pair


@pytest.fixture
def ca():
    return CertificateAuthority("unit-root", seed=b"cert-ca")


def test_issue_and_verify(ca):
    key, cert = make_server_identity(ca, "a.example", seed=b"a")
    ca.verify(cert)
    assert cert.subject == "a.example"
    assert cert.issuer == "unit-root"
    assert cert.public_key == key.public_key()


def test_serials_are_unique(ca):
    certs = [make_server_identity(ca, f"s{i}", seed=bytes([i]))[1]
             for i in range(5)]
    assert len({c.serial for c in certs}) == 5


def test_encode_decode_roundtrip(ca):
    _, cert = make_server_identity(ca, "round.trip", seed=b"rt")
    decoded = Certificate.decode(cert.encode())
    assert decoded == cert
    ca.verify(decoded)


def test_foreign_issuer_rejected(ca):
    other = CertificateAuthority("other-root", seed=b"other")
    _, cert = make_server_identity(other, "x", seed=b"x")
    with pytest.raises(TLSError, match="issued by"):
        ca.verify(cert)


def test_tampered_subject_rejected(ca):
    _, cert = make_server_identity(ca, "victim.example", seed=b"v")
    forged = Certificate(
        subject="attacker.example",
        issuer=cert.issuer,
        public_key=cert.public_key,
        serial=cert.serial,
        signature=cert.signature,
    )
    with pytest.raises(TLSError, match="signature"):
        ca.verify(forged)


def test_swapped_public_key_rejected(ca):
    _, cert = make_server_identity(ca, "victim.example", seed=b"v")
    mallory = EcdsaPrivateKey.generate(HmacDrbg(seed=b"mallory"))
    forged = Certificate(
        subject=cert.subject,
        issuer=cert.issuer,
        public_key=mallory.public_key(),
        serial=cert.serial,
        signature=cert.signature,
    )
    with pytest.raises(TLSError):
        ca.verify(forged)


def test_forged_signature_rejected(ca):
    _, cert = make_server_identity(ca, "victim.example", seed=b"v")
    forged = Certificate(
        subject=cert.subject,
        issuer=cert.issuer,
        public_key=cert.public_key,
        serial=cert.serial,
        signature=EcdsaSignature(12345, 67890),
    )
    with pytest.raises(TLSError):
        ca.verify(forged)


def test_fingerprint_distinguishes_certs(ca):
    _, a = make_server_identity(ca, "a", seed=b"fa")
    _, b = make_server_identity(ca, "b", seed=b"fb")
    assert a.fingerprint() != b.fingerprint()
    assert a.fingerprint() == Certificate.decode(a.encode()).fingerprint()


def test_decode_rejects_trailing_bytes(ca):
    _, cert = make_server_identity(ca, "t", seed=b"t")
    with pytest.raises(TLSError):
        Certificate.decode(cert.encode() + b"extra")


class _InfinityKeyForger:
    """Stands in for a server key: signs whatever it is asked to."""

    def sign(self, message: bytes) -> EcdsaSignature:
        return infinity_key_forgery(message)


def _infinity_key_cert(ca):
    # A CA signs whatever key a subject submits, including the encoding 00.
    return ca.issue("service.example", EcdsaPublicKey(ECPoint.infinity(CURVE_P256)))


def test_certificate_with_infinity_key_rejected(ca):
    with pytest.raises(ValueError, match="infinity"):
        Certificate.decode(_infinity_key_cert(ca).encode())


def test_handshake_with_infinity_key_certificate_rejected(ca):
    # Were the 00 key accepted, the forged ServerKeyExchange would verify.
    with pytest.raises(TLSError, match="infinity"):
        connect_pair(ca, (_InfinityKeyForger(), _infinity_key_cert(ca)))
