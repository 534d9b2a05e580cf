"""Tests for message signing — the properties the threat model rests on."""

import os
import pickle
import subprocess
import sys
from dataclasses import dataclass

import pytest

import repro
from repro.geo.position import Position, PositionVector
from repro.geonet.packets import BeaconBody
from repro.security.ca import CertificateAuthority
from repro.security.certificates import Certificate, Credentials
from repro.security.signing import (
    SignedMessage,
    SigningError,
    canonical_bytes,
    sign,
    verify,
)


@dataclass(frozen=True)
class Body:
    value: int
    text: str = "x"


@pytest.fixture
def creds():
    return CertificateAuthority().enroll("vehicle-1")


def test_signed_message_verifies(creds):
    assert verify(sign(Body(1), creds))


def test_replayed_message_still_verifies(creds):
    """Re-transmission by anyone keeps the signature valid — the inter-area
    attack's enabling property."""
    message = sign(Body(1), creds)
    # simulate capture + replay: the very same object is re-delivered
    for _ in range(3):
        assert verify(message)


def test_forged_body_fails(creds):
    message = sign(Body(1), creds)
    forged = SignedMessage(
        body=Body(2), certificate=message.certificate, signature=message.signature
    )
    assert not verify(forged)


def test_forged_signature_fails(creds):
    message = sign(Body(1), creds)
    forged = SignedMessage(
        body=message.body, certificate=message.certificate, signature="0" * 64
    )
    assert not verify(forged)


def test_unenrolled_certificate_fails():
    bogus_cert = Certificate(
        subject_id="attacker",
        public_token="deadbeef",
        ca_name="USDOT-CA",
        ca_signature="feedface",
    )
    bogus_creds = Credentials(certificate=bogus_cert, private_token="secret")
    message = sign(Body(1), bogus_creds)
    assert not verify(message)


def test_signatures_verify_in_a_fresh_process(creds):
    """Keypairs are stateless: a process that never met the CA (one
    restoring a checkpoint) verifies a message signed elsewhere, and still
    rejects one signed with a guessed private token."""
    body = BeaconBody(
        source_addr=1, pv=PositionVector(Position(1.0, 2.0), 3.0, 0.0, 4.0)
    )
    honest = sign(body, creds)
    guessed = Credentials(certificate=creds.certificate, private_token="guess")
    forged = sign(body, guessed)
    script = (
        "import pickle, sys\n"
        "from repro.security.signing import verify\n"
        "print([verify(m) for m in pickle.load(sys.stdin.buffer)])\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", script],
        input=pickle.dumps([honest, forged]),
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.decode().strip() == "[True, False]"


def test_signature_bound_to_signer(creds):
    """A message signed by A does not verify under B's certificate."""
    other = CertificateAuthority().enroll("vehicle-2")
    message = sign(Body(1), creds)
    swapped = SignedMessage(
        body=message.body,
        certificate=other.certificate,
        signature=message.signature,
    )
    assert not verify(swapped)


def test_sign_without_credentials_raises():
    with pytest.raises(SigningError):
        sign(Body(1), None)


def test_verification_is_memoized(creds):
    message = sign(Body(1), creds)
    assert message.cached_verdict() is None
    verify(message)
    assert message.cached_verdict() is True


def test_negative_verdict_also_memoized(creds):
    message = sign(Body(1), creds)
    forged = SignedMessage(
        body=Body(2), certificate=message.certificate, signature=message.signature
    )
    verify(forged)
    assert forged.cached_verdict() is False


def test_canonical_bytes_deterministic():
    assert canonical_bytes(Body(1, "a")) == canonical_bytes(Body(1, "a"))


def test_canonical_bytes_field_sensitive():
    assert canonical_bytes(Body(1, "a")) != canonical_bytes(Body(2, "a"))
    assert canonical_bytes(Body(1, "a")) != canonical_bytes(Body(1, "b"))


def test_canonical_bytes_handles_nested_structures():
    @dataclass(frozen=True)
    class Nested:
        inner: Body
        values: tuple

    a = canonical_bytes(Nested(Body(1), (1, 2.5, "x")))
    b = canonical_bytes(Nested(Body(1), (1, 2.5, "x")))
    c = canonical_bytes(Nested(Body(1), (1, 2.5, "y")))
    assert a == b != c


def test_canonical_bytes_distinguishes_float_precision():
    assert canonical_bytes(Body(1, "0.1")) != canonical_bytes(Body(1, "0.10"))
