"""Tests for message signing — the properties the threat model rests on."""

import dataclasses
import enum
import os
import pickle
import subprocess
import sys
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.geo.areas import CircularArea, RectangularArea, RoadSegmentArea
from repro.geo.position import Position, PositionVector
from repro.geonet.packets import BeaconBody, GbcBody
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


_ENROLLED = CertificateAuthority().enroll("vehicle-9")


def _unmemoized(message):
    """A copy of ``message`` without its recorded verdict, as a process
    that never saw it signed would check it."""
    return SignedMessage(
        body=message.body,
        certificate=message.certificate,
        signature=message.signature,
    )


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
    honest = _unmemoized(sign(body, creds))
    guessed = Credentials(certificate=creds.certificate, private_token="guess")
    forged = _unmemoized(sign(body, guessed))
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
    """Signing records the verdict, so a signed message is never encoded
    again by its receivers; a forged copy memoizes False on first check."""
    message = sign(Body(1), creds)
    assert message.cached_verdict() is True
    assert verify(message)
    forged = SignedMessage(
        body=Body(2), certificate=message.certificate, signature=message.signature
    )
    assert forged.cached_verdict() is None
    verify(forged)
    assert forged.cached_verdict() is False


def test_replaced_copy_starts_without_a_verdict(creds):
    """``dataclasses.replace`` cannot carry a True verdict onto a tampered
    body: the memo is not an ``__init__`` field."""
    message = sign(Body(1), creds)
    assert message.cached_verdict() is True
    tampered = dataclasses.replace(message, body=Body(2))
    assert tampered.cached_verdict() is None
    assert not verify(tampered)
    assert tampered.cached_verdict() is False


def test_unenrolled_credentials_memoize_false_at_signing():
    bogus = Credentials(
        certificate=Certificate(
            subject_id="attacker",
            public_token="deadbeef",
            ca_name="USDOT-CA",
            ca_signature="feedface",
        ),
        private_token="secret",
    )
    assert sign(Body(1), bogus).cached_verdict() is False


@settings(max_examples=60, deadline=None)
@given(
    enrolled=st.booleans(),
    guess=st.text(min_size=1, max_size=8),
    value=st.integers(),
)
def test_verdict_at_signing_equals_a_fresh_verify(enrolled, guess, value):
    """The verdict :func:`sign` records is the one :func:`verify` computes
    from scratch on an unmemoized copy of the same message."""
    signer = _ENROLLED if enrolled else Credentials(
        certificate=_ENROLLED.certificate, private_token=guess
    )
    message = sign(Body(value), signer)
    assert message.cached_verdict() is verify(_unmemoized(message))


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


# ----------------------------------------------------------------------
# canonical_bytes against the plain recursive encoding
# ----------------------------------------------------------------------
def _reference_encode(value) -> str:
    """The encoding as first written: ``dataclasses.fields`` on every
    value, no per-type cache and no scalar fast path."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{f.name}={_reference_encode(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({fields})"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (str, int, bool, bytes)) or value is None:
        return repr(value)
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(_reference_encode(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items())
        return (
            "{"
            + ",".join(f"{_reference_encode(k)}:{_reference_encode(v)}" for k, v in items)
            + "}"
        )
    return repr(value)


@dataclass(frozen=True)
class _Box:
    inner: object
    weight: float = 1.0


class _Kind(enum.Enum):
    A = "a"
    B = 2


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


_floats = st.floats(allow_nan=True, allow_infinity=True)
_finite = st.floats(-1e7, 1e7, allow_nan=False)
_positions = st.builds(Position, _finite, _finite)
_pvs = st.builds(
    PositionVector,
    position=_positions,
    speed=st.floats(0.0, 80.0),
    heading=_finite,
    timestamp=_finite,
)
_beacons = st.builds(BeaconBody, source_addr=st.integers(0, 2**48), pv=_pvs)
_areas = st.one_of(
    st.builds(CircularArea, center_point=_positions, radius=st.floats(0.0, 5e3)),
    st.tuples(_finite, st.floats(0.0, 5e3), _finite, st.floats(0.0, 5e3)).map(
        lambda r: RectangularArea(r[0], r[0] + r[1], r[2], r[2] + r[3])
    ),
    st.builds(
        RoadSegmentArea,
        length=st.floats(1.0, 1e4),
        total_width=st.floats(1.0, 50.0),
        y_offset=_finite,
    ),
)
_gbc_bodies = st.builds(
    GbcBody,
    source_addr=st.integers(0, 2**48),
    sequence_number=st.integers(0, 2**16),
    source_pv=_pvs,
    area=_areas,
    payload=st.text(max_size=12),
    lifetime=st.floats(0.001, 600.0),
    created_at=_finite,
)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _floats,
    st.text(max_size=6),
    st.binary(max_size=6),
    st.sampled_from(list(_Kind) + list(_Level)),
    _beacons,
)
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.builds(Body, value=st.integers(), text=st.text(max_size=4)),
        st.builds(_Box, inner=inner, weight=_floats),
    ),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(body=st.one_of(_beacons, _gbc_bodies, _values))
def test_canonical_bytes_matches_the_reference_encoding(body):
    assert canonical_bytes(body) == _reference_encode(body).encode("utf-8")
