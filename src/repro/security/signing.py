"""Message signing and verification.

A :class:`SignedMessage` wraps an immutable body with the signer's
certificate and a signature.  The signature is a keyed hash over a canonical
byte encoding of the body; the "asymmetric math" is simulated by a
module-private function deriving a keypair's private token from its public
token, which the CA calls at enrollment and the verifier recomputes.  The
function plays the role of the mathematics of ECDSA: no attacker entity in
the simulation calls it.  Keypairs are stateless, so a message verifies in
any process, a fresh one restoring a checkpoint included.

:func:`sign` records the verdict :func:`verify` would return, so a signed
message's body is encoded once, however many receivers check it.

Two properties matter for the paper and are enforced (and unit-tested):

* altering any signed field, or signing with an unenrolled certificate,
  makes :func:`verify` return False;
* re-transmitting an existing :class:`SignedMessage` verbatim verifies fine
  regardless of who transmits it — authentication does not prove the
  link-layer sender is the signer.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.security.certificates import Certificate, Credentials


class SigningError(RuntimeError):
    """Raised when signing is attempted without usable credentials."""


def _private_token_for(public_token: str) -> str:
    """The private half of the keypair whose public half is ``public_token``
    (called by the CA at enrollment and by :func:`verify`; not part of the
    attacker API)."""
    return hashlib.sha256(f"priv:{public_token}".encode("utf-8")).hexdigest()


def canonical_bytes(body: Any) -> bytes:
    """A canonical byte encoding of a message body.

    Bodies are frozen dataclasses composed of primitives and other frozen
    dataclasses, so a structural recursive encoding is deterministic.
    """
    return _encode(body).encode("utf-8")


#: The common leaf types, whose encoding is their ``repr`` (exact types; a
#: subclass such as an enum takes the general path, which ends at ``repr``
#: too).
_SCALARS = frozenset((float, int, str, bool))

#: Field names of each dataclass type met so far, or None for a type that is
#: not a dataclass: one :func:`dataclasses.fields` walk per type, not per
#: body.
_FIELD_NAMES: Dict[type, Optional[Tuple[str, ...]]] = {}


def _field_names(cls: type) -> Optional[Tuple[str, ...]]:
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(f.name for f in dataclasses.fields(cls))


def _encode(value: Any) -> str:
    cls = type(value)
    if cls in _SCALARS:
        return repr(value)
    try:
        names = _FIELD_NAMES[cls]
    except KeyError:
        names = _FIELD_NAMES[cls] = _field_names(cls)
    if names is not None:
        fields = ",".join(f"{name}={_encode(getattr(value, name))}" for name in names)
        return f"{cls.__name__}({fields})"
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(_encode(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ",".join(f"{_encode(k)}:{_encode(v)}" for k, v in items) + "}"
    # None, bytes, enums and anything else with a stable repr.
    return repr(value)


def _signature_over(body: Any, private_token: str) -> str:
    digest = hashlib.sha256()
    digest.update(private_token.encode("utf-8"))
    digest.update(canonical_bytes(body))
    return digest.hexdigest()


@dataclass(frozen=True, eq=False)
class SignedMessage:
    """An immutable signed body.

    The verification verdict is memoized per object: :func:`sign` records
    it, and :func:`verify` records it for a message it has not seen, so a
    message is checked at most once no matter how many receivers hear it
    (or how many times an attacker replays the same capture).  The memo is
    not an ``__init__`` field, so a copy made with
    :func:`dataclasses.replace` (a tampered body) starts without one.
    """

    body: Any
    certificate: Certificate
    signature: str
    _verified: Optional[bool] = field(
        default=None, init=False, compare=False, repr=False
    )

    def cached_verdict(self) -> Optional[bool]:
        """The memoized verification verdict, if any."""
        return self._verified

    def _remember(self, verdict: bool) -> None:
        object.__setattr__(self, "_verified", verdict)


def sign(body: Any, credentials: Credentials) -> SignedMessage:
    """Sign ``body`` with a node's credentials.

    The message carries its verdict from the start: the signature verifies
    exactly when the private token is the one the certificate's public token
    derives, so this is :func:`verify`'s answer without a second encoding
    walk.  Credentials the CA never issued memoize False.
    """
    if credentials is None:
        raise SigningError("cannot sign without credentials")
    certificate = credentials.certificate
    private_token = credentials.private_token
    message = SignedMessage(
        body=body,
        certificate=certificate,
        signature=_signature_over(body, private_token),
    )
    message._remember(
        private_token == _private_token_for(certificate.public_token)
    )
    return message


def verify(message: SignedMessage) -> bool:
    """Check a message's signature against its certificate.

    Returns False for forged bodies, forged signatures, or credentials the
    CA never issued (their private token is not the one the public token
    derives).
    """
    cached = message.cached_verdict()
    if cached is not None:
        return cached
    private_token = _private_token_for(message.certificate.public_token)
    verdict = _signature_over(message.body, private_token) == message.signature
    message._remember(verdict)
    return verdict
