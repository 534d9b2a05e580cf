"""Message signing and verification.

A :class:`SignedMessage` wraps an immutable body with the signer's
certificate and a signature.  The signature is a keyed hash over a canonical
byte encoding of the body; the "asymmetric math" is simulated by a
module-private function deriving a keypair's private token from its public
token, which the CA calls at enrollment and the verifier recomputes.  The
function plays the role of the mathematics of ECDSA: no attacker entity in
the simulation calls it.  Keypairs are stateless, so a message verifies in
any process, a fresh one restoring a checkpoint included.

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
from typing import Any, Optional

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


def _encode(value: Any) -> str:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{f.name}={_encode(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({fields})"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (str, int, bool, bytes)) or value is None:
        return repr(value)
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(_encode(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ",".join(f"{_encode(k)}:{_encode(v)}" for k, v in items) + "}"
    # Enums and anything else with a stable repr.
    return repr(value)


def _signature_over(body: Any, private_token: str) -> str:
    digest = hashlib.sha256()
    digest.update(private_token.encode("utf-8"))
    digest.update(canonical_bytes(body))
    return digest.hexdigest()


@dataclass(frozen=True, eq=False)
class SignedMessage:
    """An immutable signed body.

    Verification results are memoized per object: a message is checked once
    no matter how many receivers hear it (or how many times an attacker
    replays the same capture), which keeps large simulations fast without
    changing semantics.
    """

    body: Any
    certificate: Certificate
    signature: str
    _verified: Optional[bool] = field(default=None, compare=False, repr=False)

    def cached_verdict(self) -> Optional[bool]:
        """The memoized verification verdict, if any."""
        return self._verified

    def _remember(self, verdict: bool) -> None:
        object.__setattr__(self, "_verified", verdict)


def sign(body: Any, credentials: Credentials) -> SignedMessage:
    """Sign ``body`` with a node's credentials."""
    if credentials is None:
        raise SigningError("cannot sign without credentials")
    return SignedMessage(
        body=body,
        certificate=credentials.certificate,
        signature=_signature_over(body, credentials.private_token),
    )


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
