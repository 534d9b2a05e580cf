"""Simulated ETSI TS 102 731 / IEEE 1609.2 security services.

Models exactly the security boundary the paper's threat model depends on:

* a certificate authority enrolls legitimate nodes;
* every beacon / GeoBroadcast *payload* is signed and verified — a message
  with a forged or altered signed body is rejected;
* a **replayed** message still carries a valid signature and passes
  verification (the inter-area attack's lever);
* per-hop mutable header fields (RHL, per-hop sender position) are *outside*
  the signature (the intra-area attack's lever);
* pseudonymous link-layer addresses are allowed for privacy, which is what
  lets the attacker transmit without revealing an identity.

The cryptography is simulated (keyed hashes, with a private key derived
from its public key by a function that stands in for the asymmetric math
and that no simulated entity calls); no attack in this reproduction ever
breaks it, mirroring the paper's outsider attacker.
"""

from repro.security.ca import CertificateAuthority
from repro.security.certificates import Certificate, Credentials
from repro.security.signing import (
    SignedMessage,
    SigningError,
    canonical_bytes,
    sign,
    verify,
)
from repro.security.pseudonym import PseudonymPool

__all__ = [
    "Certificate",
    "CertificateAuthority",
    "Credentials",
    "PseudonymPool",
    "SignedMessage",
    "SigningError",
    "canonical_bytes",
    "sign",
    "verify",
]
