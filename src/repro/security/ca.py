"""The certificate authority.

Legitimate vehicles and roadside units enroll once and receive
:class:`~repro.security.certificates.Credentials`.  The paper's attacker is
an *outsider*: it never enrolls, so it cannot produce signatures that verify
(tested), and must resort to replaying legitimately-signed frames.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Dict

from repro.security.certificates import Certificate, Credentials
from repro.security.signing import _private_token_for


class CertificateAuthority:
    """Issues certificates and the keypairs they certify."""

    def __init__(self, name: str = "USDOT-CA", secret: str = "ca-root-secret"):
        self.name = name
        self._secret = secret
        self._serial = itertools.count(1)
        self._issued: Dict[str, Certificate] = {}

    def _ca_signature(self, subject_id: str, public_token: str) -> str:
        digest = hashlib.sha256()
        digest.update(self._secret.encode("utf-8"))
        digest.update(subject_id.encode("utf-8"))
        digest.update(public_token.encode("utf-8"))
        return digest.hexdigest()

    def enroll(self, subject_id: str) -> Credentials:
        """Issue credentials for ``subject_id``.

        Idempotent per subject: re-enrolling returns fresh credentials with a
        new keypair (models certificate renewal).
        """
        serial = next(self._serial)
        seed = f"{self.name}:{subject_id}:{serial}"
        public_token = hashlib.sha256(f"pub:{seed}".encode("utf-8")).hexdigest()
        certificate = Certificate(
            subject_id=subject_id,
            public_token=public_token,
            ca_name=self.name,
            ca_signature=self._ca_signature(subject_id, public_token),
        )
        self._issued[subject_id] = certificate
        return Credentials(
            certificate=certificate,
            private_token=_private_token_for(public_token),
        )

    def verify_certificate(self, certificate: Certificate) -> bool:
        """Check that a certificate was issued by this CA."""
        if certificate.ca_name != self.name:
            return False
        expected = self._ca_signature(
            certificate.subject_id, certificate.public_token
        )
        return certificate.ca_signature == expected

    @property
    def issued_count(self) -> int:
        """Number of subjects currently holding certificates."""
        return len(self._issued)
