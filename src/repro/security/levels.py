"""The three MYRTUS security levels (paper Table II).

Each :class:`SecurityLevel` binds the concrete primitives Table II
prescribes:

=============  =======================  =====================  ==================  =====================
Level          Encryption               Authentication         Key exchange        Hashing
=============  =======================  =====================  ==================  =====================
HIGH (PQC)     AES-256                  Dilithium-style        Kyber-style KEM     SHA-512
MEDIUM         AES-128                  RSA                    RSA-KEM             SHA-256
LOW            ASCON-128                ECDSA (P-256)          ECDH (P-256)        ASCON-Hash
=============  =======================  =====================  ==================  =====================

(The paper's table lists "ECDSA" in the low-level key-exchange cell; the
corresponding elliptic-curve key-agreement mechanism is ECDH over the
same curve, which is what we implement.)

A :class:`SecuritySuite` gives a uniform encrypt/sign/encapsulate/hash
interface per level, and :class:`Identity` holds one keypair per scheme
so components can handshake at any level their hardware supports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

import numpy as np

from repro.core.errors import SecurityError
from repro.core.levels import SECURITY_RANK
from repro.core.rng import derive_seed
from repro.security.primitives import aes, ascon, ecdsa, lattice, rsa
from repro.security.primitives.sha2 import sha256, sha512


class SecurityLevel(str, Enum):
    """Tiered security levels; comparable via :meth:`rank`."""

    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"

    @property
    def rank(self) -> int:
        return SECURITY_RANK[self.value]

    def satisfies(self, required: "SecurityLevel") -> bool:
        """True when this level is at least as strong as *required*."""
        return self.rank >= required.rank

    @classmethod
    def parse(cls, name: str) -> "SecurityLevel":
        try:
            return cls(name.lower())
        except ValueError:
            raise SecurityError(f"unknown security level {name!r}") from None


@dataclass(frozen=True)
class SuiteDescriptor:
    """Names of the primitives a level uses (the Table II row labels)."""

    level: SecurityLevel
    encryption: str
    authentication: str
    key_exchange: str
    hashing: str
    pqc_resistant: bool


SUITE_DESCRIPTORS: dict[SecurityLevel, SuiteDescriptor] = {
    SecurityLevel.HIGH: SuiteDescriptor(
        level=SecurityLevel.HIGH,
        encryption="AES-256",
        authentication="CRYSTALS-Dilithium (module-LWE analogue)",
        key_exchange="CRYSTALS-Kyber (module-LWE analogue)",
        hashing="SHA-512",
        pqc_resistant=True,
    ),
    SecurityLevel.MEDIUM: SuiteDescriptor(
        level=SecurityLevel.MEDIUM,
        encryption="AES-128",
        authentication="RSA",
        key_exchange="RSA-KEM",
        hashing="SHA-256",
        pqc_resistant=False,
    ),
    SecurityLevel.LOW: SuiteDescriptor(
        level=SecurityLevel.LOW,
        encryption="ASCON-128",
        authentication="ECDSA (P-256)",
        key_exchange="ECDH (P-256)",
        hashing="ASCON-Hash",
        pqc_resistant=False,
    ),
}


class Identity:
    """A component's long-term key material across all levels.

    Keys for each level are generated lazily on first use so cheap
    simulations that never touch HIGH do not pay lattice keygen.
    """

    def __init__(self, name: str, seed: int = 0):
        self.name = name
        self._seed = seed
        self._rsa_key: rsa.RsaPrivateKey | None = None
        self._ecdsa_key: ecdsa.EcdsaKeyPair | None = None
        self._kem_key: lattice.KemPrivateKey | None = None
        self._sig_key: lattice.SigPrivateKey | None = None

    def _py_rng(self, tag: str) -> random.Random:
        return random.Random(derive_seed(self._seed,
                                         f"{self.name}:{tag}"))

    def _np_rng(self, tag: str) -> np.random.Generator:
        return np.random.default_rng(
            derive_seed(self._seed, f"{self.name}:{tag}"))

    @property
    def rsa_key(self) -> rsa.RsaPrivateKey:
        if self._rsa_key is None:
            self._rsa_key = rsa.generate_keypair(1024, self._py_rng("rsa"))
        return self._rsa_key

    @property
    def ecdsa_key(self) -> ecdsa.EcdsaKeyPair:
        if self._ecdsa_key is None:
            self._ecdsa_key = ecdsa.generate_keypair(self._py_rng("ecdsa"))
        return self._ecdsa_key

    @property
    def kem_key(self) -> lattice.KemPrivateKey:
        if self._kem_key is None:
            self._kem_key = lattice.kem_generate_keypair(self._np_rng("kem"))
        return self._kem_key

    @property
    def sig_key(self) -> lattice.SigPrivateKey:
        if self._sig_key is None:
            self._sig_key = lattice.sig_generate_keypair(self._np_rng("sig"))
        return self._sig_key


@dataclass
class OperationCounters:
    """Counts of cryptographic operations a suite has performed."""

    encryptions: int = 0
    decryptions: int = 0
    signatures: int = 0
    verifications: int = 0
    encapsulations: int = 0
    decapsulations: int = 0
    hashes: int = 0
    bytes_protected: int = 0


class SecuritySuite:
    """Uniform cryptographic interface at a fixed security level."""

    def __init__(self, level: SecurityLevel, identity: Identity):
        self.level = level
        self.identity = identity
        self.descriptor = SUITE_DESCRIPTORS[level]
        self.counters = OperationCounters()

    # -- symmetric encryption --------------------------------------------------

    def _key_size(self) -> int:
        return {SecurityLevel.HIGH: 32, SecurityLevel.MEDIUM: 16,
                SecurityLevel.LOW: 16}[self.level]

    def encrypt(self, key: bytes, nonce: bytes, plaintext: bytes,
                associated_data: bytes = b"") -> bytes:
        """AEAD-seal *plaintext* under *key*; returns ct || tag."""
        self.counters.encryptions += 1
        self.counters.bytes_protected += len(plaintext)
        if self.level is SecurityLevel.LOW:
            return ascon.ascon128_encrypt(key, nonce.ljust(16, b"\x00")[:16],
                                          plaintext, associated_data)
        return aes.aes_encrypt(key, nonce[:12].ljust(12, b"\x00"),
                               plaintext, associated_data)

    def decrypt(self, key: bytes, nonce: bytes, sealed: bytes,
                associated_data: bytes = b"") -> bytes:
        """Verify and open an AEAD ciphertext."""
        self.counters.decryptions += 1
        if self.level is SecurityLevel.LOW:
            return ascon.ascon128_decrypt(key, nonce.ljust(16, b"\x00")[:16],
                                          sealed, associated_data)
        return aes.aes_decrypt(key, nonce[:12].ljust(12, b"\x00"),
                               sealed, associated_data)

    def session_key_size(self) -> int:
        """Bytes of symmetric key this level's cipher needs."""
        return self._key_size()

    # -- signatures ------------------------------------------------------------

    def sign(self, message: bytes) -> Any:
        """Sign with this identity's level-appropriate signature key."""
        self.counters.signatures += 1
        if self.level is SecurityLevel.HIGH:
            return lattice.sig_sign(self.identity.sig_key, message,
                                    self.identity._np_rng("signing"))
        if self.level is SecurityLevel.MEDIUM:
            return rsa.sign(self.identity.rsa_key, message)
        return ecdsa.sign(self.identity.ecdsa_key, message)

    def verify(self, signer_identity: Identity, message: bytes,
               signature: Any) -> bool:
        """Verify a signature made by *signer_identity* at this level."""
        self.counters.verifications += 1
        if self.level is SecurityLevel.HIGH:
            return lattice.sig_verify(signer_identity.sig_key.public,
                                      message, signature)
        if self.level is SecurityLevel.MEDIUM:
            return rsa.verify(signer_identity.rsa_key.public, message,
                              signature)
        return ecdsa.verify(signer_identity.ecdsa_key.q, message, signature)

    # -- key establishment ----------------------------------------------------------

    def encapsulate(self, peer: Identity) -> tuple[bytes, bytes]:
        """Establish a shared secret towards *peer*: (secret, ciphertext).

        At LOW the "ciphertext" is our ephemeral-free ECDH public key
        (static-static ECDH); at MEDIUM/HIGH it is a real KEM ciphertext.
        """
        self.counters.encapsulations += 1
        if self.level is SecurityLevel.HIGH:
            return lattice.kem_encapsulate(
                peer.kem_key.public, self.identity._np_rng("encap"))
        if self.level is SecurityLevel.MEDIUM:
            return rsa.kem_encapsulate(peer.rsa_key.public,
                                       self.identity._py_rng("encap"))
        secret = ecdsa.ecdh_shared_secret(self.identity.ecdsa_key.d,
                                          peer.ecdsa_key.q)
        return secret, self.identity.ecdsa_key.public_bytes

    def decapsulate(self, peer: Identity, ciphertext: bytes) -> bytes:
        """Recover the shared secret on the responder side."""
        self.counters.decapsulations += 1
        if self.level is SecurityLevel.HIGH:
            return lattice.kem_decapsulate(self.identity.kem_key, ciphertext)
        if self.level is SecurityLevel.MEDIUM:
            return rsa.kem_decapsulate(self.identity.rsa_key, ciphertext)
        peer_point = ecdsa.public_key_from_bytes(ciphertext)
        return ecdsa.ecdh_shared_secret(self.identity.ecdsa_key.d, peer_point)

    # -- hashing ------------------------------------------------------------------

    def hash(self, data: bytes) -> bytes:
        """The level's hash function."""
        self.counters.hashes += 1
        if self.level is SecurityLevel.HIGH:
            return sha512(data)
        if self.level is SecurityLevel.MEDIUM:
            return sha256(data)
        return ascon.ascon_hash(data)


def negotiate_level(required: SecurityLevel,
                    capabilities: list[str]) -> SecurityLevel:
    """Pick the weakest mutually supported level satisfying *required*.

    *capabilities* is the list of level names a device supports (its
    ``max_security_level`` implies all weaker levels).
    """
    supported = set()
    for cap in capabilities:
        level = SecurityLevel.parse(cap)
        for candidate in SecurityLevel:
            if candidate.rank <= level.rank:
                supported.add(candidate)
    eligible = [lvl for lvl in supported if lvl.satisfies(required)]
    if not eligible:
        raise SecurityError(
            f"no supported level satisfies required={required.value} "
            f"given capabilities={capabilities}"
        )
    return min(eligible, key=lambda lvl: lvl.rank)
