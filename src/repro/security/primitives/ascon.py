"""ASCON-128 AEAD and ASCON-Hash implemented from scratch.

Table II selects ASCON-128 encryption and ASCON-Hash for the *low*
(lightweight, non-PQC) security level targeting constrained edge
components such as the RISC-V+CGRA devices. The 320-bit permutation
follows the ASCON v1.2 specification (NIST Lightweight Cryptography
winner): round constants, the 5-bit S-box in bitsliced form, and the
per-word linear diffusion rotations.
"""

from __future__ import annotations

from repro.core.errors import SecurityError
from repro.security.primitives.sha2 import constant_time_eq

_MASK64 = (1 << 64) - 1
_ROUND_CONSTANTS = [0xF0, 0xE1, 0xD2, 0xC3, 0xB4, 0xA5, 0x96, 0x87,
                    0x78, 0x69, 0x5A, 0x4B]


def _rotr64(x: int, n: int) -> int:
    return ((x >> n) | (x << (64 - n))) & _MASK64


def permutation(state: list[int], rounds: int) -> list[int]:
    """The ASCON permutation p^rounds over five 64-bit words."""
    x0, x1, x2, x3, x4 = state
    for rc in _ROUND_CONSTANTS[12 - rounds:]:
        # Round-constant addition.
        x2 ^= rc
        # Substitution layer (bitsliced 5-bit S-box).
        x0 ^= x4
        x4 ^= x3
        x2 ^= x1
        t0 = (~x0) & x1
        t1 = (~x1) & x2
        t2 = (~x2) & x3
        t3 = (~x3) & x4
        t4 = (~x4) & x0
        x0 ^= t1
        x1 ^= t2
        x2 ^= t3
        x3 ^= t4
        x4 ^= t0
        x1 ^= x0
        x0 ^= x4
        x3 ^= x2
        x2 = (~x2) & _MASK64
        # Linear diffusion layer.
        x0 ^= _rotr64(x0, 19) ^ _rotr64(x0, 28)
        x1 ^= _rotr64(x1, 61) ^ _rotr64(x1, 39)
        x2 ^= _rotr64(x2, 1) ^ _rotr64(x2, 6)
        x3 ^= _rotr64(x3, 10) ^ _rotr64(x3, 17)
        x4 ^= _rotr64(x4, 7) ^ _rotr64(x4, 41)
        x0 &= _MASK64
        x1 &= _MASK64
        x3 &= _MASK64
        x4 &= _MASK64
    return [x0, x1, x2, x3, x4]


_IV_AEAD = 0x80400C0600000000  # Ascon-128: k=128, r=64, a=12, b=6
_IV_HASH = 0x00400C0000000100  # Ascon-Hash: r=64, a=12, 256-bit digest


def _bytes_to_word(data: bytes) -> int:
    return int.from_bytes(data.ljust(8, b"\x00"), "big")


def _pad(data: bytes, rate: int = 8) -> bytes:
    """10* padding to a multiple of the rate."""
    pad_len = rate - (len(data) % rate)
    return data + b"\x80" + b"\x00" * (pad_len - 1)


def ascon128_encrypt(key: bytes, nonce: bytes, plaintext: bytes,
                     associated_data: bytes = b"") -> bytes:
    """ASCON-128 authenticated encryption; returns ciphertext || 16B tag."""
    if len(key) != 16:
        raise SecurityError("ASCON-128 key must be 16 bytes")
    if len(nonce) != 16:
        raise SecurityError("ASCON-128 nonce must be 16 bytes")
    k0, k1 = _bytes_to_word(key[:8]), _bytes_to_word(key[8:])
    n0, n1 = _bytes_to_word(nonce[:8]), _bytes_to_word(nonce[8:])
    state = permutation([_IV_AEAD, k0, k1, n0, n1], 12)
    state[3] ^= k0
    state[4] ^= k1
    # Associated data.
    if associated_data:
        for i in range(0, len(_pad(associated_data)), 8):
            state[0] ^= _bytes_to_word(_pad(associated_data)[i:i + 8])
            state = permutation(state, 6)
    state[4] ^= 1  # domain separation
    # Plaintext absorption / ciphertext squeeze.
    padded = _pad(plaintext)
    ciphertext = bytearray()
    for i in range(0, len(padded), 8):
        state[0] ^= _bytes_to_word(padded[i:i + 8])
        block_len = min(8, len(plaintext) - i)
        if block_len > 0:
            ciphertext.extend(state[0].to_bytes(8, "big")[:block_len])
        if i + 8 < len(padded):
            state = permutation(state, 6)
    # Finalization.
    state[1] ^= k0
    state[2] ^= k1
    state = permutation(state, 12)
    tag = ((state[3] ^ k0).to_bytes(8, "big")
           + (state[4] ^ k1).to_bytes(8, "big"))
    return bytes(ciphertext) + tag


def ascon128_decrypt(key: bytes, nonce: bytes, sealed: bytes,
                     associated_data: bytes = b"") -> bytes:
    """ASCON-128 verified decryption; raises on tag mismatch."""
    if len(sealed) < 16:
        raise SecurityError("ciphertext too short to carry a tag")
    ciphertext, tag = sealed[:-16], sealed[-16:]
    k0, k1 = _bytes_to_word(key[:8]), _bytes_to_word(key[8:])
    n0, n1 = _bytes_to_word(nonce[:8]), _bytes_to_word(nonce[8:])
    state = permutation([_IV_AEAD, k0, k1, n0, n1], 12)
    state[3] ^= k0
    state[4] ^= k1
    if associated_data:
        for i in range(0, len(_pad(associated_data)), 8):
            state[0] ^= _bytes_to_word(_pad(associated_data)[i:i + 8])
            state = permutation(state, 6)
    state[4] ^= 1
    plaintext = bytearray()
    n_blocks = len(ciphertext) // 8
    for i in range(n_blocks):
        c_word = _bytes_to_word(ciphertext[8 * i:8 * i + 8])
        plaintext.extend((state[0] ^ c_word).to_bytes(8, "big"))
        state[0] = c_word
        state = permutation(state, 6)
    # Final partial block.
    remainder = ciphertext[8 * n_blocks:]
    r = len(remainder)
    s_bytes = state[0].to_bytes(8, "big")
    plaintext.extend(bytes(c ^ s for c, s in zip(remainder, s_bytes)))
    partial = bytes(plaintext[8 * n_blocks:]) + b"\x80"
    state[0] ^= _bytes_to_word(partial)
    state[1] ^= k0
    state[2] ^= k1
    state = permutation(state, 12)
    expected = ((state[3] ^ k0).to_bytes(8, "big")
                + (state[4] ^ k1).to_bytes(8, "big"))
    if not constant_time_eq(tag, expected):
        raise SecurityError("ASCON tag verification failed")
    return bytes(plaintext)


def ascon_hash(data: bytes, out_bytes: int = 32) -> bytes:
    """ASCON-Hash: sponge over the 12-round permutation, rate 8 bytes."""
    state = permutation([_IV_HASH, 0, 0, 0, 0], 12)
    padded = _pad(data)
    for i in range(0, len(padded), 8):
        state[0] ^= _bytes_to_word(padded[i:i + 8])
        state = permutation(state, 12)
    digest = bytearray()
    while len(digest) < out_bytes:
        digest.extend(state[0].to_bytes(8, "big"))
        if len(digest) < out_bytes:
            state = permutation(state, 12)
    return bytes(digest[:out_bytes])


def lightweight_sponge_hash(data: bytes, out_bytes: int = 20,
                            rounds: int = 8) -> bytes:
    """A QUARK/spongent/PHOTON-style lightweight sponge hash.

    Table II also lists QUARK, spongent and PHOTON as lightweight hashing
    examples; this models their design point — a small-state sponge with a
    reduced-round permutation and short digest — reusing the ASCON
    permutation as the underlying P.
    """
    state = permutation([0x4C49474854, 0, 0, 0, 0], 12)
    padded = _pad(data, 4)
    for i in range(0, len(padded), 4):
        state[0] ^= _bytes_to_word(padded[i:i + 4])
        state = permutation(state, rounds)
    digest = bytearray()
    while len(digest) < out_bytes:
        digest.extend(state[0].to_bytes(8, "big")[:4])
        state = permutation(state, rounds)
    return bytes(digest[:out_bytes])
