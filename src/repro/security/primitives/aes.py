"""AES-128 / AES-256 implemented from scratch (FIPS 197), with CTR mode.

Table II selects AES-256 for the high security level and AES-128 for the
medium level. The block cipher is verified against the FIPS-197 appendix
vectors in the test suite; CTR mode plus an HMAC tag (encrypt-then-MAC)
provides the authenticated-encryption interface used by secure channels.
"""

from __future__ import annotations

from repro.core.errors import SecurityError
from repro.security.primitives.sha2 import constant_time_eq, hmac

_SBOX: list[int] = []
_INV_SBOX: list[int] = []


def _build_sboxes() -> None:
    """Compute the AES S-box from GF(2^8) inversion + affine transform."""
    if _SBOX:
        return
    # Multiplicative inverses via exp/log tables over generator 3.
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x ^= (x << 1) ^ (0x1B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]
    inv = [0] + [exp[255 - log[i]] for i in range(1, 256)]
    sbox = [0] * 256
    for i in range(256):
        b = inv[i]
        s = b
        for _ in range(4):
            b = ((b << 1) | (b >> 7)) & 0xFF
            s ^= b
        sbox[i] = s ^ 0x63
    _SBOX.extend(sbox)
    _INV_SBOX.extend([0] * 256)
    for i, v in enumerate(sbox):
        _INV_SBOX[v] = i


_build_sboxes()

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36,
         0x6C, 0xD8, 0xAB, 0x4D]


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gmul(a: int, b: int) -> int:
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


class AES:
    """The AES block cipher for 128- or 256-bit keys."""

    def __init__(self, key: bytes):
        if len(key) not in (16, 32):
            raise SecurityError("AES key must be 16 or 32 bytes")
        self.key = key
        self.nk = len(key) // 4
        self.nr = {4: 10, 8: 14}[self.nk]
        self._round_keys = self._expand_key(key)

    def _expand_key(self, key: bytes) -> list[list[int]]:
        nk, nr = self.nk, self.nr
        words = [list(key[4 * i:4 * i + 4]) for i in range(nk)]
        for i in range(nk, 4 * (nr + 1)):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]
                temp = [_SBOX[b] for b in temp]
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [_SBOX[b] for b in temp]
            words.append([w ^ t for w, t in zip(words[i - nk], temp)])
        return words

    def _add_round_key(self, state: list[int], rnd: int) -> None:
        for c in range(4):
            word = self._round_keys[4 * rnd + c]
            for r in range(4):
                state[4 * c + r] ^= word[r]

    @staticmethod
    def _sub_bytes(state: list[int], box: list[int]) -> None:
        for i in range(16):
            state[i] = box[state[i]]

    @staticmethod
    def _shift_rows(state: list[int], inverse: bool = False) -> None:
        for r in range(1, 4):
            row = [state[4 * c + r] for c in range(4)]
            shift = -r if inverse else r
            row = row[shift % 4:] + row[:shift % 4]
            for c in range(4):
                state[4 * c + r] = row[c]

    @staticmethod
    def _mix_columns(state: list[int], inverse: bool = False) -> None:
        coeffs = (14, 11, 13, 9) if inverse else (2, 3, 1, 1)
        for c in range(4):
            col = state[4 * c:4 * c + 4]
            state[4 * c + 0] = (_gmul(col[0], coeffs[0])
                                ^ _gmul(col[1], coeffs[1])
                                ^ _gmul(col[2], coeffs[2])
                                ^ _gmul(col[3], coeffs[3]))
            state[4 * c + 1] = (_gmul(col[0], coeffs[3])
                                ^ _gmul(col[1], coeffs[0])
                                ^ _gmul(col[2], coeffs[1])
                                ^ _gmul(col[3], coeffs[2]))
            state[4 * c + 2] = (_gmul(col[0], coeffs[2])
                                ^ _gmul(col[1], coeffs[3])
                                ^ _gmul(col[2], coeffs[0])
                                ^ _gmul(col[3], coeffs[1]))
            state[4 * c + 3] = (_gmul(col[0], coeffs[1])
                                ^ _gmul(col[1], coeffs[2])
                                ^ _gmul(col[2], coeffs[3])
                                ^ _gmul(col[3], coeffs[0]))

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != 16:
            raise SecurityError("AES block must be 16 bytes")
        state = list(block)
        self._add_round_key(state, 0)
        for rnd in range(1, self.nr):
            self._sub_bytes(state, _SBOX)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, rnd)
        self._sub_bytes(state, _SBOX)
        self._shift_rows(state)
        self._add_round_key(state, self.nr)
        return bytes(state)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        if len(block) != 16:
            raise SecurityError("AES block must be 16 bytes")
        state = list(block)
        self._add_round_key(state, self.nr)
        for rnd in range(self.nr - 1, 0, -1):
            self._shift_rows(state, inverse=True)
            self._sub_bytes(state, _INV_SBOX)
            self._add_round_key(state, rnd)
            self._mix_columns(state, inverse=True)
        self._shift_rows(state, inverse=True)
        self._sub_bytes(state, _INV_SBOX)
        self._add_round_key(state, 0)
        return bytes(state)


def aes_ctr(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """AES-CTR keystream XOR (encryption and decryption are identical)."""
    if len(nonce) != 12:
        raise SecurityError("CTR nonce must be 12 bytes")
    cipher = AES(key)
    out = bytearray()
    for counter in range((len(data) + 15) // 16):
        block = cipher.encrypt_block(nonce + counter.to_bytes(4, "big"))
        chunk = data[16 * counter:16 * counter + 16]
        out.extend(b ^ k for b, k in zip(chunk, block))
    return bytes(out)


def aes_encrypt(key: bytes, nonce: bytes, plaintext: bytes,
                associated_data: bytes = b"") -> bytes:
    """Encrypt-then-MAC authenticated encryption (AES-CTR + HMAC-SHA256).

    Returns ciphertext || 16-byte tag.
    """
    ciphertext = aes_ctr(key, nonce, plaintext)
    tag = hmac(key, nonce + associated_data + ciphertext)[:16]
    return ciphertext + tag


def aes_decrypt(key: bytes, nonce: bytes, sealed: bytes,
                associated_data: bytes = b"") -> bytes:
    """Verify the tag and decrypt; raises :class:`SecurityError` on tamper."""
    if len(sealed) < 16:
        raise SecurityError("ciphertext too short to carry a tag")
    ciphertext, tag = sealed[:-16], sealed[-16:]
    expected = hmac(key, nonce + associated_data + ciphertext)[:16]
    if not constant_time_eq(tag, expected):
        raise SecurityError("AEAD tag verification failed")
    return aes_ctr(key, nonce, ciphertext)
