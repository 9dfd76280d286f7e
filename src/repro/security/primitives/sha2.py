"""SHA-256 and SHA-512 implemented from scratch (FIPS 180-2).

Table II of the paper names SHA-256 for the medium security level and
SHA-512 for the high level. These are straightforward Merkle-Damgard
constructions; both are verified against the official NIST test vectors
in the test suite.
"""

from __future__ import annotations

import struct

_SHA256_K = [
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5,
    0x3956C25B, 0x59F111F1, 0x923F82A4, 0xAB1C5ED5,
    0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174,
    0xE49B69C1, 0xEFBE4786, 0x0FC19DC6, 0x240CA1CC,
    0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7,
    0xC6E00BF3, 0xD5A79147, 0x06CA6351, 0x14292967,
    0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85,
    0xA2BFE8A1, 0xA81A664B, 0xC24B8B70, 0xC76C51A3,
    0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5,
    0x391C0CB3, 0x4ED8AA4A, 0x5B9CCA4F, 0x682E6FF3,
    0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
]

_SHA256_H0 = [
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
]

_SHA512_K = [
    0x428A2F98D728AE22, 0x7137449123EF65CD, 0xB5C0FBCFEC4D3B2F,
    0xE9B5DBA58189DBBC, 0x3956C25BF348B538, 0x59F111F1B605D019,
    0x923F82A4AF194F9B, 0xAB1C5ED5DA6D8118, 0xD807AA98A3030242,
    0x12835B0145706FBE, 0x243185BE4EE4B28C, 0x550C7DC3D5FFB4E2,
    0x72BE5D74F27B896F, 0x80DEB1FE3B1696B1, 0x9BDC06A725C71235,
    0xC19BF174CF692694, 0xE49B69C19EF14AD2, 0xEFBE4786384F25E3,
    0x0FC19DC68B8CD5B5, 0x240CA1CC77AC9C65, 0x2DE92C6F592B0275,
    0x4A7484AA6EA6E483, 0x5CB0A9DCBD41FBD4, 0x76F988DA831153B5,
    0x983E5152EE66DFAB, 0xA831C66D2DB43210, 0xB00327C898FB213F,
    0xBF597FC7BEEF0EE4, 0xC6E00BF33DA88FC2, 0xD5A79147930AA725,
    0x06CA6351E003826F, 0x142929670A0E6E70, 0x27B70A8546D22FFC,
    0x2E1B21385C26C926, 0x4D2C6DFC5AC42AED, 0x53380D139D95B3DF,
    0x650A73548BAF63DE, 0x766A0ABB3C77B2A8, 0x81C2C92E47EDAEE6,
    0x92722C851482353B, 0xA2BFE8A14CF10364, 0xA81A664BBC423001,
    0xC24B8B70D0F89791, 0xC76C51A30654BE30, 0xD192E819D6EF5218,
    0xD69906245565A910, 0xF40E35855771202A, 0x106AA07032BBD1B8,
    0x19A4C116B8D2D0C8, 0x1E376C085141AB53, 0x2748774CDF8EEB99,
    0x34B0BCB5E19B48A8, 0x391C0CB3C5C95A63, 0x4ED8AA4AE3418ACB,
    0x5B9CCA4F7763E373, 0x682E6FF3D6B2B8A3, 0x748F82EE5DEFB2FC,
    0x78A5636F43172F60, 0x84C87814A1F0AB72, 0x8CC702081A6439EC,
    0x90BEFFFA23631E28, 0xA4506CEBDE82BDE9, 0xBEF9A3F7B2C67915,
    0xC67178F2E372532B, 0xCA273ECEEA26619C, 0xD186B8C721C0C207,
    0xEADA7DD6CDE0EB1E, 0xF57D4F7FEE6ED178, 0x06F067AA72176FBA,
    0x0A637DC5A2C898A6, 0x113F9804BEF90DAE, 0x1B710B35131C471B,
    0x28DB77F523047D84, 0x32CAAB7B40C72493, 0x3C9EBE0A15C9BEBC,
    0x431D67C49C100D4C, 0x4CC5D4BECB3E42B6, 0x597F299CFC657E2A,
    0x5FCB6FAB3AD6FAEC, 0x6C44198C4A475817,
]

_SHA512_H0 = [
    0x6A09E667F3BCC908, 0xBB67AE8584CAA73B, 0x3C6EF372FE94F82B,
    0xA54FF53A5F1D36F1, 0x510E527FADE682D1, 0x9B05688C2B3E6C1F,
    0x1F83D9ABFB41BD6B, 0x5BE0CD19137E2179,
]


#: Per word width: the block's struct format, then the message
#: schedule's sigma0/sigma1 (two rotations and a shift each) and the
#: rounds' Sigma0/Sigma1 (three rotations each), as in FIPS 180-4.
_SHIFTS = {
    32: (">16I", (7, 18, 3, 17, 19, 10), (2, 13, 22, 6, 11, 25)),
    64: (">16Q", (1, 8, 7, 19, 61, 6), (28, 34, 39, 14, 18, 41)),
}


def _sha2_compress(state: list[int], block: bytes, width: int,
                   k_table: list[int]) -> list[int]:
    """One compression-function application (width = 32 or 64 bits).

    Rotations are inlined as ``(x >> n) | (x << (width - n))`` with the
    shift amounts bound once per call. The bits a left shift carries
    past *width* are never masked per rotation: XOR and addition modulo
    ``2**width`` depend only on their operands' low *width* bits, so
    the one mask each stored word ends with drops them all.
    """
    mask = (1 << width) - 1
    fmt, (p0, p1, p2, q0, q1, q2), (a0, a1, a2, e0, e1, e2) = \
        _SHIFTS[width]
    lp0, lp1, lq0, lq1 = width - p0, width - p1, width - q0, width - q1
    la0, la1, la2 = width - a0, width - a1, width - a2
    le0, le1, le2 = width - e0, width - e1, width - e2
    w = list(struct.unpack(fmt, block))
    for t in range(16, len(k_table)):
        x = w[t - 15]
        y = w[t - 2]
        w.append((w[t - 16] + w[t - 7]
                  + (((x >> p0) | (x << lp0)) ^ ((x >> p1) | (x << lp1))
                     ^ (x >> p2))
                  + (((y >> q0) | (y << lq0)) ^ ((y >> q1) | (y << lq1))
                     ^ (y >> q2))) & mask)
    a, b, c, d, e, f, g, h = state
    for k, wt in zip(k_table, w):
        # Ch(e, f, g) and Maj(a, b, c) in their two-operation forms.
        t1 = (h + k + wt + (g ^ (e & (f ^ g)))
              + (((e >> e0) | (e << le0)) ^ ((e >> e1) | (e << le1))
                 ^ ((e >> e2) | (e << le2))))
        t2 = ((((a >> a0) | (a << la0)) ^ ((a >> a1) | (a << la1))
               ^ ((a >> a2) | (a << la2)))
              + ((a & (b | c)) | (b & c)))
        h = g
        g = f
        f = e
        e = (d + t1) & mask
        d = c
        c = b
        b = a
        a = (t1 + t2) & mask
    return [(s + v) & mask
            for s, v in zip(state, (a, b, c, d, e, f, g, h))]


def _sha2(data: bytes, width: int, h0: list[int], k_table: list[int],
          out_bytes: int) -> bytes:
    block_bytes = width * 2  # 64 for SHA-256, 128 for SHA-512
    length_field = block_bytes // 8  # 8 or 16 bytes of length
    zeros = -(len(data) + 1 + length_field) % block_bytes
    padded = (data + b"\x80" + b"\x00" * zeros
              + (len(data) * 8).to_bytes(length_field, "big"))
    state = list(h0)
    for offset in range(0, len(padded), block_bytes):
        state = _sha2_compress(state, padded[offset:offset + block_bytes],
                               width, k_table)
    word_bytes = width // 8
    digest = b"".join(s.to_bytes(word_bytes, "big") for s in state)
    return digest[:out_bytes]


def sha256(data: bytes) -> bytes:
    """SHA-256 digest (32 bytes) of *data*."""
    return _sha2(data, 32, _SHA256_H0, _SHA256_K, 32)


def sha512(data: bytes) -> bytes:
    """SHA-512 digest (64 bytes) of *data*."""
    return _sha2(data, 64, _SHA512_H0, _SHA512_K, 64)


def hmac(key: bytes, message: bytes, hash_fn=sha256,
         block_size: int | None = None) -> bytes:
    """HMAC (RFC 2104) over any of the library's hash functions."""
    if block_size is None:
        block_size = 128 if hash_fn is sha512 else 64
    if len(key) > block_size:
        key = hash_fn(key)
    key = key.ljust(block_size, b"\x00")
    o_pad = bytes(b ^ 0x5C for b in key)
    i_pad = bytes(b ^ 0x36 for b in key)
    return hash_fn(o_pad + hash_fn(i_pad + message))


def constant_time_eq(a: bytes, b: bytes) -> bool:
    """Compare two tags without an early exit on the first mismatch."""
    if len(a) != len(b):
        return False
    acc = 0
    for x, y in zip(a, b):
        acc |= x ^ y
    return acc == 0


def hkdf(ikm: bytes, length: int, salt: bytes = b"",
         info: bytes = b"") -> bytes:
    """HKDF-SHA256 (RFC 5869) extract-and-expand key derivation."""
    prk = hmac(salt or b"\x00" * 32, ikm)
    okm = b""
    block = b""
    counter = 1
    while len(okm) < length:
        block = hmac(prk, block + info + bytes([counter]))
        okm += block
        counter += 1
    return okm[:length]
