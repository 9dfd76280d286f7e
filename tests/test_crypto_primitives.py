"""Known-answer and property tests for the from-scratch crypto primitives."""

import hashlib
import hmac as stdlib_hmac
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SecurityError
from repro.security.primitives import lattice
from repro.security.primitives.aes import (
    AES,
    aes_ctr,
    aes_decrypt,
    aes_encrypt,
)
from repro.security.primitives.ascon import (
    ascon128_decrypt,
    ascon128_encrypt,
    ascon_hash,
    lightweight_sponge_hash,
)
from repro.security.primitives import ecdsa, rsa
from repro.security.primitives.sha2 import hkdf, hmac, sha256, sha512


class TestSha2KnownAnswers:
    """NIST FIPS-180 test vectors."""

    def test_sha256_empty(self):
        assert sha256(b"").hex() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_sha256_abc(self):
        assert sha256(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_sha512_abc(self):
        assert sha512(b"abc").hex() == (
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
        )

    @given(st.binary(max_size=512))
    @settings(max_examples=50)
    def test_sha256_matches_hashlib(self, data):
        assert sha256(data) == hashlib.sha256(data).digest()

    @given(st.binary(max_size=512))
    @settings(max_examples=30)
    def test_sha512_matches_hashlib(self, data):
        assert sha512(data) == hashlib.sha512(data).digest()


#: Message lengths around the padding boundaries: where the 0x80 byte
#: and the length field stop fitting in the last SHA-256 (64-byte) or
#: SHA-512 (128-byte) block, and where a message fills a block exactly.
PADDING_EDGE_LENGTHS = (55, 56, 57, 63, 64, 65, 111, 112, 113, 127, 128,
                        129)


def exact_length(n):
    return st.binary(min_size=n, max_size=n)


class TestSha2PaddingBoundaries:
    @pytest.mark.parametrize("n", PADDING_EDGE_LENGTHS)
    @given(data=st.data())
    @settings(max_examples=5)
    def test_sha256_sha512_match_hashlib(self, n, data):
        msg = data.draw(exact_length(n))
        assert sha256(msg) == hashlib.sha256(msg).digest()
        assert sha512(msg) == hashlib.sha512(msg).digest()

    @pytest.mark.parametrize("n", PADDING_EDGE_LENGTHS)
    @given(data=st.data())
    @settings(max_examples=5)
    def test_hmac_matches_stdlib(self, n, data):
        """Keys span the 64/128-byte block sizes too (a longer key is
        hashed first)."""
        key = data.draw(st.sampled_from(PADDING_EDGE_LENGTHS)
                        .flatmap(exact_length))
        msg = data.draw(exact_length(n))
        assert hmac(key, msg) == stdlib_hmac.new(
            key, msg, hashlib.sha256).digest()
        assert hmac(key, msg, sha512) == stdlib_hmac.new(
            key, msg, hashlib.sha512).digest()


class TestHmacHkdf:
    @given(st.binary(min_size=1, max_size=100), st.binary(max_size=200))
    @settings(max_examples=30)
    def test_hmac_matches_stdlib(self, key, msg):
        assert hmac(key, msg) == stdlib_hmac.new(
            key, msg, hashlib.sha256).digest()

    def test_hmac_sha512_matches_stdlib(self):
        key, msg = b"k" * 200, b"payload"
        assert hmac(key, msg, sha512) == stdlib_hmac.new(
            key, msg, hashlib.sha512).digest()

    def test_hkdf_length_and_determinism(self):
        a = hkdf(b"ikm", 42, salt=b"s", info=b"i")
        b = hkdf(b"ikm", 42, salt=b"s", info=b"i")
        assert a == b and len(a) == 42

    def test_hkdf_context_separation(self):
        assert hkdf(b"ikm", 32, info=b"a") != hkdf(b"ikm", 32, info=b"b")


class TestAesKnownAnswers:
    """FIPS-197 Appendix C vectors."""

    PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")

    def test_aes128_fips(self):
        cipher = AES(bytes(range(16)))
        assert cipher.encrypt_block(self.PLAINTEXT).hex() == \
            "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_aes256_fips(self):
        cipher = AES(bytes(range(32)))
        assert cipher.encrypt_block(self.PLAINTEXT).hex() == \
            "8ea2b7ca516745bfeafc49904b496089"

    def test_decrypt_inverts_encrypt(self):
        for key_len in (16, 32):
            cipher = AES(bytes(range(key_len)))
            ct = cipher.encrypt_block(self.PLAINTEXT)
            assert cipher.decrypt_block(ct) == self.PLAINTEXT

    def test_bad_key_length_rejected(self):
        with pytest.raises(SecurityError):
            AES(b"short")

    def test_bad_block_length_rejected(self):
        with pytest.raises(SecurityError):
            AES(bytes(16)).encrypt_block(b"tiny")


class TestAesAead:
    KEY = bytes(range(32))
    NONCE = b"\x01" * 12

    @given(st.binary(max_size=300), st.binary(max_size=50))
    @settings(max_examples=25)
    def test_roundtrip(self, plaintext, ad):
        sealed = aes_encrypt(self.KEY, self.NONCE, plaintext, ad)
        assert aes_decrypt(self.KEY, self.NONCE, sealed, ad) == plaintext

    def test_tamper_detected(self):
        sealed = bytearray(aes_encrypt(self.KEY, self.NONCE, b"secret"))
        sealed[0] ^= 1
        with pytest.raises(SecurityError):
            aes_decrypt(self.KEY, self.NONCE, bytes(sealed))

    def test_wrong_ad_detected(self):
        sealed = aes_encrypt(self.KEY, self.NONCE, b"secret", b"ad1")
        with pytest.raises(SecurityError):
            aes_decrypt(self.KEY, self.NONCE, sealed, b"ad2")

    def test_ctr_is_involution(self):
        data = b"x" * 33
        once = aes_ctr(self.KEY, self.NONCE, data)
        assert aes_ctr(self.KEY, self.NONCE, once) == data

    def test_short_ciphertext_rejected(self):
        with pytest.raises(SecurityError):
            aes_decrypt(self.KEY, self.NONCE, b"tooshort")


class TestAsconKnownAnswers:
    """Official ASCON v1.2 KAT values (key/nonce = 000102...0f)."""

    KEY = bytes(range(16))
    NONCE = bytes(range(16))

    def test_aead_empty_kat(self):
        sealed = ascon128_encrypt(self.KEY, self.NONCE, b"", b"")
        assert sealed.hex() == "e355159f292911f794cb1432a0103a8a"

    def test_hash_empty_kat(self):
        assert ascon_hash(b"").hex() == (
            "7346bc14f036e87ae03d0997913088f5"
            "f68411434b3cf8b54fa796a80d251f91"
        )

    @given(st.binary(max_size=200), st.binary(max_size=40))
    @settings(max_examples=25)
    def test_roundtrip(self, plaintext, ad):
        sealed = ascon128_encrypt(self.KEY, self.NONCE, plaintext, ad)
        assert ascon128_decrypt(self.KEY, self.NONCE, sealed, ad) == plaintext

    def test_tamper_detected(self):
        sealed = bytearray(ascon128_encrypt(self.KEY, self.NONCE, b"data"))
        sealed[-1] ^= 0x80
        with pytest.raises(SecurityError):
            ascon128_decrypt(self.KEY, self.NONCE, bytes(sealed))

    def test_wrong_key_rejected(self):
        sealed = ascon128_encrypt(self.KEY, self.NONCE, b"data")
        with pytest.raises(SecurityError):
            ascon128_decrypt(b"\xff" * 16, self.NONCE, sealed)

    def test_bad_key_size(self):
        with pytest.raises(SecurityError):
            ascon128_encrypt(b"short", self.NONCE, b"")

    def test_lightweight_hash_properties(self):
        d1 = lightweight_sponge_hash(b"abc")
        assert len(d1) == 20
        assert d1 == lightweight_sponge_hash(b"abc")
        assert d1 != lightweight_sponge_hash(b"abd")


class TestRsa:
    @pytest.fixture(scope="class")
    def key(self):
        return rsa.generate_keypair(768, random.Random(99))

    def test_sign_verify(self, key):
        sig = rsa.sign(key, b"message")
        assert rsa.verify(key.public, b"message", sig)

    def test_verify_rejects_other_message(self, key):
        sig = rsa.sign(key, b"message")
        assert not rsa.verify(key.public, b"other", sig)

    def test_verify_rejects_bad_length(self, key):
        assert not rsa.verify(key.public, b"m", b"\x00" * 5)

    def test_kem_roundtrip(self, key):
        secret, ct = rsa.kem_encapsulate(key.public, random.Random(5))
        assert rsa.kem_decapsulate(key, ct) == secret
        assert len(secret) == 32

    def test_kem_bad_ciphertext_length(self, key):
        with pytest.raises(SecurityError):
            rsa.kem_decapsulate(key, b"\x00" * 3)

    def test_miller_rabin_classifies_correctly(self):
        rng = random.Random(0)
        primes = [2, 3, 5, 97, 7919, 104729]
        composites = [1, 4, 100, 561, 7917, 104730]  # 561 is a Carmichael
        for p in primes:
            assert rsa.is_probable_prime(p, rng)
        for c in composites:
            assert not rsa.is_probable_prime(c, rng)

    def test_generated_prime_has_requested_bits(self):
        p = rsa.generate_prime(96, random.Random(3))
        assert p.bit_length() == 96


class TestEcdsa:
    @pytest.fixture(scope="class")
    def key(self):
        return ecdsa.generate_keypair(random.Random(7))

    def test_generator_on_curve(self):
        assert ecdsa.is_on_curve((ecdsa.GX, ecdsa.GY))

    def test_public_key_on_curve(self, key):
        assert ecdsa.is_on_curve(key.q)

    def test_scalar_mult_order_gives_infinity(self):
        assert ecdsa.scalar_mult(ecdsa.N, (ecdsa.GX, ecdsa.GY)) is None

    def test_sign_verify(self, key):
        sig = ecdsa.sign(key, b"hello")
        assert ecdsa.verify(key.q, b"hello", sig)

    def test_verify_rejects_other_message(self, key):
        sig = ecdsa.sign(key, b"hello")
        assert not ecdsa.verify(key.q, b"HELLO", sig)

    def test_deterministic_signatures(self, key):
        assert ecdsa.sign(key, b"m") == ecdsa.sign(key, b"m")

    def test_verify_rejects_out_of_range(self, key):
        assert not ecdsa.verify(key.q, b"m", (0, 1))
        assert not ecdsa.verify(key.q, b"m", (ecdsa.N, 1))

    def test_ecdh_symmetry(self):
        a = ecdsa.generate_keypair(random.Random(1))
        b = ecdsa.generate_keypair(random.Random(2))
        assert ecdsa.ecdh_shared_secret(a.d, b.q) == \
            ecdsa.ecdh_shared_secret(b.d, a.q)

    def test_public_key_encoding_roundtrip(self, key):
        decoded = ecdsa.public_key_from_bytes(key.public_bytes)
        assert decoded == key.q

    def test_malformed_public_key_rejected(self):
        with pytest.raises(SecurityError):
            ecdsa.public_key_from_bytes(b"\x05" + b"\x00" * 64)


class TestLatticeKem:
    @pytest.fixture(scope="class")
    def keypair(self):
        return lattice.kem_generate_keypair(np.random.default_rng(11))

    def test_roundtrip_many(self, keypair):
        rng = np.random.default_rng(12)
        for _ in range(10):
            secret, ct = lattice.kem_encapsulate(keypair.public, rng)
            assert lattice.kem_decapsulate(keypair, ct) == secret

    def test_ciphertext_size(self, keypair):
        _, ct = lattice.kem_encapsulate(keypair.public,
                                        np.random.default_rng(1))
        assert len(ct) == lattice.kem_ciphertext_bytes()

    def test_bad_ciphertext_length_rejected(self, keypair):
        with pytest.raises(SecurityError):
            lattice.kem_decapsulate(keypair, b"\x00" * 7)

    def test_secrets_differ_per_encapsulation(self, keypair):
        rng = np.random.default_rng(13)
        s1, _ = lattice.kem_encapsulate(keypair.public, rng)
        s2, _ = lattice.kem_encapsulate(keypair.public, rng)
        assert s1 != s2


class TestLatticeSignature:
    @pytest.fixture(scope="class")
    def keypair(self):
        return lattice.sig_generate_keypair(np.random.default_rng(21))

    def test_sign_verify(self, keypair):
        rng = np.random.default_rng(22)
        sig = lattice.sig_sign(keypair, b"deploy request", rng)
        assert lattice.sig_verify(keypair.public, b"deploy request", sig)

    def test_verify_rejects_other_message(self, keypair):
        rng = np.random.default_rng(23)
        sig = lattice.sig_sign(keypair, b"a", rng)
        assert not lattice.sig_verify(keypair.public, b"b", sig)

    def test_verify_rejects_oversized_z(self, keypair):
        rng = np.random.default_rng(24)
        c, z = lattice.sig_sign(keypair, b"m", rng)
        z_bad = z.copy()
        z_bad[0, 0] = lattice.SIG_GAMMA
        assert not lattice.sig_verify(keypair.public, b"m", (c, z_bad))

    def test_wrong_key_rejected(self, keypair):
        other = lattice.sig_generate_keypair(np.random.default_rng(25))
        sig = lattice.sig_sign(keypair, b"m", np.random.default_rng(26))
        assert not lattice.sig_verify(other.public, b"m", sig)

    def test_challenge_weight(self):
        high = np.zeros((lattice.SIG_K, lattice.SIG_N), dtype=np.int64)
        c = lattice._challenge(high, b"msg")
        assert int(np.sum(np.abs(c))) == lattice.SIG_TAU


class TestRingArithmetic:
    @given(st.integers(0, 2**31))
    @settings(max_examples=20)
    def test_negacyclic_reduction(self, seed):
        """x^n == -1 in Z_q[x]/(x^n+1): multiplying by x^n negates."""
        rng = np.random.default_rng(seed)
        a = rng.integers(0, lattice.KEM_Q, lattice.KEM_N, dtype=np.int64)
        x_n_minus_1 = np.zeros(lattice.KEM_N, dtype=np.int64)
        x_n_minus_1[-1] = 1  # x^(n-1)
        x_one = np.zeros(lattice.KEM_N, dtype=np.int64)
        x_one[1] = 1  # x
        # (a * x^(n-1)) * x == a * x^n == -a
        step = lattice._poly_mul(a, x_n_minus_1, lattice.KEM_Q, lattice.KEM_N)
        result = lattice._poly_mul(step, x_one, lattice.KEM_Q, lattice.KEM_N)
        assert np.array_equal(result, np.mod(-a, lattice.KEM_Q))

    def test_poly_mul_identity(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, lattice.KEM_Q, lattice.KEM_N, dtype=np.int64)
        one = np.zeros(lattice.KEM_N, dtype=np.int64)
        one[0] = 1
        assert np.array_equal(
            lattice._poly_mul(a, one, lattice.KEM_Q, lattice.KEM_N), a)


class TestHmacRfc4231:
    """Official HMAC-SHA256 test vectors from RFC 4231."""

    def test_case_1(self):
        key = b"\x0b" * 20
        data = b"Hi There"
        assert hmac(key, data).hex() == (
            "b0344c61d8db38535ca8afceaf0bf12b"
            "881dc200c9833da726e9376c2e32cff7"
        )

    def test_case_2(self):
        key = b"Jefe"
        data = b"what do ya want for nothing?"
        assert hmac(key, data).hex() == (
            "5bdcc146bf60754e6a042426089575c7"
            "5a003f089d2739839dec58b964ec3843"
        )

    def test_case_3(self):
        key = b"\xaa" * 20
        data = b"\xdd" * 50
        assert hmac(key, data).hex() == (
            "773ea91e36800e46854db8ebd09181a7"
            "2959098b3ef8c122d9635514ced565fe"
        )

    def test_case_6_long_key(self):
        key = b"\xaa" * 131
        data = b"Test Using Larger Than Block-Size Key - Hash Key First"
        assert hmac(key, data).hex() == (
            "60e431591ee0b67f0d8a26aacbf5b77f"
            "8e0bc6213728c5140546040f0ee37f54"
        )
