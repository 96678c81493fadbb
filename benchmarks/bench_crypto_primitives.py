"""Micro-benchmarks of the crypto substrate (the <1 ms claims of §VI/§IX).

The paper repeatedly leans on "HMAC and AES cost less than 1 ms"; these
benchmarks pin the local numbers and the key-schedule / AEAD costs that
every discovery pays.
"""

import pytest

from repro.crypto import aead, kdf
from repro.crypto.primitives import hkdf_like_prf, hmac_sha256, sha256
from repro.protocol.resumption import TicketKeyring, TicketPayload, fresh_ticket_id

KEY = b"k" * 32
R_S, R_O = b"s" * 28, b"o" * 28
TRANSCRIPT = b"t" * 2088  # one full Level 2/3 exchange's worth of bytes


def test_bench_hmac_sha256(benchmark):
    benchmark(hmac_sha256, KEY, TRANSCRIPT)


def test_bench_sha256_transcript(benchmark):
    benchmark(sha256, TRANSCRIPT)


def test_bench_k2_derivation(benchmark):
    benchmark(kdf.derive_k2, b"premaster" * 4, R_S, R_O)


def test_bench_k3_derivation(benchmark):
    k2 = kdf.derive_k2(b"premaster" * 4, R_S, R_O)
    benchmark(kdf.derive_k3, k2, b"g" * 32, R_S, R_O)


def test_bench_finished_mac(benchmark):
    benchmark(kdf.subject_finished, KEY, TRANSCRIPT)


def test_bench_prf_expand(benchmark):
    benchmark(hkdf_like_prf, KEY, b"label", b"seed", 48)


def aead_key(form):
    """The session key as bytes, or pre-expanded once (a ticket key)."""
    return KEY if form == "bytes" else aead.SymmetricCipher(KEY)


@pytest.mark.parametrize("form", ["bytes", "cipher"])
@pytest.mark.parametrize("size", [200, 1024])
def test_bench_aead_encrypt(benchmark, size, form):
    benchmark(aead.encrypt, aead_key(form), b"x" * size)


@pytest.mark.parametrize("form", ["bytes", "cipher"])
@pytest.mark.parametrize("size", [200, 1024])
def test_bench_aead_decrypt(benchmark, size, form):
    key = aead_key(form)
    blob = aead.encrypt(key, b"x" * size)
    benchmark(aead.decrypt, key, blob)


def ticket_payload():
    return TicketPayload(
        ticket_id=fresh_ticket_id(), peer_id="subject-0001", level=3,
        group_id="grp-0", variant="covert", master=KEY, expiry=2**20, epoch=7,
    )


def test_bench_ticket_seal(benchmark):
    keyring = TicketKeyring()
    benchmark(keyring.seal, ticket_payload())


def test_bench_ticket_open(benchmark):
    keyring = TicketKeyring()
    sealed = keyring.seal(ticket_payload())
    assert benchmark(keyring.open, sealed) is not None


def test_bench_ticket_open_after_rotation(benchmark):
    """The grace path: the current key fails, the previous one opens."""
    keyring = TicketKeyring()
    sealed = keyring.seal(ticket_payload())
    keyring.rotate()
    assert benchmark(keyring.open, sealed) is not None


def test_symmetric_ops_under_1ms():
    """The paper's blanket claim, checked locally end to end."""
    import time

    def clock(fn, n=200):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        return (time.perf_counter() - t0) / n * 1000

    k2 = kdf.derive_k2(b"p", R_S, R_O)
    blob = aead.encrypt(k2, b"x" * 200)
    assert clock(lambda: hmac_sha256(KEY, TRANSCRIPT)) < 1.0
    assert clock(lambda: kdf.derive_k3(k2, b"g" * 32, R_S, R_O)) < 1.0
    assert clock(lambda: aead.decrypt(k2, blob)) < 1.0
