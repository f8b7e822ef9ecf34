"""Key pairs."""

import pytest

from repro.crypto.keys import PrivateKey, PublicKey


def test_seeded_keys_deterministic():
    assert PrivateKey.from_seed("a").secret == PrivateKey.from_seed("a").secret
    assert PrivateKey.from_seed("a").secret != PrivateKey.from_seed("b").secret
    # Every simulated leader key comes from from_seed: a change to the
    # derivation moves every block hash, so its output is pinned.
    key = PrivateKey.from_seed("alice")
    assert key.secret == int(
        "26bdae9236d3d3e183720609e699145e783c74919e639bce40de49fc16a6b8f2", 16
    )
    assert key.public_key().to_bytes().hex() == (
        "032777dc308d8b185e259645dad56597b19aced2e1cacf8c278a326844afb6653c"
    )


def test_seed_accepts_bytes_and_str():
    assert PrivateKey.from_seed("x").secret == PrivateKey.from_seed(b"x").secret


def test_sign_verify_through_key_objects():
    key = PrivateKey.from_seed("signer")
    msg = b"\x22" * 32
    sig = key.sign(msg)
    assert len(sig) == 64
    assert key.public_key().verify(msg, sig)
    assert not key.public_key().verify(b"\x23" * 32, sig)


def test_verify_tolerates_malformed_signature():
    key = PrivateKey.from_seed("signer")
    assert not key.public_key().verify(b"\x22" * 32, b"short")


def test_private_key_range_check():
    from repro.crypto import ecdsa

    with pytest.raises(ValueError):
        PrivateKey(0)
    with pytest.raises(ValueError):
        PrivateKey(ecdsa.N)
    assert PrivateKey(1).public_key().point == ecdsa.G
    assert PrivateKey(ecdsa.N - 1).public_key().point.x == ecdsa.G.x


def test_pubkey_bytes_roundtrip():
    pub = PrivateKey.from_seed("rt").public_key()
    assert PublicKey.from_bytes(pub.to_bytes()) == pub
    assert len(pub.to_bytes()) == 33


def test_public_key_is_derived_once_per_key_object(count_calls):
    from repro.crypto import ecdsa

    key = PrivateKey.from_seed("derive-once")
    derivations = count_calls(ecdsa, "point_mul")
    first = key.public_key()
    assert key.public_key() is first and key.public_key() == first
    assert len(derivations) == 1
    # An equal key object is its own object: it derives for itself.
    twin = PrivateKey.from_seed("derive-once")
    assert twin.public_key() == first and twin.public_key() is not first
    assert len(derivations) == 2


def test_derived_key_memo_is_invisible_on_the_private_key():
    import pickle

    key, cold = PrivateKey.from_seed("memo"), PrivateKey.from_seed("memo")
    before = (hash(key), repr(key), pickle.dumps(key))
    public = key.public_key()
    assert (hash(key), repr(key), pickle.dumps(key)) == before
    assert key == cold and hash(key) == hash(cold) and repr(key) == repr(cold)
    thawed = pickle.loads(pickle.dumps(key))
    assert thawed == key and "_public_key" not in vars(thawed)
    assert thawed.public_key() == public
    assert thawed.sign(b"\x22" * 32) == key.sign(b"\x22" * 32)


def test_pubkey_hash_is_hashed_once(count_calls):
    from repro.crypto import keys as keys_mod
    from repro.crypto.hashing import hash160

    pub = PrivateKey.from_seed("hash-once").public_key()
    hashed = count_calls(keys_mod, "hash160")
    assert pub.pubkey_hash == hash160(pub.to_bytes())
    assert pub.pubkey_hash is pub.pubkey_hash
    assert len(hashed) == 1
    assert PublicKey.from_bytes(pub.to_bytes()) == pub
