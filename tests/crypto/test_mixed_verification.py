"""Tests for the trusted-aggregate memo seeding (``trust_aggregate``).

A collector verifies every contribution before folding it in, so the
aggregate it builds is known valid; ``trust_aggregate`` records that in
the backend's verified-aggregate memo.
"""

from __future__ import annotations

import pytest

from repro.crypto.bls import BlsMultiSig
from repro.crypto.multisig import AggregateSignature, get_scheme
from repro.crypto.params import TOY_PARAMS

MESSAGE = b"vote|deadbeef|7|6"


@pytest.fixture(scope="module")
def scheme():
    return BlsMultiSig(params=TOY_PARAMS)


@pytest.fixture(scope="module")
def keys(scheme):
    pairs = {pid: scheme.keygen(300 + pid) for pid in range(6)}
    return {pid: pair.public_key for pid, pair in pairs.items()}, {
        pid: pair.secret_key for pid, pair in pairs.items()
    }


def _share(scheme, secrets, pid, message=MESSAGE):
    return scheme.sign(secrets[pid], message, pid)


class TestTrustAggregate:
    def test_seeds_verified_memo(self, keys):
        public, secrets = keys
        scheme = BlsMultiSig(params=TOY_PARAMS)
        agg = scheme.aggregate(
            [(_share(scheme, secrets, 0), 1), (_share(scheme, secrets, 1), 1)]
        )
        scheme.trust_aggregate(agg, MESSAGE, public)
        cache_key = scheme._aggregate_key(agg, MESSAGE, public)
        assert scheme._aggregate_cache.get(cache_key) is True
        assert scheme.verify_aggregate(agg, MESSAGE, public)

    def test_malformed_aggregate_not_seeded(self, keys):
        public, secrets = keys
        scheme = BlsMultiSig(params=TOY_PARAMS)
        share = _share(scheme, secrets, 0)
        bogus = AggregateSignature(value=share.value, multiplicities={99: 1})
        scheme.trust_aggregate(bogus, MESSAGE, public)
        assert not scheme._aggregate_cache
        assert not scheme.verify_aggregate(bogus, MESSAGE, public)

    def test_hashsig_backend_no_op(self):
        scheme = get_scheme("hashsig")
        pair = scheme.keygen(1)
        share = scheme.sign(pair.secret_key, MESSAGE, 1)
        agg = scheme.aggregate([(share, 1)])
        # Base-class default: silently ignored, verification still works.
        scheme.trust_aggregate(agg, MESSAGE, {1: pair.public_key})
        assert scheme.verify_aggregate(agg, MESSAGE, {1: pair.public_key})
