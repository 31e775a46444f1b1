"""BLS multi-signatures over a supersingular curve (pure Python).

Implements the original Boneh-Lynn-Shacham signature scheme with the
symmetric Tate pairing from :mod:`repro.crypto.pairing`:

* secret key ``sk`` is a scalar modulo the subgroup order ``r``;
* public key is ``PK = sk * G``;
* a signature on message ``m`` is ``sigma = sk * H(m)`` where ``H`` hashes
  into the prime-order subgroup;
* verification checks ``e(sigma, G) == e(H(m), PK)``.

Aggregation of signatures on the *same* message is point addition; a share
included with multiplicity ``k`` is simply added ``k`` times, and the
aggregate verifies against the multiplicity-weighted sum of public keys.
This is exactly the multiplicity trick Iniva's reward scheme uses to prove
whether a vote travelled through tree aggregation or a 2ND-CHANCE path.

Indivisibility — the infeasibility of extracting an individual ``sigma_i``
from an aggregate — is the k-element aggregate extraction assumption shown
equivalent to Diffie-Hellman by Coron and Naccache (paper reference [33]).

Performance notes: message hashing is memoised module-wide in
:func:`repro.crypto.curve.hash_to_point`; pairing evaluations are memoised
per scheme instance (a replica re-verifying the share another replica
already checked pays a dict lookup, not two Miller loops); and verified
aggregates are memoised too, so a QC every replica re-checks costs its
two pairings once.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.crypto.curve import Point, generator, hash_to_point
from repro.crypto.field import Fp2
from repro.crypto.keys import KeyPair
from repro.crypto.multisig import (
    AggregateSignature,
    Contribution,
    MultiSignatureScheme,
    SignatureShare,
    _tally_multiplicities,
    normalize_contributions,
    register_scheme,
)
from repro.crypto.pairing import tate_pairing
from repro.crypto.params import DEFAULT_PARAMS, CurveParams

__all__ = ["BlsMultiSig"]


@register_scheme
class BlsMultiSig(MultiSignatureScheme):
    """Pairing-based indivisible multi-signature backend."""

    name = "bls"

    #: Upper bound on memoised pairings; the cache is cleared when full.
    PAIRING_CACHE_MAX = 4096

    def __init__(self, params: Optional[CurveParams] = None) -> None:
        self.params = params or DEFAULT_PARAMS
        self._generator = generator(self.params)
        self._pairing_cache: Dict[Tuple[bytes, bytes], Fp2] = {}
        self._weighted_key_cache: Dict[Tuple[Tuple[bytes, int], ...], Point] = {}
        self._aggregate_cache: Dict[Tuple[bytes, Tuple[Tuple[bytes, int], ...], bytes], bool] = {}

    # -- key management ----------------------------------------------------
    def keygen(self, seed: int) -> KeyPair:
        material = hashlib.sha256(b"iniva-bls-sk" + seed.to_bytes(16, "big", signed=True)).digest()
        secret = (int.from_bytes(material, "big") % (self.params.r - 1)) + 1
        public = self._generator * secret
        return KeyPair(secret_key=secret, public_key=public)

    # -- signing -----------------------------------------------------------
    def _hash_message(self, message: bytes) -> Point:
        return hash_to_point(message, self.params)

    def _pairing(self, left: Point, right: Point) -> Fp2:
        """Memoised Tate pairing.

        Fixed argument pairs — ``e(sigma, G)`` for a share every replica
        verifies, ``e(H(m), PK)`` for a fixed message/signer pair — repeat
        constantly in committee simulations, so the full pairing is cached
        keyed on the two points' canonical encodings.
        """
        key = (left.to_bytes(), right.to_bytes())
        cached = self._pairing_cache.get(key)
        if cached is None:
            cached = tate_pairing(left, right)
            if len(self._pairing_cache) >= self.PAIRING_CACHE_MAX:
                self._pairing_cache.clear()
            self._pairing_cache[key] = cached
        return cached

    def sign(self, secret_key: int, message: bytes, signer: int) -> SignatureShare:
        point = self._hash_message(message) * secret_key
        return SignatureShare(signer=signer, value=point)

    def verify_share(self, share: SignatureShare, message: bytes, public_key: Point) -> bool:
        if not isinstance(share.value, Point) or share.value.is_infinity:
            return False
        if not share.value.is_on_curve():
            return False
        # Generator first: its Miller ladder is cached once, forever.
        lhs = self._pairing(self._generator, share.value)
        rhs = self._pairing(self._hash_message(message), public_key)
        return lhs == rhs

    # -- aggregation -------------------------------------------------------
    def aggregate(self, parts: Iterable[Contribution]) -> AggregateSignature:
        parts = normalize_contributions(parts)
        multiplicities = _tally_multiplicities(parts)
        total = Point.infinity(self.params)
        for part, weight in parts:
            value = part.value
            if not isinstance(value, Point):
                raise TypeError("BLS aggregation requires curve-point signature values")
            # weight == 1 is the overwhelmingly common case (a 2ND-CHANCE
            # double-count is the exception): plain addition, no scalar mult.
            total = total + (value if weight == 1 else value * weight)
        return AggregateSignature(value=total, multiplicities=multiplicities)

    def _aggregate_key(
        self,
        aggregate: AggregateSignature,
        message: bytes,
        public_keys: Mapping[int, Any],
    ) -> Optional[Tuple[bytes, Tuple[Tuple[bytes, int], ...], bytes]]:
        """Canonical memo key for one aggregate verification, or ``None``
        when the multiplicities are malformed (non-positive or unknown
        signer) and verification must fail outright."""
        entries = []
        for signer, mult in sorted(aggregate.multiplicities.items()):
            key = public_keys.get(signer)
            if mult <= 0 or key is None:
                return None
            entries.append((key.to_bytes(), mult))
        return (aggregate.value.to_bytes(), tuple(entries), message)

    def trust_aggregate(
        self,
        aggregate: AggregateSignature,
        message: bytes,
        public_keys: Mapping[int, Any],
    ) -> None:
        """Seed the verified-aggregate memo with a collector-built value.

        The collector verified every contribution before folding it in, so
        by bilinearity the sum verifies; recording that here means the
        QC's first :meth:`verify_aggregate` is a dict hit instead of two
        fresh pairings.
        """
        if not isinstance(aggregate.value, Point) or not aggregate.multiplicities:
            return
        cache_key = self._aggregate_key(aggregate, message, public_keys)
        if cache_key is None:
            return
        if len(self._aggregate_cache) >= self.PAIRING_CACHE_MAX:
            self._aggregate_cache.clear()
        self._aggregate_cache[cache_key] = True

    def verify_aggregate(
        self,
        aggregate: AggregateSignature,
        message: bytes,
        public_keys: Mapping[int, Any],
    ) -> bool:
        if not isinstance(aggregate.value, Point):
            return False
        if not aggregate.multiplicities:
            return aggregate.value.is_infinity
        # Verified-result memo: the hot path re-verifies the same aggregate
        # many times (every replica checks the QC embedded in a proposal,
        # the tree root checks each internal aggregate it forwards, ...).
        # A verification is a pure function of (value, weighted keys,
        # message), so the result can be served from a dict after the first
        # full check — the standard verified-signature cache of production
        # consensus implementations.  Keys are canonical byte encodings, so
        # the memo stays sound even if one scheme instance serves several
        # committees.
        cache_key = self._aggregate_key(aggregate, message, public_keys)
        if cache_key is None:
            return False
        weight_key = cache_key[1]
        cached = self._aggregate_cache.get(cache_key)
        if cached is not None:
            return cached
        # The multiplicity-weighted key sum only depends on the (key,
        # multiplicity) multiset, which repeats across blocks (the tree
        # shapes are few), so the scalar multiplications are memoised
        # separately from the pairings.
        weighted_key = self._weighted_key_cache.get(weight_key)
        if weighted_key is None:
            weighted_key = Point.infinity(self.params)
            for signer, mult in aggregate.multiplicities.items():
                weighted_key = weighted_key + public_keys[signer] * mult
            if len(self._weighted_key_cache) >= self.PAIRING_CACHE_MAX:
                self._weighted_key_cache.clear()
            self._weighted_key_cache[weight_key] = weighted_key
        lhs = self._pairing(self._generator, aggregate.value)
        rhs = self._pairing(self._hash_message(message), weighted_key)
        result = lhs == rhs
        if len(self._aggregate_cache) >= self.PAIRING_CACHE_MAX:
            self._aggregate_cache.clear()
        self._aggregate_cache[cache_key] = result
        return result
