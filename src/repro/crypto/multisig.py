"""Abstract interface for indivisible multi-signature schemes.

The paper's protocols only require four operations: sign a message,
verify an individual share, aggregate shares/aggregates *with
multiplicities*, and verify an aggregate against the claimed
multiplicities.  Crucially the interface exposes **no** operation that
removes a signer from an aggregate — that is the *indivisibility*
property Iniva relies on (Section III of the paper).
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterable, List, Mapping, Tuple, Union

__all__ = [
    "SignatureShare",
    "AggregateSignature",
    "MultiSignatureScheme",
    "HashSigMultiSig",
    "get_scheme",
    "register_scheme",
    "normalize_contributions",
    "combined_multiplicities",
]


@dataclass(frozen=True)
class SignatureShare:
    """A single signer's signature on a message.

    Attributes:
        signer: The integer identity of the signing process.
        value: Backend-specific opaque signature value.
    """

    signer: int
    value: Any


@dataclass(frozen=True)
class AggregateSignature:
    """An aggregate of signature shares on one message.

    Attributes:
        value: Backend-specific opaque aggregate value.  By the
            indivisibility assumption no component share can be recovered
            from it.
        multiplicities: Mapping ``signer -> multiplicity`` describing how
            many times each signer's share was folded into the aggregate.
            This is the metadata Iniva's reward scheme inspects to tell
            tree aggregation apart from 2ND-CHANCE fallback inclusion.
    """

    value: Any
    multiplicities: Mapping[int, int] = field(default_factory=dict)

    @cached_property
    def signers(self) -> frozenset[int]:
        """The set of signers with non-zero multiplicity."""
        return frozenset(s for s, m in self.multiplicities.items() if m > 0)

    def multiplicity(self, signer: int) -> int:
        return self.multiplicities.get(signer, 0)

    def __contains__(self, signer: int) -> bool:
        return self.multiplicity(signer) > 0

    def __len__(self) -> int:
        return len(self.signers)


Contribution = Tuple[Union[SignatureShare, AggregateSignature], int]


def normalize_contributions(
    parts: Iterable[Union[Contribution, SignatureShare, AggregateSignature]],
) -> List[Contribution]:
    """Coerce a mixed iterable of contributions into ``(part, weight)`` pairs.

    Accepts bare shares and bare aggregates (implicit weight one) alongside
    explicit ``(share_or_aggregate, weight)`` pairs, so callers can hand an
    aggregation backend whatever collection they naturally hold.  Weights
    must be positive integers; anything unrecognised raises ``TypeError``.
    """
    normalized: List[Contribution] = []
    for item in parts:
        if isinstance(item, (SignatureShare, AggregateSignature)):
            normalized.append((item, 1))
            continue
        if isinstance(item, (tuple, list)) and len(item) == 2:
            part, weight = item
            if isinstance(part, (SignatureShare, AggregateSignature)):
                if not isinstance(weight, int) or isinstance(weight, bool):
                    raise TypeError(
                        f"contribution weight must be an int, got {type(weight)!r}"
                    )
                if weight <= 0:
                    raise ValueError("contribution weights must be positive integers")
                normalized.append((part, weight))
                continue
        raise TypeError(f"unsupported contribution type: {type(item)!r}")
    return normalized


def _tally_multiplicities(parts: Iterable[Contribution]) -> Dict[int, int]:
    """Sum signer multiplicities of already-normalized contributions."""
    total: Counter[int] = Counter()
    for part, weight in parts:
        if isinstance(part, SignatureShare):
            total[part.signer] += weight
        else:
            for signer, mult in part.multiplicities.items():
                total[signer] += mult * weight
    return dict(total)


def combined_multiplicities(
    parts: Iterable[Union[Contribution, SignatureShare, AggregateSignature]],
) -> Dict[int, int]:
    """Sum the signer multiplicities of weighted contributions.

    Each contribution is a ``(share_or_aggregate, weight)`` pair or a bare
    share/aggregate (weight one — see :func:`normalize_contributions`); an
    individual share counts as multiplicity one before weighting.
    """
    return _tally_multiplicities(normalize_contributions(parts))


class MultiSignatureScheme(ABC):
    """Interface shared by the BLS and hash-based backends."""

    #: Human-readable backend name used by :func:`get_scheme`.
    name: str = "abstract"

    @abstractmethod
    def keygen(self, seed: int) -> "KeyPair":
        """Deterministically derive a key pair from ``seed``."""

    @abstractmethod
    def sign(self, secret_key: Any, message: bytes, signer: int) -> SignatureShare:
        """Sign ``message`` with ``secret_key`` on behalf of ``signer``."""

    @abstractmethod
    def verify_share(self, share: SignatureShare, message: bytes, public_key: Any) -> bool:
        """Verify an individual signature share."""

    @abstractmethod
    def aggregate(self, parts: Iterable[Contribution]) -> AggregateSignature:
        """Aggregate weighted shares and aggregates into one signature.

        The returned aggregate's multiplicities are the weighted sums of
        the inputs' multiplicities; the opaque value is combined in a way
        the backend can later verify against those multiplicities.
        """

    @abstractmethod
    def verify_aggregate(
        self,
        aggregate: AggregateSignature,
        message: bytes,
        public_keys: Mapping[int, Any],
    ) -> bool:
        """Verify an aggregate against the claimed signer multiplicities."""

    def trust_aggregate(
        self,
        aggregate: AggregateSignature,
        message: bytes,
        public_keys: Mapping[int, Any],
    ) -> None:
        """Record that ``aggregate`` is known valid without re-checking it.

        Called by a collector that just *built* the aggregate from
        individually verified contributions — by linearity the sum
        verifies, so a later :meth:`verify_aggregate` of the same value
        can be answered from a cache instead of fresh pairings.  Backends
        without a verification cache (the hash schemes, where verification
        is cheap) ignore it.
        """


@dataclass(frozen=True)
class _HashSigAggregateValue:
    """Opaque value of a ``hashsig`` aggregate: a single field element.

    The accumulator is linear in the (secretly derivable, publicly
    recomputable) share values, so folding costs O(1) per contribution and
    no per-signer payload travels with the aggregate — the multiplicity
    map alone reconstructs the expected accumulator at verification time.
    The wrapper type keeps the value distinct from a bare int so protocol
    code cannot accidentally treat it as arithmetic data.
    """

    accumulator: int


class HashSigMultiSig(MultiSignatureScheme):
    """Additive hash-based fast-simulation backend (``hashsig``).

    Models the algebra of an indivisible multi-signature scheme with a
    linear accumulator over SHA-256 share values:

    * a share on message ``m`` by the holder of public key ``pk`` is the
      integer ``H(domain, pk, m)`` modulo ``2^128``;
    * an aggregate value is the multiplicity-weighted sum of its shares'
      integers — aggregation of aggregates is plain addition, exactly
      mirroring BLS point addition, so tree aggregation's multiplicity
      semantics (:mod:`repro.aggregation.tree_agg`) carry over unchanged;
    * there is no operation removing a signer from an aggregate, and the
      accumulator is verified against the full multiplicity map, which
      mirrors the indivisibility assumption.

    Compared to :class:`repro.crypto.hash_backend.HashMultiSig` this
    backend does no per-aggregate re-hashing and carries no per-signer
    share dictionary, making aggregation O(1) per contribution — it is
    the default for large experiment sweeps.  **Not cryptographically
    secure**: shares are derivable from public data; use ``bls`` as the
    correctness reference.
    """

    name = "hashsig"

    _MODULUS = 1 << 128

    def __init__(self, domain: bytes = b"iniva-hashsig") -> None:
        self._domain = domain
        self._share_cache: Dict[Tuple[bytes, bytes], int] = {}

    # -- key management ----------------------------------------------------
    def keygen(self, seed: int) -> "KeyPair":
        secret = hashlib.sha256(
            self._domain + b"|sk|" + seed.to_bytes(16, "big", signed=True)
        ).digest()
        public = hashlib.sha256(self._domain + b"|pk|" + secret).digest()
        return KeyPair(secret_key=secret, public_key=public)

    # -- signing -----------------------------------------------------------
    def _share_value(self, public_key: bytes, message: bytes) -> int:
        key = (public_key, message)
        value = self._share_cache.get(key)
        if value is None:
            digest = hashlib.sha256(self._domain + b"|share|" + public_key + b"|" + message)
            value = int.from_bytes(digest.digest(), "big") % self._MODULUS
            if len(self._share_cache) >= 65536:
                self._share_cache.clear()
            self._share_cache[key] = value
        return value

    def sign(self, secret_key: bytes, message: bytes, signer: int) -> SignatureShare:
        public = hashlib.sha256(self._domain + b"|pk|" + secret_key).digest()
        return SignatureShare(signer=signer, value=self._share_value(public, message))

    def verify_share(self, share: SignatureShare, message: bytes, public_key: bytes) -> bool:
        return share.value == self._share_value(public_key, message)

    # -- aggregation -------------------------------------------------------
    def aggregate(self, parts: Iterable[Contribution]) -> AggregateSignature:
        parts = normalize_contributions(parts)
        multiplicities = _tally_multiplicities(parts)
        accumulator = 0
        for part, weight in parts:
            if isinstance(part, SignatureShare):
                if not isinstance(part.value, int):
                    raise TypeError("hashsig aggregation requires integer share values")
                accumulator += weight * part.value
            else:
                value = part.value
                if not isinstance(value, _HashSigAggregateValue):
                    raise TypeError("hashsig aggregation requires hashsig aggregates")
                accumulator += weight * value.accumulator
        return AggregateSignature(
            value=_HashSigAggregateValue(accumulator % self._MODULUS),
            multiplicities=multiplicities,
        )

    def verify_aggregate(
        self,
        aggregate: AggregateSignature,
        message: bytes,
        public_keys: Mapping[int, Any],
    ) -> bool:
        value = aggregate.value
        if not isinstance(value, _HashSigAggregateValue):
            return False
        expected = 0
        for signer, mult in aggregate.multiplicities.items():
            if mult <= 0 or signer not in public_keys:
                return False
            expected += mult * self._share_value(public_keys[signer], message)
        return expected % self._MODULUS == value.accumulator


_SCHEME_REGISTRY: Dict[str, type] = {}


def register_scheme(cls: type) -> type:
    """Class decorator adding a backend to the scheme registry."""
    _SCHEME_REGISTRY[cls.name] = cls
    return cls


def get_scheme(name: str, **kwargs: Any) -> MultiSignatureScheme:
    """Instantiate a registered multi-signature backend by name.

    Args:
        name: ``"hashsig"`` for the additive fast-simulation backend,
            ``"hash"`` for the dictionary-carrying hash backend, or
            ``"bls"`` for the pairing-based backend.
        **kwargs: Forwarded to the backend constructor.
    """
    try:
        cls = _SCHEME_REGISTRY[name]
    except KeyError as exc:
        known = ", ".join(sorted(_SCHEME_REGISTRY))
        raise KeyError(f"unknown multi-signature scheme {name!r}; known: {known}") from exc
    return cls(**kwargs)


register_scheme(HashSigMultiSig)

# Imported at the bottom to avoid a circular import with keys.py.
from repro.crypto.keys import KeyPair  # noqa: E402  (re-export for typing)
