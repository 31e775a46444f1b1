"""Tate pairing on the supersingular curve, with distortion map.

Provides a symmetric bilinear pairing ``e : G x G -> F_{p^2}`` on the
order-``r`` subgroup ``G`` of ``E(F_p)``, computed as the reduced Tate
pairing ``t(P, phi(Q))`` where ``phi`` is the distortion map.  This is the
pairing used by the original BLS signature scheme.

The Miller loop is inversion-free: the running point is kept in Jacobian
coordinates over raw integers, and every line/vertical evaluation is
scaled by a factor lying in ``F_p`` (``2YZ^3`` for tangents, ``ZH`` for
chords, ``Z^2`` for verticals).  Those factors are simply dropped, because
the final exponentiation ``(p^2 - 1)/r = (p - 1) * cofactor`` maps every
``F_p`` unit to one — so the *reduced* pairing value is unchanged while
the loop performs no modular inversion at all.  Numerators and
denominators are accumulated separately with a single inversion at the
end, and ``z^(p-1)`` in the final exponentiation is computed as
``conj(z) / z``, leaving only a cofactor-sized exponent.
"""

from __future__ import annotations

from repro.crypto.curve import Point, distortion_map
from repro.crypto.field import Fp, Fp2
from repro.crypto.params import CurveParams

__all__ = ["tate_pairing", "miller_loop"]


# Ladders: the Miller loop's point arithmetic and line coefficients depend
# only on the first argument P, not on Q.  A "ladder" is the per-bit list of
# line/vertical coefficient triples; evaluating a cached ladder at a new Q
# skips all the point arithmetic (roughly half the loop's work).  The hot
# path re-pairs a handful of first arguments constantly — the generator G on
# every verification's left side, H(m) on every right side within a block —
# so ladders hit the cache almost always after warm-up.
#
# Lines are normalised to the form ``l(Q) = A*yq - B*xq + C`` (numerator)
# and verticals to ``v(Q) = B*xq + C`` (denominator), all coefficients in
# F_p, so evaluation at Q in E(F_{p^2}) is a handful of int multiplications.
_LADDER_CACHE: dict = {}
_LADDER_CACHE_MAX = 128


def _build_ladder(xP: int, yP: int, params: CurveParams) -> tuple:
    """The per-bit line/vertical coefficients of ``f_{r,P}``.

    Mirrors the inversion-free Jacobian Miller loop step for step, but
    emits coefficient triples instead of evaluating them at a point.
    """
    p = params.p
    steps = []
    X, Y, Z = xP, yP, 1  # the running point T in Jacobian coordinates
    t_infinite = False

    def tangent_coeffs(X: int, Y: int, Z: int):
        """Tangent-line coefficients at T (scaled by 2YZ^3), and 2T."""
        ZZ = Z * Z % p
        if Y == 0:
            # 2-torsion: the tangent is the vertical Z^2*xq - X, and 2T = O.
            return (0, (-ZZ) % p, (-X) % p), 0, 0, 0, True
        XX = X * X % p
        YY = Y * Y % p
        Z3 = 2 * Y * Z % p
        # L = 2YZ^3 * yq + (3X^3 - 2Y^2) - 3X^2 Z^2 * xq
        A = Z3 * ZZ % p
        B = 3 * XX % p * ZZ % p
        C = (3 * X * XX - 2 * YY) % p
        # a = 0 Jacobian doubling.
        CC = YY * YY % p
        t = X + YY
        D = 2 * (t * t - XX - CC) % p
        E = 3 * XX % p
        X3 = (E * E - 2 * D) % p
        Y3 = (E * (D - X3) - 8 * CC) % p
        return (A, B, C), X3, Y3, Z3, False

    for bit in bin(params.r)[3:]:  # binary expansion of r, leading '1' skipped
        nlines = []  # (A, B, C): multiply numerator by A*yq - B*xq + C
        dverts = []  # (B, C): multiply denominator by B*xq + C
        if not t_infinite:
            line, X, Y, Z, t_infinite = tangent_coeffs(X, Y, Z)
            nlines.append(line)
            if not t_infinite:
                # Vertical at 2T, scaled by Z3^2: v = Z3^2*xq - X3.
                dverts.append((Z * Z % p, (-X) % p))
        if bit == "1":
            if t_infinite:
                # O + P = P: the line degenerates to the vertical at P.
                dverts.append((1, (-xP) % p))
                X, Y, Z = xP, yP, 1
                t_infinite = False
                steps.append((tuple(nlines), tuple(dverts)))
                continue
            ZZ = Z * Z % p
            U2 = xP * ZZ % p
            S2 = yP * Z % p * ZZ % p
            if U2 == X:
                if S2 == Y:
                    # T == P: the chord is the tangent at T.
                    line, X, Y, Z, t_infinite = tangent_coeffs(X, Y, Z)
                    nlines.append(line)
                else:
                    # T == -P: vertical line, and T + P is the identity.
                    nlines.append((0, (-ZZ) % p, (-X) % p))
                    t_infinite = True
                    steps.append((tuple(nlines), tuple(dverts)))
                    continue
            else:
                H = (U2 - X) % p
                r_ = (S2 - Y) % p
                ZH = Z * H % p
                # Chord through T and P, scaled by ZH:
                #   L = ZH*yq - r*xq + (r*xP - ZH*yP)
                nlines.append((ZH, r_, (r_ * xP - ZH * yP) % p))
                # Mixed Jacobian addition T <- T + P.
                HH = H * H % p
                HHH = H * HH % p
                V = X * HH % p
                X = (r_ * r_ - HHH - 2 * V) % p
                Y = (r_ * (V - X) - Y * HHH) % p
                Z = ZH
            if not t_infinite:
                dverts.append((Z * Z % p, (-X) % p))
        steps.append((tuple(nlines), tuple(dverts)))
    return tuple(steps)


def miller_loop(p_point: Point, q_point: Point, params: CurveParams) -> Fp2:
    """Compute the Miller function ``f_{r,P}(Q)`` up to ``F_p`` factors.

    ``p_point`` must live in ``E(F_p)``; ``q_point`` may live in ``E(F_p)``
    or ``E(F_{p^2})`` (the distorted image used by the pairing).  The
    result equals the textbook Miller function times a unit of ``F_p``,
    which the reduced-pairing exponentiation in :func:`tate_pairing`
    eliminates.  The ladder of line coefficients for ``P`` is memoised, so
    repeated pairings with the same first argument (the generator, the
    block's message hash) skip the point arithmetic entirely.
    """
    p = params.p
    if p_point.is_infinity or q_point.is_infinity:
        return Fp2.one(p)
    if not isinstance(p_point.x, Fp):
        raise TypeError("miller_loop expects its first argument in E(F_p)")
    xP, yP = p_point.x.value, p_point.y.value
    key = (p, params.r, xP, yP)
    steps = _LADDER_CACHE.get(key)
    if steps is None:
        steps = _build_ladder(xP, yP, params)
        if len(_LADDER_CACHE) >= _LADDER_CACHE_MAX:
            _LADDER_CACHE.clear()
        _LADDER_CACHE[key] = steps

    qx, qy = q_point.x, q_point.y
    if isinstance(qx, Fp2):
        xq0, xq1 = qx.c0, qx.c1
    else:
        xq0, xq1 = qx.value, 0
    if isinstance(qy, Fp2):
        yq0, yq1 = qy.c0, qy.c1
    else:
        yq0, yq1 = qy.value, 0

    n0, n1 = 1, 0  # numerator accumulator, an F_{p^2} value (c0, c1)
    d0, d1 = 1, 0  # denominator accumulator
    for nlines, dverts in steps:
        n0, n1 = (n0 * n0 - n1 * n1) % p, 2 * n0 * n1 % p
        d0, d1 = (d0 * d0 - d1 * d1) % p, 2 * d0 * d1 % p
        for A, B, C in nlines:
            l0 = (A * yq0 - B * xq0 + C) % p
            l1 = (A * yq1 - B * xq1) % p
            n0, n1 = (n0 * l0 - n1 * l1) % p, (n0 * l1 + n1 * l0) % p
        for B, C in dverts:
            v0 = (B * xq0 + C) % p
            v1 = B * xq1 % p
            d0, d1 = (d0 * v0 - d1 * v1) % p, (d0 * v1 + d1 * v0) % p
    return Fp2(n0, n1, p) * Fp2(d0, d1, p).inverse()


def _fp2_pow(c0: int, c1: int, exponent: int, p: int) -> Fp2:
    """Raw-integer square-and-multiply for ``F_{p^2}`` exponentiation."""
    r0, r1 = 1, 0
    b0, b1 = c0 % p, c1 % p
    while exponent:
        if exponent & 1:
            r0, r1 = (r0 * b0 - r1 * b1) % p, (r0 * b1 + r1 * b0) % p
        b0, b1 = (b0 * b0 - b1 * b1) % p, 2 * b0 * b1 % p
        exponent >>= 1
    return Fp2(r0, r1, p)


# Non-adjacent form of the fixed cofactor exponent, cached per value.
_NAF_CACHE: dict = {}


def _naf_digits(k: int) -> list:
    digits = _NAF_CACHE.get(k)
    if digits is not None:
        return digits
    original = k
    digits = []
    while k:
        if k & 1:
            d = 2 - (k & 3)  # 1 or -1; subtracting leaves two zero bits
            digits.append(d)
            k -= d
        else:
            digits.append(0)
        k >>= 1
    digits.reverse()
    _NAF_CACHE[original] = digits
    return digits


def _fp2_pow_unitary(c0: int, c1: int, exponent: int, p: int) -> Fp2:
    """Exponentiation specialised to norm-1 (unitary) ``F_{p^2}`` elements.

    A value ``z^(p-1)`` has norm 1, which buys two shortcuts: squaring is
    ``(2a^2 - 1, 2ab)`` — two multiplications instead of three — and the
    inverse is the conjugate, so the fixed exponent can run in signed-digit
    (NAF) form with ~1/3 as many multiplies as binary square-and-multiply.
    Matches :func:`_fp2_pow` bit for bit on unitary inputs.
    """
    b0, b1 = c0 % p, c1 % p
    nb1 = (-b1) % p  # conjugate == inverse for unitary values
    r0, r1 = 1, 0
    for d in _naf_digits(exponent):
        r0, r1 = (2 * r0 * r0 - 1) % p, 2 * r0 * r1 % p
        if d == 1:
            r0, r1 = (r0 * b0 - r1 * b1) % p, (r0 * b1 + r1 * b0) % p
        elif d == -1:
            r0, r1 = (r0 * b0 - r1 * nb1) % p, (r0 * nb1 + r1 * b0) % p
    return Fp2(r0, r1, p)


def tate_pairing(p_point: Point, q_point: Point) -> Fp2:
    """The reduced, distorted Tate pairing ``e(P, Q) = t(P, phi(Q))``.

    Both arguments must be points in the order-``r`` subgroup of
    ``E(F_p)``.  The result is an ``r``-th root of unity in ``F_{p^2}``;
    ``e(aP, bQ) = e(P, Q)^(ab)``, ``e(G, G) != 1`` for the generator, and
    the pairing is symmetric (``phi`` commutes with the group law), so
    callers are free to put the cache-friendlier argument first.
    """
    params = p_point.params
    if p_point.is_infinity or q_point.is_infinity:
        return Fp2.one(params.p)
    distorted = distortion_map(q_point)
    raw = miller_loop(p_point, distorted, params)
    # (p^2 - 1)/r == (p - 1) * cofactor, and z^(p-1) = conj(z) * z^-1.
    unitary = raw.conjugate() * raw.inverse()
    return _fp2_pow_unitary(unitary.c0, unitary.c1, params.cofactor, params.p)
