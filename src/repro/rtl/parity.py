"""Parity and SEC-DED ECC codecs.

The pipeline and register-file latches of the modelled core are parity
protected (as on POWER6); the recovery unit's architected-state checkpoint
is protected by a real Hamming SEC-DED code so that single-bit upsets in
the checkpoint are correctable while double-bit upsets force a checkstop.
"""

from __future__ import annotations

import enum

_DATA_BITS = 32
_CHECK_BITS = 6  # Hamming check bits for 32 data bits (positions 1..38)
_OVERALL_BIT = 1 << _CHECK_BITS  # extended parity bit for DED


def parity(value: int) -> int:
    """Even parity of an arbitrary-width integer (0 or 1)."""
    return value.bit_count() & 1


def _build_positions() -> list[int]:
    """Codeword positions (1-based) used for the 32 data bits.

    Powers of two are reserved for check bits; everything else carries data.
    """
    positions = []
    pos = 1
    while len(positions) < _DATA_BITS:
        if pos & (pos - 1):  # not a power of two
            positions.append(pos)
        pos += 1
    return positions


_DATA_POSITIONS = _build_positions()

# _CHECK_MASKS[i] = mask over *data bits* covered by check bit i.
_CHECK_MASKS = []
for _i in range(_CHECK_BITS):
    _mask = 0
    for _bit, _pos in enumerate(_DATA_POSITIONS):
        if _pos & (1 << _i):
            _mask |= 1 << _bit
    _CHECK_MASKS.append(_mask)

# Map from syndrome value -> data-bit index (for single-bit correction).
_SYNDROME_TO_DATA_BIT = {pos: bit for bit, pos in enumerate(_DATA_POSITIONS)}


class EccStatus(enum.Enum):
    """Result of an ECC decode."""

    OK = "ok"
    CORRECTED = "corrected"
    UNCORRECTABLE = "uncorrectable"


def _encode_bits(data: int) -> int:
    """The check field of ``data``, one check bit at a time (builds the
    byte tables below)."""
    check = 0
    for i, mask in enumerate(_CHECK_MASKS):
        check |= parity(data & mask) << i
    overall = parity(data) ^ parity(check)
    return check | (overall << _CHECK_BITS)


# Every check bit, the overall parity included, is an XOR of data bits:
# the code is linear over GF(2), so a word's check field is the XOR of
# the check fields of its four bytes, each in its own lane.
_LANE0, _LANE1, _LANE2, _LANE3 = (
    tuple(_encode_bits(byte << shift) for byte in range(256))
    for shift in (0, 8, 16, 24))


def ecc_encode(data: int) -> int:
    """Compute the 7-bit check field (6 Hamming bits + overall parity)."""
    data &= 0xFFFFFFFF
    return (_LANE0[data & 0xFF] ^ _LANE1[(data >> 8) & 0xFF]
            ^ _LANE2[(data >> 16) & 0xFF] ^ _LANE3[data >> 24])


def ecc_decode(data: int, check: int) -> tuple[int, int, EccStatus]:
    """Decode a (data, check) pair.

    Returns ``(corrected_data, corrected_check, status)``.  Single-bit
    errors anywhere in the codeword are corrected; double-bit errors are
    flagged uncorrectable.
    """
    data &= (1 << _DATA_BITS) - 1
    check &= (1 << (_CHECK_BITS + 1)) - 1
    # The Hamming bits recomputed from the data, against the stored
    # ones; the overall parity covers data and check field together.
    syndrome = (ecc_encode(data) ^ check) & (_OVERALL_BIT - 1)
    overall_ok = not (data.bit_count() + check.bit_count()) & 1

    if syndrome == 0 and overall_ok:
        return data, check, EccStatus.OK
    if syndrome == 0 and not overall_ok:
        # Error in the overall parity bit itself: correctable.
        return data, check ^ _OVERALL_BIT, EccStatus.CORRECTED
    if not overall_ok:
        # Odd number of flipped bits with a nonzero syndrome: single-bit.
        if syndrome in _SYNDROME_TO_DATA_BIT:
            return data ^ (1 << _SYNDROME_TO_DATA_BIT[syndrome]), check, EccStatus.CORRECTED
        if syndrome & (syndrome - 1) == 0:
            # Syndrome is a power of two: the flipped bit is a check bit.
            check_bit = syndrome.bit_length() - 1
            return data, check ^ (1 << check_bit), EccStatus.CORRECTED
        return data, check, EccStatus.UNCORRECTABLE
    # Even number of errors with nonzero syndrome: uncorrectable double.
    return data, check, EccStatus.UNCORRECTABLE
