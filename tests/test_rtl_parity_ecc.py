"""Parity and SEC-DED ECC codec properties."""

from hypothesis import given, strategies as st

from repro.rtl import EccStatus, ecc_decode, ecc_encode, parity

words = st.integers(0, 0xFFFFFFFF)


class TestParity:
    def test_known_values(self):
        assert parity(0) == 0
        assert parity(1) == 1
        assert parity(0b11) == 0
        assert parity(0xFFFFFFFF) == 0

    @given(words, words)
    def test_parity_is_xor_homomorphic(self, a, b):
        assert parity(a ^ b) == parity(a) ^ parity(b)


class TestEccClean:
    @given(words)
    def test_clean_decode(self, data):
        check = ecc_encode(data)
        decoded, decoded_check, status = ecc_decode(data, check)
        assert status is EccStatus.OK
        assert decoded == data
        assert decoded_check == check

    @given(words)
    def test_check_field_fits_seven_bits(self, data):
        assert 0 <= ecc_encode(data) < 128


class TestEccSingleBit:
    @given(words, st.integers(0, 31))
    def test_data_bit_corrected(self, data, bit):
        check = ecc_encode(data)
        decoded, _, status = ecc_decode(data ^ (1 << bit), check)
        assert status is EccStatus.CORRECTED
        assert decoded == data

    @given(words, st.integers(0, 6))
    def test_check_bit_corrected(self, data, bit):
        check = ecc_encode(data)
        decoded, decoded_check, status = ecc_decode(data, check ^ (1 << bit))
        assert status is EccStatus.CORRECTED
        assert decoded == data
        assert decoded_check == check


class TestEccDoubleBit:
    @given(words, st.integers(0, 31), st.integers(0, 31))
    def test_double_data_flip_detected(self, data, bit_a, bit_b):
        if bit_a == bit_b:
            return
        check = ecc_encode(data)
        _, _, status = ecc_decode(data ^ (1 << bit_a) ^ (1 << bit_b), check)
        assert status is EccStatus.UNCORRECTABLE

    @given(words, st.integers(0, 31), st.integers(0, 6))
    def test_data_plus_check_flip_detected(self, data, data_bit, check_bit):
        check = ecc_encode(data)
        _, _, status = ecc_decode(data ^ (1 << data_bit),
                                  check ^ (1 << check_bit))
        assert status is EccStatus.UNCORRECTABLE

    @given(words)
    def test_never_miscorrects_single(self, data):
        """Exhaustive over all 39 single-bit positions for one word."""
        check = ecc_encode(data)
        for bit in range(32):
            decoded, _, status = ecc_decode(data ^ (1 << bit), check)
            assert (decoded, status) == (data, EccStatus.CORRECTED)
        for bit in range(7):
            decoded, _, status = ecc_decode(data, check ^ (1 << bit))
            assert (decoded, status) == (data, EccStatus.CORRECTED)


# ----------------------------------------------------------------------
# The byte-table codec against the bit-by-bit one it replaced.

def _reference_masks() -> list[int]:
    """Hamming check masks over the 32 data bits: data bit ``b`` sits at
    the ``b``-th codeword position (1-based) that is not a power of two,
    and check bit ``i`` covers the positions with bit ``i`` set."""
    positions = [pos for pos in range(1, 40) if pos & (pos - 1)][:32]
    return [sum(1 << bit for bit, pos in enumerate(positions)
                if pos & (1 << i)) for i in range(6)]


_MASKS = _reference_masks()


def reference_ecc_encode(data: int) -> int:
    """The bitwise encoder: one parity per check bit, then the overall
    parity over data and check bits."""
    data &= 0xFFFFFFFF
    check = 0
    for i, mask in enumerate(_MASKS):
        check |= parity(data & mask) << i
    overall = parity(data) ^ parity(check)
    return check | (overall << 6)


def reference_ecc_decode(data: int, check: int):
    """The bitwise decoder (``(data, check, status)``)."""
    data &= 0xFFFFFFFF
    check &= 0x7F
    syndrome = 0
    for i, mask in enumerate(_MASKS):
        if parity(data & mask) != ((check >> i) & 1):
            syndrome |= 1 << i
    overall_ok = (parity(data) ^ parity(check & 0x3F)
                  ^ ((check >> 6) & 1)) == 0
    positions = [pos for pos in range(1, 40) if pos & (pos - 1)][:32]
    if syndrome == 0 and overall_ok:
        return data, check, EccStatus.OK
    if syndrome == 0:
        return data, check ^ 0x40, EccStatus.CORRECTED
    if not overall_ok:
        if syndrome in positions:
            return (data ^ (1 << positions.index(syndrome)), check,
                    EccStatus.CORRECTED)
        if syndrome & (syndrome - 1) == 0:
            return (data, check ^ (1 << (syndrome.bit_length() - 1)),
                    EccStatus.CORRECTED)
    return data, check, EccStatus.UNCORRECTABLE


def _sparse_words():
    """Zero and every word with one or two bits set."""
    yield 0
    for a in range(32):
        yield 1 << a
        for b in range(a + 1, 32):
            yield (1 << a) | (1 << b)


class TestEccTables:
    def test_encode_matches_reference_on_sparse_words(self):
        for data in _sparse_words():
            assert ecc_encode(data) == reference_ecc_encode(data), hex(data)

    @given(words)
    def test_encode_matches_reference(self, data):
        check = ecc_encode(data)
        assert check == reference_ecc_encode(data)
        assert ecc_decode(data, check)[2] is EccStatus.OK

    @given(words, st.sets(st.integers(0, 38), max_size=2))
    def test_decode_matches_reference(self, data, flips):
        """Every codeword with up to two flipped bits (data bits 0-31,
        check bits 32-38) decodes as the bitwise decoder decodes it."""
        check = ecc_encode(data)
        for bit in flips:
            if bit < 32:
                data ^= 1 << bit
            else:
                check ^= 1 << (bit - 32)
        assert ecc_decode(data, check) == reference_ecc_decode(data, check)
