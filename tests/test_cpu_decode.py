"""The IDU's memoised instruction decode and the int-keyed opcode table.

``decode_word`` caches a pure function of the instruction word, so the
cache holds no machine state: every word must decode exactly as the
uncached path decodes it, undefined and ATTN words included, and the
cached value must be immutable, since every dispatch of the word shares
it.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.cpu.idu import DECODE_CACHE_WORDS, _decode_fields, decode_word
from repro.isa import Opcode, all_opinfo, decode, encode, op_info
from repro.isa.opcodes import is_valid_opcode

words = st.integers(0, 0xFFFFFFFF)


@given(words)
def test_memoised_decode_equals_the_uncached_decode(word):
    instr = decode(word)
    dispatched = is_valid_opcode(instr.op) and instr.op != Opcode.ATTN
    cached = decode_word(word)
    assert (cached is not None) == dispatched
    if dispatched:
        assert cached == _decode_fields(instr)
        assert decode_word(word) is cached


@given(st.sampled_from([info.opcode for info in all_opinfo()
                        if info.opcode is not Opcode.ATTN]),
       st.integers(0, 31), st.integers(0, 31), st.integers(0, 31))
def test_every_opcode_decodes_as_uncached(op, rt, ra, rb):
    word = encode(op, rt=rt, ra=ra, rb=rb)
    assert decode_word(word) == _decode_fields(decode(word))


def test_the_cached_decode_is_immutable():
    dec = decode_word(encode(Opcode.ADD, rt=1, ra=2, rb=3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        dec.rt = 4
    assert all(isinstance(getattr(dec, field.name), (int, str, tuple))
               for field in dataclasses.fields(dec))
    hash(dec)


def test_the_decode_cache_is_bounded():
    assert decode_word.cache_info().maxsize == DECODE_CACHE_WORDS


def test_op_info_is_keyed_by_the_plain_number():
    for info in all_opinfo():
        assert op_info(int(info.opcode)) is info
        assert op_info(info.opcode) is info
    for number in range(64):
        if not is_valid_opcode(number):
            with pytest.raises(KeyError):
                op_info(number)
