"""Code tables: codeword classes, overlap lemma, pairwise uniformity."""

from itertools import combinations, product

import pytest

from lrcirc import steane
from lrcirc.steane import (
    CODEWORDS,
    EVEN,
    H_ROWS,
    ODD,
    encode_codeword,
    logical_value,
    overlap_parity,
    pair_marginal,
    pairwise_uniformity_check,
    syndrome,
    word,
    word_str,
    xor,
)

# Reference codeword tables, frozen independently of the code under test.
# Each class is an affine space of dimension 3 (8 words); the last word of
# each list is forced by linearity from the others:
# 1101001 = 1010101 ^ 0110011 ^ 0001111 and 0010110 = 1101001 ^ 1110000.
REFERENCE_EVEN = ["0000000", "0001111", "0110011", "1010101",
                  "0111100", "1011010", "1100110"]
REFERENCE_ODD = ["1111111", "1110000", "1001100", "0101010",
                 "1000011", "0100101", "0011001"]
FULL_EVEN = sorted(REFERENCE_EVEN + ["1101001"])
FULL_ODD = sorted(REFERENCE_ODD + ["0010110"])


def test_class_sizes():
    assert len(EVEN) == 8
    assert len(ODD) == 8
    assert len(CODEWORDS) == 16
    assert set(EVEN) < set(CODEWORDS)


def test_codeword_classes_match_reference_tables():
    assert sorted(word_str(w) for w in EVEN) == FULL_EVEN
    assert sorted(word_str(w) for w in ODD) == FULL_ODD


def test_weights_split_by_parity():
    assert all(sum(w) % 2 == 0 for w in EVEN)
    assert all(sum(w) % 2 == 1 for w in ODD)


def test_check_matrix_annihilates_code():
    for c in CODEWORDS:
        assert syndrome(c) == (0, 0, 0)


def test_check_rows_have_documented_supports():
    supports = [tuple(i + 1 for i, b in enumerate(r) if b) for r in H_ROWS]
    assert supports == [(1, 3, 5, 7), (2, 3, 6, 7), (4, 5, 6, 7)]


@pytest.mark.parametrize(
    "w,expected",
    [("0001111", 0), ("1110000", 1), ("0000000", 0)],
)
def test_logical_value(w, expected):
    assert logical_value(word(w)) == expected


def test_word_refuses_a_short_string():
    with pytest.raises(ValueError, match="not a 7-bit word: '0101'"):
        word("0101")


def test_encode_codeword_examples():
    assert encode_codeword(0, (0, 0, 0)) == word("0000000")
    assert encode_codeword(1, (0, 0, 0)) == word("1110000")


def test_encode_codeword_enumerates_even_class():
    outs = {word_str(encode_codeword(0, s)) for s in product((0, 1), repeat=3)}
    assert sorted(outs) == FULL_EVEN
    outs1 = {word_str(encode_codeword(1, s)) for s in product((0, 1), repeat=3)}
    assert sorted(outs1) == FULL_ODD


def test_encode_codeword_parity_postcondition():
    for b in (0, 1):
        for s in product((0, 1), repeat=3):
            assert logical_value(encode_codeword(b, s)) == b


def test_overlap_parity_examples():
    w = word
    assert overlap_parity(w("0001111"), w("0001111")) == 0
    # and("1110000","1001100") = 1000000, weight 1
    assert overlap_parity(w("1110000"), w("1001100")) == 1
    # and("0001111","0110011") = 0000011, weight 2
    assert overlap_parity(w("0001111"), w("0110011")) == 0


def test_overlap_parity_rejects_non_codewords():
    with pytest.raises(ValueError):
        overlap_parity(word("1000000"), word("0000000"))


def test_overlap_identity_all_256_pairs():
    for u in CODEWORDS:
        for v in CODEWORDS:
            assert overlap_parity(u, v) == logical_value(u) * logical_value(v)


def test_dual_containment():
    for u in EVEN:
        for v in CODEWORDS:
            assert sum(a & b for a, b in zip(u, v)) % 2 == 0


def test_xor_closure_with_parity_addition():
    codeset = set(CODEWORDS)
    for u in CODEWORDS:
        for v in CODEWORDS:
            w = xor(u, v)
            assert w in codeset
            assert logical_value(w) == logical_value(u) ^ logical_value(v)


def test_pair_marginal_counts():
    # positions (1,2) of the even class: every pattern exactly twice
    counts = pair_marginal(0, 1, 2)
    assert counts == {(0, 0): 2, (0, 1): 2, (1, 0): 2, (1, 1): 2}


def test_pair_marginal_rejects_degenerate_pair():
    with pytest.raises(ValueError):
        pair_marginal(0, 3, 3)


def test_pairwise_uniformity_all_pairs_both_classes():
    report = pairwise_uniformity_check()
    assert report["uniform"]
    assert report["pairs_checked"] == 2 * len(list(combinations(range(7), 2)))


def test_report_checks_all_pass():
    report = steane.steane_report()
    assert all(report["checks"].values())
