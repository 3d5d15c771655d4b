"""Static tables and predicates for the Hamming [7,4,3] / Steane [[7,1,3]] pair.

Coordinate convention: position 1 is the leftmost bit of a printed word, so
the parity-check rows are 1010101 (support {1,3,5,7}), 0110011 ({2,3,6,7})
and 0001111 ({4,5,6,7}).  The even-weight codewords form the self-dual-side
subcode (the span of the check rows); the odd-weight codewords are its coset
under the logical flip on positions {1,2,3}.  The parity of a codeword is
its logical value.  The tables are plain module constants: the check rows
`H_ROWS`, the classes `EVEN` and `ODD`, all 16 `CODEWORDS`, and
`LOGICAL_SUPPORT`, which both logical operators act on; `syndrome` checks a
word against `H_ROWS`.
"""

from __future__ import annotations

from itertools import combinations, product

Word = tuple[int, ...]

H_ROWS: tuple[Word, ...] = (
    (1, 0, 1, 0, 1, 0, 1),
    (0, 1, 1, 0, 0, 1, 1),
    (0, 0, 0, 1, 1, 1, 1),
)

# logical X and logical Z both act on positions {1, 2, 3}
LOGICAL_SUPPORT: tuple[int, ...] = (1, 2, 3)
LOGICAL_WORD: Word = (1, 1, 1, 0, 0, 0, 0)


def word(text: str) -> Word:
    """Parse a 7-character bit string, leftmost character = position 1."""
    if len(text) != 7 or set(text) - {"0", "1"}:
        raise ValueError(f"not a 7-bit word: {text!r}")
    return tuple(int(c) for c in text)


def word_str(w: Word) -> str:
    return "".join(str(b) for b in w)


def xor(u: Word, v: Word) -> Word:
    return tuple(a ^ b for a, b in zip(u, v))


def weight(w: Word) -> int:
    return sum(w)


def logical_value(w: Word) -> int:
    """Hamming-weight parity: 0 on the even codeword class, 1 on the odd."""
    return weight(w) & 1


def encode_codeword(bit: int, seeds: tuple[int, int, int]) -> Word:
    """Codeword with logical value `bit`: seed combination of the check rows,
    then the logical flip on positions {1,2,3} when bit is 1.  Uniform seeds
    give the uniform distribution over the 8 codewords of that parity."""
    w = (0,) * 7
    for s, row in zip(seeds, H_ROWS):
        if s & 1:
            w = xor(w, row)
    if bit & 1:
        w = xor(w, LOGICAL_WORD)
    return w


# the 8 even-weight codewords (the span of the check rows), the 8 odd-weight
# ones (their coset under the logical flip) and all 16, each sorted
EVEN: tuple[Word, ...] = tuple(
    sorted(encode_codeword(0, seeds) for seeds in product((0, 1), repeat=3))
)
ODD: tuple[Word, ...] = tuple(sorted(xor(w, LOGICAL_WORD) for w in EVEN))
CODEWORDS: tuple[Word, ...] = tuple(sorted(EVEN + ODD))


def syndrome(w: Word) -> tuple[int, ...]:
    """Parity of `w` against each check row; all zero on a codeword."""
    return tuple(sum(a & b for a, b in zip(row, w)) & 1 for row in H_ROWS)


def is_codeword(w: Word) -> bool:
    return not any(syndrome(w))


def overlap_parity(u: Word, v: Word) -> int:
    """Parity of the common support of two codewords.

    Equals logical_value(u) * logical_value(v): even codewords have even
    overlap with everything, odd codewords have odd overlap among themselves.
    This is what makes the transversal AND of two blocks land in the right
    parity class of the even-weight ancilla.
    """
    if not is_codeword(u) or not is_codeword(v):
        raise ValueError("overlap_parity is defined on codewords only")
    return sum(a & b for a, b in zip(u, v)) & 1


def pair_marginal(parity: int, i: int, j: int) -> dict[tuple[int, int], int]:
    """Counts of the four patterns at positions (i, j) over one codeword class."""
    if i == j:
        raise ValueError("positions must be distinct")
    cls = EVEN if parity == 0 else ODD
    counts = {(a, b): 0 for a in (0, 1) for b in (0, 1)}
    for w in cls:
        counts[(w[i - 1], w[j - 1])] += 1
    return counts


def pairwise_uniformity_check() -> dict:
    """Verify every two-position restriction of each codeword class is uniform.

    Supports the single/pair-wire secrecy arguments: leaking any one or two
    positions of a uniformly drawn codeword reveals nothing about its parity.
    """
    report = {"pairs_checked": 0, "failures": []}
    for parity in (0, 1):
        for i, j in combinations(range(1, 8), 2):
            counts = pair_marginal(parity, i, j)
            report["pairs_checked"] += 1
            if any(c != 2 for c in counts.values()):
                report["failures"].append(
                    {"parity": parity, "positions": [i, j],
                     "counts": {f"{a}{b}": c for (a, b), c in counts.items()}}
                )
    report["uniform"] = not report["failures"]
    return report


def steane_report() -> dict:
    """JSON-ready dump of the tables plus the property checks."""
    dual = all(
        sum(a & b for a, b in zip(u, v)) & 1 == 0 for u in EVEN for v in CODEWORDS
    )
    overlap = all(
        overlap_parity(u, v) == logical_value(u) * logical_value(v)
        for u in CODEWORDS for v in CODEWORDS
    )
    codeset = set(CODEWORDS)
    closure = all(
        xor(u, v) in codeset
        and logical_value(xor(u, v)) == logical_value(u) ^ logical_value(v)
        for u in CODEWORDS for v in CODEWORDS
    )
    supports = [tuple(i + 1 for i, b in enumerate(r) if b) for r in H_ROWS]
    return {
        "H": [word_str(r) for r in H_ROWS],
        "codewords_even": [word_str(w) for w in EVEN],
        "codewords_odd": [word_str(w) for w in ODD],
        "logical_x_support": list(LOGICAL_SUPPORT),
        "logical_z_support": list(LOGICAL_SUPPORT),
        "generators": [
            {"type": kind, "support": list(sup)} for kind in ("Z", "X") for sup in supports
        ],
        "checks": {
            "dual_containment": dual,
            "overlap_parity_identity": overlap,
            "xor_closure": closure,
            "pairwise_uniformity": pairwise_uniformity_check()["uniform"],
        },
    }
