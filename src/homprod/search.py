"""The search for the lightest nontrivial cycle, `min_cycle`, for both fields.

The comment below states the method and the packed layout.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import BudgetError, NoLogicalsError, WitnessError
from .linalg import (
    CONJ, INV, MUL, Reduction, adjoint_image, matmul_codes, null_basis, residue, rref_codes
)

# Vectors a distance search may visit, and the bytes of one enumeration table
# or block of packed words in a distance search.
DEFAULT_BUDGET = 1 << 32
_TABLE_BYTES = 1 << 20

# One information-set (Brouwer-Zimmermann) search serves both fields.  The
# cycles of a matrix a are ker(a) and the trivial ones im(a) = ker(a*)^perp,
# so a cycle is trivial iff its Hermitian products with a basis of ker(a*)
# all vanish.  Those products are linear in the cycle, so each kernel
# generator carries them as extra syndrome columns and every combination of
# generators carries its own test.  GF(2) is the 0/1 subfield: its operators
# run on 0/1 codes with the single scalar 1, GF(4) ones with {1, w, W}.
#
# Every basis comes from the reduced forms of a and a* that the caller
# hands in, which a Gf4Boundary or BoundaryOperator keeps from its
# constructor (a self-adjoint delta is its own delta*).  rref(a) gives the
# kernel basis, the identity on the free columns of a and so the first
# information set; rref(a*) gives ker(a*) and, conjugated, the reduced
# basis of im(a) against which the witness check reduces the witness.
#
# Combinations are enumerated packed.  Each information set's generators are
# packed once per search, with every scalar multiple: plane p of a vector
# holds bit p of its codes, the n coordinates first and the syndrome bits
# after them, over as many uint64 words as they need.  A combination is then
# an XOR of packed columns, its weight the popcount of the OR of its planes
# over the coordinate bits, and it is nontrivial when any syndrome bit is
# set.  Only the candidates at the best weight are unpacked to codes, to be
# scaled to a leading 1 and compared.  So one combination per class of
# scalar multiples is enough: cached tables of s-generator combinations hold
# the one whose highest generator has coefficient 1.  A round whose table
# fits in _TABLE_BYTES is that table, built once and kept for the next.
#
# The sets that join in the same round, max(1, k - r_j), share one
# enumeration: their packed generators are stacked along the word axis, so
# one table list, one `_round` per round and one `_fold` per block serve
# them all, and each set's weights, syndrome tests and candidates come from
# its own rows.  A set that never joins costs nothing.  A round runs the
# sets in join order, the active groups first and within a group a prefix
# of its stacked rows, and only as many as the bound still needs.


def _information_sets(gens: np.ndarray, free: list[int]) -> list[tuple[np.ndarray, int]]:
    """Generator matrices systematic on disjoint column sets, with their ranks.

    `gens` is the first set, the identity on the coordinates outside `free`,
    the pivot columns of the operator.  Each later matrix reduces the
    generators on the columns no earlier set used, so its first `rank` rows
    form an identity on its own set and the other rows vanish there.  The
    sets end once the generators vanish on every unused coordinate.
    """
    sets = [(gens, len(gens))]
    while gens[:, free].any():
        order = free + sorted(set(range(gens.shape[1])) - set(free))
        reduced, pivots = rref_codes(gens[:, order])
        rank = sum(p < len(free) for p in pivots)
        sets.append((reduced[:, np.argsort(order)], rank))
        used = {order[p] for p in pivots[:rank]}
        free = [c for c in free if c not in used]
    return sets


def _pack(codes: np.ndarray, planes: int, words: int) -> np.ndarray:
    """Codes along the last axis as `planes` bit planes of `words` uint64 words each.

    Plane p holds bit p of every code, coordinate j in bit j % 64 of word
    j // 64, and the planes follow one another.
    """
    lead, width = codes.shape[:-1], codes.shape[-1]
    bits = np.zeros((*lead, planes, 64 * words), dtype=np.uint8)
    bits[..., :width] = codes[..., None, :] >> np.arange(planes, dtype=np.uint8)[:, None] & 1
    packed = np.packbits(bits, axis=-1, bitorder="little").view("<u8")
    return packed.reshape(*lead, planes * words)


def _mask(lo: int, hi: int, words: int) -> np.ndarray:
    """One plane's words with the bits of coordinates lo..hi-1 set."""
    bits = (1 << hi) - (1 << lo)
    return np.array([bits >> 64 * i & (1 << 64) - 1 for i in range(words)], dtype=np.uint64)


def _unpack(vecs: np.ndarray, planes: int, n: int) -> np.ndarray:
    """The first n codes of each packed vector of `vecs`, shape (count, planes, words)."""
    raw = np.ascontiguousarray(vecs, dtype="<u8").reshape(len(vecs), -1).view(np.uint8)
    bits = np.unpackbits(raw, axis=1, bitorder="little").reshape(len(raw), planes, -1)
    codes = bits[:, 0, :n]
    for p in range(1, planes):
        codes = codes | bits[:, p, :n] << p
    return codes


def _extend(gens: np.ndarray, table):
    """The table of combinations with one more generator than `table`.

    `gens[i, c]` is generator i times scalar c, packed.  A table holds every
    combination of s generators whose highest generator has coefficient 1,
    the others any nonzero one, so one per class of scalar multiples, as a
    packed column, ordered by lowest generator descending, together with
    `starts[i]`, the number of leading columns whose lowest generator is at
    least i.  Adding a lower generator with every scalar keeps that form.
    """
    vecs, starts = table
    k, m, size = gens.shape
    ends = np.cumsum([m * starts[i + 1] for i in range(k - 1, -1, -1)]).tolist()
    out = np.empty((size, ends[-1]), dtype=np.uint64)
    for i, end in zip(range(k - 1, -1, -1), ends):
        w = starts[i + 1]
        block = out[:, end - m * w : end].reshape(size, m, w)
        np.bitwise_xor(vecs[:, None, :w], gens[i].T[:, :, None], out=block)
    return out, [*ends[::-1], 0]


def _round(gens: np.ndarray, t: int, tables: list):
    """Every combination of exactly t generators whose highest coefficient is 1.

    `gens[i, c]` is generator i times scalar c, packed.  s <= t is as large
    as tables[2] to tables[s] each fit in _TABLE_BYTES; tables[1] is kept at
    any size.  When s = t the round is that table, built once and kept for the
    next round.  Otherwise the last s generators come from tables[s] and the
    first t - s, the head, take every coefficient: its highest generator r
    over the tail, then each set of lower ones at once.  Blocks yielded, one
    packed combination per column, stay near _TABLE_BYTES.
    """
    k, m, size = gens.shape
    s = 1
    while s < t and math.comb(k, s + 1) * m**s * 8 * size <= _TABLE_BYTES:
        s += 1
    while len(tables) <= s:
        tables.append(_extend(gens, tables[-1]))
    vecs, starts = tables[s]
    cap = max(1, _TABLE_BYTES // (8 * size))
    if s == t:
        yield from (vecs[:, i : i + cap] for i in range(0, vecs.shape[1], cap))
        return
    total = math.comb(k, t) * m ** (t - 1)
    buf = np.empty((size, min(total, max(cap, m * vecs.shape[1]))), dtype=np.uint64)
    used = 0
    for r in range(t - s - 1, k - s):
        # table s + 1's columns whose lowest generator is r, so XORs run long
        seg = (vecs[:, None, : starts[r + 1]] ^ gens[r].T[:, :, None]).reshape(size, -1)
        for rows in itertools.combinations(range(r), t - s - 1):
            heads = np.zeros((1, size), dtype=np.uint64)
            for g in rows:
                heads = (heads[:, None] ^ gens[g][None]).reshape(-1, size)
            # as many heads per XOR as fit in the buffer, each against the whole segment
            step = max(1, buf.shape[1] // seg.shape[1])
            for i in range(0, len(heads), step):
                part = heads[i : i + step]
                width = len(part) * seg.shape[1]
                if used + width > buf.shape[1]:
                    yield buf[:, :used]
                    used = 0
                out = buf[:, used : used + width].reshape(size, len(part), seg.shape[1])
                np.bitwise_xor(seg[:, None, :], part.T[:, :, None], out=out)
                used += width
    if used:
        yield buf[:, :used]


def _fold(block: np.ndarray, planes: int, n: int, data, syndrome, extra: int, cut: int, best):
    """Merge a packed block into the running (weight, lex)-least nontrivial cycle.

    The block stacks the rows of one or more information sets over the same
    combinations, so it reads as (sets, planes, words, columns), and each
    set's weight, syndrome test and candidates come from its own rows.
    `data` and `syndrome` mask one plane's words to the n coordinates and
    to the `extra` syndrome bits.  `cut` is the weight of `best`, or the
    weight limit while there is none.  Each candidate is scaled so that its
    first nonzero entry is 1.
    """
    words, count = len(data), block.shape[1]
    block = block.reshape(-1, planes, words, count)
    either = block[:, 0]
    for p in range(1, planes):
        either = either | block[:, p]
    # the syndrome bits add at most `extra` to a column's weight, so only the
    # columns within cut + extra are read again, set by set, without them
    total = np.add.reduce(np.bitwise_count(either), axis=1, dtype=np.int32).ravel()
    sets, cols = np.divmod(np.flatnonzero(total <= cut + extra), count)
    near = either[sets, :, cols]
    weights = np.add.reduce(np.bitwise_count(near & data), axis=1, dtype=np.int32)
    hit = (weights <= cut) & np.logical_or.reduce(near & syndrome, axis=1)
    if not hit.any():
        return cut, best
    w = int(weights[hit].min())
    top = hit & (weights == w)
    cands = _unpack(block[sets[top], :, :, cols[top]], planes, n)
    if planes > 1:
        lead = cands[np.arange(len(cands)), np.argmax(cands != 0, axis=1)]
        cands = MUL[INV[lead][:, None], cands]
    cand = min(cands, key=np.ndarray.tobytes)
    if best is None or w < cut or cand.tobytes() < best.tobytes():
        return w, cand
    return cut, best


def min_cycle(
    a: np.ndarray,
    reduced: tuple[Reduction, Reduction],
    scalars: tuple[int, ...],
    budget: int,
    limit: int | None = None,
) -> np.ndarray | None:
    """The (weight, lex)-least nontrivial cycle of weight <= limit, or None.

    `a` is a code matrix and `reduced` holds the reduced forms and pivots
    of a and of a*, from which the kernel basis, the syndrome basis ker(a*),
    the first information set and the image basis for the witness check all
    come.  Cycles are ker(a) and trivial cycles im(a), and a cycle stands
    for its scalar multiples through the one whose first nonzero entry is 1.
    Round t enumerates, on an information set j of rank r_j, each
    combination of t generators whose highest one has coefficient 1.  The
    bound counts finished sets: once set j has finished round t_j, an
    unseen cycle weighs at least sum_j max(0, t_j + 1 - (k - r_j)).  The
    search ends once that bound exceeds the best weight found (or `limit`,
    default the length), so every lightest cycle has been seen; a round
    runs, in join order, only as many sets as the bound still needs.  Set j
    joins in round max(1, k - r_j), when its term turns positive, and then
    catches up on the rounds before it; the sets that join in one round are
    enumerated together, their rows stacked in one table.  Vectors visited
    are counted per set that runs.  BudgetError is raised before a round
    that would take that count past `budget`; the witness is checked before
    it is returned.
    """
    n = a.shape[1]
    (own, pivots), (adjoint, adjoint_pivots) = reduced
    gens = null_basis(own, pivots)
    dual = null_basis(adjoint, adjoint_pivots)
    image = adjoint_image(adjoint, adjoint_pivots)
    syndromes = matmul_codes(gens, CONJ[dual].T)
    syndromes = syndromes[:, rref_codes(syndromes)[1]]
    if syndromes.shape[1] == 0:
        raise NoLogicalsError("operator has no homology; distance is undefined")
    rows = np.hstack([gens, syndromes])
    # Bits per code: one plane for the 0/1 scalars of GF(2), two for GF(4).
    planes = max(scalars).bit_length()
    words = -(-rows.shape[1] // 64)
    info = _information_sets(rows, pivots)
    # multiples[j, i, c] is scalars[c] times generator i of set j, packed
    systematic = np.array([g for g, _ in info])
    multiples = _pack(MUL[np.array(scalars)[:, None], systematic[:, :, None, :]], planes, words)
    data, syndrome = _mask(0, n, words), _mask(n, rows.shape[1], words)
    extra, k = syndromes.shape[1], len(gens)
    # groups[g] is (join round, sets, stacked generators, tables) for the
    # sets that join in one round; tables[1] is the generators with
    # coefficient 1, lowest generator descending, and tables[0] is unused
    joins = [max(1, k - r) for _, r in info]
    groups = []
    for join in sorted(set(joins)):
        members = [j for j, v in enumerate(joins) if v == join]
        stacked = np.moveaxis(multiples[members], 0, 2).reshape(k, len(scalars), -1)
        table = np.ascontiguousarray(stacked[::-1, 0].T), list(range(k, -1, -1))
        groups.append((join, len(members), stacked, [None, table]))
    done = [0] * len(groups)
    cut, best, visited = n if limit is None else limit, None, 0
    for t in range(1, k + 1):
        bound = sum(max(0, t - k + r) for _, r in info)
        if bound > cut:
            break
        # (group, sets it runs): every set that finishes round t raises the
        # bound by one, so only the first cut + 1 - bound sets in join order run
        todo, need = [], cut + 1 - bound
        for g, (join, size, _, _) in enumerate(groups):
            if join <= t and need > 0:
                todo.append((g, min(size, need)))
                need -= size
        visited += sum(
            sets * math.comb(k, u) * len(scalars) ** (u - 1)
            for g, sets in todo
            for u in range(done[g] + 1, t + 1)
        )
        if visited > budget:
            raise BudgetError(
                f"search needs {visited} vectors through round {t}, which exceeds "
                f"the budget of {budget}; raise the budget to at least {visited}"
            )
        for g, sets in todo:
            _, size, stacked, tables = groups[g]
            if sets < size:
                # the round ends the search, so the group shrinks to its first sets' rows
                prefix = sets * planes * words
                stacked = stacked[..., :prefix]
                tables[1:] = [(vecs[:prefix], starts) for vecs, starts in tables[1:]]
            for u in range(done[g] + 1, t + 1):
                for block in _round(stacked, u, tables):
                    cut, best = _fold(block, planes, n, data, syndrome, extra, cut, best)
            done[g] = t
    if best is not None:
        check_witness(a, best, cut, image)
    return best


def check_witness(a: np.ndarray, witness: np.ndarray, weight: int, image: np.ndarray) -> None:
    """Raise WitnessError unless `witness` is a cycle of `a` outside im(a) of this weight.

    `image` is the reduced basis of im(a) (`gf4_image`, or the conjugated
    rref(a*) that a search already holds).  The witness is trivial when
    reducing it against that basis leaves zero, so the check eliminates
    nothing.
    """
    if np.count_nonzero(witness) != weight:
        raise WitnessError(f"witness has weight {np.count_nonzero(witness)}, not {weight}")
    if matmul_codes(a, witness[:, None]).any():
        raise WitnessError("witness is not a cycle")
    if not residue(image, witness).any():
        raise WitnessError("witness is a trivial cycle")
