"""The search for the lightest nontrivial cycle, `min_cycle`, for both fields.

The comment below states the method and the packed layout.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import BudgetError, DimensionError, NoLogicalsError, WitnessError
from .linalg import (
    CONJ, INV, MUL, Boundary, Reduction, adjoint_image, matmul_codes, null_basis, pack_codes,
    residue, rref_codes, unpack_codes
)

# Vectors a distance search may visit, the bytes of one enumeration table or
# block of packed words, and the width below which table blocks are gathered.
DEFAULT_BUDGET = 1 << 32
_TABLE_BYTES = 1 << 20
_GATHER_WIDTH = 1000

# One information-set (Brouwer-Zimmermann) search serves both fields.  The
# cycles of a matrix a are ker(a) and the trivial ones im(a) = ker(a*)^perp,
# so a cycle is trivial iff its Hermitian products with a basis of ker(a*)
# all vanish.  Those products are linear in the cycle, so each kernel
# generator carries them as extra syndrome columns and every combination of
# generators carries its own test.  GF(2) is the 0/1 subfield: its operators
# run on 0/1 codes with the single scalar 1, GF(4) ones with {1, w, W}.
#
# Every basis comes from the reduced forms of a and a* that the caller
# hands in, which `boundary_cycle` takes from a linalg `Boundary` (one
# object when a* = a).  rref(a) gives the kernel basis, the identity on the
# free columns of a and so the first information set; rref(a*) gives
# ker(a*) and, conjugated, the reduced basis of im(a) against which the
# witness check reduces the witness.
#
# Combinations are enumerated packed.  Each information set's generators are
# packed once per search, with every scalar multiple, by linalg's
# `pack_codes`: plane p of a vector holds bit p of its codes, the n
# coordinates first and the syndrome bits after them, over as many uint64
# words as they need.  A combination is then an XOR of packed columns, its
# weight the popcount of the OR of its planes over the coordinate bits, and
# it is nontrivial when any syndrome bit is set.  Only the candidates at the
# best weight are unpacked to codes, by `unpack_codes`, scaled to a leading
# 1, and compared by one argmin over their bytes.  So one combination per
# class of scalar multiples is enough: cached tables of s-generator
# combinations hold the one whose highest generator has coefficient 1.  A
# round whose table fits in _TABLE_BYTES is that table, built once and kept
# for the next.  Table s + 1 adds a lower generator to table s: a cached
# index plan gathers the blocks narrower than _GATHER_WIDTH columns, whose
# short rows cost more per word to XOR, and each wider block takes one XOR.
#
# The sets that join in the same round, max(1, k - r_j), share one
# enumeration: their packed generators are stacked along the word axis, so
# one table list, one `_round` per round and one `_fold` per block serve
# them all, and each set's weights, syndrome tests and candidates come from
# its own rows.  Set j has rank at most u_{j-1}, the coordinates sets 1..j-1
# leave unused, so it is eliminated only if the search reaches round
# max(1, k - u_{j-1}).  A round runs the sets in join order, and only as
# many as the bound still needs.  Ranks never increase from set to set, so
# the sets before set j join no later than it, and it is not eliminated in
# a round that they end by finishing it.
#
# Problems of one shape (length, kernel dimension and syndrome count), such
# as the two sectors of a GF(2) operator, share the enumeration the same
# way: a round's group stacks the sets of every problem that join in it,
# while each problem keeps its own bound, cut, witness and vector count.
# Within a group the sets are ordered by their position in their problem,
# so when every problem runs its first c sets the rows that run are a
# prefix; an ended problem's rows leave each group that still runs.


def _information_sets(gens: np.ndarray, free: list[int]):
    """Yield (matrix, rank, unused) for each information set, one at a time.

    `gens` is the first set, the identity on the coordinates outside `free`,
    the pivot columns of the operator.  Each later matrix reduces the
    generators on the columns no earlier set used, so its first `rank` rows
    form an identity on its own set and the other rows vanish there;
    `unused` counts the columns no set has used yet.  The sets end once the
    generators vanish on all of them.
    """
    yield gens, len(gens), len(free)
    while gens[:, free].any():
        order = free + sorted(set(range(gens.shape[1])) - set(free))
        reduced, pivots = rref_codes(gens[:, order])
        rank = sum(p < len(free) for p in pivots)
        used = {order[p] for p in pivots[:rank]}
        free = [c for c in free if c not in used]
        yield reduced[:, np.argsort(order)], rank, len(free)


@functools.lru_cache(maxsize=16)
def _gather_plan(m: int, starts: tuple[int, ...], narrow: int):
    """`_extend`'s plan for a table with these `starts`: the table column and
    multiple (i * m + c) to XOR for each column of the blocks narrower than
    `narrow`, which come first; the other blocks as (i, w, first, last); new starts."""
    k = len(starts) - 1
    widths = np.array(starts[:0:-1])  # generator i = k - 1 down to 0 heads m blocks this wide
    edges = np.concatenate([[0], np.cumsum(m * widths)])
    count = int(np.count_nonzero(widths < narrow))
    at = np.arange(edges[count])
    block = np.searchsorted(edges, at, side="right") - 1
    multiple, columns = np.divmod(at - edges[block], widths[block])
    wide = [(k - 1 - b, int(widths[b]), int(edges[b]), int(edges[b + 1])) for b in range(count, k)]
    return columns, (k - 1 - block) * m + multiple, wide, tuple(edges[::-1].tolist())


def _extend(gens: np.ndarray, table):
    """The table of combinations with one more generator than `table`.

    `gens[i, c]` is generator i times scalar c, packed.  A table holds every
    combination of s generators whose highest generator has coefficient 1,
    the others any nonzero one, so one per class of scalar multiples, as a
    packed column, ordered by lowest generator descending, together with
    `starts[i]`, the number of leading columns whose lowest generator is at
    least i.  Adding a lower generator with every scalar keeps that form:
    `_gather_plan`'s indices gather the narrow blocks, and each wide one is one XOR.
    """
    vecs, starts = table
    k, m, size = gens.shape
    columns, multiples, wide, extended = _gather_plan(m, tuple(starts), _GATHER_WIDTH)
    out = np.empty((size, extended[0]), dtype=np.uint64)
    scaled = gens.reshape(k * m, size).T  # column i * m + c is generator i times scalar c
    np.bitwise_xor(vecs.take(columns, axis=1), scaled.take(multiples, axis=1), out=out[:, : len(columns)])
    for i, w, first, last in wide:
        block = out[:, first:last].reshape(size, m, w)
        np.bitwise_xor(vecs[:, None, :w], gens[i].T[:, :, None], out=block)
    return out, extended


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


def _fold(block: np.ndarray, planes: int, n: int, data, syndrome, extra: int, group, problems):
    """Merge a packed block into each problem's (weight, lex)-least nontrivial cycle.

    The block stacks the rows of the information sets of `group` over the
    same combinations, so it reads as (sets, planes, words, columns), and
    each set's weight, syndrome test and candidates come from its own rows.
    `group.owners[i]` indexes the problem in `problems` that set i belongs
    to, and `group.lone` is the one problem that owns them all, if any.  A
    problem's `cut` is the weight of its `best`, or the weight limit while
    there is none.  `data` and `syndrome` mask one plane's words to the n
    coordinates and to the `extra` syndrome bits.  Each candidate is scaled
    so that its first nonzero entry is 1.
    """
    words, count = len(data), block.shape[1]
    block = block.reshape(-1, planes, words, count)
    either = block[:, 0]
    for p in range(1, planes):
        either = either | block[:, p]
    # the syndrome bits add at most `extra` to a column's weight, so only the
    # columns within cut + extra are read again, set by set, without them;
    # the weights sum in the narrowest dtype that holds 64 bits per word
    ones = np.bitwise_count(either)
    if words == 1:
        total = ones[:, 0]
    else:
        total = np.add.reduce(ones, axis=1, dtype=np.uint16 if words < 1024 else np.uint32)
    lone, most = group.lone, 64 * words
    if lone is not None:
        cut = problems[lone].cut
        reach = min(cut + extra, most)
    else:
        cuts = [problems[p].cut for p in group.owners]
        reach = np.array([min(c + extra, most) for c in cuts], dtype=total.dtype)[:, None]
    sets, cols = np.divmod((total <= reach).ravel().nonzero()[0], count)
    if lone is None:
        cut = np.array(cuts)[sets]
    near = either[sets, :, cols]
    ones = np.bitwise_count(near & data)
    weights = ones[:, 0] if words == 1 else np.add.reduce(ones, axis=1, dtype=np.int32)
    hits = ((weights <= cut) & np.logical_or.reduce(near & syndrome, axis=1)).nonzero()[0]
    if not len(hits):
        return
    owners = None if lone is not None else group.owners[sets[hits]]
    for p in group.running:
        mine = hits if owners is None else hits[owners == p]
        if not len(mine):
            continue
        least = weights[mine].min()
        ties = mine[weights[mine] == least]
        picked = block[sets[ties], :, :, cols[ties]]
        cands = unpack_codes(picked.reshape(len(ties), -1), planes, n)
        if planes > 1:
            lead = cands[np.arange(len(cands)), np.argmax(cands != 0, axis=1)]
            cands = MUL[INV[lead][:, None], cands]
        cand = cands[np.ascontiguousarray(cands).view(f"S{n}").argmin()]
        problem = problems[p]
        if problem.best is None or least < problem.cut or cand.tobytes() < problem.best.tobytes():
            problem.cut, problem.best = int(least), cand


class _Problem:
    """One problem's own part of a search: its matrix and image basis for the
    witness check, its information sets, the round of its next pull, its
    sets by join round (`members`), the bound before the round, the sets
    whose terms grow when it finishes (`rising`) or first in round t
    (`rises[t]`), its cut and best cycle, and the vectors it has visited."""

    __slots__ = ("a", "image", "sets", "pull", "members", "bound", "rising", "rises", "cut", "best", "visited")

    def __init__(self, a: np.ndarray, image: np.ndarray, sets, cut: int):
        self.a, self.image, self.sets, self.pull, self.members = a, image, sets, 1, {}
        self.bound, self.rising, self.rises = 0, 0, {}
        self.cut, self.best, self.visited = cut, None, 0

    def plan(self, t: int, k: int, done: dict, scalars: int) -> list | None:
        """(join, sets it runs) for round t, in join order, or None once the search has ended.

        Called for t = 1, 2, ... in turn; set j's term is max(0, t - k + r_j).
        Pulls the sets due by round t until the pulled ones end the search by
        finishing it.  Every set that finishes round t raises the bound by one,
        so only the first cut + 1 - bound sets in join order run and count.
        """
        self.bound += self.rising
        self.rising += self.rises.pop(t, 0)
        while self.pull <= t and self.bound + self.rising <= self.cut:
            matrix, rank, unused = next(self.sets, (None, 0, -k))
            if matrix is not None:
                self.members.setdefault(max(1, k - rank), []).append(matrix)
                if k - rank <= t:
                    self.bound += t - k + rank
                    self.rising += 1
                else:
                    self.rises[k - rank] = self.rises.get(k - rank, 0) + 1
            # the default stops pulls
            self.pull = max(1, k - unused)
        if self.bound > self.cut:
            return None
        todo, need = [], self.cut + 1 - self.bound
        for join, group in self.members.items():
            if join <= t and need > 0:
                todo.append((join, min(len(group), need)))
                need -= len(group)
        self.visited += sum(
            count * math.comb(k, u) * scalars ** (u - 1)
            for join, count in todo
            for u in range(done.get(join, 0) + 1, t + 1)
        )
        return todo


class _Group:
    """The information sets of every problem that join the search in one round.

    `counts[p]` is how many of problem p's sets run, its first ones, and
    `slots` lists them as (position, problem), ordered by position so that
    equal counts keep a prefix; `running` lists the problems with any, and
    `lone` is the one that owns every slot, if any, else `owners` is each
    slot's problem.  `stacked` is their packed generators with every scalar
    multiple, stacked along the word axis, and `tables` the tables built
    from them (tables[1]: coefficient 1, lowest generator descending).
    """

    __slots__ = ("counts", "slots", "running", "lone", "owners", "stacked", "tables")

    def __init__(self, join: int, counts: list[int], problems, scalars, planes: int, words: int):
        self._run(counts)
        matrices = [problems[p].members[join][i] for i, p in self.slots]
        codes = MUL[np.array(scalars)[:, None], np.array(matrices)[:, :, None, :]]
        self.stacked = np.concatenate(pack_codes(codes, planes, words), axis=-1)
        k = len(self.stacked)
        self.tables = [None, (np.ascontiguousarray(self.stacked[::-1, 0].T), tuple(range(k, -1, -1)))]

    def keep(self, counts: list[int], width: int) -> None:
        """Keep only the rows of the first counts[p] sets of each problem p.

        The sets that stop running belong to searches that end, so the
        rows go for good: a view when they leave a prefix, else a copy.
        """
        at = [j for j, (i, p) in enumerate(self.slots) if i < counts[p]]
        self._run(counts)
        if at == list(range(len(at))):
            rows = slice(0, len(at) * width)
        else:
            rows = (np.array(at)[:, None] * width + np.arange(width)).ravel()
        self.stacked = self.stacked[..., rows]
        self.tables[1:] = [(vecs[rows], starts) for vecs, starts in self.tables[1:]]

    def _run(self, counts: list[int]) -> None:
        self.counts = counts
        self.slots = [(i, p) for i in range(max(counts)) for p, c in enumerate(counts) if i < c]
        self.running = [p for p, c in enumerate(counts) if c]
        self.lone = self.running[0] if len(self.running) == 1 else None
        self.owners = None if self.lone is not None else np.array([p for _, p in self.slots])


def _null_basis(bases: dict, reduced: np.ndarray, pivots: list[int]) -> np.ndarray:
    """`null_basis(reduced, pivots)`, kept in `bases` so that sectors sharing a reduced form share it."""
    if id(reduced) not in bases:
        bases[id(reduced)] = null_basis(reduced, pivots)
    return bases[id(reduced)]


def min_cycle(
    problems: list[tuple[np.ndarray, Reduction, Reduction]],
    scalars: tuple[int, ...],
    budget: int,
    limit: int | None = None,
) -> list[np.ndarray | None]:
    """Each problem's (weight, lex)-least nontrivial cycle of weight <= limit, or None.

    A problem is a code matrix a with the reduced forms and pivots of a and
    of a*, from which the kernel basis, the syndrome basis ker(a*), the
    first information set and the image basis for the witness check all
    come.  Cycles are ker(a) and trivial cycles im(a), and a cycle stands
    for its scalar multiples through the one whose first nonzero entry is 1.
    Round t enumerates, on an information set j of rank r_j, each
    combination of t generators whose highest one has coefficient 1.  The
    bound counts finished sets: once set j has finished round t_j, an
    unseen cycle weighs at least sum_j max(0, t_j + 1 - (k - r_j)).  A
    search ends once that bound exceeds the best weight found (or `limit`,
    default the length), so every lightest cycle has been seen; a round
    runs, in join order, only as many sets as the bound still needs.  Set j
    joins in round max(1, k - r_j), when its term turns positive, and then
    catches up on the rounds before it, with the sets that join with it; it
    is eliminated in round max(1, k - u_{j-1}), u_{j-1} being the coordinates
    sets 1..j-1 leave unused, unless the sets that join by then already
    fill the round's need.

    The problems must share the length, the kernel dimension k and the
    number of syndrome columns, as a GF(2) operator and its transpose do.
    They run as one enumeration: the sets of every problem that join in the
    same round are stacked in one group, and each problem keeps its own
    bound, cut, witness and count.  Vectors visited are counted per problem,
    per set that runs; BudgetError is raised before the first round that
    would take any problem's count past `budget`, naming the largest such
    count.  Each witness is checked before it is returned.
    """
    bases, products, searches, shapes = {}, {}, [], set()
    for a, (own, pivots), (adjoint, adjoint_pivots) in problems:
        gens = _null_basis(bases, own, pivots)
        if adjoint_pivots:
            # the sectors of one operator share the product of their kernel
            # bases: each one's is the conjugate transpose of the other's
            swapped = products.get((id(adjoint), id(own)))
            if swapped is None:
                dual = _null_basis(bases, adjoint, adjoint_pivots)
                full = matmul_codes(gens, CONJ[dual].T)
            else:
                full = CONJ[swapped].T
            products[id(own), id(adjoint)] = full
            syndromes = full[:, rref_codes(full)[1]]
        else:  # a* = 0: every cycle is nontrivial, and gens is the identity on a's free columns
            syndromes = np.eye(len(gens), dtype=np.uint8)
        if syndromes.shape[1] == 0:
            raise NoLogicalsError("operator has no homology; distance is undefined")
        rows = np.concatenate([gens, syndromes], axis=1)
        shapes.add((a.shape[1], len(gens), syndromes.shape[1]))
        sets = _information_sets(rows, pivots)
        cut = a.shape[1] if limit is None else limit
        searches.append(_Problem(a, adjoint_image(adjoint, adjoint_pivots), sets, cut))
    if len(shapes) != 1:
        raise DimensionError(f"joint problems differ in (n, k, syndromes): {sorted(shapes)}")
    ((n, k, extra),) = shapes
    # Bits per code: one plane for the 0/1 scalars of GF(2), two for GF(4).
    planes = max(scalars).bit_length()
    words = -(-(n + extra) // 64)
    coords = (np.arange(n + extra) < n).view(np.uint8)
    data, syndrome = pack_codes(np.array([coords, coords ^ 1]), 1, words)
    groups, done, live = {}, {}, list(range(len(searches)))
    for t in range(1, k + 1):
        # counts[join][p]: how many of problem p's sets run in that group
        counts, worst = {}, 0
        for p in live[:]:
            todo = searches[p].plan(t, k, done, len(scalars))
            if todo is None:
                live.remove(p)
                continue
            worst = max(worst, searches[p].visited)
            for join, count in todo:
                counts.setdefault(join, [0] * len(searches))[p] = count
        if worst > budget:
            raise BudgetError(
                f"search needs {worst} vectors through round {t}, which exceeds "
                f"the budget of {budget}; raise the budget to at least {worst}"
            )
        if not live:
            break
        for join in sorted(counts):
            group = groups.get(join)
            if group is None:
                group = groups[join] = _Group(join, counts[join], searches, scalars, planes, words)
            elif counts[join] != group.counts:
                group.keep(counts[join], planes * words)
            for u in range(done.get(join, 0) + 1, t + 1):
                for block in _round(group.stacked, u, group.tables):
                    _fold(block, planes, n, data, syndrome, extra, group, searches)
            done[join] = t
    for search in searches:
        if search.best is not None:
            check_witness(search.a, search.best, search.cut, search.image)
    return [search.best for search in searches]


def boundary_cycle(
    b: Boundary, budget: int, limit: int | None = None, both: bool = False
) -> list[np.ndarray | None]:
    """`min_cycle` on the matrix of a linalg `Boundary` and, if `both`, on its adjoint.

    The scalars are the field's nonzero codes, 1 to `b.matrix.top`, and the
    reduced forms are the boundary's stored ones, swapped for the adjoint,
    so both sectors run in one enumeration.  A self-adjoint matrix is its
    own adjoint, so its one problem is searched once and its cycle returned
    for both.
    """
    own, adjoint = [(reduced.codes, pivots) for reduced, pivots in (b.reduction, b.adjoint_reduction)]
    problems = [(b.matrix.codes, own, adjoint)]
    if both and b.adjoint_reduction is not b.reduction:
        problems.append((b.matrix.adjoint().codes, adjoint, own))
    found = min_cycle(problems, tuple(range(1, b.matrix.top + 1)), budget, limit)
    return found * 2 if both and len(found) == 1 else found


def verify_cycle(b: Boundary, codes: np.ndarray) -> int:
    """Weight of the code row `codes` after `check_witness` against the matrix of `b`.

    The image basis is the conjugated `b.adjoint_reduction`, so a returned
    weight is an upper bound on the distance of either field's code.
    """
    if codes.shape != (b.m,):
        raise DimensionError(f"witness has shape {codes.shape}, operator has m={b.m}")
    weight = int(np.count_nonzero(codes))
    reduced, pivots = b.adjoint_reduction
    check_witness(b.matrix.codes, codes, weight, adjoint_image(reduced.codes, pivots))
    return weight


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
