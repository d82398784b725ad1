"""The benchmark's four workloads and the independent checks of their results.

Importing this module imports numpy and homprod, so the benchmark times the
import as part of set-up.  Each workload builds its inputs from the workload
seed in `build`, verifies one code per call to `verify`, and judges the
result with `check`, which returns a list of reasons the result is wrong
(empty when it is right).  Every call into homprod made by `verify` goes
through `tracer.call`, so a traced run sees one span per call.  The checks
use only public homprod functions and never the search engine's own
verification, and they run outside the timed region.
"""

from __future__ import annotations

import numpy as np

from homprod.circuits import product_encoder, verify_encoder
from homprod.complexes import is_good, random_boundary
from homprod.css import (
    boundary_from_checks,
    code_from_complex,
    stabilizer_weight,
    steane_check_basis,
)
from homprod.distance import distance_parallel
from homprod.gf2 import BitMatrix, kernel_basis, vector_to_bits
from homprod.gf4 import (
    Gf4Matrix,
    enumerate_selfadjoint_invertible,
    five_qubit_check_basis,
    gf4_boundary_from_checks,
    gf4_distance,
    gf4_distance_upper_bound,
    gf4_image,
    gf4_product,
    gf4_rank,
    steane_gf4_check_basis,
)
from homprod.product import product

# Every call into the distance layer runs single-threaded: the plain baseline,
# and the steadiest choice on a small shared machine.
THREADS = 1
MIXED_BOUND = 6
MIXED_PAIRS = 64
RANDOM_M, RANDOM_H, RANDOM_M_PRIME = 6, 2, 4
ORACLE_DIM_MAX = 22


# -- independent checks ----------------------------------------------------------


def gf2_witness_errors(matrix: BitMatrix, witness: np.ndarray, weight: int, what: str) -> list[str]:
    """Reasons `witness` is not a nontrivial cycle of `matrix` with this weight.

    Nontriviality is tested by parity against the kernel of the transpose:
    im(d) is exactly the orthogonal complement of ker(d^T), so a cycle lies
    outside the image iff it has odd overlap with some vector of ker(d^T).
    """
    n = matrix.cols
    bits = vector_to_bits(witness, n).astype(np.int64)
    errors = []
    if int(bits.sum()) != weight:
        errors.append(f"{what}: witness weight {int(bits.sum())} != reported {weight}")
    if ((matrix.to_dense().astype(np.int64) @ bits) % 2).any():
        errors.append(f"{what}: witness is not a cycle")
    dual = kernel_basis(matrix.transpose())
    if dual.dim == 0 or not (
        (dual.matrix.to_dense().astype(np.int64) @ bits) % 2
    ).any():
        errors.append(f"{what}: witness lies in the image")
    return errors


def gf2_distance_errors(op, r, what: str) -> list[str]:
    """Witness checks for both sectors of a DistanceResult."""
    return gf2_witness_errors(op.matrix, r.witness_z, r.d_z, f"{what} z") + gf2_witness_errors(
        op.matrix.transpose(), r.witness_x, r.d_x, f"{what} x"
    )


def gf4_witness_errors(op, witness: np.ndarray, weight: int) -> list[str]:
    """Reasons a GF(4) code vector is not a nontrivial cycle of `op` with this weight.

    Nontriviality is tested by rank: appending the witness to a basis of the
    image must raise the rank.
    """
    errors = []
    w = np.asarray(witness, dtype=np.uint8)
    if int(np.count_nonzero(w)) != weight:
        errors.append(f"witness weight {int(np.count_nonzero(w))} != reported {weight}")
    if not (op.delta @ Gf4Matrix.from_codes(w.reshape(-1, 1))).is_zero():
        errors.append("witness is not a cycle")
    im = gf4_image(op.delta)
    stacked = Gf4Matrix.from_codes(np.vstack([im, w.reshape(1, -1)]))
    if gf4_rank(stacked) == im.shape[0]:
        errors.append("witness lies in the image")
    return errors


def _span_table(gens: np.ndarray) -> np.ndarray:
    """XOR of every subset of `gens`, indexed by the subset's bit mask."""
    table = np.zeros(1 << len(gens), dtype=gens.dtype)
    for i, g in enumerate(gens):
        np.bitwise_xor(table[: 1 << i], g, out=table[1 << i : 2 << i])
    return table


def oracle_min_nontrivial(op) -> int:
    """Brute-force d_z: minimum weight over the whole span of ker(d), outside im(d).

    Enumerates all 2^dim(ker) kernel vectors together with their parities
    against a basis of ker(d^T).  The image is exactly the set of kernel
    vectors with all parities even, so a vector is nontrivial iff its parity
    pattern is nonzero.  Both are linear, so both come from subset-XOR
    tables, split into a low table and high offsets to bound memory.
    """
    ker = kernel_basis(op.matrix)
    dual = kernel_basis(op.matrix.transpose())
    if ker.dim > ORACLE_DIM_MAX or op.m > 64:
        raise ValueError(f"oracle is capped at 2^{ORACLE_DIM_MAX} vectors of 64 bits")
    vecs = ker.matrix.data[:, 0]
    dual_dense = dual.matrix.to_dense().astype(np.int64)
    parity = (dual_dense @ ker.matrix.to_dense().astype(np.int64).T) % 2
    pats = (parity.astype(np.uint64) << np.arange(dual.dim, dtype=np.uint64)[:, None]).sum(
        axis=0, dtype=np.uint64
    )
    lo = min(ker.dim, 16)
    vec_lo, pat_lo = _span_table(vecs[:lo]), _span_table(pats[:lo])
    best = op.m + 1
    for v, s in zip(_span_table(vecs[lo:]), _span_table(pats[lo:])):
        weights = np.bitwise_count(vec_lo ^ v)[(pat_lo ^ s) != 0]
        if weights.size:
            best = min(best, int(weights.min()))
    return best


# -- workloads --------------------------------------------------------------------


def _invertible_3x3() -> list[BitMatrix]:
    out = []
    for enc in range(512):
        dense = np.array(
            [[(enc >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)], dtype=np.uint8
        )
        m = BitMatrix.from_dense(dense)
        if m.rank() == 3:
            out.append(m)
    return out


class Css49Exact:
    """A seeded order over the 168 invertible 3x3 U; one code is the Steane(U) x Steane(I) product."""

    name = "css49-exact"
    trace_codes = 64

    def build(self, seed: int) -> None:
        self.basis = steane_check_basis()
        self.d_v = boundary_from_checks(self.basis, BitMatrix.identity(3))
        us = _invertible_3x3()
        order = np.random.default_rng(seed).permutation(len(us))
        self.inputs = [(us[i], us[i] == us[i].transpose()) for i in order]

    def verify(self, i: int, tracer) -> dict:
        u, symmetric = self.inputs[i % len(self.inputs)]
        d_u = tracer.call("css.boundary_from_checks", boundary_from_checks, self.basis, u)
        p = tracer.call("product.product", product, d_u, self.d_v).partial
        code = tracer.call("css.code_from_complex", code_from_complex, p)
        w = tracer.call("css.stabilizer_weight", stabilizer_weight, code)
        r = tracer.call("distance.distance_parallel", distance_parallel, p, THREADS)
        return {"op": p, "n": code.n, "k": code.k, "w": w, "r": r, "symmetric": symmetric}

    def check(self, rec: dict) -> list[str]:
        r = rec["r"]
        want = 7 if rec["symmetric"] else 9
        errors = gf2_distance_errors(rec["op"], r, "product")
        if (rec["n"], rec["k"]) != (49, 1) or rec["w"] > 8:
            errors.append(f"parameters n={rec['n']} k={rec['k']} w={rec['w']}")
        if min(r.d_z, r.d_x) != want:
            errors.append(f"d={min(r.d_z, r.d_x)}, expected {want}")
        return errors

    def counts(self, rec: dict) -> dict:
        return {"distance.cosets_scanned": rec["r"].cosets_scanned}


class Gf4Exact:
    """Seeded (U, V) pairs of the 10 self-adjoint 2x2 matrices; one code is the 25-qubit product."""

    name = "gf4-exact"
    trace_codes = 24

    def build(self, seed: int) -> None:
        self.basis = five_qubit_check_basis()
        self.us = enumerate_selfadjoint_invertible(2)
        order = np.random.default_rng(seed).permutation(len(self.us) ** 2)
        self.inputs = [divmod(int(k), len(self.us)) for k in order]

    def verify(self, i: int, tracer) -> dict:
        a, b = self.inputs[i % len(self.inputs)]
        d1 = tracer.call("gf4.gf4_boundary_from_checks", gf4_boundary_from_checks, self.basis, self.us[a])
        d2 = tracer.call("gf4.gf4_boundary_from_checks", gf4_boundary_from_checks, self.basis, self.us[b])
        p = tracer.call("gf4.gf4_product", gf4_product, d1, d2)
        r = tracer.call("gf4.gf4_distance", gf4_distance, p, threads=THREADS)
        return {"op": p, "r": r}

    def check(self, rec: dict) -> list[str]:
        p, r = rec["op"], rec["r"]
        errors = gf4_witness_errors(p, r.witness, r.d)
        if (p.m, p.hom_dim) != (25, 1):
            errors.append(f"parameters n={p.m} k={p.hom_dim}")
        if r.d != 5:
            errors.append(f"d={r.d}, expected 5")
        return errors

    def counts(self, rec: dict) -> dict:
        return {"gf4.cosets_scanned": rec["r"].cosets_scanned}


class Mixed35Bound:
    """Seeded pairs of the 10 x 280 self-adjoint factors of the 5- and 7-qubit codes.

    One code is the 35-qubit product and a complete search for a nontrivial
    cycle of weight <= 6, which finds none: these products have d = 9.
    """

    name = "mixed35-bound"
    trace_codes = 8

    def build(self, seed: int) -> None:
        u2s = enumerate_selfadjoint_invertible(2)
        u3s = enumerate_selfadjoint_invertible(3)
        picks = np.random.default_rng(seed).choice(len(u2s) * len(u3s), size=MIXED_PAIRS, replace=False)
        b5, b7 = five_qubit_check_basis(), steane_gf4_check_basis()
        d5 = [gf4_boundary_from_checks(b5, u) for u in u2s]
        d7 = {}
        self.inputs = []
        for k in picks:
            a, b = divmod(int(k), len(u3s))
            if b not in d7:
                d7[b] = gf4_boundary_from_checks(b7, u3s[b])
            self.inputs.append((d5[a], d7[b]))

    def verify(self, i: int, tracer) -> dict:
        d1, d2 = self.inputs[i % len(self.inputs)]
        p = tracer.call("gf4.gf4_product", gf4_product, d1, d2)
        witness = tracer.call(
            "gf4.gf4_distance_upper_bound", gf4_distance_upper_bound, p, MIXED_BOUND
        )
        return {"op": p, "witness": witness}

    def check(self, rec: dict) -> list[str]:
        p, witness = rec["op"], rec["witness"]
        errors = []
        if (p.m, p.hom_dim) != (35, 1):
            errors.append(f"parameters n={p.m} k={p.hom_dim}")
        if witness is not None:
            weight = int(np.count_nonzero(witness))
            errors.append(f"witness of weight {weight} returned, but d > {MIXED_BOUND}")
            errors += gf4_witness_errors(p, witness, weight)
        return errors

    def counts(self, rec: dict) -> dict:
        return {"mixed.witnesses_found": int(rec["witness"] is not None)}


class Random36Small:
    """Two seeded random_boundary(6, 2) factors per code and their 36-qubit product."""

    name = "random36-small"
    trace_codes = 128

    def build(self, seed: int) -> None:
        self.seed = seed

    def verify(self, i: int, tracer) -> dict:
        rng = np.random.default_rng([self.seed, i])
        f1 = tracer.call("complexes.random_boundary", random_boundary, RANDOM_M, RANDOM_H, rng)
        f2 = tracer.call("complexes.random_boundary", random_boundary, RANDOM_M, RANDOM_H, rng)
        for f in (f1, f2):
            tracer.call("complexes.is_good", is_good, f, RANDOM_M_PRIME)
        pc = tracer.call("product.product", product, f1, f2)
        ker = tracer.call("gf2.kernel_basis", kernel_basis, pc.partial.matrix)
        code = tracer.call("css.code_from_complex", code_from_complex, pc.partial)
        r = tracer.call("distance.distance_parallel", distance_parallel, pc.partial, THREADS)
        r1 = tracer.call("distance.distance_parallel", distance_parallel, f1, THREADS)
        r2 = tracer.call("distance.distance_parallel", distance_parallel, f2, THREADS)
        enc = tracer.call("circuits.product_encoder", product_encoder, pc)
        ok = tracer.call("circuits.verify_encoder", verify_encoder, enc, pc)
        return {
            "ops": (pc.partial, f1, f2),
            "results": (r, r1, r2),
            "ker_dim": ker.dim,
            "k": code.k,
            "encoder_ok": ok,
        }

    def check(self, rec: dict) -> list[str]:
        p = rec["ops"][0]
        r, r1, r2 = rec["results"]
        errors = []
        for op, res, what in zip(rec["ops"], rec["results"], ("product", "factor1", "factor2")):
            errors += gf2_distance_errors(op, res, what)
        if rec["k"] != RANDOM_H**2 or rec["ker_dim"] != (p.m + rec["k"]) // 2:
            errors.append(f"k={rec['k']} dim ker={rec['ker_dim']}")
        for d, d1, d2, sector in ((r.d_z, r1.d_z, r2.d_z, "z"), (r.d_x, r1.d_x, r2.d_x, "x")):
            if not max(d1, d2) <= d <= d1 * d2:
                errors.append(f"d_{sector}={d} outside [{max(d1, d2)}, {d1 * d2}]")
        if not rec["encoder_ok"]:
            errors.append("verify_encoder rejected the product encoder")
        oracle = oracle_min_nontrivial(p)
        if r.d_z != oracle:
            errors.append(f"d_z={r.d_z}, brute-force oracle gives {oracle}")
        return errors

    def counts(self, rec: dict) -> dict:
        return {"distance.cosets_scanned": sum(res.cosets_scanned for res in rec["results"])}


# Deterministic counters the workloads report; each is summed over the traced codes.
COUNTERS = ("distance.cosets_scanned", "gf4.cosets_scanned", "mixed.witnesses_found")
WORKLOADS = {w.name: w for w in (Css49Exact, Gf4Exact, Mixed35Bound, Random36Small)}
