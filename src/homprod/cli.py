"""Command-line surface: generation, products, distances, counts, circuits,
weight reduction, GF(4) mirrors, reproduction experiments, and Monte-Carlo runs.

Every subcommand takes `--json` for structured output.  Randomized commands
take `--seed` (default 1105).  `reproduce` exits 0 exactly when the report
passed; parse and usage problems exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .complexes import random_boundary
from .counting import count_extensions, count_kernel_by_rank, count_rank_matrices, gamma_count
from .circuits import factor_encoder, verify_encoder
from .distance import DEFAULT_BUDGET, distance
from .errors import HomprodError
from .experiments import (
    DEFAULT_SEED,
    MANIFEST,
    MonteCarloParams,
    fivequbit_squared,
    montecarlo,
    steane_by_fivequbit,
    steane_css_params,
    steane_squared,
)
from .gf2 import vector_to_bits
from .gf4 import (
    Gf4Boundary,
    enumerate_selfadjoint_invertible,
    gf4_distance,
    gf4_distance_upper_bound,
    gf4_product,
    gf4_weight,
    vector_symbols,
)
from .io import (
    parse_boundary,
    parse_css,
    parse_gf4_matrix,
    serialize_boundary,
    serialize_circuit,
    serialize_css,
    serialize_gf4_matrix,
)
from .product import product
from .reduction import reduce_weights


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def _write_or_print(args, text: str) -> None:
    if args.output is not None:
        Path(args.output).write_text(text)
    elif not args.json:
        print(text, end="")


def _bits_str(packed: np.ndarray, n: int) -> str:
    return "".join(str(b) for b in vector_to_bits(packed, n))


def _cmd_gen_random(args) -> int:
    rng = np.random.default_rng(args.seed)
    d = random_boundary(args.m, args.h, rng)
    text = serialize_boundary(d)
    _write_or_print(args, text)
    _emit(
        args,
        {"m": args.m, "h": args.h, "seed": args.seed, "boundary": text},
        f"generated boundary operator: M={args.m} H={args.h} seed={args.seed}",
    )
    return 0


def _cmd_product(args) -> int:
    d1 = parse_boundary(Path(args.a).read_text())
    d2 = parse_boundary(Path(args.b).read_text())
    p = product(d1, d2).partial
    text = serialize_boundary(p)
    _write_or_print(args, text)
    _emit(
        args,
        {"n": p.m, "h": p.hom_dim, "boundary": text},
        f"product operator: M={p.m} H={p.hom_dim}",
    )
    return 0


def _cmd_distance(args) -> int:
    d = parse_boundary(Path(args.file).read_text())
    r = distance(d, args.budget)
    payload = {
        "d_z": r.d_z,
        "d_x": r.d_x,
        "witness_z": _bits_str(r.witness_z, d.m),
        "witness_x": _bits_str(r.witness_x, d.m),
        "cosets_scanned": r.cosets_scanned,
        "wall_time": r.wall_time,
    }
    _emit(
        args,
        payload,
        f"d_z={r.d_z} d_x={r.d_x} cosets={r.cosets_scanned} "
        f"witness_z={payload['witness_z']} witness_x={payload['witness_x']}",
    )
    return 0


_COUNTS = {
    "rank": (count_rank_matrices, ("a", "b", "r")),
    "extensions": (count_extensions, ("a", "r", "cap_a", "cap_r")),
    "kernel": (count_kernel_by_rank, ("l", "h", "r")),
    "gamma": (gamma_count, ("m", "h", "m_prime", "r")),
}


def _cmd_count(args) -> int:
    fn, names = _COUNTS[args.kind]
    if len(args.params) != len(names):
        raise HomprodError(f"count {args.kind} takes {len(names)} integers: {' '.join(names)}")
    c = fn(*args.params)
    _emit(
        args,
        {"kind": args.kind, "params": dict(zip(names, args.params)), "count": str(c.value)},
        str(c.value),
    )
    return 0


def _cmd_encode(args) -> int:
    d = parse_boundary(Path(args.file).read_text())
    circ = factor_encoder(d)
    verified = verify_encoder(circ, d) if args.verify else None
    _write_or_print(args, serialize_circuit(circ))
    _emit(
        args,
        {"qubits": circ.n_qubits, "gates": len(circ.gates), "verified": verified},
        f"encoder: {circ.n_qubits} qubits, {len(circ.gates)} gates"
        + ("" if verified is None else f", verified={verified}"),
    )
    return 0 if verified in (None, True) else 1


def _cmd_reduce(args) -> int:
    code = parse_css(Path(args.file).read_text())
    reduced, trace = reduce_weights(
        code, args.target, strategy=args.strategy, max_steps=args.max_steps, seed=args.seed
    )
    if args.output is not None:
        Path(args.output).write_text(serialize_css(reduced))
    _emit(
        args,
        {
            "before": code.params(),
            "after": reduced.params(),
            "steps": len(trace.steps),
            "reached": trace.reached,
        },
        f"before={json.dumps(code.params())}\nafter={json.dumps(reduced.params())}\n"
        f"steps={len(trace.steps)} reached={trace.reached}",
    )
    return 0


def _cmd_gf4_product(args) -> int:
    d1 = Gf4Boundary(parse_gf4_matrix(Path(args.a).read_text()))
    d2 = Gf4Boundary(parse_gf4_matrix(Path(args.b).read_text()))
    p = gf4_product(d1, d2)
    text = serialize_gf4_matrix(p.matrix)
    _write_or_print(args, text)
    _emit(
        args,
        {"n": p.m, "h": p.hom_dim, "matrix": text},
        f"product operator: M={p.m} H={p.hom_dim}",
    )
    return 0


def _cmd_gf4_distance(args) -> int:
    d = Gf4Boundary(parse_gf4_matrix(Path(args.file).read_text()))
    r = gf4_distance(d, budget=args.budget)
    payload = {
        "d": r.d,
        "witness": vector_symbols(r.witness),
        "cosets_scanned": r.cosets_scanned,
        "wall_time": r.wall_time,
    }
    _emit(
        args,
        payload,
        f"d={r.d} cosets={r.cosets_scanned} witness={payload['witness']}",
    )
    return 0


def _cmd_gf4_bound(args) -> int:
    d = Gf4Boundary(parse_gf4_matrix(Path(args.file).read_text()))
    witness = gf4_distance_upper_bound(d, args.bound, budget=args.budget)
    if witness is None:
        _emit(
            args,
            {"bound": args.bound, "found": False, "witness": None, "weight": None},
            f"no nontrivial cycle of weight <= {args.bound}; distance exceeds the bound",
        )
    else:
        payload = {
            "bound": args.bound,
            "found": True,
            "witness": vector_symbols(witness),
            "weight": gf4_weight(witness),
        }
        _emit(
            args,
            payload,
            f"found weight-{payload['weight']} witness {payload['witness']}",
        )
    return 0


def _cmd_gf4_enumerate(args) -> int:
    mats = enumerate_selfadjoint_invertible(args.m)
    rows = [[vector_symbols(row) for row in mat.codes] for mat in mats]
    _emit(
        args,
        {"m": args.m, "count": len(mats), "matrices": rows},
        f"{len(mats)} invertible self-adjoint {args.m}x{args.m} matrices\n"
        + "\n\n".join("\n".join(r) for r in rows),
    )
    return 0


def _cmd_reproduce(args) -> int:
    if args.name == "steane-css-params":
        report = steane_css_params()
    elif args.name == "steane-squared":
        report = steane_squared()
    elif args.name == "fivequbit-squared":
        report = fivequbit_squared()
    else:
        report = steane_by_fivequbit(seed=args.seed)
    verdict = "PASS" if report.passed else "FAIL"
    description = MANIFEST[args.name]["description"]
    human = f"{report.name}: {verdict} ({report.wall_time:.1f}s)"
    if not report.passed:
        human += f"\nviolated claim: {description}"
        broken = report.results.get("violations")
        if broken:
            total = report.results.get("pair_total", report.results.get("u_total"))
            human += f"\n{len(broken)} of {total} pairs break it:"
            for row in broken:
                human += "\n  " + " ".join(f"{key}={value}" for key, value in row.items())
    _emit(args, report.to_dict(), human)
    return 0 if report.passed else 1


def _cmd_montecarlo(args) -> int:
    params = MonteCarloParams(
        m=args.m,
        h=args.h,
        m_prime=args.m_prime,
        c=args.c,
        samples=args.samples,
        seed=args.seed,
    )
    report = montecarlo(params)
    r = report.results
    _emit(
        args,
        report.to_dict(),
        f"montecarlo M={args.m} H={args.h} M'={args.m_prime} c={args.c} "
        f"samples={args.samples} seed={args.seed}\n"
        f"low-weight-kernel fraction: {r['low_weight_fraction']}\n"
        f"not-good fraction: {r['not_good_fraction']}\n"
        f"product distance histogram: {json.dumps(r['product_distance_histogram'])}\n"
        f"sandwich violations: {r['sandwich_violations']}",
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="homprod", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, output=False, seed=False, budget=None):
        p.add_argument("--json", action="store_true", help="structured JSON output")
        if output:
            p.add_argument("-o", "--output", default=None, help="write result to this file")
        if seed:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed")
        if budget is not None:
            p.add_argument("--budget", type=int, default=budget, help="search budget in vectors visited")

    p = sub.add_parser("gen-random", help="random boundary operator with given M and H")
    p.add_argument("m", type=int)
    p.add_argument("h", type=int)
    common(p, output=True, seed=True)
    p.set_defaults(run=_cmd_gen_random)

    p = sub.add_parser("product", help="homological product of two boundary operators")
    p.add_argument("a")
    p.add_argument("b")
    common(p, output=True)
    p.set_defaults(run=_cmd_product)

    p = sub.add_parser("distance", help="exact d_z and d_x of a boundary operator")
    p.add_argument("file")
    common(p, budget=DEFAULT_BUDGET)
    p.set_defaults(run=_cmd_distance)

    p = sub.add_parser("count", help="exact matrix-counting formulas")
    p.add_argument("kind", choices=("rank", "extensions", "kernel", "gamma"))
    p.add_argument("params", type=int, nargs="+")
    common(p)
    p.set_defaults(run=_cmd_count)

    p = sub.add_parser("encode", help="encoding circuit for a boundary operator")
    p.add_argument("file")
    p.add_argument("--verify", action="store_true", help="check the circuit against the operator")
    common(p, output=True)
    p.set_defaults(run=_cmd_encode)

    p = sub.add_parser("reduce", help="split heavy stabilizers of a CSS code")
    p.add_argument("file")
    p.add_argument("--target", type=int, required=True, help="target maximum row weight")
    p.add_argument("--strategy", choices=("round-robin", "random"), default="round-robin")
    p.add_argument("--max-steps", type=int, default=None)
    common(p, output=True, seed=True)
    p.set_defaults(run=_cmd_reduce)

    gf4 = sub.add_parser("gf4", help="GF(4) mirrors of product and distance")
    gf4sub = gf4.add_subparsers(dest="gf4_command", required=True)

    p = gf4sub.add_parser("product", help="product of two GF(4) boundary operators")
    p.add_argument("a")
    p.add_argument("b")
    common(p, output=True)
    p.set_defaults(run=_cmd_gf4_product)

    p = gf4sub.add_parser("distance", help="exact GF(4) distance")
    p.add_argument("file")
    common(p, budget=DEFAULT_BUDGET)
    p.set_defaults(run=_cmd_gf4_distance)

    p = gf4sub.add_parser("bound", help="early-exit search for a light nontrivial cycle")
    p.add_argument("file")
    p.add_argument("bound", type=int)
    common(p, budget=DEFAULT_BUDGET)
    p.set_defaults(run=_cmd_gf4_bound)

    p = gf4sub.add_parser("enumerate", help="all invertible self-adjoint m x m matrices")
    p.add_argument("m", type=int)
    common(p)
    p.set_defaults(run=_cmd_gf4_enumerate)

    p = sub.add_parser("reproduce", help="rerun a recorded experiment and compare")
    p.add_argument("name", choices=tuple(MANIFEST))
    common(p, seed=True)
    p.set_defaults(run=_cmd_reproduce)

    p = sub.add_parser("montecarlo", help="randomized boundary-operator statistics")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--m-prime", type=int, required=True, dest="m_prime")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    common(p, seed=True)
    p.set_defaults(run=_cmd_montecarlo)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (HomprodError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
