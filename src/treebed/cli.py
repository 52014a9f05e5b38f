"""Command-line surface: embedding, tree queries, exact checks, verification.

Exit codes: 0 success, 1 check failed, 2 usage error, 3 resource limit.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys

from .core import Params, ResourceLimit, validate_params
from .cubes import (
    CubeId,
    SeparationKind,
    check_level,
    covering_grid,
    separation_verdict,
    verify_covering_level0,
)
from .embedding import NORMS, embed
from .hyperbolic import HoroPoint, hyp_distance
from .tree import export_subtree, tree_distance
from .verifier import (
    Region,
    SamplePlan,
    default_region,
    evaluate_pairs,
    fit_qi_constants,
    sample_pairs,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


def _parse_cube(text: str) -> CubeId:
    try:
        parts = [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad cube id {text!r}: {exc}") from exc
    if len(parts) < 3:
        raise ValueError(f"cube id needs c,k,g1[,g2,...], got {text!r}")
    return CubeId(parts[0], parts[1], tuple(parts[2:]))


def _parse_point(text: str, n: int) -> HoroPoint:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad point {text!r}: {exc}") from exc
    if len(vals) != n + 1:
        raise ValueError(f"point needs t,x1..x{n}, got {text!r}")
    return HoroPoint(vals[0], tuple(vals[1:]))


def _parse_region(text: str) -> Region:
    try:
        t_min, t_max, x_radius = (float(v) for v in text.split(","))
        return Region(t_min, t_max, x_radius)
    except ValueError as exc:
        raise ValueError(f"bad region {text!r}: {exc}") from exc


def _write(args, text: str) -> None:
    """Write the primary output to ``--output`` if given, else to stdout."""
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, payload: dict, plain: str) -> None:
    _write(
        args,
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
        if args.json
        else plain + "\n",
    )


def _cmd_embed(P: Params, args) -> int:
    point = _parse_point(args.point, P.n)
    doc = embed(P, point).to_json_dict()
    _emit(args, doc, json.dumps(doc, sort_keys=True, allow_nan=False))
    return EXIT_OK


def _cmd_distance(P: Params, args) -> int:
    z = _parse_point(args.z, P.n)
    w = _parse_point(args.w, P.n)
    d = hyp_distance(P, z, w)
    _emit(args, {"d_hyp": d}, repr(d))
    return EXIT_OK


def _cmd_tree_dist(P: Params, args) -> int:
    u = _parse_cube(args.u)
    v = _parse_cube(args.v)
    d = tree_distance(P, u, v)
    _emit(args, {"tree_distance": d}, str(d))
    return EXIT_OK


def _cmd_check_covering(P: Params, args) -> int:
    limit = sys.get_int_max_str_digits()
    too_long = ResourceLimit(
        "the cell count cannot be printed: it has more digits than the limit "
        f"({limit} digits) for integer string conversion; the environment "
        "variable PYTHONINTMAXSTRDIGITS sets that limit"
    )
    # The count m^n has floor(n log10 m) + 1 digits: refuse it before
    # computing the power, which takes seconds at a million digits.
    if limit and P.n * math.log10(covering_grid(P)[1]) >= limit:
        raise too_long
    report = verify_covering_level0(P)
    try:
        plain = (
            f"covered: {report.covered} "
            f"({report.cells_uncovered}/{report.cells_total} cells uncovered)"
        )
    except ValueError:  # a count the float estimate rounded below the limit
        raise too_long from None
    _emit(args, report.to_json_dict(), plain)
    return EXIT_OK if report.covered else EXIT_CHECK_FAILED


def _cmd_check_separation(P: Params, args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    if args.gamma_bound is not None and args.gamma_bound < 0:
        raise ValueError(f"--gamma-bound must be >= 0, got {args.gamma_bound}")
    if args.level_min >= args.level_max:
        raise ValueError(
            f"need --level-min < --level-max, got {args.level_min} >= {args.level_max}"
        )
    check_level(P, args.level_min)
    check_level(P, args.level_max)
    rng = random.Random(args.seed)
    gamma_bound = args.gamma_bound if args.gamma_bound is not None else P.p**3
    counts = {kind: 0 for kind in SeparationKind}
    witness = None
    for _ in range(args.samples):
        k1 = k2 = args.level_min
        while k1 == k2:
            k1 = rng.randint(args.level_min, args.level_max)
            k2 = rng.randint(args.level_min, args.level_max)
        lo_k, hi_k = min(k1, k2), max(k1, k2)
        c = rng.randint(0, P.n)
        low = CubeId(c, lo_k, tuple(rng.randint(-gamma_bound, gamma_bound) for _ in range(P.n)))
        high = CubeId(c, hi_k, tuple(rng.randint(-gamma_bound, gamma_bound) for _ in range(P.n)))
        verdict = separation_verdict(P, low, high)
        counts[verdict.kind] += 1
        if verdict.kind is SeparationKind.VIOLATION and witness is None:
            w = verdict.gap_sq if verdict.margin is None else verdict.margin
            witness = {"low": low.key(), "high": high.key(), "witness": str(w)}
    violations = counts[SeparationKind.VIOLATION]
    doc = {
        "samples": args.samples,
        "disjoint_far": counts[SeparationKind.DISJOINT_FAR],
        "nested_deep": counts[SeparationKind.NESTED_DEEP],
        "violations": violations,
        "witness": witness,
    }
    _emit(args, doc, f"violations: {violations}/{args.samples}")
    return EXIT_OK if violations == 0 else EXIT_CHECK_FAILED


def _cmd_verify(P: Params, args) -> int:
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    plan = SamplePlan(
        region=_parse_region(args.region) if args.region else default_region(P),
        count=args.samples,
        strategy=args.strategy,
        seed=args.seed,
    )
    report = evaluate_pairs(
        P,
        sample_pairs(P, plan),
        norm=args.norm,
        plan=plan,
    )
    fitted = fit_qi_constants(report)
    _write(args, fitted.to_json())
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(fitted.to_csv())
    print(
        f"fitted l={fitted.l} m={fitted.m} violations={fitted.violations} "
        f"runtime_ms={fitted.runtime_ms:.1f}",
        file=sys.stderr,
    )
    return EXIT_OK if fitted.violations == 0 else EXIT_CHECK_FAILED


def _cmd_export_subtree(P: Params, args) -> int:
    ids = [_parse_cube(t) for t in args.id or []]
    if args.ids_file:
        with open(args.ids_file) as fh:
            ids.extend(
                _parse_cube(line.strip())
                for line in fh
                if line.strip() and not line.startswith("#")
            )
    if not ids:
        raise ValueError("no cube ids given (use --id or --ids-file)")
    _write(args, export_subtree(P, ids, fmt=args.format))
    return EXIT_OK


def _add_common(sp: argparse.ArgumentParser, emits_json: bool = True) -> None:
    """--n, --p and --output; --json only where the output has a JSON form."""
    sp.add_argument("--n", type=int, required=True, help="horosphere dimension")
    sp.add_argument("--p", type=int, required=True, help="subdivision factor")
    if emits_json:
        sp.add_argument("--json", action="store_true", help="emit JSON")
    sp.add_argument("--output", help="write the primary output to a file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="treebed",
        description="Tree-product embedding of rescaled hyperbolic space: "
        "queries, exact checks and distortion verification.",
        allow_abbrev=False,  # _apply_config only recognizes --config in full
    )
    ap.add_argument("--config", help="JSON file with flag defaults; flags win")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("embed", help="embed a point (t,x1,..)")
    _add_common(sp)
    sp.add_argument("--point", required=True, help="t,x1[,x2,...]")
    sp.set_defaults(fn=_cmd_embed)

    sp = sub.add_parser("distance", help="hyperbolic distance of two points")
    _add_common(sp)
    sp.add_argument("--z", required=True, help="t,x1[,x2,...]")
    sp.add_argument("--w", required=True, help="t,x1[,x2,...]")
    sp.set_defaults(fn=_cmd_distance)

    sp = sub.add_parser("tree-dist", help="hop distance of two cubes")
    _add_common(sp)
    sp.add_argument("--u", required=True, help="c,k,g1[,g2,...]")
    sp.add_argument("--v", required=True, help="c,k,g1[,g2,...]")
    sp.set_defaults(fn=_cmd_tree_dist)

    sp = sub.add_parser("check-covering", help="exact level-0 covering check")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_check_covering)

    sp = sub.add_parser("check-separation", help="randomized exact separation check")
    _add_common(sp)
    sp.add_argument("--samples", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--level-min", type=int, default=-3)
    sp.add_argument("--level-max", type=int, default=4)
    sp.add_argument("--gamma-bound", type=int, default=None)
    sp.set_defaults(fn=_cmd_check_separation)

    sp = sub.add_parser("verify", help="distortion pipeline, JSON report")
    _add_common(sp, emits_json=False)
    sp.add_argument("--samples", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--region", help="t_min,t_max,x_radius")
    sp.add_argument("--strategy", default="uniform")
    sp.add_argument("--norm", default="l1", choices=NORMS)
    sp.add_argument("--csv", help="also write per-pair rows to this CSV file")
    sp.add_argument("--threads", type=int, default=1, help="no effect; must be >= 1")
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("export-subtree", help="DOT/JSON subtree spanning ids")
    _add_common(sp, emits_json=False)
    sp.add_argument("--id", action="append", help="c,k,g1[,g2,...]; repeatable")
    sp.add_argument("--ids-file", help="file with one cube id per line")
    sp.add_argument("--format", default="dot", choices=("dot", "json"))
    sp.set_defaults(fn=_cmd_export_subtree)
    return ap


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser built once per process; parsing leaves it unchanged."""
    return build_parser()


def _apply_config(argv: list[str]) -> list[str]:
    # Flags win over config values: config entries are prepended as defaults
    # right after the subcommand token. A flag counts as given in both the
    # "--flag value" and the "--flag=value" form.
    flags = [a.split("=", 1)[0] for a in argv]
    if "--config" not in flags:
        return argv
    i = flags.index("--config")
    if argv[i] != "--config":
        path, rest = argv[i].split("=", 1)[1], argv[:i] + argv[i + 1 :]
    elif i + 1 < len(argv):
        path, rest = argv[i + 1], argv[:i] + argv[i + 2 :]
    else:
        raise ValueError("--config needs a file path")
    with open(path) as fh:
        conf = json.load(fh)
    if not isinstance(conf, dict):
        raise ValueError(f"config {path!r} must hold a JSON object")
    extra: list[str] = []
    for key, value in conf.items():
        flag = "--" + key.replace("_", "-")
        if flag in flags:
            continue
        if isinstance(value, bool):
            if value:
                extra.append(flag)
        else:
            extra.append(f"{flag}={value}")  # one token, even for "-4,4,625"
    if not rest:
        return rest
    return [rest[0]] + extra + rest[1:]


# Flags whose values are comma lists that may start with "-", and the starts
# of such a value: a minus sign, then a digit or a point.
_LIST_FLAGS = ("--point", "--z", "--w", "--u", "--v", "--id", "--region")
_SIGNED = tuple("-" + c for c in "0123456789.")


def _join_signed_values(argv: list[str]) -> list[str]:
    """Join "--point -2.5,100" into "--point=-2.5,100".

    argparse reads a token that starts with "-" as an option unless it is a
    plain number, so a list value such as "-2.5,100" must be joined to its
    flag for argparse to take it as the value.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _LIST_FLAGS and arg.startswith(_SIGNED):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _join_signed_values(_apply_config(argv))
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits after --help (0) and after a usage error (2).
            return EXIT_OK if exc.code == 0 else EXIT_USAGE
        return args.fn(validate_params(args.n, args.p), args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimit as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
