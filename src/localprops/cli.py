"""Command-line front door.

Usage examples:

    localprops verify-coloring --input coloring.json --k 3 --ell 3
    localprops verify-diffset --input set.json --k 4 --ell 5
    localprops verify-distances --input points.json --k 3 --ell 3
    localprops construct --kind random-coloring --n 8 --colors 5 --seed 7 \\
        --artifact-out coloring.json
    localprops construct --kind behrend --size-target 32 --artifact-out set.json
    localprops construct --kind collinear-points --input set.json \\
        --artifact-out points.json
    localprops construct --kind estimate-probability --n 6 --colors 9 \\
        --k 3 --ell 2 --trials 500 --seed 11
    localprops solve-f --n 5 --k 3 --ell 3 --certificate-out cert.json
    localprops solve-g --n 4 --k 4 --ell 5 --range-cap 10
    localprops energy --input coloring.json --format csv
    localprops profile --input coloring.json --k 6 --m 2 --format csv
    localprops lemma-check --input system.json

Exit status follows the payload's status field (EXIT_CODES): 0 for
holds, ok, found, optimal, bound-only and budget-exhausted; 1 for fails,
infeasible, unsatisfiable and none (the payload carries the witness or
failure report); 2 on usage or parse errors, with no payload.  Budget
exhaustion is a status, not an exit code.  Randomized subcommands
require an explicit --seed and never read clocks or environment
variables, so identical command lines produce byte-identical payloads.

The options are data: each subcommand is one row of COMMANDS giving its
name, help line, handler and options in the order help lists them, each
option a flag with its add_argument keywords (type, required, choices,
default, help); every subcommand also takes --output.  main() builds the
parser from that table on its first call and reuses it for every later
call in the process; importing this module builds nothing.  A handler
only computes: it returns (params, fields) or (params, fields, csv_text),
and main() alone builds the payload, writes it and picks the exit code.
"""

from __future__ import annotations

import argparse
import csv
import io as _io
import sys
from functools import cache
from math import comb
from operator import attrgetter
from pathlib import Path

from . import __version__
from .coloring import LocalSpec, cauchy_schwarz_floor, verify_local_property
from .constructions import (
    RandomColoringConfig,
    behrend_set,
    collinear_point_set,
    estimate_property_probability,
    random_coloring,
)
from .energy import bound_report, crossover_index, dyadic_bins
from .forbidden import TUPLE_BUDGET, DetectorParams, counting_lemma_find, lemma_hypothesis_holds
from .io import (
    dump_json,
    load_coloring,
    load_integer_set,
    load_point_set,
    load_set_system,
    save_coloring,
    save_integer_set,
    save_point_set,
)
from .numbersets import (
    min_difference_set,
    verify_diff_local_property,
    verify_distance_local_property,
)
from .solver import SolveBudget, min_colors

SCHEMA_VERSION = 1

# the exit status of every status a handler returns
EXIT_CODES = {
    **dict.fromkeys(["holds", "ok", "found", "optimal", "bound-only", "budget-exhausted"], 0),
    **dict.fromkeys(["fails", "infeasible", "unsatisfiable", "none"], 1),
}


def _emit(args, payload: dict, csv_text: str | None = None) -> None:
    text = csv_text if getattr(args, "format", None) == "csv" else dump_json(payload)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _csv(header, rows) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _echo(args, names) -> dict:
    return {name: getattr(args, name) for name in names}


def _cmd_verify(args):
    # looked up per call, so the cached parser binds no library function
    # and a patched module-level name takes effect on the next call
    load, size, verify = {
        "verify-coloring": (load_coloring, attrgetter("n"), verify_local_property),
        "verify-diffset": (load_integer_set, len, verify_diff_local_property),
        "verify-distances": (load_point_set, len, verify_distance_local_property),
    }[args.subcommand]
    spec = LocalSpec(args.k, args.ell)
    instance = load(args.input)
    params = {"k": args.k, "ell": args.ell, "n": size(instance)}
    if spec.k > params["n"]:
        return params, {"status": "infeasible"}
    verdict = verify(instance, spec)
    return params, {
        "status": "holds" if verdict.holds else "fails",
        "witness": verdict.witness,
        "witness_colors": verdict.witness_colors,
    }


# the options each construct kind requires, in the order a usage error
# names the missing ones; the params echo those that are not paths
_CONSTRUCT_NEEDS = {
    "random-coloring": ("n", "colors", "seed", "artifact_out"),
    "behrend": ("size_target", "artifact_out"),
    "collinear-points": ("input", "artifact_out"),
    "estimate-probability": ("n", "colors", "k", "ell", "trials", "seed"),
}


def _cmd_construct(args):
    kind = args.kind
    needs = _CONSTRUCT_NEEDS[kind]
    missing = [f"--{n.replace('_', '-')}" for n in needs if getattr(args, n) is None]
    if missing:
        args.parser.error(f"--kind {kind} requires {', '.join(missing)}")
    params = {"kind": kind, **_echo(args, (n for n in needs if n not in ("input", "artifact_out")))}
    if kind == "random-coloring":
        G = random_coloring(RandomColoringConfig(args.n, args.colors, args.seed))
        save_coloring(args.artifact_out, G)
        fields = {"artifact": args.artifact_out, "num_colors_used": G.num_colors}
    elif kind == "behrend":
        out = behrend_set(args.size_target)
        save_integer_set(args.artifact_out, out)
        fields = {"artifact": args.artifact_out, "size": len(out), "max_element": out[-1]}
    elif kind == "collinear-points":
        pts = collinear_point_set(load_integer_set(args.input))
        save_point_set(args.artifact_out, pts)
        fields = {"artifact": args.artifact_out, "size": len(pts)}
    else:  # estimate-probability
        spec = LocalSpec(args.k, args.ell)
        if spec.k > args.n:
            return _echo(args, ("kind", "n", "k", "ell")), {"status": "infeasible"}
        prob = estimate_property_probability(args.n, args.colors, spec, args.trials, args.seed)
        fields = {"probability": prob}
    return params, {"status": "ok", **fields}


def _cmd_solve_f(args):
    params = _echo(args, ("n", "k", "ell", "node_limit", "time_limit"))
    if args.k >= 2 and args.ell > comb(args.k, 2):  # k < 2 is refused by LocalSpec
        return params, {"status": "unsatisfiable"}
    spec = LocalSpec(args.k, args.ell)
    if spec.k > args.n:
        return params, {"status": "infeasible"}
    result = min_colors(args.n, spec, SolveBudget(args.node_limit, args.time_limit))
    if args.certificate_out and result.certificate is not None:
        save_coloring(args.certificate_out, result.certificate)
    if args.log_out:
        Path(args.log_out).write_text(_csv(["c", "nodes", "outcome"], result.log))
    return params, {
        "status": result.status,
        "value": result.value,
        "lower_bound": result.lower_bound,
        "certificate": args.certificate_out if result.certificate else None,
        "levels": [{"c": c, "nodes": n, "outcome": o} for c, n, o in result.log],
    }


def _cmd_solve_g(args):
    params = _echo(args, ("n", "k", "ell", "range_cap", "max_sets"))
    if args.k >= 2 and args.ell > comb(args.k, 2):  # k < 2 is refused by LocalSpec
        return params, {"status": "unsatisfiable"}
    spec = LocalSpec(args.k, args.ell)
    result = min_difference_set(args.n, spec, args.range_cap, args.max_sets)
    cert = None
    if result.certificate is not None:
        cert = {
            "set": list(result.certificate),
            "difference_set": list(result.difference_set),
        }
        if args.certificate_out:
            Path(args.certificate_out).write_text(dump_json(cert))
    return params, {
        "status": result.status,
        "value": result.value,
        "certificate": cert,
        "sets_examined": result.sets_examined,
        "scope": f"exact over subsets of [1, {args.range_cap}]; "
        "upper bound for the uncapped minimum",
    }


def _cmd_energy(args):
    G = load_coloring(args.input)
    bins, contributions = dyadic_bins(G)
    total = sum(contributions)
    columns = ["j", "bin_count", "contribution"]
    rows = [[j, bc, contrib] for j, (bc, contrib) in enumerate(zip(bins, contributions))]
    fields = {
        "status": "ok",
        "num_colors": G.num_colors,
        "energy": total,
        "cauchy_schwarz_floor": cauchy_schwarz_floor(G) if G.num_colors else None,
        "decomposition": [dict(zip(columns, row)) for row in rows],
    }
    return {"n": G.n}, fields, _csv(columns, rows + [["total", "", total]])


def _cmd_profile(args):
    p = DetectorParams(args.k, args.m)
    G = load_coloring(args.input)
    rows = bound_report(G, p, locate=args.locate, tuple_budget=args.tuple_budget)
    row_dicts = []
    for r in rows:
        flags = [
            "poor_ok" if r.poor_ok else "poor_violated",
            "rich_regime" if r.rich_regime else "poor_regime",
            "rich_ok" if r.rich_ok else "rich_violated:forbidden-configuration-implied",
        ]
        if r.remark_zone:
            flags.append("remark_zone")
        d = {"j": r.j, "bin_count": r.bin_count, "k_j": r.cum_count, "min_support": r.min_support}
        d["flags"] = ";".join(flags)
        for name in ("poor_bound", "rich_bound", "support_bound"):
            d[f"{name}_num"], d[f"{name}_den"] = getattr(r, name)
        if r.located is not None:
            mono, hit = r.located
            if hit is not None and hit != "budget-exceeded":
                hit = {"colors": list(hit.colors), "vertices": sorted(hit.vertices)}
            d["located"] = {
                "mono_degree_violations": [list(v) for v in mono],
                "popular_intersection": hit,
            }
        row_dicts.append(d)
    fields = {
        "status": "ok",
        "crossover": crossover_index(G.n, p),
        "bin_count": [r.bin_count for r in rows],
        "cum_count": [r.cum_count for r in rows],
        "rows": row_dicts,
    }
    columns = [
        "j", "bin_count", "k_j", "poor_bound_num", "poor_bound_den",
        "rich_bound_num", "rich_bound_den", "flags",
    ]
    return (
        {"n": G.n, "k": args.k, "m": args.m},
        fields,
        _csv(columns, ([d[c] for c in columns] for d in row_dicts)),
    )


def _cmd_lemma_check(args):
    inst = load_set_system(args.input)
    hit = counting_lemma_find(inst)
    params = {"n": inst.n, "d": inst.d, "k": len(inst.sets), "min_set_size": inst.min_size}
    return params, {
        "status": "found" if hit else "none",
        "hypothesis_holds": lemma_hypothesis_holds(inst),
        "indices": list(hit[0]) if hit else None,
        "intersection_size": hit[1] if hit else None,
    }


_REQUIRED = {"required": True}
_INT = {"type": int}
_REQUIRED_INT = {"type": int, "required": True}
_FORMAT = {"choices": ["json", "csv"], "default": "json"}
_VERIFY = {"--input": _REQUIRED, "--k": _REQUIRED_INT, "--ell": _REQUIRED_INT}
_N_K_ELL = dict.fromkeys(["--n", "--k", "--ell"], _REQUIRED_INT)
_OUTPUT = {"--output": {"help": "payload destination (default stdout)"}}

# (subcommand, help, handler, {flag: add_argument keywords}) in the order
# the parser lists them; _parser() adds --output last to each.
COMMANDS = (
    ("verify-coloring", "verify coloring against a (k, ell) spec", _cmd_verify, _VERIFY),
    ("verify-diffset", "verify diffset against a (k, ell) spec", _cmd_verify, _VERIFY),
    ("verify-distances", "verify distances against a (k, ell) spec", _cmd_verify, _VERIFY),
    ("construct", "generators and the probability estimator", _cmd_construct, {
        "--kind": {
            "required": True,
            "choices": ["random-coloring", "behrend", "collinear-points", "estimate-probability"],
        },
        **dict.fromkeys(["--n", "--colors", "--k", "--ell", "--seed", "--trials", "--size-target"], _INT),
        "--input": {},
        "--artifact-out": {"help": "where the constructed object is written"},
    }),
    ("solve-f", "exact minimum color count with certificate", _cmd_solve_f, {
        **_N_K_ELL,
        "--node-limit": _INT,
        "--time-limit": {"type": float},
        "--certificate-out": {},
        "--log-out": {"help": "per-level CSV search log"},
    }),
    ("solve-g", "exact minimum difference-set size over a capped range", _cmd_solve_g, {
        **_N_K_ELL,
        "--range-cap": _REQUIRED_INT,
        "--max-sets": _INT,
        "--certificate-out": {},
    }),
    ("energy", "color energy, its floor, and the dyadic split", _cmd_energy,
     {"--input": _REQUIRED, "--format": _FORMAT}),
    ("profile", "dyadic profile and per-j bound report", _cmd_profile, {
        "--input": _REQUIRED,
        "--k": _REQUIRED_INT,
        "--m": _REQUIRED_INT,
        "--locate": {"action": "store_true", "help": "locate forbidden configs on rich-bound violations"},
        "--tuple-budget": {"type": int, "default": TUPLE_BUDGET},
        "--format": _FORMAT,
    }),
    ("lemma-check", "search a set system for a dense d-wise intersection", _cmd_lemma_check,
     {"--input": _REQUIRED}),
)


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser for COMMANDS, built on the first main() call and then reused."""
    parser = argparse.ArgumentParser(
        prog="localprops",
        description="Verify, construct, solve and profile local-property instances.",
    )
    parser.add_argument("--version", action="version", version=f"localprops {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text, handler, options in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=handler, parser=p)
        for flag, keywords in {**options, **_OUTPUT}.items():
            p.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        params, fields, *csv_text = args.func(args)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "tool": "localprops",
            "version": __version__,
            "subcommand": args.subcommand,
            "params": params,
            **fields,
        }
        _emit(args, payload, *csv_text)
    except (ValueError, OSError) as exc:
        print(f"localprops: error: {exc}", file=sys.stderr)
        return 2
    return EXIT_CODES[fields["status"]]


if __name__ == "__main__":
    sys.exit(main())
