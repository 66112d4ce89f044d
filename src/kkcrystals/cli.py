"""Command-line front end.

Subcommands: convert (partition <-> path JSON), decompose (multiplicity
tables), graph (submodule crystal in DOT), verify (exhaustive oracle
suites), enumerate (regular charged partitions).  Output is deterministic
for fixed flags.  Exit codes: 0 success, 1 failed verification, 2 invalid
input, 3 unwritable output: an output path, or a stdout its reader closed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .iso import partition_to_path, path_to_partition
from .kk import KKSpec, decomposition, decomposition_via_crystal, kk_crystal_graph
from .partitions import ChargedPartition, enumerate_regular
from .paths import LSPath
from .verify import SUITES, run_suites

# largest part of a partition, and n + len(steps) of a path, that convert
# accepts: the output grows with them, so larger inputs exit 2 up front
MAX_CONVERT_SIZE = 100_000
# largest decompose cutoff: the cost grows with its square, so larger
# cutoffs exit 2 up front
MAX_DECOMPOSE_CUTOFF = 1_000
# largest cutoff with --oracle: the oracle lists every charge-0 partition
# of up to 2 cutoff + 1 boxes, a count exponential in the cutoff
MAX_ORACLE_CUTOFF = 25
SIZE_FLAGS = ("max_boxes", "len_max", "index_max", "p_max", "cutoff",
              "side_boxes")


def _int(text: str) -> int:
    """An optional '-' and ASCII digits; int() alone also reads '+3', '1_0',
    ' 3' and non-ASCII digits, and raises ValueError past its digit limit."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kkcrystals",
        description="Level-one crystal combinatorics for affine sl2: "
                    "charged partitions, LS paths, and Kostant-Kumar "
                    "submodule crystals.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_convert = sub.add_parser(
        "convert", help="map a charged partition to its LS path or back")
    p_convert.add_argument(
        "data", nargs="?", default="-",
        help="JSON object, or comma-separated parts; '-' reads stdin")
    p_convert.add_argument("--charge", type=_int, choices=(0, 1),
                           help="charge when parts are given bare (default 0)")

    p_dec = sub.add_parser("decompose",
                           help="multiplicity table of a submodule crystal")
    p_dec.add_argument("--lambda", dest="lam", type=_int, choices=(0, 1),
                       required=True)
    p_dec.add_argument("--p", type=_int, required=True)
    p_dec.add_argument("--cutoff", type=_int, default=6)
    p_dec.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p_dec.add_argument("--oracle", action="store_true",
                       help="also count highest-weight elements and compare")

    p_graph = sub.add_parser("graph",
                             help="truncated submodule crystal graph in DOT")
    p_graph.add_argument("--lambda", dest="lam", type=_int, choices=(0, 1),
                         required=True)
    p_graph.add_argument("--p", type=_int, required=True)
    p_graph.add_argument("--max-boxes", type=_int, default=12)
    p_graph.add_argument("--out", default="-", help="output path; '-' is stdout")
    p_graph.add_argument("--format", choices=("dot", "json"), default="dot")

    p_verify = sub.add_parser("verify", help="run the exhaustive check suites")
    p_verify.add_argument("suite", choices=(*SUITES, "all"))
    p_verify.add_argument("--max-boxes", type=_int, default=12)
    p_verify.add_argument("--len-max", type=_int, default=8)
    p_verify.add_argument("--index-max", type=_int, default=12)
    p_verify.add_argument("--p-max", type=_int, default=5)
    p_verify.add_argument("--cutoff", type=_int, default=6)
    p_verify.add_argument("--side-boxes", type=_int, default=6)
    p_verify.add_argument("--json", action="store_true",
                          help="machine-readable report")

    p_enum = sub.add_parser("enumerate",
                            help="list regular charged partitions by size")
    p_enum.add_argument("--charge", type=_int, choices=(0, 1), required=True)
    p_enum.add_argument("--max-boxes", type=_int, default=12)
    p_enum.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _fail(message: str, code: int):
    print("error: %s" % message, file=sys.stderr)
    raise SystemExit(code)


def _cmd_convert(args) -> int:
    try:
        text = sys.stdin.read() if args.data == "-" else args.data
    except UnicodeDecodeError as exc:
        _fail("undecodable input: %s" % exc, 2)
    text = text.strip()
    if not text:
        _fail("empty input", 2)
    if text.startswith("{"):
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # ValueError: not JSON, or an integer past Python's digit
            # limit; RecursionError: nested deeper than the decoder goes
            _fail("malformed JSON: %s" % exc, 2)
        if args.charge is not None:
            _fail("--charge applies to bare parts only", 2)
        if "parts" in data:
            _convert_partition(data)
        else:
            _convert_path(data)
    else:
        try:
            parts = tuple(_int(tok.strip()) for tok in text.split(","))
        except (ValueError, argparse.ArgumentTypeError):
            _fail("parts must be comma-separated integers", 2)
        _convert_partition({"parts": list(parts), "charge": args.charge or 0})
    return 0


def _convert_partition(data: dict):
    try:
        cp = ChargedPartition.from_json(data)
    except (ValueError, TypeError) as exc:
        _fail("bad charged partition: %s" % exc, 2)
    if cp.parts and cp.parts[0] > MAX_CONVERT_SIZE:
        _fail("largest part %d exceeds the limit %d"
              % (cp.parts[0], MAX_CONVERT_SIZE), 2)
    print(json.dumps(partition_to_path(cp).to_json()))


def _convert_path(data: dict):
    try:
        path = LSPath.from_json(data)
    except (ValueError, TypeError) as exc:
        _fail("bad LS path: %s" % exc, 2)
    if path.m > MAX_CONVERT_SIZE:
        _fail("n + len(steps) = %d exceeds the limit %d"
              % (path.m, MAX_CONVERT_SIZE), 2)
    print(json.dumps(path_to_partition(path).to_json()))


def _spec(args) -> KKSpec:
    try:
        return KKSpec(args.lam, args.p)
    except ValueError as exc:
        _fail(str(exc), 2)


def _cmd_decompose(args) -> int:
    spec = _spec(args)
    limit = MAX_ORACLE_CUTOFF if args.oracle else MAX_DECOMPOSE_CUTOFF
    if args.cutoff > limit:
        _fail("cutoff %d exceeds the limit %d" % (args.cutoff, limit), 2)
    table = decomposition(spec, args.cutoff)
    agreement = None
    if args.oracle:
        agreement = (table == decomposition_via_crystal(spec, args.cutoff))
    if args.format == "tsv":
        sys.stdout.write(table.to_tsv())
        if agreement is not None:
            print("# oracle agreement: %s" % ("yes" if agreement else "NO"))
    else:
        obj = table.to_json_obj()
        obj["lambda"] = spec.lambda_type
        obj["p"] = spec.p
        if agreement is not None:
            obj["oracle_agreement"] = agreement
        print(json.dumps(obj, sort_keys=True))
    return 0 if agreement in (None, True) else 1


def _cmd_graph(args) -> int:
    spec = _spec(args)
    graph = kk_crystal_graph(spec, args.max_boxes)
    payload = (graph.to_dot() if args.format == "dot"
               else json.dumps(graph.to_json_obj(), sort_keys=True) + "\n")
    if args.out == "-":
        sys.stdout.write(payload)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            _fail("cannot write %s: %s" % (args.out, exc), 3)
    print("vertices %d edges %d" % (len(graph.vertices), len(graph.edges)))
    return 0


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, **{flag: getattr(args, flag)
                                   for flag in SIZE_FLAGS})
    if args.json:
        print(json.dumps([{"name": r.name, "ok": r.ok, "cases": r.cases,
                           "failures": r.failures} for r in results],
                         sort_keys=True))
    else:
        for r in results:
            if r.ok:
                print("ok   %s (%d cases)" % (r.name, r.cases))
            else:
                print("FAIL %s: %s" % (r.name, r.failures[0]))
    return 0 if all(r.ok for r in results) else 1


def _cmd_enumerate(args) -> int:
    items = enumerate_regular(args.charge, args.max_boxes)
    for cp in items:
        if args.format == "text":
            print(cp.display())
        else:
            print(json.dumps(cp.to_json()))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    for flag in SIZE_FLAGS:
        if getattr(args, flag, 0) < 0:
            _fail("%s must be nonnegative" % flag.replace("_", "-"), 2)
    handler = {
        "convert": _cmd_convert,
        "decompose": _cmd_decompose,
        "graph": _cmd_graph,
        "verify": _cmd_verify,
        "enumerate": _cmd_enumerate,
    }[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()  # so that a closed reader shows here
    except BrokenPipeError:
        # the rest of the output goes to os.devnull, or the flush at
        # interpreter shutdown raises again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _fail("stdout was closed by its reader", 3)
    return code


if __name__ == "__main__":
    sys.exit(main())
