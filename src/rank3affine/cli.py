"""Command-line front end: construct, classify, verify.

Exit codes: 0 success, 1 verification failure (violations or unmatched
partitions), 2 usage or precondition error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys
import tempfile

# lazy modules (see __init__): each runs on its first attribute access, so
# a command loads only the modules it calls
from . import classify, families, fields, graphs, znaction
from .errors import (DEFAULT_FIELD_CAP, DEFAULT_N_CAP, DEFAULT_SRG_CAP,
                     CapExceeded, ModulusOutOfRange, OutputNotWritable,
                     Rank3Error)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rank3affine",
        description="Construct Paley / generalized Paley / Peisert graphs over "
                    "GF(q) and verify that they exhaust the two-orbit "
                    "partitions of affine subgroup actions.")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct",
                       help="build a family connection set and its Cayley graph")
    c.add_argument("--family", required=True, choices=["paley", "vls", "peisert"])
    c.add_argument("--p", type=int, required=True, help="prime characteristic")
    c.add_argument("--r", type=int, required=True, help="extension degree")
    c.add_argument("--ell", type=int, help="prime index for the vls family")
    c.add_argument("--variant", type=int, choices=[1, 3],
                   help="peisert variant (default 1)")
    c.add_argument("--format", choices=["json", "graph6", "edges", "text"],
                   default="json")
    c.add_argument("--output", help="write the result to a file instead of stdout")
    c.add_argument("--allow-directed", action="store_true",
                   help="accept an asymmetric vls connection set (exploratory)")
    c.add_argument("--field-cap", type=int, default=DEFAULT_FIELD_CAP)
    c.add_argument("--srg-cap", type=int, default=DEFAULT_SRG_CAP)
    c.set_defaults(func=cmd_construct)

    cl = sub.add_parser("classify",
                        help="classify every two-orbit partition of F_q^*")
    cl.add_argument("--p", type=int, required=True)
    cl.add_argument("--r", type=int, required=True)
    cl.add_argument("--cap", type=int, default=DEFAULT_N_CAP)
    cl.add_argument("--format", choices=["json", "text"], default="json")
    cl.add_argument("--output")
    cl.set_defaults(func=cmd_classify)

    v = sub.add_parser("verify",
                       help="exhaustively verify the partition classification")
    v.add_argument("--lemma", action="store_true",
                   help="check all contexts (n, a) up to --n-max")
    v.add_argument("--theorem", action="store_true",
                   help="check all prime powers up to --q-max")
    v.add_argument("--n-max", type=int)
    v.add_argument("--q-max", type=int,
                   help="sweep bound when no --q is given (default 1024)")
    v.add_argument("--q", type=int, action="append",
                   help="explicit field order (repeatable)")
    v.add_argument("--cap", type=int, default=DEFAULT_N_CAP)
    v.add_argument("--classes", action="store_true",
                   help="include literal class arrays in the lemma report "
                        "(large for big n)")
    v.add_argument("--output")
    v.set_defaults(func=cmd_verify)
    return ap


@contextlib.contextmanager
def _out_stream(path: str | None):
    """Stdout, or a temp file beside path that replaces path on a normal
    return and is removed on an exception, so no partial report is left.
    A path that exists and is not a regular file (a FIFO, a device, a link
    to one) is written in place instead, so it is never replaced by a
    regular file.  A link to a regular file stays a link: the file it
    names is replaced.  A failed write (a closed pipe, a full disk) raises
    OutputNotWritable."""
    try:
        if not path:
            yield sys.stdout
            sys.stdout.flush()
            return
        if _is_special(path):
            with open(path, "w", encoding="ascii") as fh:
                yield fh
            return
        # resolved only now: /dev/stdout on a pipe resolves to no path
        target = os.path.realpath(path)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target),
                                   prefix=".rank3affine-", suffix=".tmp")
        try:
            with open(fd, "w", encoding="ascii") as fh:
                yield fh
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        if not path:
            # the buffered rest would fail again in the flush at exit
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise OutputNotWritable(
            f"cannot write {path or 'stdout'}: {exc.strerror}") from None


def _is_special(path: str) -> bool:
    # exists, after links, and is neither a regular file nor a directory
    # (os.replace refuses a directory, as it should)
    try:
        mode = os.stat(path).st_mode
    except OSError:
        return False
    return not (stat.S_ISREG(mode) or stat.S_ISDIR(mode))


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def cmd_construct(args) -> int:
    stray = {"--ell": args.family != "vls" and args.ell is not None,
             "--variant": args.family != "peisert" and args.variant is not None,
             "--allow-directed": args.family != "vls" and args.allow_directed}
    for flag, given in stray.items():
        if given:
            _note(f"error: {flag} does not apply to --family {args.family}")
            return 2
    if args.family == "vls" and args.ell is None:
        _note("error: --ell is required for the vls family")
        return 2
    field = fields.build_field(args.p, args.r, cap=args.field_cap)
    if args.family == "paley":
        conn = families.paley_connection_set(field)
    elif args.family == "vls":
        conn = families.vls_connection_set(
            field, args.ell, allow_directed=args.allow_directed)
    else:
        conn = families.peisert_connection_set(field, args.variant or 1)
    graph = graphs.build_cayley(field, conn)

    srg_doc: dict | None = None
    srg_line = "directed graph: strong regularity not checked"
    if not graph.directed:
        res = graphs.srg_params(graph, cap=args.srg_cap)
        if isinstance(res, graphs.NotStronglyRegular):
            srg_doc = {"not_strongly_regular": res.reason,
                       "witness": list(res.witness)}
            srg_line = f"not strongly regular: {res.reason} at {res.witness}"
        else:
            srg_doc = res.to_json()
            srg_line = f"srg(v={res.v}, k={res.k}, lambda={res.lam}, mu={res.mu})"

    label = json.dumps(families.label_to_json(conn.label))
    summary = f"GF({field.q}) {label} |S|={len(conn)} {srg_line}"
    with _out_stream(args.output) as out:
        if args.format == "graph6":
            out.write(graphs.export_graph6(graph).decode("ascii") + "\n")
            _note(summary)
        elif args.format == "edges":
            out.write(graphs.export_edge_list(graph))
            _note(summary)
        elif args.format == "text":
            out.write(f"field: GF({field.q}) = GF({field.p}^{field.r}), "
                      f"modulus {list(field.modulus)}, "
                      f"omega {list(field.coeffs(field.omega))}\n")
            out.write(f"family: {label}\n")
            out.write(f"connection set ({len(conn)} indices): "
                      f"{conn.sorted_indices()}\n")
            out.write(f"parameters: {srg_line}\n")
        else:
            doc = {
                "connection_set": conn.to_json(),
                "srg": srg_doc,
            }
            if graph.directed:
                doc["arcs"] = [[i, j] for i in range(graph.q)
                               for j in graph.neighbors(i)]
            else:
                doc["graph6"] = graphs.export_graph6(graph).decode("ascii")
            json.dump(doc, out, indent=2)
            out.write("\n")
    return 0


def cmd_classify(args) -> int:
    # reject on the cap before building the field
    if fields.exceeds_cap(args.p, args.r, args.cap):
        raise CapExceeded(
            f"q = {args.p}^{args.r} exceeds the classification cap {args.cap}")
    field = fields.build_field(args.p, args.r)
    report = classify.classify_field(field, cap=args.cap)
    with _out_stream(args.output) as out:
        if args.format == "text":
            out.write(f"GF({field.q}): {len(report.entries)} two-orbit "
                      f"partition(s), unmatched {report.unmatched_count}\n")
            n = field.q - 1
            for e in report.entries:
                # O1 is the union of len(r1) cosets of m Z_n
                size = len(e.partition.r1) * (n // e.partition.m)
                doc = e.to_json()
                out.write(f"  |O1|={size} |O2|={n - size} "
                          f"case={json.dumps(doc['lemma_case'])} "
                          f"family={json.dumps(doc['family'])} "
                          f"shift={e.shift}\n")
        else:
            json.dump(report.to_json(), out, indent=2)
            out.write("\n")
    _note(f"GF({field.q}): {len(report.entries)} partitions, families "
          f"{report.families_present()}, unmatched {report.unmatched_count}")
    return 0 if report.unmatched_count == 0 else 1


def cmd_verify(args) -> int:
    if args.lemma == args.theorem:
        _note("error: choose exactly one of --lemma / --theorem")
        return 2
    if args.lemma:
        mode = "--lemma"
        stray = {"--q": args.q is not None, "--q-max": args.q_max is not None}
    else:
        mode = "--theorem"
        stray = {"--n-max": args.n_max is not None, "--classes": args.classes}
    for flag, given in stray.items():
        if given:
            _note(f"error: {flag} does not apply to {mode}")
            return 2
    if args.q and args.q_max is not None:
        _note("error: --q-max does not apply beside --q")
        return 2
    if args.lemma:
        if args.n_max is None:
            _note("error: --lemma requires --n-max")
            return 2
        if args.n_max < 2:
            raise ModulusOutOfRange(
                f"--n-max {args.n_max} checks nothing: the lemma sweep starts "
                f"at n = 2")
        with _out_stream(args.output) as out:
            summary = znaction.verify_lemma(args.n_max, cap=args.cap,
                                            sink=out,
                                            include_classes=args.classes)
        _note(f"lemma n <= {args.n_max}: {summary['contexts_checked']} contexts, "
              f"{summary['partitions_checked']} partitions, "
              f"{summary['violation_count']} violations")
        return 0 if summary["violation_count"] == 0 else 1
    q_max = 1024 if args.q_max is None else args.q_max
    if not args.q and q_max < 2:
        raise ModulusOutOfRange(
            f"--q-max {q_max} checks nothing: the theorem sweep starts "
            f"at q = 2")
    # a prime lies in (c, 2c] (Bertrand), so the list up to 2c, for c the
    # lesser of the two caps, holds the first q over it, whose error ends
    # the sweep
    cap = min(args.cap, DEFAULT_FIELD_CAP)
    qs = args.q or classify.prime_powers_up_to(min(q_max, max(2 * cap, 2)))
    with _out_stream(args.output) as out:
        summary = classify.verify_theorem(qs, cap=args.cap, sink=out)
    _note(f"theorem: {summary['fields_checked']} fields, "
          f"{summary['unmatched_total']} unmatched")
    return 0 if summary["all_matched"] else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Rank3Error as exc:
        _note(f"error: {type(exc).__name__}: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
