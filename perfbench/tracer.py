"""Run one rank3affine CLI command in this process and record spans.

Usage: python3 tracer.py SPANS_JSON ARGV...

Each public function in ``WRAPS`` is replaced, in every rank3affine module
that holds it, by a wrapper that records a span (name, parent span, start,
end, count).  ``rank3affine.cli.main(ARGV)`` then runs as the CLI would, and
the spans are written to SPANS_JSON when it returns.  A function that no
longer exists is listed under "absent" instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function, span name).  These are the calls that cross a module
# boundary; the three connection-set constructors share one span name.
WRAPS = (
    ("fields", "build_field", "fields.build_field"),
    ("znaction", "two_orbit_partitions_with_generators", "znaction.enumerate"),
    ("znaction", "verify_lemma", "znaction.verify_lemma"),
    ("classify", "classify_field", "classify.classify_field"),
    ("classify", "verify_theorem", "classify.verify_theorem"),
    ("families", "paley_connection_set", "families.connection_set"),
    ("families", "vls_connection_set", "families.connection_set"),
    ("families", "peisert_connection_set", "families.connection_set"),
    ("graphs", "build_cayley", "graphs.build_cayley"),
    ("graphs", "srg_params", "graphs.srg_params"),
    ("graphs", "export_graph6", "graphs.export_graph6"),
    ("cli", "main", "cli.main"),
)


def _count(span: str, args: tuple, result) -> int | None:
    """The operation count a span carries: partitions returned, vertex pairs
    examined, or graph6 bytes written."""
    try:
        if span == "znaction.enumerate":
            return len(result)
        if span == "graphs.srg_params":
            v = args[0].q
            return v * (v - 1) // 2
        if span == "graphs.export_graph6":
            return len(result)
    except (AttributeError, IndexError, TypeError):
        pass
    return None


def _wrap(fn, span: str, spans: list, stack: list):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        record = [span, stack[-1] if stack else None, time.perf_counter(),
                  None, None]
        stack.append(len(spans))
        spans.append(record)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            stack.pop()
        record[4] = _count(span, args, result)
        return result
    return traced


def install(spans: list, stack: list) -> list[str]:
    """Patch every function in WRAPS; return the names that were absent."""
    import rank3affine.cli  # noqa: F401  (imports every module the CLI uses)
    modules = [m for name, m in list(sys.modules.items())
               if name == "rank3affine" or name.startswith("rank3affine.")]
    absent = []
    for module, name, span in WRAPS:
        fn = getattr(sys.modules.get(f"rank3affine.{module}"), name, None)
        if not callable(fn):
            absent.append(f"{module}.{name}")
            continue
        traced = _wrap(fn, span, spans, stack)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, attr, traced)
    return absent


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    spans: list = []
    absent = install(spans, [])
    from rank3affine import cli
    code = 1
    try:
        code = cli.main(argv)
    finally:
        with open(out_path, "w", encoding="ascii") as fh:
            json.dump({"spans": spans, "absent": absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
