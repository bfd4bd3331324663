"""CLI entry: ``python -m repro.trace <capture>... [--json]``.

Each ``capture`` is a ``.rtrc`` trace file or a directory of them.
Multiple traces (for BMC runs, the per-depth ``{name}_d{k:03d}.rtrc``
series) merge into one aggregated report.  When the traces hold
ACCESS events (profiled solves), a per-structure access/locality
report follows the trace report (or sits under an ``"access"`` key in
JSON mode).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.metrics.access import analyze_access_stream, render_access_report
from repro.sat.trace import TraceFormatError
from repro.trace import analyze_traces, discover_traces, render_report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Analyze binary solver traces (repro.sat.trace "
        "format): event counts, per-depth histograms, learned-length "
        "distribution and, for profiled solves, per-structure access "
        "locality (repro.metrics.access).",
    )
    parser.add_argument(
        "captures",
        nargs="+",
        help=".rtrc trace files or directories of them (directories "
        "expand in sorted name order, so per-depth captures aggregate "
        "in depth order)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="hot-offset rows per structure in the access report "
        "(default: 10)",
    )
    args = parser.parse_args(argv)
    traces = discover_traces(args.captures)
    if not traces:
        print(
            "error: no .rtrc traces found under: " + " ".join(args.captures),
            file=sys.stderr,
        )
        return 2
    try:
        report = analyze_traces(traces)
        access = analyze_access_stream(traces, top_n=args.top)
    except FileNotFoundError as exc:
        print(f"error: no such trace file: {exc.filename}", file=sys.stderr)
        return 2
    except TraceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    has_access = bool(access["total_events"])
    if args.json:
        payload = dict(report)
        if has_access:
            payload["access"] = access
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        chunks = [render_report(report)]
        if has_access:
            chunks.append(render_access_report(access))
        print("\n\n".join(chunks))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
