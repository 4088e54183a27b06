"""Command-line interface: edge-list ingestion and report emission.

Input files are UTF-8 edge lists, one edge per line as ``u v w`` (w
optional, default 1; '#' starts a comment; u == v makes a loop).  Vertex
labels may be arbitrary whitespace-free strings; they are mapped to dense
ids in order of first appearance and preserved in the reports.  Weights are
parsed exactly: integers, decimals ("0.25") or ratios ("1/4").

Commands: spectrum, curvature, neighborhood --t, bounds --t-max,
audit --t-max, report.  Output is a human table or canonical JSON
(--format json: sorted keys, rationals as "p/q" strings, floats with 15
significant digits) that is byte-identical across runs.

Exit codes: 0 ok; 2 an option or parse error, or a file that is unreadable
or not UTF-8; 3 any other package error: an invalid graph, or an exact
value past the 4300-digit limit on printing an int (--float avoids it, but
not in neighborhood's edge list); 4 an internal consistency failure, such
as a failed audit, or any exception that is not the package's own, which
is a bug.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from . import __version__
from .bounds import (
    contraction_audit,
    curvature_transfer_check,
    joint_neighbor_bounds,
    k_scan,
    largest_upper,
    metric_audit,
    ollivier_lower,
)
from .curvature import (
    global_lower_bound,
    ricci_curvature,
    sharpness_case,
    unweighted_terms,
)
from .errors import (
    CertificateGapNonzero,
    InternalInconsistency,
    NonPositiveWeight,
    ParseError,
    RicciSpectrumError,
)
from .graph import WeightedGraph, _adjacent_pairs, build_graph, is_bipartite
from .spectrum import spectrum, verify_transfer_identity
from .tolerances import TRANSFER_IDENTITY_TOL
from .walk import neighborhood_graph

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GRAPH = 3
EXIT_INTERNAL = 4


@dataclass
class Report:
    summary: dict
    sections: dict = field(default_factory=dict)
    version: str = __version__
    config: dict = field(default_factory=dict)


def parse_edge_list(text: str):
    """Parse an edge-list document into (WeightedGraph, label table)."""
    labels: dict = {}

    def vertex_id(token: str) -> int:
        if token not in labels:
            labels[token] = len(labels)
        return labels[token]

    edges = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(line_no, f"expected 'u v [w]', got {raw.strip()!r}")
        u, v = vertex_id(parts[0]), vertex_id(parts[1])
        if len(parts) == 3:
            try:
                w = Fraction(parts[2])
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(line_no, f"bad weight {parts[2]!r}: {exc}") from exc
        else:
            w = Fraction(1)
        if w <= 0:
            # same class build_graph would raise, with the line attached
            raise NonPositiveWeight(f"line {line_no}: non-positive weight {w}")
        edges.append((u, v, w))
    graph = build_graph(edges)
    return graph, tuple(labels)


def format_edge_list(g: WeightedGraph, labels) -> str:
    """Render a graph in the input dialect (exact weights, sorted edges)."""
    lines = [f"{labels[u]} {labels[v]} {_exact_text(w)}" for u, v, w in g.edges()]
    return "\n".join(lines) + "\n"


def _exact_text(value: Fraction) -> str:
    """str(value); past Python's limit on the digits of an int, an error that names --float."""
    try:
        return str(value)
    except ValueError as exc:
        raise RicciSpectrumError(
            "an exact value has too many digits to print; --float prints it as a float, "
            "except in an edge list"
        ) from exc


# -- canonical serialization ---------------------------------------------------


def _canonical(value, arithmetic: str):
    if isinstance(value, Fraction):
        return _exact_text(value) if arithmetic == "exact" else float(f"{float(value):.15g}")
    if isinstance(value, float):
        return float(f"{value:.15g}")
    if isinstance(value, dict):
        return {str(k): _canonical(v, arithmetic) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v, arithmetic) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return {
            name: _canonical(getattr(value, name), arithmetic)
            for name in value.__dataclass_fields__
        }
    return value


def report_to_json(report: Report, arithmetic: str) -> str:
    return json.dumps(_canonical(report, arithmetic), sort_keys=True, indent=2)


def _walk_lines(value, indent=0, key=None):
    pad = "  " * indent
    head = f"{pad}{key}: " if key is not None else pad
    if isinstance(value, dict):
        lines = [f"{pad}{key}:"] if key is not None else []
        for k, v in value.items():
            lines.extend(_walk_lines(v, indent + 1, k))
        return lines
    if isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            return [head + " ".join(str(v) for v in value)]
        lines = [f"{pad}{key}:"] if key is not None else []
        for v in value:
            lines.extend(_walk_lines(v, indent + 1, "-"))
        return lines
    return [head + str(value)]


def report_to_table(report: Report, arithmetic: str) -> str:
    body = {
        "summary": _canonical(report.summary, arithmetic),
        **_canonical(report.sections, arithmetic),
    }
    return "\n".join(_walk_lines(body)) + "\n"


# -- sections: each builder takes (graph, labels, parsed command line) -----------


def _summary(g: WeightedGraph, labels) -> dict:
    bipartite, _ = is_bipartite(g)
    return {
        "vertices": g.n_vertices,
        "edges": g.edge_count(),
        "loops": g.loop_count(),
        "connected": True,
        "bipartite": bipartite,
        "labels": list(labels),
    }


def _spectrum_section(g: WeightedGraph, labels, args) -> dict:
    spec = spectrum(g)
    return {
        "eigenvalues": [float(v) for v in spec.eigenvalues],
        "lambda_1": spec.lambda_1 if g.n_vertices > 1 else 0.0,
        "lambda_max": spec.lambda_max,
    }


def _curvature_section(g: WeightedGraph, labels, args) -> dict:
    per_edge = []
    for u, v in _adjacent_pairs(g):
        value = ricci_curvature(g, u, v)
        case = sharpness_case(g, u, v)
        entry = {
            "edge": [labels[u], labels[v]],
            "kappa": value.kappa,
            "w1": value.w1,
            "lower_formula": case.lower_k,
            "upper_formula": case.upper,
            "case": case.case,
            "conditions_hold": case.conditions_hold,
            "equality": case.equality,
        }
        terms = unweighted_terms(g, u, v)
        if terms is not None:
            entry["triangles"] = terms["triangles"]
            entry["loops"] = [terms["loop_x"], terms["loop_y"]]
        per_edge.append(entry)
    return {
        "edges": per_edge,
        "k_exact": global_lower_bound(g),
        "k_formula": min((entry["lower_formula"] for entry in per_edge), default=None),
    }


def _neighborhood_section(g: WeightedGraph, labels, args) -> dict:
    return {"t": args.t, "edge_list": format_edge_list(neighborhood_graph(g, args.t), labels)}


def _bounds_section(g: WeightedGraph, labels, args) -> dict:
    return {
        "spectral_gap": ollivier_lower(g),
        "largest_eigenvalue": largest_upper(g),
        "joint_neighbors": joint_neighbor_bounds(g),
        "k_scan": k_scan(g, args.t_max),
    }


def _audit_section(g: WeightedGraph, labels, args) -> dict:
    t_max = args.t_max
    contraction = contraction_audit(g, min(t_max, 4))
    metric = [metric_audit(g, t) for t in range(1, t_max + 1)]
    transfer = [curvature_transfer_check(g, t) for t in range(1, t_max + 1)]
    identity = {
        t: verify_transfer_identity(g, t) for t in range(1, t_max + 1)
    }
    ok = (
        contraction.passed is not False
        and all(m.lower_holds and m.upper_holds is not False for m in metric)
        and all(c.passed is not False for c in transfer)
        and all(dev <= TRANSFER_IDENTITY_TOL for dev in identity.values())
    )
    return {
        "contraction": contraction,
        "metric": metric,
        "curvature_transfer": transfer,
        "transfer_identity_deviation": {str(t): dev for t, dev in identity.items()},
        "all_passed": ok,
    }


#: The section each command builds; ``report`` builds REPORT_SECTIONS.
SECTIONS = {
    "spectrum": _spectrum_section,
    "curvature": _curvature_section,
    "neighborhood": _neighborhood_section,
    "bounds": _bounds_section,
    "audit": _audit_section,
}
REPORT_SECTIONS = ("spectrum", "curvature", "bounds", "audit")


def run(args: argparse.Namespace) -> Report:
    """Execute a parsed command line's command on its edge-list file."""
    with open(args.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    g, labels = parse_edge_list(text)
    if not g.is_connected():
        raise RicciSpectrumError("input graph is not connected")

    report = Report(
        summary=_summary(g, labels),
        config={
            **{key: getattr(args, key) for key in ("command", "input", "t", "t_max", "arithmetic")},
            "tolerance": TRANSFER_IDENTITY_TOL,
        },
    )
    names = REPORT_SECTIONS if args.command == "report" else (args.command,)
    for name in names:
        report.sections[name] = SECTIONS[name](g, labels, args)
    if "audit" in report.sections and not report.sections["audit"]["all_passed"]:
        raise CertificateGapNonzero("an exact audit failed; see the audit section")
    return report


def render(report: Report, args: argparse.Namespace) -> str:
    if args.format == "json":
        return report_to_json(report, args.arithmetic)
    if args.command == "neighborhood":
        # the edge-list dialect, re-ingestible as-is
        return report.sections["neighborhood"]["edge_list"]
    return report_to_table(report, args.arithmetic)


def _walk_length(text: str) -> int:
    """The type of --t and --t-max: an integer in 1..64."""
    try:
        t = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 1 <= t <= 64:
        raise argparse.ArgumentTypeError("must lie in 1..64")
    return t


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ricci-spectrum",
        description="Exact curvature, walk graphs, spectra and eigenvalue bounds "
        "for weighted graphs with loops.",
    )
    parser.add_argument("command", choices=(*SECTIONS, "report"))
    parser.add_argument("input", help="edge-list file ('u v w' lines)")
    parser.add_argument("--t", type=_walk_length, default=2,
                        help="walk length (neighborhood)")
    parser.add_argument("--t-max", type=_walk_length, default=6, dest="t_max",
                        help="largest walk length for scans and audits")
    parser.add_argument("--format", choices=("table", "json"), default="table")
    arith = parser.add_mutually_exclusive_group()
    arith.add_argument("--exact", dest="arithmetic", action="store_const",
                       const="exact", help="render rationals as p/q (default)")
    arith.add_argument("--float", dest="arithmetic", action="store_const",
                       const="float", help="render rationals as floats")
    parser.set_defaults(arithmetic="exact")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        text = render(run(args), args)
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InternalInconsistency as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except RicciSpectrumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GRAPH
    except Exception as exc:  # not a package error, so a bug rather than a bad input
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
