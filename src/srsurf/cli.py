"""Command-line front end: invariants | symmetry | singular | selftest."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import List

import numpy as np

from .fields import MetricField, OneForm
from .frame import NoncontactError
from .invariants import INVARIANTS_ORDER, invariants_at
from .jets import JetError, _mul_table
from .report import (PointReport, csv_header, csv_row, parse_grid, parse_point,
                     parse_points, parse_probe)
from .selftest import run_selftest
from .singular import (SIGMA_SCAN_NODES, SIGMA_SCAN_ORDER, SINGULAR_FRAME_ORDER,
                       build_singular_frame, lambda_identities, locate_sigma,
                       sigma_invariants)
from .symmetry import (RESIDUAL_MIN_ORDER, build_system, integrability_residuals,
                       reconstruct_lnf, reconstructed_V)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SELFTEST = 2


def _chunk_width(order: int, rows: int = 1) -> int:
    """Items per batch: the most whose product temporaries (a float per product-table
    term and batch row, `rows` rows per item) stay under glibc's 128 KiB mmap threshold."""
    return 128 * 1024 // (8 * len(_mul_table(order)[0]) * rows)


INVARIANTS_CHUNK = _chunk_width(INVARIANTS_ORDER)
SINGULAR_FRAME_CHUNK = _chunk_width(SINGULAR_FRAME_ORDER)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--omega", required=True, help="1-form, e.g. 'dz + y*dx - x*dy'")
    p.add_argument("--metric-file", help="file with 6 upper-triangle metric entries")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="output file (default stdout)")


def _add_pointwise(p: argparse.ArgumentParser):
    """The options of the subcommands that work point by point."""
    _add_common(p)
    p.add_argument("--points", action="append", default=[],
                   help="semicolon-separated points 'x,y,z;x,y,z' (repeatable)")
    p.add_argument("--grid", help="grid spec 'x=-1:1:5, y=-1:1:5, z=0'")
    p.add_argument("--tol-contact", type=float)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="srsurf",
        description="Numerical analysis of sub-Riemannian surfaces on 3-space: "
                    "adapted frames, invariants M and K, symmetry obstructions "
                    "and singular-locus invariants.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="lambda, M, K per point")
    _add_pointwise(p)

    p = sub.add_parser("symmetry",
                       help="symmetry system D/EQ/residuals per point")
    _add_pointwise(p)
    p.add_argument("--tol-degenerate", type=float)
    p.add_argument("--reconstruct", action="store_true",
                   help="reconstruct ln f relative to --base")
    p.add_argument("--base", help="base point for ln f reconstruction")
    p.add_argument("--tol-quad", type=float,
                   help="ln f quadrature tolerance (with --reconstruct)")

    p = sub.add_parser("singular", help="Sigma roots and Q-invariants on probes")
    _add_common(p)
    p.add_argument("--probe", action="append", default=[],
                   help="segment 'x0,y0,z0 : x1,y1,z1' (repeatable)")
    p.add_argument("--tol-root", type=float)

    p = sub.add_parser("selftest", help="run the built-in fixture checks")
    p.add_argument("--json", action="store_true", dest="as_json")
    return ap


def _inputs(args):
    """(omega, metric, items) of a subcommand, its options checked in a fixed order:
    the metric file, the points, grid, probes and base, the options --reconstruct
    needs, the tolerances (NaN is not positive); then omega and the metric entries."""
    metric_text = Path(args.metric_file).read_text() if args.metric_file else ""
    items = [p for text in getattr(args, "points", []) for p in parse_points(text)]
    if getattr(args, "grid", None):
        items += parse_grid(args.grid)
    items += [parse_probe(text) for text in getattr(args, "probe", [])]
    base = getattr(args, "base", None) and parse_point(args.base)
    reconstruct = getattr(args, "reconstruct", False)
    if getattr(args, "tol_quad", None) is not None and not reconstruct:
        raise ValueError("--tol-quad requires --reconstruct")
    for name, value in vars(args).items():
        if name.startswith("tol_") and value is not None and not value > 0:
            raise ValueError(f"--{name.replace('_', '-')} must be positive")
    if reconstruct != bool(base):
        raise ValueError("--reconstruct and --base need each other")
    return OneForm.parse(args.omega), MetricField.from_text(metric_text), items


def _given(args, *names) -> dict:
    """The keywords among `names` whose options were given: the library's defaults are the rest."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _emit(reports: List[PointReport], out_format: str, path):
    """Render every record, then write them all, so that a record that
    cannot be rendered (a non-finite value in JSON) writes nothing."""
    if out_format == "csv":
        lines = [csv_header()] + [csv_row(r) for r in reports]
    else:
        lines = [r.to_json() for r in reports]
    text = "".join(line + "\n" for line in lines)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _chunked(items, width: int, records, default, failed) -> List[PointReport]:
    """The records of `items`, `width` at a time: each starts as `default(item)`;
    `records(chunk, reports)` sets those a batch covers (none on NoncontactError).
    A float that overflows, or divides to inf or NaN, raises FloatingPointError
    inside a chunk.  A chunk that raises it, JetError or ValueError runs again
    item by item, so that each error record, `failed(item, text)`, keeps its own text."""
    def run(chunk):
        reports = [default(item) for item in chunk]
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                records(chunk, reports)
        except NoncontactError:
            pass
        except (JetError, ValueError, FloatingPointError) as exc:
            if len(chunk) > 1:
                return [r for item in chunk for r in run([item])]
            return [failed(chunk[0], str(exc))]
        return reports
    return [r for i in range(0, len(items), width) for r in run(items[i:i + width])]


def _noncontact(p) -> PointReport:
    return PointReport(point=tuple(p), branch="noncontact", contact=False)


def _point_error(p, text: str) -> PointReport:
    return PointReport(point=tuple(p), branch="regular", error=text)


def cmd_invariants(args) -> List[PointReport]:
    omega, metric, points = _inputs(args)
    tols = _given(args, "tol_contact")

    def records(points, reports):
        vals, frame, _ = invariants_at(omega, metric, points, INVARIANTS_ORDER, **tols)
        budget = min(vals.M.order, vals.K.order)  # the least left in what is reported
        for i, r in enumerate(frame.rows.tolist()):
            reports[r] = PointReport(
                point=tuple(points[r]), branch="regular", contact=True,
                lam=frame.lam.value_at(i), M=vals.M.value_at(i), K=vals.K.value_at(i),
                diagnostics={"jet_order": INVARIANTS_ORDER, "budget_remaining": budget})

    return _chunked(points, INVARIANTS_CHUNK, records, _noncontact, _point_error)


def cmd_symmetry(args) -> List[PointReport]:
    omega, metric, points = _inputs(args)
    base = parse_point(args.base) if args.reconstruct else None
    tols = _given(args, "tol_degenerate", "tol_contact")
    lnf_tols = _given(args, "tol_quad", "tol_degenerate", "tol_contact")

    def records(points, reports):
        sys_ = build_system(omega, metric, points, RESIDUAL_MIN_ORDER, **tols)
        degenerate = sys_.degenerate
        eq = None if degenerate.all() else np.array(  # per row: EQ1, EQ2 and the residuals
            [sys_.EQ1.value, sys_.EQ2.value, *integrability_residuals(sys_)]).T.tolist()
        for i, r in enumerate(sys_.frame.rows.tolist()):
            rep = reports[r] = PointReport(
                point=tuple(points[r]), branch="degenerate" if degenerate[i] else "regular",
                contact=True, lam=sys_.frame.lam.value_at(i), M=sys_.M.value_at(i),
                K=sys_.K.value_at(i), D=sys_.D.value_at(i))
            if degenerate[i]:
                continue
            rep.EQ1, rep.EQ2, *rep.residuals = eq[i]
            if base:
                try:
                    rep.lnf, rep.diagnostics["reconstruct"] = reconstruct_lnf(
                        omega, metric, base, points[r], **lnf_tols)
                    _, rep.V = reconstructed_V(sys_, rep.lnf, i)
                except (JetError, FloatingPointError) as exc:
                    rep.diagnostics["reconstruct_error"] = str(exc)
            rep.diagnostics.update(jet_order=RESIDUAL_MIN_ORDER, budget_remaining=sys_.D.order)

    return _chunked(points, _chunk_width(RESIDUAL_MIN_ORDER), records, _noncontact,
                    _point_error)


def cmd_singular(args) -> List[PointReport]:
    omega, metric, probes = _inputs(args)
    tols = _given(args, "tol_root")

    def probe_error(seg, text: str) -> List[PointReport]:
        return [PointReport(point=seg[0], branch="regular", error=text,
                            diagnostics={"probe": [list(seg[0]), list(seg[1])]})]

    def frames(roots, _):  # `_chunked` records: the roots' Q and lambda-identity residuals
        frame, c = build_singular_frame(omega, metric, np.array([r.point for r in roots]),
                                        SINGULAR_FRAME_ORDER)
        q = sigma_invariants(c)
        values = np.array([q.Q112, q.Q212, *lambda_identities(frame, c)]).T.tolist()
        for rep, (rep.Q112, rep.Q212, *residuals) in zip(roots, values):
            rep.diagnostics["lambda_identity_residuals"] = residuals

    def records(segments, reports):
        roots = []
        for k, points in enumerate(locate_sigma(omega, metric, segments, **tols)):
            if points:  # one record per root; none keeps the default error record
                roots += [PointReport(
                    point=sp.point, branch="noncontact", contact=False, lam=sp.lambda_residual,
                    diagnostics={"transversal": sp.transversal,
                                 "lambda_gradient_on_delta": sp.lambda_gradient_on_delta,
                                 "sigma": {"candidate": sp.candidate, "margin": sp.margin,
                                           "newton_iterations": sp.newton_iterations,
                                           "converged": sp.converged}}) for sp in points]
                reports[k] = roots[-len(points):]
        # all the roots' frames, a batch at a time; a batch that raises runs
        # again root by root, and a root whose own frame raises gets its error
        _chunked(roots, SINGULAR_FRAME_CHUNK, frames, lambda rep: rep,
                 lambda rep, text: setattr(rep, "error", text))

    return [r for reports in _chunked(
        probes, _chunk_width(SIGMA_SCAN_ORDER, SIGMA_SCAN_NODES), records,
        lambda seg: probe_error(seg, "no Sigma crossing on probe"), probe_error) for r in reports]


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "selftest":
        results = run_selftest()
        ok = all(r.passed for r in results)
        if args.as_json:
            doc = {"schema": "srs/1", "passed": ok,
                   "checks": [asdict(r) for r in results]}
            print(json.dumps(doc, sort_keys=True))
        else:
            for r in results:
                status = "PASS" if r.passed else "FAIL"
                line = f"{status}  {r.name:40s} max_dev={r.max_dev:.3e} tol={r.tol:g}"
                if r.note:
                    line += f"  ({r.note})"
                print(line)
            print("selftest:", "PASS" if ok else "FAIL")
        return EXIT_OK if ok else EXIT_SELFTEST

    try:
        handler = {"invariants": cmd_invariants, "symmetry": cmd_symmetry,
                   "singular": cmd_singular}[args.command]
        _emit(handler(args), args.format, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
