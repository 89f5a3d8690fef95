"""Command-line front end: invariants | symmetry | singular | selftest."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import List

import numpy as np

from .fields import MetricField, OneForm
from .frame import NoncontactError
from .invariants import INVARIANTS_ORDER, invariants_at
from .jets import JetError, _mul_table
from .report import (PointReport, RunConfig, csv_header, csv_row, parse_grid,
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


def _config_from_args(args) -> RunConfig:
    """The run configuration from the options the subcommand has; the
    others keep their RunConfig defaults."""
    cfg = RunConfig(omega_text=args.omega, out_format=args.format,
                    reconstruct=getattr(args, "reconstruct", False))
    for name, option in RunConfig.TOLERANCE_OPTIONS.items():
        value = getattr(args, option[2:].replace("-", "_"), None)
        if value is not None:
            setattr(cfg, name, value)
    if args.metric_file:
        with open(args.metric_file) as fh:
            cfg.metric_text = fh.read()
    for chunk in getattr(args, "points", []):
        cfg.points.extend(parse_points(chunk))
    if getattr(args, "grid", None):
        cfg.points.extend(parse_grid(args.grid))
    for probe in getattr(args, "probe", []):
        cfg.probes.append(parse_probe(probe))
    if getattr(args, "base", None):
        cfg.base = parse_points(args.base)[0]
    if getattr(args, "tol_quad", None) is not None and not cfg.reconstruct:
        raise ValueError("--tol-quad requires --reconstruct")
    cfg.validate()
    return cfg


def _emit(reports: List[PointReport], cfg: RunConfig, path):
    """Render every record, then write them all, so that a record that
    cannot be rendered (a non-finite value in JSON) writes nothing."""
    if cfg.out_format == "csv":
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
    A chunk that raises JetError or ValueError runs again item by item, so that
    each error record, `failed(item, text)`, keeps its own text."""
    def run(chunk):
        reports = [default(item) for item in chunk]
        try:
            records(chunk, reports)
        except NoncontactError:
            pass
        except (JetError, ValueError) as exc:
            if len(chunk) > 1:
                return [r for item in chunk for r in run([item])]
            return [failed(chunk[0], str(exc))]
        return reports
    return [r for i in range(0, len(items), width) for r in run(items[i:i + width])]


def _batch(points):  # a point alone stays a point: the one-point jets are faster
    return np.array(points, dtype=float) if len(points) > 1 else points[0]


def _noncontact(p) -> PointReport:
    return PointReport(point=tuple(p), branch="noncontact", contact=False)


def _point_error(p, text: str) -> PointReport:
    return PointReport(point=tuple(p), branch="regular", error=text)


def cmd_invariants(cfg: RunConfig) -> List[PointReport]:
    omega = OneForm.parse(cfg.omega_text)
    metric = MetricField.from_text(cfg.metric_text)

    def records(points, reports):
        vals, frame, _ = invariants_at(omega, metric, _batch(points), INVARIANTS_ORDER,
                                       eps_contact=cfg.eps_contact)
        budget = min(vals.M.order, vals.K.order)  # the least left in what is reported
        for i, r in enumerate(frame.rows.tolist()):
            reports[r] = PointReport(
                point=tuple(points[r]), branch="regular", contact=True,
                lam=frame.lam.value_at(i), M=vals.M.value_at(i), K=vals.K.value_at(i),
                diagnostics={"jet_order": INVARIANTS_ORDER, "budget_remaining": budget})

    return _chunked(cfg.points, INVARIANTS_CHUNK, records, _noncontact, _point_error)


def cmd_symmetry(cfg: RunConfig) -> List[PointReport]:
    omega = OneForm.parse(cfg.omega_text)
    metric = MetricField.from_text(cfg.metric_text)

    def records(points, reports):
        sys_ = build_system(omega, metric, _batch(points), RESIDUAL_MIN_ORDER,
                            eps_D=cfg.eps_D, eps_contact=cfg.eps_contact)
        degenerate = np.atleast_1d(sys_.degenerate)
        eq = None if degenerate.all() else np.reshape(  # per row: EQ1, EQ2 and the residuals
            [sys_.EQ1.value, sys_.EQ2.value, *integrability_residuals(sys_)], (5, -1)).T.tolist()
        for i, r in enumerate(sys_.frame.rows.tolist()):
            rep = reports[r] = PointReport(
                point=tuple(points[r]), branch="degenerate" if degenerate[i] else "regular",
                contact=True, lam=sys_.frame.lam.value_at(i), M=sys_.M.value_at(i),
                K=sys_.K.value_at(i), D=sys_.D.value_at(i))
            if degenerate[i]:
                continue
            rep.EQ1, rep.EQ2, *rep.residuals = eq[i]
            if cfg.reconstruct:
                try:
                    rep.lnf = reconstruct_lnf(omega, metric, cfg.base, points[r],
                                              quad_tol=cfg.quad_tol, eps_D=cfg.eps_D,
                                              eps_contact=cfg.eps_contact)
                    _, rep.V = reconstructed_V(sys_, rep.lnf, i)
                except JetError as exc:
                    rep.diagnostics["reconstruct_error"] = str(exc)
            rep.diagnostics.update(jet_order=RESIDUAL_MIN_ORDER, budget_remaining=sys_.D.order)

    return _chunked(cfg.points, _chunk_width(RESIDUAL_MIN_ORDER), records, _noncontact,
                    _point_error)


def cmd_singular(cfg: RunConfig) -> List[PointReport]:
    omega = OneForm.parse(cfg.omega_text)
    metric = MetricField.from_text(cfg.metric_text)

    def probe_error(seg, text: str) -> PointReport:
        return PointReport(point=seg[0], branch="regular", error=text,
                           diagnostics={"probe": [list(seg[0]), list(seg[1])]})

    def records(segments, reports):
        for k, sp in enumerate(locate_sigma(omega, metric, segments, root_tol=cfg.root_tol)):
            if sp is None:
                continue
            rep = reports[k] = PointReport(
                point=sp.point, branch="noncontact", contact=False, lam=sp.lambda_residual,
                diagnostics={"transversal": sp.transversal,
                             "lambda_gradient_on_delta": sp.lambda_gradient_on_delta})
            try:
                frame, c = build_singular_frame(omega, metric, sp.point, SINGULAR_FRAME_ORDER)
                q = sigma_invariants(c)
                rep.Q112, rep.Q212 = q.Q112, q.Q212
                rep.diagnostics["lambda_identity_residuals"] = list(lambda_identities(frame, c))
            except JetError as exc:
                rep.error = str(exc)

    return _chunked(cfg.probes, _chunk_width(SIGMA_SCAN_ORDER, SIGMA_SCAN_NODES), records,
                    lambda seg: probe_error(seg, "no Sigma crossing on probe"), probe_error)


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
        cfg = _config_from_args(args)
        handler = {"invariants": cmd_invariants,
                   "symmetry": cmd_symmetry,
                   "singular": cmd_singular}[args.command]
        _emit(handler(cfg), cfg, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
