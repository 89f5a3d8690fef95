"""Command-line front end: invariants | symmetry | singular | selftest."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import cache, lru_cache
from pathlib import Path

import numpy as np

from .fields import MetricField, OneForm
from .frame import NoncontactError
from .invariants import INVARIANTS_ORDER, invariants_at
from .jets import JetError
from .report import (CSV_HEADER, map_arrays, parse_grid, parse_point, parse_points, parse_probe,
                     render)
from .selftest import run_selftest
from .singular import (SINGULAR_FRAME_ORDER, build_singular_frame, lambda_identities,
                       locate_sigma, sigma_invariants)
from .symmetry import (RESIDUAL_MIN_ORDER, build_system, integrability_residuals,
                       reconstruct_lnf, reconstructed_V)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SELFTEST = 2


CHUNK = 400  # items per batch in every subcommand, a width measured end to end (README)
_compiled = lru_cache(maxsize=16)(lambda parse, text: parse(text))  # errors are not cached


@cache  # one parser per process: argparse keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="srsurf",
        description="Numerical analysis of sub-Riemannian surfaces on 3-space: "
                    "adapted frames, invariants M and K, symmetry obstructions "
                    "and singular-locus invariants.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, text in (("invariants", "lambda, M, K per point"),
                       ("symmetry", "symmetry system D/EQ/residuals per point"),
                       ("singular", "Sigma roots and Q-invariants on probes")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--omega", required=True, help="1-form, e.g. 'dz + y*dx - x*dy'")
        p.add_argument("--metric-file", help="file with 6 upper-triangle metric entries")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="output file (default stdout)")
        if name != "singular":  # the subcommands that work point by point
            p.add_argument("--points", action="append", default=[],
                           help="semicolon-separated points 'x,y,z;x,y,z' (repeatable)")
            p.add_argument("--grid", help="grid spec 'x=-1:1:5, y=-1:1:5, z=0'")
            p.add_argument("--tol-contact", type=float)
    p = sub.choices["symmetry"]
    p.add_argument("--tol-degenerate", type=float)
    p.add_argument("--reconstruct", action="store_true",
                   help="reconstruct ln f relative to --base")
    p.add_argument("--base", help="base point for ln f reconstruction")
    p.add_argument("--tol-quad", type=float,
                   help="ln f quadrature tolerance (with --reconstruct)")
    p = sub.choices["singular"]
    p.add_argument("--probe", action="append", default=[],
                   help="segment 'x0,y0,z0 : x1,y1,z1' (repeatable)")
    p.add_argument("--tol-root", type=float)

    p = sub.add_parser("selftest", help="run the built-in fixture checks")
    p.add_argument("--json", action="store_true", dest="as_json")
    return ap


def _inputs(args):
    """(omega, metric, items, base) of a subcommand, its options checked in a fixed order:
    the metric file, the points, grid, probes and base, the options --reconstruct
    needs, the tolerances (NaN and inf fail); then omega and the metric entries."""
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
        if name.startswith("tol_") and value is not None and not 0 < value < np.inf:
            raise ValueError(f"--{name.replace('_', '-')} must be positive and finite")
    if reconstruct != bool(base):
        raise ValueError("--reconstruct and --base need each other")
    return (_compiled(OneForm.parse, args.omega), _compiled(MetricField.from_text, metric_text),
            np.array(items, dtype=float), base)


def _given(args, *names) -> dict:
    """The keywords among `names` whose options were given: the library's defaults are the rest."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _emit(chunks, out_format: str, path):
    """Render every record, then write them all, so that a record that cannot be rendered
    (a non-finite value in JSON) writes nothing.  A chunk is a list of blocks (rows, record):
    the records at the places `rows` of the chunk, as `report.render` takes them."""
    csv = out_format == "csv"
    lines = [CSV_HEADER] if csv else []
    for blocks in chunks:
        part = [None] * sum(len(rows) for rows, _ in blocks)
        for rows, record in blocks:
            for r, line in zip(rows, render(record, csv) if len(rows) else ()):
                part[r] = line
        lines += part
    text = "".join(line + "\n" for line in lines)
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _chunked(items, records, failed) -> list:
    """The blocks `records(chunk)` of the array `items`, CHUNK at a time.  A float that
    overflows, or divides to inf or NaN, raises FloatingPointError inside a chunk.  A chunk
    that raises it, JetError or ValueError runs again as its two halves, down to one item,
    whose error record `failed(item, text)` keeps its own text; a chunk of noncontact
    points (NoncontactError, which only points raise) gets their `_noncontact` records."""
    def run(chunk):
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                return [records(chunk)]
        except NoncontactError:
            return [_noncontact(chunk)]
        except (JetError, ValueError, FloatingPointError) as exc:
            if len(chunk) > 1:
                half = len(chunk) // 2
                return run(chunk[:half]) + run(chunk[half:])
            return [failed(chunk, str(exc))]
    return [blocks for i in range(0, len(items), CHUNK) for blocks in run(items[i:i + CHUNK])]


def _at(record: dict, rows) -> dict:
    return map_arrays(record, lambda a: a[rows])


def _noncontact(points, contact=()) -> list:
    """The noncontact records of a chunk: its rows not in `contact`."""
    rows = np.delete(np.arange(len(points)), contact)
    return [(rows, {"point": list(points[rows].T), "branch": "noncontact", "contact": False})]


def _point_error(chunk, text: str) -> list:  # the branch of an error record means nothing
    return [([0], {"point": list(chunk.T), "branch": "regular", "error": text})]


def cmd_invariants(args) -> list:
    omega, metric, points, _ = _inputs(args)
    tols = _given(args, "tol_contact")

    def records(points):
        m, k, frame, _ = invariants_at(omega, metric, points, INVARIANTS_ORDER, **tols)
        rows, budget = frame.rows, min(m.order, k.order)  # the least order left
        return _noncontact(points, rows) + [(rows, dict(
            point=list(points[rows].T), branch="regular", contact=True, lam=frame.lam.value,
            M=m.value, K=k.value,
            diagnostics={"jet_order": INVARIANTS_ORDER, "budget_remaining": budget}))]

    return _chunked(points, records, _point_error)


def cmd_symmetry(args) -> list:
    omega, metric, points, base = _inputs(args)
    tols = _given(args, "tol_degenerate", "tol_contact")
    lnf_tols = _given(args, "tol_quad", "tol_degenerate", "tol_contact")

    def records(points):
        sys_ = build_system(omega, metric, points, RESIDUAL_MIN_ORDER, **tols)
        rows, degenerate = sys_.frame.rows, sys_.degenerate
        record = dict(point=list(points[rows].T), branch="degenerate", contact=True,
                      lam=sys_.frame.lam.value, M=sys_.M.value, K=sys_.K.value, D=sys_.D.value)
        blocks = _noncontact(points, rows) + [(rows[degenerate], _at(record, degenerate))]
        if degenerate.all():
            return blocks
        record.update(branch="regular", EQ1=sys_.EQ1.value, EQ2=sys_.EQ2.value,
                      residuals=list(integrability_residuals(sys_)), diagnostics={
                          "jet_order": RESIDUAL_MIN_ORDER, "budget_remaining": sys_.D.order})
        if not base:
            return blocks + [(rows[~degenerate], _at(record, ~degenerate))]
        for i in np.flatnonzero(~degenerate):  # one target at a time
            rep = _at(record, [i])
            try:
                rep["lnf"], rep["diagnostics"]["reconstruct"] = reconstruct_lnf(
                    omega, metric, base, points[rows[i]], **lnf_tols)
                _, rep["V"] = reconstructed_V(sys_, rep["lnf"], i)
            except (JetError, FloatingPointError) as exc:
                rep["diagnostics"]["reconstruct_error"] = str(exc)
            blocks.append(([rows[i]], rep))
        return blocks

    return _chunked(points, records, _point_error)


def cmd_singular(args) -> list:
    omega, metric, probes, _ = _inputs(args)
    tols = _given(args, "tol_root")

    def probe_errors(segments, rows, text: str) -> list:
        return [(rows, {"point": list(segments[:, 0].T), "branch": "regular", "error": text,
                        "diagnostics": {"probe": [list(s.T) for s in segments.swapaxes(0, 1)]}})]

    def records(segments):
        values = vars(locate_sigma(omega, metric, segments, **tols)).copy()
        segment, points, lam = (values.pop(k) for k in ("segment", "point", "lambda_residual"))
        none = np.flatnonzero(np.bincount(segment, minlength=len(segments)) == 0)
        # each record's place: by probe, and a probe's roots in order along it
        order = np.argsort(np.r_[segment, none], kind="stable")
        at = np.empty_like(order)
        at[order] = np.arange(len(order))
        blocks = probe_errors(segments[none], at[len(segment):], "no Sigma crossing on probe")
        diagnostics = {k: values.pop(k) for k in ("transversal", "lambda_gradient_on_delta")}
        record = dict(point=list(points.T), branch="noncontact", contact=False, lam=lam,
                      diagnostics=dict(diagnostics, sigma=values))  # the rest of SigmaRoots

        def frames(idx):  # the roots' Q and lambda-identity residuals
            frame, c = build_singular_frame(omega, metric, points[idx], SINGULAR_FRAME_ORDER)
            (q112, q212), rep = sigma_invariants(c), _at(record, idx)
            rep["diagnostics"]["lambda_identity_residuals"] = list(lambda_identities(frame, c))
            return [(at[idx], dict(rep, Q112=q112, Q212=q212))]

        def failed(idx, text: str):  # a root whose own frame raises gets its error
            return [(at[idx], dict(_at(record, idx), error=text))]

        # all the roots' frames, a batch at a time; a batch that raises runs again by halves
        return blocks + [b for part in _chunked(np.arange(len(segment)), frames, failed)
                         for b in part]

    return _chunked(probes, records, lambda seg, text: probe_errors(seg, [0], text))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "selftest":
        results = run_selftest()
        ok = all(r.passed for r in results)
        if args.as_json:
            doc = {"schema": "srs/1", "passed": ok, "checks": [  # a non-finite max_dev is null
                dict(asdict(r), max_dev=r.max_dev if np.isfinite(r.max_dev) else None)
                for r in results]}
            print(json.dumps(doc, sort_keys=True, allow_nan=False))
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
