"""Write the reference pools in perfbench/reference/ from the current sources.

    python3 perfbench/make_reference.py

The pools hold the inputs the workloads draw from and the records the CLI
emitted for them when the benchmark was defined.  Regenerate them only when
the benchmark itself changes, never in a change that claims the program's
outputs are unchanged: the pools are what that claim is checked against.
"""

from __future__ import annotations

import json
import zlib

import numpy as np

import run
import workloads as wl
from check import result_fields

POOL_SEED = 20090630
X_POOL = 1024
SYMMETRY_POOL = 96
CROSSING_POOL, MISSING_POOL = 192, 64
METRIC = str(wl.OUT_DIR / "reference" / "metric.txt")


def records(subcommand, omega, *args):
    argv = [subcommand, "--omega", omega, "--metric-file", METRIC, *args]
    code, output, _ = run.run_cli(argv)
    if code != 0:
        raise RuntimeError(f"exit {code} for {argv[:3]}")
    return [result_fields(json.loads(line)) for line in output.splitlines()]


def rounded(values):
    return [round(float(v), 6) for v in values]


def without_point(rec):
    return {k: v for k, v in rec.items() if k != "point"}


def invariants_pool(rng):
    # |x| >= 0.05 keeps pool points well clear of Σ = {x = 0}.
    mag = rng.uniform(0.05, 1.5, X_POOL)
    xs = rounded(np.where(rng.random(X_POOL) < 0.5, -mag, mag))
    draws = []
    for _ in range(2):  # two y, z draws per x: the results must not change
        yz = np.round(rng.uniform(-1.5, 1.5, (X_POOL, 2)), 6)
        recs = []
        for lo in range(0, X_POOL, 128):
            pts = [(xs[i], yz[i, 0], yz[i, 1]) for i in range(lo, min(lo + 128, X_POOL))]
            recs += records("invariants", wl.OMEGA_SINGULAR,
                            "--points=" + ";".join(wl.fmt_point(p) for p in pts))
        draws.append([without_point(r) for r in recs])
    assert draws[0] == draws[1], "invariants depend on y or z"
    assert all(r["branch"] == "regular" and "error" not in r for r in draws[0])
    sigma = [without_point(r) for r in records(
        "invariants", wl.OMEGA_SINGULAR, "--points=0.0,0.3,-0.2;0.0,-1.1,0.7")]
    assert sigma[0] == sigma[1] and sigma[0]["branch"] == "noncontact", sigma
    return {"x": xs, "records": draws[0], "sigma_record": sigma[0]}


def symmetry_pool(rng):
    targets = []
    while len(targets) < SYMMETRY_POOL:
        x, y, z = rounded([rng.uniform(-1, 1), rng.uniform(-0.7, 0.7), rng.uniform(-0.5, 0.5)])
        if abs(x) >= 0.05 and abs(y) >= 0.05:  # D vanishes on x = 0 and on y = 0
            targets.append((x, y, z))
    pool = []
    for p in targets + [wl.BASE]:
        rec, = records("symmetry", wl.OMEGA_REGULAR, "--points=" + wl.fmt_point(p),
                       "--reconstruct", "--base=" + wl.fmt_point(wl.BASE))
        assert rec["branch"] == "regular" and "lnf" in rec and "error" not in rec, rec
        assert not wl.SymmetryReconstruct.oracle(rec), rec
        pool.append(rec)
    return {"records": pool[:-1], "setup_record": pool[-1]}


def singular_pool(rng):
    def probe(crossing):
        a, b = rng.uniform(0.1, 1.2, 2)
        x0, x1 = (-a, b) if crossing else (a, b)
        if rng.random() < 0.5:
            x0, x1 = -x0, -x1
        y0, z0, y1, z1 = rng.uniform(-1, 1, 4)
        return [rounded([x0, y0, z0]), rounded([x1, y1, z1])]

    out = {}
    for kind, n in (("crossing", CROSSING_POOL), ("missing", MISSING_POOL)):
        probes = [probe(kind == "crossing") for _ in range(n)]
        recs = records("singular", wl.OMEGA_SINGULAR,
                       *(f"--probe={wl.fmt_point(p0)} : {wl.fmt_point(p1)}" for p0, p1 in probes))
        for r in recs:
            assert ("error" in r) == (kind == "missing"), r
            assert kind == "missing" or r["branch"] == "noncontact", r
        out[kind] = [{"probe": p, "record": r} for p, r in zip(probes, recs)]
    return out


BUILDERS = {"invariants-grid": invariants_pool,
            "symmetry-reconstruct": symmetry_pool,
            "singular-probes": singular_pool}


def main() -> int:
    run.bootstrap()
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    (wl.OUT_DIR / "reference").mkdir(parents=True, exist_ok=True)
    with open(METRIC, "w") as fh:
        fh.write(wl.METRIC_TEXT)
    for name, build in BUILDERS.items():
        pool = build(np.random.default_rng([POOL_SEED, zlib.crc32(name.encode())]))
        with open(wl.REFERENCE_DIR / f"{name}.json", "w") as fh:
            json.dump(pool, fh, separators=(",", ":"))
        print(f"{name}: written")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
