"""Command-line surface: gen, build, estimate, verify, doubling.

Exit codes: 0 success or warnings, 1 invariant failure, 2 configuration or
parse error. Structured outputs are JSON (sorted keys, no timestamps) so
identical runs produce byte-identical files; CSV carries long-form counts.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import covering, dimensions
from .cubes import (build_adjacent_family, file_hash, load_family, r_grid,
                    save_family, verify_system)
from .errors import (ConfigurationError, CubedimError, InvalidArgumentError,
                     PointsFileError, SizeCapError, StaleCubesError)
from .generators import GeneratorSpec, generate, snowflake_wrap
from .metric import load_points, save_points
from .nets import NetParams

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2


def _dump_json(doc, path):
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_maps(text):
    """``--maps`` as a tuple of affine maps, each a tuple of floats."""
    try:
        return tuple(tuple(float(v) for v in m) for m in json.loads(text)) if text else ()
    except (TypeError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise InvalidArgumentError(f"--maps {text}: {exc}") from exc


def cmd_gen(args) -> int:
    try:
        spec = GeneratorSpec(
            kind=args.kind, ratio=args.ratio, depth=args.depth, p=args.p,
            n_max=args.nmax, ambient_dim=args.dim, resolution=args.res,
            arity=args.arity, base=args.base, maps=_parse_maps(args.maps))
        space = generate(spec)
        if args.snowflake != 1.0:
            space = snowflake_wrap(space, args.snowflake)
    except (InvalidArgumentError, SizeCapError) as exc:
        raise ConfigurationError(f"invalid generator arguments: {exc}") from exc
    save_points(space, args.out)
    print(f"wrote {space.n} points to {args.out}")
    return EXIT_OK


def cmd_build(args) -> int:
    _check_sampling(args)
    space = load_points(args.points)
    params = NetParams(delta=args.delta, c0=args.c0, C0=args.C0)
    family = build_adjacent_family(
        space, params, K_max=args.systems, query_budget=args.budget,
        target_ratio=args.target_ratio, seed=args.seed, max_level=args.levels)
    failures = 0
    summary = {}
    for system in family.systems:
        checks = verify_system(system)
        bad = [n for n, c in checks.items() if c.applicable and not c.ok]
        summary[f"system-{system.system_id}"] = bad or "ok"
        failures += len(bad)
        for w in system.report.warnings:
            print(f"warning: system {system.system_id}: {w}", file=sys.stderr)
    save_family(family, args.out, points_hash=file_hash(args.points))
    print(f"K={family.K} C_delta_hat={family.C_delta_hat:.6g} "
          f"C_tilde={family.C_tilde:.6g} max_level={family.max_level} "
          f"best_effort={family.best_effort}")
    for name, state in summary.items():
        print(f"{name}: {state}")
    return EXIT_INVARIANT if failures else EXIT_OK


def _load_family_checked(args):
    space = load_points(args.points)
    return load_family(args.cubes, space, points_hash=file_hash(args.points))


def _check_sampling(args):
    if args.budget < 1:
        raise ConfigurationError("--budget must be >= 1")
    if args.seed < 0:
        raise ConfigurationError("--seed must be >= 0")


def cmd_estimate(args) -> int:
    _check_sampling(args)
    family = _load_family_checked(args)
    E = family.space.ids
    kind = args.kind
    if kind == "hausdorff" and not (0 <= args.system < family.K):
        raise ConfigurationError(
            f"--system {args.system} out of range (family has K={family.K})")
    if kind == "spectrum" and (args.theta is None or not (0.0 < args.theta < 1.0)):
        raise ConfigurationError("spectrum estimates need --theta in (0, 1)")
    # the sweeps and the dump read one window table
    windows = (dimensions.local_windows(family, E, sample_budget=args.budget, seed=args.seed)
               if kind in ("spectrum", "assouad") or args.dump else None)
    if kind == "hausdorff":
        est = dimensions.hausdorff_dim_estimate(family.systems[args.system], E)
    elif kind == "box":
        est = dimensions.box_dim_estimate(
            family, E, m_window=list(range(args.window[0], args.window[1] + 1))
            if args.window else None)
    elif kind == "spectrum":
        est = dimensions.assouad_spectrum_estimate(family, E, theta=args.theta,
                                                   seed=args.seed, windows=windows)
    else:  # assouad
        est = dimensions.assouad_dim_estimate(family, E, seed=args.seed, windows=windows)
    if family.best_effort and "best-effort-family" not in est.flags:
        est.flags.append("best-effort-family")
    _dump_json(est.to_json(), args.out)
    if args.dump:
        _dump_counts_csv(windows, args.dump)
    return EXIT_OK


def _dump_counts_csv(windows, path):
    """One row per window and level m >= 1 below its containing cube."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x_id,R,m,D,max_cube_diameter\n")
        for w in windows:
            for m in range(1, w.depth + 1):
                fh.write(f"{w.x},{w.R:.12g},{m},{w.counts[m]},{w.max_diams[m]:.12g}\n")


def cmd_verify(args) -> int:
    _check_sampling(args)
    family = _load_family_checked(args)
    failures = 0
    rows = []
    for system in family.systems:
        for name, c in system.report.checks.items():
            state = "n/a" if not c.applicable else ("pass" if c.ok else "FAIL")
            if c.applicable and not c.ok:
                failures += 1
            rows.append((f"system-{system.system_id}", name, state,
                         "" if c.worst is None else f"worst={c.worst:.4g}",
                         "" if c.witness is None else f"witness={c.witness}"))

    rng = np.random.default_rng([args.seed, 4099])
    sandwich_violations = 0
    sampled = 0
    attempts = 0
    radii = r_grid(family.params.delta, family.max_level)
    while sampled < args.budget and attempts < args.budget * 20:
        attempts += 1
        x = int(rng.integers(family.space.n))
        R = float(radii[int(rng.integers(len(radii)))])
        m = int(rng.integers(1, max(2, family.max_level)))
        try:
            rep = covering.sandwich_check(family, family.space.ids, x, R, m)
        except CubedimError:
            continue
        sampled += 1
        if "sandwich-violated" in rep.flags:
            sandwich_violations += 1
    rows.append(("family", "sandwich_N_le_D",  # n/a: no sample was kept
                 "FAIL" if sandwich_violations else ("pass" if sampled else "n/a"),
                 f"sampled={sampled}", f"violations={sandwich_violations}"))
    if sandwich_violations:
        failures += 1
    for row in rows:
        print(" | ".join(part for part in row if part))
    if family.best_effort:
        print("warning: family is best-effort (target ratio unmet)", file=sys.stderr)
    return EXIT_INVARIANT if failures else EXIT_OK


def cmd_doubling(args) -> int:
    _check_sampling(args)
    space = load_points(args.points)
    est = space.estimate_doubling(sample_count=args.budget, rng_seed=args.seed)
    _dump_json({"C_d_hat": est.C_d_hat, "samples_used": est.samples_used},
               args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cubedim",
                                 description="dyadic cube systems and dimension "
                                             "estimates on finite metric spaces")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a test point set")
    g.add_argument("kind", choices=["cantor", "sequence", "grid",
                                    "ultrametric_cantor", "ifs"])
    g.add_argument("--ratio", type=float, default=1.0 / 3.0)
    g.add_argument("--depth", type=int, default=8)
    g.add_argument("--p", type=float, default=1.0)
    g.add_argument("--nmax", type=int, default=1000)
    g.add_argument("--dim", type=int, default=1)
    g.add_argument("--res", type=float, default=1.0 / 64.0)
    g.add_argument("--arity", type=int, default=2)
    g.add_argument("--base", type=float, default=1.0 / 16.0)
    g.add_argument("--maps", type=str, default="")
    g.add_argument("--snowflake", type=float, default=1.0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    def common(p, cubes=True):
        p.add_argument("--points", required=True)
        if cubes:
            p.add_argument("--cubes", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=int, default=256)

    b = sub.add_parser("build", help="build an adjacent family of cube systems")
    common(b, cubes=False)
    # estimate and verify read these from the cubes file
    b.add_argument("--delta", type=float, default=1.0 / 16.0)
    b.add_argument("--c0", type=float, default=1.0)
    b.add_argument("--C0", type=float, default=1.0)
    b.add_argument("--out", required=True)
    b.add_argument("--levels", type=int, default=None)
    b.add_argument("--systems", type=int, default=8, help="K_max")
    b.add_argument("--target-ratio", dest="target_ratio", type=float, default=64.0)
    b.set_defaults(func=cmd_build)

    e = sub.add_parser("estimate", help="run a dimension estimator")
    common(e)
    e.add_argument("kind", choices=["hausdorff", "box", "spectrum", "assouad"])
    e.add_argument("--theta", type=float, default=None)
    e.add_argument("--window", type=int, nargs=2, default=None)
    e.add_argument("--system", type=int, default=0)
    e.add_argument("--out", default="-")
    e.add_argument("--dump", default=None)
    e.set_defaults(func=cmd_estimate)

    v = sub.add_parser("verify", help="re-run invariant and sandwich checks")
    common(v)
    v.set_defaults(func=cmd_verify)

    d = sub.add_parser("doubling", help="estimate the doubling constant")
    d.add_argument("--points", required=True)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--budget", type=int, default=32)
    d.add_argument("--out", default="-")
    d.set_defaults(func=cmd_doubling)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except (ConfigurationError, PointsFileError, StaleCubesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CubedimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
