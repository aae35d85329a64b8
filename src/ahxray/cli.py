"""Command-line entry point.

Subcommands wire experiment configurations to the library and write
datasets, JSON reports, and plot-ready CSV tables.  Exit codes: 0 success,
2 validation failure (bad config, field data or dataset file, unreadable
input, a dataset from another fan, a gauge-check pair whose model, fan
or transport differ), 3 numerical failure
(trapped geodesic budget, optimizer stagnation).  Every report embeds the
config fingerprint and tool version, and identical config + seed produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .bundle import ckt_condition_check, validation_points
from .config import ExperimentConfig
from .errors import (AhxrayError, ConfigError, StagnationError,
                     TrappedGeodesicError)
from .reconstruct import reconstruct_higgs
from .spherebundle import mode_energies, pestov_residual
from .xray import (ScatteringDataset, compare_datasets,
                   compute_scattering_data)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report_json(cfg: ExperimentConfig, payload: dict) -> str:
    body = {"fingerprint": cfg.fingerprint(), "version": __version__,
            "seed": cfg.seed}
    body.update(payload)
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def cmd_scatter(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    cfg.override_seed(args.seed)
    model, conn, higgs = cfg.build_pair()
    fan = cfg.build_fan(args.fan)
    tcfg = cfg.build_transport(rho_cut=args.rho_cut)
    dataset = compute_scattering_data(model, conn, higgs, fan, tcfg,
                                      fingerprint=cfg.fingerprint())
    _write(args.out, dataset.to_jsonl())
    return EXIT_OK


def cmd_gauge_check(args) -> int:
    cfg_a = ExperimentConfig.from_file(args.a)
    cfg_b = ExperimentConfig.from_file(args.b)
    cfg_a.override_seed(args.seed)
    cfg_b.override_seed(args.seed)
    # both datasets are computed on A's model, fan and transport
    for name in ("model", "fan", "transport"):
        if cfg_a.sections.get(name) != cfg_b.sections.get(name):
            raise ConfigError("B's section differs from A's, whose geometry "
                              "both datasets would use", section=name)
    model, conn_a, higgs_a = cfg_a.build_pair()
    _, conn_b, higgs_b = cfg_b.build_pair()
    fan = cfg_a.build_fan(args.fan)
    tcfg = cfg_a.build_transport(rho_cut=args.rho_cut)
    ds_a = compute_scattering_data(model, conn_a, higgs_a, fan, tcfg)
    ds_b = compute_scattering_data(model, conn_b, higgs_b, fan, tcfg)
    report = compare_datasets(ds_a, ds_b)
    payload = {"max_frobenius": report.max_frobenius,
               "records": len(report.per_record),
               "rho_cut": tcfg.rho_cut,
               "fingerprint_b": cfg_b.fingerprint()}
    _write(args.out, _report_json(cfg_a, payload))
    return EXIT_OK


def _parse_grid(spec):
    if spec is None:
        return None
    try:
        nx, ntheta = (int(tok) for tok in spec.split(","))
        return nx, ntheta
    except ValueError:
        raise ConfigError(f"--grid expects nx,ntheta, got {spec!r}")


def cmd_pestov(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    cfg.override_seed(args.seed)
    cfg.override_section("section", args.section)
    model, conn, _ = cfg.build_pair()
    base = cfg.grid_size(_parse_grid(args.grid))
    # coarse companion level for the refinement table; grids below 24
    # cannot hold the default test section away from the outer rings
    sizes = [n for n in (max(base[0] // 2, 24), base[0]) if n <= base[0]]
    levels = []
    for nx in dict.fromkeys(sizes):
        grid = cfg.build_grid(model, override=(nx, base[1]))
        u = cfg.build_section(grid, conn.rank)
        rep = pestov_residual(u, conn)
        levels.append({"nx": nx, "ntheta": base[1], **rep.as_dict()})
    decreasing = (levels[-1]["relative_residual"]
                  < levels[0]["relative_residual"]
                  if len(levels) > 1 else None)
    payload = {"levels": levels, "refinement_decreasing": decreasing}
    _write(args.out, _report_json(cfg, payload))
    return EXIT_OK


def cmd_fourier(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    cfg.override_seed(args.seed)
    cfg.override_section("section", args.section)
    model, conn, _ = cfg.build_pair()
    grid = cfg.build_grid(model, override=_parse_grid(args.grid))
    u = cfg.build_section(grid, conn.rank)
    m_max = max(min(grid.max_exact_degree, 12), int(np.max(np.abs(u.k))))
    energies = mode_energies(u, m_max)
    lines = ["mode,energy"]
    for m, e in enumerate(energies):
        lines.append(f"{m},{float(e)!r}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_curvature_report(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    cfg.override_seed(args.seed)
    model, conn, _ = cfg.build_pair()
    pts = validation_points(args.grid_n)
    gauss = model.gauss_curvature(pts)
    ckt = ckt_condition_check(conn, model, pts)
    payload = {"sectional_min": float(np.min(gauss)),
               "sectional_max": float(np.max(gauss)),
               "kappa": ckt.kappa,
               "curvature_norm": ckt.fnorm,
               "ckt_condition_satisfied": ckt.satisfied}
    _write(args.out, _report_json(cfg, payload))
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    cfg.override_seed(args.seed)
    cfg.merge_section_from_file("reconstruction", args.basis)
    model, conn, _ = cfg.build_pair()
    with open(args.data, "r", encoding="utf-8") as fh:
        data = ScatteringDataset.from_jsonl(fh.read())
    params, rcfg = cfg.build_reconstruction()
    # an empty dataset meets the configured fan, refused as another fan's
    fan = cfg.build_fan(len(data.records) or None)
    report = reconstruct_higgs(data, model, conn, params, fan, rcfg)
    _write(args.out, _report_json(cfg, report.as_dict()))
    if args.field_csv:
        recovered = params.higgs(report.coeffs)
        pts = validation_points(24)
        vals = recovered.phi(pts)
        lines = ["x1,x2," + ",".join(
            f"phi_{i}{j}_{p}" for i in range(params.rank)
            for j in range(params.rank) for p in ("re", "im"))]
        for p, m in zip(pts, vals):
            row = [repr(float(p[0])), repr(float(p[1]))]
            for z in m.reshape(-1):
                row.extend([repr(float(z.real)), repr(float(z.imag))])
            lines.append(",".join(row))
        _write(args.field_csv, "\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ahxray",
        description="Non-abelian X-ray transform laboratory on the "
                    "asymptotically hyperbolic disk")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scatter", help="compute a scattering dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="JSONL output path")
    p.add_argument("--fan", type=int, default=None)
    p.add_argument("--rho-cut", type=float, default=None, dest="rho_cut")
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("gauge-check",
                       help="compare datasets of two configurations")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--fan", type=int, default=None)
    p.add_argument("--rho-cut", type=float, default=None, dest="rho_cut")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gauge_check)

    p = sub.add_parser("pestov", help="energy identity residual report")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--grid", default=None, help="nx,ntheta")
    p.add_argument("--section", default=None,
                   help="inline test section, e.g. "
                        "'mode=1; radius=0.7; vector=1,0,0,0'")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pestov)

    p = sub.add_parser("fourier", help="fiber mode energies as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--grid", default=None, help="nx,ntheta")
    p.add_argument("--section", default=None,
                   help="inline test section spec")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fourier)

    p = sub.add_parser("curvature-report",
                       help="sectional curvature and CKT condition table")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--grid-n", type=int, default=48, dest="grid_n")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_curvature_report)

    p = sub.add_parser("reconstruct",
                       help="recover a Higgs field from a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--basis", default=None,
                   help="file whose [reconstruction] section supplies the "
                        "basis")
    p.add_argument("--out", default=None)
    p.add_argument("--field-csv", default=None, dest="field_csv")
    p.set_defaults(func=cmd_reconstruct)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TrappedGeodesicError, StagnationError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except AhxrayError as err:
        print(f"validation failure: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, UnicodeDecodeError) as err:
        print(f"validation failure: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
