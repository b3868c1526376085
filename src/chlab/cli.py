"""Command-line interface.

Commands::

    chlab simulate <config>                 run a scenario, write artifacts
    chlab weights certify <config>          certify every tracked weight
    chlab classify <config>                 a-priori verdicts, no integration
    chlab profile <config>                  run with tail profiles forced on
    chlab sweep <config> --axis F --values V1,V2,...
    chlab selftest                          built-in verification suite

``<config>`` is either the name of a builtin scenario (``chlab simulate
--list`` prints them) or the path of a YAML config file.  The flags
``--out DIR``, ``--seed INT``, and ``--quiet`` are accepted by every
command.  Exit status is 0 whenever the requested work completed — a run
that ends in wave breaking is a result, not an error; nonzero is reserved
for bad configs, unreadable files, and failed selftests.  A tracked weight
that cannot be certified is said once, as a ``warning: ...`` line: by the
run report of ``simulate`` and ``profile``, and on stderr otherwise.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import List, Optional

from .config import ConfigError, Scenario, load_scenario
from .diagnostics import predictor_table
from .io import SCHEMA_VERSION, write_summary
from .runner import run_scenario, sweep
from .scenarios import builtin_names, builtin_scenario, describe_builtins
from .weights import certify_admissible

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_SELFTEST = 1


def _seed(text: str) -> int:
    """The ``--seed`` type: a non-negative integer, as numpy's
    ``SeedSequence`` does."""
    if not re.fullmatch(r"\+?\d+", text.strip()):
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    # every parser takes the common flags from this parent; SUPPRESS keeps
    # a subcommand's unset flags from clobbering the root parser's values
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="DIR", default=argparse.SUPPRESS,
                        help="artifact directory root (default: ./runs)")
    common.add_argument("--seed", type=_seed, metavar="INT",
                        default=argparse.SUPPRESS,
                        help="seed recorded in summaries and used by "
                             "sampling-based checks (default: 0)")
    common.add_argument("--quiet", action="store_const", const=True,
                        default=argparse.SUPPRESS,
                        help="suppress progress output")

    parser = argparse.ArgumentParser(
        prog="chlab", parents=[common],
        description="Numerical laboratory for the Camassa-Holm equation in "
                    "nonlocal form: scenario runs, weighted-norm "
                    "persistence, breakdown prediction, tail profiles.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(subparsers, name, handler, help, nargs=None):
        """A command parser whose ``handler`` reads a ``config`` argument."""
        p = subparsers.add_parser(name, help=help, parents=[common])
        p.add_argument("config", nargs=nargs,
                       help="builtin scenario name or YAML config path")
        p.set_defaults(handler=handler)
        return p

    p_sim = command(sub, "simulate", _cmd_simulate,
                    "run one scenario and write its artifacts", nargs="?")
    p_sim.add_argument("--list", action="store_true",
                       help="list builtin scenarios and exit")

    p_weights = sub.add_parser("weights", help="weight machinery",
                               parents=[common])
    p_weights.set_defaults(handler=_cmd_weights)
    command(p_weights.add_subparsers(metavar="SUBCOMMAND"), "certify",
            _cmd_certify, "admissibility certificates for a scenario's "
                          "tracked weights")

    command(sub, "classify", _cmd_classify,
            "run the a-priori breakdown predictors on the initial datum "
            "(no time integration)")
    command(sub, "profile", _cmd_profile,
            "run a scenario with tail-profile accumulation forced on")

    p_sweep = command(sub, "sweep", _cmd_sweep,
                      "repeat a scenario across values of one config field")
    p_sweep.add_argument("--axis", required=True, metavar="FIELD",
                         help="dotted config path to vary, e.g. "
                              "initial_data.rate or grid.N")
    p_sweep.add_argument("--values", required=True, metavar="V1,V2,...",
                         help="comma-separated values for the axis")
    # read a list such as -1,-2 as the argument of --values, not a flag
    p_sweep._negative_number_matcher = re.compile(r"-\.?\d")
    p_sweep.add_argument("--workers", type=int, default=None, metavar="N",
                         help="run at most N values at a time, each in a "
                              "child process of its own (default: one per "
                              "value, capped at the CPU count)")

    p_self = sub.add_parser("selftest", parents=[common],
                            help="run the built-in verification suite")
    p_self.add_argument("--slow", action="store_true",
                        help="include the slow sweep criterion")
    p_self.add_argument("--criterion", type=int, action="append",
                        metavar="N", help="run only the given criterion "
                        "number (repeatable)")
    p_self.set_defaults(handler=_cmd_selftest)

    return parser


def _resolve_scenario(token: str, report: bool = False) -> Scenario:
    """The builtin or config file that ``token`` names.  Each tracked
    weight that cannot be certified is said once: as a ``warning: ...``
    line on stderr or, with ``report``, by the run report."""
    if token in builtin_names():
        scenario = builtin_scenario(token)
    elif Path(token).exists():
        scenario = load_scenario(token)
    else:
        raise ConfigError(
            "", f"{token!r} is neither a builtin scenario nor a config file; "
                f"builtins: {', '.join(builtin_names())}")
    if not report:
        for message in scenario.weight_warnings():
            print(f"warning: {message}", file=sys.stderr)
    return scenario


def _say(quiet: bool, *parts) -> None:
    if not quiet:
        print(*parts)


def _print_run_report(summary: dict, outdir, quiet: bool) -> None:
    if quiet:
        return
    name = summary["scenario"]
    print(f"{name}: {summary['status']} at t={summary['t_final']:.6g} "
          f"({summary['steps']} steps, {summary['timing_seconds']:.2f}s)")
    bracket = summary["t_star_bracket"]
    if bracket:
        print(f"  breakdown bracketed in [{bracket[0]:.6g}, {bracket[1]:.6g}]")
    cons = summary["conservation"]
    print(f"  drift: energy {cons['energy_drift_rel']:.3e}, "
          f"mass {cons['mass_drift_rel']:.3e}")
    pred = summary["predictors"]
    fired = [k for k in ("slope_criterion", "decay_blowup")
             if pred[k]["fired"]]
    print(f"  predictors: momentum sign "
          f"{pred['momentum_sign']['verdict']}; fired: "
          f"{', '.join(fired) if fired else 'none'}")
    for row in summary["persistence"]:
        print(f"  W[{row['weight_str']}, p={row['p']}]: "
              f"sup {row['sup_W']:.6g}, C_fit {row['C_fit']:.6g}, "
              f"{'ok' if row['passed'] else 'inconsistent'}"
              f"{' (diverged)' if row['diverged'] else ''}")
    if summary["rate_cap"]:
        cap = summary["rate_cap"]
        print(f"  rate cap: max {cap['max_sup']:.6g} vs cap "
              f"{cap['cap']:.6g} -> {'ok' if cap['passed'] else 'EXCEEDED'}")
    if summary["profiles"]:
        p = summary["profiles"]
        if "c1" in p:
            recon = p["reconstruction_error_rel"]
            print(f"  profiles: c1={p['c1']:.6g} c2={p['c2']:.6g}, "
                  f"max eps ({p['max_eps_plus']:.3e}, "
                  f"{p['max_eps_minus']:.3e})"
                  + (f", reconstruction {recon:.3e}"
                     if recon is not None else ""))
        if p.get("error"):
            print(f"  profiles note: {p['error']}")
    for warning in summary["weight_warnings"]:
        print(f"  warning: {warning}")
    if outdir is not None:
        print(f"  artifacts: {outdir}")


def _write_record(outdir: Path, scenario: Scenario, seed: int,
                  filename: str, body: dict) -> Path:
    """Write ``body`` as ``filename`` in ``outdir``, the scenario's run
    directory, under the summary schema version, scenario name and seed."""
    path = outdir / filename
    write_summary(path, {"schema_version": SCHEMA_VERSION,
                         "scenario": scenario.name, "seed": seed, **body})
    return path


def _cmd_simulate(args, out_root, seed, quiet, force_profiles=False) -> int:
    if getattr(args, "list", False):
        for name, description in describe_builtins():
            print(f"{name:26s} {description}")
        return _EXIT_OK
    if not args.config:
        print("error: missing config (or use --list)", file=sys.stderr)
        return _EXIT_CONFIG
    scenario = _resolve_scenario(args.config, report=not quiet)
    if force_profiles and not scenario.profiles_enabled:
        scenario = scenario.with_profiles()
    result = run_scenario(scenario, out_root=out_root, seed=seed)
    _print_run_report(result.summary, result.outdir, quiet)
    return _EXIT_OK


def _cmd_profile(args, out_root, seed, quiet) -> int:
    return _cmd_simulate(args, out_root, seed, quiet, force_profiles=True)


def _cmd_weights(args, out_root, seed, quiet) -> int:
    print("error: expected 'weights certify'", file=sys.stderr)
    return _EXIT_CONFIG


def _cmd_certify(args, out_root, seed, quiet) -> int:
    scenario = _resolve_scenario(args.config)
    if not scenario.weights_to_track:
        _say(quiet, f"{scenario.name}: no weights_to_track in this scenario")
        return _EXIT_OK
    # an unusable --out fails before any certificate
    outdir = scenario.make_run_dir(out_root) if out_root is not None else None
    records = []
    echo = scenario.effective_config()["weights_to_track"]
    # a weight tracked at several p gets one certificate, shared by its records
    certs = {}
    for i, tw in enumerate(scenario.weights_to_track):
        cert = certs.get(tw.weight)
        if cert is None:
            cert = certs[tw.weight] = certify_admissible(tw.weight, seed=seed)
        records.append({"index": i, "weight": str(tw.weight),
                        "p": echo[i]["p"], "certificate": cert})
        _say(quiet, f"W_{i}: {tw.weight}")
        _say(quiet, f"  admissible: {cert['admissible']}")
        _say(quiet, f"  moderateness C0 = {cert['C0']:.6g}, "
                    f"log-derivative bound A = {cert['A']:.6g}")
        integral = ("divergent" if not cert["quadrature_converged"]
                    else f"{cert['integral_v_exp']:.12g}")
        _say(quiet, f"  decay integral of v e^-|x|: {integral}")
        _say(quiet, f"  sup v e^-|x| = {cert['lp_v_exp']['inf']:.6g}")
    if outdir is not None:
        path = _write_record(outdir, scenario, seed,
                             "weight_certificates.json",
                             {"certificates": records})
        _say(quiet, f"certificates: {path}")
    return _EXIT_OK


def _cmd_classify(args, out_root, seed, quiet) -> int:
    scenario = _resolve_scenario(args.config)
    u0 = scenario.build_initial()
    # an unusable --out fails before any verdict
    outdir = scenario.make_run_dir(out_root) if out_root is not None else None
    table = predictor_table(u0)
    mc = table["momentum_sign"]
    _say(quiet, f"{scenario.name}: a-priori classification of the initial "
                f"datum")
    x0 = "" if mc["x0"] is None else f" (sign change near x = {mc['x0']:.4g})"
    _say(quiet, f"  momentum sign pattern: {mc['verdict']}{x0} -> "
                f"{'global existence' if mc['predicts_global'] else 'no guarantee'}")
    for key, label in (("slope_criterion", "slope criterion"),
                       ("decay_blowup", "critical-decay test")):
        row = table[key]
        verdict = "breakdown guaranteed" if row["fired"] else "silent"
        _say(quiet, f"  {label}: {verdict} (evidence {row['evidence']:.4e})")
    if outdir is not None:
        path = _write_record(outdir, scenario, seed, "classification.json",
                             {"config_hash": scenario.content_hash(),
                              "predictors": table})
        _say(quiet, f"classification: {path}")
    return _EXIT_OK


def _parse_values(raw: str) -> List[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError("values", f"bad sweep value in {raw!r}: {exc}")


def _cmd_sweep(args, out_root, seed, quiet) -> int:
    scenario = _resolve_scenario(args.config)
    values = _parse_values(args.values)
    table = sweep(scenario, args.axis, values, out_root=out_root,
                  workers=args.workers, seed=seed)
    if not quiet:
        print(f"{scenario.name}: sweep over {args.axis}")
        for row in table["rows"]:
            if row["error"]:
                line = f"error: {row['error']}"
            else:
                bracket = row["t_star_bracket"]
                where = (f", breakdown in [{bracket[0]:.4g}, {bracket[1]:.4g}]"
                         if bracket else "")
                line = f"{row['status']} at t={row['t_final']:.6g}{where}"
            print(f"  {args.axis} = {row['value']:<10g} {line}")
        if "dir" in table:
            print(f"  sweep table: {table['dir']}")
    return _EXIT_OK


def _cmd_selftest(args, out_root, seed, quiet) -> int:
    from .acceptance import run_suite

    del out_root, seed  # criteria pin their own seeds for reproducibility
    results = run_suite(include_slow=args.slow, numbers=args.criterion,
                        report=None if quiet else print)
    failed = [c for c, checks in results if not all(k.passed for k in checks)]
    if not quiet:
        print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return _EXIT_SELFTEST if failed else _EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if not args.command:
        parser.print_help()
        return _EXIT_CONFIG

    try:
        return args.handler(args, getattr(args, "out", "runs"),
                            getattr(args, "seed", 0),
                            getattr(args, "quiet", False))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
