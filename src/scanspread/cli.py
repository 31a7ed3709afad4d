"""Command-line interface.

Subcommands:

    analyze    profiles, CCDFs and entropy reports of a host list or
               group-distribution CSV
    rates      closed-form rate table for a set of strategy tokens
    simulate   Monte Carlo early stage (early: the config takes the hosts
               the runs scan, so a distribution input is drawn into hosts by
               materialize_hosts with --mat-seed) or per-subnet dynamics
               (epidemic)
    defense    proactive-protection requirements or the 2**64-space rate
    synth      synthetic distributions and materialized host lists

Every command writes its outputs as files plus a manifest sidecar recording
the command line, input digests, seed, package version and runtime.  Data
files themselves contain only deterministic content: reruns with the same
inputs, seed and version are byte-identical.  Monte Carlo runs are serial;
--threads is accepted and recorded but changes neither outputs nor speed.

Exit codes: 0 success, 2 usage or parameter error (inf and nan included, an
injected or `defense pp` beta no distribution can have, a rate that
overflows, an option of the other `defense` mode, and `defense pp` with only
one of --s and --N), an output path that cannot be written or a run that
runs out of memory, 3 missing, unreadable, non-UTF-8 or malformed input, 4
internal consistency failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .addrspace import (
    GroupDistribution,
    HostListResult,
    HostSet,
    _opens_distribution,
    aggregate,
    ccdf,
    check_int,
    load_host_list,
    materialize_hosts,
    refine,
    save_host_list,
    synth_uniform,
    synth_zipf,
    write_ccdf_csv,
    write_table,
)
from .epidemic import (
    EarlyStageConfig,
    EpidemicConfig,
    estimate_infection_rate,
    estimate_mss_full,
    propagate,
    time_to_fraction,
)
from .errors import (
    DistributionFormatError,
    HostListParseError,
    InputFileError,
    InternalConsistencyError,
    ParameterError,
)
from .infometrics import entropy_report, non_uniformity_factor, profiles_from_distribution
from .rates import (
    ScanContext,
    alpha_rs,
    code_red_alpha_per_second,
    ipv6_alpha,
    pp_min_deployment,
    pp_requirement,
    rate_table,
    write_rates_csv,
)
from .strategies import ScanStrategy, parse_strategy

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_INTERNAL = 4

# Upper bound on the rows of `defense pp --d-grid`.
MAX_GRID_POINTS = 1_000_000


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with _reading_input(path), open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextmanager
def _reading_input(path: Path):
    """Report an OSError while opening or reading an input, or input that is
    not UTF-8, as InputFileError."""
    try:
        yield
    except OSError as exc:
        raise InputFileError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputFileError(f"{path}: {exc}") from None


def _finite_float(text: str) -> float:
    """argparse type of the float options: a number other than inf and nan."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


_finite_float.__name__ = "finite float"  # argparse names the type in its usage errors


def _count(text: str) -> int:
    """argparse type of --N: a finite number with no fractional part, such as
    448894 or 4.48894e5."""
    value = _finite_float(text)
    if value != math.floor(value):
        raise ValueError(text)
    return int(value)


_count.__name__ = "integral number"


def _load_input(path: Path, kind: str) -> tuple[HostListResult | None, GroupDistribution | None]:
    """Sniff and load a host list or a distribution CSV: returns
    (host list, None) or (None, distribution)."""
    with _reading_input(path):
        if kind == "auto":
            kind = "hosts"
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    s = line.strip()
                    if not s:
                        continue
                    if _opens_distribution(s):
                        kind = "dist"
                    break
        if kind == "dist":
            return None, GroupDistribution.from_csv(path)
        return load_host_list(path), None


# -- analyze ---------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> None:
    in_path = Path(args.input)
    out_dir = Path(args.out_dir)
    loaded, dist = _load_input(in_path, args.kind)
    report_levels = sorted(set(args.report_l or [8, 16]))

    if loaded is not None:
        hosts = loaded.hosts
        if hosts.N == 0:
            raise ParameterError(f"{in_path}: no hosts")
        print(f"{in_path}: {hosts.N} hosts, {loaded.duplicates_dropped} duplicates dropped, "
              f"{loaded.lines_ignored} lines ignored")
        l_max = args.l_max if args.l_max is not None else 16
        if args.check:
            parent = aggregate(hosts, 0)
            for l in range(1, l_max + 1):
                parent = refine(parent, hosts, l)
        dist = aggregate(hosts, max([l_max, *report_levels]))
    else:
        if dist.total == 0:
            raise ParameterError(f"{in_path}: empty distribution")
        l_max = min(args.l_max if args.l_max is not None else dist.l, dist.l)
        for l in report_levels:
            if l > dist.l:
                print(f"warning: skipping l={l} reports; input is at l={dist.l}", file=sys.stderr)
        report_levels = [l for l in report_levels if l <= dist.l]
    betas, shannons = profiles_from_distribution(dist.coarsen(l_max))
    dist_at = {l: dist.coarsen(l) for l in report_levels}

    write_table(out_dir / "beta_profile.csv", ["l", "beta"], list(zip(*betas)))
    write_table(out_dir / "shannon_profile.csv", ["l", "shannon"], list(zip(*shannons)))
    for l, d in dist_at.items():
        write_ccdf_csv(ccdf(d), out_dir / f"ccdf_l{l}.csv")
        rep = entropy_report(d)
        _write_json(out_dir / f"entropy_l{l}.json", {
            "l": rep.l,
            "h0_support": rep.h0,
            "shannon": rep.shannon,
            "h2": rep.h2,
            "h_inf": rep.h_inf,
            "beta": non_uniformity_factor(d).beta,
        })


# -- rates -----------------------------------------------------------------


def _build_context(args: argparse.Namespace, strategies: list[ScanStrategy], dist: GroupDistribution | None,
                   hosts: HostSet | None) -> ScanContext:
    beta_overrides = {}
    if args.beta8 is not None:
        beta_overrides[8] = args.beta8
    if args.beta16 is not None:
        beta_overrides[16] = args.beta16
    for item in args.beta or []:
        level, _, value = item.partition("=")
        try:
            beta_overrides[int(level)] = _finite_float(value)
        except ValueError:
            raise ParameterError(f"bad --beta entry {item!r}; expected L=VALUE") from None
    max_p_overrides = None  # --maxp at the levels of the optis strategies, the rates that read it
    if args.maxp is not None:
        max_p_overrides = {st.l: args.maxp for st in strategies if st.kind == "optis"}
    n = args.N
    if n is None:
        if hosts is not None:
            n = hosts.N
        elif dist is not None:
            n = dist.total
        else:
            raise ParameterError("need --N when no input file is given")
    return ScanContext(
        s=args.s,
        N=n,
        dist=dist,
        hosts=hosts,
        beta_overrides=beta_overrides or None,
        max_p_overrides=max_p_overrides,
    )


def cmd_rates(args: argparse.Namespace) -> None:
    loaded = dist = None
    if args.input is not None:
        loaded, dist = _load_input(Path(args.input), args.kind)
    strategies = [parse_strategy(tok) for tok in (args.strategy or ["rs"])]
    ctx = _build_context(args, strategies, dist, loaded.hosts if loaded else None)
    reports = rate_table(strategies, ctx)
    write_rates_csv(reports, Path(args.out_dir) / "rates.csv", time_unit=args.time_unit)


# -- simulate --------------------------------------------------------------


def cmd_simulate_early(args: argparse.Namespace) -> None:
    out_dir = Path(args.out_dir)
    loaded, dist = _load_input(Path(args.input), args.kind)
    strategy = parse_strategy(args.strategy)
    # a distribution is drawn into the hosts the runs scan; a bad --seed is refused there by its own name
    mat_seed = args.seed if args.mat_seed is None else check_int(args.mat_seed, "materialize_seed", 0)
    hosts = loaded.hosts if loaded else materialize_hosts(dist, mat_seed)
    cfg = EarlyStageConfig(
        strategy=strategy,
        s=args.s,
        total_scans=args.scans,
        runs=args.runs,
        seed=args.seed,
        hosts=hosts,
        threads=args.threads,
    )
    if args.budgets:
        if strategy.kind != "mss":
            raise ParameterError(f"--budgets needs an mss strategy, got {strategy.kind}")
        try:
            budgets = [int(b) for b in args.budgets.split(",") if b.strip()]
        except ValueError:
            raise ParameterError(f"bad --budgets {args.budgets!r}; expected B1,B2,...") from None
        results = estimate_mss_full(cfg, budgets)
        write_table(out_dir / "mss_budgets.csv", ["total_scans", f"mean_alpha_per_{args.time_unit}", "var_alpha"],
                    list(zip(*((r.total_scans, r.mean_alpha, r.var_alpha) for r in results))))
    else:
        r = estimate_infection_rate(cfg)
        _write_json(out_dir / "early.json", {
            "strategy": r.strategy,
            "s": args.s,
            "total_scans": r.total_scans,
            "runs": r.runs,
            "seed": r.seed,
            "mean_alpha": r.mean_alpha,
            "var_alpha": r.var_alpha,
        })


def cmd_simulate_epidemic(args: argparse.Namespace) -> None:
    out_dir = Path(args.out_dir)
    loaded, dist = _load_input(Path(args.input), args.kind)
    strategy = parse_strategy(args.strategy)
    if loaded is not None:
        dist = aggregate(loaded.hosts, strategy.l)
    initial: int | str = args.initial
    if initial != "densest":
        try:
            initial = int(initial)
        except ValueError:
            raise ParameterError(f"bad --initial {args.initial!r}; expected a group index or 'densest'") from None
    pp = None
    if args.pp is not None:
        try:
            d_str, p_str = args.pp.split(",")
            pp = (float(d_str), float(p_str))
        except ValueError:
            raise ParameterError(f"bad --pp {args.pp!r}; expected D,P") from None
    cfg = EpidemicConfig(
        strategy=strategy,
        dist=dist,
        s=args.s,
        horizon=args.horizon,
        tick=args.tick,
        initial=initial,
        pp=pp,
        record_per_subnet=args.per_subnet,
    )
    trace = propagate(cfg)
    time_col = f"t_{args.time_unit}"
    write_table(out_dir / "trace.csv", [time_col, "n_t"], [trace.times(), trace.n],
                [f"strategy={trace.strategy} s={args.s!r} tick={args.tick!r} N={trace.total_population}"])
    if trace.per_class is not None:
        occupied = dist.coarsen(strategy.l).indices.tolist()
        cols = list(trace.per_class.T)  # one object per class: the writer formats each once
        write_table(out_dir / "per_subnet.csv", [time_col, *(f"m_{g}" for g in occupied)],
                    [trace.times(), *(cols[k] for k in trace.cls.tolist())])
    summary = {"total_population": trace.total_population}
    for frac in (0.5, 0.9, 0.99):
        t = time_to_fraction(trace, frac)
        summary[f"t_{args.time_unit}_to_{frac}"] = t
    _write_json(out_dir / "epidemic_summary.json", summary)


# -- defense ---------------------------------------------------------------


def _d_grid(spec: str) -> list[float]:
    """Deployment fractions MIN, MIN+STEP, ... up to MAX, at 12 decimals."""
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
    except ValueError:
        raise ParameterError(f"bad --d-grid {spec!r}; expected MIN:MAX:STEP") from None
    if not (0 < lo <= hi <= 1 and step > 0):
        raise ParameterError("--d-grid needs 0 < MIN <= MAX <= 1 and STEP > 0")
    span = (hi - lo) / step
    if round(lo + step, 12) == round(lo, 12) or not span < MAX_GRID_POINTS:
        raise ParameterError(
            f"--d-grid {spec!r}: STEP must advance MIN at 12 decimals and give at most "
            f"{MAX_GRID_POINTS} points"
        )
    points = (round(lo + i * step, 12) for i in range(math.floor(span) + 2))
    return [d for d in points if d <= hi + 1e-12]


def cmd_defense(args: argparse.Namespace) -> None:
    out_dir = Path(args.out_dir)
    if args.mode == "ipv6":
        alpha = ipv6_alpha(args.s, args.N, args.beta32)
        reference = code_red_alpha_per_second()
        _write_json(out_dir / "defense.json", {
            "mode": "ipv6",
            "s": args.s,
            "N": args.N,
            "beta32": args.beta32,
            "alpha_per_second": alpha,
            "code_red_alpha_per_second": reference,
            "exceeds_code_red": alpha > reference,
        })
    else:
        if (args.s is None) != (args.N is None):
            raise ParameterError("pp takes --s and --N together: they give alpha_rs")
        beta = args.beta_value
        result = {
            "mode": args.mode,
            "beta": beta,
            "min_deployment_for_p0": pp_min_deployment(beta),
        }
        if args.d is not None:
            result["d"] = args.d
            result["p_max"] = pp_requirement(beta, args.d)
        if args.s is not None:
            result["alpha_rs"] = alpha_rs(ScanContext(s=args.s, N=args.N))
        if args.d_grid is not None:
            grid = _d_grid(args.d_grid)
            write_table(out_dir / "pp_curve.csv", ["d", "p_max"],
                        [grid, [pp_requirement(beta, min(d, 1.0)) for d in grid]])
        _write_json(out_dir / "defense.json", result)


# -- synth -----------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> None:
    out_path = Path(args.out)
    if args.shape == "uniform":
        dist = synth_uniform(args.groups, args.l, args.per_group)
        dist.to_csv(out_path)
    elif args.shape == "zipf":
        dist = synth_zipf(args.l, args.exponent, args.hosts, args.seed)
        dist.to_csv(out_path)
    else:  # hosts
        dist_path = Path(args.dist)
        with _reading_input(dist_path):
            dist = GroupDistribution.from_csv(dist_path)
        hosts = materialize_hosts(dist, args.seed)
        save_host_list(out_path, hosts)


# -- parser ----------------------------------------------------------------


def _add_common_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", default=".", help="directory for output files (default: .)")


def _add_time_unit(p: argparse.ArgumentParser) -> None:
    p.add_argument("--time-unit", choices=("second", "minute"), default="second",
                   help="unit of the scanning rate s, echoed in column headers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scanspread",
        description="Non-uniformity metrics of host distributions and scanning-strategy propagation models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="profiles, CCDFs and entropy reports of an input")
    p.add_argument("input", help="host list (one dotted quad per line) or distribution CSV")
    p.add_argument("--kind", choices=("auto", "hosts", "dist"), default="auto")
    p.add_argument("--l-max", type=int, default=None, help="deepest profile level (default 16)")
    p.add_argument("--report-l", type=int, action="append",
                   help="prefix level for CCDF/entropy reports (repeatable; default 8 and 16)")
    p.add_argument("--check", action="store_true",
                   help="verify parent counts equal child sums at every level")
    _add_common_out(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("rates", help="closed-form rate table")
    p.add_argument("input", nargs="?", default=None, help="optional host list or distribution CSV")
    p.add_argument("--kind", choices=("auto", "hosts", "dist"), default="auto")
    p.add_argument("--strategy", action="append", metavar="TOKEN",
                   help="strategy token, repeatable (default: rs); e.g. ls:l=16,pa=0.75")
    p.add_argument("--s", type=_finite_float, required=True, help="scans per time unit per infected host")
    p.add_argument("--N", type=_count, default=None, help="vulnerable population (default: from input)")
    p.add_argument("--beta8", type=_finite_float, default=None, help="inject beta at l=8")
    p.add_argument("--beta16", type=_finite_float, default=None, help="inject beta at l=16")
    p.add_argument("--beta", action="append", metavar="L=VALUE", help="inject beta at any level (repeatable)")
    p.add_argument("--maxp", type=_finite_float, default=None, help="inject the largest group probability")
    _add_common_out(p)
    _add_time_unit(p)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("simulate", help="Monte Carlo early stage or per-subnet dynamics")
    sim_sub = p.add_subparsers(dest="mode", required=True)

    pe = sim_sub.add_parser("early", help="Monte Carlo early-stage rate estimate")
    pe.add_argument("input", help="host list or distribution CSV (materialized with --mat-seed)")
    pe.add_argument("--kind", choices=("auto", "hosts", "dist"), default="auto")
    pe.add_argument("--strategy", required=True, metavar="TOKEN")
    pe.add_argument("--s", type=_finite_float, required=True)
    budget = pe.add_mutually_exclusive_group()  # --budgets sweeps in place of --scans
    budget.add_argument("--scans", type=int, default=1000, help="scans per run (default 1000)")
    pe.add_argument("--runs", type=int, default=10000, help="independent runs (default 10000)")
    pe.add_argument("--seed", type=int, required=True)
    pe.add_argument("--mat-seed", type=int, default=None,
                    help="seed for materializing a distribution input (default: --seed)")
    pe.add_argument("--threads", type=int, default=1,
                    help="recorded in the manifest only: runs are serial, and outputs and speed "
                         "do not depend on it (default 1)")
    budget.add_argument("--budgets", default=None, metavar="B1,B2,...",
                        help="mss only: sweep these scan budgets instead of --scans")
    _add_common_out(pe)
    _add_time_unit(pe)
    pe.set_defaults(func=cmd_simulate_early)

    pd = sim_sub.add_parser("epidemic", help="deterministic per-subnet dynamics")
    pd.add_argument("input", help="host list or distribution CSV")
    pd.add_argument("--kind", choices=("auto", "hosts", "dist"), default="auto")
    pd.add_argument("--strategy", required=True, metavar="TOKEN")
    pd.add_argument("--s", type=_finite_float, required=True)
    pd.add_argument("--tick", type=_finite_float, default=1.0, help="tick length in time units (default 1)")
    pd.add_argument("--horizon", type=int, required=True, help="number of ticks")
    pd.add_argument("--initial", default="densest",
                    help="seed group index, or 'densest' (default)")
    pd.add_argument("--pp", default=None, metavar="D,P",
                    help="proactive protection: deployment D, apparent vulnerability P")
    pd.add_argument("--per-subnet", action="store_true", help="also write per-group infected counts")
    _add_common_out(pd)
    _add_time_unit(pd)
    pd.set_defaults(func=cmd_simulate_epidemic)

    p = sub.add_parser("defense", help="defense analyses")
    def_sub = p.add_subparsers(dest="mode", required=True)

    pp = def_sub.add_parser("pp", help="proactive-protection requirements")
    pp.add_argument("--beta", dest="beta_value", metavar="BETA", type=_finite_float, required=True,
                    help="non-uniformity factor the scanner exploits, in [1, 2**32]")
    pp.add_argument("--d", type=_finite_float, default=None, help="deployment fraction")
    pp.add_argument("--d-grid", default=None, metavar="MIN:MAX:STEP", help="sweep deployment fractions")
    pp.add_argument("--s", type=_finite_float, default=None, help="with --N: also report alpha_rs")
    pp.add_argument("--N", type=_count, default=None)
    _add_common_out(pp)
    pp.set_defaults(func=cmd_defense)

    # without abbreviations, so that pp's --beta is refused rather than read as --beta32
    pv = def_sub.add_parser("ipv6", help="importance-scanning rate in the 2**64 address space", allow_abbrev=False)
    pv.add_argument("--s", type=_finite_float, required=True)
    pv.add_argument("--N", type=_count, required=True)
    pv.add_argument("--beta32", type=_finite_float, required=True, help="beta over the 2**32 top-level groups")
    _add_common_out(pv)
    pv.set_defaults(func=cmd_defense)

    p = sub.add_parser("synth", help="synthetic distributions and host lists")
    syn_sub = p.add_subparsers(dest="shape", required=True)

    pu = syn_sub.add_parser("uniform", help="equal counts in the first G groups")
    pu.add_argument("--l", type=int, required=True)
    pu.add_argument("--groups", type=int, required=True, help="number of occupied groups")
    pu.add_argument("--per-group", type=int, required=True, help="hosts per occupied group")
    pu.add_argument("--out", required=True)
    pu.set_defaults(func=cmd_synth)

    pz = syn_sub.add_parser("zipf", help="Zipf-ranked counts on permuted groups")
    pz.add_argument("--l", type=int, required=True)
    pz.add_argument("--exponent", type=_finite_float, required=True)
    pz.add_argument("--hosts", type=int, required=True, help="total host count")
    pz.add_argument("--seed", type=int, required=True)
    pz.add_argument("--out", required=True)
    pz.set_defaults(func=cmd_synth)

    ph = syn_sub.add_parser("hosts", help="materialize a distribution into addresses")
    ph.add_argument("--dist", required=True, help="distribution CSV to materialize")
    ph.add_argument("--seed", type=int, required=True)
    ph.add_argument("--out", required=True)
    ph.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command: hash its inputs, write its data files, then the manifest
    recording the command line, input digests, seed, threads, version and runtime."""
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    if args.command == "synth":
        manifest = Path(f"{Path(args.out)}.manifest.json")
    else:
        manifest = Path(args.out_dir) / "manifest.json"
    inputs = [Path(p) for p in (getattr(args, "input", None), getattr(args, "dist", None)) if p is not None]
    try:
        manifest.parent.mkdir(parents=True, exist_ok=True)
        digests = {str(p): _sha256(p) for p in inputs}  # before the command can overwrite an input
        args.func(args)
        _write_json(manifest, {
            "command": ["scanspread", *argv],
            "inputs": digests,
            "seed": getattr(args, "seed", None),
            "threads": getattr(args, "threads", None),
            "version": __version__,
            "runtime_seconds": time.perf_counter() - t0,
        })
    except (HostListParseError, DistributionFormatError, InputFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:  # an output path that cannot be created or written
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # an input or option too large for this machine
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
