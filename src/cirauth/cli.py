"""Command-line front end.

Subcommands:

* ``run`` - execute a scenario described by a flat key=value config file
  (four bundled presets ship with the package and can be named
  directly) and write the resulting curves to a CSV.
* ``thresholds`` - print the chi-squared thresholds for a list of target
  false-alarm rates.
* ``selfcheck`` - run the fast invariant suite and exit nonzero on any
  failure.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from importlib import resources
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, channel, detect, numerics, simkit, sparse
from .channel import ChannelConfig, channel_block, exp_correlation_matrix, measure_block
from .detect import FusionKind, FusionRule
from .simkit import Scenario, Scheme, Variant
from .sparse import CsCodecConfig

PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5")


class ConfigError(Exception):
    """Config problem, anchored to ``path:line`` when known."""

    def __init__(self, message: str, path: str = "", line: int = 0):
        prefix = f"{path}:{line}: " if path and line else (f"{path}: " if path else "")
        super().__init__(prefix + message)


def _bool(raw: str) -> bool:
    if raw.lower() in ("true", "yes", "on", "1"):
        return True
    if raw.lower() in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _choice(*names: str) -> Callable[[str], str]:
    """Parser that accepts one of ``names`` and keeps it as a string."""

    def parse(raw: str) -> str:
        if raw not in names:
            raise ValueError(f"expected one of {', '.join(names)}, got {raw!r}")
        return raw
    return parse


def _parse_float_list(raw: str) -> tuple[float, ...]:
    raw = raw.strip()
    if raw.count(":") == 2:  # start:step:stop, inclusive of the endpoint
        start, step, stop = (float(p) for p in raw.split(":"))
        if not all(math.isfinite(v) for v in (start, step, stop)):
            raise ValueError(f"range {raw!r} needs a finite start, step and stop")
        if step <= 0:
            raise ValueError("range step must be positive")
        span = (stop - start) / step  # checked before any grid is built
        if span >= simkit._MAX_SNR_POINTS:
            raise ValueError(f"range {raw!r} has more than {simkit._MAX_SNR_POINTS} points")
        count = int(round(span)) + 1
        if count < 1 or abs(start + (count - 1) * step - stop) > 1e-9 * max(1.0, abs(stop)):
            raise ValueError(f"range {raw!r} does not hit its endpoint")
        return tuple(start + i * step for i in range(count))
    return tuple(float(part) for part in _split(raw))


def _split(raw: str) -> list[str]:
    parts = [part.strip() for part in raw.split(",") if part.strip()]
    if not parts:
        raise ValueError("expected at least one value")
    return parts


class _Key(NamedTuple):
    parse: Callable[[str], object]
    field: str | None  # the dataclass field the key sets; None if it sets none
    family: str | None = None  # the scheme family using the key: "fc", "local", "cs", or None for all
    required: bool = False  # whether that family requires the key


_SCHEMA = {
    "scenario.scheme": _Key(_choice(*(s.value for s in Scheme)), "scheme", required=True),
    "scenario.snr_db": _Key(_parse_float_list, "snr_grid_db", required=True),
    "scenario.trials": _Key(int, "trials", required=True),
    "scenario.seed": _Key(int, "seed", required=True),
    "channel.n_nodes": _Key(int, "n_nodes", required=True),
    "channel.n_taps": _Key(int, "n_taps", required=True),
    "channel.rho": _Key(float, "rho", required=True),
    "channel.pdp": _Key(_parse_float_list, "pdp"),
    "channel.normalize_kronecker": _Key(_bool, "normalize_kronecker"),
    "detector.scale": _Key(_choice("chi2"), None),
    "detector.delta": _Key(_parse_float_list, "threshold", "fc"),
    "detector.target_pfa": _Key(_parse_float_list, "threshold", "fc"),
    "detector.delta_n": _Key(_parse_float_list, "threshold", "local"),
    "detector.target_pfa_n": _Key(_parse_float_list, "threshold", "local"),
    "detector.rules": _Key(lambda raw: tuple(name.lower() for name in _split(raw)), None, "local"),
    "detector.avg_threshold": _Key(float, "avg_threshold", "local"),
    "cs.m": _Key(int, "m", "cs", required=True),
    "cs.basis": _Key(_choice(*(b.value for b in sparse.Basis)), "basis", "cs"),
    "cs.max_atoms": _Key(int, "max_atoms", "cs"),
    "cs.residual_tol": _Key(float, "residual_tol", "cs"),
    "cs.compare_uncompressed": _Key(_bool, None, "cs"),
}

_RULE_NAMES = {kind.value for kind in FusionKind}


def _parse_value(key: str, raw: str, path: str, line: int = 0):
    if key not in _SCHEMA:
        raise ConfigError(f"unknown config key {key!r}", path, line)
    if not raw:
        raise ConfigError(f"empty value for {key!r}", path, line)
    try:
        return _SCHEMA[key].parse(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}", path, line) from None


def parse_config(text: str, path: str = "<config>") -> dict:
    """Parse the flat key=value format; unknown keys are a hard error."""
    values: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw_line.strip()!r}", path, lineno)
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in values:
            raise ConfigError(f"duplicate config key {key!r}", path, lineno)
        values[key] = _parse_value(key, raw, path, lineno)
    return values


def apply_overrides(values: dict, pairs: list[str]) -> dict:
    out = dict(values)
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        out[key.strip()] = _parse_value(key.strip(), raw.strip(), "--set")
    return out


@dataclass
class ResolvedRun:
    """A scenario plus the labelled detector variants it will evaluate."""

    scenario: Scenario
    variants: list
    compare_uncompressed: bool
    config_text: str


def _require(values: dict, families: set) -> None:
    for key, spec in _SCHEMA.items():
        if spec.required and spec.family in families and key not in values:
            raise ConfigError(f"missing required config key {key!r}")


def _fields(cls, values: dict) -> dict:
    """Keyword arguments for dataclass ``cls`` from the given keys that set its fields."""
    return {_SCHEMA[k].field: v for k, v in values.items() if _SCHEMA[k].field in cls.__dataclass_fields__}


def build_run(values: dict) -> ResolvedRun:
    _require(values, {None})
    scheme = Scheme(values["scenario.scheme"])
    families = {None, "local" if scheme.local else "fc", "cs" if scheme.compressed else None}
    unused = [key for key in values if _SCHEMA[key].family not in families]
    if unused:
        raise ConfigError(f"scheme {scheme.value} does not use {', '.join(unused)}")
    _require(values, families)
    try:
        channel = ChannelConfig(**_fields(ChannelConfig, values))
        variants = _build_variants(scheme, families, values, channel)
        scenario = Scenario(
            channel=channel,
            codec=CsCodecConfig(**_fields(CsCodecConfig, values)) if scheme.compressed else None,
            **_fields(Scenario, values),
        )
    except ValueError as exc:  # messages open with the offending field
        field, _, rest = str(exc).partition(" ")
        key = next((key for key, spec in _SCHEMA.items() if spec.field == field), field)
        raise ConfigError(f"{key} {rest}".rstrip()) from None
    return ResolvedRun(scenario, variants, values.get("cs.compare_uncompressed", False), canonical_config(values))


def _build_variants(scheme: Scheme, families: set, values: dict, channel: ChannelConfig) -> list[Variant]:
    """Expand the threshold list (times the fusion-rule list, for local schemes) into labelled variants.

    A target false-alarm rate is solved into the threshold of the
    scheme's test: chi-squared with 2NL degrees of freedom at the fusion
    center, 2L at a node.
    """
    options = [key for key, spec in _SCHEMA.items() if spec.family in families and spec.field == "threshold"]
    given = [key for key in options if key in values]
    if len(given) != 1:
        raise ConfigError(f"scheme {scheme.value} needs exactly one of {' / '.join(options)}")
    key = given[0]
    levels = values[key]
    names = values.get("detector.rules", ("majority",)) if scheme.local else (None,)
    unknown = [name for name in names if name and name not in _RULE_NAMES]
    if unknown:
        raise ConfigError(f"detector.rules: unknown fusion rule {unknown[0]!r}")
    if "detector.avg_threshold" in values and FusionKind.WEIGHTED_AVERAGE.value not in names:
        raise ConfigError("detector.avg_threshold is read only by the weighted_average rule, "
                          "which detector.rules does not list")
    for listing, labels in ((key, [_format_float(v) for v in levels]), ("detector.rules", names)):
        if len(set(labels)) < len(labels):
            raise ConfigError(f"{listing} lists values that print alike, so two curves would share a label")
    rules = [FusionRule(kind=name, **_fields(FusionRule, values)) if name else None for name in names]
    prefix = key.removeprefix("detector.").replace("target_", "")  # delta, pfa, delta_n or pfa_n
    dof = 2 * channel.n_taps * (1 if scheme.local else channel.n_nodes)
    try:
        thresholds = [detect.solve_threshold(a, dof) for a in levels] if "target_" in key else levels
        return [
            Variant(f"{prefix}={_format_float(level)}" + (f" rule={name}" if name else ""), threshold, rule)
            for level, threshold in zip(levels, thresholds)
            for name, rule in zip(names, rules)
        ]
    except ValueError as exc:  # a threshold or target out of range; the message opens with its parameter
        raise ConfigError(f"{key} {str(exc).partition(' ')[2]}") from None


def canonical_config(values: dict) -> str:
    """``key=value`` pairs in key order, lists comma-joined: the CSV's ``# config:`` line."""
    pairs = sorted(values.items())
    return ";".join(f"{key}={','.join(map(str, v)) if isinstance(v, tuple) else v}" for key, v in pairs)


def load_config_file(spec: str) -> tuple[str, str]:
    """Return (text, display_path); bare preset names resolve to bundled files."""
    if spec in PRESET_NAMES and not os.path.exists(spec):
        ref = resources.files("cirauth").joinpath(f"presets/{spec}.cfg")
        return ref.read_text(encoding="utf-8"), f"<preset:{spec}>"
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            return fh.read(), spec
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}")


def _format_float(x: float) -> str:
    return format(float(x), ".10g")


# "%.10g" % x is format(x, ".10g"), the _format_float of each field, in one call per row
_CSV_ROW = "%s,%s,%.10g,%.10g,%.10g,%.10g,%.10g,%d"


def _csv_rows(curve) -> list[str]:
    """A curve's CSV rows, one per SNR point."""
    points = zip(curve.snr_db, curve.p_d, curve.p_d_stderr, curve.p_fa, curve.p_fa_stderr)
    return [_CSV_ROW % (curve.scheme, curve.label, *point, curve.trials) for point in points]


def write_csv(path: str, curves: list, config_text: str, seed: int) -> None:
    """Write curve rows atomically (temp file in the target's existing dir + rename)."""
    digest = hashlib.sha256(config_text.encode()).hexdigest()[:16]
    lines = [
        f"# cirauth {__version__}",
        f"# config_digest: {digest}",
        f"# seed: {seed}",
        f"# config: {config_text}",
        "scheme,label,snr_db,p_d,p_d_stderr,p_fa,p_fa_stderr,trials",
    ]
    for curve in curves:
        if any(c in curve.scheme + curve.label for c in ",\n\r"):  # each would split a field or a row
            raise ValueError(f"curve identifiers must hold no comma or line break, got {curve.label!r}")
        lines += _csv_rows(curve)
    payload = "\n".join(lines) + "\n"
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".cirauth-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@functools.cache  # once per process
def _pin_malloc() -> None:
    """Keep glibc from trimming or unmapping a block's freed arrays, which the next block would fault back in.

    Both thresholds are set, since setting either turns off glibc's dynamic adjustment of both.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr, or a C library that does not know the name
        return
    import ctypes  # lazy: only a glibc run needs it

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, glibc's ceiling on 64-bit systems


def cmd_run(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be a positive integer, got {args.workers}")
    text, display = load_config_file(args.config)
    seed = [] if args.seed is None else [f"scenario.seed={args.seed}"]  # after --set, so the flag wins
    run = build_run(apply_overrides(parse_config(text, display), (args.set or []) + seed))
    if not os.path.basename(args.out):  # "" or a trailing separator: no file to write
        raise ConfigError(f"--out {args.out!r} names no file")
    try:  # before any trial runs: write_csv puts its temp file in this directory
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"--out {args.out}: a parent path is not a directory") from None
    if os.path.isdir(args.out):
        raise ConfigError(f"--out {args.out} is a directory")
    for v in run.variants:
        if simkit.zero_by_construction(run.scenario, v):
            k, budget = v.rule.cutoff(run.scenario.channel.n_nodes)[1], run.scenario.codec.max_atoms
            print(f"note: {v.label} is zero by construction: its rule needs over {k} votes; "
                  f"a recovered vector holds at most {budget}", file=sys.stderr)
    _pin_malloc()  # before estimate_curves forks any worker, which inherits it
    curves = simkit.estimate_curves(
        run.scenario, run.variants, workers=args.workers, uncompressed_twin=run.compare_uncompressed
    )
    write_csv(args.out, curves, run.config_text, run.scenario.seed)
    print(f"wrote {len(curves)} curve(s) x {len(run.scenario.snr_grid_db)} SNR points to {args.out}")
    return 0


def cmd_thresholds(args) -> int:
    try:
        alphas = _parse_float_list(args.alpha)
    except ValueError as exc:
        raise ConfigError(f"bad --alpha: {exc}")
    if args.dof < 1:
        raise ConfigError(f"--dof must be a positive integer, got {args.dof}")
    try:
        thresholds = [detect.solve_threshold(alpha, args.dof) for alpha in alphas]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rows = [("alpha", "dof", "threshold")] + [(f"{a:g}", str(args.dof), f"{t:.4f}") for a, t in zip(alphas, thresholds)]
    widths = [max(least, *map(len, column)) for least, column in zip((12, 5, 12), zip(*rows))]  # widest entry, at least
    for row in rows:
        print("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
    return 0


def _expect(ok: bool, message: str) -> None:
    if not ok:  # not an assert, which python -O strips
        raise AssertionError(message)


def _selfchecks():
    """The checks, each named by its function and raising AssertionError on failure."""

    def threshold_roundtrip():  # the upper tail keeps its relative accuracy far below 1e-16
        from scipy import special

        for dof in (2, 12, 120, 1200):
            for alpha in (1e-2, 1e-6, 1e-12):
                tail = special.gammaincc(dof / 2.0, detect.solve_threshold(alpha, dof) / 2.0)
                _expect(abs(tail - alpha) <= 1e-10 * alpha, f"tail(threshold({alpha},{dof}))={tail}")

    def threshold_table():
        expected = {1e-2: 26.217, 1e-3: 32.909, 1e-4: 39.134}
        for alpha, want in expected.items():
            got = detect.solve_threshold(alpha, 12)
            _expect(abs(got - want) < 5e-3, f"threshold({alpha})={got}, want {want}")

    def correlation_factor():  # the node correlation's closed-form factor; rho = 1 is singular
        for n in (10, 100):
            for rho in (0.0, 0.9, 1.0):
                r, factor = exp_correlation_matrix(n, rho), channel._correlation_factor(n, rho)
                err = np.abs(factor @ factor.T - r).max()
                _expect(err < 1e-10, f"round-trip error {err} at n={n}, rho={rho}")
                if rho != 0.9:  # exact: the identity, and a first column of ones with zeros elsewhere
                    want = np.eye(n) if rho == 0.0 else np.eye(1, n).repeat(n, axis=0)
                    _expect(np.array_equal(factor, want), f"inexact factor at n={n}, rho={rho}")

    def omp_single_atom():  # a one-hot report through both reconstructions
        phi = sparse.gaussian_phi(numerics.stream(7, 0), 32, 64)
        codec = sparse.CsCodec(phi, basis="identity", max_atoms=4, residual_tol=1e-10)
        x = np.zeros(64)
        x[17] = 1.0
        y = sparse.compress(x, codec)
        _expect(np.abs(sparse.reconstruct_raw(3.0 * y, codec) - 3.0 * x).max() < 1e-10, "single-atom recovery")
        _expect(np.array_equal(sparse.reconstruct_decisions(y, codec), x), "single-atom decision recovery")

    def dct_orthonormal():
        for n in (32, 600):
            psi = sparse.dct_basis(n)
            _expect(np.abs(psi @ psi.T - np.eye(n)).max() < 1e-12, f"dct orthonormality at n={n}")

    def fusion_identities():  # the vote-count cutoffs on every pattern: AND alarm => majority alarm => OR alarm
        for n in range(1, 13):
            u = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
            alarm_and, alarm_maj, alarm_or = (
                u[:, :voters].sum(1) > k
                for voters, k in (FusionRule(kind=kind).cutoff(n) for kind in ("and", "majority", "or"))
            )
            _expect(alarm_maj[alarm_and].all() and alarm_or[alarm_maj].all(), f"fusion dominance at n={n}")

    def rng_determinism():  # row i of a trial block is stream i's draw
        ids = [9, 0, 1 << 33, (1 << 64) - 1]
        for row, i in zip(numerics.standard_normal_rows(5, ids, 60), ids):
            _expect(row.tobytes() == numerics.stream(5, i).standard_normal(60).tobytes(), f"stream {i}")

    def block_rows_exact():  # a run's counts are independent of its block height only if these hold
        def rows_exact(name, block, rows):
            _expect(all(a.tobytes() == b.tobytes() for a, b in zip(block, rows)), f"{name} rows differ by block")

        def measured(cfg, seed, eve):  # each row of a 5-row block against its one-row call
            normals = numerics.standard_normal_rows(seed, range(len(eve)), 6 * cfg.n_nodes * cfg.n_taps)
            d = measure_block(normals, cfg, eve, sigma2)
            rows_exact("measure_block", d, [measure_block(normals[i : i + 1], cfg, eve[i : i + 1], sigma2[i : i + 1])[0]
                                            for i in range(len(eve))])
            return normals, d

        t, sigma2 = 5, np.logspace(-1, 1, 5)
        # one tap: a block's eve rows are its whole channel product, and a lone eve row's
        # is one row, which numpy would multiply on its gemv path, in other bits
        for eve in (np.arange(t) == 2, np.ones(t, dtype=bool)):
            measured(ChannelConfig(n_nodes=3, n_taps=1), 3, eve)
        for preset in ("fig2", "fig4", "fig5"):
            run = build_run(parse_config(*load_config_file(preset)))
            cfg = run.scenario.channel
            normals, d = measured(cfg, run.scenario.seed, np.arange(t) % 2 == 0)
            if not run.scenario.scheme.compressed:
                continue
            codec = simkit.scenario_codec(run.scenario)
            if run.scenario.scheme.local:  # the nodes' decisions at the preset's threshold
                stat = detect.quadratic_statistic(d.reshape(t, cfg.n_nodes, cfg.n_taps), 1.0 / sigma2[:, None, None])
                reports, recover = (stat > run.variants[0].threshold).astype(float), sparse.reconstruct_decisions
            else:  # the measurements themselves, alice's channels plus d
                h_ab = channel_block(normals[:, : 2 * cfg.n_nodes * cfg.n_taps], cfg)
                reports, recover = h_ab + d, sparse.reconstruct_raw
            y = sparse.compress(reports, codec)
            rows_exact("compress", y, [sparse.compress(row, codec) for row in reports])
            rows_exact(recover.__name__, recover(y, codec), [recover(row, codec) for row in y])

    return [threshold_roundtrip, threshold_table, correlation_factor, omp_single_atom, dct_orthonormal,
            fusion_identities, rng_determinism, block_rows_exact]


def cmd_selfcheck(args) -> int:
    checks, failures = _selfchecks(), 0
    for check in checks:
        name = check.__name__
        try:
            check()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        except Exception as exc:  # a crash is also a failed check
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cirauth",
        description="Distributed channel-fingerprint authentication simulator",
    )
    parser.add_argument("--version", action="version", version=f"cirauth {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario config and write a curve CSV")
    run.add_argument("--config", required=True,
                     help=f"config file path, or a bundled preset name {PRESET_NAMES}")
    run.add_argument("--out", required=True, help="output CSV path (written atomically)")
    run.add_argument("--seed", type=int, default=None, help="override scenario.seed, also over --set")
    run.add_argument("--workers", type=int, default=1, help="worker processes, at most one per CPU and per block")
    run.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a config key (repeatable)")
    run.set_defaults(func=cmd_run)

    thresholds = sub.add_parser("thresholds", help="solve chi-squared test thresholds")
    thresholds.add_argument("--alpha", required=True,
                            help="comma-separated false-alarm targets, e.g. 1e-4,1e-3,1e-2")
    thresholds.add_argument("--dof", type=int, required=True, help="degrees of freedom (2L or 2NL)")
    thresholds.set_defaults(func=cmd_thresholds)

    selfcheck = sub.add_parser("selfcheck", help="run the fast invariant suite")
    selfcheck.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 1
    except Exception as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
