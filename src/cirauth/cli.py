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
import hashlib
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import __version__, detect, numerics, simkit, sparse
from .channel import ChannelConfig
from .detect import DetectorConfig, FusionKind, FusionRule
from .numerics import Rng
from .simkit import CsCodecConfig, Scenario, Scheme, Variant

PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5")

# key -> (value kind, the scheme family it applies to: fusion-center, local or CS; None for all)
_SCHEMA = {
    "scenario.scheme": (str, None),
    "scenario.snr_db": ("floats", None),
    "scenario.trials": (int, None),
    "scenario.seed": (int, None),
    "channel.n_nodes": (int, None),
    "channel.n_taps": (int, None),
    "channel.rho": (float, None),
    "channel.pdp": ("floats", None),
    "channel.normalize_kronecker": ("bool", None),
    "detector.scale": (str, None),
    "detector.delta": ("floats", "fc"),
    "detector.target_pfa": ("floats", "fc"),
    "detector.delta_n": ("floats", "local"),
    "detector.target_pfa_n": ("floats", "local"),
    "detector.rules": ("strs", "local"),
    "detector.avg_threshold": (float, "local"),
    "cs.m": (int, "cs"),
    "cs.basis": (str, "cs"),
    "cs.max_atoms": (int, "cs"),
    "cs.residual_tol": (float, "cs"),
    "cs.compare_uncompressed": ("bool", "cs"),
}

_REQUIRED = ("scenario.scheme", "scenario.snr_db", "scenario.trials", "scenario.seed",
             "channel.n_nodes", "channel.n_taps", "channel.rho")

_RULE_NAMES = {kind.value: kind for kind in FusionKind}

# Dataclass field -> config key, for naming the key in validation errors.
_FIELD_KEYS = {key.partition(".")[2]: key for key in _SCHEMA} | {"snr_grid_db": "scenario.snr_db"}


class ConfigError(Exception):
    """Config problem, anchored to ``path:line`` when known."""

    def __init__(self, message: str, path: str = "", line: int = 0):
        prefix = f"{path}:{line}: " if path and line else (f"{path}: " if path else "")
        super().__init__(prefix + message)


def _parse_scalar(raw: str, kind, key: str, path: str, line: int):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is str:
            return raw
        if kind == "bool":
            if raw.lower() in ("true", "yes", "on", "1"):
                return True
            if raw.lower() in ("false", "no", "off", "0"):
                return False
            raise ValueError(f"expected a boolean, got {raw!r}")
        if kind == "floats":
            return _parse_float_list(raw)
        if kind == "strs":
            return tuple(part.strip().lower() for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}", path, line) from None
    raise AssertionError(f"unhandled schema kind {kind}")


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
    return tuple(float(part) for part in raw.split(",") if part.strip())


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
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}", path, lineno)
        if key in values:
            raise ConfigError(f"duplicate config key {key!r}", path, lineno)
        if not raw:
            raise ConfigError(f"empty value for {key!r}", path, lineno)
        values[key] = _parse_scalar(raw, _SCHEMA[key][0], key, path, lineno)
    return values


def apply_overrides(values: dict, pairs: list[str]) -> dict:
    out = dict(values)
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r} in --set")
        out[key] = _parse_scalar(raw, _SCHEMA[key][0], key, "--set", 1)
    return out


@dataclass
class ResolvedRun:
    """A scenario plus the labelled detector variants it will evaluate."""

    scenario: Scenario
    variants: list
    compare_uncompressed: bool
    config_text: str


def build_run(values: dict) -> ResolvedRun:
    for key in _REQUIRED:
        if key not in values:
            raise ConfigError(f"missing required config key {key!r}")
    try:
        scheme = Scheme(values["scenario.scheme"])
    except ValueError:
        raise ConfigError(
            f"scenario.scheme must be one of {[s.value for s in Scheme]}, "
            f"got {values['scenario.scheme']!r}"
        ) from None
    family = {None: True, "fc": not scheme.local, "local": scheme.local, "cs": scheme.compressed}
    unused = [key for key in values if not family[_SCHEMA[key][1]]]
    if unused:
        raise ConfigError(f"scheme {scheme.value} does not use {', '.join(unused)}")
    try:
        channel = ChannelConfig(
            n_nodes=values["channel.n_nodes"],
            n_taps=values["channel.n_taps"],
            rho=values["channel.rho"],
            pdp=values.get("channel.pdp"),
            normalize_kronecker=values.get("channel.normalize_kronecker", True),
        )
        if values.get("detector.scale", "chi2") != "chi2":
            raise ConfigError(f"detector.scale must be chi2, got {values['detector.scale']!r}")
        codec = None
        if scheme.compressed:
            if "cs.m" not in values:
                raise ConfigError(f"scheme {scheme.value} requires cs.m")
            codec = CsCodecConfig(
                m=values["cs.m"],
                basis=values.get("cs.basis", "dct"),
                max_atoms=values.get("cs.max_atoms"),
                residual_tol=values.get("cs.residual_tol", 1e-6),
            )
        variants = _build_variants(scheme, values)
        scenario = Scenario(
            scheme=scheme,
            channel=channel,
            detector=variants[0].detector,
            snr_grid_db=values["scenario.snr_db"],
            trials=values["scenario.trials"],
            seed=values["scenario.seed"],
            fusion=variants[0].rule,
            codec=codec,
        )
    except ConfigError:
        raise
    except ValueError as exc:  # messages open with the offending field
        field, _, rest = str(exc).partition(" ")
        raise ConfigError(f"{_FIELD_KEYS.get(field, field)} {rest}".rstrip()) from None
    return ResolvedRun(
        scenario=scenario,
        variants=variants,
        compare_uncompressed=bool(values.get("cs.compare_uncompressed", False)),
        config_text=canonical_config(values),
    )


def _build_variants(scheme: Scheme, values: dict) -> list[Variant]:
    """Expand the threshold list (times the fusion-rule list, for local schemes) into labelled variants."""
    sfx = "_n" if scheme.local else ""
    given = [field for field in (f"delta{sfx}", f"target_pfa{sfx}") if f"detector.{field}" in values]
    if len(given) != 1:
        raise ConfigError(f"scheme {scheme.value} needs exactly one of detector.delta{sfx} / detector.target_pfa{sfx}")
    field = given[0]
    if not values[f"detector.{field}"]:
        raise ConfigError(f"detector.{field} must list at least one value")
    rules = [None]
    if scheme.local:
        rules = []
        for name in values.get("detector.rules", ("majority",)):
            if name not in _RULE_NAMES:
                raise ConfigError(f"detector.rules: unknown fusion rule {name!r}")
            rules.append(FusionRule(kind=_RULE_NAMES[name], avg_threshold=values.get("detector.avg_threshold", 0.5)))
        if not rules:
            raise ConfigError("detector.rules must list at least one rule")
    tag = field.replace("target_", "")
    return [
        Variant(
            label=f"{tag}={value:g}" + (f" rule={rule.kind.value}" if rule else ""),
            detector=DetectorConfig(**{field: value}),
            rule=rule,
        )
        for value in values[f"detector.{field}"]
        for rule in rules
    ]


def canonical_config(values: dict) -> str:
    parts = []
    for key in sorted(values):
        v = values[key]
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        parts.append(f"{key}={v}")
    return ";".join(parts)


def load_config_file(spec: str) -> tuple[str, str]:
    """Return (text, display_path); bare preset names resolve to bundled files."""
    if spec in PRESET_NAMES and not os.path.exists(spec):
        ref = resources.files("cirauth").joinpath(f"presets/{spec}.cfg")
        return ref.read_text(encoding="utf-8"), f"<preset:{spec}>"
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            return fh.read(), spec
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")


def _format_float(x: float) -> str:
    return format(float(x), ".10g")


def write_csv(path: str, curves: list, config_text: str, seed: int) -> None:
    """Write curve rows atomically (temp file in the target dir + rename)."""
    digest = hashlib.sha256(config_text.encode()).hexdigest()[:16]
    lines = [
        f"# cirauth {__version__}",
        f"# config_digest: {digest}",
        f"# seed: {seed}",
        f"# config: {config_text}",
        "scheme,label,snr_db,p_d,p_d_stderr,p_fa,p_fa_stderr,trials",
    ]
    for curve in curves:
        if "," in curve.scheme or "," in curve.label:
            raise ValueError(f"curve identifiers must be comma-free, got {curve.label!r}")
        for i, snr in enumerate(curve.snr_db):
            lines.append(
                ",".join(
                    (
                        curve.scheme,
                        curve.label,
                        _format_float(snr),
                        _format_float(curve.p_d[i]),
                        _format_float(curve.p_d_stderr[i]),
                        _format_float(curve.p_fa[i]),
                        _format_float(curve.p_fa_stderr[i]),
                        str(curve.trials),
                    )
                )
            )
    payload = "\n".join(lines) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cirauth-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_run(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be a positive integer, got {args.workers}")
    text, display = load_config_file(args.config)
    values = parse_config(text, display)
    if args.seed is not None:
        values["scenario.seed"] = args.seed
    values = apply_overrides(values, args.set or [])
    run = build_run(values)
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
    for alpha in alphas:
        if not 0.0 < alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    print(f"{'alpha':>12}  {'dof':>5}  {'threshold':>12}")
    for alpha in alphas:
        print(f"{alpha:>12g}  {args.dof:>5d}  {detect.solve_threshold(alpha, args.dof):>12.4f}")
    return 0


def _selfchecks():
    """(name, callable) pairs; each raises AssertionError on failure."""

    def chi2_roundtrip():
        for dof in (2, 12, 120, 1200):
            for p in (0.1, 0.5, 0.9, 0.99, 0.999):
                x = numerics.chi2_quantile(p, dof)
                assert abs(numerics.chi2_cdf(x, dof) - p) < 1e-8, f"cdf(quantile({p},{dof}))"

    def threshold_table():
        expected = {1e-2: 26.217, 1e-3: 32.909, 1e-4: 39.134}
        for alpha, want in expected.items():
            got = detect.solve_threshold(alpha, 12)
            assert abs(got - want) < 5e-3, f"threshold({alpha})={got}, want {want}"

    def cholesky_roundtrip():
        rng = Rng(1234, 0)
        for k in range(5):
            b = numerics.sample_complex_gaussian(rng, 36, 1.0).reshape(6, 6)
            a = b @ b.conj().T
            L = numerics.cholesky(a)
            err = np.abs(L @ L.conj().T - a).max() / np.abs(a).max()
            assert err < 1e-10, f"round-trip error {err}"

    def omp_single_atom():
        rng = Rng(7, 0)
        codec = sparse.CsCodec(sparse.gaussian_phi(rng, 32, 64), basis="identity", max_atoms=4)
        x = np.zeros(64)
        x[17] = 3.0
        coeffs = sparse.omp(codec.phi @ x, codec.dictionary, max_atoms=4, residual_tol=1e-10)
        assert np.abs(coeffs - x).max() < 1e-10, "single-atom recovery"

    def dct_orthonormal():
        psi = sparse.dct_basis(32)
        assert np.abs(psi @ psi.T - np.eye(32)).max() < 1e-12

    def fusion_identities():
        for n in (3, 5):
            for bits in range(2**n):
                u = [(bits >> i) & 1 for i in range(n)]
                u_or = detect.fuse(u, FusionRule(kind=FusionKind.OR))
                u_maj = detect.fuse(u, FusionRule(kind=FusionKind.MAJORITY))
                u_and = detect.fuse(u, FusionRule(kind=FusionKind.AND))
                assert (not u_and or u_maj) and (not u_maj or u_or), "fusion dominance"

    def rng_determinism():
        a = numerics.sample_complex_gaussian(Rng(5, 9), 16, 1.0)
        b = numerics.sample_complex_gaussian(Rng(5, 9), 16, 1.0)
        assert np.array_equal(a, b), "rng reproducibility"

    return [
        ("chi2_roundtrip", chi2_roundtrip),
        ("threshold_table", threshold_table),
        ("cholesky_roundtrip", cholesky_roundtrip),
        ("omp_single_atom", omp_single_atom),
        ("dct_orthonormal", dct_orthonormal),
        ("fusion_identities", fusion_identities),
        ("rng_determinism", rng_determinism),
    ]


def cmd_selfcheck(args) -> int:
    failures = 0
    for name, check in _selfchecks():
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
    print(f"{len(_selfchecks()) - failures}/{len(_selfchecks())} checks passed")
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
    run.add_argument("--seed", type=int, default=None, help="override scenario.seed")
    run.add_argument("--workers", type=int, default=1, help="worker processes, at most one per CPU and per trial")
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
