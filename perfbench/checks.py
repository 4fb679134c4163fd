"""Output checks for the curve CSVs that ``cirauth run`` writes.

Every curve with a closed-form false-alarm rate is compared against a
reference computed here from ``scipy.stats``, never from cirauth's own
``numerics``/``detect``, so a wrong threshold or statistic inside cirauth
fails the check:

* fusion-center curves (``fc_raw``, and the ``no_cs`` twins of
  ``fc_raw_cs``): ``chi2.sf(delta, 2NL)``;
* local-fusion curves (``local_fusion``, and the ``no_cs`` twins of
  ``local_fusion_cs``): the iid fused rate at
  ``alpha_n = chi2.sf(delta_n, 2L)``.

Under H0 the statistic does not depend on SNR, so a curve's false alarms
are pooled over its SNR grid before the test.  A count fails when it lies
outside the band a 5-binomial-sigma bound gives (two-sided tail mass
5.7e-7), with the tail computed exactly from ``scipy.stats.binom`` so the
bound stays honest at the small counts a short benchmark run produces.

Compressed-sensing curves have no closed form; they are checked to be
present and paired with their ``no_cs`` twins.
"""

from __future__ import annotations

import csv
import io
import math
import re

from scipy import stats

HEADER = "scheme,label,snr_db,p_d,p_d_stderr,p_fa,p_fa_stderr,trials"
TAIL = stats.norm.sf(5.0)  # one side of the 5-sigma band
PLAIN_SCHEME = {"fc_raw_cs": "fc_raw", "local_fusion_cs": "local_fusion"}
_LABEL = re.compile(r"^(delta|delta_n)=(\S+)(?: rule=(\w+))?( no_cs)?$")


def read_preset(path) -> dict[str, str]:
    """Raw ``key = value`` strings of a preset file (comments dropped)."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                key, _, raw = line.partition("=")
                values[key.strip()] = raw.strip()
    return values


def float_list(raw: str) -> list[float]:
    """A comma list, or an inclusive ``start:step:stop`` range."""
    if raw.count(":") == 2:
        start, step, stop = (float(p) for p in raw.split(":"))
        count = int(round((stop - start) / step)) + 1
        return [start + i * step for i in range(count)]
    return [float(p) for p in raw.split(",") if p.strip()]


def fused_pfa(rule: str, alpha_n: float, n: int, avg_threshold: float) -> float:
    """False-alarm rate of a fusion rule over ``n`` iid node alarms."""
    if rule == "single":
        return alpha_n
    if rule == "or":
        return -math.expm1(n * math.log1p(-alpha_n))
    if rule == "and":
        return alpha_n**n
    if rule == "majority":
        return float(stats.binom.sf(n // 2, n, alpha_n))
    if rule == "weighted_average":  # uniform weights: mean vote > threshold
        return float(stats.binom.sf(math.floor(avg_threshold * n), n, alpha_n))
    raise ValueError(f"no closed form for rule {rule!r}")


def outside_band(count: int, n: int, p: float) -> bool:
    """True when ``count`` of ``n`` Bernoulli(p) draws is a 5-sigma outlier."""
    return stats.binom.cdf(count, n, p) < TAIL or stats.binom.sf(count - 1, n, p) < TAIL


def expected_curves(preset: dict[str, str]) -> set[tuple[str, str]]:
    """(scheme, label) of every curve the preset should produce."""
    scheme = preset["scenario.scheme"]
    if "detector.delta_n" in preset:
        rules = preset.get("detector.rules", "majority").split(",")
        labels = {
            f"delta_n={v:g} rule={r.strip()}"
            for v in float_list(preset["detector.delta_n"])
            for r in rules
        }
    else:
        labels = {f"delta={v:g}" for v in float_list(preset["detector.delta"])}
    curves = {(scheme, label) for label in labels}
    if preset.get("cs.compare_uncompressed", "false").lower() == "true":
        curves |= {(PLAIN_SCHEME[scheme], f"{label} no_cs") for label in labels}
    return curves


def check_csv(text: str, preset: dict[str, str], seed: int, trials: int, snr_db=None) -> list[str]:
    """Problems found in one CSV; an empty list means it passed."""
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("#")]
    body = lines[len(header):]
    problems = []
    if f"# seed: {seed}" not in header:
        problems.append(f"header lacks '# seed: {seed}'")
    if not body or body[0] != HEADER:
        return problems + ["missing or wrong column header"]
    grid = float_list(preset["scenario.snr_db"]) if snr_db is None else snr_db
    curves: dict[tuple[str, str], list[list[str]]] = {}
    for row in csv.reader(io.StringIO("\n".join(body[1:]))):
        if len(row) != 8:
            return problems + [f"row has {len(row)} fields: {row}"]
        curves.setdefault((row[0], row[1]), []).append(row)

    want = expected_curves(preset)
    if set(curves) != want:
        problems.append(
            f"curves differ from the preset: missing {sorted(want - set(curves))}, "
            f"extra {sorted(set(curves) - want)}"
        )
    n_nodes, n_taps = int(preset["channel.n_nodes"]), int(preset["channel.n_taps"])
    avg_threshold = float(preset.get("detector.avg_threshold", "0.5"))
    for (scheme, label), rows in curves.items():
        where = f"{scheme}/{label}"
        try:
            snr = [float(r[2]) for r in rows]
            p_d, p_d_se = [float(r[3]) for r in rows], [float(r[4]) for r in rows]
            p_fa, p_fa_se = [float(r[5]) for r in rows], [float(r[6]) for r in rows]
            counts = [int(r[7]) for r in rows]
        except ValueError as exc:
            problems.append(f"{where}: unparsable value ({exc})")
            continue
        if len(snr) != len(grid) or any(abs(a - b) > 1e-9 for a, b in zip(snr, grid)):
            problems.append(f"{where}: SNR grid {snr} differs from {grid}")
        if any(c != trials for c in counts):
            problems.append(f"{where}: trials column is not {trials}")
        for p, se in zip(p_d + p_fa, p_d_se + p_fa_se):
            if not 0.0 <= p <= 1.0 or abs(se - math.sqrt(p * (1 - p) / trials)) > 1e-9:
                problems.append(f"{where}: probability {p} or its stderr {se} is inconsistent")
                break
        match = _LABEL.match(label)
        if scheme in PLAIN_SCHEME or match is None:
            continue  # compressed curves have no closed form; pairing is checked above
        threshold, rule = float(match.group(2)), match.group(3)
        if rule is None:
            reference = float(stats.chi2.sf(threshold, 2 * n_nodes * n_taps))
        else:
            alpha_n = float(stats.chi2.sf(threshold, 2 * n_taps))
            try:
                reference = fused_pfa(rule, alpha_n, n_nodes, avg_threshold)
            except ValueError as exc:
                problems.append(f"{where}: {exc}")
                continue
        false_alarms = sum(round(p * trials) for p in p_fa)
        pooled = trials * len(p_fa)
        if outside_band(false_alarms, pooled, reference):
            problems.append(
                f"{where}: {false_alarms}/{pooled} false alarms, closed form {reference:.4g}"
            )
    return problems
