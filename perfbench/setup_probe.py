"""Time cirauth's set-up in this fresh process and print it in seconds.

Set-up runs from ``import cirauth`` through ``load_config_file``,
``parse_config``, ``apply_overrides``, ``build_run`` and, for the CS
presets, ``simkit.scenario_codec``: everything before the first trial.

    python3 perfbench/setup_probe.py <source root> <preset> <seed> <trials>
"""

import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    root, preset, seed, trials = Path(argv[0]), argv[1], int(argv[2]), int(argv[3])
    sys.path.insert(0, str(root / "src"))
    start = time.perf_counter()
    import cirauth
    from cirauth import cli, simkit

    text, display = cli.load_config_file(preset)
    values = cli.parse_config(text, display)
    values["scenario.seed"] = seed
    values = cli.apply_overrides(values, [f"scenario.trials={trials}"])
    run = cli.build_run(values)
    if run.scenario.codec is not None:
        simkit.scenario_codec(run.scenario)
    elapsed = time.perf_counter() - start
    if not Path(cirauth.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"imported cirauth from {cirauth.__file__}, not {root / 'src'}", file=sys.stderr)
        return 2
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
