"""One benchmark process: import diracwg from ``src/``, then run one job.

    python3 perfbench/runner.py --timing T.json [--trace S.json] cli <diracwg args>
    python3 perfbench/runner.py --timing T.json [--trace S.json] interface --config C --out D
    python3 perfbench/runner.py --timing T.json ready --config C

``cli`` calls ``diracwg.cli.main`` with the given arguments, exactly as the
``diracwg`` console script does.  ``interface`` runs ``diracwg interface``
the same way, with the two sizes that have no config key made smaller: the
energy scan of ``interface.find_interface_eigenvalue`` and the grid of
``interface.reconstruct_interface_mode`` (see README.md).  ``ready`` stops
once the package is imported and the config parsed: a set-up probe.

The timing file records ``ready`` (imports done, config parsed) and ``end``
on ``time.perf_counter()``, which on Linux is CLOCK_MONOTONIC and so
comparable with the parent's clock.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"

# diracwg interface defaults: 41 energy-scan points, and a field grid of 12
# columns per unit length by 9 rows
INTERFACE_SIZES = {
    "find_interface_eigenvalue": {"n_scan": 3},
    "reconstruct_interface_mode": {"nx_per_unit": 6, "ny": 5},
}


def _option(argv: list[str], flag: str) -> str | None:
    if flag in argv:
        i = argv.index(flag)
        value = argv[i + 1]
        del argv[i:i + 2]
        return value
    return None


def shrink_interface(interface_mod) -> None:
    """Bind smaller defaults into the interface functions the CLI calls."""
    for name, kwargs in INTERFACE_SIZES.items():
        setattr(interface_mod, name, functools.partial(getattr(interface_mod, name), **kwargs))


def main(argv: list[str]) -> int:
    timing_path = _option(argv, "--timing")
    trace_path = _option(argv, "--trace")
    mode, args = argv[0], argv[1:]

    sys.path.insert(0, str(SRC))
    import diracwg
    from diracwg import cli

    if Path(diracwg.__file__).resolve().parent != (SRC / "diracwg").resolve():
        print(f"diracwg imported from {diracwg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if trace_path:
        from spans import Tracer  # perfbench/spans.py, next to this script

        tracer = Tracer()
        tracer.install()
    config = _option(list(args), "--config")
    cli.parse_config(Path(config) if config else None, None, 1)
    ready = time.perf_counter()

    if mode == "ready":
        code = 0
    elif mode == "cli":
        code = cli.main(args)
    elif mode == "interface":
        shrink_interface(cli.interface_mod)
        code = cli.main(["interface", *args])
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        code = 2
    end = time.perf_counter()
    if tracer is not None:
        tracer.dump(trace_path)
    Path(timing_path).write_text(json.dumps({"ready": ready, "end": end, "exit": code}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
