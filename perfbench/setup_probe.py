"""Set-up probe, run in a fresh interpreter with PYTHONPATH=src.

Runs ``simulate`` exactly as a user would, up to the moment the scenario
starts: interpreter start-up, ``import spinloop.cli``, argument parsing and
``parse_config``.  It then prints ``time.monotonic()`` and exits without
running the scenario; the parent subtracts the monotonic time at which it
started this process.

    PYTHONPATH=src python3 perfbench/setup_probe.py <simulate arguments...>
"""

import sys
import time

import spinloop.cli as cli


def _stop(cfg, config_path=None):
    print(time.monotonic(), flush=True)
    raise SystemExit(0)


if __name__ == "__main__":
    cli.run_scenario = _stop
    sys.exit(cli.simulate_main(sys.argv[1:]) or 3)
