"""squarm benchmark entry point.

    python3 bench/run_bench.py --workload paper_ring --seed 1 --seconds 30 --trace 0

squarm is imported from the src/ directory of the checkout this file sits
in; an installed copy elsewhere is refused, so a checkout without src/
exits with an error instead of measuring some other code. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See bench/README.md.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_squarm() -> None:
    sys.path.insert(0, str(SRC))
    try:
        import squarm
    except ImportError as exc:
        sys.exit(f"error: cannot import squarm from {SRC}: {exc}")
    if not Path(squarm.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: squarm was imported from {squarm.__file__}, not from {SRC}")


if __name__ == "__main__":
    _import_squarm()
    from harness import main

    sys.exit(main())
