"""``python -m bench``: the benchmark runner (see :mod:`bench.run`)."""

import sys

from .run import main

if __name__ == "__main__":
    sys.exit(main())
