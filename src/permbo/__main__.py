"""``python -m permbo``: the same commands as the ``permbo`` script."""

import sys

from .cli import main

# Guarded: worker processes started by spawn or forkserver import this
# module as ``__mp_main__``, and must not run the command again.
if __name__ == "__main__":
    sys.exit(main())
