"""``python -m qcbound``: runs ``qcbound.cli.main``, the ``qcbound`` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
