"""``python -m simcurv``: the command-line interface of ``simcurv.cli``."""

import sys

from simcurv.cli import main

if __name__ == "__main__":
    sys.exit(main())
