"""`python -m d4vgit`: the same command line as the `d4vgit` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
