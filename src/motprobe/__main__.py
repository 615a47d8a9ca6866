"""Entry point for ``python -m motprobe``: the motprobe command line."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
