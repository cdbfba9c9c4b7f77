"""``python -m coordarr``: the command line of ``coordarr.cli``."""

from .cli import main

if __name__ == "__main__":
    main()
