"""``python -m mitlplan``: the command line of :mod:`mitlplan.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
