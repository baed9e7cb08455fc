"""`python -m octaq`: the octaq command line (see octaq.cli)."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
