"""``python -m quotbox``: the command line front end of ``quotbox.cli``."""

from .cli import main

if __name__ == "__main__":
    main()
