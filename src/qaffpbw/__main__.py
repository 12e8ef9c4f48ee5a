"""Run the command-line interface: ``python -m qaffpbw <subcommand> ...``."""

from .cli import main

if __name__ == "__main__":
    main()
