"""Run the command-line interface as ``python -m quorum``."""

from .cli import run

if __name__ == "__main__":
    run()
