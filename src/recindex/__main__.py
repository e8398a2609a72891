"""``python -m recindex``: the same command line as the ``recindex`` script."""

from .cli import run

if __name__ == "__main__":
    run()
