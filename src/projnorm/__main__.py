"""``python -m projnorm``: the same command line as the ``projnorm`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
