"""`python -m lrcirc` runs the `lrc` command line."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
