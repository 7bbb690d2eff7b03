"""`python -m objentropy` runs the command-line interface."""

from .cli import cli_entry

cli_entry()
