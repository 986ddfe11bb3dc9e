"""Exception types shared across the package; `open_text`, the one way
input text files (CSV, embeddings, labels) are opened; and `read_header`,
which reads the header line of the two binary files, the graph dump and
the walk corpus.

Two broad families matter for the CLI exit-code mapping: bad input or
configuration (exit 2) and state/mode mismatches between artifacts
(exit 3). Anything else is an internal error (exit 1).
"""

import os
from contextlib import contextmanager

_HEADER_MAX = 256  # bytes in a binary file's header line, newline included


class WalkforgeError(Exception):
    """Base class for all package errors."""


class InputError(WalkforgeError):
    """Bad input data or configuration (CLI exit code 2)."""


class ParseError(InputError):
    """Malformed record in an input file; message carries the location."""


class ConfigError(InputError):
    """Invalid parameter combination."""


class StateMismatchError(WalkforgeError):
    """Artifacts that do not belong together (CLI exit code 3)."""


class VersionMismatchError(StateMismatchError):
    """Corpus/graph/delta versions out of sync."""


class ModeMismatchError(StateMismatchError):
    """Walk mode of a corpus does not match the requested operation."""


class AppendOrderError(StateMismatchError):
    """Batch timestamps predate data already in the graph."""


class UnknownNodeError(WalkforgeError, KeyError):
    """Node id not present in the graph."""


@contextmanager
def open_text(path, newline=None):
    """`path` opened for reading as UTF-8; undecodable bytes met while it
    is read raise a ParseError that names their line."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


def _not_utf8(path) -> ParseError:
    """The error naming the first line of `path` that is not valid UTF-8,
    found by re-reading the file in binary (a newline byte never falls
    inside a UTF-8 sequence, so lines decode on their own)."""
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                break
    return ParseError(f"{path}:{line_no}: not valid UTF-8")


def read_header(fh, path, magic: str, fields: dict) -> tuple:
    """The header line of the binary file open in `fh`: `magic`, then one
    `key=value` word per entry of `fields`, a dict of key -> converter.
    Returns the converted values in `fields` order and the number of bytes
    after the line; a bad line raises ParseError naming `path:1`."""
    head = fh.readline(_HEADER_MAX)
    try:
        parts = head.decode("utf-8").split()
    except UnicodeDecodeError:
        raise ParseError(f"{path}:1: not valid UTF-8") from None
    if parts[:2] != magic.split() or len(parts) != 2 + len(fields) or head[-1:] != b"\n":
        raise ParseError(f"{path}:1: not a {magic} file")
    try:
        kv = dict(p.split("=", 1) for p in parts[2:])
        values = [convert(kv[key]) for key, convert in fields.items()]
    except (KeyError, ValueError):
        raise ParseError(f"{path}:1: malformed header {head!r}") from None
    return values, os.fstat(fh.fileno()).st_size - len(head)
