"""Exception types shared across the package, and `open_text`, the one
way input text files (CSV, graph dump, embeddings, labels) are opened. A
walk corpus is binary after its header line, which `load_corpus` decodes
itself.

Two broad families matter for the CLI exit-code mapping: bad input or
configuration (exit 2) and state/mode mismatches between artifacts
(exit 3). Anything else is an internal error (exit 1).
"""

from contextlib import contextmanager


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
