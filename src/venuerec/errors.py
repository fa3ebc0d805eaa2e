"""Exception types shared across the package, and the two readers that
turn a file's bad bytes or bad JSON into a FormatError naming its line."""

import json
import re


class VenuerecError(Exception):
    """Base class for everything raised deliberately by this package."""


class FormatError(VenuerecError):
    """A data file violates its declared format.

    Carries the offending path and 1-based line (or byte offset for
    binary files) when known, and prefixes them onto the message.
    """

    def __init__(self, message, path=None, line=None, offset=None):
        self.path = path
        self.line = line
        self.offset = offset
        parts = []
        if path is not None:
            parts.append(str(path))
        if line is not None:
            parts.append("line %d" % line)
        if offset is not None:
            parts.append("offset %d" % offset)
        if parts:
            message = "%s: %s" % (": ".join(parts), message)
        super().__init__(message)


class ConfigError(VenuerecError):
    """Bad key, value, or flag in a run configuration."""


# what the surrogateescape handler turns undecodable bytes into
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def numbered_lines(path):
    """``(lineno, line)`` pairs of a UTF-8 text file, 1-based.

    Bytes that are not UTF-8 raise a FormatError naming the line they
    are on, instead of a UnicodeDecodeError from somewhere in the file.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if _UNDECODABLE.search(line):
                raise FormatError("not valid UTF-8", path=path, line=lineno)
            yield lineno, line


def decode_json(text, path, line=None):
    """The JSON value in `text` from `path` (a JSONL record: at `line`).

    Bad JSON, nesting past the recursion limit and an integer past the
    digit limit raise a FormatError naming the path and line."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        # a record's own position is always line 1, so a record shows
        # only its column
        reason = ("%s: column %d" % (exc.msg, exc.colno) if line
                  else str(exc))
    except RecursionError:
        reason = "nested too deeply"
    except ValueError as exc:
        reason = str(exc)
    raise FormatError(("bad JSON (%s)" if line else "not valid JSON: %s")
                      % reason, path=path, line=line)
