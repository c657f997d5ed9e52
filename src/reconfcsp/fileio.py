"""JSON, instance and atomic text file I/O shared by the library readers, writers and the CLI."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .core import InstanceError, ReconfInstance, deserialize, utf8_text


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write via a temp file in the target directory, then rename into place.

    The text is written as UTF-8 without newline translation, so a file has
    the same bytes on every platform, with the line feeds that the instance
    reader's fast path expects.  The file gets mode 0o666 less the umask, as
    `open` would give it, not the 0o600 of `mkstemp`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.umask(umask := os.umask(0o022))  # reading the umask means setting it
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str | Path, obj) -> None:
    write_text_atomic(path, json.dumps(obj, indent=2) + "\n")


def read_json(path: str | Path):
    """The parsed file; malformed JSON or non-UTF-8 bytes raise InstanceError naming the file."""
    try:
        return json.loads(utf8_text(Path(path).read_bytes()))
    except InstanceError as exc:
        raise InstanceError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InstanceError(f"{path}: malformed JSON ({exc})") from None


def read_instance(path: str | Path) -> ReconfInstance:
    """The instance in the file; every InstanceError it raises names the file."""
    data = Path(path).read_bytes()
    try:
        return deserialize(data)
    except InstanceError as exc:
        raise InstanceError(f"{path}: {exc}") from None
