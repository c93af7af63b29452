"""The one persistence primitive behind every on-disk store.

The run registry, the serve job journal, the static cache and the
explanation store all keep one JSON file per entry in a directory.
They share three rules, implemented here once:

* a write goes to a temp file beside its target and is renamed over it
  (``os.replace``), so a reader sees the old bytes or the new ones,
  never a torn file; temp names start with ``.`` so listings skip them;
* a listing parses every ``*.json`` entry in name order and *skips*
  an unreadable one — truncated write, foreign schema, plain
  corruption — with a ``RuntimeWarning``, reporting it to the caller
  instead of aborting;
* an id is resolved exactly first, then as a unique prefix.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import warnings
from typing import Callable, Collection, Dict, List, Tuple, TypeVar

T = TypeVar("T")


def atomic_write(path: pathlib.Path, text: str) -> None:
    """Replace ``path`` with ``text`` atomically, creating its directory
    on demand; an ``OSError`` leaves no temp file behind and propagates."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-",
                               suffix=path.suffix)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_entries(directory: pathlib.Path, parse: Callable[[Dict], T],
                 what: str) -> Tuple[List[T], List[Tuple[str, str]]]:
    """``parse`` applied to the JSON object of every entry in
    ``directory``.

    Returns the parsed items (in file-name order) and the
    ``(file name, reason)`` of every entry skipped as unreadable; each
    skip also warns ``skipping unreadable <what> <file>: <reason>``.
    """
    items: List[T] = []
    skipped: List[Tuple[str, str]] = []
    if not directory.is_dir():
        return items, skipped
    for path in sorted(directory.glob("*.json")):
        if path.name.startswith("."):
            continue  # in-flight temp files
        try:
            items.append(parse(json.loads(path.read_text(encoding="utf-8"))))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            reason = str(exc)
            skipped.append((path.name, reason))
            warnings.warn(f"skipping unreadable {what} {path.name}: {reason}",
                          RuntimeWarning, stacklevel=3)
    return items, skipped


def resolve_prefix(ids: Collection[str], ref: str, what: str,
                   directory: pathlib.Path) -> str:
    """The one id in ``ids`` equal to ``ref``, else the one it prefixes.

    Raises ``KeyError`` naming the candidates when the prefix is
    ambiguous, and naming ``what`` and ``directory`` when nothing
    matches.
    """
    if ref in ids:
        return ref
    matches = [i for i in ids if i.startswith(ref)]
    if len(matches) == 1:
        return matches[0]
    if matches:
        raise KeyError(f"{what} prefix {ref!r} is ambiguous: "
                       f"{', '.join(matches)}")
    raise KeyError(f"no {what} {ref!r} under {directory}")
