"""Crash-safe artifact writes.

Every file the library writes for later reading -- traces, metrics,
profiles, fault plans, checkpoint archives, trace logs, reports -- goes
through :func:`atomic_write`: the data lands in a temporary sibling,
which :func:`os.replace` then renames over the target.  A writer that
dies midway leaves the previous file (or none) at the target, never a
torn one.

The guarantee covers the writing *process* dying (an exception, a
signal, a killed job), not the machine losing power: the temporary file
is not fsynced before the rename, so after a power loss the target may
hold the old data, the new data, or an empty file, as the file system
allows.
"""

from __future__ import annotations

import os
import stat
from pathlib import Path
from typing import Iterable, Union

Chunk = Union[str, bytes]


def atomic_write(path: Union[str, Path],
                 data: Union[Chunk, Iterable[Chunk]]) -> Path:
    """Replace ``path`` with ``data`` in one rename; returns the path.

    ``data`` is a ``str``, ``bytes``, or an iterable of either, whose
    chunks are written as they come (a large artifact is never joined
    in memory); ``str`` is written as UTF-8.  The temporary file lives
    in the target's directory (a rename across file systems is not
    atomic) and is removed if anything fails before the rename.

    Like writing the file in place, a symlinked target is written
    through (the link stays, the file it names is replaced) and an
    existing target keeps its permission bits; a new file gets the
    umask default."""
    path = Path(path)
    target = Path(os.path.realpath(path))
    tmp = target.with_name(
        f".{target.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        if isinstance(data, (str, bytes)):
            tmp.write_bytes(data.encode() if isinstance(data, str) else data)
        else:
            with tmp.open("wb") as fh:
                for chunk in data:
                    fh.write(chunk.encode() if isinstance(chunk, str)
                             else chunk)
        try:
            mode = stat.S_IMODE(os.stat(target).st_mode)
        except FileNotFoundError:
            pass
        else:
            os.chmod(tmp, mode)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
