"""The one way an index or state file reaches disk: written beside the
target, ``fsync``ed, ``os.replace``d.

A session serves a saved RIDX2 file off ``mmap`` and may be told to save
over that very path: truncating a mapped file is ``SIGBUS`` for every
reader, and a crash halfway through an in-place write leaves neither
the old index nor the new.  Replacing the directory entry does neither:
readers keep the old inode, and the path names the old bytes or the
new, never a cut file.  On POSIX the directory is ``fsync``ed after the
replace, so the rename itself survives a power cut.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager, suppress


@contextmanager
def atomic_write(path: str, text: bool = False):
    """Yield a file (binary, or UTF-8 ``text``) that becomes ``path``
    when the block exits cleanly.  The temp file lives in the target's
    directory — a rename must not cross filesystems — and is removed if
    the block, the ``fsync`` or the replace raises, ``path`` untouched.
    After the replace the directory is ``fsync``ed (POSIX).
    """
    temp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    fh = open(temp, "w", encoding="utf-8") if text else open(temp, "wb")
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(temp)
        raise
    if os.name == "posix":
        directory = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
