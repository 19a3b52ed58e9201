"""Incremental index maintenance: tracking a changing document folder.

A deployed desktop search cannot re-index 51,000 files every time one
document changes.  This example simulates a user working on their
files — creating, editing, deleting — with a
:class:`~repro.api.Search` session keeping the index current through
``refresh()``, and verifies after every step that the incrementally
maintained index is identical to a from-scratch rebuild.

Run:  python examples/incremental_index.py
"""

from repro import Search
from repro.corpus import CorpusGenerator, TINY_PROFILE
from repro.engine import SequentialIndexer


def verify_against_rebuild(session, fs) -> None:
    rebuilt = SequentialIndexer(fs, naive=False).build()
    assert session.index == rebuilt.index, "incremental != rebuild"


def main() -> None:
    corpus = CorpusGenerator(TINY_PROFILE).generate()
    fs = corpus.fs
    session = Search.build(fs)

    print(f"initial build: {len(session)} documents, "
          f"{len(session.index)} terms")
    verify_against_rebuild(session, fs)

    # The user saves a new document...
    fs.write_file("notes.txt", b"meeting notes about the quarterly report")
    report = session.refresh()
    print(f"created notes.txt -> refresh touched {report.total} document(s)")
    assert session.query("quarterly").paths == ["notes.txt"]
    verify_against_rebuild(session, fs)

    # ... edits it ...
    fs.replace_file("notes.txt", b"meeting notes about the annual budget")
    report = session.refresh()
    print(f"edited notes.txt  -> refresh touched {report.total} document(s)")
    assert session.query("quarterly").paths == []
    assert session.query("budget").paths == ["notes.txt"]
    verify_against_rebuild(session, fs)

    # ... and deletes an old one.
    victim = sorted(ref.path for ref in fs.list_files())[0]
    fs.remove_file(victim)
    report = session.refresh()
    print(f"deleted {victim} -> refresh touched {report.total} document(s)")
    verify_against_rebuild(session, fs)

    # A refresh with no changes reads no file and changes nothing.
    report = session.refresh()
    print(f"idle refresh      -> touched {report.total} document(s)")

    # Each refresh sealed a small segment; fold them back into one.
    segments = session.manifest.segment_count
    session.compact()
    print(f"compacted {segments} segments -> "
          f"{session.manifest.segment_count}")
    verify_against_rebuild(session, fs)
    print("incremental index matched a full rebuild after every step")


if __name__ == "__main__":
    main()
