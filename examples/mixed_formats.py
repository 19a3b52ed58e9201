"""Mixed-format desktop search: HTML, Markdown, CSV and DocZ documents.

The paper indexed plain text and named "more file formats" as future
work; this example runs that extension end to end.  A corpus containing
five document formats is generated, indexed with format-aware
extraction, and searched with the extended query features: wildcards
and BM25 ranking.

Run:  python examples/mixed_formats.py
"""

from repro import QueryEngine, ThreadConfig
from repro.corpus import PAPER_PROFILE
from repro.engine import Implementation, IndexGenerator
from repro.extract import AsciiExtractor
from repro.formats import default_registry
from repro.formats.mixed import generate_mixed_corpus
from repro.query import BM25Ranker, FrequencyIndex, search_bm25


def main() -> None:
    # 1. A 0.4%-scale corpus: ~200 files across five formats.
    mixed = generate_mixed_corpus(PAPER_PROFILE.scaled(0.004))
    breakdown = ", ".join(
        f"{count} {name}" for name, count in sorted(mixed.format_counts.items())
    )
    print(f"corpus: {breakdown}")

    # 2. Index with format-aware extraction: HTML tags, Markdown markup
    #    and the DocZ binary container are stripped before tokenizing.
    extractor = AsciiExtractor(registry=default_registry())
    report = IndexGenerator(mixed.fs, extractor=extractor).build(
        Implementation.REPLICATED_UNJOINED, ThreadConfig(3, 2, 0)
    )
    print(report.summary())

    # Proof the registry mattered: markup never reaches the index.
    for markup_term in ("doctype", "href", "docz"):
        assert markup_term not in report.index, markup_term
    print("no markup terms leaked into the index")

    # 3. Wildcard search: a prefix expands against the term dictionary.
    universe = [ref.path for ref in mixed.fs.list_files()]
    engine = QueryEngine(report.index, universe=universe)
    sample = sorted(
        term for term in report.index.terms() if len(term) > 6
    )[0]
    prefix = sample[:4]
    hits = engine.search(f"{prefix}*")
    print(f"wildcard {prefix!r}*: {len(hits)} file(s) across formats, e.g. "
          + ", ".join(sorted({h.rsplit('.', 1)[-1] for h in hits[:20]})))

    # 4. Ranked search: BM25 top-3 over the boolean matches.
    frequencies = FrequencyIndex.from_fs(mixed.fs, extractor=extractor)
    ranked = search_bm25(engine, BM25Ranker(frequencies), f"{prefix}*", topk=3)
    print("top ranked hits:")
    for hit in ranked:
        print(f"  {hit.score:7.3f}  {hit.path}")


if __name__ == "__main__":
    main()
