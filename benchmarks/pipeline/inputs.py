"""Seeded inputs and the independent oracle (parent side, all of ``setup_s``).

From ``--seed`` this module makes the corpus on disk, the query streams,
the churn deltas and — with its own tokenizer, set algebra and BM25, no
product index or evaluator — the answers the product must give.  The
product child receives only files, query strings and the mutation list.

Costs must not depend on the seed (the driver compares runs made with
different seeds), so nothing is drawn from a skewed distribution
directly: query terms are drawn by document-frequency *rank* stratum,
and a delta's files are a systematic sample over the size-sorted file
list, which pins the bytes a refresh re-reads to within a few percent.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.corpus import CorpusGenerator
from repro.corpus.vocabulary import Vocabulary
from repro.corpus.writer import materialize

from benchmarks.pipeline.common import answer_digest, index_digest
from benchmarks.pipeline.workloads import (
    DELTA_ADDED,
    DELTA_MODIFIED,
    DELTA_REMOVED,
    Workload,
)

# The oracle's own tokenizer: a term is a maximal run of ASCII letters and
# digits, lower-cased, at least 2 and at most 64 characters (longer runs
# truncate).  Written from the format description, not from repro.text.
_TABLE = bytearray(b" " * 256)
for _byte in b"abcdefghijklmnopqrstuvwxyz0123456789":
    _TABLE[_byte] = _byte
for _byte in b"ABCDEFGHIJKLMNOPQRSTUVWXYZ":
    _TABLE[_byte] = _byte + 32
_TABLE = bytes(_TABLE)
BM25_K1, BM25_B = 1.2, 0.75
TOPK = 10
#: One vocabulary for every seed: the seed picks the documents, not the
#: language.  Word lengths by frequency rank then never change, which
#: holds bytes per posting (and the size metric) within 0.3 % across seeds.
VOCABULARY_SEED = 42

#: Query shapes and their share of the boolean stream.
BOOLEAN_MIX = (
    ("term", 0.30),
    ("and", 0.25),
    ("or", 0.15),
    ("andnot", 0.15),
    ("prefix", 0.15),
)
RANKED_MIX = (("term", 0.4), ("or", 0.4), ("and", 0.2))


def tokenize(content: bytes) -> List[str]:
    return [
        word[:64].decode("ascii")
        for word in content.translate(_TABLE).split()
        if len(word) >= 2
    ]


@dataclass(frozen=True)
class Query:
    kind: str  # term | and | or | andnot | prefix
    a: str
    b: str = ""
    ranked: bool = False

    @property
    def text(self) -> str:
        if self.kind == "term":
            return self.a
        if self.kind == "prefix":
            return f"{self.a}*"
        op = {"and": "AND", "or": "OR", "andnot": "AND NOT"}[self.kind]
        return f"{self.a} {op} {self.b}"

    @property
    def wire(self) -> Tuple[str, str]:
        """What the product child receives: text and rank mode."""
        return (self.text, "bm25" if self.ranked else "bool")


class Oracle:
    """Reference index: path -> term counts, term -> paths."""

    def __init__(self) -> None:
        self.counts: Dict[str, Counter] = {}
        self.lengths: Dict[str, int] = {}
        self.postings: Dict[str, Set[str]] = {}
        self._sorted_terms: Optional[List[str]] = None

    def add(self, path: str, content: bytes) -> None:
        terms = tokenize(content)
        counts = Counter(terms)
        self.counts[path] = counts
        self.lengths[path] = len(terms)
        postings = self.postings
        for term in counts:
            bucket = postings.get(term)
            if bucket is None:
                postings[term] = {path}
            else:
                bucket.add(path)
        self._sorted_terms = None

    def remove(self, path: str) -> None:
        for term in self.counts.pop(path):
            bucket = self.postings[term]
            bucket.discard(path)
            if not bucket:
                del self.postings[term]
        del self.lengths[path]
        self._sorted_terms = None

    def digest(self) -> str:
        return index_digest(self.postings.items())

    def shape(self) -> Dict[str, int]:
        """(documents, terms, postings): the cheap per-state check."""
        return {
            "docs": len(self.counts),
            "terms": len(self.postings),
            "postings": sum(len(c) for c in self.counts.values()),
        }

    def _expand(self, prefix: str) -> List[str]:
        if self._sorted_terms is None:
            self._sorted_terms = sorted(self.postings)
        terms = self._sorted_terms
        low = bisect.bisect_left(terms, prefix)
        high = bisect.bisect_left(terms, prefix + "\U0010ffff")
        return terms[low:high]

    def _scored_terms(self, query: Query) -> List[str]:
        if query.kind == "prefix":
            return self._expand(query.a)
        return sorted({query.a, query.b} - {""})

    def match(self, query: Query) -> Set[str]:
        get = self.postings.get
        none: Set[str] = set()
        if query.kind == "term":
            return get(query.a, none)
        if query.kind == "prefix":
            matched: Set[str] = set()
            for term in self._expand(query.a):
                matched |= self.postings[term]
            return matched
        left, right = get(query.a, none), get(query.b, none)
        if query.kind == "and":
            return left & right
        if query.kind == "or":
            return left | right
        return left - right

    def answer(self, query: Query) -> str:
        """Digest of the expected answer (sorted paths, or BM25 top-K)."""
        matched = self.match(query)
        if not query.ranked:
            return answer_digest(sorted(matched))
        n = len(self.counts)
        avgdl = sum(self.lengths.values()) / n if n else 0.0
        terms = self._scored_terms(query)
        idf = {}
        for term in terms:
            df = len(self.postings.get(term, ()))
            idf[term] = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        scored = []
        for path in matched:
            norm = BM25_K1 * (
                1.0 - BM25_B
                + BM25_B * (self.lengths[path] / avgdl if avgdl else 0.0)
            )
            counts = self.counts[path]
            score = 0.0
            for term in terms:
                tf = counts.get(term, 0)
                if tf:
                    score += idf[term] * (tf * (BM25_K1 + 1.0)) / (tf + norm)
            scored.append((-score, path))
        scored.sort()
        top = scored[:TOPK]
        return answer_digest([p for _, p in top], [-s for s, _ in top])


@dataclass
class Inputs:
    """Everything one run needs, parent side."""

    corpus_dir: str
    corpus_bytes: int
    file_count: int
    rounds: List[dict]  # what the child executes, in order
    cold_query: Tuple[str, str]
    #: expected[pass index][position] -> answer digest
    expected_answers: List[List[str]] = field(default_factory=list)
    #: expected index shape at each build rep / after each churn cycle
    expected_build_shapes: List[Dict[str, int]] = field(default_factory=list)
    expected_cycle_shapes: List[Dict[str, int]] = field(default_factory=list)
    expected_deltas: List[Dict[str, List[str]]] = field(default_factory=list)
    digest_pristine: str = ""
    digest_final: str = ""
    distinct_queries: int = 0


def _schedule(count: int, rounds: int) -> Counter:
    """How many of ``count`` repetitions run in each round: spread
    evenly, the first always in round 0."""
    return Counter(k * rounds // count for k in range(count))


def _systematic(items: Sequence, n: int, rng: random.Random) -> List:
    """``n`` items at evenly spaced ranks with one random offset."""
    step = len(items) / n
    offset = rng.random() * step
    return [items[int(offset + j * step)] for j in range(n)]


class _QueryPlanner:
    """Draws queries by document-frequency rank stratum."""

    def __init__(self, oracle: Oracle, rng: random.Random) -> None:
        ranked = sorted(
            oracle.postings, key=lambda t: (-len(oracle.postings[t]), t)
        )
        n = len(ranked)
        self.frequent = ranked[: max(8, n // 100)]
        self.middle = ranked[max(8, n // 100) : max(16, n // 5)]
        self.rare = ranked[max(16, n // 5) :]
        self.rng = rng

    def draw(self, kind: str, ranked: bool) -> Query:
        rng = self.rng
        if kind == "term":
            pool = rng.choice((self.frequent, self.middle, self.rare))
            return Query("term", rng.choice(pool), ranked=ranked)
        if kind == "prefix":
            return Query("prefix", rng.choice(self.middle)[:3], ranked=ranked)
        # Frequent-with-rare pairs: a long list against a short one, so
        # that skipping whole blocks of the long list is what pays.
        a = rng.choice(self.frequent)
        b = rng.choice(self.rare if kind == "and" else self.middle)
        return Query(kind, a, b, ranked=ranked)

    def distinct(self, count: int, ranked_share: float) -> List[Query]:
        """``count`` queries with distinct texts, exact mix shares."""
        out: Dict[Tuple[str, bool], Query] = {}
        n_ranked = round(count * ranked_share)
        for ranked, total, mix in (
            (True, n_ranked, RANKED_MIX),
            (False, count - n_ranked, BOOLEAN_MIX),
        ):
            for kind, share in mix:
                want = len(out) + round(total * share)
                attempts = 0
                while len(out) < want and attempts < 50 * count:
                    query = self.draw(kind, ranked)
                    out.setdefault((query.text, ranked), query)
                    attempts += 1
        queries = list(out.values())
        self.rng.shuffle(queries)
        return queries


def _streams(workload: Workload, planner: _QueryPlanner) -> List[List[Query]]:
    """One query list per pass."""
    rng = planner.rng
    hot = planner.distinct(workload.hot_queries, workload.ranked_share)
    cold = planner.distinct(workload.cold_queries, workload.ranked_share)
    cursor = 0
    passes = []
    for _ in range(workload.query_passes):
        stream = []
        for _ in range(workload.queries_per_pass):
            if hot and rng.random() < workload.hot_share:
                stream.append(rng.choice(hot))
                continue
            if cursor == len(cold):
                rng.shuffle(cold)
                cursor = 0
            stream.append(cold[cursor])
            cursor += 1
        passes.append(stream)
    return passes


class _Churn:
    """Plans the deltas and writes their new contents to a staging dir."""

    def __init__(
        self, oracle, contents, words, zipf_exponent, staging_dir, mean_size, rng
    ) -> None:
        self.oracle = oracle
        self.contents: Dict[str, bytes] = contents
        self.words = words
        self.staging_dir = staging_dir
        self.mean_size = mean_size
        self.rng = rng
        self.cum_weights = list(
            itertools.accumulate(
                1.0 / (rank + 1) ** zipf_exponent for rank in range(len(words))
            )
        )
        self.staged = 0

    def _stage(self, content: bytes) -> str:
        path = os.path.join(self.staging_dir, f"{self.staged:05d}.txt")
        self.staged += 1
        with open(path, "wb") as fh:
            fh.write(content)
        return path

    def cycle(self, index: int) -> dict:
        rng, contents = self.rng, self.contents
        small = sorted(
            (p for p in contents if not p.startswith("large/")),
            key=lambda p: (len(contents[p]), p),
        )
        modified = _systematic(small, DELTA_MODIFIED, rng)
        chosen = set(modified)
        rest = [p for p in small if p not in chosen]
        removed = _systematic(rest, DELTA_REMOVED, rng)
        leaves = sorted({os.path.dirname(p) for p in small})
        delta = {"modify": [], "add": [], "remove": sorted(removed)}
        for path in sorted(modified):
            # Every 7th token is redrawn from the corpus's own Zipf law, so
            # the document keeps its number of distinct terms: redrawn
            # uniformly, each cycle added rare words and the index grew by
            # 1 % of its postings per cycle, build and compaction with it.
            tokens = contents[path].split()
            at = range(rng.randrange(7), len(tokens), 7)
            redrawn = rng.choices(self.words, cum_weights=self.cum_weights, k=len(at))
            for k, word in zip(at, redrawn):
                tokens[k] = word.encode("ascii")
            self._put(path, b" ".join(tokens), delta["modify"])
        for k in range(DELTA_ADDED):
            leaf = leaves[(index * DELTA_ADDED + k) % len(leaves)]
            count = max(1, self.mean_size // 7)
            text = " ".join(
                rng.choices(self.words, cum_weights=self.cum_weights, k=count)
            )
            self._put(
                f"{leaf}/add{index:03d}_{k}.txt",
                text[: self.mean_size].encode("ascii"),
                delta["add"],
            )
        for path in removed:
            del contents[path]
            self.oracle.remove(path)
        return delta

    def _put(self, path: str, content: bytes, into: list) -> None:
        if path in self.contents:
            self.oracle.remove(path)
        self.contents[path] = content
        self.oracle.add(path, content)
        into.append([path, self._stage(content)])


def make_inputs(workload: Workload, seed: int, work_dir: str) -> Inputs:
    """Generate, materialise and plan one run under ``work_dir``."""
    rng = random.Random(seed)
    profile = replace(workload.profile, seed=seed)
    generator = CorpusGenerator(profile)
    generator.vocabulary = Vocabulary(
        profile.vocabulary_size, seed=VOCABULARY_SEED
    )
    corpus = generator.generate()
    corpus_dir = os.path.join(work_dir, "corpus")
    staging_dir = os.path.join(work_dir, "deltas")
    os.makedirs(staging_dir)
    file_count = materialize(corpus.fs, corpus_dir)

    oracle = Oracle()
    contents: Dict[str, bytes] = {}
    for ref in corpus.fs.list_files():
        content = corpus.fs.read_file(ref.path)
        contents[ref.path] = content
        oracle.add(ref.path, content)
    corpus_bytes = sum(len(c) for c in contents.values())

    planner = _QueryPlanner(oracle, rng)
    streams = _streams(workload, planner)
    follows_churn = workload.stack == "session"
    pristine_answers: Dict[Tuple[str, str], str] = {}
    if not follows_churn:
        for stream in streams:
            for query in stream:
                if query.wire not in pristine_answers:
                    pristine_answers[query.wire] = oracle.answer(query)

    inputs = Inputs(
        corpus_dir=corpus_dir,
        corpus_bytes=corpus_bytes,
        file_count=file_count,
        rounds=[],
        cold_query=Query("term", planner.frequent[0]).wire,
        digest_pristine=oracle.digest(),
        distinct_queries=len({q.wire for s in streams for q in s}),
    )
    churn = _Churn(
        oracle,
        contents,
        corpus.vocabulary.words,
        profile.zipf_exponent,
        staging_dir,
        int(profile.mean_small_size),
        rng,
    )

    rounds = workload.rounds
    build_rounds = _schedule(workload.build_reps, rounds)
    pass_rounds = _schedule(workload.query_passes, rounds)
    churn_rounds = _schedule(workload.churn_cycles, rounds)
    cold_rounds = _schedule(workload.cold_reps, rounds)
    cycle = 0
    for index in range(rounds):
        step = {
            "build": index in build_rounds,
            "cold": cold_rounds[index],
            "queries": None,
            "churn": None,
            "compact": False,
        }
        if step["build"]:
            inputs.expected_build_shapes.append(oracle.shape())
        if index in pass_rounds:
            stream = streams[len(inputs.expected_answers)]
            step["queries"] = [q.wire for q in stream]
            if follows_churn:
                memo: Dict[Tuple[str, str], str] = {}
                for query in stream:
                    if query.wire not in memo:
                        memo[query.wire] = oracle.answer(query)
                inputs.expected_answers.append([memo[q.wire] for q in stream])
            else:
                inputs.expected_answers.append(
                    [pristine_answers[q.wire] for q in stream]
                )
        if index in churn_rounds:
            delta = churn.cycle(cycle)
            cycle += 1
            step["churn"] = delta
            step["compact"] = cycle % workload.compact_every == 0
            inputs.expected_deltas.append(
                {
                    "added": sorted(p for p, _ in delta["add"]),
                    "modified": sorted(p for p, _ in delta["modify"]),
                    "removed": delta["remove"],
                }
            )
            inputs.expected_cycle_shapes.append(oracle.shape())
        inputs.rounds.append(step)
    inputs.digest_final = oracle.digest()
    return inputs
