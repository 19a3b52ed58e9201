"""repro — a reproduction of "Parallelizing an Index Generator for
Desktop Search" (Meder & Tichy, Karlsruhe Reports in Informatics 2010-9).

The package has two halves:

* a **real desktop-search engine**: corpus generation
  (:mod:`repro.corpus`), FNV-hashed index structures (:mod:`repro.adt`,
  :mod:`repro.index`), the paper's three parallel implementations on
  real Python threads and processes (:mod:`repro.engine`), a boolean
  query engine (:mod:`repro.query`) and a snapshot-isolated query
  service (:mod:`repro.service`);
* a **calibrated platform simulator**: a discrete-event kernel
  (:mod:`repro.sim`), models of the paper's 4-, 8- and 32-core Intel
  machines (:mod:`repro.platforms`), the simulated pipeline
  (:mod:`repro.simengine`), an auto-tuner (:mod:`repro.autotune`) and
  the experiment drivers that regenerate the paper's Tables 1-4
  (:mod:`repro.experiments`).

The front door is the :class:`Search` session (:mod:`repro.api`)::

    from repro import Search, ThreadConfig

    session = Search.build("~/documents", config=ThreadConfig(3, 2, 0))
    hits = session.query("cat AND dog")
    session.refresh()                    # pick up filesystem changes
    session.save("documents.ridx")       # RIDX2; Search.open maps it
    service = session.serve(workers=4)   # concurrent serving

The top level exports exactly ``__all__`` (plus ``Implementation``, an
argument type of :meth:`Search.build`).  Everything else is imported
from its home module — ``IndexGenerator`` from :mod:`repro.engine`,
``CorpusGenerator`` from :mod:`repro.corpus`, the simulator from
:mod:`repro.simengine` and :mod:`repro.platforms`; ``docs/api.md`` has
the table.
"""

__version__ = "4.0.0"

from repro.api import Search
from repro.engine.config import Implementation, ThreadConfig
from repro.engine.faults import FaultPolicy
from repro.engine.results import BuildReport
from repro.extract import Extractor, ExtractorSpec, get_extractor
from repro.index.inverted import InvertedIndex
from repro.query.evaluator import QueryEngine
from repro.service.frontend import AsyncSearchFrontend
from repro.service.service import SearchService
from repro.service.sharded import ScatterGatherBroker, ShardDeadError

#: The curated public API.
__all__ = [
    "AsyncSearchFrontend",
    "BuildReport",
    "Extractor",
    "ExtractorSpec",
    "FaultPolicy",
    "InvertedIndex",
    "QueryEngine",
    "ScatterGatherBroker",
    "Search",
    "SearchService",
    "ShardDeadError",
    "ThreadConfig",
    "get_extractor",
]
