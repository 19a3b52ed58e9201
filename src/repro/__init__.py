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

The historical entry points (``IndexGenerator``, ``CorpusGenerator``,
the simulator names, ...) still import from here but now raise a
``DeprecationWarning`` — import them from their home modules
(:mod:`repro.engine`, :mod:`repro.corpus`, :mod:`repro.simengine`, ...)
or migrate to :class:`Search`; ``docs/api.md`` has the table.
"""

__version__ = "3.2.0"

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

#: The curated public API.  Everything else that used to live at the
#: top level still resolves via ``__getattr__`` with a
#: ``DeprecationWarning`` pointing at its home module.
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

#: legacy top-level name -> (home module, attribute).  Resolved lazily
#: and NOT cached into globals(), so every deprecated import site warns.
_LEGACY = {
    "ALL_PLATFORMS": ("repro.platforms", "ALL_PLATFORMS"),
    "CorpusGenerator": ("repro.corpus", "CorpusGenerator"),
    "CorpusProfile": ("repro.corpus", "CorpusProfile"),
    "IndexGenerator": ("repro.engine", "IndexGenerator"),
    "MANYCORE_32": ("repro.platforms", "MANYCORE_32"),
    "MultiIndex": ("repro.index", "MultiIndex"),
    "OCTO_CORE": ("repro.platforms", "OCTO_CORE"),
    "PAPER_PROFILE": ("repro.corpus", "PAPER_PROFILE"),
    "QUAD_CORE": ("repro.platforms", "QUAD_CORE"),
    "SMALL_PROFILE": ("repro.corpus", "SMALL_PROFILE"),
    "SequentialIndexer": ("repro.engine", "SequentialIndexer"),
    "SimPipeline": ("repro.simengine", "SimPipeline"),
    "TINY_PROFILE": ("repro.corpus", "TINY_PROFILE"),
    "Workload": ("repro.simengine", "Workload"),
    "join_indices": ("repro.index", "join_indices"),
    "parse_query": ("repro.query", "parse_query"),
}

# `Implementation` stays eagerly importable without a warning: it is an
# argument type for Search.build, just not advertised in __all__.


def __getattr__(name):
    """Resolve legacy top-level names with a deprecation warning."""
    target = _LEGACY.get(name)
    if target is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    module_name, attribute = target
    import warnings

    warnings.warn(
        f"importing {name!r} from the top-level 'repro' package is "
        f"deprecated; import it from {module_name} (or use "
        "repro.Search — see docs/api.md)",
        DeprecationWarning,
        stacklevel=2,
    )
    import importlib

    module = importlib.import_module(module_name)
    return getattr(module, attribute)


def __dir__():
    return sorted(set(__all__) | set(_LEGACY) | set(globals()))
