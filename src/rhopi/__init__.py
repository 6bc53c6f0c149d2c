"""Workbench for a reflective process calculus and the asynchronous,
choice-free name-passing calculus, built around two translations between
them: a legacy scheme whose replication machinery rebinds its own machine
names, and a corrected scheme that requests every fresh name from a runtime
name server.

Layout:

* ``rhoterm`` — reflective terms: quoted-process names, canonical forms,
  name equivalence, quote depth, the static name templates.
* ``rhoreduce`` — reduction, reachability, observables.
* ``piterm`` — name-passing terms, canonical forms, reduction, observables.
* ``encode`` — the two translations and their parameter policies.
* ``equiv`` — bounded barbed bisimulation, weak observation, divergence
  analysis.
* ``lts`` — bounded breadth-first exploration shared by the above.
* ``harness`` — packaged experiments and the randomized criteria suite.
* ``cli`` — parsers, printers, and the command-line interface.
"""

from .encode import (
    EncodingError,
    EncodingParams,
    MrEncoding,
    NsEncoding,
    RenamingPolicy,
    copier,
    derivable,
    encode_mr,
    encode_ns,
    make_encoding_params,
    name_server,
    translate_mr,
    translate_ns,
)
from .equiv import (
    BisimReport,
    BisimVerdict,
    DivergenceReport,
    DivergenceVerdict,
    barbed_bisim,
    bisim_blocks,
    divergence_probe,
    graph_barbs,
    graph_divergence,
    pi_barbed_bisim,
    pi_divergence,
    pi_weak_barb_set,
    rho_barbed_bisim,
    rho_graph_divergence,
    rho_weak_barb_set,
    weak_observations,
)
from .harness import (
    BoundsTooSmall,
    Check,
    Corpus,
    Report,
    check_criteria,
    make_corpus,
    random_pi_term,
    repro_cex1,
    repro_cex2,
    repro_separation_witness,
)
from .lts import BarbSearch, Lts, Verdict, explore, weak_barb_search
from .piterm import (
    PiTerm,
    named,
    pi_barbs,
    pi_canon,
    pi_eq,
    pi_free_names,
    pi_step,
    pin,
    pnew,
    pnil,
    pout,
    ppar,
    prepl,
    show_pi,
)
from .rhoreduce import barbs, components, redexes, step
from .rhoterm import (
    NamespaceScheme,
    RhoName,
    RhoProc,
    canon_name,
    canon_proc,
    drop,
    free_names,
    gen_fresh,
    inp,
    lift,
    lincr,
    name_eq,
    ncomp,
    nil,
    par,
    peel,
    quote,
    quote_depth,
    quote_depth_proc,
    rincr,
    show_name,
    show_proc,
    struct_eq,
    subst_syn,
)

from . import encode as _encode
from . import equiv as _equiv
from . import piterm as _piterm
from . import rhoreduce as _rhoreduce
from . import rhoterm as _rhoterm

__version__ = "0.1.0"

# memo tables derived from interned terms, as each module lists them; the
# intern tables themselves are not listed (see clear_caches)
_DERIVED_CACHES = {
    f"{module}.{name}": table
    for module, tables in (
        ("rhoterm", _rhoterm.DERIVED_CACHES),
        ("rhoreduce", _rhoreduce.DERIVED_CACHES),
        ("piterm", _piterm.DERIVED_CACHES),
        ("encode", _encode.DERIVED_CACHES),
        ("equiv", _equiv.DERIVED_CACHES),
    )
    for name, table in tables.items()
}


def cache_stats() -> dict:
    """Number of entries in each derived memo table, by table."""
    return {name: len(table) for name, table in _DERIVED_CACHES.items()}


def clear_caches() -> None:
    """Empty the derived memo tables; every result is recomputed on demand.

    The intern tables are kept: equality of terms is object identity, so a
    structure must keep mapping to the node already handed out."""
    for table in _DERIVED_CACHES.values():
        table.clear()
