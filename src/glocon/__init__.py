"""Corpus toolkit for GLOCON-style protest event annotation.

Typed schema model, JSON Lines corpus I/O, manual-rule linting, event
assembly and inter-annotator agreement metrics.

Importing the package loads none of its modules: each name below is
imported from its module on first use (PEP 562), so a command pays only
for the modules it runs.
"""

import importlib

_EXPORTS = {
    **dict.fromkeys(
        ("AgreementLevel", "KappaResult", "MatchMode", "PRFReport", "label_kappa",
         "pair_corpora", "span_prf"),
        "agreement",
    ),
    **dict.fromkeys(
        ("EventRecord", "ParticipantRecord", "assemble_events", "check_separation",
         "export_rows"),
        "assemble",
    ),
    **dict.fromkeys(
        ("ParseError", "ParseErrorKind", "iter_corpus", "load_corpus", "parse_corpus",
         "parse_event_refs", "save_corpus", "serialize_corpus"),
        "io",
    ),
    **dict.fromkeys(
        ("CATALOG", "Diagnostic", "LintConfig", "Severity", "allowed_overlap",
         "validate_corpus", "validate_document"),
        "lint",
    ),
    **dict.fromkeys(
        ("Annotation", "DemandLabel", "DocumentLabels", "DocumentRecord", "Focus",
         "InvariantError", "ProtestLabel", "SentenceLabel", "SentenceRecord", "TagId",
         "TokenSpan", "ViolenceLabel", "coterminous", "overlaps"),
        "model",
    ),
}
_MODULES = frozenset(_EXPORTS.values())

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULES:  # ``glocon.lint`` without ``import glocon.lint`` first
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
