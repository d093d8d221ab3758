"""Corpus toolkit for GLOCON-style protest event annotation.

Typed schema model, JSON Lines corpus I/O, manual-rule linting, event
assembly and inter-annotator agreement metrics.
"""

from .agreement import (
    AgreementLevel,
    KappaResult,
    MatchMode,
    PRFReport,
    label_kappa,
    pair_corpora,
    span_prf,
)
from .assemble import (
    EventRecord,
    ParticipantRecord,
    assemble_events,
    check_separation,
    export_rows,
)
from .io import (
    ParseError,
    ParseErrorKind,
    iter_corpus,
    load_corpus,
    parse_corpus,
    parse_event_refs,
    save_corpus,
    serialize_corpus,
)
from .lint import (
    CATALOG,
    Diagnostic,
    LintConfig,
    Severity,
    allowed_overlap,
    validate_corpus,
    validate_document,
)
from .model import (
    Annotation,
    DemandLabel,
    DocumentLabels,
    DocumentRecord,
    Focus,
    InvariantError,
    ProtestLabel,
    SentenceLabel,
    SentenceRecord,
    TagId,
    TokenSpan,
    ViolenceLabel,
    coterminous,
    overlaps,
)

__version__ = "0.1.0"
