"""Property and contract tests for the trace-source registry.

The spec grammar is held to its documented algebra with hypothesis:
``parse_trace_spec`` is idempotent through ``format_trace_spec`` on
arbitrary text, is the exact inverse of ``format_trace_spec`` on
normalised parses, and every rejected spec raises
:class:`UnknownTraceSourceError` carrying the offending ``.spec``, the
``.reason`` and the accepted grammar (``.valid``) -- never a bare
``ValueError`` or a stack of parse internals.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import Trace
from repro.trace.sources import (
    ParsedTraceSpec,
    TraceSource,
    UnknownTraceSourceError,
    available_sources,
    canonical_trace_spec,
    format_trace_spec,
    list_sources,
    parse_trace_spec,
    register_source,
    source_names,
    trace_source,
    _SOURCES,
)

pytestmark = pytest.mark.sources

# Spec text drawn from the grammar's full surface: separators, key=value
# characters, whitespace and case.
_SPEC_TEXT = st.text(
    alphabet="abkz059:=._- \tKN", min_size=0, max_size=40
)

# Normalised tokens: what parse_trace_spec itself emits (lowercase,
# stripped, colon-free).
_TOKEN = st.text(
    alphabet="abkz059=._-", min_size=1, max_size=8
).filter(lambda t: t == t.strip())
_HEAD = st.text(alphabet="abkz", min_size=1, max_size=6).filter(
    lambda h: h != "file"
)


# ----------------------------------------------------------------------
# Grammar properties
# ----------------------------------------------------------------------

@given(_SPEC_TEXT)
@settings(max_examples=300)
def test_parse_is_idempotent_through_format(text):
    """parse . format . parse == parse on arbitrary input."""
    parsed = parse_trace_spec(text)
    assert parse_trace_spec(format_trace_spec(parsed)) == parsed


@given(_HEAD, st.tuples(_TOKEN, _TOKEN) | st.tuples(_TOKEN) | st.just(()))
@settings(max_examples=300)
def test_parse_inverts_format_on_normalised_specs(head, params):
    """format . parse == identity on parse's own image."""
    parsed = ParsedTraceSpec(head=head, params=params)
    assert parse_trace_spec(format_trace_spec(parsed)) == parsed


@given(st.text(alphabet="abkz059._-/", min_size=1, max_size=20))
@settings(max_examples=200)
def test_file_head_keeps_path_verbatim(path):
    """``file:`` swallows the rest of the spec as one case-preserved
    token, including internal colons."""
    parsed = parse_trace_spec(f"file:Traces/{path}:v2.JSONL")
    assert parsed.head == "file"
    assert parsed.params == (f"Traces/{path}:v2.JSONL",)


def test_parse_normalises_case_and_whitespace():
    assert parse_trace_spec("  Branchy : N=64 : Seed=3  ") == (
        ParsedTraceSpec(head="branchy", params=("n=64", "seed=3"))
    )
    assert trace_source("  BRANCHY : n=32 ").name == (
        trace_source("branchy:n=32").name
    )


# ----------------------------------------------------------------------
# Error contract
# ----------------------------------------------------------------------

@given(st.text(alphabet="qvwx059", min_size=1, max_size=12))
@settings(max_examples=200)
def test_unknown_source_error_carries_spec_and_valid(head):
    if head in source_names():  # pragma: no cover - alphabet avoids them
        return
    spec = f"{head}:n=4"
    with pytest.raises(UnknownTraceSourceError) as error:
        trace_source(spec)
    exc = error.value
    assert isinstance(exc, ValueError)
    assert exc.spec == spec
    assert exc.valid == available_sources()
    assert exc.valid in str(exc)


@pytest.mark.parametrize(
    ("spec", "fragment"),
    (
        ("branchy:n=abc", "n must be an integer"),
        ("branchy:taken=lots", "taken must be a number"),
        ("branchy:n=64:n=32", "duplicate parameter 'n'"),
        ("branchy:=3", "malformed parameter"),
        ("branchy:turbo", "unknown token 'turbo'"),
        ("branchy:warp=9", "unknown parameter(s) warp"),
        ("kernel", "'kernel' needs a loop number"),
        ("kernel:99", "no Livermore loop numbered 99"),
        ("kernel:x7", "bad loop number 'x7'"),
        ("kernel:5:vector=on", "no vectorised encoding"),
        ("kernel:5:schedule=maybe", "schedule must be on/off"),
        ("kernel:5:addressing=wide", "addressing must be folded or explicit"),
        ("kernel:1:vector=on:addressing=explicit", "does not combine"),
        ("kernel:18:unroll=2", "unknown parameter(s) unroll"),
        ("kernel:12:unroll=0", "unroll must be >= 1"),
        ("kernel:1:n=10:unroll=4", "unroll=4 does not divide"),
        ("kernel:5:n=0", "loop 5 needs n >= 2"),
        ("synthetic:stride:deep", "more than one preset"),
        ("fuzz:seed=3:seed=4", "duplicate parameter 'seed'"),
        ("mixed:strip=0", "strip"),
        ("pointer:chains=9", "chains"),
        ("file:", "needs a path"),
    ),
)
def test_malformed_specs_reject_with_reason(spec, fragment):
    with pytest.raises(UnknownTraceSourceError) as error:
        trace_source(spec)
    exc = error.value
    assert exc.spec == spec
    assert exc.reason is not None
    assert fragment in exc.reason, exc.reason
    assert "\n" not in str(exc)


@pytest.mark.parametrize(
    ("spec", "canonical"),
    (
        ("kernel:5", "kernel:5:n=200"),
        ("kernel:05", "kernel:5:n=200"),
        ("KERNEL:k5:N=200", "kernel:5:n=200"),
        ("kernel:5:schedule=off:n=16", "kernel:5:n=16:schedule=off"),
        ("kernel:3:addressing=explicit:unroll=2:schedule=on",
         "kernel:3:n=256:unroll=2:addressing=explicit"),
        ("kernel:1:vector=on", "kernel:1:n=128:vector=on"),
        ("kernel:24", "kernel:24:n=200"),
        ("branchy:seed=3:n=64", "branchy:seed=3:n=64"),
        ("synthetic: stride :n=12", "synthetic:stride:n=12"),
        ("file:Traces/App:v2.jsonl", "file:Traces/App:v2.jsonl"),
    ),
)
def test_canonical_trace_spec(spec, canonical):
    """Kernel specs get one spelling; every other family keeps its
    :func:`format_trace_spec` text."""
    assert canonical_trace_spec(spec) == canonical
    assert canonical_trace_spec(canonical) == canonical


def test_canonical_spec_is_what_instances_and_plans_record():
    from repro.harness.plans import PLAN_BUILDERS, build_plan
    from repro.kernels import build_kernel
    from repro.kernels.extended import build_extended
    from repro.kernels.vectorized import build_vectorized

    instances = {
        "kernel:5": build_kernel(5),
        "kernel:5:schedule=off:n=16": build_kernel(5, 16, schedule=False),
        "kernel:3:unroll=2:addressing=explicit": build_kernel(
            3, unroll=2, explicit_addressing=True
        ),
        "kernel:1:vector=on": build_vectorized(1),
        "kernel:24": build_extended(24),
    }
    for spec, instance in instances.items():
        assert canonical_trace_spec(spec) == instance.source
    for table_id in PLAN_BUILDERS:
        for cell in build_plan(table_id).cells:
            assert canonical_trace_spec(cell.source) == cell.source


def test_spellings_of_one_kernel_share_one_memo_entry():
    import repro.api as api
    from repro.harness.engine import clear_process_memo
    from repro.trace import GLOBAL_TRACE_CACHE

    clear_process_memo()
    traces = [
        api.resolve_trace(spec)
        for spec in ("kernel:5", "kernel:5:n=200", "kernel:05")
    ]
    assert traces[0] is traces[1] is traces[2]
    assert len(GLOBAL_TRACE_CACHE) == 1


@pytest.mark.parametrize("head", ("file", "FILE", " file"))
def test_file_sources_are_reread_under_any_spelling(tmp_path, head):
    """A file can change between calls, so no spelling of a ``file:``
    spec is served from the trace memo."""
    import repro.api as api
    from repro.harness.engine import clear_process_memo
    from repro.trace import GLOBAL_TRACE_CACHE, export_trace

    clear_process_memo()
    path = tmp_path / "trace.jsonl"
    export_trace(trace_source("branchy:n=32:seed=1"), path)
    first = api.resolve_trace(f"{head}:{path}")
    export_trace(trace_source("branchy:n=48:seed=2"), path)
    second = api.resolve_trace(f"{head}:{path}")
    assert (len(first), len(second)) == (32, 48)
    assert len(GLOBAL_TRACE_CACHE) == 0


def test_file_errors_keep_importer_diagnostics(tmp_path):
    """Archive problems surface as TraceImportError (path:line), not as
    a generic bad-spec error."""
    from repro.trace import TraceImportError

    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    with pytest.raises(TraceImportError) as error:
        trace_source(f"file:{bad}")
    assert error.value.path == str(bad)
    assert error.value.line == 1


# ----------------------------------------------------------------------
# Registry behaviour
# ----------------------------------------------------------------------

def test_source_names_sorted_and_documented():
    names = source_names()
    assert names == tuple(sorted(names))
    assert set(names) >= {
        "branchy", "file", "fuzz", "kernel", "mixed", "pointer",
        "synthetic",
    }
    for source in list_sources():
        assert source.description
        assert source.templates
        for template in source.templates:
            assert template.startswith(source.name)


def test_register_source_last_wins():
    marker = Trace(
        name="custom",
        entries=trace_source("fuzz:seed=0:len=4").entries,
    )
    custom = TraceSource(
        name="customsrc",
        description="test-only source",
        templates=("customsrc",),
        builder=lambda params: marker,
    )
    register_source(custom)
    try:
        assert trace_source("customsrc") is marker
        replacement = TraceSource(
            name="customsrc",
            description="replaced",
            templates=("customsrc",),
            builder=lambda params: marker,
        )
        register_source(replacement)
        assert _SOURCES["customsrc"].description == "replaced"
    finally:
        _SOURCES.pop("customsrc", None)
    with pytest.raises(UnknownTraceSourceError):
        trace_source("customsrc")


@pytest.mark.parametrize(
    "family", ("branchy", "pointer", "mixed", "fuzz", "synthetic")
)
def test_seeded_families_are_deterministic(family):
    first = trace_source(f"{family}:seed=11")
    second = trace_source(f"{family}:seed=11")
    assert first.name == second.name
    assert list(first.entries) == list(second.entries)


@pytest.mark.parametrize("family", ("branchy", "pointer", "fuzz"))
def test_seed_changes_the_trace(family):
    a = trace_source(f"{family}:seed=0")
    b = trace_source(f"{family}:seed=1")
    assert list(a.entries) != list(b.entries)


@given(
    st.integers(min_value=8, max_value=160),
    st.integers(min_value=0, max_value=500),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_branchy_knob_space_is_always_valid(n, seed, taken, block):
    """Every point in the documented branchy knob space mints an
    ISA-valid trace of the requested length (Trace construction
    validates each entry; compile proves the IR lowers)."""
    from repro.core import fastpath

    trace = trace_source(
        f"branchy:n={n}:seed={seed}:taken={taken:.3f}:block={block}"
    )
    assert isinstance(trace, Trace)
    assert len(trace) == n
    assert fastpath.compile_trace(trace) is not None


@given(
    st.integers(min_value=8, max_value=160),
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_pointer_knob_space_is_always_valid(n, seed, chains, gather):
    from repro.core import fastpath

    trace = trace_source(
        f"pointer:n={n}:seed={seed}:chains={chains}:gather={gather:.3f}"
    )
    assert len(trace) == n
    assert fastpath.compile_trace(trace) is not None


@given(
    st.integers(min_value=16, max_value=400),
    st.integers(min_value=1, max_value=64),
)
@settings(max_examples=60, deadline=None)
def test_mixed_knob_space_is_always_valid(elements, strip):
    from repro.core import fastpath

    trace = trace_source(f"mixed:n={elements}:strip={strip}")
    assert len(trace) > 0
    assert fastpath.compile_trace(trace) is not None
