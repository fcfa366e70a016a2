#!/usr/bin/env python3
"""Project lint: repo-specific invariants no generic tool checks.

Rules
-----
  metrics-registry   Tickers/Histograms enums and their name tables stay in
                     sync (same entry count), and every literal
                     "rocksmash.ticker.<name>" / "rocksmash.histogram.<name>"
                     used anywhere resolves to a registered dotted name.
  trace-schema       The TraceRecordType enum (trace_format.h), its name
                     table kTraceRecordTypeNames (trace_format.cc), and the
                     record-type table in docs/TRACING.md list the same
                     record types in the same order.
  mutex-lock-order   Every Mutex member declaration carries a lock-hierarchy
                     comment ("Lock order: ...") on the declaration line or
                     in the comment block directly above it.
  todo-issue-tag     No TODO/FIXME without an issue tag: TODO(#123).
  permit-unchecked   Every PermitUncheckedError() call carries a
                     "why unchecked:" reason comment on the same line or in
                     the lines directly above it.
  blob-options-sync  The fields of struct BlobOptions (src/lsm/options.h),
                     the fields ValidateBlobOptions acknowledges
                     (src/lsm/options.cc), and the option table under
                     "## Value separation" in DESIGN.md name the same set —
                     adding a knob without validating and documenting it is
                     a lint error.
  shared-resources-sync
                     Same contract for struct SharedResourcesOptions
                     (src/lsm/shared_resources.h): every field must be
                     acknowledged by ValidateSharedResourcesOptions
                     (src/lsm/shared_resources.cc) and listed in the
                     resource table under "## Sharding & shared resources"
                     in DESIGN.md.
  scheme-options-sync
                     struct SchemeOptions (src/baselines/kvstore.h) derives
                     from DBOptions (src/lsm/options.h) and declares no
                     field name DBOptions declares: every engine knob has
                     one declaration.

Usage: tools/lint.py [--self-test] [paths...]
Exits 0 when clean, 1 on findings, 2 on usage/internal errors.
"""

import argparse
import os
import re
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_DIRS = ("src", "tests", "tools", "bench", "examples", "fuzz")
SOURCE_EXTS = (".cc", ".h")

METRICS_HEADER = os.path.join("src", "util", "metrics.h")
METRICS_SOURCE = os.path.join("src", "util", "metrics.cc")

TRACE_HEADER = os.path.join("src", "trace", "trace_format.h")
TRACE_SOURCE = os.path.join("src", "trace", "trace_format.cc")
TRACE_DOC = os.path.join("docs", "TRACING.md")

BLOB_OPTIONS_HEADER = os.path.join("src", "lsm", "options.h")
BLOB_OPTIONS_SOURCE = os.path.join("src", "lsm", "options.cc")
BLOB_DOC = "DESIGN.md"

SHARED_RES_HEADER = os.path.join("src", "lsm", "shared_resources.h")
SHARED_RES_SOURCE = os.path.join("src", "lsm", "shared_resources.cc")
SHARED_RES_DOC = "DESIGN.md"

DB_OPTIONS_HEADER = os.path.join("src", "lsm", "options.h")
SCHEME_OPTIONS_HEADER = os.path.join("src", "baselines", "kvstore.h")


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def iter_source_files(root, dirs=DEFAULT_DIRS):
    for d in dirs:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            continue
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.join(dirpath, name)


def read_lines(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read().splitlines()


# ---------------------------------------------------------------- metrics --


def parse_enum_entries(text, enum_name, sentinel):
    """Names declared in `enum <enum_name> ... { A, B, ..., sentinel }`."""
    m = re.search(
        r"enum\s+" + re.escape(enum_name) + r"\s*(?::\s*\w+\s*)?\{(.*?)\}",
        text,
        re.S,
    )
    if m is None:
        return None
    # Strip line comments before splitting: comments may contain commas.
    body = re.sub(r"//[^\n]*", "", m.group(1))
    entries = []
    for raw in body.split(","):
        name = raw.split("=")[0].strip()
        if name and name != sentinel:
            entries.append(name)
    return entries


def parse_name_table(text, table_name):
    """String literals in `const char* const <table_name>[...] = { ... };`"""
    m = re.search(re.escape(table_name) + r"\[[^\]]*\]\s*=\s*\{(.*?)\};", text, re.S)
    if m is None:
        return None
    return re.findall(r'"([^"]*)"', m.group(1))


def check_metrics_registry(root):
    findings = []
    header_path = os.path.join(root, METRICS_HEADER)
    source_path = os.path.join(root, METRICS_SOURCE)
    try:
        header = open(header_path, encoding="utf-8").read()
        source = open(source_path, encoding="utf-8").read()
    except OSError as e:
        return [Finding("metrics-registry", METRICS_HEADER, 1, f"cannot read registry: {e}")]

    registries = (
        ("Tickers", "TICKER_ENUM_MAX", "kTickerNames"),
        ("Histograms", "HISTOGRAM_ENUM_MAX", "kHistogramNames"),
    )
    names_by_table = {}
    for enum_name, sentinel, table in registries:
        entries = parse_enum_entries(header, enum_name, sentinel)
        names = parse_name_table(source, table)
        if entries is None:
            findings.append(Finding("metrics-registry", METRICS_HEADER, 1,
                                    f"enum {enum_name} not found"))
            continue
        if names is None:
            findings.append(Finding("metrics-registry", METRICS_SOURCE, 1,
                                    f"name table {table} not found"))
            continue
        if len(entries) != len(names):
            findings.append(Finding(
                "metrics-registry", METRICS_SOURCE, 1,
                f"{enum_name} has {len(entries)} entries but {table} has "
                f"{len(names)} names — the registry is out of sync"))
        dupes = {n for n in names if names.count(n) > 1}
        for d in sorted(dupes):
            findings.append(Finding("metrics-registry", METRICS_SOURCE, 1,
                                    f"duplicate name {d!r} in {table}"))
        names_by_table[table] = set(names)

    # Every "rocksmash.ticker.<x>" / "rocksmash.histogram.<x>" literal must
    # resolve. These are the property strings callers can pass to
    # DB::GetProperty, so a typo silently reads as "property not found".
    ref_re = re.compile(r'"rocksmash\.(ticker|histogram)\.([a-z0-9._]+)"')
    for path in iter_source_files(root):
        rel = os.path.relpath(path, root)
        for lineno, line in enumerate(read_lines(path), 1):
            for kind, dotted in ref_re.findall(line):
                table = "kTickerNames" if kind == "ticker" else "kHistogramNames"
                known = names_by_table.get(table, set())
                if dotted not in known:
                    findings.append(Finding(
                        "metrics-registry", rel, lineno,
                        f'"rocksmash.{kind}.{dotted}" does not match any '
                        f"registered {kind} name"))
    return findings


# ------------------------------------------------------------ trace schema --


def parse_doc_record_table(text):
    """Backticked record names from the table under "## Record types"."""
    m = re.search(r"^## Record types$(.*?)(?:^## |\Z)", text, re.S | re.M)
    if m is None:
        return None
    return re.findall(r"^\|\s*`([a-z_]+)`", m.group(1), re.M)


def check_trace_schema(root):
    """TraceRecordType enum, its name table, and docs/TRACING.md agree."""
    findings = []
    header_path = os.path.join(root, TRACE_HEADER)
    source_path = os.path.join(root, TRACE_SOURCE)
    doc_path = os.path.join(root, TRACE_DOC)
    try:
        header = open(header_path, encoding="utf-8").read()
        source = open(source_path, encoding="utf-8").read()
        doc = open(doc_path, encoding="utf-8").read()
    except OSError as e:
        return [Finding("trace-schema", TRACE_HEADER, 1,
                        f"cannot read trace schema: {e}")]

    entries = parse_enum_entries(header, "TraceRecordType",
                                 "TRACE_RECORD_TYPE_MAX")
    names = parse_name_table(source, "kTraceRecordTypeNames")
    doc_names = parse_doc_record_table(doc)
    if entries is None:
        return [Finding("trace-schema", TRACE_HEADER, 1,
                        "enum TraceRecordType not found")]
    if names is None:
        return [Finding("trace-schema", TRACE_SOURCE, 1,
                        "name table kTraceRecordTypeNames not found")]
    if doc_names is None:
        return [Finding("trace-schema", TRACE_DOC, 1,
                        'record-type table under "## Record types" not found')]

    if len(entries) != len(names):
        findings.append(Finding(
            "trace-schema", TRACE_SOURCE, 1,
            f"TraceRecordType has {len(entries)} entries but "
            f"kTraceRecordTypeNames has {len(names)} names — the schema is "
            "out of sync"))
    if doc_names != names:
        missing = [n for n in names if n not in doc_names]
        extra = [n for n in doc_names if n not in names]
        detail = []
        if missing:
            detail.append(f"missing from doc: {', '.join(missing)}")
        if extra:
            detail.append(f"unknown in doc: {', '.join(extra)}")
        if not detail:
            detail.append("same names, different order")
        findings.append(Finding(
            "trace-schema", TRACE_DOC, 1,
            "record-type table does not match kTraceRecordTypeNames "
            f"({'; '.join(detail)})"))
    return findings


# ------------------------------------------------------- mutex lock order --

# A member/local declaration of the project Mutex type. Matches
# "Mutex mu_;", "mutable Mutex mu;  // ...". Uses of MutexLock (the guard)
# or types merely containing "Mutex" in their name do not match.
MUTEX_DECL_RE = re.compile(r"^\s*(?:mutable\s+)?Mutex\s+\w+\s*;")
LOCK_ORDER_TOKEN = "Lock order:"


def check_mutex_lock_order(root, paths=None):
    findings = []
    for path in paths or iter_source_files(root):
        rel = os.path.relpath(path, root)
        lines = read_lines(path)
        for idx, line in enumerate(lines):
            if not MUTEX_DECL_RE.match(line):
                continue
            if LOCK_ORDER_TOKEN in line:
                continue
            # Walk the contiguous comment block directly above.
            ok = False
            j = idx - 1
            while j >= 0 and lines[j].strip().startswith("//"):
                if LOCK_ORDER_TOKEN in lines[j]:
                    ok = True
                    break
                j -= 1
            if not ok:
                findings.append(Finding(
                    "mutex-lock-order", rel, idx + 1,
                    "Mutex member without a lock-hierarchy comment "
                    '("Lock order: ...")'))
    return findings


# --------------------------------------------------------- todo issue tag --

TODO_RE = re.compile(r"\b(TODO|FIXME)\b")
TODO_TAGGED_RE = re.compile(r"\b(?:TODO|FIXME)\(#\d+\)")


def check_todo_issue_tag(root, paths=None):
    findings = []
    for path in paths or iter_source_files(root):
        rel = os.path.relpath(path, root)
        if os.path.abspath(path) == os.path.abspath(__file__):
            continue  # this file names the rule in its own docs
        for lineno, line in enumerate(read_lines(path), 1):
            if TODO_RE.search(line) and not TODO_TAGGED_RE.search(line):
                findings.append(Finding(
                    "todo-issue-tag", rel, lineno,
                    "TODO/FIXME without an issue tag — use TODO(#123)"))
    return findings


# -------------------------------------------------------- permit unchecked --

PERMIT_RE = re.compile(r"\bPermitUncheckedError\s*\(")
WHY_TOKEN = "why unchecked"
# How far above a call the reason comment may sit (statements wrap).
WHY_LOOKBACK = 6


def check_permit_unchecked(root, paths=None):
    findings = []
    for path in paths or iter_source_files(root):
        rel = os.path.relpath(path, root)
        if rel.replace(os.sep, "/") == "src/util/status.h":
            continue  # the definition site
        lines = read_lines(path)
        for idx, line in enumerate(lines):
            if not PERMIT_RE.search(line):
                continue
            window = lines[max(0, idx - WHY_LOOKBACK):idx + 1]
            if not any(WHY_TOKEN in w for w in window):
                findings.append(Finding(
                    "permit-unchecked", rel, idx + 1,
                    'PermitUncheckedError() without a "why unchecked:" '
                    "reason comment"))
    return findings


# ------------------------------------------------------- blob options sync --


def parse_struct_fields(text, struct_name):
    """Member names of `struct <struct_name> { ... };` or of
    `struct <struct_name> : Base { ... };`. Nested blocks (constructor and
    member-function bodies) are skipped, so assignments inside them are not
    taken for fields; inherited fields are not included."""
    text = re.sub(r"//[^\n]*", "", text)
    m = re.search(r"struct\s+" + re.escape(struct_name) +
                  r"\s*(?::\s*(?:public\s+)?[\w:]+\s*)?\{", text)
    if m is None:
        return None
    depth = 1
    body = []
    for i in range(m.end(), len(text)):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                break
            if depth == 1:
                body.append(";")  # a nested block ends a statement
        elif depth == 1:
            body.append(c)
    else:
        return None
    fields = []
    for stmt in "".join(body).split(";"):
        decl = stmt.split("=")[0].strip()
        parts = decl.split()
        if len(parts) >= 2:
            fields.append(parts[-1])
    return fields


def parse_blob_validator_fields(text):
    """Fields `ValidateBlobOptions` touches, as `blob.<field>` references."""
    m = re.search(
        r"Status\s+ValidateBlobOptions\s*\([^)]*blob[^)]*\)\s*\{(.*?)\n\}",
        text, re.S)
    if m is None:
        return None
    return set(re.findall(r"\bblob\.(\w+)", m.group(1)))


def parse_blob_doc_fields(text):
    """Backticked field names from the table under "## Value separation"."""
    m = re.search(r"^## Value separation.*?$(.*?)(?:^## |\Z)", text,
                  re.S | re.M)
    if m is None:
        return None
    return re.findall(r"^\|\s*`(\w+)`\s*\|", m.group(1), re.M)


def check_blob_options_sync(root):
    """BlobOptions struct, its validator, and the DESIGN.md table agree."""
    header_path = os.path.join(root, BLOB_OPTIONS_HEADER)
    source_path = os.path.join(root, BLOB_OPTIONS_SOURCE)
    doc_path = os.path.join(root, BLOB_DOC)
    try:
        header = open(header_path, encoding="utf-8").read()
        source = open(source_path, encoding="utf-8").read()
        doc = open(doc_path, encoding="utf-8").read()
    except OSError as e:
        return [Finding("blob-options-sync", BLOB_OPTIONS_HEADER, 1,
                        f"cannot read blob options: {e}")]

    fields = parse_struct_fields(header, "BlobOptions")
    validated = parse_blob_validator_fields(source)
    doc_fields = parse_blob_doc_fields(doc)
    if fields is None:
        return [Finding("blob-options-sync", BLOB_OPTIONS_HEADER, 1,
                        "struct BlobOptions not found")]
    if validated is None:
        return [Finding("blob-options-sync", BLOB_OPTIONS_SOURCE, 1,
                        "ValidateBlobOptions not found")]
    if doc_fields is None:
        return [Finding("blob-options-sync", BLOB_DOC, 1,
                        'option table under "## Value separation" not found')]

    findings = []
    for f in fields:
        if f not in validated:
            findings.append(Finding(
                "blob-options-sync", BLOB_OPTIONS_SOURCE, 1,
                f"BlobOptions::{f} is not acknowledged by "
                "ValidateBlobOptions (validate it, or (void)blob.<field> "
                "with a comment if any value is valid)"))
    for f in validated - set(fields):
        findings.append(Finding(
            "blob-options-sync", BLOB_OPTIONS_SOURCE, 1,
            f"ValidateBlobOptions references blob.{f}, which is not a "
            "BlobOptions field"))
    missing_doc = [f for f in fields if f not in doc_fields]
    extra_doc = [f for f in doc_fields if f not in fields]
    for f in missing_doc:
        findings.append(Finding(
            "blob-options-sync", BLOB_DOC, 1,
            f"BlobOptions::{f} is missing from the option table under "
            '"## Value separation"'))
    for f in extra_doc:
        findings.append(Finding(
            "blob-options-sync", BLOB_DOC, 1,
            f"option table lists `{f}`, which is not a BlobOptions field"))
    return findings


# --------------------------------------------------- shared resources sync --


def parse_shared_validator_fields(text):
    """Fields `ValidateSharedResourcesOptions` touches (`opts.<field>`)."""
    m = re.search(
        r"Status\s+ValidateSharedResourcesOptions\s*\([^)]*opts[^)]*\)"
        r"\s*\{(.*?)\n\}",
        text, re.S)
    if m is None:
        return None
    return set(re.findall(r"\bopts\.(\w+)", m.group(1)))


def parse_shared_doc_fields(text):
    """Backticked field names from the resource table under
    "## Sharding & shared resources"."""
    m = re.search(r"^## Sharding & shared resources.*?$(.*?)(?:^## |\Z)",
                  text, re.S | re.M)
    if m is None:
        return None
    return re.findall(r"^\|\s*`(\w+)`\s*\|", m.group(1), re.M)


def check_shared_resources_sync(root):
    """SharedResourcesOptions struct, its validator, and DESIGN.md agree."""
    header_path = os.path.join(root, SHARED_RES_HEADER)
    source_path = os.path.join(root, SHARED_RES_SOURCE)
    doc_path = os.path.join(root, SHARED_RES_DOC)
    try:
        header = open(header_path, encoding="utf-8").read()
        source = open(source_path, encoding="utf-8").read()
        doc = open(doc_path, encoding="utf-8").read()
    except OSError as e:
        return [Finding("shared-resources-sync", SHARED_RES_HEADER, 1,
                        f"cannot read shared resources: {e}")]

    fields = parse_struct_fields(header, "SharedResourcesOptions")
    validated = parse_shared_validator_fields(source)
    doc_fields = parse_shared_doc_fields(doc)
    if fields is None:
        return [Finding("shared-resources-sync", SHARED_RES_HEADER, 1,
                        "struct SharedResourcesOptions not found")]
    if validated is None:
        return [Finding("shared-resources-sync", SHARED_RES_SOURCE, 1,
                        "ValidateSharedResourcesOptions not found")]
    if doc_fields is None:
        return [Finding(
            "shared-resources-sync", SHARED_RES_DOC, 1,
            'resource table under "## Sharding & shared resources" '
            "not found")]

    findings = []
    for f in fields:
        if f not in validated:
            findings.append(Finding(
                "shared-resources-sync", SHARED_RES_SOURCE, 1,
                f"SharedResourcesOptions::{f} is not acknowledged by "
                "ValidateSharedResourcesOptions (validate it, or "
                "(void)opts.<field> with a comment if any value is valid)"))
    for f in validated - set(fields):
        findings.append(Finding(
            "shared-resources-sync", SHARED_RES_SOURCE, 1,
            f"ValidateSharedResourcesOptions references opts.{f}, which is "
            "not a SharedResourcesOptions field"))
    for f in [f for f in fields if f not in doc_fields]:
        findings.append(Finding(
            "shared-resources-sync", SHARED_RES_DOC, 1,
            f"SharedResourcesOptions::{f} is missing from the resource "
            'table under "## Sharding & shared resources"'))
    for f in [f for f in doc_fields if f not in fields]:
        findings.append(Finding(
            "shared-resources-sync", SHARED_RES_DOC, 1,
            f"resource table lists `{f}`, which is not a "
            "SharedResourcesOptions field"))
    return findings


# ---------------------------------------------------- scheme options sync --


def check_scheme_options_sync(root):
    """SchemeOptions derives DBOptions' engine knobs; it must not redeclare
    any of them (a redeclaration hides the base field, so the engine would
    silently read the DBOptions default)."""
    try:
        base = open(os.path.join(root, DB_OPTIONS_HEADER),
                    encoding="utf-8").read()
        scheme = open(os.path.join(root, SCHEME_OPTIONS_HEADER),
                      encoding="utf-8").read()
    except OSError as e:
        return [Finding("scheme-options-sync", SCHEME_OPTIONS_HEADER, 1,
                        f"cannot read options headers: {e}")]
    base_fields = parse_struct_fields(base, "DBOptions")
    scheme_fields = parse_struct_fields(scheme, "SchemeOptions")
    if base_fields is None:
        return [Finding("scheme-options-sync", DB_OPTIONS_HEADER, 1,
                        "struct DBOptions not found")]
    if scheme_fields is None:
        return [Finding("scheme-options-sync", SCHEME_OPTIONS_HEADER, 1,
                        "struct SchemeOptions not found")]
    return [Finding("scheme-options-sync", SCHEME_OPTIONS_HEADER, 1,
                    f"SchemeOptions::{f} redeclares DBOptions::{f}; set the "
                    "inherited field (a different default goes in the "
                    "SchemeOptions constructor)")
            for f in scheme_fields if f in set(base_fields)]


# -------------------------------------------------------------- self test --

SELF_TEST_SOURCE = """\
// Seeded violations: every rule must fire on this file.
struct Foo {
  Mutex mu_;                       // mutex-lock-order: no comment
};
// TODO: untagged cleanup          // todo-issue-tag
void f() {
  DoThing().PermitUncheckedError();  // permit-unchecked: no reason
}
const char* p = "rocksmash.ticker.not.a.real.ticker";  // metrics-registry
"""


def run_self_test():
    with tempfile.TemporaryDirectory() as tmp:
        os.makedirs(os.path.join(tmp, "src"))
        seeded = os.path.join(tmp, "src", "seeded.cc")
        with open(seeded, "w", encoding="utf-8") as f:
            f.write(SELF_TEST_SOURCE)

        expectations = {
            "mutex-lock-order": check_mutex_lock_order(tmp, [seeded]),
            "todo-issue-tag": check_todo_issue_tag(tmp, [seeded]),
            "permit-unchecked": check_permit_unchecked(tmp, [seeded]),
            # metrics check runs against the real repo registry, with the
            # seeded file injected by scanning tmp through the repo's tables.
        }
        failures = []
        for rule, found in expectations.items():
            if not any(f.rule == rule for f in found):
                failures.append(f"rule {rule} did not fire on seeded violation")

        # metrics-registry: the unresolvable ticker reference must fire when
        # the seeded tree is scanned against the real registry. Clone the
        # registry files into the tmp tree so the check is hermetic.
        os.makedirs(os.path.join(tmp, "src", "util"))
        for rel in (METRICS_HEADER, METRICS_SOURCE):
            with open(os.path.join(REPO_ROOT, rel), encoding="utf-8") as f:
                content = f.read()
            with open(os.path.join(tmp, rel), "w", encoding="utf-8") as f:
                f.write(content)
        found = check_metrics_registry(tmp)
        if not any(f.rule == "metrics-registry" for f in found):
            failures.append("rule metrics-registry did not fire on seeded violation")

        # trace-schema: clone the real schema files; the untouched trio must
        # be clean, and a doc table with a dropped row must fire.
        os.makedirs(os.path.join(tmp, "src", "trace"))
        os.makedirs(os.path.join(tmp, "docs"))
        for rel in (TRACE_HEADER, TRACE_SOURCE, TRACE_DOC):
            with open(os.path.join(REPO_ROOT, rel), encoding="utf-8") as f:
                content = f.read()
            with open(os.path.join(tmp, rel), "w", encoding="utf-8") as f:
                f.write(content)
        if check_trace_schema(tmp):
            failures.append("rule trace-schema fired on the real schema")
        with open(os.path.join(tmp, TRACE_DOC), encoding="utf-8") as f:
            doc_lines = f.read().splitlines(keepends=True)
        dropped = [ln for ln in doc_lines if not ln.startswith("| `put`")]
        if dropped == doc_lines:
            failures.append("trace-schema self-test could not seed a "
                            "violation (no `put` row in docs/TRACING.md)")
        with open(os.path.join(tmp, TRACE_DOC), "w", encoding="utf-8") as f:
            f.writelines(dropped)
        if not any(f.rule == "trace-schema" for f in check_trace_schema(tmp)):
            failures.append("rule trace-schema did not fire on seeded violation")

        # blob-options-sync: clone the real trio; untouched it must be
        # clean, and dropping a field row from the DESIGN.md table must fire.
        os.makedirs(os.path.join(tmp, "src", "lsm"))
        for rel in (BLOB_OPTIONS_HEADER, BLOB_OPTIONS_SOURCE, BLOB_DOC):
            with open(os.path.join(REPO_ROOT, rel), encoding="utf-8") as f:
                content = f.read()
            with open(os.path.join(tmp, rel), "w", encoding="utf-8") as f:
                f.write(content)
        if check_blob_options_sync(tmp):
            failures.append("rule blob-options-sync fired on the real repo")
        with open(os.path.join(tmp, BLOB_DOC), encoding="utf-8") as f:
            doc_lines = f.read().splitlines(keepends=True)
        dropped = [ln for ln in doc_lines if not ln.startswith("| `min_blob_size`")]
        if dropped == doc_lines:
            failures.append("blob-options-sync self-test could not seed a "
                            "violation (no `min_blob_size` row in DESIGN.md)")
        with open(os.path.join(tmp, BLOB_DOC), "w", encoding="utf-8") as f:
            f.writelines(dropped)
        if not any(f.rule == "blob-options-sync"
                   for f in check_blob_options_sync(tmp)):
            failures.append("rule blob-options-sync did not fire on seeded "
                            "violation")

        # shared-resources-sync: clone the real trio (DESIGN.md is already
        # in tmp from the blob clone above — rewrite it fresh); untouched it
        # must be clean, and dropping a field row from the resource table
        # must fire.
        for rel in (SHARED_RES_HEADER, SHARED_RES_SOURCE, SHARED_RES_DOC):
            with open(os.path.join(REPO_ROOT, rel), encoding="utf-8") as f:
                content = f.read()
            with open(os.path.join(tmp, rel), "w", encoding="utf-8") as f:
                f.write(content)
        if check_shared_resources_sync(tmp):
            failures.append("rule shared-resources-sync fired on the real "
                            "repo")
        with open(os.path.join(tmp, SHARED_RES_DOC), encoding="utf-8") as f:
            doc_lines = f.read().splitlines(keepends=True)
        dropped = [ln for ln in doc_lines
                   if not ln.startswith("| `flush_threads`")]
        if dropped == doc_lines:
            failures.append("shared-resources-sync self-test could not seed "
                            "a violation (no `flush_threads` row in "
                            "DESIGN.md)")
        with open(os.path.join(tmp, SHARED_RES_DOC), "w",
                  encoding="utf-8") as f:
            f.writelines(dropped)
        if not any(f.rule == "shared-resources-sync"
                   for f in check_shared_resources_sync(tmp)):
            failures.append("rule shared-resources-sync did not fire on "
                            "seeded violation")

        # scheme-options-sync: clone the two real headers (options.h is
        # already in tmp from the blob clone above); untouched they must be
        # clean, and a seeded redeclaration of a DBOptions field in
        # SchemeOptions must fire.
        os.makedirs(os.path.join(tmp, "src", "baselines"))
        for rel in (DB_OPTIONS_HEADER, SCHEME_OPTIONS_HEADER):
            with open(os.path.join(REPO_ROOT, rel), encoding="utf-8") as f:
                content = f.read()
            with open(os.path.join(tmp, rel), "w", encoding="utf-8") as f:
                f.write(content)
        if check_scheme_options_sync(tmp):
            failures.append("rule scheme-options-sync fired on the real repo")
        with open(os.path.join(tmp, SCHEME_OPTIONS_HEADER),
                  encoding="utf-8") as f:
            header = f.read()
        seeded_header = re.sub(r"(struct\s+SchemeOptions\b[^{]*\{)",
                               r"\1\n  int max_open_files = 100;", header,
                               count=1)
        if seeded_header == header:
            failures.append("scheme-options-sync self-test could not seed a "
                            "violation (no struct SchemeOptions)")
        with open(os.path.join(tmp, SCHEME_OPTIONS_HEADER), "w",
                  encoding="utf-8") as f:
            f.write(seeded_header)
        if not any(f.rule == "scheme-options-sync"
                   for f in check_scheme_options_sync(tmp)):
            failures.append("rule scheme-options-sync did not fire on "
                            "seeded violation")

        # And a clean tree must stay clean: the lock-order comment form used
        # across the repo must satisfy the checker.
        clean = os.path.join(tmp, "src", "clean.cc")
        with open(clean, "w", encoding="utf-8") as f:
            f.write("struct Bar {\n"
                    "  // Lock order: leaf.\n"
                    "  Mutex mu_;\n"
                    "};\n"
                    "void g() {\n"
                    "  // why unchecked: best-effort cleanup.\n"
                    "  DoThing().PermitUncheckedError();\n"
                    "}\n")
        for rule, checker in (("mutex-lock-order", check_mutex_lock_order),
                              ("permit-unchecked", check_permit_unchecked)):
            if checker(tmp, [clean]):
                failures.append(f"rule {rule} fired on a compliant file")

        if failures:
            for f in failures:
                print(f"self-test FAIL: {f}", file=sys.stderr)
            return 1
        print("self-test OK: all rules fire on seeded violations and "
              "accept compliant code")
        return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on seeded violations")
    parser.add_argument("paths", nargs="*",
                        help="restrict mutex/todo/permit checks to these files")
    args = parser.parse_args(argv)

    if args.self_test:
        return run_self_test()

    paths = [os.path.abspath(p) for p in args.paths] or None
    findings = []
    findings += check_metrics_registry(REPO_ROOT)
    findings += check_trace_schema(REPO_ROOT)
    findings += check_blob_options_sync(REPO_ROOT)
    findings += check_shared_resources_sync(REPO_ROOT)
    findings += check_scheme_options_sync(REPO_ROOT)
    findings += check_mutex_lock_order(REPO_ROOT, paths)
    findings += check_todo_issue_tag(REPO_ROOT, paths)
    findings += check_permit_unchecked(REPO_ROOT, paths)

    for f in findings:
        print(f)
    if findings:
        print(f"lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
