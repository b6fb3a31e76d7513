#!/usr/bin/env python3
"""Fail on scheduling knobs that nothing outside the tests ever sets, and
on environment-variable switches in the shipped code.

Every ``SchedPolicy`` / ``ServingPolicy`` field in ``src/sched/policy.h``
must earn its place: a bench, an example, or one of the policy/SimConfig
factories assigns it (so it backs an ablation or a shipped preset). A
field that only tests set is a constant in disguise: it keeps dead code
paths alive in both engines. This script parses the two structs' data
members and greps for an assignment to each one, ``.name = ...`` or
``.name[i] = ...``, in the scanned sources.

    python3 scripts/check_knobs.py

Exit is nonzero, naming each unearned field, when any field is assigned
nowhere. ALLOWLIST holds the few knobs kept for a stated reason.

The same run fails on any ``getenv(`` under src/, bench/ or examples/:
behaviour switched by an undocumented environment variable is a knob no
CLI or policy shows. GETENV_ALLOWLIST holds the uses kept on purpose,
each with its reason; a failure names the file, line and variable.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POLICY_HEADER = os.path.join("src", "sched", "policy.h")
STRUCTS = ("SchedPolicy", "ServingPolicy")

# Directories scanned recursively for assignments, plus the headers
# that hold the policy and SimConfig factories.
SCAN_DIRS = ("bench", "examples")
FACTORY_FILES = (POLICY_HEADER, os.path.join("src", "sim", "scheduler.h"))

ALLOWLIST = {
    "parkFallbackUs": "RuntimeParking.BoardParkingShutsDownCleanly sets a "
                      "long fallback to show shutdown never waits it out",
}

# Directories scanned for getenv calls, and the (file, variable) pairs
# allowed to read the environment.
GETENV_DIRS = ("src", "bench", "examples")
GETENV_ALLOWLIST = {
    (os.path.join("bench", "bench_common.h"), "GITHUB_SHA"):
        "bench-report provenance: CI's commit sha stamps every JSON row",
}
GETENV_RE = re.compile(r'\bgetenv\s*\(\s*(?:"([^"]*)")?')

FIELD_RE = re.compile(
    r"^\s*(?:[A-Za-z_][\w:<>]*\s+)+([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?"
    r"\s*(?:=[^=;][^;]*|\{[^}]*\})?;")


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def blank_comments(text):
    """strip_comments, but a block comment keeps its newlines so line
    numbers still match the file."""
    text = re.sub(r"/\*.*?\*/", lambda m: "\n" * m.group(0).count("\n"),
                  text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def check_getenv():
    """Print every getenv call under GETENV_DIRS; return the unallowed
    ones as "path:line VARIABLE" strings."""
    failed = []
    for d in GETENV_DIRS:
        for root, _, files in sorted(os.walk(os.path.join(REPO, d))):
            for f in sorted(files):
                if not f.endswith((".cpp", ".cc", ".h")):
                    continue
                path = os.path.join(root, f)
                rel = os.path.relpath(path, REPO)
                with open(path) as fh:
                    text = blank_comments(fh.read())
                for m in GETENV_RE.finditer(text):
                    line = text.count("\n", 0, m.start()) + 1
                    var = m.group(1) or "<non-literal>"
                    where = "%s:%d %s" % (rel, line, var)
                    reason = GETENV_ALLOWLIST.get((rel, var))
                    if reason:
                        print("  getenv %-42s allowlisted: %s"
                              % (where, reason))
                    else:
                        print("  getenv %-42s FAIL: undocumented "
                              "environment switch" % where)
                        failed.append(where)
    return failed


def struct_fields(text, name):
    """Data members of ``struct name { ... };``: member functions and
    the nested ServingPolicy block are skipped."""
    m = re.search(r"\bstruct\s+%s\s*\{" % name, text)
    if m is None:
        sys.exit("check_knobs: struct %s not found in %s"
                 % (name, POLICY_HEADER))
    # Keep the struct's own (depth-1) text; each nested brace block
    # collapses to "{};" so initializers and function bodies end a
    # statement.
    depth, body = 1, []
    for c in text[m.end():]:
        if c == "{":
            depth += 1
            if depth == 2:
                body.append("{")
        elif c == "}":
            depth -= 1
            if depth == 0:
                break
            if depth == 1:
                body.append("};")
        elif depth == 1:
            body.append(c)
    fields = []
    for stmt in "".join(body).split(";"):
        stmt = " ".join(stmt.split())
        if not stmt or "(" in stmt or stmt.split()[0] in STRUCTS:
            continue
        fm = FIELD_RE.match(stmt + ";")
        if fm is not None:
            fields.append(fm.group(1))
    return fields


def sources():
    for d in SCAN_DIRS:
        for root, _, files in os.walk(os.path.join(REPO, d)):
            for f in sorted(files):
                if f.endswith((".cpp", ".cc", ".h")):
                    yield os.path.join(root, f)
    for f in FACTORY_FILES:
        yield os.path.join(REPO, f)


def main():
    with open(os.path.join(REPO, POLICY_HEADER)) as f:
        header = strip_comments(f.read())
    fields = [(s, n) for s in STRUCTS for n in struct_fields(header, s)]
    if not fields:
        sys.exit("check_knobs: parsed no fields from %s" % POLICY_HEADER)
    corpus = ""
    for path in sources():
        with open(path) as f:
            corpus += strip_comments(f.read()) + "\n"
    failed = []
    for struct, name in fields:
        assigned = re.search(
            r"\.%s\s*(?:\[[^\]]*\]\s*)?=(?!=)" % re.escape(name), corpus)
        if assigned:
            status = "ok"
        elif name in ALLOWLIST:
            status = "allowlisted: " + ALLOWLIST[name]
        else:
            status = "FAIL: assigned nowhere under %s or the factories" % (
                ", ".join(d + "/" for d in SCAN_DIRS))
            failed.append("%s::%s" % (struct, name))
        print("  %-44s %s" % ("%s::%s" % (struct, name), status))
    stale = sorted(set(ALLOWLIST) - {n for _, n in fields})
    for name in stale:
        print("  allowlist entry %s names no field" % name)
    getenv_failed = check_getenv()
    status = 0
    if failed or stale:
        print("check_knobs: %d unearned knob(s): %s"
              % (len(failed), ", ".join(failed) or "-"))
        status = 1
    else:
        print("check_knobs: %d knobs, all earned" % len(fields))
    if getenv_failed:
        print("check_knobs: %d getenv use(s) outside the allowlist: %s"
              % (len(getenv_failed), ", ".join(getenv_failed)))
        status = 1
    else:
        print("check_knobs: no getenv outside the allowlist")
    return status


if __name__ == "__main__":
    sys.exit(main())
