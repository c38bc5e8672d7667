#!/usr/bin/env python3
"""Repo-invariant linter: machine-checks the concurrency and layering contracts that the
thread-safety annotations cannot express (or that must hold even in files the Clang analysis
never sees, like tests and tools).

Rules
-----
raw-mutex           std::mutex / std::shared_mutex / std::condition_variable / std::lock_guard
                    / std::unique_lock / std::shared_lock / std::scoped_lock anywhere outside
                    src/common/thread_annotations.h. The Clang thread-safety analysis only
                    sees locks acquired through the annotated wrappers, so one raw mutex is a
                    hole in every GUARDED_BY contract in the repo.

blocking-under-lock A blocking call (ppoll, recvmsg/recvmmsg without MSG_DONTWAIT,
                    sleep/sleep_for/sleep_until, condition-variable waits, thread join) in a
                    lexical scope that still holds a lock guard. A loop that sleeps holding a
                    transport's node-table lock wedges every Unregister behind it.
                    Guard-aware: `lock.Unlock()` / `lock.unlock()` suspends the guard,
                    `lock.Lock()` / `lock.lock()` re-arms it; a CondVar wait naming the held
                    mutex (or the guard variable) is the one legitimate blocking-while-locked
                    pattern and is exempt.

layering            src/core must not include src/sim or src/runtime. The protocol core runs
                    unmodified under the deterministic simulator and the real-clock runtime;
                    an upward include would let runtime types leak into the replayable core.

msgtype-order       The Message variant in src/core/messages.h lists one FooMsg per MsgType
                    enumerator kFoo, in enumerator order. Tags map to structs by variant
                    position (TypeOf, MsgTypeTrait, DecodeMessage), so a missing or reordered
                    alternative would silently put one message type on another's tag.

Waivers
-------
A finding is waived by a comment on the same line or the line above:

    // bft-lint: allow(<rule>[,<rule>...]) <reason>

The reason is mandatory; a bare allow() is itself an error.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import os
import re
import sys

RULES = ("raw-mutex", "blocking-under-lock", "layering", "msgtype-order")

# Directories scanned relative to the repo root.
SCAN_DIRS = ("src", "tests", "tools", "bench", "examples")
CXX_EXTS = (".cc", ".cpp", ".h", ".hpp")

WRAPPER_HEADER = os.path.join("src", "common", "thread_annotations.h")

RAW_MUTEX_TOKENS = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|condition_variable(_any)?|"
    r"lock_guard|unique_lock|shared_lock|scoped_lock)\b"
)

# Guard declarations: `MutexLock lock(mu_);`, `ReaderMutexLock l(x.mu);` etc.
GUARD_DECL = re.compile(
    r"\b(MutexLock|ReaderMutexLock|WriterMutexLock)\s+(\w+)\s*[({]\s*([^;)}]*?)\s*[)}]"
)
# Guard state toggles on a previously declared guard variable.
GUARD_UNLOCK = re.compile(r"\b(\w+)\s*\.\s*[Uu]nlock(_shared)?\s*\(")
GUARD_RELOCK = re.compile(r"\b(\w+)\s*\.\s*[Ll]ock(_shared)?\s*\(")

# Blocking calls. Each entry: (regex, human label).
BLOCKING_CALLS = [
    (re.compile(r"\bppoll\s*\("), "ppoll"),
    (re.compile(r"\bpoll\s*\(\s*fds"), "poll"),
    (re.compile(r"\brecvmmsg\s*\("), "recvmmsg"),
    (re.compile(r"\brecvmsg\s*\("), "recvmsg"),
    (re.compile(r"\bsleep_for\s*\("), "sleep_for"),
    (re.compile(r"\bsleep_until\s*\("), "sleep_until"),
    (re.compile(r"(?<![\w.])sleep\s*\("), "sleep"),
    (re.compile(r"\.\s*join\s*\("), "thread join"),
    (re.compile(r"\.\s*(wait|wait_for|wait_until|Wait|WaitFor|WaitUntil)\s*\("), "cv wait"),
]
# recvmmsg/recvmsg with MSG_DONTWAIT never blocks; exempt when the flag is on the same line.
NONBLOCKING_FLAG = re.compile(r"MSG_DONTWAIT")

ALLOW = re.compile(r"//\s*bft-lint:\s*allow\(([^)]*)\)\s*(.*)")

# Matched against the raw line (the include path is a string literal, which the token
# stripper removes); anchoring to line start keeps commented-out includes from matching.
LAYERING_FORBIDDEN = re.compile(r'^\s*#include\s+"src/(sim|runtime)/')


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_strings_and_comments(line, in_block_comment):
    """Removes string/char literals and comments so tokens inside them never match.
    Returns (code, comment, still_in_block_comment): `comment` is the line's trailing //
    comment text (where waivers live)."""
    out = []
    comment = ""
    i = 0
    n = len(line)
    while i < n:
        if in_block_comment:
            end = line.find("*/", i)
            if end == -1:
                return "".join(out), comment, True
            i = end + 2
            in_block_comment = False
            continue
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            comment = line[i:]
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            in_block_comment = True
            i += 2
            continue
        if c in "\"'":
            quote = c
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            out.append(quote + quote)  # keep an empty literal so commas still separate args
            continue
        out.append(c)
        i += 1
    return "".join(out), comment, in_block_comment


def parse_waivers(raw_lines, findings, path):
    """Returns {line_number: set(rules)} where a waiver on line N covers lines N and N+1."""
    waivers = {}
    for idx, line in enumerate(raw_lines, start=1):
        m = ALLOW.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        reason = m.group(2).strip()
        unknown = rules - set(RULES)
        if unknown:
            findings.append(
                Finding(path, idx, "waiver", f"allow() names unknown rule(s): {sorted(unknown)}")
            )
        if not reason:
            findings.append(
                Finding(path, idx, "waiver", "allow() without a reason — say why, it's load-bearing")
            )
        for n in (idx, idx + 1):
            waivers.setdefault(n, set()).update(rules)
    return waivers


def waived(waivers, line, rule):
    return rule in waivers.get(line, set())


class Guard:
    """A lock guard in scope. `saved` snapshots `active` at each nested scope entry, so a
    toggle inside a branch (e.g. an if-block ending in `continue`) is undone when the branch's
    scope closes — the lexical state then matches the fallthrough path's runtime state."""

    __slots__ = ("var", "expr", "depth", "active", "saved")

    def __init__(self, var, expr, depth):
        self.var = var
        self.expr = expr
        self.depth = depth
        self.active = True
        self.saved = []


def check_file(path, rel, findings):
    with open(path, encoding="utf-8", errors="replace") as f:
        raw_lines = f.read().splitlines()

    waivers = parse_waivers(raw_lines, findings, rel)
    is_wrapper = rel == WRAPPER_HEADER
    in_core = rel.replace(os.sep, "/").startswith("src/core/")

    guards = []  # lexical stack of Guard, scoped by brace depth
    depth = 0
    in_block_comment = False

    for lineno, raw in enumerate(raw_lines, start=1):
        code, _, in_block_comment = strip_strings_and_comments(raw, in_block_comment)

        # --- raw-mutex ---
        if not is_wrapper:
            m = RAW_MUTEX_TOKENS.search(code)
            if m and not waived(waivers, lineno, "raw-mutex"):
                findings.append(
                    Finding(
                        rel, lineno, "raw-mutex",
                        f"{m.group(0)} outside {WRAPPER_HEADER} — use the annotated wrappers "
                        "(Mutex/SharedMutex/MutexLock/CondVar)",
                    )
                )

        # --- layering ---
        if in_core:
            m = LAYERING_FORBIDDEN.search(raw)
            if m and not waived(waivers, lineno, "layering"):
                findings.append(
                    Finding(
                        rel, lineno, "layering",
                        f"src/core includes src/{m.group(1)} — the core must stay runnable "
                        "under both the simulator and the runtime",
                    )
                )

        # --- guard tracking (declarations before toggles: a decl line can't also toggle) ---
        for m in GUARD_DECL.finditer(code):
            guards.append(Guard(m.group(2), m.group(3), depth))
        decl_vars = {g.var for g in guards if g.depth == depth}
        for m in GUARD_UNLOCK.finditer(code):
            for g in guards:
                if g.var == m.group(1):
                    g.active = False
        for m in GUARD_RELOCK.finditer(code):
            if m.group(1) in decl_vars and GUARD_DECL.search(code):
                continue  # the declaration itself, not a re-lock
            for g in guards:
                if g.var == m.group(1):
                    g.active = True

        # --- blocking-under-lock ---
        active = [g for g in guards if g.active]
        if active and not waived(waivers, lineno, "blocking-under-lock"):
            for rx, label in BLOCKING_CALLS:
                m = rx.search(code)
                if not m:
                    continue
                if label in ("recvmmsg", "recvmsg") and NONBLOCKING_FLAG.search(code):
                    continue
                # A wait that names the guard variable or its lock expression is the
                # condition-variable pattern: the wait atomically releases that mutex.
                call_args = code[m.end():]

                def named(token):
                    return token and re.search(rf"\b{re.escape(token)}\b", call_args)

                if label == "cv wait" and any(named(g.var) or named(g.expr) for g in active):
                    continue
                held = ", ".join(f"{g.var}({g.expr})" for g in active)
                findings.append(
                    Finding(
                        rel, lineno, "blocking-under-lock",
                        f"{label} while holding {held} — release the guard first",
                    )
                )

        # --- brace depth / scope exits ---
        for c in code:
            if c == "{":
                depth += 1
                for g in guards:
                    g.saved.append(g.active)
            elif c == "}":
                depth -= 1
                # Guards declared inside the closed scope die with it; survivors revert to the
                # lock state they had when the scope opened.
                guards = [g for g in guards if g.depth <= depth]
                for g in guards:
                    if g.saved:
                        g.active = g.saved.pop()

    return findings


def check_msgtype_order(root, findings):
    rel = os.path.join("src", "core", "messages.h")
    path = os.path.join(root, rel)
    if not os.path.exists(path):
        findings.append(Finding(rel, 0, "msgtype-order", "src/core/messages.h not found"))
        return
    with open(path, encoding="utf-8") as f:
        text = f.read()
    enum_m = re.search(r"enum class MsgType[^{]*\{(.*?)\}", text, re.S)
    variant_m = re.search(r"using Message\s*=\s*std::variant<(.*?)>;", text, re.S)
    if not enum_m or not variant_m:
        findings.append(
            Finding(rel, 0, "msgtype-order", "MsgType enum or Message variant not found")
        )
        return
    enumerators = re.findall(r"\b(k\w+)\s*=", enum_m.group(1))
    alternatives = re.findall(r"\w+", variant_m.group(1))
    line = text[: variant_m.start()].count("\n") + 1
    for i in range(max(len(enumerators), len(alternatives))):
        want = enumerators[i][1:] + "Msg" if i < len(enumerators) else None
        got = alternatives[i] if i < len(alternatives) else None
        if want != got:
            findings.append(
                Finding(
                    rel, line, "msgtype-order",
                    f"Message alternative {i} is {got or 'missing'} but tag {i + 1} is "
                    f"{('MsgType::' + enumerators[i]) if want else 'undefined'} — the tag "
                    "would encode and decode as the wrong struct",
                )
            )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None, help="repo root (default: this script's repo)")
    parser.add_argument("paths", nargs="*", help="explicit files to check (default: whole repo)")
    args = parser.parse_args(argv)

    root = args.root or os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    findings = []

    if args.paths:
        files = [(p, os.path.relpath(os.path.abspath(p), root)) for p in args.paths]
    else:
        files = []
        for d in SCAN_DIRS:
            base = os.path.join(root, d)
            for dirpath, _, names in os.walk(base):
                for name in sorted(names):
                    if name.endswith(CXX_EXTS):
                        full = os.path.join(dirpath, name)
                        files.append((full, os.path.relpath(full, root)))

    for full, rel in sorted(files, key=lambda t: t[1]):
        check_file(full, rel, findings)

    if not args.paths:
        check_msgtype_order(root, findings)

    for f in findings:
        print(f)
    if findings:
        print(f"bft_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("bft_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
